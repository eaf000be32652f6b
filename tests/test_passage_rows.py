"""The smoothings the polynomials and span tables read off passages, with
no smoothed Diagram built, against the walks and Diagrams they stand for.

``span_table`` labels every type-3 smoothing of a pair from one
prefix-label array per component; each row is checked against the one
walk, ``index_walk`` over the smoothing's ``type3_segments``.
``type1_rows`` and the type-2 tuples are checked against ``smooth1`` and
``smooth2``, and the three polynomials against their formulas evaluated
on smoothed Diagrams.  ``knot_rows`` is checked against the one walk over
a knot's own passages; a batch row of the knot battery, and the knot
invariants of a verify step, label the knot's own crossings once."""

import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vknots import Diagram, Passage, memo, parse, serialize
from vknots.cli import main
from vknots.invariants import (
    compute_invariant,
    dwrithe,
    dwrithe_nm,
    f_poly,
    f_poly_nmk,
    fspan_nk,
    tilde_f,
)
from vknots.invariants.spans import FTILDE_VARS, span_table
from vknots.invariants.writhes import (
    FNMK_VARS,
    FPOLY_VARS,
    crossing_poly,
    smoothed_writhe_table,
    type1_rows,
    writhe_totals,
)
from vknots.labeling import index_map, index_walk, knot_rows
from vknots.smoothing import smooth1, smooth2, type1_segments, type2_components, type3_segments

from conftest import random_chord_diagram


@st.composite
def two_component_links(draw):
    """A two-component link with at least one joining crossing: some
    self-crossings on each component, ids drawn up to 60 (past 9), signs
    and positions at random."""
    n_first, n_second = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    n_join = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(1, 60), min_size=n_first + n_second + n_join,
                        max_size=n_first + n_second + n_join, unique=True))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    first, second = [], []
    for k, c in enumerate(ids):
        s = rng.choice((1, -1))
        over, under = Passage(c, "O", s), Passage(c, "U", s)
        if k < n_first:
            first += [over, under]
        elif k < n_first + n_second:
            second += [over, under]
        elif rng.random() < 0.5:
            first.append(over)
            second.append(under)
        else:
            first.append(under)
            second.append(over)
    rng.shuffle(first)
    rng.shuffle(second)
    return Diagram((tuple(first), tuple(second)))


@settings(max_examples=150, deadline=None)
@given(two_component_links())
@example(parse("O1+;U1+"))  # a single joining crossing
@example(parse("O1-U2+O3-;U1-O2+U3-"))  # components with only joining crossings
@example(parse("O12-U3+O10+O21+U21+;U12-O3+U10+"))  # ids past 9
def test_span_table_rows_equal_the_type3_walks(d):
    first, second = d.components
    at = {p.crossing: j for j, p in enumerate(second)}
    want = []
    for i, p in sorted(enumerate(first), key=lambda t: t[1].crossing):
        if p.crossing in at:
            walk = index_walk(*type3_segments(first, i, second, at[p.crossing]))
            want.append((p.sign if p.over else -p.sign, writhe_totals(walk)))
    assert [(s, dict(t)) for s, t in span_table(first, second)] == want
    # the same rows with the components' roles swapped: signs negate
    assert [(s, dict(t)) for s, t in span_table(second, first)] \
        == [(-s, t) for s, t in want]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 14))
def test_type1_rows_and_type2_tuples_equal_the_smoothed_diagrams(seed, n_chords):
    d = random_chord_diagram(random.Random(seed), n_chords, 1)
    rows = type1_rows(d)
    assert [(s, ind) for s, ind, _, _, _ in rows] \
        == [(d.sign(c), ind) for c, ind in index_map(d).items()]
    for c, (_, _, segments, walk, table) in zip(d.crossing_ids(), rows):
        assert segments == type1_segments(d, c)
        smoothed = smooth1(d, c)
        assert sorted(walk) == sorted(index_walk(smoothed.components[0]))
        assert dict(table) == writhe_totals(index_walk(smoothed.components[0]))
        assert type2_components(*segments) == smooth2(d, c).components


def _oracle_f_poly(d, n):
    base = dwrithe(d, n)
    rows = []
    for c, ind in index_map(d).items():
        sd = dwrithe(smooth1(d, c), n)
        rows.append((d.sign(c), ind, (sd,), (sd,) if sd in (base, -base) else (base,)))
    return crossing_poly(FPOLY_VARS, rows)


def _oracle_f_poly_nmk(d, n, m, k):
    base1, base2 = dwrithe(d, n), dwrithe_nm(d, m, k)
    rows = []
    for c, ind in index_map(d).items():
        dc = smooth1(d, c)
        e = (dwrithe(dc, n), dwrithe_nm(dc, m, k))
        in_t = e[0] in (base1, -base1) and e[1] in (base2, -base2)
        rows.append((d.sign(c), ind, e, e if in_t else (base1, base2)))
    return crossing_poly(FNMK_VARS, rows)


def _oracle_tilde_f(d, n, k, m):
    base = dwrithe(d, n)
    rows = []
    for c, ind in index_map(d).items():
        e1 = dwrithe(smooth1(d, c), n)
        fs = fspan_nk(smooth2(d, c), k, m)
        in_t = e1 in (base, -base) and fs == 0
        rows.append((d.sign(c), ind, (e1, fs), (e1 if in_t else base, fs)))
    return crossing_poly(FTILDE_VARS, rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 14), st.integers(1, 3),
       st.integers(1, 2), st.integers(-2, 2))
def test_polynomials_equal_their_smoothed_diagram_formulas(seed, n_chords, n, m, k):
    d = random_chord_diagram(random.Random(seed), n_chords, 1)
    assert f_poly(d, n) == _oracle_f_poly(d, n)
    assert f_poly_nmk(d, n, m, k) == _oracle_f_poly_nmk(d, n, m, k)
    assert tilde_f(d, n, m, k) == _oracle_tilde_f(d, n, m, k)


@pytest.mark.parametrize("code", ["0", "O1+U1+", "U1-O1-", "O1-U2+O3-U1-O2+U3-"])
def test_polynomials_of_small_knots(code):
    d = parse(code)
    for n in (1, 2):
        assert f_poly(d, n) == _oracle_f_poly(d, n)
        assert f_poly_nmk(d, n, 1, 1) == _oracle_f_poly_nmk(d, n, 1, 1)
        assert tilde_f(d, n, 1, 0) == _oracle_tilde_f(d, n, 1, 0)


def _record(monkeypatch, real, calls):
    """Rebind ``real`` in every vknots module that imports it to a wrapper
    that appends its arguments to ``calls``."""
    for modname, module in list(sys.modules.items()):
        if modname.startswith("vknots") and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__,
                                lambda *args: calls.append(args) or real(*args))


def test_dwrithe_nm_walks_only_smoothings(monkeypatch, k431):
    """``dwrithe_nm`` reads the knot's own crossings off the memoised
    ``knot_rows`` (filled here through ``index_map``) and walks only the
    smoothings it sums; m = 0 smooths nothing."""
    memo.clear()
    index_map(k431)
    walks: list = []
    tables: list = []
    _record(monkeypatch, index_walk, walks)
    _record(monkeypatch, smoothed_writhe_table, tables)
    for n in range(1, 4):
        for m in range(-3, 4):
            dwrithe_nm(k431, n, m)
    assert dwrithe_nm(k431, 1, 1) == -4
    assert walks and all(args[0] != k431.components[0] for args in walks)
    tables.clear()
    assert dwrithe_nm(k431, 2, 0) == 0 and tables == []


def test_battery_row_walks_the_knot_once(monkeypatch, capsys, tmp_path, k431):
    """A batch row of the knot battery labels the knot's own crossings
    once, in ``knot_rows``: every other value reads them off it, or off
    the smoothings in ``type1_rows``."""
    cat = tmp_path / "cat.tsv"
    cat.write_text(f"K431\t{serialize(k431)}\n", encoding="utf-8")
    calls: list = []
    _record(monkeypatch, index_walk, calls)
    memo.clear()
    assert main(["batch", "--inv", "aip,djn(1),djn(2),djn(3),fpoly(1),djnm(1,1),"
                 "fnmk(1,1,1),ftilde(1,1,0)", str(cat)]) == 0
    assert "djnm(1,1)=-4" in capsys.readouterr().out
    assert [args for args in calls if args[0] == k431.components[0]] \
        == [(k431.components[0],)]


def test_knot_invariants_label_and_sum_the_knot_once(monkeypatch, k431):
    """The knot invariants of a verify step read one ``knot_rows`` entry:
    the knot is walked once and its writhe table summed once."""
    sums: list = []
    _record(monkeypatch, writhe_totals, sums)
    memo.clear()
    misses = knot_rows.cache_info().misses
    for name, params in (("jn", {"n": -1}), ("aip", {}), ("djn", {"n": 1}),
                         ("djn", {"n": 2}), ("djn", {"n": 3})):
        compute_invariant(name, k431, params)
    assert knot_rows.cache_info().misses - misses == 1
    rows = tuple(sorted(index_walk(k431.components[0])))
    assert [args for args in sums if args == (rows,)] == [(rows,)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 12))
def test_knot_rows_are_the_sorted_walk_and_its_writhe_table(seed, n_chords):
    comp = random_chord_diagram(random.Random(seed), n_chords, 1).components[0]
    rows, table = knot_rows(comp)
    assert list(rows) == sorted(index_walk(comp))
    assert dict(table) == writhe_totals(rows)
