"""The memo policy: a command leaves no table behind, counts accumulate,
and memoised values equal freshly computed ones."""

import random
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vknots import Diagram, PreconditionError, builtin_catalog, lookup, memo, parse
from vknots.cli import _default_battery, main
from vknots.invariants import comparable_invariant, dwrithe, fingerprint
from vknots.invariants.fingerprint import _canonical_fingerprint, _knot_vector
from vknots.invariants.flatsums import _b_rows, b_sum
from vknots.invariants.spans import span_table
from vknots.invariants.writhes import type1_rows
from vknots.labeling import index_map, knot_rows

from conftest import random_chord_diagram

DEPTH, WINDOW = 1, 2


def _totals():
    return [t.cache_info() for t in memo.TABLES]


def test_every_memoised_function_is_registered():
    assert set(memo.TABLES) == {
        knot_rows, type1_rows, dwrithe, span_table, _knot_vector,
        _canonical_fingerprint, _b_rows,
    }
    assert {t.cache_info().maxsize for t in memo.TABLES} == {memo.MAXSIZE}
    assert all(t.cache_parameters()["typed"] for t in memo.TABLES)


@pytest.mark.parametrize("bad", [1.0, True])
def test_an_equal_argument_of_another_type_misses(kishino, bad):
    """``1 == 1.0 == True`` and all hash alike, so an untyped table would
    answer ``b_sum(d, 1.0)`` with the entry ``b_sum(d, 1)`` left, and skip
    the check that refuses it on a fresh memo."""
    memo.clear()
    b_sum(kishino, 1)
    with pytest.raises(PreconditionError) as exc:
        b_sum(kishino, bad)
    assert str(exc.value) == f"component index must be an integer, got {bad!r}"


def _holds_list(value) -> bool:
    if isinstance(value, list):
        return True
    if isinstance(value, Diagram):
        return _holds_list(value.components)
    return isinstance(value, tuple) and any(_holds_list(x) for x in value)


def test_memoised_tables_are_read_only(k431, hopf, kishino):
    """A memoised value is shared by every later caller, so none can be
    edited in place: mappings are read-only views, rows are tuples."""
    link = parse("U2-U4+;O1-O4+U1-O2-")  # K431 split at crossing 3
    rows = span_table(*link.components)
    assert rows == ((1, {-1: -1, 1: -1}), (-1, {-1: 0}))
    assert all(isinstance(row, tuple) for row in rows)
    knot, knot_table = knot_rows(k431.components[0])
    assert isinstance(knot, tuple) and all(isinstance(row, tuple) for row in knot)
    tables = [index_map(k431), knot_table] + [table for _, table in rows]
    for table in tables:
        with pytest.raises(TypeError):
            table[1] = 7
        with pytest.raises(AttributeError):
            table.clear()
    assert span_table(*link.components) == ((1, {-1: -1, 1: -1}), (-1, {-1: 0}))
    vec = _knot_vector(*k431.components, 2)
    assert isinstance(vec, tuple) and all(isinstance(x, (str, tuple)) for x in vec)
    assert isinstance(fingerprint(hopf, 0, 1), tuple)
    rows = _b_rows(kishino, 1)
    assert isinstance(rows, tuple) and len(rows) == 4
    assert all(isinstance(row, tuple) for pair in rows for row in (pair, *pair))
    assert not _holds_list(rows)


def test_builtin_catalog_is_read_only():
    """The catalog is loaded once per process and shared by every caller."""
    catalog = builtin_catalog()
    entry = lookup("VK3")
    with pytest.raises(TypeError):
        catalog["VK3"] = None
    with pytest.raises(TypeError):
        del catalog["VK3"]
    with pytest.raises(AttributeError):
        catalog.pop("VK3")
    assert lookup("VK3") is entry is not None
    assert builtin_catalog() is catalog and "VK3" in catalog


def test_clear_keeps_cumulative_counts(vtref):
    memo.clear()
    before = knot_rows.cache_info()
    knot_rows(vtref.components[0])
    knot_rows(vtref.components[0])
    memo.clear()
    after = knot_rows.cache_info()
    assert after.currsize == 0
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)


@pytest.mark.parametrize("argv, code", [
    (["verify", "--inv", "djn(1),fnmk(1,1,1)", "--steps", "3", "--seed", "2",
      "K431"], 0),
    (["invariant", "--inv", "aip", "O1+O2+"], 2),
    # Rejected before any invariant runs; the dwrithe call above filled
    # the memo, and main still empties it.
    (["verify", "--inv", "djn(1)", "--max-crossings", "-1", "--seed", "2",
      "K431"], 3),
])
def test_main_leaves_every_table_empty(capsys, vtref, argv, code):
    memo.clear()
    dwrithe(vtref, 1)
    before = _totals()
    assert sum(info.currsize for info in before) > 0
    assert main(argv) == code
    after = _totals()
    assert all(info.currsize == 0 for info in after)
    for b, a in zip(before, after):
        assert a.hits >= b.hits and a.misses >= b.misses


def test_batch_empties_tables_after_each_row(capsys, tmp_path, monkeypatch):
    cat = tmp_path / "cat.tsv"
    cat.write_text("a\tO1+U2+O3+U1+O2+U3+\nb\tO1+O2+U1+U2+\n", encoding="utf-8")
    sizes = []
    real_clear = memo.clear

    def spy():
        sizes.append(sum(t.cache_info().currsize for t in memo.TABLES))
        real_clear()

    monkeypatch.setattr(memo, "clear", spy)
    assert main(["batch", "--inv", "fnmk(1,1,1)", str(cat)]) == 0
    # One clear per row, each finding that row's entries, then main's own.
    assert len(sizes) == 3 and sizes[0] > 0 and sizes[1] > 0


@contextmanager
def _uncached():
    """Rebind every memoised function, in every vknots module, to the
    function it wraps, so recursive calls bypass the memo too."""
    ids = {id(t) for t in memo.TABLES}
    swapped = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "vknots" or name.startswith("vknots.")):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in ids:
                setattr(mod, attr, value.__wrapped__)
                swapped.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in swapped:
            setattr(mod, attr, value)


def _battery(d):
    return [comparable_invariant(name, d, params, DEPTH, WINDOW)
            for name, params in _default_battery(d, WINDOW)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 5), st.integers(1, 3))
def test_memo_does_not_change_values(seed, n_chords, n_components):
    d = random_chord_diagram(random.Random(seed), n_chords, n_components)
    cold = _battery(d)
    warm = _battery(d)
    memo.clear()
    cleared = _battery(d)
    with _uncached():
        fresh = _battery(d)
    assert warm == cold == cleared == fresh
