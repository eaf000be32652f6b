"""Fingerprints against an oracle that builds every sublink.

The oracle is the fingerprint as it was before crossing-free components
and pairs got zero vectors without a sublink: every component and every
pair, a knot's one component included, is cut out with its own crossing
scan and measured, and every component's B-sum is taken, at every depth of
the recursion.  Its kink-restricted bucket maps always build the two kink
classes, from passages with the crossing-table sign rule, and filter, also
when the raw map is empty.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vknots import Diagram, Passage, arc_labeling, memo, parse, serialize
from vknots.invariants import (
    b_flat_sum,
    b_sum,
    dwrithe_nm,
    fingerprint,
    flat_sum,
    flatsum_fingerprint,
    linking_numbers,
    restricted_flatsum_fingerprint,
)
from vknots.invariants.fingerprint import _knot_vector, _pair_vector, _sublink
from vknots.smoothing import smooth1, smooth3
from conftest import named, oracle_sublink, random_chord_diagram

fingerprint_module = importlib.import_module("vknots.invariants.fingerprint")


def _oracle_kink_classes(d: Diagram, i: int) -> tuple[Diagram, Diagram]:
    """d with an unknot appended, and d with component i emptied and its
    reverse appended; a crossing flips iff exactly one of its passages lies
    on component i, read off the crossing table."""
    t = i - 1

    def signed(p: Passage) -> Passage:
        oc, uc = d.components_of(p.crossing)
        return Passage(p.crossing, p.strand, -p.sign if (oc == t) != (uc == t) else p.sign)

    comps = [tuple(map(signed, comp)) for comp in d.components]
    moved = comps[t][::-1]
    comps[t] = ()
    return Diagram(d.components + ((),)), Diagram(tuple(comps) + (moved,))


@functools.lru_cache(maxsize=None)
def _oracle(d: Diagram, depth: int, window: int) -> tuple:
    n = d.n_components
    data: list = [("ncomp", n)]
    for ci in range(n):
        data.append(("component", ci + 1,
                     _knot_vector(*oracle_sublink(d, (ci,)).components, window)))
    for i in range(n):
        for j in range(i + 1, n):
            data.append(("pair", i + 1, j + 1,
                         _pair_vector(*oracle_sublink(d, (i, j)).components, window)))
    if depth > 0:
        for i in range(1, n + 1):
            data.append(("bflat", i,
                         _oracle_restricted(b_flat_sum(d, i), d, i, depth - 1, window)))
    return tuple(data)


def _oracle_restricted(s, d: Diagram, i: int, depth: int, window: int) -> tuple:
    """The bucket map of s with the kink-class buckets of component i
    dropped, the kink classes always built."""
    acc: dict = {}
    for _, coef, rep in s.terms:
        key = _oracle(rep, depth, window)
        acc[key] = acc.get(key, 0) + coef
    drop = {_oracle(x, depth, window) for x in _oracle_kink_classes(d, i)}
    buckets = sorted((key, total) for key, total in acc.items() if total != 0)
    return tuple(b for b in buckets if b[0] not in drop)


@st.composite
def diagrams(draw):
    """0-8 chords on 1-4 components; each passage's component is drawn, so
    empty components, components without self-crossings and pairs without
    joining crossings all occur."""
    n = draw(st.integers(1, 4))
    chords = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from((1, -1))),
        max_size=8))
    comps: list[list[Passage]] = [[] for _ in range(n)]
    for cid, (oc, uc, sign) in enumerate(chords, 1):
        for ci, strand in ((oc, "O"), (uc, "U")):
            comps[ci].insert(draw(st.integers(0, len(comps[ci]))), Passage(cid, strand, sign))
    return Diagram(tuple(map(tuple, comps)))


@settings(max_examples=150, deadline=None)
@given(diagrams(), st.integers(0, 1), st.integers(1, 3))
def test_fingerprint_equals_all_sublink_oracle(d, depth, window):
    assert fingerprint(d, depth, window) == _oracle(d, depth, window)


@settings(max_examples=100, deadline=None)
@given(diagrams(), st.integers(0, 1), st.integers(1, 3), st.data())
def test_restricted_b_sum_map_equals_oracle(d, depth, window, data):
    i = data.draw(st.integers(1, d.n_components))
    assert restricted_flatsum_fingerprint(b_sum(d, i), d, i, depth, window) \
        == _oracle_restricted(b_sum(d, i), d, i, depth, window)


def _with_unknot(name: str) -> Diagram:
    return Diagram(named(name).components + ((),))


@pytest.mark.parametrize("d", [
    _with_unknot("KISHINO"),
    _with_unknot("HOPF"),
    named("HOPF"),
    parse("O1+O2+U1+U2+;O3-;U3-"),
    parse("O1+O2+U1+U2+O4+U5-;O3-U4+;U3-O5-"),
    parse("O2-O4+O3+;O1+U3+U4+U1+U2-;0"),
    Diagram(((), named("KISHINO").components[0], ())),
], ids=lambda d: serialize(d))
@pytest.mark.parametrize("window", [1, 3])
def test_depth_two_fingerprints_equal_oracle(d, window):
    assert fingerprint(d, 2, window) == _oracle(d, 2, window)


def test_knot_takes_the_component_layout():
    k431 = named("K431")
    fp = fingerprint(k431, 1, 2)
    assert [entry[0] for entry in fp] == ["ncomp", "component", "bflat"]
    assert fp[:2] == (("ncomp", 1), ("component", 1, _knot_vector(*k431.components, 2)))


@pytest.mark.parametrize("depth", [0, 1])
def test_bucket_map_of_mixed_component_counts(depth):
    """Terms of 1, 2 and 3 components sort by their fingerprints, and the
    map does not depend on the order the pairs come in."""
    pairs = [
        (named("K431"), 1), (named("VTREF"), 3), (parse("0"), -2),
        (named("HOPF"), 2), (parse("O1+U1+;0"), 1),
        (parse("O1+O2+U1+U2+;O3-;U3-"), -1), (Diagram(((), (), ())), 4),
    ]
    buckets = flatsum_fingerprint(flat_sum(pairs), depth, 2)
    assert {fp[0] for fp, _ in buckets} == {("ncomp", 1), ("ncomp", 2), ("ncomp", 3)}
    assert flatsum_fingerprint(flat_sum(reversed(pairs)), depth, 2) == buckets


@pytest.mark.parametrize("code, calls, empty", [("O1-;U1-", 0, (1, 2)),
                                               ("O1+U1+;0", 1, (2,))])
def test_component_without_self_crossings_takes_no_b_sum(monkeypatch, code, calls, empty):
    seen = []
    real = fingerprint_module._b_flat_of

    def counted(d, crossings):
        seen.append(crossings)
        return real(d, crossings)

    monkeypatch.setattr(fingerprint_module, "_b_flat_of", counted)
    memo.clear()
    fp = fingerprint(parse(code), 1)
    memo.clear()
    assert len(seen) == calls
    for i in empty:
        assert ("bflat", i, ()) in fp


@pytest.mark.parametrize("code", ["O1-U3-U4-U2+O3-O2+U1-O4-", "0", "O1-;U1-",
                                  "O1+O2+U1+U2+;O3-U3-"])
def test_sublink_keeping_every_component_is_the_diagram(code):
    d = parse(code)
    keep = tuple(range(d.n_components))
    assert _sublink(d.components, keep, set(d.crossing_ids())) == d.components


def test_knot_vector_reads_the_knot_itself(monkeypatch, k431):
    """A knot's one component is its own cut: every crossing is kept."""
    seen = []
    monkeypatch.setattr(fingerprint_module, "_knot_vector",
                        lambda comp, window: seen.append(comp) or _knot_vector(comp, window))
    memo.clear()
    fingerprint(k431, 0, 2)
    memo.clear()
    assert seen == [k431.components[0]]


@pytest.mark.parametrize("window", [1, 3])
def test_knot_vector_reads_each_smoothed_table_once(monkeypatch, k431, window):
    """A knot-vector miss reads the smoothed writhe table of each m of the
    window once, and fills every (n, m) entry from it."""
    real = fingerprint_module.smoothed_writhe_table
    seen = []
    monkeypatch.setattr(fingerprint_module, "smoothed_writhe_table",
                        lambda comp, walk, m: seen.append(m) or real(comp, walk, m))
    memo.clear()
    vec = _knot_vector(k431.components[0], window)
    memo.clear()
    assert seen == list(range(1, window + 1))
    assert vec[3] == tuple(dwrithe_nm(k431, n, m) for n in range(1, window + 1)
                           for m in range(1, window + 1))


def test_fingerprint_hands_its_groups_to_the_b_sums(monkeypatch):
    """A fingerprint splits the crossings once per diagram; its flat B-sums
    take their self-crossings from that split, not from another
    ``crossing_groups`` pass of ``self_crossings``."""
    flatsums_module = importlib.import_module("vknots.invariants.flatsums")
    calls = []
    for module in (fingerprint_module, flatsums_module):
        real = module.crossing_groups
        monkeypatch.setattr(module, "crossing_groups",
                            lambda d, real=real, name=module.__name__:
                            calls.append(name) or real(d))
    d = parse("O1+O2+U1+U2+O3-U4+;U3-O4+O5-U5-")
    memo.clear()
    fp = fingerprint(d, 1, 2)
    memo.clear()
    assert set(calls) == {fingerprint_module.__name__}
    assert [e for e in fp if e[0] == "bflat"] == [
        ("bflat", i, restricted_flatsum_fingerprint(b_flat_sum(d, i), d, i, 0, 2))
        for i in (1, 2)]


def test_pair_vectors_build_no_diagram(monkeypatch):
    """At depth 0 a fingerprint builds no Diagram: its knot and pair
    vectors are read off the components' cut passages, on a memo miss as
    on a hit."""
    d = parse("O1+O2+U1+U2+O4+U5-O6+U6+;O3-U4+;U3-O5-O7+U7+")
    with_circle = Diagram(d.components + ((),))
    built = []
    real = Diagram.__post_init__
    monkeypatch.setattr(Diagram, "__post_init__",
                        lambda self: built.append(self) or real(self))
    memo.clear()
    fp = fingerprint(d, 0, 3)
    cold = list(built)
    fingerprint(with_circle, 0, 3)
    memo.clear()
    monkeypatch.undo()
    assert cold == [] and built == []
    spans = [entry[3][1] for entry in fp if entry[0] == "pair"]
    assert spans == [linking_numbers(oracle_sublink(d, ij)).span
                     for ij in ((0, 1), (0, 2), (1, 2))]


@pytest.mark.parametrize("name, digest", [
    ("VK1", "12ead1f98c222a732633bf65d8b5ec21d3703d439428bf06b587d9a9ef444589"),
    ("VK2", "2df9a97400237529987ce406beacb503d52cf15a61b97ac0876133c0bc04f7e4"),
    ("VK3", "921c1febe126c55a24146a38c57e19386a7763b21024810711c09d74dc1b3125"),
    ("VK4", "40ad461a872bd8e109b4abd6ea28335f30f3f628e9b64b27fb0ea11c90fa3b85"),
], ids=["VK1", "VK2", "VK3", "VK4"])
def test_depth_two_fingerprints_are_pinned(name, digest):
    """Byte for byte, so a fault inside the vectors that the oracle shares
    with the code under test still shows."""
    fp = fingerprint(named(name), 2, 3)
    assert hashlib.sha256(repr(fp).encode()).hexdigest() == digest


# -- the knot and pair vectors against smoothed Diagrams -------------------------


def _labelled_table(k: Diagram) -> dict:
    """Signed crossing count per index of a knot Diagram, each index read
    off its arc labels: ind(c) = o - u - sign(c)."""
    labels = arc_labeling(k).as_dict()
    acc: dict = {}
    for c in k.crossing_ids():
        (_, oi), (_, ui) = k.passage_positions(c)
        ind = labels[0, oi] - labels[0, ui] - k.sign(c)
        acc[ind] = acc.get(ind, 0) + k.sign(c)
    return acc


def _labelled_dwrithe(k: Diagram, n: int) -> int:
    table = _labelled_table(k)
    return table.get(n, 0) - table.get(-n, 0)


def _oracle_knot_vector(comp: tuple, window: int) -> tuple:
    """dj_n for n in 1..window, then m * (sum of sign(c) * dj_n of the
    type-1 smoothing at c over the crossings c of index m or -m) for n and
    m in 1..window, n major, each smoothing a Diagram of ``smooth1``."""
    k = Diagram((comp,))
    labels = arc_labeling(k).as_dict()
    index = {}
    for c in k.crossing_ids():
        (_, oi), (_, ui) = k.passage_positions(c)
        index[c] = labels[0, oi] - labels[0, ui] - k.sign(c)
    ws = range(1, window + 1)
    dj = tuple(_labelled_dwrithe(k, n) for n in ws)
    djnm = []
    for n in ws:
        for m in ws:
            djnm.append(m * sum(k.sign(c) * _labelled_dwrithe(smooth1(k, c), n)
                                for c, i in index.items() if i in (m, -m)))
    return ("dj", dj, "djnm", tuple(djnm))


def _oracle_pair_vector(first: tuple, second: tuple, window: int) -> tuple:
    """The span (sign when ``first`` passes over, minus it otherwise,
    summed over the joining crossings) and, for n in 1..window and k in
    0..window, that sum over the joining crossings whose ``smooth3``
    Diagram has |dj_n| = k, twice over at k = 0."""
    link = Diagram((first, second))
    span = 0
    fspan = [0] * (window * (window + 1))
    for c in link.crossing_ids():
        oc, uc = link.components_of(c)
        if oc == uc:
            continue
        s = link.sign(c) if oc == 0 else -link.sign(c)
        span += s
        merged = smooth3(link, c)
        for n in range(1, window + 1):
            k = abs(_labelled_dwrithe(merged, n))
            if k <= window:
                fspan[(n - 1) * (window + 1) + k] += s if k else 2 * s
    return ("span", span, "fspan", tuple(fspan))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 9), st.integers(1, 4))
def test_knot_vector_equals_smoothed_diagram_oracle(seed, n_chords, window):
    k = random_chord_diagram(random.Random(seed), n_chords, 1)
    assert _knot_vector(k.components[0], window) \
        == _oracle_knot_vector(k.components[0], window)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 9), st.integers(1, 4))
def test_pair_vector_equals_smoothed_diagram_oracle(seed, n_chords, window):
    link = random_chord_diagram(random.Random(seed), n_chords, 2)
    assert _pair_vector(*link.components, window) \
        == _oracle_pair_vector(*link.components, window)


def test_knot_vector_oracle_tells_n_from_m(k431):
    """K431's (n,m) refinements are not symmetric in n and m: (1,2) is 0
    and (2,1) is 2, so a vector with the two transposed fails."""
    vec = _oracle_knot_vector(k431.components[0], 2)
    assert vec == ("dj", (0, 0), "djnm", (-4, 0, 2, 0))
    assert _knot_vector(k431.components[0], 2) == vec
