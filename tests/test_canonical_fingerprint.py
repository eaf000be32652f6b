"""Fingerprints are computed once per canonical component tuple and
relabelled for every other order and every added crossing-free component.

The reference computes every fingerprint directly on the diagram's own
components, at every depth of the recursion: the body of the canonical
table, unmemoised, behind a cache per diagram, which is how fingerprints
were memoised before the canonical form.
"""

from __future__ import annotations

import functools
import importlib
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vknots import Diagram, Passage, memo, parse
from vknots.diagram import reorder_components
from vknots.invariants import fingerprint
from vknots.invariants.fingerprint import (
    _canonical_fingerprint,
    _canonical_order,
    _knot_vector,
    _pair_vector,
)

from conftest import random_chord_diagram

fingerprint_module = importlib.import_module("vknots.invariants.fingerprint")


@contextmanager
def _direct():
    """``fingerprint`` rebound, for the recursion too, to the body applied
    to each diagram's own components, with no canonical form."""
    body = _canonical_fingerprint.__wrapped__

    @functools.lru_cache(maxsize=None)
    def direct(d, depth, window):
        return body(d.components, depth, window)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fingerprint_module, "fingerprint", direct)
        yield direct


@st.composite
def relabelled(draw):
    """A diagram of 1-4 components and 0-6 chords (each passage's component
    drawn, so crossing-free components occur), and the same components in
    a drawn order with 0-2 crossing-free components inserted."""
    n = draw(st.integers(1, 4))
    chords = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from((1, -1))),
        max_size=6))
    comps: list[list[Passage]] = [[] for _ in range(n)]
    for cid, (oc, uc, sign) in enumerate(chords, 1):
        for ci, strand in ((oc, "O"), (uc, "U")):
            comps[ci].insert(draw(st.integers(0, len(comps[ci]))), Passage(cid, strand, sign))
    d = Diagram(tuple(map(tuple, comps)))
    moved = list(draw(st.permutations(d.components)))
    for _ in range(draw(st.integers(0, 2))):
        moved.insert(draw(st.integers(0, len(moved))), ())
    return d, Diagram(tuple(moved))


def _fingerprints(diagrams, depth, window):
    memo.clear()
    got = [fingerprint(x, depth, window) for x in diagrams]
    memo.clear()
    with _direct() as direct:
        want = [direct(x, depth, window) for x in diagrams]
    memo.clear()
    return got, want


@settings(max_examples=120, deadline=None)
@given(relabelled(), st.integers(0, 2), st.integers(1, 3))
def test_relabelled_fingerprints_equal_direct(pair, depth, window):
    got, want = _fingerprints(pair, depth, window)
    assert got == want


@settings(max_examples=25, deadline=None)
@given(relabelled(), st.integers(1, 3))
def test_relabelled_fingerprints_equal_direct_at_depth_three(pair, window):
    got, want = _fingerprints(pair, 3, window)
    assert got == want


@pytest.mark.parametrize("code, order", [
    # a knot with a circle before and after it
    ("0;O1+O2+U1+U2+O3-U3-;0", None),
    # a three-component link whose relabelled buckets change order
    ("O1+O2+U1+U2+O4+U5-;O3-U4+;U3-O5-", (3, 1, 2)),
    ("O1+O2+U1+U2+O4+U5-;O3-U4+;U3-O5-", (2, 3, 1)),
    # two knots and a circle, reversed
    ("O1-O2+U1-O3+U2+U3+;O4+U4+O5-U5-;0", (3, 2, 1)),
])
@pytest.mark.parametrize("depth", [1, 2])
def test_relabelled_links_equal_direct(code, order, depth):
    d = parse(code)
    x = d if order is None else reorder_components(d, order)
    got, want = _fingerprints((d, x, Diagram(((),) + x.components)), depth, 3)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 8), st.integers(1, 3))
def test_swapping_a_pair_negates_its_vector(seed, n_chords, window):
    """The span rows count the first component's over passages with their
    sign and its under passages against it, and a type-3 smoothing does not
    depend on which component is first: so swapping the two negates the
    span and every flat span."""
    link = random_chord_diagram(random.Random(seed), n_chords, 2)
    first, second = link.components
    tag, span, ftag, fspan = _pair_vector(first, second, window)
    negated = (tag, -span, ftag, tuple(-x for x in fspan))
    assert _pair_vector(second, first, window) == negated
    swapped = reorder_components(link, (2, 1))
    assert fingerprint(link, 0, window)[3] == ("pair", 1, 2, (tag, span, ftag, fspan))
    assert fingerprint(swapped, 0, window)[3] == ("pair", 1, 2, negated)


def test_canonical_order_reads_first_passages():
    """Crossing-free components are dropped and the rest ordered by their
    first passage's crossing, then strand (``O`` before ``U``)."""
    # Slots 0 and 3 both start at crossing 2: under there, over here.
    d = parse("U2+O1-U1-;0;O3-U3-;O2+")
    assert _canonical_order(d.components) == [3, 0, 2]


def test_relabelled_diagram_is_computed_once():
    """A component permutation with circles added is a hit on the
    canonical table, at the top of the recursion and below it."""
    d = parse("O1+O2+U1+U2+O4+U5-;O3-U4+;U3-O5-")
    x = Diagram((d.components[2], (), d.components[0], d.components[1]))
    memo.clear()
    fingerprint(d, 1, 2)
    before = _canonical_fingerprint.cache_info()
    fingerprint(x, 1, 2)
    after = _canonical_fingerprint.cache_info()
    memo.clear()
    assert after.misses == before.misses
    assert after.hits == before.hits + 1


def test_relabelled_copies_add_no_memo_entries():
    """Only the canonical value is kept: fingerprinting copies with their
    components permuted and circles inserted adds no entry to any table."""
    d = parse("O1+O2+U1+U2+O4+U5-;O3-U4+;U3-O5-")
    a, b, c = d.components
    copies = [
        Diagram((c, (), a, b)),
        Diagram(((), b, a, c)),
        Diagram((b, c, (), a, ())),
        Diagram((a, (), (), c, b)),
    ]
    memo.clear()
    fingerprint(d, 1, 2)
    size = sum(t.cache_info().currsize for t in memo.TABLES)
    for x in copies:
        fingerprint(x, 1, 2)
    after = sum(t.cache_info().currsize for t in memo.TABLES)
    memo.clear()
    assert after == size


def test_relabel_without_circles_reads_no_knot_vector():
    """A relabel reads the crossing-free knot vector only for a
    crossing-free slot, so the knot-vector table counts no hit that saves
    no work."""
    d = parse("O1+O2+U1+U2+O4+U5-;O3-U4+;U3-O5-")
    a, b, c = d.components
    memo.clear()
    fingerprint(d, 1, 2)
    before = _knot_vector.cache_info()
    fingerprint(Diagram((c, a, b)), 1, 2)
    after = _knot_vector.cache_info()
    fingerprint(Diagram((c, a, (), b)), 1, 2)
    circled = _knot_vector.cache_info()
    memo.clear()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert circled.hits > after.hits
