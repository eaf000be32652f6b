"""The labelling walk over a smoothing's segment pair against the smoothed
Diagram it stands for, and the smoothed Diagrams against oracles.

The oracles here share no code with the walk, the segment pairs or
``diagram.splice``: each smoothing is rebuilt from the crossing's passage
positions as the surgery reads, and each index comes from the diagram's
arc labels."""

import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from vknots import Diagram, Passage, arc_labeling
from vknots.diagram import crossing_groups
from vknots.invariants.fingerprint import _sublink
from vknots.invariants.spans import span_table
from vknots.invariants.writhes import smoothed_writhe_table, writhe_totals
from vknots.labeling import index_map, index_walk
from vknots.smoothing import smooth1, smooth2, smooth3, type1_segments, type3_segments

from conftest import oracle_sublink, random_chord_diagram


# -- oracles -------------------------------------------------------------------


def _flipped(components, back):
    """The components with every crossing that has exactly one passage in
    ``back`` changed in sign."""
    ids = [p.crossing for p in back]
    flips = {c for c in ids if ids.count(c) == 1}
    return tuple(
        tuple(Passage(p.crossing, p.strand, -p.sign) if p.crossing in flips else p
              for p in comp)
        for comp in components
    )


def oracle_smooth1(d, c):
    """The component read from the over passage: the stretch up to the
    under passage as it is, then the stretch back to the over passage
    reversed."""
    (ci, oi), (_, ui) = d.passage_positions(c)
    comp = d.components[ci]
    n = len(comp)
    fwd = tuple(comp[(oi + j) % n] for j in range(1, (ui - oi) % n))
    back = tuple(comp[(ui + j) % n] for j in range(1, (oi - ui) % n))
    comps = list(d.components)
    comps[ci] = fwd + back[::-1]
    return Diagram(_flipped(comps, back))


def oracle_smooth2(d, c):
    """The stretch from the under passage back to the over passage keeps
    the slot as it is; the stretch from the over passage to the under
    passage is reversed and appended last."""
    (ci, oi), (_, ui) = d.passage_positions(c)
    comp = d.components[ci]
    n = len(comp)
    x = tuple(comp[(oi + j) % n] for j in range(1, (ui - oi) % n))
    y = tuple(comp[(ui + j) % n] for j in range(1, (oi - ui) % n))
    comps = list(d.components)
    comps[ci] = y
    comps.append(x[::-1])
    return Diagram(_flipped(comps, x))


def oracle_smooth3(d, c):
    """The over passage's component from just after it, then the under
    passage's component from just after it, reversed; the merged loop takes
    the smaller slot."""
    (oc, oi), (uc, ui) = d.passage_positions(c)
    over, under = d.components[oc], d.components[uc]
    fwd = tuple(over[(oi + j) % len(over)] for j in range(1, len(over)))
    back = tuple(under[(ui + j) % len(under)] for j in range(1, len(under)))
    comps = [x for k, x in enumerate(d.components) if k not in (oc, uc)]
    comps.insert(min(oc, uc), fwd + back[::-1])
    return Diagram(_flipped(comps, back))


def oracle_indices(k):
    """Crossing -> index of a knot diagram, from its arc labels."""
    labels = arc_labeling(k).as_dict()
    out = {}
    for c in k.crossing_ids():
        (_, oi), (_, ui) = k.passage_positions(c)
        out[c] = labels[(0, oi)] - labels[(0, ui)] - k.sign(c)
    return out


def oracle_table(k):
    acc = {}
    for c, i in oracle_indices(k).items():
        acc[i] = acc.get(i, 0) + k.sign(c)
    return acc


def _walk_table(segments):
    return writhe_totals(index_walk(*segments))


# -- the walk against the Diagram path ------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 20))
def test_walk_reads_type1_smoothings_off_the_knot(seed, n_chords):
    d = random_chord_diagram(random.Random(seed), n_chords, 1)
    inds = oracle_indices(d)
    assert dict(index_map(d)) == inds
    assert list(index_map(d)) == sorted(inds)
    assert {c: (s, i) for c, s, i in index_walk(d.components[0])} \
        == {c: (d.sign(c), i) for c, i in inds.items()}
    smoothed = {}
    for c in d.crossing_ids():
        k = oracle_smooth1(d, c)
        assert smooth1(d, c) == k
        smoothed[c] = oracle_table(k)
        assert _walk_table(type1_segments(d, c)) == smoothed[c], c
    for m in range(1, 2 + max(map(abs, inds.values()), default=0)):
        want = {}
        for c, i in inds.items():
            if abs(i) == m:
                for j, w in smoothed[c].items():
                    want[j] = want.get(j, 0) + d.sign(c) * w
        walk = index_walk(d.components[0])
        assert dict(smoothed_writhe_table(d.components[0], walk, m)) == want, m


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 20))
def test_walk_reads_type3_smoothings_off_the_link(seed, n_chords):
    d = random_chord_diagram(random.Random(seed), n_chords, 2)
    want = []
    for c in d.crossing_ids():
        (oc, oi), (uc, ui) = d.passage_positions(c)
        if oc == uc:
            continue
        k = oracle_smooth3(d, c)
        assert smooth3(d, c) == k
        over, under = (d.components[oc], oi), (d.components[uc], ui)
        # the rule picks the over passage's component, in either argument order
        assert type3_segments(*over, *under) == type3_segments(*under, *over)
        assert _walk_table(type3_segments(*over, *under)) == oracle_table(k), c
        want.append((d.sign(c) if oc == 0 else -d.sign(c), oracle_table(k)))
    assert [(s, dict(t)) for s, t in span_table(*d.components)] == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 16), st.integers(3, 4))
def test_span_table_reads_a_pair_cut_off_a_link(seed, n_chords, n_components):
    """The rows of each pair of a 3- or 4-component link, read off the
    fingerprint's cut of the link's passages, against the type-3 smoothings
    of the pair's sublink Diagram."""
    d = random_chord_diagram(random.Random(seed), n_chords, n_components)
    groups = crossing_groups(d.components)
    for i, j in combinations(range(n_components), 2):
        sub = oracle_sublink(d, (i, j))
        want = []
        for c in sub.crossing_ids():
            oc, uc = sub.components_of(c)
            if oc != uc:
                k = oracle_smooth3(sub, c)
                assert smooth3(sub, c) == k
                want.append((sub.sign(c) if oc == 0 else -sub.sign(c), oracle_table(k)))
        kept = set().union(*(groups.get(g, ()) for g in ((i,), (j,), (i, j))))
        cut = _sublink(d.components, (i, j), kept)
        assert cut == sub.components
        assert [(s, dict(t)) for s, t in span_table(*cut)] == want, (i, j)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 12), st.integers(1, 3))
def test_smooth2_matches_oracle(seed, n_chords, n_components):
    d = random_chord_diagram(random.Random(seed), n_chords, n_components)
    for c in d.crossing_ids():
        if d.is_self_crossing(c):
            assert smooth2(d, c) == oracle_smooth2(d, c), c
