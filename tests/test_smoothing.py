import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vknots import (
    PreconditionError,
    crossing_change,
    flat_key,
    parse,
    reverse_component,
    serialize,
    smooth1,
    smooth2,
    smooth3,
)
from vknots.invariants import dwrithe
from vknots.labeling import index_map
from vknots.moves import apply_move, enumerate_moves
from vknots.smoothing import smooth2_changed
from conftest import random_chord_diagram, random_knot, random_link2


def test_component_count_laws(vtref, hopf):
    assert smooth1(vtref, 1).n_components == 1
    assert smooth2(vtref, 1).n_components == 2
    assert smooth3(hopf, 1).n_components == 1
    for d, cid in ((vtref, 1), (vtref, 2)):
        assert smooth1(d, cid).n_crossings == d.n_crossings - 1
        assert smooth2(d, cid).n_crossings == d.n_crossings - 1
    assert smooth3(hopf, 1).n_crossings == 0


def test_kink_smoothings():
    kink = parse("O1+U1+")
    assert serialize(smooth1(kink, 1)) == "0"
    assert serialize(smooth2(kink, 1)) == "0;0"


def test_hopf_smooth3_is_unknot(hopf):
    assert serialize(smooth3(hopf, 1)) == "0"


def test_domain_errors(vtref, hopf):
    with pytest.raises(PreconditionError):
        smooth1(hopf, 1)
    with pytest.raises(PreconditionError):
        smooth2(hopf, 1)
    with pytest.raises(PreconditionError):
        smooth3(vtref, 1)
    with pytest.raises(PreconditionError):
        smooth1(vtref, 9)


def test_k431_smoothed_dwrithes(k431):
    # the golden smoothed values that pin the segment convention
    ka = smooth1(k431, 1)
    kb = smooth1(k431, 2)
    assert (dwrithe(ka, 1), dwrithe(ka, 2)) == (2, -1)
    assert (dwrithe(kb, 1), dwrithe(kb, 2)) == (-2, 1)
    # signs after smoothing, per the published table
    assert (ka.sign(2), ka.sign(3), ka.sign(4)) == (1, -1, 1)
    assert (kb.sign(1), kb.sign(3), kb.sign(4)) == (-1, 1, -1)
    assert (index_map(ka)[2], index_map(ka)[3], index_map(ka)[4]) == (1, 2, 1)
    assert (index_map(kb)[1], index_map(kb)[3], index_map(kb)[4]) == (1, -1, -2)


def test_smooth1_on_kink_gives_original_or_reverse():
    # a crossing removable by a kink move smooths to the same flat class,
    # possibly with reversed orientation
    for seed in range(20):
        d = random_knot(seed, 4)
        for site in enumerate_moves(d, ("R1-insert",))[:4]:
            d2 = apply_move(d, site)
            new = (set(d2.crossing_ids()) - set(d.crossing_ids())).pop()
            smoothed = smooth1(d2, new)
            keys = {flat_key(d), flat_key(reverse_component(d, 1))}
            assert flat_key(smoothed) in keys


def test_smooth2_on_kink_adds_unknot():
    for seed in range(20):
        d = random_knot(seed, 4)
        for site in enumerate_moves(d, ("R1-insert",))[:4]:
            d2 = apply_move(d, site)
            new = (set(d2.crossing_ids()) - set(d.crossing_ids())).pop()
            split = smooth2(d2, new)
            assert split.n_components == 2
            assert () in split.components  # the unknot loop is crossing-free


def test_smooth3_crossing_change_reverses_merge():
    # changing the smoothed crossing reverses the orientation of the result
    for seed in range(30):
        d = random_link2(seed, 5)
        for cid in d.crossing_ids():
            oc, uc = d.components_of(cid)
            if oc == uc:
                continue
            a = smooth3(d, cid)
            b = smooth3(crossing_change(d, cid), cid)
            assert serialize(b) == serialize(reverse_component(a, 1))


def test_smooth2_crossing_change_swaps_and_reverses():
    # changing the smoothed crossing swaps which loop is kept, which equals
    # reversing both loops and exchanging their order
    from vknots import reorder_components

    for seed in range(30):
        d = random_knot(seed, 5)
        for cid in d.crossing_ids():
            a = smooth2(d, cid)
            b = smooth2(crossing_change(d, cid), cid)
            transformed = reorder_components(
                reverse_component(reverse_component(a, 1), 2), (2, 1)
            )
            assert serialize(transformed) == serialize(b)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 8), st.integers(1, 3))
def test_smooth2_changed_is_smooth2_after_crossing_change(seed, n_chords, n_components):
    d = random_chord_diagram(random.Random(seed), n_chords, n_components)
    for cid in d.crossing_ids():
        if d.is_self_crossing(cid):
            assert smooth2_changed(d, cid) == smooth2(crossing_change(d, cid), cid)
        else:
            with pytest.raises(PreconditionError):
                smooth2_changed(d, cid)


def test_smoothed_dwrithe_stable_under_far_moves(k431):
    # moves that do not involve the smoothed crossing leave its smoothed
    # difference writhe alone
    import random
    rng = random.Random(2)
    for cid in (1, 2):
        base = dwrithe(smooth1(k431, cid), 1)
        cur = k431
        for _ in range(30):
            sites = [
                m for m in enumerate_moves(cur)
                if m.crossing_delta > 0 or _site_avoids(cur, m, cid)
            ]
            sites = [m for m in sites if cur.n_crossings + m.crossing_delta <= 9]
            if not sites:
                break
            cur = apply_move(cur, sites[rng.randrange(len(sites))])
            assert dwrithe(smooth1(cur, cid), 1) == base


def _site_avoids(d, m, cid):
    if m.kind == "R1-delete":
        ci, pos = m.location
        comp = d.components[ci]
        return comp[pos].crossing != cid
    if m.kind == "R2-delete":
        ci, pos, cj, qos = m.location
        a = d.components[ci][pos].crossing
        b = d.components[ci][(pos + 1) % len(d.components[ci])].crossing
        return cid not in (a, b)
    if m.kind == "R3":
        for ci, pos in m.location:
            comp = d.components[ci]
            if cid in (comp[pos].crossing, comp[(pos + 1) % len(comp)].crossing):
                return False
        return True
    return True


def test_smooth3_merges_any_two_component_link():
    for seed in range(30):
        d = random_link2(seed, 5)
        for cid in d.crossing_ids():
            if not d.is_self_crossing(cid):
                merged = smooth3(d, cid)
                assert merged.n_components == 1
