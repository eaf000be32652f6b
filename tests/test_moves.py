import pytest

from vknots import parse, serialize
from vknots.errors import PreconditionError, StaleMoveError
from vknots.moves import apply_move, enumerate_moves, random_walk, walk
from conftest import random_knot, random_chord_diagram

import random


def kinds_of(sites):
    return {m.kind for m in sites}


def test_unknot_only_inserts(unknot):
    sites = enumerate_moves(unknot)
    assert kinds_of(sites) == {"R1-insert", "R2-insert"}


def test_kink_has_one_r1_delete():
    d = parse("O1+U1+")
    dels = [m for m in enumerate_moves(d, ("R1-delete",))]
    assert len(dels) == 1
    assert serialize(apply_move(d, dels[0])) == "0"


def test_r1_insert_then_delete_roundtrip(vtref):
    for site in enumerate_moves(vtref, ("R1-insert",))[:8]:
        d2 = apply_move(vtref, site)
        assert d2.n_crossings == vtref.n_crossings + 1
        dels = [m for m in enumerate_moves(d2, ("R1-delete",))]
        assert dels
        restored = {serialize(apply_move(d2, m)) for m in dels}
        assert serialize(vtref) in restored


def test_r2_insert_then_delete_roundtrip(vtref):
    sites = enumerate_moves(vtref, ("R2-insert",))
    for site in sites[:: max(1, len(sites) // 10)]:
        d2 = apply_move(vtref, site)
        assert d2.n_crossings == vtref.n_crossings + 2
        dels = [m for m in enumerate_moves(d2, ("R2-delete",))]
        assert dels, site
        restored = {serialize(apply_move(d2, m)) for m in dels}
        assert serialize(vtref) in restored


def test_delete_arities():
    rng = random.Random(3)
    for seed in range(30):
        d = random_walk(random_knot(seed, 3), 10, seed, 8)
        for site in enumerate_moves(d, ("R1-delete", "R2-delete", "R3")):
            d2 = apply_move(d, site)
            assert d.n_crossings - d2.n_crossings == -site.crossing_delta


def test_r3_involution_and_validity(vtref):
    found = 0
    for seed in range(60):
        d = random_walk(vtref, 20, seed, 8)
        for site in enumerate_moves(d, ("R3",)):
            found += 1
            d2 = apply_move(d, site)
            assert d2.n_crossings == d.n_crossings
            assert serialize(apply_move(d2, site)) == serialize(d)
    assert found > 10


def test_stale_site_rejected(vtref):
    kink = parse("O1+U1+")
    site = enumerate_moves(kink, ("R1-delete",))[0]
    gone = apply_move(kink, site)
    with pytest.raises(StaleMoveError):
        apply_move(gone, site)


def test_walk_deterministic(vtref):
    a = random_walk(vtref, 30, 7, 10)
    b = random_walk(vtref, 30, 7, 10)
    assert serialize(a) == serialize(b)


def test_walk_zero_steps(vtref):
    assert serialize(random_walk(vtref, 0, 1, 10)) == serialize(vtref)


def test_walk_respects_budget(vtref):
    for seed in range(10):
        cur = vtref
        rng = random.Random(seed)
        for _ in range(25):
            budget = 7 - cur.n_crossings
            sites = [m for m in enumerate_moves(cur) if m.crossing_delta <= budget]
            if not sites:
                break
            cur = apply_move(cur, sites[rng.randrange(len(sites))])
            assert cur.n_crossings <= 7
    assert random_walk(vtref, 25, 3, 7).n_crossings <= 7


def test_moves_on_links_preserve_component_count():
    rng = random.Random(11)
    for _ in range(20):
        d = random_chord_diagram(rng, 3, 2)
        for site in enumerate_moves(d)[:40]:
            assert apply_move(d, site).n_components == d.n_components


def test_insert_enumeration_spans_variants(unknot):
    r1 = enumerate_moves(unknot, ("R1-insert",))
    assert len(r1) == 4  # 1 gap x 2 signs x 2 strand orders
    variants = {(m.variant) for m in r1}
    assert variants == {(1, "O"), (1, "U"), (-1, "O"), (-1, "U")}
    r2 = enumerate_moves(unknot, ("R2-insert",))
    assert len(r2) == 4  # 1 gap pair x 2 signs x par/anti


def test_walk_preserves_affine_index_poly(vtref):
    from vknots.invariants import AIP_VARS, affine_index_poly
    from vknots.laurent import LaurentPoly

    expected = LaurentPoly.from_dict(AIP_VARS, {(1,): 1, (-1,): 1, (0,): -2})
    w = random_walk(vtref, 50, 7, 12)
    assert affine_index_poly(w) == expected


def test_walk_yields_each_step_and_ends_at_random_walk(vtref):
    from vknots.moves import walk

    for seed in range(5):
        steps = list(walk(vtref, 20, seed, 8))
        assert 0 < len(steps) <= 20
        assert serialize(steps[-1]) == serialize(random_walk(vtref, 20, seed, 8))
        assert all(d.n_crossings <= 8 for d in steps)


@pytest.mark.parametrize("steps, max_crossings", [(-1, 12), (3, -1)])
def test_walk_checks_arguments_before_iteration(vtref, steps, max_crossings):
    with pytest.raises(PreconditionError):
        walk(vtref, steps, 1, max_crossings)
