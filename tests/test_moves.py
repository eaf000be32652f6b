import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vknots import Diagram, Passage, parse, serialize
from vknots.errors import PreconditionError, StaleMoveError, VknotsError
from vknots.moves import (KINDS, MoveSite, MoveSites, _adjacent, _bigon, _kink, _realizable,
                          _run, apply_move, enumerate_moves, random_walk, walk)
from conftest import random_knot, random_chord_diagram


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


_KNOT = "U1+O2+U2+O1+"  # one component of four passages
_WITH_EMPTY = "O1+U1+;0"  # a kink and an empty component


@pytest.mark.parametrize("code, site", [
    # a component that is not there
    (_KNOT, MoveSite("R1-delete", (1, 0))),
    (_KNOT, MoveSite("R2-delete", (0, 0, 3, 0))),
    (_KNOT, MoveSite("R3", ((0, 0), (0, 2), (5, 0)))),
    (_KNOT, MoveSite("R1-insert", (2, 0), (1, "O"))),
    (_KNOT, MoveSite("R2-insert", (0, 0, 4, 0), (1, "par"))),
    # a position or gap past the end
    (_KNOT, MoveSite("R1-delete", (0, 4))),
    (_KNOT, MoveSite("R2-delete", (0, 9, 0, 0))),
    (_KNOT, MoveSite("R3", ((0, 0), (0, 2), (0, 8)))),
    (_KNOT, MoveSite("R1-insert", (0, 5), (1, "O"))),
    (_KNOT, MoveSite("R2-insert", (0, 0, 0, 5), (1, "par"))),
    # a negative position or gap, which must not count from the end
    (_KNOT, MoveSite("R1-delete", (0, -1))),
    (_KNOT, MoveSite("R2-delete", (0, -1, 0, 1))),
    (_KNOT, MoveSite("R3", ((0, -1), (0, 1), (0, 2)))),
    (_KNOT, MoveSite("R1-insert", (0, -1), (1, "O"))),
    (_KNOT, MoveSite("R2-insert", (0, 0, 0, -2), (1, "anti"))),
    # a location on an empty component
    (_WITH_EMPTY, MoveSite("R1-delete", (1, 0))),
    (_WITH_EMPTY, MoveSite("R2-delete", (1, 0, 0, 0))),
    (_WITH_EMPTY, MoveSite("R3", ((1, 0), (0, 0), (0, 1)))),
], ids=lambda v: v if isinstance(v, str) else f"{v.kind}@{v.location}")
def test_location_off_the_diagram_is_stale(code, site):
    with pytest.raises(StaleMoveError):
        apply_move(parse(code), site)


@pytest.mark.parametrize("site", [
    MoveSite("R1-insert", (0, 0), (2, "O")),
    MoveSite("R1-insert", (0, 0), (1, "X")),
    MoveSite("R2-insert", (0, 0, 0, 1), (1, "cross")),
], ids=lambda m: f"{m.kind}{m.variant}")
def test_unknown_insert_variant_is_rejected(site):
    with pytest.raises(PreconditionError, match="unknown"):
        apply_move(parse(_KNOT), site)


def test_every_listed_site_applies():
    rng = random.Random(17)
    for _ in range(100):
        d = random_chord_diagram(rng, rng.randint(0, 5), rng.randint(1, 3))
        for m in enumerate_moves(d):
            assert apply_move(d, m).n_crossings == d.n_crossings + m.crossing_delta


def test_walk_deterministic(vtref):
    a = random_walk(vtref, 30, 7, 10)
    b = random_walk(vtref, 30, 7, 10)
    assert serialize(a) == serialize(b)


def test_walk_zero_steps(vtref):
    assert serialize(random_walk(vtref, 0, 1, 10)) == serialize(vtref)


def _reference_walk(d, steps, seed, max_crossings):
    """The walk by its definition, on this file's brute-force oracles and
    not on the site search: list every site in KINDS order, keep those whose
    crossing change fits the budget, draw one."""
    cur = d
    rng = random.Random(seed)
    for _ in range(steps):
        budget = max_crossings - cur.n_crossings
        every = [*itertools.chain(*_delete_oracle(cur)), *_r3_oracle(cur),
                 *_insert_sites_oracle(cur, "R1-insert"), *_insert_sites_oracle(cur, "R2-insert")]
        sites = [m for m in every if m.crossing_delta <= budget]
        if not sites:
            return
        cur = apply_move(cur, sites[rng.randrange(len(sites))])
        yield cur


def test_walk_respects_budget(vtref):
    # Starts of 8 and 9 crossings lie above the cap of 7 (negative budget).
    above = [d for d in (random_walk(vtref, 30, s, 9) for s in range(8))
             if d.n_crossings > 7]
    assert {d.n_crossings for d in above} == {8, 9}
    steps_above_cap = 0
    for start in [vtref] + above:
        for seed in range(6):
            got = list(walk(start, 25, seed, 7))
            expected = list(_reference_walk(start, 25, seed, 7))
            assert [serialize(d) for d in got] == [serialize(d) for d in expected]
            prev = start.n_crossings
            for d in got:
                assert d.n_crossings <= max(7, prev - 1)
                steps_above_cap += prev > 7
                prev = d.n_crossings
    assert steps_above_cap > 0
    assert random_walk(vtref, 25, 3, 7).n_crossings <= 7


def test_walk_matches_reference_at_cli_cap():
    # The CLI's default cap of 12, from 8-12-crossing knots and from links
    # with up to four components, empty ones included.
    rng = random.Random(12)
    starts = [random_chord_diagram(rng, rng.randint(8, 12), 1) for _ in range(4)]
    starts += [random_chord_diagram(rng, rng.randint(2, 9), rng.randint(2, 4)) for _ in range(4)]
    starts += [parse("0;0"), parse("O1+U1+;0;0")]
    assert any(not comp for d in starts for comp in d.components)
    for start in starts:
        for seed in range(3):
            got = list(walk(start, 20, seed, 12))
            expected = list(_reference_walk(start, 20, seed, 12))
            assert [serialize(d) for d in got] == [serialize(d) for d in expected]


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


def _insert_sites_oracle(d, kind):
    """The insert sites as nested loops: gap (x gap) x sign x order."""
    gaps = [(ci, g) for ci, comp in enumerate(d.components)
            for g in range(max(len(comp), 1))]
    if kind == "R1-insert":
        for ci, g in gaps:
            for sign in (1, -1):
                for first in ("O", "U"):
                    yield MoveSite("R1-insert", (ci, g), (sign, first))
    else:
        for ci, g1 in gaps:
            for cj, g2 in gaps:
                for sign in (1, -1):
                    for order in ("par", "anti"):
                        yield MoveSite("R2-insert", (ci, g1, cj, g2), (sign, order))


def test_insert_sites_by_index_match_nested_loops():
    rng = random.Random(17)
    corpus = [parse("0"), parse("0;0;0"), parse("O1+U1+;0")]
    corpus += [random_chord_diagram(rng, rng.randint(0, 14), rng.randint(1, 4))
               for _ in range(150)]
    assert sum(any(not comp for comp in d.components) for d in corpus) > 10
    for d in corpus:
        for kind in ("R1-insert", "R2-insert"):
            assert enumerate_moves(d, (kind,)) == list(_insert_sites_oracle(d, kind))
        # MoveSites indexes the very list enumerate_moves builds
        for kinds in (KINDS, ("R2-delete", "R2-insert"), ("R3", "R1-insert"), ()):
            sites, listed = MoveSites(d, kinds), enumerate_moves(d, kinds)
            assert [sites[i] for i in range(len(sites))] == listed
            for i in (-1, len(listed)):
                with pytest.raises(IndexError):
                    sites[i]


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


# Realizable (bitT, bitM, bitB, sTM, sTB, sMB) triangle configurations, where
# bitX records whether run X meets its crossing with the higher of the other
# two runs first: the sign patterns reachable by three directed lines in the
# plane, generated by sweeping all such triangles; closed under flipping all
# three bits (the move itself).
_R3_PATTERNS = frozenset([
    (False, False, False, -1, -1, -1),
    (False, False, False, 1, 1, 1),
    (False, False, True, -1, 1, 1),
    (False, False, True, 1, -1, -1),
    (False, True, False, -1, 1, -1),
    (False, True, False, 1, -1, 1),
    (False, True, True, -1, -1, 1),
    (False, True, True, 1, 1, -1),
    (True, False, False, -1, -1, 1),
    (True, False, False, 1, 1, -1),
    (True, False, True, -1, 1, -1),
    (True, False, True, 1, -1, 1),
    (True, True, False, -1, 1, 1),
    (True, True, False, 1, -1, -1),
    (True, True, True, -1, -1, -1),
    (True, True, True, 1, 1, 1),
])


def test_realizable_is_exactly_the_swept_table():
    configs = list(itertools.product((False, True), (False, True), (False, True),
                                     (-1, 1), (-1, 1), (-1, 1)))
    assert len(configs) == 64
    assert {c for c in configs if _realizable(*c)} == _R3_PATTERNS


def _oracle_run(d, ci, pos):
    comp = d.components[ci]
    p, q = comp[pos], comp[(pos + 1) % len(comp)]
    if p.crossing == q.crossing:
        return None
    return {"loc": (ci, pos), "order": (p.crossing, q.crossing),
            "span": {(ci, pos), (ci, (pos + 1) % len(comp))},
            "flag": {p.crossing: p.over, q.crossing: q.over}}


def _disjoint(trio):
    return len(set().union(*(r["span"] for r in trio))) == 6


def _oracle_ranked(d, trio):
    """The pairwise R3 rule: every two runs share exactly one crossing, run
    i beats run j when it is over there, and the beat counts must be 2/1/0
    (top/middle/bottom), and the configuration must be in _R3_PATTERNS."""
    common = {(i, j): set(trio[i]["flag"]) & set(trio[j]["flag"])
              for i in range(3) for j in range(3) if i != j}
    if any(len(c) != 1 for c in common.values()):
        return False
    beats = [sum(trio[i]["flag"][min(common[i, j])] for j in range(3) if j != i)
             for i in range(3)]
    if sorted(beats) != [0, 1, 2]:
        return False
    t, m, b = (beats.index(r) for r in (2, 1, 0))
    (c_tm,), (c_tb,), (c_mb,) = common[t, m], common[t, b], common[m, b]
    pattern = (trio[t]["order"][0] == c_tm, trio[m]["order"][0] == c_tm,
               trio[b]["order"][0] == c_tb, d.sign(c_tm), d.sign(c_tb), d.sign(c_mb))
    return pattern in _R3_PATTERNS


def _r3_oracle(d):
    runs = [r for ci, comp in enumerate(d.components) if len(comp) > 1
            for pos in range(len(comp)) if (r := _oracle_run(d, ci, pos))]
    return [MoveSite("R3", tuple(r["loc"] for r in trio))
            for trio in itertools.combinations(runs, 3)
            if len(set().union(*(r["flag"] for r in trio))) == 3
            and _disjoint(trio) and _oracle_ranked(d, trio)]


def test_r3_sites_match_pairwise_oracle(vtref):
    rng = random.Random(5)
    corpus = [random_chord_diagram(rng, rng.randint(3, 7), rng.randint(1, 3))
              for _ in range(500)]
    corpus += [random_walk(d, 15, s, 9) for s, d in enumerate(corpus[:60])]
    corpus += [random_walk(vtref, 20, s, 8) for s in range(40)]
    # 10-12 crossings, walked at the CLI cap: R2-inserts leave chord pairs
    # that carry two runs, which the chord-pair index must group.
    big = random.Random(10)
    corpus += [random_walk(random_chord_diagram(big, big.randint(10, 12), big.randint(1, 2)),
                           s % 3 * 10, s, 12) for s in range(60)]
    found = 0
    for d in corpus:
        sites = enumerate_moves(d, ("R3",))
        assert sites == _r3_oracle(d), serialize(d)
        found += len(sites)
    assert found >= 100
    # apply_move judges any run triple by the same rule, and refuses runs
    # that overlap, which enumerate_moves never lists
    refused_overlaps = 0
    for d in corpus[:300]:
        locs = [(ci, pos) for ci, comp in enumerate(d.components)
                if len(comp) > 1 for pos in range(len(comp))]
        for t in range(20 if len(locs) >= 3 else 0):
            if t % 2:  # two runs that share a passage, and one more
                ci, pos = rng.choice(locs)
                pair = {(ci, pos), (ci, (pos + 1) % len(d.components[ci]))}
                loc = tuple(sorted(pair | {rng.choice(locs)}))
                if len(loc) < 3:
                    continue
            else:
                loc = tuple(sorted(rng.sample(locs, 3)))
            trio = [_oracle_run(d, ci, pos) for ci, pos in loc]
            ranked = None not in trio and _oracle_ranked(d, trio)
            legal = ranked and _disjoint(trio)
            refused_overlaps += ranked and not legal
            try:
                apply_move(d, MoveSite("R3", loc))
            except StaleMoveError:
                assert not legal, (serialize(d), loc)
            else:
                assert legal, (serialize(d), loc)
    assert refused_overlaps > 0


def _delete_corpus(seed, n_random, n_big):
    """Random 1-3-component diagrams, a kink beside an empty component, and
    10-12-crossing diagrams walked at the CLI cap, where R2-inserts leave
    two runs on one chord pair."""
    rng = random.Random(seed)
    corpus = [parse("O1+U1+"), parse("O1+U1+;0"), parse("0;O1+U2-;O2-U1+")]
    corpus += [random_chord_diagram(rng, rng.randint(0, 7), rng.randint(1, 3))
               for _ in range(n_random)]
    corpus += [random_walk(random_chord_diagram(rng, rng.randint(10, 12), rng.randint(1, 2)),
                           s % 3 * 10, s, 12) for s in range(n_big)]
    return corpus


def _delete_oracle(d):
    """The R1- and R2-delete sites by brute force: every position, in (comp,
    pos) order, judged by the rule apply_move uses; a chord's first kink only."""
    locs = [(ci, pos) for ci, comp in enumerate(d.components) for pos in range(len(comp))]
    kinks, seen = [], set()
    for ci, pos in locs:
        crossing = d.components[ci][pos].crossing
        if _kink(d, ci, pos) and crossing not in seen:
            seen.add(crossing)
            kinks.append(MoveSite("R1-delete", (ci, pos)))
    bigons = [MoveSite("R2-delete", (*o, *u)) for o in locs for u in locs
              if _bigon(d, _run(d, *o), _run(d, *u))]
    return kinks, bigons


def test_r1_and_r2_delete_sites_match_brute_force(vtref):
    corpus = _delete_corpus(8, 400, 60)
    corpus += [random_walk(vtref, 20, s, 8) for s in range(40)]
    counts = {"R1-delete": 0, "R2-delete": 0}
    for d in corpus:
        for kind, expected in zip(counts, _delete_oracle(d)):
            assert enumerate_moves(d, (kind,)) == expected, (kind, serialize(d))
            counts[kind] += len(expected)
    assert min(counts.values()) >= 100, counts


def test_every_kind_subset_lists_its_kinds_in_order():
    for d in _delete_corpus(9, 30, 4):
        every = enumerate_moves(d)
        for r in range(len(KINDS) + 1):
            for kinds in itertools.combinations(KINDS, r):
                listed = enumerate_moves(d, kinds)
                assert listed == [m for m in every if m.kind in kinds], (kinds, serialize(d))
                sites = MoveSites(d, kinds)
                assert [sites[i] for i in range(len(sites))] == listed


@st.composite
def _walk_starts(draw):
    """1-4 components cut from a shuffled list of the passages of 0-6 chords:
    equal cuts leave empty components, cuts two apart 2-passage ones."""
    signs = draw(st.lists(st.sampled_from((1, -1)), max_size=6))
    slots = draw(st.permutations([Passage(c, s, g) for c, g in enumerate(signs, 1) for s in "OU"]))
    cuts = sorted(draw(st.lists(st.integers(0, len(slots)), max_size=3)))
    bounds = [0, *cuts, len(slots)]
    return Diagram(tuple(tuple(slots[a:b]) for a, b in zip(bounds, bounds[1:])))


@settings(max_examples=80, deadline=None)
@given(_walk_starts(), st.integers(0, 40), st.integers(0, 2**31 - 1))
@example(parse("O1+U2-;O2-U1+;0"), 40, 0)
@example(parse("0;O1+U1+;0;0"), 40, 1)
def test_searched_sites_match_the_oracles_along_walks(start, steps, seed):
    for d in [start, *walk(start, steps, seed, 12)]:
        kinks, bigons = _delete_oracle(d)
        r3 = _r3_oracle(d)
        for kinds, expected in ((("R1-delete",), kinks), (("R2-delete",), bigons), (("R3",), r3),
                                (("R1-delete", "R2-delete", "R3"), kinks + bigons + r3)):
            assert enumerate_moves(d, kinds) == expected, (kinds, serialize(d))


@pytest.mark.parametrize("code", ["O1+O2-U3+U1+O4-U2-O3+U4-", "O1+O2+;U1+U2+",
                                  "O1+O2+O3+;U1+U2+U3+", "O1+U2+O3-U4+;O2+U1+O4+U3-"])
def test_adjacent_runs_are_those_sharing_a_passage(code):
    d = parse(code)
    runs = [_run(d, ci, pos) for ci, comp in enumerate(d.components) for pos in range(len(comp))]
    assert None not in runs
    for x, y in itertools.combinations(runs, 2):
        span = [{(r[0], r[1]), (r[0], (r[1] + 1) % r[5])} for r in (x, y)]
        assert _adjacent(x, y) == _adjacent(y, x) == bool(span[0] & span[1]), (x, y)


# sha256 digests of _contract_digests(): the site lists and seeded walks,
# from which perfbench's input digests and criterion 7's corpus are built,
# and the outcomes of applying sites and random locations.
_SITES_AND_WALKS_SHA256 = "cc997dc1c610b8ba06fceb54969aa6feaa14bbc0d45686d425e45931c8da82ff"
_OUTCOMES_SHA256 = "2346f3b86f408808917f7295febf0c9f0bad5202ee0bc8b72f4291b9b5b04e39"


def _outcome(d, m):
    try:
        return serialize(apply_move(d, m))
    except VknotsError as exc:
        return f"{type(exc).__name__}: {exc}"


def _contract_digests():
    """Over 200 random diagrams of 0-6 chords on 1-3 components: a digest of
    every site list and three seeded walks, and one of the outcomes of
    applying its deletes/R3 and every 7th site, stale sites from the
    previous diagram and random R1/R2-delete and R3 locations."""
    rng = random.Random(606)
    h = hashlib.sha256()
    out = hashlib.sha256()
    prev = []
    for _ in range(200):
        d = random_chord_diagram(rng, rng.randint(0, 6), rng.randint(1, 3))
        sites = enumerate_moves(d)
        picks = [m for i, m in enumerate(sites) if m.crossing_delta <= 0 or i % 7 == 0]
        locs = [(ci, pos) for ci, comp in enumerate(d.components)
                for pos in range(len(comp))]
        probes = [MoveSite("R3", tuple(sorted(rng.sample(locs, 3))))
                  for _ in range(10 if len(locs) >= 3 else 0)]
        probes += [MoveSite(kind, (*rng.choice(locs), *rng.choice(locs))[:arity])
                   for kind, arity in (("R1-delete", 2), ("R2-delete", 4)) * 5 if locs]
        for m in sites:
            h.update(f"{m.kind} {m.location} {m.variant}\n".encode())
        for m in picks + prev + probes:
            out.update(f"{_outcome(d, m)}\n".encode())
        for _ in range(3):
            for cur in walk(d, 12, rng.randrange(2**31), 7):
                h.update(f"{serialize(cur)}\n".encode())
        h.update(b"--\n")
        out.update(b"--\n")
        prev = picks[::3]
    return h.hexdigest(), out.hexdigest()


def test_sites_applications_and_seeded_walks_are_pinned():
    assert _contract_digests() == (_SITES_AND_WALKS_SHA256, _OUTCOMES_SHA256)
