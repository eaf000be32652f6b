"""Classical Reidemeister rewrites on Gauss diagrams.

Sites are found on the cyclic passage sequences, where "adjacent" means no
other classical passage between: virtual crossings are not represented and
any two arcs can be brought together through them, so an insertion at any
arc pair is a move of the virtual theory, bigon or not.

Each rule is one predicate that ``enumerate_moves`` and ``apply_move`` share.
A kink (R1-delete) is two adjacent passages of one crossing; any other
adjacent pair is a strand run, the flat tuple (comp, pos, first crossing,
second crossing, overs, component length).  A bigon (R2-delete) is an
over-pair run and an under-pair run on the same two crossings, of opposite
signs.  An R3 site is a triangle of runs on the chord pairs ab, ac, bc of
three chords, no two cyclically adjacent (pos + 1 mod length on one
component; runs on different chord pairs never coincide, so its six passages
are distinct), ranked by how many of their passages are over: 2/1/0 is
top/middle/bottom, any other split is a cyclic hierarchy and no site.  Let
bX say whether run X meets its crossing with the higher other run first, and
sXY be the sign of the crossing of runs X and Y: three directed lines in the
plane realize the triangle iff sTM == sTB exactly when bM == bB, and sTB ==
sMB exactly when bT == bM.  These two parities admit 16 of the 64
configurations and survive flipping all three bits (the move itself).
Deletes remove their strands' passages, inserts splice runs of new passages
in at gaps, and R3 swaps its three adjacent passage pairs in place; every
result is a valid diagram.

Sites come in ``KINDS`` order, R3 sites in their runs' (comp, pos) order.
One pass finds the kinks, the first per crossing, and the runs, indexed once
by their sorted integer chord pair.  The search proposes an over-pair and an
under-pair run of one chord pair as bigons, one run from each chord pair of
a chord triple as triangles, and keeps those that the rules accept.
Insert sites are numbered, not searched: over the gaps in (comp, gap) order
(an empty component has one), site i has variant i % 4 at gap i // 4 (R1) or
gap pair divmod(i // 4, gaps) (R2), so ``MoveSites`` builds one by index.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from operator import itemgetter

from .diagram import OVER, UNDER, Diagram, Passage
from .errors import PreconditionError, StaleMoveError

__all__ = ["MoveSite", "MoveSites", "enumerate_moves", "apply_move", "walk", "random_walk",
           "kinds_within", "KINDS", "DEFAULT_MAX_CROSSINGS"]

DEFAULT_MAX_CROSSINGS = 12  # the crossing cap of a walk
KINDS = ("R1-delete", "R2-delete", "R3", "R1-insert", "R2-insert")
_CROSSING_DELTA = {"R1-insert": 1, "R2-insert": 2, "R1-delete": -1, "R2-delete": -2, "R3": 0}


def kinds_within(budget: int) -> list[str]:
    """The kinds whose crossing change is at most ``budget``, in KINDS order."""
    return [k for k in KINDS if _CROSSING_DELTA[k] <= budget]


@dataclass(frozen=True)
class MoveSite:
    """One applicable rewrite.

    location/variant layout by kind:

    * ``R1-delete``: location ``(comp, pos)`` — the first of the chord's two
      cyclically adjacent passages.
    * ``R1-insert``: location ``(comp, gap)``; variant ``(sign, first_strand)``.
    * ``R2-delete``: location ``(comp_o, pos_o, comp_u, pos_u)`` — start of the
      over pair and of the under pair.
    * ``R2-insert``: location ``(comp_o, gap_o, comp_u, gap_u)``; variant
      ``(sign, "par" | "anti")``.
    * ``R3``: location ``((comp, pos), (comp, pos), (comp, pos))`` — the three
      runs, each covering positions pos and pos+1.
    """

    kind: str
    location: tuple
    variant: tuple = field(default=())

    @property
    def crossing_delta(self) -> int:
        return _CROSSING_DELTA[self.kind]


def _run(d: Diagram, ci: int, pos: int):
    """The run at positions pos, pos+1 of component ci; None for a kink."""
    comp = d.components[ci]
    p, q = comp[pos], comp[(pos + 1) % len(comp)]
    if p.crossing == q.crossing:
        return None
    return (ci, pos, p.crossing, q.crossing, p.over + q.over, len(comp))


def _pair(r) -> tuple[int, int]:
    """A run's chord pair, the smaller crossing first."""
    return (r[2], r[3]) if r[2] < r[3] else (r[3], r[2])


def _kink(d: Diagram, ci: int, pos: int) -> bool:
    """The R1-delete rule at passages pos, pos+1 of component ci."""
    return len(d.components[ci]) > 1 and _run(d, ci, pos) is None


def _bigon(d: Diagram, o, u) -> bool:
    """The R2-delete rule on runs (or None): o over, u under one chord pair."""
    return (o is not None and u is not None and o[4] == 2 and u[4] == 0
            and _pair(o) == _pair(u) and d.sign(o[2]) != d.sign(o[3]))


def _searched_sites(d: Diagram, kinds) -> list[MoveSite]:
    """The R1-delete, R2-delete and R3 sites of ``kinds``, in ``KINDS`` order."""
    if all(k in _INSERTS for k in kinds):
        return []
    kinks, runs, by_pair = {}, [], {}
    for ci, comp in enumerate(d.components):
        for pos in range(len(comp) if len(comp) > 1 else 0):
            if (r := _run(d, ci, pos)) is None:
                kinks.setdefault(comp[pos].crossing, (ci, pos))  # O1U1 is a kink twice
            else:
                runs.append(r)
                by_pair.setdefault(_pair(r), []).append(r)
    out = [MoveSite("R1-delete", loc) for loc in kinks.values()] if "R1-delete" in kinds else []
    if "R2-delete" in kinds:
        out += [MoveSite("R2-delete", (*o[:2], *u[:2])) for o in runs if o[4] == 2
                for u in by_pair[_pair(o)] if u[4] == 0 and _bigon(d, o, u)]
    if "R3" in kinds:
        # A triangle's runs lie on the pairs ab, ac, bc of chords a < b < c; runs
        # are listed in (comp, pos) order, so sorted location triples are sorted sites.
        found = sorted(tuple(r[:2] for r in sorted(trio))
                       for a, pairs in itertools.groupby(sorted(by_pair), itemgetter(0))
                       for (_, b), (_, c) in itertools.combinations(pairs, 2) if (b, c) in by_pair
                       for trio in itertools.product(by_pair[a, b], by_pair[a, c], by_pair[b, c])
                       if _triangle(d, trio))
        out += [MoveSite("R3", locs) for locs in found]
    return out


def _realizable(bt: bool, bm: bool, bb: bool, s_tm: int, s_tb: int, s_mb: int) -> bool:
    """The R3 realizability rule of the module docstring."""
    return (s_tm == s_tb) == (bm == bb) and (s_tb == s_mb) == (bt == bm)


def _adjacent(x, y) -> bool:
    """Whether runs x and y share a passage: neighbours on one component."""
    return x[0] == y[0] and (x[1] - y[1]) % x[5] in (1, x[5] - 1)


def _triangle(d: Diagram, trio) -> bool:
    """The R3 rule of the module docstring on a run triple."""
    rb, rm, rt = sorted(trio, key=itemgetter(4))
    if ((rb[4], rm[4], rt[4]) != (0, 1, 2) or len({_pair(r) for r in trio}) != 3
            or len({c for r in trio for c in r[2:4]}) != 3
            or _adjacent(rb, rm) or _adjacent(rb, rt) or _adjacent(rm, rt)):
        return False
    # Each chord lies on two runs: the one two runs share, the third misses.
    total = sum(r[2] + r[3] for r in trio) // 2
    c_tm, c_tb, c_mb = (total - r[2] - r[3] for r in (rb, rm, rt))
    return _realizable(rt[2] == c_tm, rm[2] == c_tm, rb[2] == c_tb,
                       d.sign(c_tm), d.sign(c_tb), d.sign(c_mb))


# Insert kind -> (gaps per site, variants in order); KINDS lists them last.
_INSERTS = {"R1-insert": (1, tuple(itertools.product((1, -1), (OVER, UNDER)))),
            "R2-insert": (2, tuple(itertools.product((1, -1), ("par", "anti"))))}


def _insert_site(kind: str, gaps, i: int) -> MoveSite:
    """Insert site i of ``kind``: variant i % 4 at gap (pair) i // 4."""
    n_gaps, variants = _INSERTS[kind]
    at, v = divmod(i, 4)
    loc = gaps[at] if n_gaps == 1 else (*gaps[at // len(gaps)], *gaps[at % len(gaps)])
    return MoveSite(kind, loc, variants[v])


def _insert_parts(d: Diagram, kinds) -> list:
    """(count, site) per insert kind asked for: site(i) is its site i."""
    gaps = [(ci, g) for ci, comp in enumerate(d.components) for g in range(max(len(comp), 1))]
    return [(4 * len(gaps) ** _INSERTS[k][0], functools.partial(_insert_site, k, gaps))
            for k in _INSERTS if k in kinds]


class MoveSites:
    """All applicable delete/R3 sites and the spanning set of insert sites,
    of the requested kinds only, in ``KINDS`` order, by index: the delete
    and R3 sites are listed, an insert site is built only when it is
    indexed."""

    def __init__(self, d: Diagram, kinds=KINDS):
        unknown = [k for k in kinds if k not in KINDS]
        if unknown:
            raise PreconditionError(f"unknown move kind(s) {', '.join(map(repr, unknown))}; "
                                    f"expected some of {', '.join(KINDS)}")
        listed = _searched_sites(d, kinds)
        self._parts = [(len(listed), listed.__getitem__)] + _insert_parts(d, kinds)

    def __len__(self) -> int:
        return sum(n for n, _ in self._parts)

    def __getitem__(self, i: int) -> MoveSite:
        for n, site in self._parts:
            if 0 <= i < n:
                return site(i)
            i -= n
        raise IndexError("move index out of range")


def enumerate_moves(d: Diagram, kinds=KINDS) -> list[MoveSite]:
    """``MoveSites(d, kinds)`` as a list."""
    return list(MoveSites(d, kinds))


# -- application --------------------------------------------------------


def _at(d: Diagram, ci: int, pos: int) -> bool:
    """Whether position pos of component ci is a passage of ``d``."""
    return 0 <= ci < len(d.components) and 0 <= pos < len(d.components[ci])


def _without(d: Diagram, strands) -> Diagram:
    """``d`` without the passages pos, pos+1 of each (comp, pos) strand."""
    gone = {(ci, i) for ci, pos in strands
            for i in (pos, (pos + 1) % len(d.components[ci]))}
    return Diagram._trusted(tuple(tuple(p for i, p in enumerate(comp) if (ci, i) not in gone)
                                  for ci, comp in enumerate(d.components)))


def _with(d: Diagram, runs, stale: str) -> Diagram:
    """``d`` with each (comp, gap, passages) run spliced in before position
    gap of its component, runs at one gap in list order; a gap off the
    diagram (no such component, or not in 0..len) raises
    ``StaleMoveError(stale)``."""
    comps = list(d.components)
    for ci, gap, _ in runs:
        if not (0 <= ci < len(comps) and 0 <= gap <= len(comps[ci])):
            raise StaleMoveError(stale)
    # Descending gaps keep the gaps still to fill in place; the stable sort
    # of the reversed runs puts the later of two tied runs in first.
    for ci, gap, run in sorted(reversed(runs), key=lambda r: r[1], reverse=True):
        comps[ci] = comps[ci][:gap] + run + comps[ci][gap:]
    return Diagram._trusted(tuple(comps))


def apply_move(d: Diagram, m: MoveSite) -> Diagram:
    """Apply a site obtained from ``enumerate_moves`` on the same diagram; a
    site whose location is off ``d`` or no longer a site of its kind raises
    ``StaleMoveError``."""
    if m.kind == "R1-delete":
        if not (_at(d, *m.location) and _kink(d, *m.location)):
            raise StaleMoveError(f"no R1 pair at {m.location}")
        return _without(d, [m.location])

    if m.kind == "R2-delete":
        o, u = (_run(d, *loc) if _at(d, *loc) else None
                for loc in (m.location[:2], m.location[2:]))
        if not _bigon(d, o, u):
            raise StaleMoveError(f"no R2 pair at {m.location}")
        return _without(d, [m.location[:2], m.location[2:]])

    if m.kind == "R3":
        trio = [_run(d, *loc) if _at(d, *loc) else None for loc in m.location]
        if None in trio:
            raise StaleMoveError(f"no R3 run at {tuple(m.location[trio.index(None)])}")
        if not _triangle(d, trio):
            raise StaleMoveError(f"no legal R3 triangle at {m.location}")
        comps = [list(comp) for comp in d.components]
        for ci, pos in m.location:
            nxt = (pos + 1) % len(comps[ci])
            comps[ci][pos], comps[ci][nxt] = comps[ci][nxt], comps[ci][pos]
        return Diagram._trusted(tuple(map(tuple, comps)))

    if m.kind in _INSERTS and m.variant not in _INSERTS[m.kind][1]:
        # The result is built unchecked, so a variant no site has is refused.
        raise PreconditionError(f"unknown {m.kind} variant {m.variant!r}")

    if m.kind == "R1-insert":
        (ci, gap), (sign, first) = m.location, m.variant
        cid = max(d.crossing_ids(), default=0) + 1
        pair = (Passage(cid, first, sign), Passage(cid, UNDER if first == OVER else OVER, sign))
        return _with(d, [(ci, gap, pair)], f"gap {gap} out of range")

    if m.kind == "R2-insert":
        (ci, g1, cj, g2), (sign, order) = m.location, m.variant
        c = max(d.crossing_ids(), default=0) + 1
        over_pair = (Passage(c, OVER, sign), Passage(c + 1, OVER, -sign))
        under_pair = (Passage(c, UNDER, sign), Passage(c + 1, UNDER, -sign))
        under_pair = under_pair if order == "par" else under_pair[::-1]
        return _with(d, [(ci, g1, over_pair), (cj, g2, under_pair)], "gap out of range")

    raise PreconditionError(f"unknown move kind {m.kind!r}")


def walk(d: Diagram, steps: int, seed: int, max_crossings: int = DEFAULT_MAX_CROSSINGS):
    """Deterministic random move sequence: an iterator over the diagram after each step,
    which stops early if no move fits under ``max_crossings``; bad arguments raise here."""
    if steps < 0:
        raise PreconditionError("steps must be >= 0")
    if max_crossings < 0:
        raise PreconditionError("max-crossings must be >= 0")
    return _walk(d, steps, random.Random(seed), max_crossings)


def _walk(d: Diagram, steps: int, rng: random.Random, max_crossings: int):
    cur = d
    for _ in range(steps):
        sites = MoveSites(cur, kinds_within(max_crossings - cur.n_crossings))
        if not sites:
            return
        cur = apply_move(cur, sites[rng.randrange(len(sites))])
        yield cur


def random_walk(d: Diagram, steps: int, seed: int,
                max_crossings: int = DEFAULT_MAX_CROSSINGS) -> Diagram:
    """The last diagram of ``walk``: where the move sequence ends."""
    cur = d
    for cur in walk(d, steps, seed, max_crossings):
        pass
    return cur
