"""Classical Reidemeister rewrites on Gauss diagrams.

Site detection works directly on the cyclic passage sequences: "adjacent"
means no other classical passage between, which is the right notion here
because virtual crossings are not represented and any two arcs can be
brought together through them.  Insertions at arbitrary arc pairs are
therefore legitimate moves of the virtual theory even when no classical
bigon is present.

R3 sites are triangles of three strand-runs (six distinct passages) on
three distinct chord pairs of three chords, so each run shares one crossing
with each other run; ``apply_move`` refuses any other run triple.  The
runs are ranked by how many of their two passages are over: 2/1/0 is
top/middle/bottom, any other split is a cyclic hierarchy and no site.  The
ranked order/sign data must match a frozen table of the sixteen locally
realizable configurations (generated by sweeping all triangles of three
directed lines in the plane).  Applying any move yields a valid diagram;
deletes shrink the crossing count by the move's arity and R3 swaps the
three adjacent passage pairs in place.

A walk step asks ``enumerate_moves`` only for the kinds whose crossing
change fits the remaining budget, so no site is built only to be dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .diagram import OVER, UNDER, Diagram, Passage
from .errors import PreconditionError, StaleMoveError

__all__ = ["MoveSite", "enumerate_moves", "apply_move", "walk", "random_walk", "KINDS"]

KINDS = ("R1-delete", "R2-delete", "R3", "R1-insert", "R2-insert")
_CROSSING_DELTA = {"R1-insert": 1, "R2-insert": 2, "R1-delete": -1,
                   "R2-delete": -2, "R3": 0}

# Realizable (bitT, bitM, bitB, sTM, sTB, sMB) triangle configurations, where
# bitX records whether run X meets its crossing with the next-lower run before
# the other one.  Exactly the sign patterns reachable by three directed lines;
# closed under flipping all three bits (the move itself).
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


def _adjacent_pairs(d: Diagram):
    """(comp, pos, passage, next_passage) for every cyclically adjacent pair."""
    for ci, comp in enumerate(d.components):
        n = len(comp)
        if n < 2:
            continue
        for pos in range(n):
            yield ci, pos, comp[pos], comp[(pos + 1) % n]


def _r1_delete_sites(d: Diagram):
    seen = set()
    for ci, pos, p, q in _adjacent_pairs(d):
        if p.crossing == q.crossing and p.crossing not in seen:
            seen.add(p.crossing)
            yield MoveSite("R1-delete", (ci, pos))


def _r2_delete_sites(d: Diagram):
    overs, unders = [], []
    for ci, pos, p, q in _adjacent_pairs(d):
        if p.crossing == q.crossing:
            continue
        key = frozenset((p.crossing, q.crossing))
        if p.over and q.over:
            overs.append((key, ci, pos, p, q))
        elif not p.over and not q.over:
            unders.append((key, ci, pos))
    for key, ci, pos, p, q in overs:
        if p.sign != -q.sign:
            continue
        for ukey, cj, qos in unders:
            if ukey == key:
                yield MoveSite("R2-delete", (ci, pos, cj, qos))


def _run(d: Diagram, ci: int, pos: int):
    """Record of the strand run through positions pos and pos+1 of component
    ci, or None if both passages belong to one crossing (a kink)."""
    comp = d.components[ci]
    nxt = (pos + 1) % len(comp)
    p, q = comp[pos], comp[nxt]
    if p.crossing == q.crossing:
        return None
    return {
        "loc": (ci, pos),
        "span": frozenset(((ci, pos), (ci, nxt))),
        "chords": frozenset((p.crossing, q.crossing)),
        "overs": p.over + q.over,
        "order": (p.crossing, q.crossing),
    }


def _r3_sites(d: Diagram):
    runs = [r for ci, pos, _, _ in _adjacent_pairs(d)
            if (r := _run(d, ci, pos)) is not None]
    n = len(runs)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                trio = (runs[i], runs[j], runs[k])
                chords = trio[0]["chords"] | trio[1]["chords"] | trio[2]["chords"]
                if len(chords) != 3:  # cheap part of _r3_pattern's rule
                    continue
                if _r3_pattern(d, trio) is None:
                    continue
                # runs come in (comp, pos) order, so this is sorted and unique
                yield MoveSite("R3", tuple(r["loc"] for r in trio))


def _r3_pattern(d: Diagram, trio):
    """Pattern tuple of a run triple if it is a legal R3 site, else None.

    The runs must be the three sides of a triangle: six distinct passages
    on distinct chord pairs of three chords, so each run meets each other
    run at one crossing and its over count is how many runs it lies above."""
    a, b, c = (r["chords"] for r in trio)
    if len(a | b | c) != 3 or a == b or a == c or b == c:
        return None
    if len(trio[0]["span"] | trio[1]["span"] | trio[2]["span"]) != 6:
        return None
    rt, rm, rb = sorted(trio, key=lambda r: -r["overs"])
    if (rt["overs"], rm["overs"], rb["overs"]) != (2, 1, 0):
        return None
    c_tm = next(iter(rt["chords"] & rm["chords"]))
    c_tb = next(iter(rt["chords"] & rb["chords"]))
    c_mb = next(iter(rm["chords"] & rb["chords"]))
    pattern = (
        rt["order"][0] == c_tm,
        rm["order"][0] == c_tm,
        rb["order"][0] == c_tb,
        d.sign(c_tm),
        d.sign(c_tb),
        d.sign(c_mb),
    )
    return pattern if pattern in _R3_PATTERNS else None


def _insert_sites(d: Diagram, kind: str):
    gaps = [(ci, g) for ci, comp in enumerate(d.components)
            for g in range(max(len(comp), 1))]
    if kind == "R1-insert":
        for ci, g in gaps:
            for sign in (1, -1):
                for first in (OVER, UNDER):
                    yield MoveSite("R1-insert", (ci, g), (sign, first))
    else:
        for ci, g1 in gaps:
            for cj, g2 in gaps:
                for sign in (1, -1):
                    for order in ("par", "anti"):
                        yield MoveSite("R2-insert", (ci, g1, cj, g2), (sign, order))


def enumerate_moves(d: Diagram, kinds=KINDS) -> list[MoveSite]:
    """All applicable delete/R3 sites and the spanning set of insert sites,
    of the requested kinds only, in ``KINDS`` order."""
    unknown = [k for k in kinds if k not in KINDS]
    if unknown:
        raise PreconditionError(
            f"unknown move kind(s) {', '.join(map(repr, unknown))}; "
            f"expected some of {', '.join(KINDS)}"
        )
    out: list[MoveSite] = []
    for kind in KINDS:
        if kind not in kinds:
            continue
        if kind == "R1-delete":
            out.extend(_r1_delete_sites(d))
        elif kind == "R2-delete":
            out.extend(_r2_delete_sites(d))
        elif kind == "R3":
            out.extend(_r3_sites(d))
        else:
            out.extend(_insert_sites(d, kind))
    return out


# -- application --------------------------------------------------------


def _fresh_ids(d: Diagram, n: int) -> list[int]:
    top = max(d.crossing_ids(), default=0)
    return [top + 1 + k for k in range(n)]


def _remove_positions(comp, positions):
    return tuple(p for i, p in enumerate(comp) if i not in positions)


def apply_move(d: Diagram, m: MoveSite) -> Diagram:
    """Apply a site obtained from ``enumerate_moves`` on the same diagram."""
    comps = list(d.components)
    if m.kind == "R1-delete":
        ci, pos = m.location
        comp = comps[ci]
        n = len(comp)
        if n < 2 or comp[pos].crossing != comp[(pos + 1) % n].crossing:
            raise StaleMoveError(f"no R1 pair at {m.location}")
        comps[ci] = _remove_positions(comp, {pos, (pos + 1) % n})
        return Diagram(tuple(comps))

    if m.kind == "R2-delete":
        ci, pos, cj, qos = m.location
        co, cu = comps[ci], comps[cj]
        po, qo = co[pos], co[(pos + 1) % len(co)]
        pu, qu = cu[qos], cu[(qos + 1) % len(cu)]
        ok = (
            po.over and qo.over and not pu.over and not qu.over
            and {po.crossing, qo.crossing} == {pu.crossing, qu.crossing}
            and len({po.crossing, qo.crossing}) == 2
            and po.sign == -qo.sign
        )
        if not ok:
            raise StaleMoveError(f"no R2 pair at {m.location}")
        if ci == cj:
            comps[ci] = _remove_positions(
                co, {pos, (pos + 1) % len(co), qos, (qos + 1) % len(co)}
            )
        else:
            comps[ci] = _remove_positions(co, {pos, (pos + 1) % len(co)})
            comps[cj] = _remove_positions(cu, {qos, (qos + 1) % len(cu)})
        return Diagram(tuple(comps))

    if m.kind == "R3":
        trio = []
        for ci, pos in m.location:
            run = _run(d, ci, pos)
            if run is None:
                raise StaleMoveError(f"no R3 run at {(ci, pos)}")
            trio.append(run)
        if _r3_pattern(d, tuple(trio)) is None:
            raise StaleMoveError(f"no legal R3 triangle at {m.location}")
        for ci, pos in m.location:
            comp = list(comps[ci])
            nxt = (pos + 1) % len(comp)
            comp[pos], comp[nxt] = comp[nxt], comp[pos]
            comps[ci] = tuple(comp)
        return Diagram(tuple(comps))

    if m.kind == "R1-insert":
        ci, gap = m.location
        sign, first = m.variant
        (cid,) = _fresh_ids(d, 1)
        second = UNDER if first == OVER else OVER
        pair = (Passage(cid, first, sign), Passage(cid, second, sign))
        comp = comps[ci]
        if gap > len(comp):
            raise StaleMoveError(f"gap {gap} out of range")
        comps[ci] = comp[:gap] + pair + comp[gap:]
        return Diagram(tuple(comps))

    if m.kind == "R2-insert":
        ci, g1, cj, g2 = m.location
        sign, order = m.variant
        c, e = _fresh_ids(d, 2)
        over_pair = (Passage(c, OVER, sign), Passage(e, OVER, -sign))
        if order == "par":
            under_pair = (Passage(c, UNDER, sign), Passage(e, UNDER, -sign))
        else:
            under_pair = (Passage(e, UNDER, -sign), Passage(c, UNDER, sign))
        if g1 > len(comps[ci]) or g2 > len(comps[cj]):
            raise StaleMoveError("gap out of range")
        if ci == cj:
            comp = comps[ci]
            if g1 == g2:
                comps[ci] = comp[:g1] + over_pair + under_pair + comp[g1:]
            elif g1 < g2:
                comps[ci] = comp[:g1] + over_pair + comp[g1:g2] + under_pair + comp[g2:]
            else:
                comps[ci] = comp[:g2] + under_pair + comp[g2:g1] + over_pair + comp[g1:]
        else:
            comps[ci] = comps[ci][:g1] + over_pair + comps[ci][g1:]
            comps[cj] = comps[cj][:g2] + under_pair + comps[cj][g2:]
        return Diagram(tuple(comps))

    raise PreconditionError(f"unknown move kind {m.kind!r}")


def walk(d: Diagram, steps: int, seed: int, max_crossings: int = 12):
    """Deterministic random move sequence: an iterator over the diagram
    after each step, which stops early if no move fits under
    ``max_crossings``.  Bad arguments raise here, before any step."""
    if steps < 0:
        raise PreconditionError("steps must be >= 0")
    if max_crossings < 0:
        raise PreconditionError("max-crossings must be >= 0")
    return _walk(d, steps, random.Random(seed), max_crossings)


def _walk(d: Diagram, steps: int, rng: random.Random, max_crossings: int):
    cur = d
    for _ in range(steps):
        budget = max_crossings - cur.n_crossings
        sites = enumerate_moves(
            cur, [k for k in KINDS if _CROSSING_DELTA[k] <= budget])
        if not sites:
            return
        cur = apply_move(cur, sites[rng.randrange(len(sites))])
        yield cur


def random_walk(d: Diagram, steps: int, seed: int, max_crossings: int = 12) -> Diagram:
    """The last diagram of ``walk``: where the move sequence ends."""
    cur = d
    for cur in walk(d, steps, seed, max_crossings):
        pass
    return cur
