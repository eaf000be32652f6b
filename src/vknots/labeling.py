"""Integer arc labels and the crossing index of a virtual knot diagram.

Arcs are the gaps between consecutive passages along a component.  The
label step taken when walking through a passage depends on the crossing
sign: at a positive crossing the over strand decrements and the under
strand increments; at a negative crossing the roles swap.  Equivalently,

    step = -sign  on the over strand,   step = +sign  on the under strand.

This is the orientation-only rule of Cheng colorings, so the labels (and
everything built from them) only see the underlying flat diagram.

With ``o`` and ``u`` the labels entering the over and under strand, the
index of a crossing is

    ind(c) = o - u - sign(c),

i.e. the decrementing strand's incoming label minus the incrementing
strand's, minus one.  Labels are pinned to 0 on each component's first arc;
the index is independent of that choice.

``index_walk`` is the one walk: along a knot's passages, or along a
smoothing's segment pair with no smoothed Diagram built
(``smoothing.type1_segments``, or ``type3_segments`` of two components'
passages), and ``writhe_totals`` sums its rows per index.  ``knot_rows``
memoises a knot's one labelling: its rows and their writhe table.

``type3_tables`` reads the type-3 smoothings of every crossing joining
two components with no walk per smoothing.  The smoothing at a joining
crossing c walks the component O of c's over passage from just after it,
then the component U of its under passage backwards from just before it,
and flips every other joining crossing (each has one passage in the
reversed U).  So a passage's step sigma (-s over, +s under, s its sign
after that flip) is the same in every type-3 smoothing of the pair.  With
P the prefix sums of sigma along a component of length L (P[0] = 0), c's
passages at O[i] and U[j], and T = P_O[L] - sigma(O[i]) the label on
leaving O:

    label of O[k] = P_O[k] - P_O[i+1]        (+ P_O[L] when k < i),
    label of U[k] = T + P_U[j] - P_U[k+1]    (+ P_U[L] when k > j),

and a crossing's index is still label(over) - label(under) - s, O(1) per
crossing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .diagram import OVER, Diagram, one_sided, require_knot
from .errors import InconsistentLabelingError
from .memo import memo

__all__ = [
    "ArcLabeling", "arc_labeling", "crossing_sign", "crossing_index", "index_map",
    "index_walk", "knot_rows", "type3_tables", "writhe_totals",
]


def _step(passage) -> int:
    return -passage.sign if passage.over else passage.sign


@dataclass(frozen=True)
class ArcLabeling:
    """Labels keyed by ``(component, position)``: the arc entering passage
    ``position`` of that component.  A crossing-free component has the single
    key ``(component, 0)``."""

    labels: tuple[tuple[tuple[int, int], int], ...]

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.labels)

    def component_labels(self, component: int) -> tuple[int, ...]:
        return tuple(v for (c, _), v in self.labels if c == component)


def _component_labels(d: Diagram) -> list[list[int]]:
    """Per component, the label of the arc entering each passage; a
    crossing-free component gets the single label 0."""
    out = []
    for ci, comp in enumerate(d.components):
        labels = [0]
        for p in comp:
            labels.append(labels[-1] + _step(p))
        if labels.pop() != 0:
            raise InconsistentLabelingError(ci + 1)
        out.append(labels or [0])
    return out


def arc_labeling(d: Diagram) -> ArcLabeling:
    """Compute the arc labeling, base label 0 on each component's first arc.

    Exists iff every component's passage steps sum to zero; otherwise raises
    InconsistentLabelingError naming the first offending component (possible
    only for multi-component diagrams).
    """
    return ArcLabeling(tuple(
        ((ci, pi), v)
        for ci, labels in enumerate(_component_labels(d))
        for pi, v in enumerate(labels)
    ))


def crossing_sign(d: Diagram, crossing: int) -> int:
    """The stored sign of a crossing."""
    return d.sign(crossing)


def index_walk(fwd, back=()) -> list[tuple[int, int, int]]:
    """``(crossing, sign, index)`` of every crossing of the knot traversed
    as ``fwd + reversed(back)``, in one labelling walk over the passages.

    A crossing with exactly one passage in ``back`` has its sign flipped,
    so a segment pair of ``smoothing`` gives the crossings of that
    smoothing without building it; ``(component, ())`` gives a knot's own.
    The walk carries the label of the arc it is on (base 0) and adds it at
    an over passage and subtracts it at an under one, so a crossing's two
    passages sum to ``o - u``.
    """
    flips = one_sided(back)
    out = []
    pending: dict[int, int] = {}
    label = 0
    for segment in (fwd, reversed(back)):
        for p in segment:
            c = p.crossing
            s = -p.sign if c in flips else p.sign
            if p.strand == OVER:
                v = label
                label -= s
            else:
                v = -label
                label += s
            first = pending.pop(c, None)
            if first is None:
                pending[c] = v
            else:
                out.append((c, s, first + v - s))
    return out


def writhe_totals(walk) -> dict[int, int]:
    """Signed crossing count per index of an ``index_walk``; indices
    without crossings are absent."""
    acc: dict[int, int] = {}
    for _, s, i in walk:
        acc[i] = acc.get(i, 0) + s
    return acc


@memo
def knot_rows(comp: tuple) -> tuple:
    """``(rows, table)`` of the knot with passages ``comp``: its
    ``(crossing, sign, index)`` rows in crossing-id order and their writhe
    table, as a tuple and a read-only view (every caller shares them)."""
    rows = tuple(sorted(index_walk(comp)))
    return rows, MappingProxyType(writhe_totals(rows))


def _o_labels(prefix, i: int) -> tuple[list[int], int]:
    """Labels of a component walked from just after position ``i``, and
    the label on leaving it."""
    end = len(prefix) - 1
    shift = -prefix[i + 1]
    wrapped = shift + prefix[end]
    return ([x + wrapped for x in prefix[:i]]
            + [x + shift for x in prefix[i:end]]), wrapped + prefix[i]


def _u_labels(prefix, j: int, start: int) -> list[int]:
    """Labels of a component walked backwards from just before position
    ``j``, entered with label ``start``."""
    shift = start + prefix[j]
    wrapped = shift + prefix[-1]
    return ([shift - x for x in prefix[1:j + 2]]
            + [wrapped - x for x in prefix[j + 2:]])


def type3_tables(first, second) -> list:
    """``(passage, totals)`` for each crossing joining two components, given
    as passage tuples that hold every passage of their crossings, in
    crossing-id order: its passage in ``first``, and the signed crossing
    count per index of its type-3 smoothing (the totals of
    ``index_walk(*smoothing.type3_segments(...))``), from one prefix-label
    array per component (see the module docstring)."""
    joins = {p.crossing for p in first}.intersection([p.crossing for p in second])
    prefixes = []
    for comp in (first, second):
        label = 0
        prefix = [0]
        for p in comp:
            s = -p.sign if p.crossing in joins else p.sign
            label += -s if p.strand == OVER else s
            prefix.append(label)
        prefixes.append(prefix)
    # Each crossing's flipped sign and its passages' slots in first + second.
    ends: dict[int, list] = {}
    for g, p in enumerate(first + second):
        end = ends.setdefault(p.crossing, [p.crossing, 0, 0, 0])
        end[1] = -p.sign if p.crossing in joins else p.sign
        end[2 if p.strand == OVER else 3] = g
    rows = sorted(ends.values())
    n1 = len(first)
    pre1, pre2 = prefixes
    out = []
    for c, _, go, gu in rows:
        if c not in joins:
            continue
        if go < n1:
            over, leaving = _o_labels(pre1, go)
            labels = over + _u_labels(pre2, gu - n1, leaving)
        else:
            over, leaving = _o_labels(pre2, go - n1)
            labels = _u_labels(pre1, gu, leaving) + over
        totals: dict[int, int] = {}
        for d, s, o, u in rows:
            if d != c:
                v = labels[o] - labels[u] - s
                totals[v] = totals.get(v, 0) + s
        out.append((first[min(go, gu)], totals))
    return out


def index_map(d: Diagram) -> Mapping[int, int]:
    """Index of every crossing of a one-component diagram, in crossing-id
    order, as a read-only view of its ``knot_rows``."""
    require_knot(d, "crossing index")
    return MappingProxyType({c: ind for c, _, ind in knot_rows(d.components[0])[0]})


def crossing_index(d: Diagram, crossing: int) -> int:
    """ind(c) of a crossing of a knot diagram, bisected from ``knot_rows``."""
    require_knot(d, "crossing index")
    d.sign(crossing)  # an unknown id raises PreconditionError
    rows = knot_rows(d.components[0])[0]
    return rows[bisect_left(rows, (crossing,))][2]
