"""Flat-class fingerprints and sound nonzero certificates for flat sums.

A fingerprint is a vector of flat invariants of a diagram, one layout for any
component count n: ``("ncomp", n)``, a "component" vector per component
(difference writhes and (n,m) refinements), a "pair" vector per pair (span,
flat spans) and, below a depth bound, a "bflat" map per component (its bucketed
flat B-sum).  Each sums over crossings: a pair or B-sum over none is zero and
not built, and a component or pair is memoised on its cut passages, so only a
component's memo miss builds a Diagram.  Equal flat classes have equal
fingerprints, so bucketing the terms of a formal sum by fingerprint and
finding a bucket with nonzero total coefficient certifies that the sum is
nonzero; nothing here ever certifies equality.

One wrinkle: a kink move changes a B-sum by one term whose class is the
diagram with an unknot added (in one of two computable ways).  Raw bucket
maps therefore survive crossing changes but not kink moves; the
move-transferable form drops the buckets carrying those two class
fingerprints.  Dropping whole fingerprint buckets is class-consistent, so
the restricted map is a genuine invariant, and the restriction is applied
to the nested B-sum data inside fingerprints for the same reason.
"""

from __future__ import annotations

from ..diagram import Diagram, component_index, crossing_groups, splice
from ..labeling import index_walk
from ..memo import memo
from .flatsums import FlatSum, _b_flat_of
from .spans import fspan_window, span_table
from .writhes import difference, nm_difference, smoothed_writhe_table, writhe_totals

__all__ = [
    "fingerprint",
    "flatsum_fingerprint",
    "flatsum_nonzero",
    "kink_class_fingerprints",
    "restricted_flatsum_fingerprint",
    "DEFAULT_WINDOW",
    "DEFAULT_DEPTH",
]

DEFAULT_WINDOW = 3
DEFAULT_DEPTH = 2


def _sublink(d: Diagram, keep: tuple[int, ...], kept: set[int]) -> tuple:
    """The passages of the components in ``keep`` (0-based, in order) with
    only the crossings in ``kept``: every crossing on kept components alone."""
    return tuple(
        tuple(p for p in d.components[ci] if p.crossing in kept)
        for ci in keep
    )


@memo
def _knot_vector(comp: tuple, window: int) -> tuple:
    walk = index_walk(comp)
    table = writhe_totals(walk)
    dj = tuple(difference(table, n) for n in range(1, window + 1))
    # One smoothed writhe table per m, read for every n.
    smoothed = [smoothed_writhe_table(comp, walk, m) for m in range(1, window + 1)]
    djnm = tuple(
        nm_difference(smoothed[m - 1], n, m)
        for n in range(1, window + 1)
        for m in range(1, window + 1)
    )
    return ("dj", dj, "djnm", djnm)


def _pair_vector(first: tuple, second: tuple, window: int) -> tuple:
    rows = span_table(first, second)
    return ("span", sum(s for s, _ in rows), "fspan", fspan_window(rows, window))


def kink_class_fingerprints(d: Diagram, i: int, depth: int,
                            window: int) -> frozenset:
    """Fingerprints of the two classes a kink smoothing on component i can
    produce: the diagram with an unknot appended, and the diagram with
    component i replaced by an unknot and its reverse appended."""
    t = component_index(d, i)
    with_circle = Diagram(d.components + ((),))
    swapped = splice(d, (t,), ((), ()), ((), d.components[t]))
    return frozenset(
        fingerprint(x, depth, window) for x in (with_circle, swapped)
    )


@memo
def fingerprint(d: Diagram, depth: int = DEFAULT_DEPTH,
                window: int = DEFAULT_WINDOW) -> tuple:
    """Flat invariant vector of an ordered oriented diagram, as a tuple."""
    n = d.n_components
    # A sum over no crossings is zero, so no span rows or B-sum are built for
    # a pair without joining crossings or a component without self-crossings.
    groups = crossing_groups(d)
    data: list = [("ncomp", n)]
    for ci in range(n):
        cut = _sublink(d, (ci,), groups.get((ci,), set()))
        data.append(("component", ci + 1, _knot_vector(*cut, window)))
    for i in range(n):
        for j in range(i + 1, n):
            vec = ("span", 0, "fspan", (0,) * (window * (window + 1)))
            if (i, j) in groups:
                kept = groups[i, j].union(groups.get((i,), ()),
                                          groups.get((j,), ()))
                vec = _pair_vector(*_sublink(d, (i, j), kept), window)
            data.append(("pair", i + 1, j + 1, vec))
    if depth > 0:
        for ci in range(n):
            buckets = restricted_flatsum_fingerprint(
                _b_flat_of(d, sorted(groups[ci,])), d, ci + 1, depth - 1, window
            ) if (ci,) in groups else ()
            data.append(("bflat", ci + 1, buckets))
    return tuple(data)


def flatsum_fingerprint(s: FlatSum, depth: int = DEFAULT_DEPTH,
                        window: int = DEFAULT_WINDOW) -> tuple:
    """Bucket a flat sum's coefficients by term fingerprint.

    The bucket map is an invariant of the underlying module element: each
    flat class lands in exactly one bucket, so equal sums give equal maps.
    Buckets that cancel are dropped; the rest sort by fingerprint.
    """
    acc: dict[tuple, int] = {}
    for _, coef, rep in s.terms:
        fp = fingerprint(rep, depth, window)
        acc[fp] = acc.get(fp, 0) + coef
    items = [(fp, total) for fp, total in acc.items() if total != 0]
    items.sort()
    return tuple(items)


def restricted_flatsum_fingerprint(s: FlatSum, d: Diagram, i: int,
                                   depth: int = DEFAULT_DEPTH,
                                   window: int = DEFAULT_WINDOW) -> tuple:
    """Bucket map of a B-sum over component i of d, with the two kink-class
    buckets dropped; this form transfers across Reidemeister moves.  An
    empty map has no bucket to drop, so its kink classes are not built."""
    component_index(d, i)
    buckets = flatsum_fingerprint(s, depth, window)
    if not buckets:
        return buckets
    drop = kink_class_fingerprints(d, i, depth, window)
    return tuple((fp, total) for fp, total in buckets if fp not in drop)


def flatsum_nonzero(s: FlatSum, depth: int = DEFAULT_DEPTH,
                    window: int = DEFAULT_WINDOW):
    """True (certified nonzero), False (certified zero), or None (unknown).

    True needs a fingerprint bucket with nonzero total, which rules out
    cancellation; False needs the reduced sum to be literally empty.
    """
    if s.is_empty():
        return False
    if flatsum_fingerprint(s, depth, window):
        return True
    return None
