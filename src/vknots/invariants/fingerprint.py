"""Flat-class fingerprints and sound nonzero certificates for flat sums.

A fingerprint is a vector of flat invariants of a diagram, one layout for any
component count n: ``("ncomp", n)``, a "component" vector per component
(difference writhes and (n,m) refinements), a "pair" vector per pair (span,
flat spans) and, below a depth bound, a "bflat" map per component (its bucketed
flat B-sum).  Each sums over crossings: a pair or B-sum over none is zero and
not built, and a component or pair is memoised on its cut passages, so only a
B-sum builds Diagrams.  Equal flat classes have equal fingerprints, so
bucketing the terms of a formal sum by fingerprint and finding a bucket with
nonzero total coefficient certifies that the sum is nonzero; nothing here
ever certifies equality.

Relabelling components acts on fingerprints (``_relabel``), so a fingerprint
is computed and memoised only on a canonical component tuple, its
crossing-free components dropped and the rest in a fixed order, and
relabelled on every call for every other order and every added
crossing-free component.  Each B-sum term appends a component and each kink
class adds a crossing-free one, so the recursion meets the same canonical
tuple over and over.

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
from ..labeling import index_walk, writhe_totals
from ..memo import memo
from .flatsums import FlatSum, _b_flat_of
from .spans import fspan_window, span_table
from .writhes import difference, nm_difference, smoothed_writhe_table

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


def _sublink(comps: tuple, keep: tuple[int, ...], kept: set[int]) -> tuple:
    """The passages of the components in ``keep`` (0-based, in order) of the
    passage tuples ``comps``, with only the crossings in ``kept``: every
    crossing on kept components alone."""
    return tuple(
        tuple(p for p in comps[ci] if p.crossing in kept)
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


def _zero_pair(window: int) -> tuple:
    """The pair vector of two components with no joining crossing."""
    return ("span", 0, "fspan", (0,) * (window * (window + 1)))


def kink_class_fingerprints(d: Diagram, i: int, depth: int,
                            window: int) -> frozenset:
    """Fingerprints of the two classes a kink smoothing on component i can
    produce: the diagram with an unknot appended, and the diagram with
    component i replaced by an unknot and its reverse appended."""
    t = component_index(d, i)
    with_circle = Diagram._trusted(d.components + ((),))
    swapped = splice(d, (t,), ((), ()), ((), d.components[t]))
    return frozenset(
        fingerprint(x, depth, window) for x in (with_circle, swapped)
    )


def _canonical_order(comps: tuple) -> list[int]:
    """The 0-based slots of the components with passages, ordered by their
    first passage's ``(crossing, strand)``.  A passage occurs once in a
    diagram, so no two components tie, and the order does not depend on
    hashing."""
    return [k for *_, k in sorted((comp[0].crossing, comp[0].strand, k)
                                  for k, comp in enumerate(comps) if comp)]


def _relabel(fp: tuple, where, n: int, depth: int, window: int) -> tuple:
    """The fingerprint, at ``depth``, of the n-component diagram whose
    component ``where[a]`` is component a of ``fp``'s diagram and whose other
    components are crossing-free.  This is the relabel law:

    - a component entry moves with its component;
    - a pair entry moves with its pair, and is negated when the pair's
      order flips (its span rows count the first component's over passages);
    - a crossing-free component has the knot vector of no passages, the zero
      pair vector with every other component and an empty ``bflat`` map;
    - a ``bflat`` bucket key is the fingerprint of a B-sum term, which keeps
      the parent's components in their slots and appends the new one last,
      so it is relabelled by ``where`` with its last component kept last;
      the relabelled buckets are then sorted again.

    Relabelling maps the B-sum terms and kink classes of one diagram onto
    those of the other and is injective on fingerprints, so bucket totals
    and the dropped kink buckets follow it.
    """
    m = fp[0][1]
    slot = [None] * n  # new slot -> old slot, None for a crossing-free one
    for a, k in enumerate(where):
        slot[k] = a
    pairs = {(e[1] - 1, e[2] - 1): e[3] for e in fp[1 + m:] if e[0] == "pair"}
    # Looked up only when some slot is crossing-free, so that every hit
    # counted saves work.
    circle = _knot_vector((), window) if len(where) < n else None
    data: list = [("ncomp", n)]
    for k in range(n):
        a = slot[k]
        data.append(("component", k + 1, circle if a is None else fp[1 + a][2]))
    zero = _zero_pair(window)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = slot[i], slot[j]
            if a is None or b is None:
                vec = zero
            elif a < b:
                vec = pairs[a, b]
            else:
                _, span, _, fspan = pairs[b, a]
                vec = ("span", -span, "fspan", tuple(-x for x in fspan))
            data.append(("pair", i + 1, j + 1, vec))
    if depth > 0:
        bflat = fp[len(fp) - m:]
        term_where = (*where, n)
        for k in range(n):
            a = slot[k]
            buckets = () if a is None else tuple(sorted(
                (_relabel(key, term_where, n + 1, depth - 1, window), total)
                for key, total in bflat[a][2]))
            data.append(("bflat", k + 1, buckets))
    return tuple(data)


def fingerprint(d: Diagram, depth: int = DEFAULT_DEPTH,
                window: int = DEFAULT_WINDOW) -> tuple:
    """Flat invariant vector of an ordered oriented diagram, as a tuple.

    Not memoised itself: it orders ``d``'s components (``_canonical_order``:
    the crossing-free ones dropped), looks the canonical tuple up in the one
    fingerprint table, ``_canonical_fingerprint``, and relabels that value
    for ``d``'s own order and crossing-free components (``_relabel``).  The
    table is keyed on passage tuples, so a depth-0 fingerprint builds no
    Diagram."""
    comps = d.components
    order = _canonical_order(comps)
    fp = _canonical_fingerprint(tuple(comps[k] for k in order), depth, window)
    if order == list(range(len(comps))):
        return fp
    return _relabel(fp, order, len(comps), depth, window)


@memo
def _canonical_fingerprint(comps: tuple, depth: int, window: int) -> tuple:
    """The fingerprint of the diagram with components ``comps`` (passage
    tuples), computed directly; ``fingerprint`` hands it canonical ones."""
    n = len(comps)
    # A sum over no crossings is zero, so no span rows or B-sum are built for
    # a pair without joining crossings or a component without self-crossings.
    groups = crossing_groups(comps)
    data: list = [("ncomp", n)]
    for ci in range(n):
        cut = _sublink(comps, (ci,), groups.get((ci,), set()))
        data.append(("component", ci + 1, _knot_vector(*cut, window)))
    for i in range(n):
        for j in range(i + 1, n):
            vec = _zero_pair(window)
            if (i, j) in groups:
                kept = groups[i, j].union(groups.get((i,), ()),
                                          groups.get((j,), ()))
                vec = _pair_vector(*_sublink(comps, (i, j), kept), window)
            data.append(("pair", i + 1, j + 1, vec))
    if depth > 0:
        # Only a B-sum smooths, so only a component with self-crossings
        # needs the Diagram.
        d = Diagram._trusted(comps) if any(len(g) == 1 for g in groups) else None
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
