"""Linking numbers, spans, and the three-variable span polynomial.

For an ordered two-component link the crossings where the first component
passes over the second and where it passes under contribute separate
linking numbers; their difference (the span) survives all moves, and the
refinement by difference writhes of type-3 smoothings survives crossing
changes once symmetrized.  Attaching those flat spans of type-2 smoothings
to the crossings of a knot gives the three-variable polynomial family.

The spans of a link are read from one memoised row per inter-component
crossing (``span_table``), which reads the writhe table of each such
crossing's type-3 smoothing off the two components' passage tuples, with
no Diagram built and no walk per row: ``labeling.type3_tables`` labels
every row from one prefix-label array per component.  So a fingerprint
reads any pair of a link's components this way; the span, any
(n,k)-span, or a whole window of flat spans is one pass over those rows.
``tilde_f`` hands ``span_table`` the two components of each type-2
smoothing of a knot, rejoined from the knot's ``type1_rows`` segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from ..diagram import OVER, Diagram, require_knot
from ..errors import PreconditionError
from ..labeling import type3_tables
from ..laurent import LaurentPoly
from ..memo import memo
from ..smoothing import smooth3, type2_components
from .weights import WeightFn
from .writhes import crossing_poly, difference, dwrithe, type1_rows

__all__ = [
    "LinkingNumbers",
    "linking_numbers",
    "span_table",
    "span_nk",
    "fspan_nk",
    "fspan_window",
    "tilde_f",
    "over_under_weight",
    "smoothed_link_dwrithe_weight",
    "FTILDE_VARS",
]

FTILDE_VARS = ("t", "l", "v")


@dataclass(frozen=True)
class LinkingNumbers:
    over: int
    under: int

    @property
    def span(self) -> int:
        return self.over - self.under


def _require_two_components(d: Diagram, what: str) -> None:
    if d.n_components != 2:
        raise PreconditionError(
            f"{what} needs exactly 2 components (got {d.n_components})"
        )


def linking_numbers(d: Diagram) -> LinkingNumbers:
    """Over- and under-linking numbers of an ordered 2-component link."""
    _require_two_components(d, "linking numbers")
    lk = [0, 0]  # indexed by the over passage's component
    for c in d.crossing_ids():
        oc, uc = d.components_of(c)
        if oc != uc:
            lk[oc] += d.sign(c)
    return LinkingNumbers(*lk)


@memo
def span_table(first: tuple, second: tuple) -> tuple:
    """One row ``(s, table)`` per crossing joining two components, given as
    their passage tuples, in crossing-id order: s is its sign when
    ``first`` passes over and minus its sign otherwise, and table is the
    writhe table of its type-3 smoothing, as a read-only view."""
    return tuple(
        (p.sign if p.strand == OVER else -p.sign, MappingProxyType(totals))
        for p, totals in type3_tables(first, second)
    )


def _nk_rows(d: Diagram, n: int) -> tuple:
    """The ``span_table`` rows of a link, after the (n,k)-span's checks."""
    _require_two_components(d, "the (n,k)-span")
    if n <= 0:
        raise PreconditionError("the (n,k)-span requires n > 0")
    return span_table(*d.components)


def span_nk(d: Diagram, n: int, k: int) -> int:
    """Signed over-minus-under count over crossings whose type-3 smoothing
    has n-th difference writhe k."""
    return sum(s for s, table in _nk_rows(d, n) if difference(table, n) == k)


def _flat_span(rows: tuple, n: int, k: int) -> int:
    """``fspan_nk`` of the link whose ``span_table`` is ``rows``."""
    k = abs(k)
    total = sum(s for s, table in rows if abs(difference(table, n)) == k)
    # k = 0 enters both terms of the symmetrized sum.
    return total if k else 2 * total


def fspan_nk(d: Diagram, n: int, k: int) -> int:
    """Flat span: symmetrized in k, hence crossing-change invariant;
    ``span_nk(d, n, k) + span_nk(d, n, -k)`` in one pass."""
    return _flat_span(_nk_rows(d, n), n, k)


def fspan_window(rows: tuple, window: int) -> tuple:
    """The flat spans ``fspan_nk`` of the link whose ``span_table`` is
    ``rows``, for n in 1..window and k in 0..window, n major, in one pass."""
    width = window + 1
    acc = [0] * (window * width)
    for s, table in rows:
        for n in range(1, width):
            k = abs(difference(table, n))
            if k <= window:
                # k = 0 enters both terms of the symmetrized sum.
                acc[(n - 1) * width + k] += s if k else 2 * s
    return tuple(acc)


# Weight-function formulation of the same sums, for the generic path.

def over_under_weight() -> WeightFn:
    """Odd weight: +sign on first-over crossings, -sign on first-under."""

    def ev(d: Diagram, c: int) -> int:
        oc, uc = d.components_of(c)
        return d.sign(c) if oc == 0 else -d.sign(c)

    return WeightFn(
        "oulk", "odd", ev,
        lambda d, c: d.n_components == 2 and not d.is_self_crossing(c),
    )


def smoothed_link_dwrithe_weight(n: int) -> WeightFn:
    """Even weight: n-th difference writhe of the type-3 smoothing."""
    return WeightFn(
        f"dj{n}@smooth3",
        "even",
        lambda d, c: dwrithe(smooth3(d, c), n),
        lambda d, c: d.n_components == 2 and not d.is_self_crossing(c),
    )


def tilde_f(d: Diagram, n: int, k: int, m: int) -> LaurentPoly:
    """Three-variable polynomial mixing smoothed difference writhes with
    flat spans of type-2 smoothings.

    The exceptional set T holds crossings whose smoothed difference writhe
    matches the diagram's own up to sign and whose type-2 smoothing has
    vanishing (k,m) flat span.  Every crossing's v-exponent uses its own
    type-2 smoothing, including crossings outside T.
    """
    require_knot(d, "the span polynomial")
    base = dwrithe(d, n)
    # k is the n of every (k,m) flat span below; checked here, so a knot
    # with no crossing rejects it too.
    if k <= 0:
        raise PreconditionError("the (n,k)-span requires n > 0")
    rows = []
    for s, ind, segments, _, table in type1_rows(d):
        e1 = difference(table, n)
        fs = _flat_span(span_table(*type2_components(*segments)), k, m)
        in_t = e1 in (base, -base) and fs == 0
        rows.append((s, ind, (e1, fs), (e1 if in_t else base, fs)))
    return crossing_poly(FTILDE_VARS, rows)
