"""Writhe-type invariants of virtual knot diagrams.

The n-th writhe counts crossings of index n with sign; its difference
with the (-n)-th writhe is insensitive to crossing changes, which makes it
an invariant of the underlying flat knot.  Refinements below attach
difference writhes of type-1 smoothed diagrams to each crossing, giving
the two- and three-variable polynomial families.

Every writhe-type value is read from a writhe table, the signed crossing
count per index that ``labeling.writhe_totals`` sums over the ``(crossing,
sign, index)`` rows of a walk; a difference writhe is then one
subtraction, ``table[n] - table[-n]``.  Every index comes from
``labeling.index_walk``; a knot diagram's own rows and writhe table are
walked and summed once, in the memoised ``labeling.knot_rows``.
The polynomials read every type-1 smoothing of a knot from one memoised
row set, ``type1_rows(d)``: per crossing its sign, index, segment pair,
and that smoothing's walk and writhe table, with no smoothed Diagram
built; ``spans.tilde_f`` rejoins the type-2 smoothings from the same
segments.

``smoothed_writhe_table(comp, walk, m)`` sums, over the crossings of
index m or -m of the knot with passages ``comp``, their signs times the
writhe tables of their type-1 smoothings, and ``nm_difference`` reads an
(n,m)-difference writhe off it: ``dwrithe_nm``, the second smoothing
level of ``f_poly_nmk`` and a fingerprint's knot vector all go through
it.  ``dwrithe`` is memoised per (diagram, n), for the polynomials' base
values and the invariant batteries.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from ..diagram import OVER, UNDER, Diagram, rejoin, require_knot
from ..errors import PreconditionError
from ..labeling import index_walk, knot_rows, writhe_totals
from ..laurent import LaurentPoly
from ..memo import memo
from ..smoothing import knot_segments, smooth1, type1_segments

__all__ = [
    "type1_rows",
    "smoothed_writhe_table",
    "writhe_n",
    "dwrithe",
    "affine_index_poly",
    "smoothed_dwrithe",
    "f_poly",
    "dwrithe_nm",
    "f_poly_nmk",
    "AIP_VARS",
    "FPOLY_VARS",
    "FNMK_VARS",
]

AIP_VARS = ("t",)
FPOLY_VARS = ("t", "l")
FNMK_VARS = ("t", "l1", "l2")


def crossing_poly(variables: tuple[str, ...], rows) -> LaurentPoly:
    """Sum of ``s*t^ind*L^e - s*L^r`` over rows ``(s, ind, e, r)``, where t
    is the first variable and L stands for the remaining ones, with ``e``
    and ``r`` their exponent tuples; built once from a dict."""
    acc: dict[tuple[int, ...], int] = {}
    for s, ind, e, r in rows:
        for exps, coef in (((ind, *e), s), ((0, *r), -s)):
            acc[exps] = acc.get(exps, 0) + coef
    return LaurentPoly.from_dict(variables, acc)


def difference(table: Mapping[int, int], n: int) -> int:
    """``table[n] - table[-n]``, absent entries counting as 0."""
    return table.get(n, 0) - table.get(-n, 0)


def writhe_n(d: Diagram, n: int) -> int:
    """n-th writhe: signed count of crossings with index n (n != 0)."""
    require_knot(d, "the n-th writhe")
    if n == 0:
        raise PreconditionError("the n-th writhe requires n != 0")
    return knot_rows(d.components[0])[1].get(n, 0)


@memo
def dwrithe(d: Diagram, n: int) -> int:
    """n-th difference writhe (n > 0); crossing-change invariant."""
    require_knot(d, "the difference writhe")
    if n <= 0:
        raise PreconditionError("the difference writhe requires n > 0")
    return difference(knot_rows(d.components[0])[1], n)


def affine_index_poly(d: Diagram) -> LaurentPoly:
    """Sum of sign(c) * (t^index(c) - 1) over classical crossings."""
    require_knot(d, "the affine index polynomial")
    rows, _ = knot_rows(d.components[0])
    return crossing_poly(AIP_VARS, ((s, ind, (), ()) for _, s, ind in rows))


def smoothed_dwrithe(d: Diagram, crossing: int, n: int) -> int:
    """Difference writhe of the type-1 smoothing at one crossing."""
    return dwrithe(smooth1(d, crossing), n)


@memo
def type1_rows(d: Diagram) -> tuple:
    """One row ``(sign, index, segments, walk, table)`` per crossing of a
    knot diagram, in crossing-id order: ``segments`` is the crossing's
    type-1 segment pair, ``walk`` that smoothing's ``index_walk`` and
    ``table`` its writhe table, as a tuple and a read-only view."""
    rows = []
    for c, s, ind in knot_rows(d.components[0])[0]:
        segments = type1_segments(d, c)
        walk = tuple(index_walk(*segments))
        rows.append((s, ind, segments, walk, MappingProxyType(writhe_totals(walk))))
    return tuple(rows)


def f_poly(d: Diagram, n: int) -> LaurentPoly:
    """Two-variable refinement of the affine index polynomial.

    Crossings whose smoothed difference writhe equals the diagram's own (up
    to sign) contribute ``sign*(t^ind - 1)*l^value``; the others contribute
    ``sign*(t^ind*l^value - l^base)``.
    """
    require_knot(d, "the F-polynomial")
    if n <= 0:
        raise PreconditionError("the F-polynomial requires n > 0")
    base = dwrithe(d, n)
    rows = []
    for s, ind, _, _, table in type1_rows(d):
        sd = difference(table, n)
        rows.append((s, ind, (sd,), (sd,) if sd in (base, -base) else (base,)))
    return crossing_poly(FPOLY_VARS, rows)


def smoothed_writhe_table(comp, walk, m: int) -> dict[int, int]:
    """Index j -> sum of sign(c) * writhe_j(type-1 smoothing at c) over the
    crossings c of index m or -m (m > 0) of the knot with passages
    ``comp`` and ``index_walk`` ``walk``.

    Only those crossings are smoothed: ``f_poly_nmk`` asks for the table of
    every type-1 smoothing of a diagram, and smoothing all of their
    crossings would dominate it.
    """
    signs = {c: s for c, s, i in walk if i == m or i == -m}
    acc: dict[int, int] = {}
    if not signs:
        return acc
    at = {(p.crossing, p.strand): k for k, p in enumerate(comp) if p.crossing in signs}
    for c, s in signs.items():
        for _, t, j in index_walk(*knot_segments(comp, at[c, OVER], at[c, UNDER])):
            acc[j] = acc.get(j, 0) + s * t
    return acc


def nm_difference(table: Mapping[int, int], n: int, m: int) -> int:
    """The (n,m)-difference writhe of a knot whose smoothed writhe table of
    |m| is ``table``."""
    return m * difference(table, n)


def _dwrithe_nm(comp, walk, n: int, m: int) -> int:
    """``dwrithe_nm``, unchecked, of the knot with passages ``comp`` and
    ``(crossing, sign, index)`` rows ``walk``."""
    if m == 0:
        return 0
    return nm_difference(smoothed_writhe_table(comp, walk, abs(m)), n, m)


def dwrithe_nm(d: Diagram, n: int, m: int) -> int:
    """(n,m)-difference writhe:
    ``m * sum of sign(c) * smoothed_dwrithe(c, n) over crossings of index
    m or -m``.  Crossing-change invariant, and odd in m.

    Both level sets must enter: changing a crossing of index -m moves it to
    the index-m set while negating both its sign and its smoothed value, so
    the symmetric sum is what survives crossing changes (and is what the
    flat I-function machinery produces).
    """
    require_knot(d, "the (n,m)-difference writhe")
    if n <= 0:
        raise PreconditionError("the (n,m)-difference writhe requires n > 0")
    return _dwrithe_nm(d.components[0], knot_rows(d.components[0])[0], n, m)


def f_poly_nmk(d: Diagram, n: int, m: int, k: int) -> LaurentPoly:
    """Three-variable polynomial driven by both smoothed difference writhes.

    A crossing sits in the exceptional set T when both its smoothed values
    match the diagram's own up to sign.
    """
    require_knot(d, "the generalized F-polynomial")
    base1 = dwrithe(d, n)
    base2 = dwrithe_nm(d, m, k)
    rows = []
    for s, ind, segments, walk, table in type1_rows(d):
        e = (difference(table, n), _dwrithe_nm(rejoin(segments)[0], walk, m, k))
        in_t = e[0] in (base1, -base1) and e[1] in (base2, -base2)
        rows.append((s, ind, e, e if in_t else (base1, base2)))
    return crossing_poly(FNMK_VARS, rows)
