"""Formal integer sums of flat link classes.

A FlatSum is an element of the free module on flat diagram classes, held
as canonical-key -> coefficient with a stored representative diagram per
key.  Keys merge exactly when the canonical flat keys coincide; proving
that two distinct keys are (or are not) the same flat class is out of
scope here and delegated to fingerprints.

The terms of a B-sum and of its crossing-change form are memoised once
per diagram, component and half in ``_b_rows`` (see ``vknots.memo``):
``bflat(i)`` reuses every smoothing and flat key of ``bsum(i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..diagram import Diagram, component_index, crossing_groups, flat_key, serialize
from ..laurent import render_sum
from ..memo import memo
from ..smoothing import smooth2, smooth2_changed

__all__ = ["FlatSum", "flat_sum", "b_sum", "b_flat_sum", "self_crossings"]


@dataclass(frozen=True)
class FlatSum:
    """Reduced formal sum; terms ``(key, coefficient, representative)``
    ordered by flat key text, zero terms dropped."""

    terms: tuple[tuple[str, int, Diagram], ...]

    def is_empty(self) -> bool:
        return not self.terms

    def coefficients(self) -> dict[str, int]:
        return {key: coef for key, coef, _ in self.terms}

    def render(self, text=None) -> str:
        """The sum as text, each representative written by ``text``
        (``serialize`` by default)."""
        text = text or serialize
        return render_sum((coef, f"[{text(rep)}]") for _, coef, rep in self.terms)

    def __str__(self) -> str:
        return self.render()


def _reduce(rows) -> FlatSum:
    """Reduce ``(representative, coefficient, flat key)`` rows by key; the
    first row of a key gives its representative."""
    acc: dict[str, tuple[int, Diagram]] = {}
    for rep, coef, key in rows:
        if key in acc:
            acc[key] = (acc[key][0] + coef, acc[key][1])
        else:
            acc[key] = (coef, rep)
    cleaned = [(k, c, r) for k, (c, r) in acc.items() if c != 0]
    cleaned.sort(key=lambda t: t[0])
    return FlatSum(tuple(cleaned))


def flat_sum(pairs: Iterable[tuple[Diagram, int]]) -> FlatSum:
    """Reduce (diagram, coefficient) pairs by canonical flat key."""
    return _reduce((rep, coef, flat_key(rep)) for rep, coef in pairs)


def self_crossings(d: Diagram, i: int) -> tuple[int, ...]:
    """Crossings with both passages on component i (1-based)."""
    return tuple(sorted(crossing_groups(d.components).get((component_index(d, i),), ())))


@memo
def _b_rows(d: Diagram, i: int, changed: bool) -> tuple:
    """One ``(representative, coefficient, flat key)`` row per self-crossing
    c of component i, in crossing-id order: the type-2 smoothing at c with
    c's sign, or, when ``changed``, the type-2 smoothing of ``d`` with c
    changed, with the sign negated.

    ``b_sum`` reads the unchanged half and ``b_flat_sum`` both, so a batch
    row or a battery that asks for ``bsum(i)`` and then ``bflat(i)``
    smooths and keys each term once.
    """
    smooth, sign = (smooth2_changed, -1) if changed else (smooth2, 1)
    rows = []
    for c in self_crossings(d, i):
        rep = smooth(d, c)
        rows.append((rep, sign * d.sign(c), flat_key(rep)))
    return tuple(rows)


def b_sum(d: Diagram, i: int) -> FlatSum:
    """Signed sum of flat classes of type-2 smoothings at the self-crossings
    of component i; a virtual link invariant."""
    return _reduce(_b_rows(d, i, False))


def _b_flat_of(d: Diagram, crossings) -> FlatSum:
    """The flat B-sum over the given self-crossings of one component, for
    the nested B-sums of fingerprints.  Not memoised and not built from
    ``_b_rows``: the one fingerprint table, ``_canonical_fingerprint``,
    asks each canonical component tuple and depth once, so these smoothings
    are not asked for again, and routing them through the table (or through
    two unmemoised halves) only slows ``distinguish``."""
    pairs = []
    for c in crossings:
        s = d.sign(c)
        pairs.append((smooth2(d, c), s))
        pairs.append((smooth2_changed(d, c), -s))
    return flat_sum(pairs)


def b_flat_sum(d: Diagram, i: int) -> FlatSum:
    """Crossing-change invariant version: each smoothing is paired against
    the smoothing taken after changing that crossing."""
    return _reduce(row for pair in zip(_b_rows(d, i, False), _b_rows(d, i, True))
                   for row in pair)
