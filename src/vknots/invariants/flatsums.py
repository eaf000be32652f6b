"""Formal integer sums of flat link classes.

A FlatSum is an element of the free module on flat diagram classes, held
as canonical-key -> coefficient with a stored representative diagram per
key.  Keys merge exactly when the canonical flat keys coincide; proving
that two distinct keys are (or are not) the same flat class is out of
scope here and delegated to fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..diagram import Diagram, component_index, crossing_groups, flat_key
from ..laurent import render_sum
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

    def render(self) -> str:
        return render_sum((coef, f"[{rep}]") for _, coef, rep in self.terms)

    def __str__(self) -> str:
        return self.render()


def flat_sum(pairs: Iterable[tuple[Diagram, int]]) -> FlatSum:
    """Reduce (diagram, coefficient) pairs by canonical flat key."""
    acc: dict[str, tuple[int, Diagram]] = {}
    for rep, coef in pairs:
        key = flat_key(rep)
        if key in acc:
            acc[key] = (acc[key][0] + coef, acc[key][1])
        else:
            acc[key] = (coef, rep)
    cleaned = [(k, c, r) for k, (c, r) in acc.items() if c != 0]
    cleaned.sort(key=lambda t: t[0])
    return FlatSum(tuple(cleaned))


def self_crossings(d: Diagram, i: int) -> tuple[int, ...]:
    """Crossings with both passages on component i (1-based)."""
    return tuple(sorted(crossing_groups(d).get((component_index(d, i),), ())))


def b_sum(d: Diagram, i: int) -> FlatSum:
    """Signed sum of flat classes of type-2 smoothings at the self-crossings
    of component i; a virtual link invariant."""
    return flat_sum((smooth2(d, c), d.sign(c)) for c in self_crossings(d, i))


def _b_flat_of(d: Diagram, crossings) -> FlatSum:
    """The flat B-sum over the given self-crossings of one component."""
    pairs = []
    for c in crossings:
        s = d.sign(c)
        pairs.append((smooth2(d, c), s))
        pairs.append((smooth2_changed(d, c), -s))
    return flat_sum(pairs)


def b_flat_sum(d: Diagram, i: int) -> FlatSum:
    """Crossing-change invariant version: each smoothing is paired against
    the smoothing taken after changing that crossing."""
    return _b_flat_of(d, self_crossings(d, i))
