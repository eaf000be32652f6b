"""Formal integer sums of flat link classes.

A FlatSum is an element of the free module on flat diagram classes, held
as canonical-key -> coefficient with a stored representative diagram per
key.  Keys merge exactly when the canonical flat keys coincide; proving
that two distinct keys are (or are not) the same flat class is out of
scope here and delegated to fingerprints.

``_terms`` builds a self-crossing's B-sum term and its crossing-changed
twin as one pair, memoised per diagram and component in ``_b_rows`` (see
``vknots.memo``) and unmemoised for the fingerprints' nested flat B-sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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

    def render(self) -> str:
        """The sum as text, each representative written by ``serialize``."""
        return render_sum((coef, f"[{serialize(rep)}]") for _, coef, rep in self.terms)

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


def _terms(d: Diagram, crossings) -> tuple:
    """For each crossing c, in the order given, the pair of
    ``(representative, coefficient, flat key)`` rows: the type-2 smoothing
    at c with c's sign, and the type-2 smoothing of ``d`` with c changed,
    with the sign negated."""
    out = []
    for c in crossings:
        s, rep, twin = d.sign(c), smooth2(d, c), smooth2_changed(d, c)
        out.append(((rep, s, flat_key(rep)), (twin, -s, flat_key(twin))))
    return tuple(out)


@memo
def _b_rows(d: Diagram, i: int) -> tuple:
    """``_terms`` over the self-crossings of component i, in crossing-id
    order: ``b_sum`` reads the first row of each pair, ``b_flat_sum`` both."""
    return _terms(d, self_crossings(d, i))


def b_sum(d: Diagram, i: int) -> FlatSum:
    """Signed sum of flat classes of type-2 smoothings at the self-crossings
    of component i; a virtual link invariant."""
    return _reduce(term for term, _ in _b_rows(d, i))


def b_flat_sum(d: Diagram, i: int) -> FlatSum:
    """Crossing-change invariant version: each smoothing is paired against
    the smoothing taken after changing that crossing."""
    return _reduce(chain.from_iterable(_b_rows(d, i)))


def _b_flat_of(d: Diagram, crossings) -> FlatSum:
    """The flat B-sum over the given self-crossings of one component, for
    the nested B-sums of fingerprints: ``_terms`` with no memo, since
    keeping them in ``_b_rows`` slows the larger runs and grows them."""
    return _reduce(chain.from_iterable(_terms(d, crossings)))
