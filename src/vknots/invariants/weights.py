"""Generic crossing weight functions and the sums built from them.

A weight function assigns a group value to each crossing in its domain and
is local with respect to the moves; it is odd or even according to whether
the two crossings created by an R2 move take opposite or equal values.
Summing an odd weight over the level set of an even weight gives a link
invariant; adding the same sum evaluated on the mirror image gives a flat
link invariant.  The concrete writhe/span invariants are instances, and the
tests pin the generic path to the direct formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..diagram import Diagram, mirror, require_knot
from ..errors import PreconditionError
from ..labeling import crossing_index
from ..smoothing import smooth1
from .writhes import dwrithe, smoothed_dwrithe

__all__ = [
    "WeightFn",
    "sign_weight",
    "index_weight",
    "product",
    "smoothed_dwrithe_weight",
    "i_function",
    "i_flat",
    "nested_dwrithe",
]


def _everywhere(d: Diagram, c: int) -> bool:
    return True


@dataclass(frozen=True)
class WeightFn:
    """A crossing weight: value map, parity, and its consistent domain."""

    name: str
    parity: str  # "odd" | "even"
    evaluate: Callable[[Diagram, int], int]
    domain: Callable[[Diagram, int], bool] = field(default=_everywhere)

    def __post_init__(self):
        if self.parity not in ("odd", "even"):
            raise PreconditionError(f"parity must be odd or even, got {self.parity!r}")


def _is_knot(d: Diagram, c: int) -> bool:
    return d.n_components == 1


def sign_weight() -> WeightFn:
    return WeightFn("sgn", "odd", lambda d, c: d.sign(c))


def index_weight() -> WeightFn:
    return WeightFn("ind", "even", crossing_index, _is_knot)


def product(u: WeightFn, v: WeightFn) -> WeightFn:
    """Pointwise product; parities multiply like signs."""
    parity = "odd" if (u.parity == "odd") != (v.parity == "odd") else "even"
    return WeightFn(
        f"{u.name}*{v.name}",
        parity,
        lambda d, c: u.evaluate(d, c) * v.evaluate(d, c),
        lambda d, c: u.domain(d, c) and v.domain(d, c),
    )


def smoothed_dwrithe_weight(n: int) -> WeightFn:
    """Even weight sending a crossing to the n-th difference writhe of its
    type-1 smoothing."""
    return WeightFn(
        f"dj{n}@smooth1",
        "even",
        lambda d, c: smoothed_dwrithe(d, c, n),
        lambda d, c: d.is_self_crossing(c),
    )


def i_function(d: Diagram, v: WeightFn, w: WeightFn, g) -> int:
    """Sum of the odd weight v over crossings where the even weight w is g.

    The caller is responsible for g being admissible (outside the values w
    takes on kink-reducible crossings, or v vanishing there).
    """
    if v.parity != "odd":
        raise PreconditionError(f"weight {v.name!r} is not registered odd")
    if w.parity != "even":
        raise PreconditionError(f"weight {w.name!r} is not registered even")
    total = 0
    for c in d.crossing_ids():
        if v.domain(d, c) and w.domain(d, c) and w.evaluate(d, c) == g:
            total += v.evaluate(d, c)
    return total


def i_flat(d: Diagram, v: WeightFn, w: WeightFn, g) -> int:
    """Crossing-change invariant version: the same sum plus its value on the
    mirror image."""
    return i_function(d, v, w, g) + i_function(mirror(d), v, w, g)


def nested_dwrithe(d: Diagram, n: int, ms: tuple[int, ...]) -> int:
    """Depth-bounded recurrent construction specialized to type-1 smoothings.

    ``nested_dwrithe(d, n, ())`` is the n-th difference writhe; each extra
    entry m wraps the previous invariant A into
    ``i_flat(d, sgn*ind*(A o smooth1), ind, m)``.  Depth one recovers the
    (n,m)-difference writhe.
    """
    require_knot(d, "the nested difference writhe")
    if not ms:
        return dwrithe(d, n)
    inner_ms = tuple(ms[:-1])
    weight = WeightFn(
        f"nested{(n, *ms)}",
        "odd",
        lambda dd, c: dd.sign(c)
        * crossing_index(dd, c)
        * nested_dwrithe(smooth1(dd, c), n, inner_ms),
        _is_knot,
    )
    return i_flat(d, weight, index_weight(), ms[-1])
