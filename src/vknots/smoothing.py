"""The three smoothing surgeries on Gauss diagrams.

All three delete one chord and reconnect the strands:

* type 1 (self-crossing, against orientation): the component survives with
  the segment between the over passage and the under passage reversed;
* type 2 (self-crossing): the component splits in two; one loop keeps its
  orientation and the old component slot, the other is reversed and
  appended as the new last component;
* type 3 (crossing of two components): the components merge; the under
  passage's component is traversed in reverse in the merged loop, and the
  merged component takes the smaller slot.

Reversing a segment flips the sign of every crossing with exactly one
passage inside it.  Which segment survives/reverses is pinned by golden
values, not by taste: the type-1 and type-2 choices below reproduce the
published smoothed d-writhes of knot 4.31 and the three-variable span
polynomials of the VK family, and swapping either choice breaks them.
Changing the smoothed crossing before a type-3 smoothing reverses the
merged knot's orientation, which is what makes the flat span machinery
work.
"""

from __future__ import annotations

from .diagram import Diagram, Passage
from .errors import PreconditionError
from .memo import memo

__all__ = ["smooth1", "smooth2", "smooth3"]


def _after(comp, i):
    """The cyclic sequence of ``comp`` following position ``i``, without it."""
    return comp[i + 1:] + comp[:i]


def _split_self(d: Diagram, crossing: int, op: str):
    """Component of a self-crossing and the segments strictly between its
    passages: (ci, X, Y), where X follows the over passage up to the under
    passage and Y follows the under passage back around to the over one."""
    (oc, oi), (uc, ui) = d.passage_positions(crossing)
    if oc != uc:
        raise PreconditionError(
            f"{op} requires a self-crossing; crossing {crossing} joins "
            f"components {oc + 1} and {uc + 1}"
        )
    comp = d.components[oc]
    rest = _after(comp, oi)
    k = (ui - oi - 1) % len(comp)
    return oc, rest[:k], rest[k + 1:]


def _one_sided(x_segment) -> set[int]:
    """Crossings with exactly one passage inside the reversed segment."""
    inside: dict[int, int] = {}
    for p in x_segment:
        inside[p.crossing] = inside.get(p.crossing, 0) + 1
    return {cid for cid, k in inside.items() if k == 1}


def _apply_flips(components, flips) -> tuple:
    return tuple(
        tuple(Passage(p.crossing, p.strand, -p.sign) if p.crossing in flips else p
              for p in comp)
        for comp in components
    )


@memo
def smooth1(d: Diagram, crossing: int) -> Diagram:
    """Type-1 smoothing: same component count, one segment reversed.

    The segment entered at the under-passage exit is the one reversed; the
    opposite choice flips the orientation of the result and is rejected by
    the golden three-variable span polynomials of the VK family.
    """
    ci, x, y = _split_self(d, crossing, "type-1 smoothing")
    flips = _one_sided(y)
    comps = list(d.components)
    comps[ci] = x + tuple(reversed(y))
    return Diagram(_apply_flips(comps, flips))


def smooth2(d: Diagram, crossing: int) -> Diagram:
    """Type-2 smoothing: the component splits; result has one more component.

    The loop entered at the under-passage exit keeps its orientation and the
    old slot; the other loop is reversed and appended last.
    """
    ci, x, y = _split_self(d, crossing, "type-2 smoothing")
    flips = _one_sided(x)
    comps = list(d.components)
    comps[ci] = y
    comps.append(tuple(reversed(x)))
    return Diagram(_apply_flips(comps, flips))


def smooth3(d: Diagram, crossing: int) -> Diagram:
    """Type-3 smoothing: two components merge; result has one fewer.

    The under passage's component is reversed into the over passage's
    component; the merged loop sits at the smaller of the two slots.
    """
    (oc, oi), (uc, ui) = d.passage_positions(crossing)
    if oc == uc:
        raise PreconditionError(
            f"type-3 smoothing requires a crossing of two components; "
            f"crossing {crossing} is a self-crossing of component {oc + 1}"
        )
    s_over = _after(d.components[oc], oi)
    s_under = _after(d.components[uc], ui)
    # Every surviving crossing with exactly one passage on the reversed
    # (under) component flips sign.
    flips = _one_sided(s_under)
    merged = s_over + tuple(reversed(s_under))
    lo = min(oc, uc)
    comps = [c for k, c in enumerate(d.components) if k not in (oc, uc)]
    comps.insert(lo, merged)
    return Diagram(_apply_flips(comps, flips))
