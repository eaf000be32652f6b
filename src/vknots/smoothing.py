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

Each is one ``diagram.splice`` of the parent's passages: a loop ``(fwd,
back)`` becomes the component ``fwd + reversed(back)``, and a crossing
with exactly one passage in a reversed segment flips its sign.  Which
segment survives/reverses is pinned by golden values, not by taste: the
type-1 and type-2 choices below reproduce the published smoothed d-writhes
of knot 4.31 and the three-variable span polynomials of the VK family, and
swapping either choice breaks them.
Changing the smoothed crossing before a type-3 smoothing reverses the
merged knot's orientation, which is what makes the flat span machinery
work.

Types 1 and 3 are each stated once, as the segment pair ``(fwd, back)``
of their one loop (``type1_segments``, or ``knot_segments`` on a knot's
passages; ``type3_segments``, on the passages of two components alone).
``smooth1`` and ``smooth3`` splice it, and ``labeling.index_walk`` reads
its writhe tables with no Diagram built.  Type 2 is stated once as the
two loops ``type2_loops`` of a self-crossing's segments X and Y, which
``smooth2`` splices.  On a knot the polynomials rejoin the type-1 loop
and the type-2 loops (``type2_components``) as passage tuples with
``diagram.rejoin``, the rule ``splice`` follows, with no Diagram built.
"""

from __future__ import annotations

from .diagram import OVER, Diagram, rejoin, splice
from .errors import PreconditionError

__all__ = [
    "smooth1", "smooth2", "smooth2_changed", "smooth3", "knot_segments",
    "type1_segments", "type2_loops", "type2_components",
    "type3_segments",
]


def _after(comp, i):
    """The cyclic sequence of ``comp`` following position ``i``, without it."""
    return comp[i + 1:] + comp[:i]


def knot_segments(comp, oi: int, ui: int) -> tuple:
    """The segments strictly between the passages ``comp[oi]`` (over) and
    ``comp[ui]`` (under) of a self-crossing: (X, Y), where X follows the
    over passage up to the under passage and Y follows the under passage
    back around to the over one."""
    rest = comp[oi + 1:] + comp[:oi]  # _after(comp, oi), inlined: every smooth2 calls this
    k = (ui - oi - 1) % len(comp)
    return rest[:k], rest[k + 1:]


def _split_self(d: Diagram, crossing: int, op: str):
    """Component of a self-crossing and its segments: (ci, X, Y)."""
    (oc, oi), (uc, ui) = d.passage_positions(crossing)
    if oc != uc:
        raise PreconditionError(
            f"{op} requires a self-crossing; crossing {crossing} joins "
            f"components {oc + 1} and {uc + 1}"
        )
    return (oc, *knot_segments(d.components[oc], oi, ui))


def type1_segments(d: Diagram, crossing: int) -> tuple:
    """The segment pair ``(fwd, back)`` of the type-1 smoothing: X and Y.

    The segment entered at the under-passage exit is the one reversed; the
    opposite choice flips the orientation of the result and is rejected by
    the golden three-variable span polynomials of the VK family.
    """
    return _split_self(d, crossing, "type-1 smoothing")[1:]


def type2_loops(x, y) -> tuple:
    """The two loops of the type-2 smoothing at a self-crossing with
    segments X and Y: the loop entered at the under-passage exit (Y) keeps
    its orientation and the old slot; X is reversed and appended last."""
    return (y, ()), ((), x)


def type2_components(x, y) -> tuple:
    """The two components of a knot's type-2 smoothing at the crossing
    with segments X and Y, as passage tuples."""
    return rejoin(*type2_loops(x, y))


def type3_segments(first, i: int, second, j: int) -> tuple:
    """The segment pair ``(fwd, back)`` of the type-3 smoothing at the
    crossing met at ``first[i]`` and ``second[j]`` (the passages of two
    components): the over passage's component after it, then the under
    passage's after it, so the under passage's component is reversed."""
    if first[i].strand == OVER:
        return _after(first, i), _after(second, j)
    return _after(second, j), _after(first, i)


def smooth1(d: Diagram, crossing: int) -> Diagram:
    """Type-1 smoothing: same component count, one segment reversed."""
    return splice(d, d.components_of(crossing)[:1], type1_segments(d, crossing))


def smooth2(d: Diagram, crossing: int) -> Diagram:
    """Type-2 smoothing: the component splits; result has one more
    component (``type2_loops``)."""
    ci, x, y = _split_self(d, crossing, "type-2 smoothing")
    return splice(d, (ci,), *type2_loops(x, y))


def smooth2_changed(d: Diagram, crossing: int) -> Diagram:
    """``smooth2(crossing_change(d, crossing), crossing)``, with no changed
    Diagram built.

    Changing the crossing swaps its over and under passages, so X and Y
    swap roles; the crossing lies in neither, so nothing else changes: X
    keeps its orientation and the slot, and Y is reversed and appended.
    """
    ci, x, y = _split_self(d, crossing, "type-2 smoothing")
    return splice(d, (ci,), *type2_loops(y, x))


def smooth3(d: Diagram, crossing: int) -> Diagram:
    """Type-3 smoothing: two components merge; result has one fewer, at
    the smaller of the two slots."""
    (oc, oi), (uc, ui) = d.passage_positions(crossing)
    if oc == uc:
        raise PreconditionError(
            f"type-3 smoothing requires a crossing of two components; "
            f"crossing {crossing} is a self-crossing of component {oc + 1}"
        )
    comps = d.components
    return splice(d, (oc, uc), type3_segments(comps[oc], oi, comps[uc], ui))
