"""Multi-component signed Gauss codes for ordered oriented virtual links.

A diagram is an ordered list of components; each component is a cyclic
sequence of crossing passages.  A passage records which crossing is met,
whether the strand goes over or under, and the crossing sign.  Virtual
crossings are never stored: a virtual link is its Gauss code, which makes
the virtual Reidemeister moves and the semi-virtual move act trivially.

Text grammar (whitespace ignored)::

    link      :=  component (";" component)*
    component :=  "0"  |  passage+
    passage   :=  ("O" | "U") uint ("+" | "-")

``"0"`` denotes a crossing-free unknot component.  Example:
``"O1+U2+O3-U1+O2+U3-"``.

All values here are immutable; every operation returns a new Diagram.

A ``Passage`` is an interned record and checks nothing: ``Passage(c, s,
g)`` returns the one object ``_POOL`` holds for those fields, so passages
compare and hash by identity, in C, and a tuple of them hashes without a
Python call per passage.  The pool admits exactly the valid passages
(``_valid``: an int id >= 1, strand ``O`` or ``U``, an int sign +-1), so a
passage is valid iff it is the pooled one (in ``_POOLED``, by identity).
``Diagram(...)`` stores its components as tuples, checks that every
passage is pooled and the pairing of each crossing's two passages, and
builds its crossing table in that single validating pass
(``_crossing_table``): crossing id -> ``(over component, over position,
under component, under position, sign)``, positions 0-based.  Every
per-crossing query (``sign``, ``passage_positions``, ``components_of``,
``is_self_crossing``, ``crossing_ids``) reads that table in O(1) instead
of scanning the code.  The builders here and in ``moves``, whose results
are valid by construction, make them with ``Diagram._trusted``: no check,
and the same table built on the first per-crossing query, since many of
their Diagrams are only hashed, keyed or serialized.  A Diagram keeps its
hash and its text (``serialize``), each computed on first use.
``require_knot`` and ``component_index`` are the component checks that
the invariants make on their own input; their registry records no arity.

Reversing a segment of a Gauss code flips the sign of every crossing with
exactly one passage in it.  That rule is stated once, here, in
``_resign``, which negates the crossings that ``one_sided`` names.
``splice`` cuts a diagram's components into ``(fwd, back)`` loops, each
rejoined as ``fwd + back[::-1]``, re-slots them and resigns them;
``rejoin`` does the same to the loops of a knot's passages and returns the
passage tuples, with no Diagram built.
``reverse_component``, the three smoothings and the kink classes of
fingerprints are all splices; the polynomials rejoin a knot's type-1 and
type-2 smoothings.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterable

from .errors import GaussCodeError, PreconditionError, ValidationError

__all__ = [
    "Passage",
    "Diagram",
    "parse",
    "serialize",
    "mirror",
    "crossing_change",
    "reverse_component",
    "component_index",
    "require_knot",
    "one_sided",
    "rejoin",
    "splice",
    "reorder_components",
    "crossing_groups",
    "flat_key",
]

OVER = "O"
UNDER = "U"


_POOL: dict[tuple[int, str, int], Passage] = {}  # (crossing, strand, sign) -> its Passage
_POOLED: set[Passage] = set()  # the values of _POOL, looked up by identity


def _valid(crossing, strand, sign) -> bool:
    """Whether a Diagram accepts a passage of these fields: the pool's
    admission test."""
    return (type(crossing) is int and crossing >= 1 and strand in (OVER, UNDER)
            and type(sign) is int and sign in (1, -1))


class Passage:
    """One visit of a strand to a classical crossing; ``Diagram(...)``
    checks its fields.

    Interned: ``Passage(c, s, g)`` returns the one object ``_POOL`` holds
    for fields a Diagram accepts (``_valid``), so equal passages are
    identical and compare and hash by identity.  Fields no Diagram accepts
    give a fresh object, which is never pooled, so the pool holds at most
    four passages per crossing id.  An id or sign that is no int is one of
    them, and gets no pool hit either: ``True == 1 == 1.0`` and all hash
    alike, so a pooled passage must not stand for them, nor they for it.
    Assignment raises ``FrozenInstanceError``."""

    __slots__ = ("crossing", "strand", "sign")

    crossing: int
    strand: str  # OVER or UNDER
    sign: int  # +1 or -1

    def __new__(cls, crossing: int, strand: str, sign: int) -> Passage:
        p = _POOL.get((crossing, strand, sign))
        # A hit for an equal id or sign that is no int is refused.  Small ints
        # and +-1 are shared objects, so the type is asked only of large ids.
        if p is None or (p.sign is not sign and type(sign) is not int) \
                or (p.crossing is not crossing and type(crossing) is not int):
            p = object.__new__(cls)
            object.__setattr__(p, "crossing", crossing)
            object.__setattr__(p, "strand", strand)
            object.__setattr__(p, "sign", sign)
            if _valid(crossing, strand, sign):
                _POOL[crossing, strand, sign] = p
                _POOLED.add(p)
        return p

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Passage, (self.crossing, self.strand, self.sign)

    def __repr__(self) -> str:
        return f"Passage(crossing={self.crossing!r}, strand={self.strand!r}, sign={self.sign!r})"

    @property
    def over(self) -> bool:
        return self.strand == OVER

    def token(self) -> str:
        return f"{self.strand}{self.crossing}{'+' if self.sign > 0 else '-'}"


Component = tuple  # tuple[Passage, ...]


@dataclass(frozen=True, slots=True)
class Diagram:
    """An ordered oriented virtual link as a signed multi-component Gauss code."""

    components: tuple[Component, ...]
    _table: dict | None = field(default=None, init=False, repr=False, compare=False)
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    _text: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # The public constructor stores tuples and checks the code eagerly.
        object.__setattr__(self, "components", tuple(map(tuple, self.components)))
        self._rows()

    @classmethod
    def _trusted(cls, components: tuple[Component, ...]) -> Diagram:
        """A Diagram of ``components``, which the caller built valid: not
        checked, and its crossing table built on the first per-crossing
        query."""
        d = object.__new__(cls)
        object.__setattr__(d, "components", components)
        object.__setattr__(d, "_table", None)
        object.__setattr__(d, "_hash", None)
        object.__setattr__(d, "_text", None)
        return d

    def __hash__(self) -> int:
        # Computed on first use (many diagrams are never hashed), then kept.
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.components))
        return self._hash

    def __reduce__(self):
        # The components only: passages hash by identity, so a kept hash is
        # only good in the process that computed it.
        return Diagram, (self.components,)

    def _rows(self) -> dict[int, tuple[int, int, int, int, int]]:
        if self._table is None:
            object.__setattr__(self, "_table", _crossing_table(self.components))
        return self._table

    def _row(self, crossing: int) -> tuple[int, int, int, int, int]:
        row = self._rows().get(crossing)
        if row is None:
            raise PreconditionError(f"unknown crossing id {crossing}")
        return row

    # -- basic queries -------------------------------------------------

    @property
    def n_components(self) -> int:
        return len(self.components)

    def crossing_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows()))

    @property
    def n_crossings(self) -> int:
        # Each crossing of a valid code has two passages: no table needed.
        return sum(map(len, self.components)) // 2

    def sign(self, crossing: int) -> int:
        return self._row(crossing)[4]

    def passage_positions(self, crossing: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Positions ``(component, index)`` of the over and under passage."""
        oc, oi, uc, ui, _ = self._row(crossing)
        return (oc, oi), (uc, ui)

    def components_of(self, crossing: int) -> tuple[int, int]:
        """0-based components of the over and under passage of a crossing."""
        oc, _, uc, _, _ = self._row(crossing)
        return oc, uc

    def is_self_crossing(self, crossing: int) -> bool:
        oc, _, uc, _, _ = self._row(crossing)
        return oc == uc

    def __str__(self) -> str:
        return serialize(self)


def _crossing_table(components: tuple[Component, ...]) -> dict:
    """The crossing table of a code, crossing id -> ``(over component,
    over position, under component, under position, sign)``, in one pass
    that checks every passage (it must be the pooled one) and pairing; an
    invalid code raises its ``ValidationError`` (``_reject``)."""
    table: dict[int, tuple[int, int, int, int, int]] = {}
    unpaired: dict[int, tuple[int, int, Passage]] = {}
    pooled = _POOLED
    for ci, comp in enumerate(components):
        for pi, p in enumerate(comp):
            if p not in pooled:
                _reject(components)
            first = unpaired.pop(p.crossing, None)
            if first is None:
                if p.crossing in table:
                    _reject(components)
                unpaired[p.crossing] = (ci, pi, p)
                continue
            ac, ai, a = first
            if a.sign != p.sign:
                _reject(components)
            if a.strand == OVER and p.strand == UNDER:
                table[p.crossing] = (ac, ai, ci, pi, p.sign)
            elif a.strand == UNDER and p.strand == OVER:
                table[p.crossing] = (ci, pi, ac, ai, p.sign)
            else:
                _reject(components)
    if unpaired:
        _reject(components)
    return table


def _reject(components: tuple[Component, ...]) -> None:
    """Raise the ValidationError of an invalid code: the first malformed
    passage along the code, else the faulty crossing met first."""
    seen: dict[int, list[Passage]] = {}
    for comp in components:
        for p in comp:
            if p.strand not in (OVER, UNDER):
                raise ValidationError(f"bad strand flag {p.strand!r}")
            if type(p.sign) is not int or p.sign not in (1, -1):
                raise ValidationError(f"bad sign {p.sign!r}")
            if type(p.crossing) is not int:
                raise ValidationError(f"crossing id must be an integer, got {p.crossing!r}")
            if p.crossing < 1:
                raise ValidationError(f"crossing id must be positive, got {p.crossing}")
            seen.setdefault(p.crossing, []).append(p)
    for cid, passages in seen.items():
        if len(passages) != 2:
            raise ValidationError(
                f"crossing {cid} occurs {len(passages)} time(s), expected 2"
            )
        a, b = passages
        if a.strand == b.strand:
            raise ValidationError(f"crossing {cid} is not once over and once under")
        if a.sign != b.sign:
            raise ValidationError(f"crossing {cid} has mismatched signs")


# -- parsing and serialization ----------------------------------------

_PASSAGE_RE = re.compile(r"([OU])(\d+)([+-])")


def parse(text: str) -> Diagram:
    """Parse Gauss-code text into a validated Diagram."""
    stripped = "".join(text.split())
    if not stripped:
        raise GaussCodeError("empty input")
    components = []
    offset = 0
    for chunk in stripped.split(";"):
        if chunk == "0":
            components.append(())
            offset += len(chunk) + 1
            continue
        if not chunk:
            raise GaussCodeError("empty component", position=offset)
        passages = []
        pos = 0
        while pos < len(chunk):
            m = _PASSAGE_RE.match(chunk, pos)
            if m is None:
                raise GaussCodeError(
                    f"expected passage, found {chunk[pos:pos + 4]!r}",
                    position=offset + pos,
                )
            strand, cid, sign = m.groups()
            passages.append(Passage(int(cid), strand, 1 if sign == "+" else -1))
            pos = m.end()
        components.append(tuple(passages))
        offset += len(chunk) + 1
    return Diagram(tuple(components))


def serialize(d: Diagram) -> str:
    """Canonical text: each component rotated to its least token sequence.

    Tokens order by strand (``O`` < ``U``), then crossing id as a number,
    then sign (``+`` < ``-``).  A valid Diagram meets each (strand, crossing
    id) at most once per component, so the least token is unique and the
    rotation that starts at it is the least: one pass per component, with
    no rotations compared.  The text is written once per Diagram, on the
    first call, and kept.
    """
    if d._text is None:
        object.__setattr__(d, "_text", _write(d.components))
    return d._text


def _write(components: tuple[Component, ...]) -> str:
    """The text of ``serialize``, built from the components."""
    parts = []
    for comp in components:
        if not comp:
            parts.append("0")
            continue
        keys = [(p.strand, p.crossing) for p in comp]
        r = keys.index(min(keys))
        parts.append("".join([f"{p.strand}{p.crossing}{'+' if p.sign > 0 else '-'}"
                              for p in comp[r:] + comp[:r]]))
    return ";".join(parts)


# -- symmetries --------------------------------------------------------


def _flip(p: Passage) -> Passage:
    return Passage(p.crossing, UNDER if p.over else OVER, -p.sign)


def mirror(d: Diagram) -> Diagram:
    """Change every classical crossing: over/under swapped, signs negated."""
    return Diagram._trusted(tuple(tuple(_flip(p) for p in comp) for comp in d.components))


def crossing_change(d: Diagram, crossing: int) -> Diagram:
    """Change a single classical crossing."""
    d.sign(crossing)  # raises on unknown id
    return Diagram._trusted(
        tuple(
            tuple(_flip(p) if p.crossing == crossing else p for p in comp)
            for comp in d.components
        )
    )


def component_index(d: Diagram, i: int) -> int:
    """The 0-based slot of component ``i`` (1-based) of ``d``."""
    if not 1 <= i <= d.n_components:
        raise PreconditionError(f"component index {i} out of range 1..{d.n_components}")
    return i - 1


def require_knot(d: Diagram, what: str) -> None:
    """Reject a diagram that is not a knot: ``what`` names the value asked
    for."""
    if d.n_components != 1:
        raise PreconditionError(
            f"{what} is defined for knot diagrams only (got {d.n_components} components)"
        )


def one_sided(segment) -> set[int]:
    """Crossings with exactly one passage inside a reversed segment: the
    crossings whose sign the reversal flips."""
    flips = set()
    for p in segment:
        c = p.crossing
        if c in flips:
            flips.remove(c)
        else:
            flips.add(c)
    return flips


def _resign(comps, back) -> tuple:
    """``comps`` as a tuple of passage tuples, with every crossing that has
    exactly one passage in the reversed segments ``back`` flipped in sign."""
    flips = one_sided(back)
    return tuple(
        tuple(Passage(p.crossing, p.strand, -p.sign) if p.crossing in flips else p
              for p in comp)
        for comp in comps
    )


def rejoin(*loops) -> tuple:
    """One component ``fwd + back[::-1]`` per ``(fwd, back)`` loop of a
    knot's passages, as a tuple of passage tuples, with every crossing that
    has exactly one passage in the ``back`` segments flipped in sign."""
    return _resign([fwd + back[::-1] for fwd, back in loops],
                   [p for _, back in loops for p in back])


def splice(d: Diagram, slots, *loops) -> Diagram:
    """``d`` with the components at ``slots`` (0-based) replaced by one
    component per ``(fwd, back)`` loop, ``fwd + back[::-1]``: the first
    loop takes the smallest of ``slots``, any others are appended last.  A
    crossing with exactly one passage in the ``back`` segments flips sign,
    on every component.  The loops hold the passages of the components at
    ``slots``, less whole crossings: the result is not checked."""
    comps = [c for k, c in enumerate(d.components) if k not in slots]
    backs: list = []
    at = min(slots)
    for fwd, back in loops:
        comps.insert(at, fwd + back[::-1])
        backs += back
        at = len(comps)
    return Diagram._trusted(_resign(comps, backs))


def reverse_component(d: Diagram, i: int) -> Diagram:
    """Reverse orientation of component ``i`` (1-based); the crossings
    joining it to the other components flip sign."""
    t = component_index(d, i)
    return splice(d, (t,), ((), d.components[t]))


def crossing_groups(components) -> dict[tuple[int, ...], set[int]]:
    """Crossing ids by the 0-based components they lie on, in one pass over
    a diagram's components (passage tuples, each crossing met twice):
    ``(i,)`` holds the self-crossings of component i and ``(i, j)``, i < j,
    the crossings joining i and j.  A component or pair without crossings
    has no entry."""
    groups: dict[tuple[int, ...], set[int]] = {}
    first: dict[int, int] = {}  # crossing -> component of its first passage
    for ci, comp in enumerate(components):
        for p in comp:
            c = p.crossing
            prev = first.pop(c, None)
            if prev is None:
                first[c] = ci
                continue
            key = (ci,) if prev == ci else (prev, ci)
            groups.setdefault(key, set()).add(c)
    return groups


def reorder_components(d: Diagram, perm: Iterable[int]) -> Diagram:
    """Permute components; ``perm[k]`` is the 1-based old index placed at slot k."""
    perm = tuple(perm)
    n = d.n_components
    if sorted(perm) != list(range(1, n + 1)):
        raise PreconditionError(f"{perm} is not a permutation of 1..{n}")
    return Diagram._trusted(tuple(d.components[j - 1] for j in perm))


# -- flat canonical keys ----------------------------------------------


_MARKS = "'+-"  # token mark of a second visit, a + first visit, a - first visit
_LABELS: list[int] = [0]  # 0, 1, 2, ... in decimal text order: place -> label
_RANK: list[int] = [0]  # label -> 3 * its place in _LABELS


def _rank_table(n: int) -> tuple[list[int], list[int]]:
    """``_RANK`` and ``_LABELS`` covering labels 0..n, grown on demand."""
    if len(_RANK) <= n:
        _LABELS[:] = sorted(range(max(n + 1, 2 * len(_RANK))), key=str)
        _RANK[:] = _LABELS
        for place, label in enumerate(_LABELS):
            _RANK[label] = 3 * place
    return _RANK, _LABELS


def flat_key(d: Diagram) -> str:
    """Canonical key text of the flat diagram underlying ``d``.

    Equal for diagrams related by crossing changes, per-component rotation,
    and crossing relabeling.  Component order and orientations are part of
    the key.  Not a complete flat invariant: Reidemeister-equivalent flat
    diagrams may still get different keys.

    The key is the least, over all per-component rotations, of the flat
    text: crossings are relabeled 1, 2, ... in order of first visit; the
    first visit is written ``<label>+`` or ``<label>-`` (the sign, negated
    when that passage is the under one, which makes it crossing-change
    invariant) and the second ``<label>'``; tokens are joined by ``.``,
    components by ``;``, and a crossing-free component is ``0``.

    Exact search, one component at a time.  A component of n passages has
    n tokens in every rotation, and a token ends at its one non-digit, so
    no candidate text of a component is a strict prefix of another and
    texts compare as their token sequences.  The least text of the whole
    link is therefore the least text of component 1, followed by the least
    text of component 2 among the rotations that reach that first minimum,
    and so on.  A state is the labels of the crossings still to be met
    again, which is all later text depends on.

    Candidate elimination on integer tokens: each component starts from
    every (state, rotation) candidate and advances them all one token at a
    time, keeping only those at the least token.  All survivors so far
    share their text, so they share the next free label too.  Once one is
    left it is read to the end; if several reach the end, they tie.  Their
    end states, merged when equal, are the next component's states.  With
    ``rank`` the place of a label in decimal text order (so ``10`` < ``2``),
    a second visit is ``3 * rank``, a ``+`` first visit ``3 * rank + 1``
    and a ``-`` one ``3 * rank + 2``: the order of the text tokens, since
    ``'`` < ``+`` < ``-`` < digit.  The text is built once, from the
    winning tokens.  The cost grows with the sum of the component lengths
    and with the ties, not with the product of the lengths.
    """
    last = {}  # crossing -> last component it meets
    for ci, comp in enumerate(d.components):
        for p in comp:
            last[p.crossing] = ci
    rank, labels = _rank_table(len(last) + 1)
    states: list[dict[int, int]] = [{}]  # crossing -> label
    labelled = 0
    parts = []
    for ci, comp in enumerate(d.components):
        n = len(comp)
        if not n:
            parts.append("0")
            continue
        seq = [(p.crossing, 1 if (p.sign > 0) == (p.strand == OVER) else 2)
               for p in comp] * 2
        cands = [(r, dict(seen)) for seen in states for r in range(n)]
        toks: list[int] = []  # the survivors' common tokens
        k = 0
        while len(cands) > 1 and k < n:
            fresh = labelled + 1
            best, keep = 3 * len(rank), []  # above every token
            for cand in cands:
                r, lab = cand
                c, s = seq[r + k]
                label = lab.setdefault(c, fresh)
                tok = rank[label] + s if label == fresh else rank[label]
                if tok < best:
                    best, keep = tok, [cand]
                elif tok == best:
                    keep.append(cand)
            cands = keep
            toks.append(best)
            labelled += best % 3 > 0
            k += 1
        r, lab = cands[0]
        for c, s in seq[r + k:r + n]:
            fresh = labelled + 1
            label = lab.setdefault(c, fresh)
            toks.append(rank[label] + s if label == fresh else rank[label])
            labelled += label == fresh
        parts.append(".".join([f"{labels[t // 3]}{_MARKS[t % 3]}" for t in toks]))
        states = []
        for _, lab in cands:
            state = {c: x for c, x in lab.items() if last[c] > ci}
            if state not in states:
                states.append(state)
    return ";".join(parts)
