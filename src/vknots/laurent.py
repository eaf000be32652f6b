"""Exact multivariate Laurent polynomials over the integers.

Coefficients are Python ints (arbitrary precision), exponents may be
negative.  A polynomial carries its ordered variable list; mixing variable
lists is an error.  Values are immutable and hashable.

JSON form: ``{"vars": [...], "terms": [{"coef": c, "exp": [...]}, ...]}``
with terms in canonical order (exponent vectors descending
lexicographically), which is also the rendering order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .errors import PreconditionError

__all__ = ["LaurentPoly", "zero", "one", "monomial", "var", "render_sum"]


@dataclass(frozen=True)
class LaurentPoly:
    variables: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], int], ...]  # ((exps, coef), ...) canonical

    def __post_init__(self):
        for exps, coef in self.terms:
            if len(exps) != len(self.variables):
                raise PreconditionError("exponent vector length != variable count")
            if coef == 0:
                raise PreconditionError("zero coefficient stored")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_dict(variables: tuple[str, ...], d: Mapping[tuple[int, ...], int]) -> "LaurentPoly":
        cleaned = {tuple(e): c for e, c in d.items() if c != 0}
        ordered = tuple(sorted(cleaned.items(), key=lambda t: t[0], reverse=True))
        return LaurentPoly(tuple(variables), ordered)

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    # -- ring operations ------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.variables != other.variables:
            raise PreconditionError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        acc = self.as_dict()
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly.from_dict(self.variables, acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.variables, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly.from_dict(
                self.variables, {e: c * other for e, c in self.terms}
            )
        self._check(other)
        acc: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(self.variables, acc)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    # -- substitution ----------------------------------------------------

    def substitute(self, bindings: Mapping[str, Union[int, str]]) -> "LaurentPoly":
        """Bind variables to nonzero integers or rename them.

        Integer-bound variables are evaluated exactly; renamed variables
        merge if the new name collides with an existing one.  The result is
        over the remaining variable list in original order.
        """
        for v in bindings:
            if v not in self.variables:
                raise PreconditionError(f"unknown variable {v!r}")
        int_binds = {v: b for v, b in bindings.items() if isinstance(b, int)}
        renames = {v: b for v, b in bindings.items() if isinstance(b, str)}

        new_vars: list[str] = []
        for v in self.variables:
            name = renames.get(v, v)
            if v in int_binds:
                continue
            if name not in new_vars:
                new_vars.append(name)

        acc: dict[tuple[int, ...], int] = {}
        for exps, coef in self.terms:
            c = coef
            pos = {name: 0 for name in new_vars}
            for v, e in zip(self.variables, exps):
                if v in int_binds:
                    base = int_binds[v]
                    if e < 0 and base not in (1, -1):
                        raise PreconditionError(
                            f"binding {v!r}={base} with negative exponent "
                            "leaves the integers"
                        )
                    c *= base ** abs(e) if base in (1, -1) else base ** e
                else:
                    pos[renames.get(v, v)] += e
            if c == 0:
                continue
            key = tuple(pos[name] for name in new_vars)
            acc[key] = acc.get(key, 0) + c
        return LaurentPoly.from_dict(tuple(new_vars), acc)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Deterministic text, terms in canonical (descending lex) order."""
        return render_sum(
            (coef, "".join((name if e == 1 else f"{name}^{e}")
                           for name, e in zip(self.variables, exps) if e != 0))
            for exps, coef in self.terms
        )

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.variables),
            "terms": [{"coef": c, "exp": list(e)} for e, c in self.terms],
        }

    def __str__(self) -> str:
        return self.render()


def render_sum(terms: Iterable[tuple[int, str]]) -> str:
    """Text of a signed sum of ``(coefficient, text)`` terms: ``-x`` or
    ``x`` first, then ``+ x`` or ``- x``, where x is the magnitude then the
    text, the magnitude left out when it is 1; a term with empty text is its
    bare coefficient, and the empty sum is ``0``."""
    parts = []
    for coef, text in terms:
        mag = abs(coef)
        body = text if mag == 1 and text else f"{mag}{text}"
        if not parts:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts) or "0"


def zero(variables: Iterable[str]) -> LaurentPoly:
    return LaurentPoly(tuple(variables), ())


def one(variables: Iterable[str]) -> LaurentPoly:
    vs = tuple(variables)
    return monomial(1, (0,) * len(vs), vs)


def monomial(coef: int, exps: Iterable[int], variables: Iterable[str]) -> LaurentPoly:
    vs = tuple(variables)
    es = tuple(exps)
    if len(es) != len(vs):
        raise PreconditionError("exponent vector length != variable count")
    if coef == 0:
        return zero(vs)
    return LaurentPoly(vs, ((es, coef),))


def var(name: str, variables: Iterable[str], power: int = 1) -> LaurentPoly:
    vs = tuple(variables)
    if name not in vs:
        raise PreconditionError(f"unknown variable {name!r}")
    return monomial(1, tuple(power if v == name else 0 for v in vs), vs)
