"""Named diagram catalogs.

The built-in catalog ships the fixtures the golden tests pin down (the
virtual trefoil, virtual Hopf link, knot 4.31 with its crossings numbered
as alpha..delta, the Kishino knot, the VK family, and friends).  User
catalogs use the same one-entry-per-line format::

    name <TAB> gauss-code [<TAB> comma,separated,tags]

with '#' starting a comment line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from types import MappingProxyType

from .diagram import Diagram, parse
from .errors import GaussCodeError, ValidationError

__all__ = ["CatalogEntry", "load_catalog", "builtin_catalog", "lookup"]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    code: str
    tags: tuple[str, ...] = ()
    _diagram: Diagram = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_diagram", parse(self.code))

    def diagram(self) -> Diagram:
        return self._diagram


def parse_catalog(text: str, source: str = "<catalog>") -> list[CatalogEntry]:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise GaussCodeError(f"{source}:{lineno}: expected name<TAB>code")
        name, code = parts[0].strip(), parts[1].strip()
        tags = tuple(t.strip() for t in parts[2].split(",")) if len(parts) > 2 else ()
        try:
            entries.append(CatalogEntry(name, code, tags))
        except (GaussCodeError, ValidationError) as exc:  # name the line, as above
            exc.args = (f"{source}:{lineno}: {exc}",)
            raise
    return entries


def load_catalog(path: str) -> list[CatalogEntry]:
    with open(path, encoding="utf-8") as fh:
        return parse_catalog(fh.read(), source=path)


@lru_cache(maxsize=1)
def builtin_catalog() -> MappingProxyType[str, CatalogEntry]:
    text = resources.files("vknots.data").joinpath("catalog.tsv").read_text("utf-8")
    entries = parse_catalog(text, source="builtin catalog")
    return MappingProxyType({e.name: e for e in entries})


def lookup(name: str) -> CatalogEntry | None:
    return builtin_catalog().get(name)
