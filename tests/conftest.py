"""Shared fixtures: named diagrams and seeded random corpora."""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

import vknots
from vknots import Diagram, Passage, builtin_catalog, parse
from vknots.moves import random_walk


def named(name: str) -> Diagram:
    return builtin_catalog()[name].diagram()


@pytest.fixture(scope="session")
def unknot():
    return parse("0")


@pytest.fixture(scope="session")
def vtref():
    return named("VTREF")


@pytest.fixture(scope="session")
def hopf():
    return named("HOPF")


@pytest.fixture(scope="session")
def k431():
    return named("K431")


@pytest.fixture(scope="session")
def kprime():
    return named("KPRIME")


@pytest.fixture(scope="session")
def kishino():
    return named("KISHINO")


def oracle_sublink(d: Diagram, keep: tuple[int, ...]) -> Diagram:
    """The components in ``keep`` (0-based, in order) with every crossing
    that touches another component dropped, found by its own crossing scan."""
    kept = set(keep)
    dropped = {c for c in d.crossing_ids() if not set(d.components_of(c)) <= kept}
    return Diagram(tuple(
        tuple(p for p in d.components[ci] if p.crossing not in dropped)
        for ci in keep
    ))


def random_chord_diagram(rng: random.Random, n_chords: int,
                         n_components: int = 1) -> Diagram:
    """Uniform-ish random signed Gauss diagram; passages spread over the
    requested number of components (some may stay empty)."""
    slots = []
    for cid in range(1, n_chords + 1):
        sign = rng.choice((1, -1))
        slots.append(Passage(cid, "O", sign))
        slots.append(Passage(cid, "U", sign))
    rng.shuffle(slots)
    cuts = sorted(rng.randrange(len(slots) + 1) for _ in range(n_components - 1))
    comps, prev = [], 0
    for cut in cuts:
        comps.append(tuple(slots[prev:cut]))
        prev = cut
    comps.append(tuple(slots[prev:]))
    return Diagram(tuple(comps))


def random_knot(seed: int, max_chords: int = 6) -> Diagram:
    rng = random.Random(seed)
    return random_chord_diagram(rng, rng.randint(1, max_chords), 1)


def random_link2(seed: int, max_chords: int = 6) -> Diagram:
    rng = random.Random(seed)
    return random_chord_diagram(rng, rng.randint(1, max_chords), 2)


def walk_corpus(base: Diagram, n: int, steps: int = 12,
                max_crossings: int = 8, seed0: int = 0) -> list[Diagram]:
    return [random_walk(base, steps, seed0 + s, max_crossings) for s in range(n)]


def src_env() -> dict:
    """The environment of a subprocess that imports this checkout's vknots."""
    src = str(Path(vknots.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
