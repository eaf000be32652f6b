"""The canonical flat key against an independent brute-force oracle, and its
invariance on multi-component links."""

import itertools
import math
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from vknots import Diagram, Passage, crossing_change, flat_key, parse
from vknots.smoothing import smooth2

from conftest import random_chord_diagram


def _flat_text(components, rotations) -> str:
    """The flat text of one choice of per-component rotations."""
    relabel: dict[int, int] = {}
    out = []
    for comp, rot in zip(components, rotations):
        toks = []
        n = len(comp)
        for k in range(n):
            p = comp[(rot + k) % n]
            if p.crossing not in relabel:
                relabel[p.crossing] = len(relabel) + 1
                flat_sign = p.sign if p.over else -p.sign
                toks.append(f"{relabel[p.crossing]}{'+' if flat_sign > 0 else '-'}")
            else:
                toks.append(f"{relabel[p.crossing]}'")
        out.append(".".join(toks) if toks else "0")
    return ";".join(out)


def oracle_text(d: Diagram) -> str:
    """Least flat text over the whole product of per-component rotations."""
    sizes = [range(max(len(c), 1)) for c in d.components]
    return min(_flat_text(d.components, rots) for rots in itertools.product(*sizes))


def symmetric_block(rng: random.Random, k: int, m: int, split: bool,
                    first_id: int) -> list[tuple]:
    """k copies of a word of m passages (m even), copy j+1 the image of copy
    j under one relabeling: one k-fold rotationally symmetric component, or,
    with ``split``, k components that are equal up to relabeling."""
    slots = list(range(m))
    rng.shuffle(slots)
    words = [[None] * m for _ in range(k)]
    for pair in range(m // 2):
        a, b = slots[2 * pair], slots[2 * pair + 1]
        shift = rng.randrange(k)
        sign = rng.choice((1, -1))
        first, second = rng.choice(("OU", "UO"))
        for j in range(k):
            cid = first_id + pair * k + j
            words[j][a] = Passage(cid, first, sign)
            words[(j + shift) % k][b] = Passage(cid, second, sign)
    if split:
        return [tuple(w) for w in words]
    return [tuple(p for w in words for p in w)]


def mixed_diagram(seed: int, word_sizes=(2, 4)) -> Diagram:
    """A symmetric block of words of one of ``word_sizes`` passages, a
    random component and maybe an empty one, in a random order: at most
    five components."""
    rng = random.Random(seed)
    k, m = rng.randint(2, 3), rng.choice(word_sizes)
    comps = symmetric_block(rng, k, m, rng.random() < 0.5, first_id=1)
    used = k * m // 2
    (extra,) = random_chord_diagram(rng, rng.randint(0, 3), 1).components
    comps.append(tuple(Passage(p.crossing + used, p.strand, p.sign) for p in extra))
    comps += [()] * rng.randint(0, 1)
    rng.shuffle(comps)
    return Diagram(tuple(comps))


def with_type2_smoothings(d: Diagram) -> list[Diagram]:
    return [d] + [smooth2(d, c) for c in d.crossing_ids() if d.is_self_crossing(c)]


def oracle_sized(diagrams: list[Diagram]) -> list[Diagram]:
    """The diagrams whose rotation product is small enough for the oracle."""
    return [x for x in diagrams
            if math.prod(max(len(c), 1) for c in x.components) <= 5000]


def test_oracle_on_fixed_codes():
    for code, text in [
        ("0", "0"),
        ("0;0;0", "0;0;0"),
        ("O1-;U1-", "1-;1'"),
        ("O1+U2+;O2+U1+", "1+.2-;1'.2'"),
        ("O1+O2+U1+U2+", "1+.2+.1'.2'"),
        ("O1+U1+O2+U2+;O3+U3+O4+U4+", "1+.1'.2+.2';3+.3'.4+.4'"),
    ]:
        d = parse(code)
        assert oracle_text(d) == text
        assert flat_key(d) == text


def test_oracle_on_fixed_code_past_label_9():
    # Decimal text order puts 10 and 11 before 2: ordering the labels as
    # numbers would end the key "...;1'.2'.11+...".
    d = parse("O7+U8-;O2-U2-U5-O3+U12+U9-O5-U10-O10-O12+U4+O6+;"
              "O4+U6+U11+O8-U7+O11+O9-U3+")
    text = ("1+.2+;3+.3'.4+.5-.6+.7-.7'.8+.9+.4'.10+.8';"
            "1'.11+.10'.9'.5'.6'.11'.2'")
    assert oracle_text(d) == text
    assert flat_key(d) == text


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 7), st.integers(1, 5))
def test_key_text_equals_oracle_on_random_diagrams(seed, n_chords, n_components):
    d = random_chord_diagram(random.Random(seed), n_chords, n_components)
    for x in with_type2_smoothings(d):
        assert flat_key(x) == oracle_text(x)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_key_text_equals_oracle_on_symmetric_diagrams(seed):
    d = mixed_diagram(seed)
    for x in with_type2_smoothings(d):
        assert flat_key(x) == oracle_text(x)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(9, 13), st.integers(1, 3))
def test_key_text_equals_oracle_past_label_9(seed, n_chords, n_components):
    # With 10 or more crossings, decimal text order (10 < 2) and number
    # order of the labels differ.
    d = random_chord_diagram(random.Random(seed), n_chords, n_components)
    for x in oracle_sized(with_type2_smoothings(d)):
        assert flat_key(x) == oracle_text(x)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_key_text_equals_oracle_on_symmetric_diagrams_past_label_9(seed):
    d = mixed_diagram(seed, word_sizes=(6, 8))
    for x in oracle_sized(with_type2_smoothings(d)):
        assert flat_key(x) == oracle_text(x)


def tied_link(seed: int) -> Diagram:
    """A link of 3-4 components whose first component ties in every
    rotation: it meets each of 10-12 crossings once, with flat mark ``+``
    (over and positive, or under and negative), so every rotation reads
    ``1+.2+...`` and leaves its own labels for the later components, which
    hold the other passages, shuffled, and one self-crossing each."""
    rng = random.Random(seed)
    n, rest = rng.randint(10, 12), rng.randint(2, 3)
    first, others = [], []
    for cid in range(1, n + 1):
        strand, sign = rng.choice((("O", 1), ("U", -1)))
        first.append(Passage(cid, strand, sign))
        others.append(Passage(cid, "U" if strand == "O" else "O", sign))
    rng.shuffle(others)
    comps = [tuple(first)]
    cuts = sorted(rng.sample(range(1, n), rest - 1))
    for k, (a, b) in enumerate(zip([0] + cuts, cuts + [n])):
        cid, sign = n + 1 + k, rng.choice((1, -1))
        comp = others[a:b] + [Passage(cid, "O", sign), Passage(cid, "U", sign)]
        rng.shuffle(comp)
        comps.append(tuple(comp))
    return Diagram(tuple(comps))


@pytest.mark.parametrize("seed", range(12))
def test_key_text_equals_oracle_on_tied_links_past_label_9(seed):
    """Every rotation of the first component ties, so each later component
    starts from as many states as that component has passages, with labels
    past 9, where decimal text order (10 < 2) and number order differ."""
    d = tied_link(seed)
    assert 3 <= d.n_components <= 4 and d.n_crossings >= 10 and oracle_sized([d]) == [d]
    first = d.components[0]
    assert len({_flat_text([first[r:] + first[:r]], [0]) for r in range(len(first))}) == 1
    for x in oracle_sized(with_type2_smoothings(d)):
        assert flat_key(x) == oracle_text(x)


def test_symmetric_block_is_symmetric():
    # Rotating the symmetric component by one copy, or moving the first of
    # the split components to the end, gives the same code up to relabeling.
    for k, m, seed in itertools.product((2, 3), (2, 4), range(10)):
        whole = symmetric_block(random.Random(seed), k, m, False, 1)
        split = symmetric_block(random.Random(seed), k, m, True, 1)
        assert _numbered([whole[0][m:] + whole[0][:m]]) == _numbered(whole)
        assert _numbered(split[1:] + split[:1]) == _numbered(split)


def _numbered(comps):
    """The code with crossings numbered in order of first visit."""
    order: dict[int, int] = {}
    return tuple(
        tuple((order.setdefault(p.crossing, len(order)), p.strand, p.sign)
              for p in comp)
        for comp in comps
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(2, 4))
def test_key_invariant_on_links(seed, n_chords, n_components):
    """Rotating components, relabeling crossings and changing crossings
    leave the key of a multi-component link unchanged."""
    rng = random.Random(seed)
    d = random_chord_diagram(rng, n_chords, n_components)
    key = flat_key(d)
    ids = d.crossing_ids()
    new_ids = dict(zip(ids, rng.sample(range(1, 1000), len(ids))))
    comps = []
    for comp in d.components:
        r = rng.randrange(max(len(comp), 1))
        comps.append(tuple(Passage(new_ids[p.crossing], p.strand, p.sign)
                           for p in comp[r:] + comp[:r]))
    moved = Diagram(tuple(comps))
    for cid in rng.sample(sorted(new_ids.values()), rng.randint(0, len(ids))):
        moved = crossing_change(moved, cid)
    assert flat_key(moved) == key
