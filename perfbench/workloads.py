"""Seeded inputs and correctness oracles of the four benchmark workloads.

Every workload is a list of items; one item is one ``vknots.cli.main(argv)``
call.  A run is a sequence of sessions (fresh interpreters), and session
``j`` of seed ``s`` always gets the same items, drawn from
``random.Random("<workload>:<s>:<j>")``.  Sizes cycle through shuffled decks
so that every session has the same mix of sizes and kinds: the seed changes
the Gauss codes, not the shape of the workload.

The oracles here never call vknots: they recompute what they need from the
Gauss code with the benchmark's own parser, or compare against the
published values in ``expected/golden.json``.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("batch-poly", "batch-bsum", "walk-verify", "distinguish-deep")

# Items per session.  Each session takes a few seconds at the baseline, so
# a run holds several sessions (and therefore several set-ups).
SESSION_ITEMS = {
    "batch-poly": 80,
    "batch-bsum": 96,
    "walk-verify": 24,
    "distinguish-deep": 24,
}

KNOT_BATTERY = "aip,djn(1),djn(2),djn(3),fpoly(1),djnm(1,1),fnmk(1,1,1),ftilde(1,1,0)"
LINK_BATTERY = "lk,span,spannk(1,0),fspannk(1,0),fspannk(1,1)"
# VK3/VK4 also carry the published three-variable span polynomials.
TABLE2_SPECS = ",ftilde(2,2,0),ftilde(2,2,2)"
POLY_FIXTURES = ("K431", "KPRIME", "VK1", "VK2", "VK3", "VK4", "HOPF")

WALK_STEPS = 30
WALK_KNOT_INV = "aip,djn(1),djn(2)"
WALK_LINK_INV = "lk,span"

DISTINCT_PAIRS = (("KISHINO", "UNKNOT"), ("VTREF", "UNKNOT"), ("HOPF", "UNLINK2"))
PAIR_WALK_STEPS = 6
PAIR_WALK_MAX_CROSSINGS = 5
# The walk goes on one step at a time (at most PAIR_WALK_EXTRA_STEPS more)
# until the walked copy has this many crossings, so every session has about
# the same mix of pair sizes: cost grows steeply with the walked copy's size.
PAIR_WALK_CROSSINGS = 3
PAIR_WALK_EXTRA_STEPS = 30


@dataclass(frozen=True)
class Item:
    """One CLI call.  ``argv`` holds ``{catalog}`` where the path of a
    one-entry catalog file (with text ``catalog``) goes."""

    key: str
    argv: tuple[str, ...]
    catalog: str | None
    kind: str  # which oracle applies
    code: str | None = None  # Gauss code the identity oracles read
    name: str | None = None  # catalog fixture name, for golden values


# -- Gauss codes ---------------------------------------------------------

_PASSAGE = re.compile(r"([OU])(\d+)([+-])")


def random_code(rng: random.Random, n_crossings: int, n_components: int,
                balanced: bool = False) -> str:
    """Random signed Gauss code: shuffled passages cut into components.

    With ``balanced`` the components get about equal numbers of passages
    (within two of an equal share), since the cost of the brute-force flat
    key grows with the product of the component lengths."""
    slots = []
    for cid in range(1, n_crossings + 1):
        sign = rng.choice("+-")
        slots += [f"O{cid}{sign}", f"U{cid}{sign}"]
    rng.shuffle(slots)
    if balanced:
        share = len(slots) / n_components
        cuts = sorted(min(max(round(k * share) + rng.randint(-2, 2), 0), len(slots))
                      for k in range(1, n_components))
    else:
        cuts = sorted(rng.randrange(len(slots) + 1) for _ in range(n_components - 1))
    comps, prev = [], 0
    for cut in cuts + [len(slots)]:
        comps.append("".join(slots[prev:cut]) or "0")
        prev = cut
    return ";".join(comps)


def parse_code(text: str) -> list[list[tuple[int, str, int]]]:
    """Components as lists of ``(crossing, "O"|"U", sign)``."""
    comps = []
    for chunk in "".join(text.split()).split(";"):
        comps.append([] if chunk == "0" else [
            (int(c), s, 1 if g == "+" else -1) for s, c, g in _PASSAGE.findall(chunk)
        ])
    return comps


def crossing_table(text: str) -> dict[int, tuple[int, int, int]]:
    """crossing -> (over component, under component, sign), 0-based."""
    over, under, sign = {}, {}, {}
    for ci, comp in enumerate(parse_code(text)):
        for cid, strand, s in comp:
            (over if strand == "O" else under)[cid] = ci
            sign[cid] = s
    return {c: (over[c], under[c], sign[c]) for c in sign}


def _deck(rng: random.Random, values):
    """Endless stream cycling through shuffled copies of ``values``."""
    while True:
        cards = list(values)
        rng.shuffle(cards)
        yield from cards


# -- item generation -----------------------------------------------------


def _builtin_codes() -> dict[str, str]:
    out = {}
    path = os.path.join(HERE, "..", "src", "vknots", "data", "catalog.tsv")
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                name, code = line.split("\t")[:2]
                out[name] = code.strip()
    return out


def _batch_item(name: str, code: str, inv: str, kind: str) -> Item:
    line = f"{name}\t{code}"
    return Item(f"batch --json --inv {inv} :: {line}",
                ("batch", "--json", "--inv", inv, "{catalog}"),
                line, kind, code, name)


def _batch_poly(rng: random.Random, n: int) -> list[Item]:
    fixtures = _builtin_codes()
    knot_sizes, link_sizes = _deck(rng, range(12, 29)), _deck(rng, range(12, 29))
    items, fx = [], list(POLY_FIXTURES)
    step = n // len(POLY_FIXTURES)
    for i in range(n):
        if i % step == step - 1 and fx:
            name = fx.pop(0)
            if name == "HOPF":
                inv = LINK_BATTERY
            else:
                inv = KNOT_BATTERY + (TABLE2_SPECS if name in ("VK3", "VK4") else "")
            items.append(_batch_item(name, fixtures[name], inv, "poly"))
        elif i % 4 == 3:
            code = random_code(rng, next(link_sizes), 2)
            items.append(_batch_item(f"r{i}", code, LINK_BATTERY, "poly"))
        else:
            code = random_code(rng, next(knot_sizes), 1)
            items.append(_batch_item(f"r{i}", code, KNOT_BATTERY, "poly"))
    return items


def _batch_bsum(rng: random.Random, n: int) -> list[Item]:
    sizes = _deck(rng, range(8, 15))
    items = []
    for i in range(n):
        ncomp = 1 + i % 3
        code = random_code(rng, next(sizes), ncomp, balanced=True)
        inv = ",".join(f"bsum({c}),bflat({c})" for c in range(1, ncomp + 1))
        items.append(_batch_item(f"r{i}", code, inv, "bsum"))
    return items


def _walk_verify(rng: random.Random, n: int) -> list[Item]:
    chords = _deck(rng, range(1, 5))
    items = []
    for i in range(n):
        link = i % 4 == 3
        code = random_code(rng, next(chords), 2 if link else 1)
        inv = WALK_LINK_INV if link else WALK_KNOT_INV
        argv = ("verify", "--seed", str(rng.randrange(2**31)),
                "--steps", str(WALK_STEPS), "--inv", inv, code)
        items.append(Item(" ".join(argv), argv, None, "walk", code))
    return items


def _distinguish_deep(rng: random.Random, n: int, vk) -> list[Item]:
    """Pairs (d, walked copy of d), plus the three fixed DISTINCT pairs.

    ``vk`` is the imported vknots package: the walked copies come from the
    program's own seeded ``random_walk``, so they are part of set-up."""
    items, fixed = [], list(DISTINCT_PAIRS)
    step = n // len(DISTINCT_PAIRS)
    for i in range(n):
        if i % step == step - 1 and fixed:
            a, b = fixed.pop(0)
            argv = ("distinguish", a, b)
            items.append(Item(" ".join(argv), argv, None, "distinct", name=a))
            continue
        ncomp = 1 + i % 3
        code = random_code(rng, 1 + (i // 3) % 2, ncomp, balanced=True)
        d = vk.parse(code)
        walked = vk.random_walk(d, PAIR_WALK_STEPS, rng.randrange(2**31),
                                PAIR_WALK_MAX_CROSSINGS)
        for _ in range(PAIR_WALK_EXTRA_STEPS):
            if walked.n_crossings == PAIR_WALK_CROSSINGS:
                break
            walked = vk.random_walk(walked, 1, rng.randrange(2**31),
                                    PAIR_WALK_MAX_CROSSINGS)
        argv = ("distinguish", code, vk.serialize(walked))
        items.append(Item(" ".join(argv), argv, None, "same", code))
    return items


def session_items(workload: str, seed: int, session: int, vk=None) -> list[Item]:
    rng = random.Random(f"{workload}:{seed}:{session}")
    n = SESSION_ITEMS[workload]
    if workload == "batch-poly":
        return _batch_poly(rng, n)
    if workload == "batch-bsum":
        return _batch_bsum(rng, n)
    if workload == "walk-verify":
        return _walk_verify(rng, n)
    if workload == "distinguish-deep":
        return _distinguish_deep(rng, n, vk)
    raise KeyError(workload)


# -- oracles -------------------------------------------------------------


def load_expected(name: str) -> dict:
    path = os.path.join(HERE, "expected", name)
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _poly_terms(value) -> dict[tuple[int, ...], int]:
    return {tuple(t["exp"]): t["coef"] for t in value["terms"]}


def _coef_sum(value) -> int:
    return sum(t["coef"] for t in value["terms"])


def _same_poly(got, want) -> bool:
    return (got["vars"] == want["vars"]
            and _poly_terms(got) == {tuple(e): c for e, c in want["terms"]})


def knot_row_identities(row: dict) -> list[str]:
    """Identities every knot row of the poly battery satisfies."""
    bad = []
    aip = row.get("aip")
    if aip is not None:
        if _coef_sum(aip) != 0:
            bad.append("aip(1) != 0")
        coef = _poly_terms(aip)
        for label, value in row.items():
            m = re.fullmatch(r"djn\((\d+)\)", label)
            if m:
                n = int(m.group(1))
                if value != coef.get((n,), 0) - coef.get((-n,), 0):
                    bad.append(f"{label} != [t^{n}]aip - [t^-{n}]aip")
    for label, value in row.items():
        if label.startswith(("fpoly(", "fnmk(", "ftilde(")) and _coef_sum(value) != 0:
            bad.append(f"{label} at all-ones != 0")
    return bad


def link_row_identities(row: dict, code: str) -> list[str]:
    """lk from the Gauss code's inter-component crossings, span = over -
    under, and fspannk(n,0) = 2 spannk(n,0)."""
    bad = []
    over = under = 0
    for oc, uc, s in crossing_table(code).values():
        if oc != uc:
            if oc == 0:
                over += s
            else:
                under += s
    lk = row.get("lk")
    if lk is not None and (lk["over"], lk["under"], lk["span"]) != (over, under, over - under):
        bad.append(f"lk != ({over}, {under})")
    if "span" in row and row["span"] != over - under:
        bad.append("span != over - under")
    for label, value in row.items():
        m = re.fullmatch(r"fspannk\((\d+),0\)", label)
        if m and f"spannk({m.group(1)},0)" in row:
            if value != 2 * row[f"spannk({m.group(1)},0)"]:
                bad.append(f"{label} != 2 spannk({m.group(1)},0)")
    return bad


def bsum_row_identities(row: dict, code: str) -> list[str]:
    """bsum(i) totals the signed self-crossings of component i; bflat(i)
    totals 0."""
    bad = []
    table = crossing_table(code)
    for label, value in row.items():
        m = re.fullmatch(r"(bsum|bflat)\((\d+)\)", label)
        if not m:
            continue
        total = sum(t["coef"] for t in value["terms"])
        ci = int(m.group(2)) - 1
        want = 0 if m.group(1) == "bflat" else sum(
            s for oc, uc, s in table.values() if oc == uc == ci
        )
        if total != want:
            bad.append(f"{label} coefficients total {total}, expected {want}")
    return bad


def golden_row(row: dict, golden: dict) -> list[str]:
    bad = []
    for label, want in golden.items():
        got = row.get(label)
        if isinstance(want, dict) and "terms" in want:
            ok = got is not None and _same_poly(got, want)
        else:
            ok = got == want
        if not ok:
            bad.append(f"{label} differs from the published value")
    return bad


def check_item(item: Item, exit_code, stdout: str, golden: dict) -> str | None:
    """Failure reason, or None when the item's output is correct."""
    if item.kind in ("poly", "bsum"):
        if exit_code != 0:
            return f"exit code {exit_code}"
        try:
            (row,) = json.loads(stdout)
        except ValueError:
            return "output is not one JSON row"
        if item.kind == "bsum":
            bad = bsum_row_identities(row, item.code)
        elif "lk" in row:
            bad = link_row_identities(row, item.code)
        else:
            bad = knot_row_identities(row)
        bad += golden_row(row, golden.get("batch", {}).get(item.name, {}))
        return "; ".join(bad) or None
    if item.kind == "walk":
        lines = stdout.splitlines()
        if exit_code != 0 or not lines or lines[-1] != "RESULT PASS":
            return f"walk did not pass (exit {exit_code})"
        return None
    if item.kind == "same":
        if stdout.startswith("DISTINCT") or exit_code != 1:
            return f"walked pair reported {stdout.strip()!r} (exit {exit_code})"
        return None
    if item.kind == "distinct":
        prefix = golden.get("distinguish", {}).get(item.name, "DISTINCT")
        if exit_code != 0 or not stdout.startswith(prefix):
            return f"fixed pair not {prefix!r} (exit {exit_code})"
        return None
    raise KeyError(item.kind)
