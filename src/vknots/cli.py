"""Command line front end.

Subcommands: parse, invariant, smooth, move, verify, distinguish, batch.
Inputs may be a literal Gauss code, a name from the built-in catalog, or a
path to a file holding a code.  Exit codes: 0 success (PASS/DISTINCT),
1 verification failure or inconclusive comparison, 2 malformed input,
3 precondition violation.

Invariant sets are comma-separated names with optional parameters, e.g.
``aip,djn(2),fnmk(1,1,1)``; a bare parametric name takes its parameters
from --n/--m/--k/--i.  ``all`` expands to a default battery suited to the
input's component count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import invariants as inv
from . import memo
from .catalog import load_catalog, lookup
from .diagram import Diagram, parse, serialize
from .errors import (
    GaussCodeError,
    InconsistentLabelingError,
    PreconditionError,
    ValidationError,
)
from .laurent import LaurentPoly
from .moves import KINDS, MoveSites, apply_move, enumerate_moves, walk


def _resolve(text: str) -> Diagram:
    entry = lookup(text)
    if entry is not None:
        return entry.diagram()
    if os.path.isfile(text):
        try:
            with open(text, encoding="utf-8") as fh:
                lines = [
                    ln.strip() for ln in fh
                    if ln.strip() and not ln.lstrip().startswith("#")
                ]
        except (OSError, UnicodeDecodeError) as exc:
            raise GaussCodeError(f"cannot read input file: {exc}") from None
        return parse("".join(lines))
    return parse(text)


def _parse_inv_spec(token: str, args) -> tuple[str, dict]:
    token = token.strip()
    name, paren, rest = token.partition("(")
    values = None
    if paren:
        if not rest.endswith(")"):
            raise PreconditionError(f"malformed invariant spec {token!r}")
        inner = rest[:-1]
        try:
            values = [int(v) for v in inner.split(",")] if inner else []
        except ValueError:
            raise PreconditionError(
                f"parameters of {token!r} must be integers"
            ) from None
    spec = inv.REGISTRY.get(name)
    if spec is None:
        raise PreconditionError(f"unknown invariant {name!r}")
    if values is None:
        values = [getattr(args, p) for p in spec.params]
    elif len(values) != len(spec.params):
        raise PreconditionError(
            f"invariant {name!r} takes {len(spec.params)} parameter(s)"
        )
    return name, dict(zip(spec.params, values))


def _default_battery(d: Diagram, window: int) -> list[tuple[str, dict]]:
    out: list[tuple[str, dict]] = []
    if d.n_components == 1:
        out.append(("aip", {}))
        for n in range(1, window + 1):
            out.append(("djn", {"n": n}))
        out.append(("fpoly", {"n": 1}))
        out.append(("djnm", {"n": 1, "m": 1}))
        out.append(("fnmk", {"n": 1, "m": 1, "k": 1}))
        out.append(("ftilde", {"n": 1, "k": 1, "m": 0}))
    elif d.n_components == 2:
        out.append(("lk", {}))
        out.append(("span", {}))
        for n in range(1, window + 1):
            out.append(("spannk", {"n": n, "k": 0}))
            out.append(("fspannk", {"n": n, "k": 0}))
        out.append(("fspannk", {"n": 1, "k": 1}))
    for i in range(1, d.n_components + 1):
        out.append(("bsum", {"i": i}))
        out.append(("bflat", {"i": i}))
    return out


def _split_specs(arg: str) -> list[str]:
    """Split on commas that sit outside parentheses."""
    out, depth, cur = [], 0, []
    for ch in arg:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def _inv_list(arg: str, d: Diagram, args) -> list[tuple[str, dict]]:
    if arg == "all":
        return _default_battery(d, args.window)
    return [_parse_inv_spec(tok, args) for tok in _split_specs(arg)]


def _fmt_spec(name: str, params: dict) -> str:
    spec = inv.REGISTRY[name]
    if not spec.params:
        return name
    return f"{name}({','.join(str(params[p]) for p in spec.params)})"


def _render_value(value, as_json: bool, text=None):
    """``value`` as text, or as JSON data; ``text`` writes a diagram
    (``serialize`` by default)."""
    text = text or serialize
    if isinstance(value, LaurentPoly):
        return value.to_json_dict() if as_json else value.render()
    if isinstance(value, inv.LinkingNumbers):
        if as_json:
            return {"over": value.over, "under": value.under, "span": value.span}
        return f"over={value.over} under={value.under} span={value.span}"
    if isinstance(value, inv.FlatSum):
        if as_json:
            return {"terms": [
                {"coef": c, "diagram": text(rep)} for _, c, rep in value.terms
            ]}
        return value.render(text)
    return value if as_json else str(value)


def _texts():
    """``serialize`` that writes each diagram object once: ``bsum(i)`` and
    ``bflat(i)`` of one batch row share most of their representatives."""
    seen: dict[int, tuple[Diagram, str]] = {}

    def text(d: Diagram) -> str:
        # The entry keeps d alive, so its id is not reused while it is kept.
        hit = seen.get(id(d))
        if hit is None:
            hit = seen[id(d)] = (d, serialize(d))
        return hit[1]

    return text


# -- subcommands --------------------------------------------------------


def cmd_parse(args) -> int:
    d = _resolve(args.input)
    if args.json:
        print(json.dumps({
            "code": serialize(d),
            "components": d.n_components,
            "crossings": d.n_crossings,
        }))
    else:
        print(serialize(d))
    return 0


def cmd_invariant(args) -> int:
    d = _resolve(args.input)
    name, params = _parse_inv_spec(args.inv, args)
    value = inv.compute_invariant(name, d, params)
    out = _render_value(value, args.json)
    print(json.dumps(out) if args.json else out)
    return 0


def cmd_smooth(args) -> int:
    from .smoothing import smooth1, smooth2, smooth3

    d = _resolve(args.input)
    fn = {1: smooth1, 2: smooth2, 3: smooth3}[args.type]
    print(serialize(fn(d, args.at)))
    return 0


def cmd_move(args) -> int:
    d = _resolve(args.input)
    kinds = KINDS if args.kinds is None else tuple(k.strip() for k in args.kinds.split(","))
    if args.apply is None:
        for i, m in enumerate(enumerate_moves(d, kinds)):
            variant = f" variant={m.variant}" if m.variant else ""
            print(f"{i}: {m.kind} at {m.location}{variant}")
        return 0
    sites = MoveSites(d, kinds)
    if not 0 <= args.apply < len(sites):
        raise PreconditionError(
            f"move index {args.apply} out of range (0..{len(sites) - 1})"
        )
    print(serialize(apply_move(d, sites[args.apply])))
    return 0


def cmd_verify(args) -> int:
    d = _resolve(args.input)
    todo = _inv_list(args.inv, d, args)
    steps = walk(d, args.steps, args.seed, args.max_crossings)
    baseline = [inv.comparable_invariant(name, d, params, args.depth, args.window)
                for name, params in todo]
    failures: dict[int, int] = {}  # index into todo -> first failing step
    step = 0
    for step, cur in enumerate(steps, start=1):
        for k, (name, params) in enumerate(todo):
            if k not in failures and baseline[k] != inv.comparable_invariant(
                    name, cur, params, args.depth, args.window):
                failures[k] = step
    if step < args.steps:
        print(f"walk stopped after {step} of {args.steps} steps: no move keeps the "
              f"diagram within --max-crossings {args.max_crossings}", file=sys.stderr)
    print(f"verify steps={args.steps} seed={args.seed} "
          f"max-crossings={args.max_crossings}")
    for k, (name, params) in enumerate(todo):
        label = _fmt_spec(name, params)
        if k in failures:
            print(f"FAIL {label} at step {failures[k]}")
        else:
            print(f"PASS {label}")
    verdict = "FAIL" if failures else "PASS"
    print(f"RESULT {verdict}")
    return 1 if failures else 0


def cmd_distinguish(args) -> int:
    da = _resolve(args.input_a)
    db = _resolve(args.input_b)
    if args.inv == "all" and da.n_components != db.n_components:
        print(f"DISTINCT via component count: "
              f"{da.n_components} != {db.n_components}")
        return 0
    todo = _inv_list(args.inv, da, args)
    # Skip an invariant that does not apply; if no listed one does, say why.
    skipped = []
    for name, params in todo:
        try:
            va = inv.comparable_invariant(name, da, params, args.depth, args.window)
            vb = inv.comparable_invariant(name, db, params, args.depth, args.window)
        except PreconditionError as exc:
            skipped.append(exc)
            continue
        if va != vb:
            label = _fmt_spec(name, params)
            ra = _render_value(inv.compute_invariant(name, da, params), False)
            rb = _render_value(inv.compute_invariant(name, db, params), False)
            print(f"DISTINCT via {label}: {ra}  !=  {rb}")
            return 0
    if args.inv != "all" and len(skipped) == len(todo):
        raise skipped[0]
    print("INCONCLUSIVE")
    return 1


def cmd_batch(args) -> int:
    try:
        entries = load_catalog(args.catalog)
    except (OSError, UnicodeDecodeError) as exc:
        raise GaussCodeError(f"cannot read catalog: {exc}") from None
    results = []
    for entry in entries:
        d = entry.diagram()
        row = {"name": entry.name}
        text = _texts()
        for name, params in _inv_list(args.inv, d, args):
            label = _fmt_spec(name, params)
            try:
                value = inv.compute_invariant(name, d, params)
            except PreconditionError:
                row[label] = None
                continue
            row[label] = _render_value(value, args.json, text)
        results.append(row)
        memo.clear()
    if args.json:
        print(json.dumps(results))
    else:
        for row in results:
            cells = [row["name"]]
            cells += [
                f"{k}={'-' if v is None else v}"
                for k, v in row.items() if k != "name"
            ]
            print("\t".join(cells))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vknots",
        description="Virtual knot and link invariants on Gauss codes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, json_out=False, params=False, window=False, depth=False):
        """Add the shared flags that the subcommand reads, and no others."""
        if json_out:
            p.add_argument("--json", action="store_true", help="JSON output")
        if params:
            for name in ("n", "m", "k", "i"):
                p.add_argument(f"--{name}", type=int, default=1)
        if window:
            p.add_argument("--window", type=int, default=inv.DEFAULT_WINDOW)
        if depth:
            p.add_argument("--depth", type=int, default=inv.DEFAULT_DEPTH)

    p = sub.add_parser("parse", help="validate and canonicalize a Gauss code")
    p.add_argument("input")
    common(p, json_out=True)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("invariant", help="compute one invariant")
    p.add_argument("--inv", required=True)
    p.add_argument("input")
    common(p, json_out=True, params=True)
    p.set_defaults(fn=cmd_invariant)

    p = sub.add_parser("smooth", help="apply a smoothing at a crossing")
    p.add_argument("--type", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--at", type=int, required=True, metavar="ID")
    p.add_argument("input")
    p.set_defaults(fn=cmd_smooth)

    p = sub.add_parser("move", help="list or apply Reidemeister move sites")
    p.add_argument("--list", action="store_true", help="list the sites (the default)")
    p.add_argument("--apply", type=int, default=None, metavar="INDEX")
    p.add_argument("--kinds", default=None,
                   help="comma list from: " + ",".join(KINDS))
    p.add_argument("input")
    p.set_defaults(fn=cmd_move)

    p = sub.add_parser("verify", help="random-walk invariance check")
    p.add_argument("--inv", default="all")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-crossings", type=int, default=12)
    p.add_argument("input")
    common(p, params=True, window=True, depth=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("distinguish", help="try to separate two diagrams")
    p.add_argument("--inv", default="all")
    p.add_argument("input_a")
    p.add_argument("input_b")
    common(p, params=True, window=True, depth=True)
    p.set_defaults(fn=cmd_distinguish)

    p = sub.add_parser("batch", help="evaluate invariants over a catalog file")
    p.add_argument("--inv", default="all")
    p.add_argument("catalog")
    common(p, json_out=True, params=True, window=True)
    p.set_defaults(fn=cmd_batch)

    return ap


# Built once: argparse gives every parse_args call a fresh namespace.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # moves.walk checks --steps and --max-crossings.
        for flag, floor in (("depth", 0), ("window", 1)):
            if getattr(args, flag, floor) < floor:
                raise PreconditionError(f"{flag} must be >= {floor}")
        return args.fn(args)
    except (GaussCodeError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, InconsistentLabelingError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout (``| head``): send what is still buffered to
        # devnull, so that the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a writer the pipe killed
    finally:
        memo.clear()


if __name__ == "__main__":
    sys.exit(main())
