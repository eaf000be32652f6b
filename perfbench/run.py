"""vknots benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run is a closed loop with one client:
sessions (fresh interpreters, see session.py) run one after another, each
setting up and then calling ``vknots.cli.main`` once per item, until
``--seconds`` have passed.  No item starts after that; the session running
then finishes its current item.

With ``--trace 0`` the run reports the end-to-end metrics, with times at
the reference host speed (hostspeed.py; the record keeps them as
measured too).  With
``--trace 1`` it runs each session twice, untraced and then traced on the
same items, and reports the per-layer metrics of the traced sessions and
``trace_overhead_ratio``, the traced item time over the untraced item time.

Stdout ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it print every metric (and ``fail_ratio``)
by name and unit.  A record of the run goes to ``perfbench/out/runs/``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import hostspeed
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SESSION = os.path.join(HERE, "session.py")
# A run ends at --seconds + GRACE at the latest (and within HARD_CAP); the
# session running then is killed and the run is recorded as "timeout".
GRACE_S = 90
HARD_CAP_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for name in tracing.span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [("diagram.flat_key.candidates", "count"),
            ("moves.enumerate_moves.sites", "count")]
    out += [(f"{name}.hit_ratio", "ratio") for name in tracing.HIT_RATIO_TARGETS]
    for module in tracing.MODULES:
        out += [(f"{module}.self_s", "s"), (f"{module}.share", "ratio")]
    out += [("traced_items", "count"), ("trace_overhead_ratio", "ratio")]
    return out


# -- statistics ------------------------------------------------------------


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    n = len(sorted_values)
    rank = max(1, -(-p * n // 100))  # ceil(p * n / 100)
    return sorted_values[int(rank) - 1]


def tail_percentile(n: int, candidates=(50, 75, 90, 95, 99, 99.9)) -> float | None:
    """Highest candidate percentile with at least 10 samples beyond it."""
    best = None
    for p in candidates:
        if n - -(-p * n // 100) >= 10:
            best = p
    return best


# -- sessions ----------------------------------------------------------------


class Session:
    def __init__(self, index: int, traced: bool):
        self.index, self.traced = index, traced
        self.setup: dict | None = None
        self.items: list[dict] = []
        self.checks: dict | None = None
        self.end: dict | None = None
        self.status = "ok"
        self.stderr = ""


def run_session(workload, seed, index, traced, deadline, hard_stop) -> Session:
    s = Session(index, traced)
    spawned = time.monotonic()
    cmd = [sys.executable, SESSION, workload, str(seed), str(index),
           repr(deadline), repr(spawned), "1" if traced else "0"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(hard_stop - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        s.status = "timeout"
    s.stderr = err
    for line in out.splitlines():
        try:
            event = json.loads(line)
        except ValueError:  # the last line of a killed session may be cut off
            continue
        kind = event.pop("t")
        if kind == "item":
            s.items.append(event)
        else:
            setattr(s, kind, event)
    if s.status == "ok" and (proc.returncode != 0 or s.end is None):
        s.status = "error"
    return s


def session_failures(s: Session) -> tuple[int, int, list]:
    """(attempted, failed, reasons) of one session."""
    if s.setup is None:
        return 0, 0, []
    attempted = len(s.items)
    reasons = [[s.index, i, why] for i, why in (s.checks or {}).get("fails", [])]
    if s.checks is None:  # stopped before its outputs were checked
        reasons += [[s.index, e["i"], f"unchecked ({s.status})"] for e in s.items]
    if s.status != "ok" and (s.end is None or not s.end["complete"]):
        attempted += 1  # the item in flight when the session stopped
        reasons.append([s.index, len(s.items), f"session {s.status}"])
    return attempted, len(reasons), reasons


# -- metrics -------------------------------------------------------------------


def end_to_end(sessions: list[Session]) -> tuple[dict, dict]:
    """End-to-end metrics, times at the reference host speed (hostspeed.py);
    ``info["raw"]`` holds the same figures as measured."""
    lat, raw_lat = [], []
    for s in sessions:
        refs = hostspeed.local_reference([e["ref_ms"] for e in s.items])
        for e, ref in zip(s.items, refs):
            lat.append(hostspeed.normalized(e["ms"], ref))
            raw_lat.append(e["ms"])
    lat.sort()
    raw_lat.sort()
    setups = [(s.setup["setup_s"], s.setup["ref_ms"]) for s in sessions if s.setup]
    complete = [s.end["rss_kb"] for s in sessions if s.end and s.end["complete"]]
    rss = complete or [s.end["rss_kb"] for s in sessions if s.end]

    def summary(latencies, setup_times):
        return {
            "setup_s": statistics.median(setup_times),
            "items_per_s": 1000.0 * len(latencies) / sum(latencies) if latencies else 0.0,
            "latency_p50_ms": statistics.median(latencies) if latencies else 0.0,
            "latency_p90_ms": percentile(latencies, 90) if latencies else 0.0,
            "peak_rss_mb": statistics.median(rss) / 1024.0 if rss else 0.0,
        }

    values = summary(lat, [hostspeed.normalized(t, ref) for t, ref in setups])
    tail = tail_percentile(len(lat))
    all_refs = [e["ref_ms"] for s in sessions for e in s.items]
    info = {
        "items": len(lat), "sessions": len(sessions), "setups": len(setups),
        "rss_sessions": len(rss), "tail_percentile": tail,
        "tail_latency_ms": percentile(lat, tail) if tail else None,
        "p90_supported": tail is not None and tail >= 90,
        "reference_ms": {"nominal": hostspeed.REFERENCE_MS,
                         "median": statistics.median(all_refs) if all_refs else None},
        "raw": summary(raw_lat, [t for t, _ in setups]),
    }
    return values, info


def per_layer(pairs: list[tuple[Session, Session]]) -> tuple[dict, dict]:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    module_s = {m: 0.0 for m in tracing.MODULES}
    counts: dict[str, int] = {}
    cache: dict[str, list[int]] = {}
    absent: set[str] = set()
    traced_ms = untraced_ms = 0.0
    items = 0
    for plain, traced in pairs:
        summary = traced.end["trace"]
        for k, v in summary["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in summary["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in summary["module_self_s"].items():
            module_s[k] += v
        for k, v in summary["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in summary["cache"].items():
            if v is None:
                absent.add(f"{k}.hit_ratio")
            else:
                h, m = cache.get(k, [0, 0])
                cache[k] = [h + v[0], m + v[1]]
        absent.update(summary["absent"])
        plain_ms = {e["i"]: e["ms"] for e in plain.items}
        for e in traced.items:
            if e["i"] in plain_ms:
                traced_ms += e["ms"]
                untraced_ms += plain_ms[e["i"]]
        items += len(traced.items)
    item_s = sum(e["ms"] for _, t in pairs for e in t.items) / 1000.0
    values = {}
    for name in tracing.span_names():
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    values.update({k: counts.get(k, 0) for k in
                   ("diagram.flat_key.candidates", "moves.enumerate_moves.sites")})
    for name in tracing.HIT_RATIO_TARGETS:
        h, m = cache.get(name, [0, 0])
        values[f"{name}.hit_ratio"] = h / (h + m) if h + m else 0.0
    for module in tracing.MODULES:
        values[f"{module}.self_s"] = module_s[module]
        values[f"{module}.share"] = module_s[module] / item_s if item_s else 0.0
    values["traced_items"] = items
    values["trace_overhead_ratio"] = traced_ms / untraced_ms if untraced_ms else 0.0
    info = {"absent": sorted(absent),
            "computed": ["diagram.flat_key.candidates"],
            "spans": sum(t.end["trace"]["spans"] for _, t in pairs)}
    return values, info


# -- run record --------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith((".py", ".tsv")):
                path = os.path.join(base, f)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, if the checkout is itself a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def write_record(record: dict) -> str:
    runs = os.path.join(HERE, "out", "runs")
    os.makedirs(runs, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    name = (f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
            f"-{stamp}-{os.getpid()}.json")
    path = os.path.join(runs, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return path


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vknots", "__init__.py")):
        print(f"perfbench: no vknots sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + args.seconds
    hard_stop = started + min(args.seconds + GRACE_S, HARD_CAP_S)
    sessions: list[Session] = []
    pairs: list[tuple[Session, Session]] = []
    status = "ok"
    index = 0
    while status == "ok" and time.monotonic() < deadline:
        if args.trace:
            # Both halves run every item, so they compare item by item.
            batch = [run_session(args.workload, args.seed, index, False, 0.0, hard_stop)]
            if batch[0].status == "ok":
                batch.append(run_session(args.workload, args.seed, index, True, 0.0,
                                         hard_stop))
        else:
            batch = [run_session(args.workload, args.seed, index, False, deadline,
                                 hard_stop)]
        sessions += batch
        status = batch[-1].status
        if batch[-1].setup is None:
            print(f"perfbench: session failed to set up:\n{batch[-1].stderr}",
                  file=sys.stderr)
            return 3
        if len(batch) == 2 and status == "ok":
            pairs.append((batch[0], batch[1]))
        index += 1
    wall_s = time.monotonic() - started

    attempted = failed = 0
    reasons = []
    for s in sessions:
        a, f, r = session_failures(s)
        attempted, failed, reasons = attempted + a, failed + f, reasons + r
    if attempted == 0:
        print("perfbench: no item started before the deadline", file=sys.stderr)
        return 3
    inputs = sorted({s.setup["inputs"] for s in sessions})
    digest_checked = sum((s.checks or {}).get("digest_checked", 0) for s in sessions)

    if args.trace:
        values, info = per_layer(pairs)
        units = dict(per_layer_metrics())
    else:
        values, info = end_to_end(sessions)
        units = dict(END_TO_END)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    correct = failed == 0 and "mismatch" not in inputs and status == "ok"

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wall_s": wall_s, "status": status,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 0.0,
        "failures": reasons[:50], "inputs": inputs, "digest_checked": digest_checked,
        "metrics": metrics, "info": info,
        "sessions": [{
            "index": s.index, "traced": s.traced, "status": s.status,
            "setup_s": s.setup["setup_s"], "inputs_digest": s.setup["inputs_digest"],
            "items": len(s.items), "complete": bool(s.end and s.end["complete"]),
            "rss_mb": s.end["rss_kb"] / 1024.0 if s.end else None,
            "loop_s": s.end["loop_s"] if s.end else None,
            "digests": (s.checks or {}).get("digests", []),
        } for s in sessions],
    }
    path = write_record(record)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"status {status}  record {os.path.relpath(path, ROOT)}")
    print(f"  attempted {attempted}  failed {failed}  "
          f"fail_ratio {record['fail_ratio']:.4f} failed/attempted  inputs {','.join(inputs)}")
    for reason in reasons[:5]:
        print(f"  failure: session {reason[0]} item {reason[1]}: {reason[2]}")
    absent = info.get("absent", [])
    if absent:
        print(f"  absent (reported as 0): {', '.join(absent)}")
    for name, m in metrics.items():
        mark = "  (absent)" if any(name == a or name.startswith(a + ".") for a in absent) else ""
        print(f"  {name:58s} {m['value']:14.6g} {m['unit']}{mark}")
    if "raw" in info:
        ref = info["reference_ms"]
        print(f"  times above are at the reference host speed: reference "
              f"{ref['nominal']} ms nominal, {ref['median'] or 0:.3f} ms measured; as measured:")
        for name, value in info["raw"].items():
            print(f"    {name:56s} {value:14.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
