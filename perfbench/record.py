"""Record the benchmark's expected data at a baseline commit.

    python3 perfbench/record.py inputs
    python3 perfbench/record.py stdout
    python3 perfbench/record.py baseline

``inputs`` writes ``expected/inputs.json``: a digest of the generated
inputs of sessions 0-7 of seeds 0-10, per workload.  A run whose inputs no
longer match (for example because the move engine's seeded site order
changed, which changes the walked pairs of distinguish-deep) is not
``correct``.

``stdout`` merges the per-item stdout digests of the correct run records in
``out/runs/`` into ``expected/stdout.json`` (the first two sessions of each
run), dropping recorded digests of items the generator no longer makes.  Later runs then check that the CLI prints byte-identical
output for those items.  Only run it on records made at the baseline.

``baseline`` summarises the latest untraced run records of seeds 1-10 into
``expected/baseline.json``: per workload and metric, the median and
quartiles over the ten runs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

import session
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
INPUT_SEEDS, INPUT_SESSIONS = range(0, 11), 8
STDOUT_SESSIONS = 2
BASELINE_SEEDS = range(1, 11)


def write(name: str, table: dict) -> None:
    path = os.path.join(HERE, "expected", name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path)}: "
          + ", ".join(f"{w} {len(v)}" for w, v in table.items()))


def record_inputs() -> None:
    vk = session.import_program()
    table = {w: {} for w in workloads.WORKLOADS}
    for w in workloads.WORKLOADS:
        for seed in INPUT_SEEDS:
            for index in range(INPUT_SESSIONS):
                items = workloads.session_items(w, seed, index, vk)
                table[w][f"{seed}:{index}"] = session.inputs_digest(items)
    write("inputs.json", table)


def load_runs():
    for path in sorted(glob.glob(os.path.join(HERE, "out", "runs", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            yield path, json.load(fh)


def record_stdout() -> int:
    # Keep the recorded digests of items the generator still makes (seeds
    # 0-10, first sessions), so that runs of some seeds add to them.
    vk = session.import_program()
    recorded = workloads.load_expected("stdout.json")
    table = {}
    for w in workloads.WORKLOADS:
        keys = {session.digest(item.key) for seed in INPUT_SEEDS
                for index in range(STDOUT_SESSIONS)
                for item in workloads.session_items(w, seed, index, vk)}
        table[w] = {k: v for k, v in recorded.get(w, {}).items() if k in keys}
    conflicts = 0
    for path, rec in load_runs():
        if not rec["correct"]:
            continue
        for s in rec["sessions"]:
            if s["index"] >= STDOUT_SESSIONS:
                continue
            for key, out in s["digests"]:
                old = table[rec["workload"]].setdefault(key, out)
                if old != out:
                    conflicts += 1
                    print(f"{path}: item {key} printed {out}, earlier {old}",
                          file=sys.stderr)
    if conflicts:
        print(f"{conflicts} conflicting digests; nothing written", file=sys.stderr)
        return 1
    write("stdout.json", table)
    return 0


def record_baseline() -> int:
    runs: dict[str, dict[int, dict]] = {w: {} for w in workloads.WORKLOADS}
    for _, rec in load_runs():
        if rec["trace"] == 0 and rec["seed"] in BASELINE_SEEDS:
            runs[rec["workload"]][rec["seed"]] = rec  # latest run of a seed wins
    table = {}
    for w, by_seed in runs.items():
        if len(by_seed) < 2:
            print(f"{w}: fewer than two runs", file=sys.stderr)
            return 1
        recs = list(by_seed.values())
        entry = {"seeds": sorted(by_seed), "correct": all(r["correct"] for r in recs),
                 "items": [r["attempted"] for r in recs],
                 "source_sha256": sorted({r["source_sha256"] for r in recs}),
                 "seconds": sorted({r["seconds"] for r in recs}), "metrics": {}}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in recs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["metrics"][name] = {
                "unit": recs[0]["metrics"][name]["unit"], "median": statistics.median(values),
                "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values),
            }
        table[w] = entry
    path = os.path.join(HERE, "expected", "baseline.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path)}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("what", choices=("inputs", "stdout", "baseline"))
    args = ap.parse_args()
    if args.what == "inputs":
        record_inputs()
        return 0
    if args.what == "baseline":
        return record_baseline()
    return record_stdout()


if __name__ == "__main__":
    sys.exit(main())
