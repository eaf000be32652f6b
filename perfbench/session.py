"""One benchmark session: a fresh interpreter that sets up and runs one
session's items, reporting one JSON line per event on stdout.

    python3 perfbench/session.py WORKLOAD SEED SESSION DEADLINE SPAWNED TRACE

DEADLINE and SPAWNED are ``time.monotonic()`` readings of the parent (the
system-wide monotonic clock on Linux): no item starts after DEADLINE, and
set-up time counts from SPAWNED, just before this interpreter was started.
A DEADLINE of 0 runs every item.  TRACE is 0 or 1.

Events, in order: ``setup``, one ``item`` per finished item, ``checks``
and ``end``.  The set-up event and every item event carry ``ref_ms``, the
time of the host-speed reference (hostspeed.py) measured right after set-up
and right before the item; the reference is not part of any timed span.
The CLI's own output is captured per item, so it never mixes with the
events.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import hostspeed
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def inputs_digest(items) -> str:
    return digest("\n".join(item.key for item in items))


def import_program():
    """Import vknots from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import vknots
    import vknots.cli

    if not os.path.abspath(vknots.__file__).startswith(src + os.sep):
        raise ImportError(f"vknots imported from {vknots.__file__}, not {src}")
    return vknots


def main(argv: list[str]) -> int:
    workload, seed, session = argv[0], int(argv[1]), int(argv[2])
    deadline, spawned, traced = float(argv[3]), float(argv[4]), argv[5] == "1"
    vk = import_program()
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    vk.builtin_catalog()
    items = workloads.session_items(workload, seed, session, vk)
    work = os.path.join(OUT, "work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    argvs = []
    for i, item in enumerate(items):
        path = None
        if item.catalog is not None:
            path = os.path.join(work, f"{i}.tsv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(item.catalog + "\n")
        argvs.append([path if a == "{catalog}" else a for a in item.argv])
    recorded = workloads.load_expected("inputs.json").get(workload, {})
    want = recorded.get(f"{seed}:{session}")
    got = inputs_digest(items)
    inputs = "unrecorded" if want is None else ("ok" if want == got else "mismatch")
    setup_s = time.monotonic() - spawned
    setup_ref = statistics.median(hostspeed.time_reference() for _ in range(5))
    emit({"t": "setup", "setup_s": setup_s, "ref_ms": setup_ref,
          "items": len(items), "inputs": inputs, "inputs_digest": got})

    cli = sys.modules["vknots.cli"]
    if tracer:
        tracer.mark_caches()
    results = []
    loop_start = time.perf_counter()
    for i, args in enumerate(argvs):
        if deadline and time.monotonic() >= deadline:
            break
        ref_ms = hostspeed.time_reference()
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.item_id = i
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(args)
        except (Exception, SystemExit) as exc:
            code = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer:
            tracer.item_id = -1
        results.append((code, out.getvalue()))
        emit({"t": "item", "i": i, "ms": (t1 - t0) * 1000.0, "ref_ms": ref_ms})
    loop_s = time.perf_counter() - loop_start

    golden = workloads.load_expected("golden.json")
    known = workloads.load_expected("stdout.json").get(workload, {})
    fails, digests, digest_checked = [], [], 0
    for i, (code, stdout) in enumerate(results):
        key, out = digest(items[i].key), digest(f"{code}\n{stdout}")
        digests.append([key, out])
        try:
            reason = workloads.check_item(items[i], code, stdout, golden)
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"oracle could not read the output: {exc!r}"
        if key in known:
            digest_checked += 1
            if known[key] != out and reason is None:
                reason = "stdout differs from the recorded digest"
        if reason:
            fails.append([i, reason])
    emit({"t": "checks", "fails": fails, "digests": digests,
          "digest_checked": digest_checked})

    end = {"t": "end", "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "loop_s": loop_s, "done": len(results), "complete": len(results) == len(items)}
    if tracer:
        tracer.uninstall()
        end["trace"] = tracer.summary()
        spans = os.path.join(OUT, "spans")
        os.makedirs(spans, exist_ok=True)
        tracer.write_spans(os.path.join(spans, f"{workload}-seed{seed}-session{session}"))
    shutil.rmtree(work, ignore_errors=True)
    emit(end)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
