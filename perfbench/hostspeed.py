"""Host-speed normalization of the benchmark's times.

The benchmark runs on a few cores of a shared host whose speed per
instruction drifts by tens of percent within minutes (in CPU time as well
as wall time), as neighbours load the same cores and caches.  A fixed piece
of pure-Python work, the *reference*, is timed right before every item; it
slows down with the host and not with the program, since it calls no
vknots code.  A time is reported at the reference host speed:

    normalized = measured * REFERENCE_MS / (reference time measured nearby)

so on a host running the reference in exactly ``REFERENCE_MS`` the figures
equal the raw ones.  Run records keep the raw figures next to them.
"""

from __future__ import annotations

import statistics
import time

# A fixed scale: about the reference's median time on the host the baseline
# was recorded on (2 vCPUs of a 2.0 GHz Xeon, where it ranged from 2.7 to
# 5.3 ms).  Changing it scales every normalized time alike.
REFERENCE_MS = 4.0
# Each item is normalized by the median of the reference times of the items
# within this many places of it in its session.
WINDOW = 3

_TERMS = tuple({(k % 7 - 3, k % 3): (-1) ** k * (1 + k % 4)} for k in range(48))


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ea, fa), ca in a.items():
        for (eb, fb), cb in b.items():
            key = (ea + eb, fa + fb)
            c = (out.get(key, 0) + ca * cb) % 1009
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def reference() -> int:
    """A fixed amount of pure-Python work of the program's kind: small dicts
    keyed by tuples, small-int arithmetic, sorting and function calls."""
    total = 0
    for _ in range(3):
        poly = {(0, 0): 1}
        for term in _TERMS:
            poly = _mul(poly, {(0, 0): 1, **term})
            if len(poly) > 24:
                ranked = sorted(poly.items(), key=lambda kv: (abs(kv[1]), kv[0]))
                poly = dict(ranked[-12:])
        total += sum(c for _, c in sorted(poly.items()))
    return total


def time_reference() -> float:
    """Milliseconds one run of ``reference`` takes now."""
    t0 = time.perf_counter()
    reference()
    return (time.perf_counter() - t0) * 1000.0


def local_reference(ref_ms: list[float], window: int = WINDOW) -> list[float]:
    """For each position, the median of the reference times within
    ``window`` places of it."""
    n = len(ref_ms)
    return [statistics.median(ref_ms[max(0, i - window):i + window + 1])
            for i in range(n)]


def normalized(value: float, ref_ms: float) -> float:
    """``value`` (a time) at the reference host speed."""
    return value * REFERENCE_MS / ref_ms
