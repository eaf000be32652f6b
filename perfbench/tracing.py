"""Benchmark-side tracing of vknots' public functions.

``Tracer.install`` wraps each function in ``TARGETS`` in every ``vknots.*``
module namespace that binds it (``from ... import`` makes separate
bindings), in the invariant registry, and on the two wrapped methods.
Each call records a span (name, start, end, parent span, item id) in
compact arrays kept in memory; ``write_spans`` saves them when the session
ends.  Nothing under ``src/`` changes.

A target that a later refactor removes is reported in ``absent`` instead
of failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import sys
import zlib
from array import array
from time import perf_counter_ns

# (metric prefix, module, attribute).  The module part of the prefix is the
# layer whose totals the span counts towards.
TARGETS = (
    ("cli.main", "vknots.cli", "main"),
    ("catalog.load_catalog", "vknots.catalog", "load_catalog"),
    ("diagram.parse", "vknots.diagram", "parse"),
    ("diagram.serialize", "vknots.diagram", "serialize"),
    ("diagram.Diagram", "vknots.diagram", "Diagram.__init__"),
    ("diagram.crossing_change", "vknots.diagram", "crossing_change"),
    ("diagram.reverse_component", "vknots.diagram", "reverse_component"),
    ("diagram.flat_key", "vknots.diagram", "flat_key"),
    ("labeling.arc_labeling", "vknots.labeling", "arc_labeling"),
    ("labeling.index_map", "vknots.labeling", "index_map"),
    ("smoothing.smooth1", "vknots.smoothing", "smooth1"),
    ("smoothing.smooth2", "vknots.smoothing", "smooth2"),
    ("smoothing.smooth3", "vknots.smoothing", "smooth3"),
    ("moves.enumerate_moves", "vknots.moves", "enumerate_moves"),
    ("moves.apply_move", "vknots.moves", "apply_move"),
    ("moves.random_walk", "vknots.moves", "random_walk"),
    ("laurent.monomial", "vknots.laurent", "monomial"),
    ("laurent.LaurentPoly.__add__", "vknots.laurent", "LaurentPoly.__add__"),
    ("invariants.writhes.affine_index_poly", "vknots.invariants.writhes", "affine_index_poly"),
    ("invariants.writhes.dwrithe", "vknots.invariants.writhes", "dwrithe"),
    ("invariants.writhes.dwrithe_nm", "vknots.invariants.writhes", "dwrithe_nm"),
    ("invariants.writhes.f_poly", "vknots.invariants.writhes", "f_poly"),
    ("invariants.writhes.f_poly_nmk", "vknots.invariants.writhes", "f_poly_nmk"),
    ("invariants.spans.linking_numbers", "vknots.invariants.spans", "linking_numbers"),
    ("invariants.spans.span_nk", "vknots.invariants.spans", "span_nk"),
    ("invariants.spans.fspan_nk", "vknots.invariants.spans", "fspan_nk"),
    ("invariants.spans.tilde_f", "vknots.invariants.spans", "tilde_f"),
    ("invariants.flatsums.flat_sum", "vknots.invariants.flatsums", "flat_sum"),
    ("invariants.flatsums.b_sum", "vknots.invariants.flatsums", "b_sum"),
    ("invariants.flatsums.b_flat_sum", "vknots.invariants.flatsums", "b_flat_sum"),
    ("invariants.fingerprint.fingerprint", "vknots.invariants.fingerprint", "fingerprint"),
    ("invariants.fingerprint.kink_class_fingerprints", "vknots.invariants.fingerprint",
     "kink_class_fingerprints"),
    ("invariants.fingerprint.flatsum_fingerprint", "vknots.invariants.fingerprint",
     "flatsum_fingerprint"),
    ("invariants.fingerprint.restricted_flatsum_fingerprint", "vknots.invariants.fingerprint",
     "restricted_flatsum_fingerprint"),
    ("invariants.compute_invariant", "vknots.invariants", "compute_invariant"),
    ("invariants.comparable_invariant", "vknots.invariants", "comparable_invariant"),
)

# Spans of fingerprint are split by their depth argument.
FINGERPRINT_DEPTHS = (0, 1, 2)
# Hit ratios reported, where the function exposes cache_info().
HIT_RATIO_TARGETS = (
    "labeling.arc_labeling", "labeling.index_map",
    "smoothing.smooth1", "smoothing.smooth2", "smoothing.smooth3",
    "invariants.writhes.dwrithe", "invariants.spans.span_nk",
    "invariants.fingerprint.fingerprint",
    "invariants.fingerprint.kink_class_fingerprints",
)
MODULES = (
    "cli", "catalog", "diagram", "labeling", "smoothing", "moves", "laurent",
    "invariants.writhes", "invariants.spans", "invariants.flatsums",
    "invariants.fingerprint", "invariants",
)


def module_of(prefix: str) -> str:
    """Layer of a metric prefix: the longest entry of MODULES it starts with."""
    return max((m for m in MODULES if prefix.startswith(m + ".")), key=len)


def span_names() -> list[str]:
    out = []
    for prefix, _, _ in TARGETS:
        if prefix == "invariants.fingerprint.fingerprint":
            out += [f"{prefix}.d{d}" for d in FINGERPRINT_DEPTHS]
        else:
            out.append(prefix)
    return out


def self_times(start, end, parent) -> array:
    """Each span's duration minus the part of it its child spans cover.

    Spans are in creation order, so a parent precedes its children and the
    children of one parent come in order of start time; overlapping
    children are merged so no interval is subtracted twice.  Times are
    integers (nanoseconds in a trace).
    """
    n = len(start)
    covered = array("q", bytes(8 * n))
    reach = array("q", [-(2**62)]) * n  # end of the union of children seen so far
    for k in range(n):
        p = parent[k]
        if p < 0:
            continue
        hi = min(end[k], end[p])
        lo = max(start[k], start[p], reach[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    for k in range(n):
        covered[k] = end[k] - start[k] - covered[k]
    return covered


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")  # time.perf_counter_ns()
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        self.item_id = -1
        self._stack: list[int] = []
        self.counts = {"diagram.flat_key.candidates": 0, "moves.enumerate_moves.sites": 0}
        self.absent: list[str] = []
        self._undo: list = []
        self._cached: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, prefix: str, fn):
        tracer = self
        name_of = after = fixed = None
        if prefix == "invariants.fingerprint.fingerprint":
            param = inspect.signature(fn).parameters.get("depth")
            default = param.default if param is not None else None

            def name_of(args, kwargs):
                depth = args[1] if len(args) > 1 else kwargs.get("depth", default)
                return tracer._name_id(f"{prefix}.d{depth}")
        else:
            fixed = self._name_id(prefix)
        if prefix == "diagram.flat_key":
            def after(args, kwargs, result):
                # Rotations the brute-force key enumerates, computed from the
                # input; skipped if a refactor changes the Diagram layout.
                comps = getattr(args[0], "components", None) if args else None
                if comps is not None:
                    tracer.counts["diagram.flat_key.candidates"] += math.prod(
                        max(len(c), 1) for c in comps
                    )
        elif prefix == "moves.enumerate_moves":
            def after(args, kwargs, result):
                tracer.counts["moves.enumerate_moves.sites"] += len(result)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = len(tracer.start)
            tracer.name.append(name_of(args, kwargs) if name_of else fixed)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.item.append(tracer.item_id)
            tracer.end.append(0)
            tracer._stack.append(k)
            tracer.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[k] = perf_counter_ns()
                tracer._stack.pop()
            if after:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; call after importing vknots."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "vknots" or n.startswith("vknots."))]
        registry = getattr(sys.modules.get("vknots.invariants"), "REGISTRY", {})
        for prefix, modname, attr in TARGETS:
            owner = sys.modules.get(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is None:
                    self.absent.append(prefix)
                    continue
                setattr(cls, meth, self._wrap(prefix, fn))
                self._undo.append((cls, meth, fn))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(prefix)
                continue
            wrapper = self._wrap(prefix, fn)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)
                        self._undo.append((mod, name, fn))
            for key, spec in list(registry.items()):
                if getattr(spec, "compute", None) is fn:
                    registry[key] = dataclasses.replace(spec, compute=wrapper)
                    self._undo.append((registry, key, spec))
            if hasattr(fn, "cache_info"):
                self._cached[prefix] = fn

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._undo.clear()

    def mark_caches(self) -> None:
        """Start the window that hit ratios cover."""
        for prefix, fn in self._cached.items():
            info = fn.cache_info()
            self._cache_base[prefix] = (info.hits, info.misses)

    def cache_deltas(self) -> dict[str, list[int] | None]:
        """[hits, misses] since mark_caches, or None without cache_info()."""
        out = {}
        for prefix in HIT_RATIO_TARGETS:
            fn = self._cached.get(prefix)
            if fn is None:
                out[prefix] = None
                continue
            info = fn.cache_info()
            h0, m0 = self._cache_base.get(prefix, (0, 0))
            out[prefix] = [info.hits - h0, info.misses - m0]
        return out

    def summary(self) -> dict:
        """Per-span-name calls and self time (all spans), per-module self
        time (spans inside items only), counts and cache hits/misses."""
        own = self_times(self.start, self.end, self.parent)
        calls = {n: 0 for n in self.names}
        self_s = {n: 0.0 for n in self.names}
        modules = {m: 0.0 for m in MODULES}
        by_id = [(n, module_of(n)) for n in self.names]
        for k, t in enumerate(own):
            name, module = by_id[self.name[k]]
            calls[name] += 1
            self_s[name] += t / 1e9
            if self.item[k] >= 0:
                modules[module] += t / 1e9
        return {
            "calls": calls, "self_s": self_s, "module_self_s": modules,
            "counts": dict(self.counts), "cache": self.cache_deltas(),
            "absent": list(self.absent), "spans": len(own),
        }

    def write_spans(self, path: str) -> None:
        """Spans as ``<path>.json`` (names and layout) and ``<path>.bin``,
        the zlib-compressed arrays one after another."""
        fields = [("name", self.name), ("start", self.start), ("end", self.end),
                  ("parent", self.parent), ("item", self.item)]
        sizes = []
        with open(path + ".bin", "wb") as fh:
            for _, arr in fields:
                blob = zlib.compress(arr.tobytes(), 1)
                sizes.append(len(blob))
                fh.write(blob)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "count": len(self.start),
                       "arrays": [[f, a.typecode, n] for (f, a), n in zip(fields, sizes)],
                       "clock": "time.perf_counter_ns", "parent_none": -1,
                       "item_setup": -1}, fh)
