"""Spans around calls into each ``deteq`` layer, recorded from outside the library.

``Tracer.install`` replaces the functions at the module attributes their
callers look them up under (``deteq.cli.locate_outliers``,
``deteq.outliers.solve_dyson`` and so on) with wrappers that record a span:
layer, function, start, end and the id of the enclosing span.  Spans stay in
memory; ``layer_metrics`` derives the per-layer numbers from them once a pass
ends.  A target that no longer exists, or an argument or result field that
is no longer there, is listed as untraced instead of raising, so the
benchmark keeps running while the library's internals are renamed.

The recorder keeps one stack of open spans, so it assumes the calls it wraps
run on one thread; the benchmark runs ``density`` without workers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

import numpy as np

# (module, attribute, layer) for every call the benchmark times.
TARGETS = (
    ("deteq.cli", "main", "cli"),
    ("deteq.cli", "constant_profile", "profiles"),
    ("deteq.cli", "dilate_model", "dilation"),
    ("deteq.cli", "density_curve", "density"),
    ("deteq.cli", "sv_density_correction", "density"),
    ("deteq.cli", "locate_outliers", "outliers"),
    ("deteq.cli", "validate_concentration", "sampling"),
    ("deteq.cli", "check_master_equality", "sampling"),
    ("deteq.sampling", "sample_gue_profile", "sampling"),
    ("deteq.sampling", "empirical_spectrum", "sampling"),
    ("deteq.density", "solve_dyson", "dyson"),
    ("deteq.outliers", "solve_dyson", "dyson"),
    ("deteq.sampling", "solve_dyson", "dyson"),
)
LAYERS = ("cli", "profiles", "dilation", "density", "outliers", "dyson", "sampling")


class Tracer:
    def __init__(self):
        self.spans = []
        self.untraced = set()
        self._stack = []
        self._saved = []
        self.request = 0

    def install(self) -> None:
        for module_name, attr, layer in TARGETS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.untraced.add(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, f"{module_name}.{attr}"))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, layer: str, target: str):
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "request": self.request,
                    "parent": self._stack[-1] if self._stack else None,
                    "layer": layer, "target": target}
            arguments = {}
            if signature is not None:
                try:
                    arguments = signature.bind(*args, **kwargs).arguments
                except TypeError:
                    pass
            self._note_before(span, arguments)
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            self._note_after(span, arguments, result)
            return result

        return traced

    def _field(self, span: dict, key: str, read) -> None:
        try:
            span[key] = read()
        except (AttributeError, KeyError, TypeError, IndexError, ValueError):
            self.untraced.add(f"{span['target']}:{key}")

    def _note_before(self, span: dict, arguments: dict) -> None:
        target = span["target"]
        if target == "deteq.cli.locate_outliers":
            self._field(span, "cache_before", lambda: len(arguments["cache"]))
        elif target == "deteq.cli.density_curve":
            self._field(span, "points", lambda: int(np.size(arguments["grid"])))
        elif span["layer"] == "dyson":
            self._field(span, "re_lambda",
                        lambda: float(np.asarray(arguments["lam"].diag)[0].real))

    def _note_after(self, span: dict, arguments: dict, result) -> None:
        if span["target"] == "deteq.cli.locate_outliers":
            self._field(span, "cache_after", lambda: len(arguments["cache"]))
        elif span["layer"] == "dyson":
            self._field(span, "iterations", lambda: int(result.iterations))
            self._field(span, "converged", lambda: bool(result.converged))


def tail(values: list) -> tuple:
    """Highest percentile with at least ten samples above it, as (value, pct).

    With ten samples or fewer that is the maximum, reported as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _inside(x: float, support: tuple) -> bool:
    return any(lo <= x <= hi for lo, hi in support)


def layer_metrics(spans: list, support: tuple) -> dict:
    """Per-layer numbers of one traced pass, as {name: (value, unit)}."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        self_s[s["layer"]] += _duration(s) - sum(_duration(c) for c in children.get(s["id"], ()))

    def of(layer, target=None):
        return [s for s in spans if s["layer"] == layer
                and (target is None or s["target"].endswith(target))]

    dyson = of("dyson")
    ms = [1e3 * _duration(s) for s in dyson]
    its = [s.get("iterations", 0) for s in dyson]
    bulk_its = sum(s.get("iterations", 0) for s in dyson
                   if _inside(s.get("re_lambda", np.nan), support))
    if len(set(its)) > 1:
        # Timing noise grows with solve length, so residuals are weighted by
        # 1/iterations; unweighted, the long bulk solves swamp the intercept.
        slope, intercept = np.polyfit(its, ms, 1, w=1.0 / np.maximum(its, 1))
    else:  # one iteration count: no fit, charge everything to iterations
        slope, intercept = (sum(ms) / sum(its) if sum(its) else 0.0), 0.0
    solve_tail = tail(ms)[0] if ms else 0.0

    outliers = of("outliers")
    by_id = {s["id"]: s for s in spans}
    outlier_solves = sum(1 for s in dyson
                         if s["parent"] is not None and by_id[s["parent"]]["layer"] == "outliers")
    draws = [1e3 * _duration(s) for s in of("sampling", ".sample_gue_profile")]
    eigs = [1e3 * _duration(s) for s in of("sampling", ".empirical_spectrum")]
    density_calls = of("density", ".density_curve")
    dilation = of("dilation")

    return {
        "dyson.solves": (len(dyson), "count"),
        "dyson.iterations": (sum(its), "count"),
        "dyson.cap_hits": (sum(1 for s in dyson if s.get("converged") is False), "count"),
        "dyson.converged_share": (
            sum(1 for s in dyson if s.get("converged")) / len(dyson) if dyson else 0.0, "ratio"),
        "dyson.self_s": (self_s["dyson"], "s"),
        "dyson.solve_ms.p50": (statistics.median(ms) if ms else 0.0, "ms"),
        "dyson.solve_ms.tail": (solve_tail, "ms"),
        "dyson.bulk.iterations": (bulk_its, "count"),
        "dyson.outside.iterations": (sum(its) - bulk_its, "count"),
        "dyson.us_per_iteration": (1e3 * float(slope), "us"),
        "dyson.overhead_ms": (float(intercept), "ms"),
        "outliers.calls": (len(outliers), "count"),
        "outliers.self_s": (self_s["outliers"], "s"),
        "outliers.solves_per_strength": (
            outlier_solves / len(outliers) if outliers else 0.0, "count"),
        "outliers.cache_entries": (outliers[-1].get("cache_after", 0) if outliers else 0, "count"),
        "density.points": (sum(s.get("points", 0) for s in density_calls), "count"),
        "density.self_s": (self_s["density"], "s"),
        "dilation.calls": (len(dilation), "count"),
        "dilation.s": (sum(_duration(s) for s in dilation), "s"),
        "profiles.build_s": (sum(_duration(s) for s in of("profiles")), "s"),
        "sampling.draws": (len(draws), "count"),
        "sampling.draw_ms.p50": (statistics.median(draws) if draws else 0.0, "ms"),
        "sampling.eig_ms.p50": (statistics.median(eigs) if eigs else 0.0, "ms"),
        "sampling.self_s": (self_s["sampling"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
    }
