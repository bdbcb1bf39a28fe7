"""Spans and counts per layer, from wrappers around the package's functions.

Every public function of a layer module is wrapped in each ``tropsched``
module that binds it (``tropsched.binomial.mat_mul`` and
``tropsched.linalg.mat_mul`` get the same wrapper), so calls between
layers are seen without editing the package.  ``semiring`` is not wrapped:
its scalar calls are too small to time from outside, and their cost shows
in the callers' self time.

Spans are kept in memory as ``[name, start, end, parent, request]`` and
written out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("scheduler", "binomial", "linalg", "inequality", "blockstar", "oracle", "io_cli")

PHASES = (
    "check_stage1_feasibility",
    "mu_term_families",
    "derive_matrices",
    "check_stage2_feasibility",
    "eta_term_families",
    "solution_set",
    "extreme_points",
)


def _mat_mul_counts(args, result):
    a, b = args[0], args[1]
    r, k, c = a.rows, a.cols, b.cols
    # One add and one max per (i, k, j); bytes are the three float64
    # operands' sizes, computed from shapes, not measured traffic.
    return (("linalg.mat_mul.maxplus_ops", r * k * c),
            ("linalg.mat_mul.bytes_computed", 8 * (r * k + k * c + r * c)))


def _extreme_counts(args, result):
    inst = args[1]
    return (("scheduler.extreme_points.kept", len(result)),
            ("scheduler.extreme_points.candidates", inst.m + inst.n + 1))


def _oracle_counts(args, result):
    return (("oracle.refinement_rounds", len(result.history)),)


_COUNTERS = {
    "linalg.mat_mul": _mat_mul_counts,
    "binomial.build_table": lambda args, result: (("binomial.build_table.cells", len(result.cells)),),
    "scheduler.extreme_points": _extreme_counts,
    "oracle.grid_search_stage1": _oracle_counts,
    "oracle.grid_search_stage2": _oracle_counts,
    "io_cli.dumps_report": lambda args, result: (("io_cli.report_bytes", len(result)),),
}


def _per_layer_specs() -> list[tuple[str, str]]:
    specs = []
    for phase in PHASES:
        specs += [(f"scheduler.{phase}.self_ms", "ms"), (f"scheduler.{phase}.total_ms", "ms")]
    specs += [
        ("scheduler.materialize.calls", "count"),
        ("scheduler.materialize.self_ms", "ms"),
        ("scheduler.extreme_points.kept_ratio", "ratio"),
        ("binomial.build_table.self_ms", "ms"),
        ("binomial.build_table.cells", "count"),
        ("binomial.weighted_trace_terms.self_ms", "ms"),
        ("binomial.weighted_form_terms.self_ms", "ms"),
        ("linalg.mat_mul.calls", "count"),
        ("linalg.mat_mul.self_ms", "ms"),
        ("linalg.mat_mul.maxplus_ops", "count"),
        ("linalg.mat_mul.bytes_computed", "B"),
    ]
    for fn in ("kleene_star", "trace_function", "spectral_radius"):
        specs += [(f"linalg.{fn}.calls", "count"), (f"linalg.{fn}.self_ms", "ms")]
    for fn in ("inequality.solve_double_inequality", "blockstar.skew_star", "blockstar.skew_trace"):
        specs += [(f"{fn}.calls", "count"), (f"{fn}.self_ms", "ms")]
    specs += [
        ("oracle.grid_search_stage1.self_ms", "ms"),
        ("oracle.grid_search_stage2.self_ms", "ms"),
        ("oracle.refinement_rounds", "count"),
        ("io_cli.run_cli.self_ms", "ms"),
        ("io_cli.parse_instance.self_ms", "ms"),
        ("io_cli.report_to_dict.self_ms", "ms"),
        ("io_cli.dumps_report.self_ms", "ms"),
        ("io_cli.report_bytes", "B"),
    ]
    specs += [(f"{layer}.mean_self_ms", "ms") for layer in LAYERS]
    specs.append(("trace.overhead_frac", "ratio"))
    return specs


# (name, unit) of every metric a traced run reports.
PER_LAYER = _per_layer_specs()


class Tracer:
    """Installs and removes the wrappers; records spans and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.request = -1
        self._stack: list[int] = []
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tropsched.{layer}")
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and not attr.startswith("_") and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        self._bindings = [
            (mod, attr, fn, wrappers[fn])
            for name, mod in list(sys.modules.items())
            if name == "tropsched" or name.startswith("tropsched.")
            for attr, fn in list(vars(mod).items())
            if inspect.isfunction(fn) and fn in wrappers
        ]

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, _COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counts = self.counts[rec[4]]
                for key, value in counter(args, result):
                    counts[key] += value
            return result

        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, fn, _ in self._bindings:
            setattr(mod, attr, fn)

    def per_request(self) -> dict[int, dict[str, float]]:
        """Summed self time, total time and calls per function and layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, req), inner in zip(self.spans, child):
            row = out[req]
            self_ms = (end - start - inner) * 1e3
            row[name + ".self_ms"] += self_ms
            row[name + ".total_ms"] += (end - start) * 1e3
            row[name + ".calls"] += 1
            row[name.split(".", 1)[0] + ".mean_self_ms"] += self_ms
        for req, counts in self.counts.items():
            out[req].update(counts)
        return out

    def metrics(self, requests: list[int]) -> dict[str, float]:
        """Per-request medians over the traced requests (0 where never called).

        Layer totals are per-request means instead, so that they add up to
        the share of the run each layer takes.
        """
        rows = self.per_request()
        values = {}
        for name, _ in PER_LAYER:
            if name == "trace.overhead_frac":
                continue
            if name == "scheduler.extreme_points.kept_ratio":
                # Only requests that reached the extreme-point phase.
                ratios = [
                    rows[r]["scheduler.extreme_points.kept"] / rows[r]["scheduler.extreme_points.candidates"]
                    for r in requests
                    if rows[r].get("scheduler.extreme_points.candidates")
                ]
                values[name] = statistics.median(ratios) if ratios else 0.0
            elif name.endswith(".mean_self_ms"):
                values[name] = statistics.fmean(rows[r].get(name, 0.0) for r in requests)
            else:
                values[name] = statistics.median(rows[r].get(name, 0.0) for r in requests)
        return values

    def write(self, path) -> None:
        """Spans as tab-separated lines: request, id, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("request\tid\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(f"{req}\t{i}\t{parent}\t{name}\t{start!r}\t{end!r}\n")
