"""Layer spans for the traced run, recorded from outside the library.

Each boundary in :data:`BOUNDARIES` is a library function.  While a
:class:`Tracer` is installed, every ``hoffman.*`` module attribute bound to
that function (the defining module and every module that imported it) is
replaced by a wrapper that records a span: name, start, end, parent span and
run id (the index of the CLI operation).  Counts are taken at the same
boundaries.  Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the time covered by its child
spans.  The root span of each operation is ``cli.main``; its self time is the
CLI's own work (argument parsing, report assembly, JSON output) and is
reported as ``cli.self``.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable, Optional


def _psd_witness(args, kwargs, result):
    name = "exact.psd_holds" if result is None else "exact.psd_refuted"
    return name, {"calls": 1, "order_sum": args[0].order}, None


def _index_sets_examined(n: int, hit) -> int:
    """Index sets scan_M_t looked at: orders 1, 2, 3 in lexicographic order."""
    if hit is None:
        return n + math.comb(n, 2) + math.comb(n, 3)
    subset = hit.slim_subset
    before = sum(math.comb(n, k) for k in range(1, len(subset)))
    prev = -1
    for pos, v in enumerate(subset):
        rest = len(subset) - 1 - pos
        before += sum(math.comb(n - 1 - w, rest) for w in range(prev + 1, v))
        prev = v
    return before + 1


def _scan_M_t(args, kwargs, result):
    S = args[0]
    n = S.order if hasattr(S, "order") else len(S)
    return None, {"index_sets": _index_sets_examined(n, result)}, None


def _feasibility_scan(args, kwargs, result):
    b, alpha_max = args[0], args[2]
    grid = math.floor(Fraction(alpha_max) * (b + 1)) + 1
    counts = {"candidates": max(grid, 0), "survivors": len(result)}
    return None, counts, b


def _counting(count: Callable) -> Callable:
    """An observer that only adds the counts ``count(args, result)``."""
    return lambda args, kwargs, result: (None, count(args, result), None)


@dataclass(frozen=True)
class Boundary:
    module: str
    function: str
    name: str
    # (args, kwargs, result) -> (span name or None to keep ``name``,
    # {counter: increment}, label), for the few boundaries that split their
    # span, count something or label it
    observe: Optional[Callable] = None
    # per-layer metrics fed by this boundary, when more than ``<name>.s``
    metrics: tuple[str, ...] = ()


def _layer(name: str, *suffixes: str) -> tuple[str, ...]:
    return tuple(f"{name}.{suffix}" for suffix in ("s",) + suffixes)


BOUNDARIES = (
    Boundary("hoffman.exact", "psd_witness", "exact.psd_witness", _psd_witness,
             _layer("exact.psd_refuted", "calls", "order_sum")
             + _layer("exact.psd_holds", "calls", "order_sum")),
    Boundary("hoffman.exact", "det_exact", "exact.det_exact"),
    Boundary("hoffman.exact", "eigenvalues_float", "exact.eigenvalues_float"),
    Boundary("hoffman.forbidden", "adjacency_rational", "forbidden.adjacency_rational"),
    Boundary("hoffman.forbidden", "certify_lambda_min_below",
             "forbidden.certify_lambda_min_below"),
    Boundary("hoffman.forbidden", "_lift_quotient_witness", "forbidden.lift_witness"),
    Boundary("hoffman.forbidden", "graph_quadratic_form", "forbidden.graph_quadratic_form",
             _counting(lambda a, r: {"edges": a[0].edge_count()}),
             _layer("forbidden.graph_quadratic_form", "edges")),
    Boundary("hoffman.forbidden", "graph_quotient_matrix", "forbidden.graph_quotient_matrix"),
    Boundary("hoffman.forbidden", "graph_lambda_min_float", "forbidden.graph_lambda_min_float"),
    Boundary("hoffman.forbidden", "scan_M_t", "forbidden.scan_M_t", _scan_M_t,
             _layer("forbidden.scan_M_t", "index_sets")),
    Boundary("hoffman.hgraphs", "expand", "hgraphs.expand",
             _counting(lambda a, r: {"vertices": r.n}),
             _layer("hgraphs.expand", "vertices")),
    Boundary("hoffman.hgraphs", "special_matrix", "hgraphs.special_matrix"),
    Boundary("hoffman.graphs", "load_graph_file", "graphs.load_graph_file"),
    Boundary("hoffman.graphs", "maximal_cliques", "graphs.maximal_cliques",
             _counting(lambda a, r: {"cliques": len(r)}),
             _layer("graphs.maximal_cliques", "cliques")),
    Boundary("hoffman.graphs", "maximum_independent_set", "graphs.maximum_independent_set"),
    Boundary("hoffman.graphs", "mu_parameter", "graphs.mu_parameter",
             _counting(lambda a, r: {"calls": 1}),
             _layer("graphs.mu_parameter", "calls")),
    Boundary("hoffman.structure", "bose_laskar", "structure.bose_laskar"),
    Boundary("hoffman.structure", "associated_hoffman", "structure.associated_hoffman"),
    Boundary("hoffman.structure", "theorem_intro2_check", "structure.theorem_intro2_check"),
    Boundary("hoffman.drg", "feasibility_scan", "drg.feasibility_scan", _feasibility_scan,
             _layer("drg.feasibility_scan", "candidates", "survivors")),
    Boundary("hoffman.drg", "theorem_beta_bounds", "drg.theorem_beta_bounds"),
    Boundary("hoffman.cli", "build_parser", "cli.build_parser"),
    Boundary("hoffman.cli", "_validate_report", "cli.validate_report"),
)
ROOT_SPAN = "cli.main"
ROOT_SELF = "cli.self"
DERIVED = ("cli.self.s", "drg.feasibility_scan.survivor_ratio",
           "drg.feasibility_scan.max_b.s", "trace.coverage", "trace.overhead")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports."""
    return [m for b in BOUNDARIES for m in (b.metrics or (f"{b.name}.s",))] + list(DERIVED)


class Tracer:
    """Records spans while installed; restores the library on uninstall."""

    def __init__(self):
        # (name, start, end, parent index or -1, run id, label)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, b: Boundary):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            result, completed = None, False
            try:
                result = fn(*args, **kwargs)
                completed = True
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                name, label = b.name, None
                if b.observe and completed:
                    renamed, counts, label = b.observe(args, kwargs, result)
                    name = renamed or name
                    for suffix, value in counts.items():
                        self.counts[f"{name}.{suffix}"] += value
                self.spans[index] = (name, start, end, parent, self.run_id, label)

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "hoffman" or name.startswith("hoffman.")]
        for b in BOUNDARIES:
            original = getattr(sys.modules[b.module], b.function)
            wrapper = self._wrap(original, b)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def entry(self, main: Callable) -> Callable:
        """``main`` wrapped as the root span of one operation."""
        return self._wrap(main, Boundary("hoffman.cli", "main", ROOT_SPAN))

    def self_times(self) -> dict[str, float]:
        """Self time per span name, root spans reported as ``cli.self``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _, _), children in zip(self.spans, child_time):
            out[ROOT_SELF if name == ROOT_SPAN else name] += end - start - children
        return out

    def layer_metrics(self, passes: int, traced_wall: float) -> dict[str, float]:
        """Per-pass self times and counts, coverage, and the largest-b scan time.

        ``trace.overhead`` needs untraced passes and is left to the caller.
        """
        selfs = self.self_times()
        metrics = dict.fromkeys(metric_names(), 0.0)
        metrics.update({f"{name}.s": t / passes for name, t in selfs.items()})
        metrics.update({name: v / passes for name, v in self.counts.items()})
        candidates = self.counts.get("drg.feasibility_scan.candidates", 0)
        metrics["drg.feasibility_scan.survivor_ratio"] = (
            self.counts.get("drg.feasibility_scan.survivors", 0) / candidates
            if candidates else 0.0
        )
        scans = [(label, end - start) for name, start, end, _, _, label in self.spans
                 if name == "drg.feasibility_scan"]
        top_b = max((label for label, _ in scans), default=None)
        metrics["drg.feasibility_scan.max_b.s"] = sum(
            t for label, t in scans if label == top_b) / passes
        covered = sum(t for name, t in selfs.items() if name != ROOT_SELF)
        metrics["trace.coverage"] = covered / traced_wall if traced_wall else 0.0
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, run_id, label in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id,
                                     "label": label}) + "\n")
