"""Per-layer tracing from outside the package.

Wraps the public functions of the ``erlab`` modules and rebinds every
module-level name that refers to them, so calls through ``from .x import y``
copies are traced too.  Nothing under ``src/`` is edited.

Each wrapped call records a span (name, start, end, parent, operation id)
in memory.  ``graphs.first_clique`` runs once per solver node, so it is
aggregated into a call count and a total time; that time is charged to the
enclosing span as child time, so self times still add up.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict


def _pack_counts(result, args):
    _, report = result
    return {"candidates": report["candidates_tried"], "edges": report["edges"]}


def _sparsify_counts(result, args):
    # ``attempt`` is the 0-based index of the attempt that passed
    return {"attempts": result.certificate["attempt"] + 1}


def _nodes(result, args):
    return {"nodes": result.nodes}


def _alpha_counts(result, args):
    return {"nodes": result.nodes, "complete": int(result.complete)}


def _extract_counts(result, args):
    return {"depth": len(result.path)}


def _written_bytes(result, args):
    return {"bytes": os.path.getsize(args[0])}


# (module, function, span name, counts from the return value and arguments)
SPANS = [
    ("construct", "build_linear_tf_hypergraph", "construct.pack", _pack_counts),
    ("construct", "sparsify", "construct.sparsify", _sparsify_counts),
    ("construct", "blow_up", "construct.blow_up", None),
    ("construct", "overlay_and_retain", "construct.overlay", None),
    ("construct", "construct_upper_bound_instance", "construct.instance", None),
    ("graphs", "validate_hypergraph", "graphs.validate_hypergraph", None),
    ("graphs", "incidence_graph", "graphs.incidence_graph", None),
    ("graphs", "uncovered_clique", "graphs.uncovered_clique", None),
    ("graphs", "enumerate_cliques", "graphs.enumerate_cliques", None),
    ("freeness", "search_free_coloring", "freeness.search", _nodes),
    ("freeness", "find_mono_clique", "freeness.find_mono_clique", None),
    ("alpha", "alpha_exact", "alpha.exact", _alpha_counts),
    ("alpha", "greedy_free_subset", "alpha.greedy", None),
    ("alpha", "recursive_free_subset", "alpha.extract", _extract_counts),
    ("density", "density_witness", "density.witness", None),
    ("io", "write_graph", "io.write", _written_bytes),
    ("io", "write_hypergraph", "io.write", _written_bytes),
    ("io", "write_coloring", "io.write", _written_bytes),
    ("io", "read_graph", "io.read", None),
    ("io", "read_hypergraph", "io.read", None),
    ("io", "read_coloring", "io.read", None),
    ("cli", "main", "cli", None),
    ("experiment", "run_experiment", "experiment", None),
    ("experiment", "write_report", "experiment.write_report", None),
]
AGGREGATED = [("graphs", "first_clique", "graphs.first_clique")]


class Tracer:
    """Span recorder; records only between ``start`` and ``stop``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[str, str], list] = {}
        self.stack: list[dict] = []
        self.op = None
        self.enabled = False

    def start(self, root_name: str) -> None:
        self.enabled = True
        self._open(root_name)

    def stop(self) -> dict:
        root = self.stack.pop()
        self._close(root, time.perf_counter())
        self.enabled = False
        return root

    def _open(self, name: str) -> dict:
        span = {
            "name": name,
            "id": len(self.spans),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "op": self.op,
            "child_s": 0.0,
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: dict, end: float) -> None:
        span["end"] = end
        duration = end - span["start"]
        span["self_s"] = duration - span.pop("child_s")
        if self.stack:
            self.stack[-1]["child_s"] += duration

    def span(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    span["counts"] = counts(result, args)
                return result
            except Exception:
                span["error"] = True
                raise
            finally:
                self.stack.pop()
                self._close(span, time.perf_counter())

        traced.__wrapped__ = fn
        return traced

    def aggregate(self, name, fn):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack[-1]["child_s"] += elapsed
                agg = self.aggregates.setdefault((name, self.op), [0, 0.0])
                agg[0] += 1
                agg[1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def records(self) -> list[dict]:
        """Spans and aggregates as JSON-ready records, times relative to the first span."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        out = []
        for span in self.spans:
            rec = dict(span, start=span["start"] - origin, end=span["end"] - origin)
            out.append(rec)
        for (name, op), (calls, total) in sorted(self.aggregates.items(), key=str):
            out.append({"name": name, "op": op, "aggregated": True,
                        "calls": calls, "self_s": total})
        return out


def install(tracer: Tracer) -> None:
    """Wrap every listed function and rebind each ``erlab`` module name bound to it."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "erlab" or name.startswith("erlab."))]
    wraps = []
    for mod, fn_name, span_name, counts in SPANS:
        fn = getattr(sys.modules[f"erlab.{mod}"], fn_name)
        wraps.append((fn, tracer.span(span_name, fn, counts)))
    for mod, fn_name, span_name in AGGREGATED:
        fn = getattr(sys.modules[f"erlab.{mod}"], fn_name)
        wraps.append((fn, tracer.aggregate(span_name, fn)))
    for fn, traced in wraps:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)


def layer_metrics(records: list[dict]) -> dict:
    """Per-layer metrics of one traced pass (see bench/README.md for the map).

    ``records`` comes from ``Tracer.records``: the root span first.
    """
    self_s = defaultdict(float)
    span_s = defaultdict(float)   # inclusive durations
    calls = defaultdict(int)
    errors = defaultdict(int)
    counts = defaultdict(int)
    for rec in records:
        name = rec["name"]
        self_s[name] += rec["self_s"]
        if rec.get("aggregated"):
            calls[name] += rec["calls"]
            continue
        calls[name] += 1
        span_s[name] += rec["end"] - rec["start"]
        errors[name] += int(rec.get("error", False))
        for key, value in rec.get("counts", {}).items():
            counts[f"{name}.{key}"] += value

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{name}.self_s": self_s[name] for name in (
        "construct.pack", "construct.sparsify", "construct.blow_up",
        "construct.overlay", "construct.instance",
        "graphs.validate_hypergraph", "graphs.incidence_graph",
        "graphs.uncovered_clique", "graphs.first_clique", "graphs.enumerate_cliques",
        "freeness.search", "freeness.find_mono_clique",
        "alpha.exact", "alpha.greedy", "alpha.extract",
        "density.witness", "io.write", "io.read", "cli",
        "experiment", "experiment.write_report",
    )}
    m["construct.pack.candidates"] = counts["construct.pack.candidates"]
    m["construct.pack.accept_ratio"] = ratio(counts["construct.pack.edges"],
                                             counts["construct.pack.candidates"])
    m["construct.sparsify.attempts"] = counts["construct.sparsify.attempts"]
    m["graphs.first_clique.calls"] = calls["graphs.first_clique"]
    m["graphs.enumerate_cliques.calls"] = calls["graphs.enumerate_cliques"]
    for layer in ("freeness.search", "alpha.exact"):
        m[f"{layer}.nodes"] = counts[f"{layer}.nodes"]
        # base: nodes over the layer's inclusive time (clique checks beneath included)
        m[f"{layer}.nodes_per_s"] = ratio(counts[f"{layer}.nodes"], span_s[layer])
    m["alpha.exact.complete"] = ratio(counts["alpha.exact.complete"], calls["alpha.exact"])
    m["alpha.extract.failed"] = ratio(errors["alpha.extract"], calls["alpha.extract"])
    m["density.witness.calls"] = calls["density.witness"]
    m["io.bytes_written"] = counts["io.write.bytes"]
    m["trace.self_sum_s"] = sum(rec["self_s"] for rec in records[1:])
    return m
