"""Span tracing of robustmax's layers from outside the program.

Each public entry point of the modules ``master``, ``dcg``, ``core``,
``water`` and ``ratio`` is wrapped while an :class:`Instrumentation` is
active.  A wrapper records its span's duration and the part of it that its
child spans cover, so a layer's self time is the sum over its spans of
duration minus child time.  Spans are aggregated in memory per
(name, parent name) instead of kept one by one: the ``oracle`` workload
makes millions of oracle lookups.

Nothing under ``src/`` changes.  The one private hook is
``MasterState._evaluate``, wrapped to count branch-and-bound nodes; it
retires once ``MasterResult`` reports its own node count.
"""

from __future__ import annotations

import functools
import time

import robustmax
from robustmax import core, dcg, master, ratio, water

MODULES = (robustmax, core, dcg, master, ratio, water)


class SpanStats:
    __slots__ = ("layer", "calls", "total", "own", "longest", "counts")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.own = 0.0
        self.longest = 0.0
        self.counts: dict = {}

    def add(self, key: str, amount: int):
        self.counts[key] = self.counts.get(key, 0) + amount


class Tracer:
    """Aggregated spans keyed by (name, parent span name)."""

    def __init__(self):
        self.stats: dict = {}
        self._stack: list = []

    def take(self) -> dict:
        """Return the spans recorded so far and start afresh."""
        out = dict(self.stats)
        self.stats.clear()
        return out

    def wrap(self, layer: str, name: str, fn, on_result=None):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                span = stats.get((name, parent))
                if span is None:
                    span = stats[(name, parent)] = SpanStats(layer)
                span.calls += 1
                span.total += elapsed
                span.own += elapsed - frame[1]
                if elapsed > span.longest:
                    span.longest = elapsed
            if on_result is not None:
                on_result(span, result)
            return result

        return functools.wraps(fn)(traced)


def _count_rejected(span, accepted):
    span.add("rejected", not accepted)


def _count_report(span, report):
    span.add("iterations", report.iterations)
    span.add("cuts_added", report.cuts_added)
    span.add("pool_final", len(report.pool))


def _count_cuts(span, cuts):
    span.add("cuts", len(cuts))


# (layer, owner, attribute, result hook).  Module-level functions are
# replaced in every robustmax module that imported them, so calls between
# modules pass through the wrapper too.  Helpers that one module calls from
# another (dominates from master, empty_set_cuts and support from dcg and
# ratio) are wrapped as well, so their time lands in their own layer.
TARGETS = (
    ("master", master.MasterState, "solve", None),
    ("master", master.MasterState, "add_cut", _count_rejected),
    ("master", master.MasterState, "_evaluate", None),  # private hook: one call per node
    ("dcg", dcg, "solve_robust", _count_report),
    ("dcg", dcg, "strengthen_generating_set", None),
    ("dcg", dcg, "brute_force_robust", None),
    ("dcg", dcg, "support", None),
    ("core", core.SetFunction, "value", None),
    ("core", core.SetFunction, "marginal", None),
    ("core", core, "build_cut", None),
    ("core", core, "empty_set_cuts", None),
    ("core", core, "dominates", None),
    ("core", core, "check_submodular", None),
    ("water", water, "generate_instance", None),
    ("water", water, "serialize_instance", None),
    ("water", water, "parse_instance", None),
    ("water", water.Instance, "build_oracles", None),
    ("water", water, "reduction_matrix", None),
    ("ratio", ratio, "maximize_single", None),
    ("ratio", ratio, "rescale_cuts", _count_cuts),
    ("ratio", ratio, "certify_ratio_optimal", None),
    ("ratio", ratio, "solve_ratio_robust", None),
)


class Instrumentation:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list = []

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        tracer = self.tracer
        for layer, owner, attr, hook in TARGETS:
            original = getattr(owner, attr)
            name = f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
            wrapped = tracer.wrap(layer, name, original, hook)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

        # Every water oracle is built around an evaluation callable; wrapping
        # it counts the memo misses.
        set_function = water.SetFunction

        def traced_set_function(ground_size, eval_fn, name=""):
            return set_function(ground_size, tracer.wrap("water", "evaluate", eval_fn),
                                name=name)

        self._patch(water, "SetFunction", traced_set_function)
        return tracer

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False


LAYERS = ("master", "dcg", "core", "water", "ratio")


def _sum(stats: dict, name: str, field: str, parent=...) -> float:
    return sum(getattr(span, field) for (n, p), span in stats.items()
               if n == name and (parent is ... or p == parent))


def _count(stats: dict, name: str, key: str, parent=...) -> int:
    return sum(span.counts.get(key, 0) for (n, p), span in stats.items()
               if n == name and (parent is ... or p == parent))


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(ops: dict, setup: dict) -> dict:
    """Per-layer metrics from the spans of the timed calls (``ops``) and of
    one traced set-up of the same instances (``setup``)."""
    solves = _sum(ops, "MasterState.solve", "calls")
    nodes = _sum(ops, "MasterState._evaluate", "calls")
    lookups = _sum(ops, "SetFunction.value", "calls") + _sum(ops, "SetFunction.marginal", "calls")
    evals = _sum(ops, "evaluate", "calls")
    strengthen = _sum(ops, "strengthen_generating_set", "calls")
    build_cut = _sum(ops, "build_cut", "calls")
    out = {
        "master.solve_calls": solves,
        "master.solve_s": _sum(ops, "MasterState.solve", "total"),
        "master.nodes": nodes,
        "master.us_per_node": 1e6 * _per(_sum(ops, "MasterState._evaluate", "total"), nodes),
        "master.nodes_per_solve": _per(nodes, solves),
        "master.add_cut_calls": _sum(ops, "MasterState.add_cut", "calls"),
        "master.cuts_rejected": _count(ops, "MasterState.add_cut", "rejected"),
        "master.pool_final": _count(ops, "solve_robust", "pool_final"),
        "dcg.iterations": _count(ops, "solve_robust", "iterations"),
        "dcg.cuts_added": _count(ops, "solve_robust", "cuts_added"),
        "dcg.strengthen_calls": strengthen,
        "dcg.strengthen_us": 1e6 * _per(_sum(ops, "strengthen_generating_set", "total"), strengthen),
        "core.build_cut_calls": build_cut,
        "core.build_cut_us": 1e6 * _per(_sum(ops, "build_cut", "total"), build_cut),
        "core.oracle_lookups": lookups,
        "core.oracle_lookup_s": (_sum(ops, "SetFunction.value", "total")
                                 + _sum(ops, "SetFunction.marginal", "total")),
        "core.check_submodular_s": _sum(ops, "check_submodular", "total"),
        "water.evals": evals,
        "water.eval_us": 1e6 * _per(_sum(ops, "evaluate", "total"), evals),
        "water.miss_ratio": _per(evals, lookups),
        "water.reduction_matrix_s": _sum(setup, "reduction_matrix", "total"),
        "water.parse_s": _sum(setup, "parse_instance", "total"),
        "ratio.scenario_s": _sum(ops, "maximize_single", "total"),
        "ratio.scenario_max_s": max((span.longest for (n, _), span in ops.items()
                                     if n == "maximize_single"), default=0.0),
        "ratio.reused_cuts": _count(ops, "rescale_cuts", "cuts"),
        "ratio.final_s": _sum(ops, "solve_robust", "total", parent="solve_ratio_robust"),
        "ratio.final_iterations": _count(ops, "solve_robust", "iterations",
                                         parent="solve_ratio_robust"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(span.own for span in ops.values() if span.layer == layer)
    return out


def span_table(stats: dict) -> list:
    """The aggregated spans as JSON-ready rows, longest total first."""
    rows = [{"name": n, "parent": p, "layer": s.layer, "calls": s.calls,
             "total_s": s.total, "self_s": s.own, "longest_s": s.longest,
             "counts": s.counts}
            for (n, p), s in stats.items()]
    return sorted(rows, key=lambda r: -r["total_s"])

