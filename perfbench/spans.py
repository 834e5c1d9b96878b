"""Spans around tricklefair's layer boundaries, recorded from outside the package.

The tracer replaces public functions of the `topology`, `redundancy`, `model`,
`simulator`, `metrics` and `cli` modules with wrappers. Each call records a
span (id, parent id, name, start, end) plus attributes read from its
arguments and result after the end timestamp is taken, so the attribute work
lands in the caller's self time and in `trace.overhead_s`, never in the
callee's span. Nothing inside the package is edited; the package only sees
different objects behind the module attributes it already looks up.
"""
from __future__ import annotations

import functools
import os
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(index, name):
    def annotate(args, kwargs, result):
        path = _arg(args, kwargs, index, name)
        return {"bytes": os.path.getsize(path)}

    return annotate


def _topology_shape(args, kwargs, result):
    degrees = [len(nl) for nl in result.neighbor_lists]
    return {"nodes": len(degrees), "edges": sum(degrees) // 2, "degree_max": max(degrees)}


def _k_classes(args, kwargs, result):
    topo = _arg(args, kwargs, 0, "topology")
    return {"k_classes": len({(len(nl), k) for nl, k in zip(topo.neighbor_lists, result.k)})}


def dp_cells_per_sweep(topology, k_assignment) -> int:
    """Cells the per-node subset DP touches in one sweep: y(y+1)K over nodes with y >= K."""
    return sum(
        len(nl) * (len(nl) + 1) * k
        for nl, k in zip(topology.neighbor_lists, k_assignment.k)
        if len(nl) >= k
    )


def _solve(args, kwargs, result):
    topo = _arg(args, kwargs, 0, "topology")
    ka = _arg(args, kwargs, 1, "k_assignment")
    return {
        "iterations": int(result.iterations),
        "policy_mode": ka.policy.get("mode"),
        "dp_cells_per_sweep": dp_cells_per_sweep(topo, ka),
    }


def _simulate(args, kwargs, result):
    topo = _arg(args, kwargs, 0, "topology")
    params = result.params
    runs, n = result.counts.shape
    per_node = result.counts.sum(axis=0).tolist()
    return {
        "decisions": runs * n * (params.warmup_intervals + params.measured_intervals + 1),
        "measured_decisions": runs * n * params.measured_intervals,
        "transmissions": sum(per_node),
        "deliveries": sum(c * len(nl) for c, nl in zip(per_node, topo.neighbor_lists)),
    }


# (module, attribute, span name, annotation). cli binds the topology helpers
# by name, so they are wrapped where cli looks them up as well.
TRACED = [
    ("topology", "generate_grid", "topology.build", _topology_shape),
    ("topology", "generate_random_udg", "topology.build", _topology_shape),
    ("topology", "save_topology", "topology.save", _file_bytes(1, "path")),
    ("topology", "load_topology", "topology.load", _topology_shape),
    ("cli", "generate_grid", "topology.build", _topology_shape),
    ("cli", "generate_random_udg", "topology.build", _topology_shape),
    ("cli", "save_topology", "topology.save", _file_bytes(1, "path")),
    ("cli", "load_topology", "topology.load", _topology_shape),
    ("redundancy", "assign_k", "redundancy.assign_k", _k_classes),
    ("model", "solve_fixed_point", "model.solve", _solve),
    ("model", "update_map", "model.sweep", None),
    ("model", "save_solution", "model.io", _file_bytes(0, "path")),
    ("model", "save_solution_csv", "model.io", _file_bytes(0, "path")),
    ("simulator", "run_steady_state", "simulator.run", _simulate),
    ("simulator", "save_result", "simulator.io", _file_bytes(0, "path")),
    ("simulator", "save_result_csv", "simulator.io", _file_bytes(0, "path")),
    ("metrics", "fairness", "metrics.fairness", None),
    ("metrics", "compare", "metrics.compare", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """Keeps spans in memory; install() swaps the wrappers in, uninstall() restores."""

    def __init__(self, package):
        self.spans: list[dict] = []
        self.phase = "setup"
        self._stack: list[dict] = []
        self._patches = []
        for module_name, attr, span_name, annotate in TRACED:
            owner = getattr(package, module_name)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original, self._wrap(original, span_name, annotate)))

    def _wrap(self, func, name, annotate):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans),
                "parent": stack[-1]["id"] if stack else None,
                "name": name,
                "phase": self.phase,
            }
            spans.append(span)
            stack.append(span)
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                stack.pop()
            if annotate is not None:
                span.update(annotate(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def _seconds(span) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


def layer_metrics(spans: list[dict], gate1: bool) -> dict[str, float]:
    """Per-layer metrics of one traced pass (its spans plus the set-up spans).

    A layer's time sums its outermost spans, so metrics.fairness called from
    inside metrics.compare is not counted twice. Self time is a span's
    duration minus that of its direct children.
    """
    by_id = {s["id"]: s for s in spans}
    child_s: dict[int, float] = {}
    sweeps_of: dict[int, int] = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + _seconds(s)
            if s["name"] == "model.sweep":
                sweeps_of[s["parent"]] = sweeps_of.get(s["parent"], 0) + 1

    def outermost(prefix):
        for s in spans:
            parent = by_id.get(s["parent"])
            if s["name"].startswith(prefix) and (parent is None or not parent["name"].startswith(prefix)):
                yield s

    def total(name):
        return sum(_seconds(s) for s in spans if s["name"] == name)

    def attr_sum(name, key):
        return sum(s[key] for s in spans if s["name"] == name)

    def attr_max(names, key):
        return max((s[key] for s in spans if s["name"] in names), default=0)

    solves = [s for s in spans if s["name"] == "model.solve"]
    sweeps = [s for s in spans if s["name"] == "model.sweep"]
    sweep_s = sum(_seconds(s) - child_s.get(s["id"], 0.0) for s in sweeps)
    dp_cells = sum(s["dp_cells_per_sweep"] * sweeps_of.get(s["id"], 0) for s in solves)
    solve_s = total("model.solve")
    gate1_s = sum(_seconds(s) for s in solves if s["policy_mode"] == "fixed") if gate1 else 0.0
    run_s = total("simulator.run")
    decisions = attr_sum("simulator.run", "decisions")
    measured = attr_sum("simulator.run", "measured_decisions")
    transmissions = attr_sum("simulator.run", "transmissions")
    shapes = ("topology.build", "topology.load")
    return {
        "model.solve_s": solve_s,
        "model.iterations": attr_sum("model.solve", "iterations"),
        "model.sweeps": len(sweeps),
        "model.sweep_s": sweep_s / len(sweeps) if sweeps else 0.0,
        "model.solve_self_s": solve_s - sum(child_s.get(s["id"], 0.0) for s in solves),
        "model.dp_cells": dp_cells,
        "model.ns_per_dp_cell": sweep_s * 1e9 / dp_cells if dp_cells else 0.0,
        "model.io_s": total("model.io"),
        "model.io_bytes": attr_sum("model.io", "bytes"),
        "model.gate1_solve_s": gate1_s,
        "model.gate1_headroom_s": 5.0 - gate1_s,
        "simulator.run_s": run_s,
        "simulator.decisions": decisions,
        "simulator.decisions_per_s": decisions / run_s if run_s else 0.0,
        "simulator.transmissions": transmissions,
        "simulator.suppression_ratio": 1.0 - transmissions / measured if measured else 0.0,
        "simulator.deliveries": attr_sum("simulator.run", "deliveries"),
        "simulator.io_s": total("simulator.io"),
        "simulator.io_bytes": attr_sum("simulator.io", "bytes"),
        "topology.build_s": total("topology.build"),
        "topology.save_s": total("topology.save"),
        "topology.load_s": total("topology.load"),
        "topology.nodes": attr_max(shapes, "nodes"),
        "topology.edges": attr_max(shapes, "edges"),
        "topology.degree_max": attr_max(shapes, "degree_max"),
        "redundancy.assign_k_s": total("redundancy.assign_k"),
        "redundancy.k_classes": attr_max(("redundancy.assign_k",), "k_classes"),
        "metrics.s": sum(_seconds(s) for s in outermost("metrics.")),
        "cli.self_s": sum(_seconds(s) - child_s.get(s["id"], 0.0) for s in spans if s["name"] == "cli.main"),
    }
