"""Per-layer tracing of mhdrecon from outside the program.

``Tracer.install`` replaces the public functions of each layer with timing
wrappers, in every mhdrecon module that binds them, and ``uninstall`` puts
the originals back. Nothing in ``src/`` changes.

A span is one call of a wrapped function: its layer, start, end, the span
that caused it and the request it belongs to. The leaf layers (FFT pair,
Leray projection, point evaluation) run tens of thousands of times per
request, so they are counted and timed but keep no span records.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

from mhdrecon import fields, oracles, scenarios, snapshots, solver, topology

# metric name, unit; the order in which the traced run prints them
PER_LAYER = [
    ("solver.simulate_s", "s"),
    ("solver.steps", "count"),
    ("solver.step_ms", "ms"),
    ("solver.sink_s", "s"),
    ("fields.fft_calls", "count"),
    ("fields.fft_s", "s"),
    ("fields.project_calls", "count"),
    ("fields.project_s", "s"),
    ("fields.eval_calls", "count"),
    ("fields.eval_points", "count"),
    ("fields.eval_s", "s"),
    ("fields.sup_norm_calls", "count"),
    ("fields.sup_norm_s", "s"),
    ("oracles.exact_b_s", "s"),
    ("topology.signature_s", "s"),
    ("topology.newton_s", "s"),
    ("topology.critical_points", "count"),
    ("topology.separatrix_s", "s"),
    ("topology.separatrix_launched", "count"),
    ("topology.separatrix_arrived", "count"),
    ("topology.flow_map_s", "s"),
    ("topology.flow_map_points", "count"),
    ("topology.trace_s", "s"),
    ("topology.trace_steps", "count"),
    ("topology.line_distance_s", "s"),
    ("topology.frozen_in_check_s", "s"),
    ("snapshots.write_s", "s"),
    ("snapshots.bytes_written", "B"),
    ("scenarios.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_steps(counts, args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "cfg")
    initial = _arg(args, kwargs, 1, "initial")
    total = cfg.t_end - initial.t
    steps = int(np.floor(total / cfg.dt + 1e-9))
    if total - steps * cfg.dt >= 1e-12 * max(1.0, abs(cfg.t_end)):
        steps += 1
    counts["solver.steps"] += steps


def _count_eval_points(counts, args, kwargs, result):
    counts["fields.eval_points"] += len(_arg(args, kwargs, 1, "pts"))


def _count_points(counts, args, kwargs, result):
    counts["topology.critical_points"] += len(result)


def _count_separatrices(counts, args, kwargs, result):
    counts["topology.separatrix_launched"] += 4 * len(_arg(args, kwargs, 1, "saddles"))
    counts["topology.separatrix_arrived"] += sum(result)


def _count_flow_points(counts, args, kwargs, result):
    counts["topology.flow_map_points"] += len(np.atleast_2d(_arg(args, kwargs, 1, "seeds")))


def _count_trace_steps(counts, args, kwargs, result):
    counts["topology.trace_steps"] += len(result) - 1


def _count_bytes(counts, args, kwargs, result):
    counts["snapshots.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# span name, owner, attribute, counter, keeps span records. A module owner
# is patched wherever an mhdrecon module binds the same function object;
# project_coeffs only where the solver looks it up.
LAYERS = [
    ("solver.simulate", solver, "simulate", _count_steps, True),
    ("fields.fft", fields.TorusGrid, "to_grid", None, False),
    ("fields.fft", fields.TorusGrid, "from_grid", None, False),
    ("fields.project", solver, "project_coeffs", None, False),
    ("fields.eval", fields.FieldEvaluator, "values", _count_eval_points, False),
    ("fields.eval", fields.FieldEvaluator, "values_and_jacobians", _count_eval_points, False),
    ("fields.sup_norm", fields, "c1_norm", None, True),
    ("fields.sup_norm", topology, "sup_field_and_gradient", None, True),
    ("oracles.exact_b", oracles, "forced_exact_b", None, True),
    ("topology.signature", topology, "extract_signature", None, True),
    ("topology.newton", topology, "find_critical_points", _count_points, True),
    ("topology.separatrix", topology, "detect_saddle_connections", _count_separatrices, True),
    ("topology.flow_map", topology, "flow_map", _count_flow_points, True),
    ("topology.trace", topology, "trace_integral_line", _count_trace_steps, True),
    ("topology.line_distance", topology, "distance_to_polyline", None, True),
    ("topology.frozen_in_check", topology, "verify_frozen_in", None, True),
    ("snapshots.write", snapshots, "write_state_snapshot", _count_bytes, True),
    ("snapshots.write", snapshots, "write_ndjson", _count_bytes, True),
    ("scenarios.run", scenarios, "run_scenario", None, True),
]


class Tracer:
    """Calls, inclusive time and self time per layer, plus span records."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.request: str | None = None
        self._stack: list[list] = []     # [child seconds, span index] per open call
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, count=None, keep_span: bool = True):
        """fn with each call recorded as a span of layer ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1][1] if tracer._stack else None
            frame = [0.0, None]
            if keep_span:
                frame[1] = len(tracer.spans)
                tracer.spans.append(None)
            if name == "solver.simulate":
                sinks = kwargs.pop("sinks", args[2] if len(args) > 2 else ())
                args = args[:2]
                kwargs["sinks"] = [tracer.wrap("solver.sink", s) for s in sinks]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.total[name] += end - start
                tracer.self_time[name] += end - start - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += end - start
                if keep_span:
                    tracer.spans[frame[1]] = (tracer.request, name, start, end, parent)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "mhdrecon" or n.startswith("mhdrecon.")]
        for name, owner, attr, count, keep_span in LAYERS:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, count, keep_span)
            if isinstance(owner, type) or owner is solver and attr == "project_coeffs":
                targets = [owner]
            else:
                targets = [m for m in modules if getattr(m, attr, None) is original]
            for target in targets:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """The per-layer metrics named in PER_LAYER, for everything traced so far."""
        steps = self.counts["solver.steps"]
        simulate_s = self.total["solver.simulate"] - self.total["solver.sink"]
        values = {
            "solver.simulate_s": simulate_s,
            "solver.steps": steps,
            "solver.step_ms": 1e3 * simulate_s / steps if steps else 0.0,
            "solver.sink_s": self.total["solver.sink"],
            "scenarios.self_s": self.self_time["scenarios.run"],
            "cli.self_s": self.self_time["cli.main"],
            "trace.overhead_s": overhead_s,
        }
        for metric, _ in PER_LAYER:
            if metric in values:
                continue
            layer, _, what = metric.rpartition("_")
            if what == "s":
                values[metric] = self.total[layer]
            elif what == "calls":
                values[metric] = self.calls[layer]
            else:
                values[metric] = self.counts[metric]
        return values

    def write(self, path) -> None:
        """Span records and per-layer totals as one JSON document."""
        doc = {
            "spans": [
                {"request": r, "layer": n, "start": s, "end": e, "parent": p}
                for r, n, s, e, p in self.spans
            ],
            "layers": {
                name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time[name]}
                for name in sorted(self.calls)
            },
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
