"""Span tracer that times gippsim's layers from outside the program.

Each public function is replaced, for the length of one traced CLI call,
by a wrapper at the binding site its caller actually looks up.  A
wrapper records one span (name, start, end, parent) in flat in-memory
arrays and reads counts from the value the function returned.  A
function that no longer exists is skipped, and the metrics built on it
are left out rather than reported as zero.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the root span.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

ROOT = "cli"

# (module, attribute, span name).  gippsim.gipps reaches the fixed-point
# ops through the module (``fxp.div(...)``), so patching gippsim.fxp
# catches exactly the datapath's calls; modules that imported an op by
# name are not affected.
BINDINGS = (
    ("gippsim.fxp", "div", "fxp.div"),
    ("gippsim.fxp", "sub", "fxp.sub"),
    ("gippsim.fxp", "add", "fxp.add"),
    ("gippsim.fxp", "mul", "fxp.mul"),
    ("gippsim.fxp", "sqrt", "fxp.sqrt"),
    ("gippsim.pearray", "gipps_step", "gipps.step"),
    ("gippsim.sweep", "gipps_step", "gipps.step"),
    ("gippsim.sweep", "pipeline_oracle", "oracle"),
    ("gippsim.sweep", "gipps_reference", "gipps.reference"),
    ("gippsim.sim", "dispatch_batch", "pearray.dispatch"),
    ("gippsim.sim", "init_fleet", "sim.init_fleet"),
    ("gippsim.sim", "step_sim", "sim.step"),
    ("gippsim.sim", "format_trace", "sim.format"),
    ("gippsim.cli", "run_sweep", "sweep.run"),
    ("gippsim.cli", "run_sim", "sim.run"),
    ("gippsim.cli", "write_trace_csv", "sim.write"),
)
FXP_OPS = ("fxp.div", "fxp.sub", "fxp.add", "fxp.mul", "fxp.sqrt")
SPAN_NAMES = (ROOT,) + tuple(dict.fromkeys(name for _, _, name in BINDINGS))


class Tracer:
    """Records spans for one traced call; create a fresh one per call."""

    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.bound: set[str] = {ROOT}
        self.counts = {"saturations": 0, "flags_seen": 0, "sqrt_passes": 0,
                       "sqrt_seen": 0, "batches": 0, "batch_ops": 0,
                       "batch_cycles": 0}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------

    def _wrap(self, name: str, fn, observe):
        name_id = self._ids[name]
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(out)
            return out

        return traced

    def call(self, fn, *args):
        """Run ``fn(*args)`` as the root span."""
        return self._wrap(ROOT, fn, None)(*args)

    def _observe_flag(self, out) -> None:
        if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], bool):
            self.counts["flags_seen"] += 1
            self.counts["saturations"] += out[1]

    def _observe_sqrt(self, out) -> None:
        passes = getattr(out[1], "iterations", None) if isinstance(out, tuple) else None
        if isinstance(passes, int):
            self.counts["sqrt_seen"] += 1
            self.counts["sqrt_passes"] += passes

    def _observe_batch(self, out) -> None:
        report = out[1] if isinstance(out, tuple) and len(out) == 2 else None
        ops, cycles = getattr(report, "ops", None), getattr(report, "cycles", None)
        if isinstance(ops, int) and isinstance(cycles, int):
            self.counts["batches"] += 1
            self.counts["batch_ops"] += ops
            self.counts["batch_cycles"] += cycles

    def install(self) -> None:
        observers = {"fxp.sqrt": self._observe_sqrt,
                     "pearray.dispatch": self._observe_batch}
        for op in FXP_OPS:
            observers.setdefault(op, self._observe_flag)
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, observers.get(name)))
            self.bound.add(name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- analysis ----------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.names, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.starts, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64).copy(),
        }

    def layer_metrics(self, wall_s: float, pes: int) -> dict[str, float]:
        """Per-layer metrics of the traced call; ``wall_s`` is its wall time."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) / 1e9
        self_s = dur.copy()
        child = a["parent"] >= 0
        np.subtract.at(self_s, a["parent"][child], dur[child])
        n = len(SPAN_NAMES)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=dur, minlength=n)
        own = np.bincount(a["name"], weights=self_s, minlength=n)
        ix = self._ids
        c = self.counts
        m: dict[str, float] = {}

        def have(*names: str) -> bool:
            return all(name in self.bound for name in names)

        def per_call_ns(name: str) -> float:
            k = calls[ix[name]]
            return float(total[ix[name]] / k * 1e9) if k else 0.0

        fxp_ops = [op for op in FXP_OPS if op in self.bound]
        if fxp_ops:
            m["fxp.calls"] = int(sum(calls[ix[op]] for op in fxp_ops))
            m["fxp.self_s"] = float(sum(own[ix[op]] for op in fxp_ops))
            if c["flags_seen"] or not m["fxp.calls"]:
                m["fxp.saturations"] = c["saturations"]
        if have("fxp.sqrt"):
            k = int(calls[ix["fxp.sqrt"]])
            m["fxp.sqrt.calls"] = k
            m["fxp.sqrt.self_s"] = float(own[ix["fxp.sqrt"]])
            if c["sqrt_seen"] or not k:
                m["fxp.sqrt.passes_mean"] = (
                    c["sqrt_passes"] / c["sqrt_seen"] if c["sqrt_seen"] else 0.0)
        for name in ("gipps.step", "gipps.reference", "oracle",
                     "pearray.dispatch", "sim.step"):
            if have(name):
                m[f"{name}.calls"] = int(calls[ix[name]])
                m[f"{name}.self_s"] = float(own[ix[name]])
        for name in ("gipps.step", "oracle"):
            if have(name):
                m[f"{name}.ns_per_call"] = per_call_ns(name)
        if have("pearray.dispatch"):
            b = c["batches"]
            m["pearray.batch_ops_mean"] = c["batch_ops"] / b if b else 0.0
            m["pearray.pe_utilization"] = (
                c["batch_ops"] * 4 / (c["batch_cycles"] * pes) if c["batch_cycles"] else 0.0)
        for name in ("sweep.run", "sim.run", "sim.write", "sim.format", ROOT):
            if have(name):
                m[f"{name}.self_s"] = float(own[ix[name]])
        if have("sim.init_fleet"):
            m["sim.init_fleet_s"] = float(total[ix["sim.init_fleet"]])
        if have("sim.step"):
            steps_us = dur[a["name"] == ix["sim.step"]] * 1e6
            for q in (50, 98):
                m[f"sim.step_us.p{q}"] = (
                    float(np.percentile(steps_us, q)) if len(steps_us) else 0.0)
        m["trace.wall_s"] = wall_s
        m["trace.self_share"] = float(own.sum()) / wall_s
        return m

    def save(self, path, request: str) -> None:
        """Write the spans of this call; all share the request id."""
        np.savez(path, names=np.array(SPAN_NAMES), request=np.array(request),
                 **self.arrays())
