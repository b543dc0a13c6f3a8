"""The benchmark's view of the program, checked on a tiny workload.

perfbench drives ``gippsim.cli.main`` and checks its output files and
summary lines against the oracle; in trace mode it wraps gippsim's
functions with its own span tracer.  These tests run that same harness
code (imported from perfbench/, not restated) on a 5 x 40 sim and a
one-case-per-axis sweep, so a change that would leave the benchmark
unable to read, verify or trace a run fails here first.
"""

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer      # noqa: E402
import verify      # noqa: E402
import worker      # noqa: E402
import workloads   # noqa: E402

import gippsim             # noqa: E402
from gippsim import cli    # noqa: E402

CONTRACT = workloads.Workload(
    "contract", workloads.SimShape(n_vehicles=5, n_steps=40, pes=2))

# per_layer metrics that run.py and worker.py compute themselves, from
# call timings, output files and checks rather than from the spans
HARNESS_METRICS = {"updates_per_s", "error_rate", "float_ref_ns", "max_abs_err_mps",
                   "trace_overhead", "sweep.csv_bytes", "sim.trace_bytes"}


def test_sim_output_passes_benchmark_checks(tmp_path):
    w, seed = CONTRACT, 3
    path = tmp_path / "trace.csv"
    rc, _, stdout = worker.cli_call(cli, w.argv(seed, str(path)))
    assert rc == 0
    check = verify.check_output(str(path), w, seed, gippsim)
    assert check.failed == 0
    assert check.problems == []
    assert verify.check_report(stdout, w) == (w.expected_cycles, [])


def test_float_baseline_is_plain_and_finite():
    report = worker.float_baseline(cli)
    assert math.isfinite(report.host_ns_per_op)
    assert report.modeled_ns_per_op == 16.0
    fields = (report.host_ns_per_op, report.modeled_ns_per_op)
    assert all(type(x) is float for x in fields)      # no numpy scalars
    json.dumps(fields)


def test_every_tracer_binding_resolves_to_a_callable():
    # the tracer skips a name that is gone, and one span's metrics can
    # hide another's absence (any fxp op alone yields fxp.calls)
    missing = [f"{module}.{attr}" for module, attr, _ in tracer.BINDINGS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


@pytest.mark.parametrize("workload", ["sim", "sweep"])
def test_traced_call_yields_every_layer_metric(tmp_path, workload):
    out = str(tmp_path / "out.csv")
    if workload == "sim":
        argv, pes = CONTRACT.argv(3, out), CONTRACT.pes
    else:
        argv, pes = ["sweep", "--out", out, "--vstars", "5", "--accels", "1",
                     "--times", "0.5"], 1
    spans = tracer.Tracer()
    spans.install()
    try:
        rc, wall, _ = worker.cli_call(cli, argv, spans)
    finally:
        spans.uninstall()
    assert rc == 0
    metrics = spans.layer_metrics(wall, pes)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {entry["name"] for entry in spec["per_layer"]} - HARNESS_METRICS
    assert sorted(wanted - metrics.keys()) == []
    json.dumps(metrics, allow_nan=False)
    assert all(type(x) in (int, float) for x in metrics.values())
    if workload == "sweep":     # the block datapath runs the fxp ops and the sqrt unit
        assert metrics["fxp.calls"] > 0
        assert metrics["fxp.sqrt.passes_mean"] == 2.0
