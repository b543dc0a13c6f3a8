"""The benchmark's view of the program, checked on a tiny workload.

perfbench drives ``gippsim.cli.main`` and checks its output files and
summary lines against the oracle.  This test runs that same harness
code (imported from perfbench/, not restated) on a 5 x 40 sim, so a
change that would leave the benchmark unable to read or verify a run
fails here first.
"""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import verify      # noqa: E402
import worker      # noqa: E402
import workloads   # noqa: E402

import gippsim             # noqa: E402
from gippsim import cli    # noqa: E402

CONTRACT = workloads.Workload(
    "contract", workloads.SimShape(n_vehicles=5, n_steps=40, pes=2))


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
