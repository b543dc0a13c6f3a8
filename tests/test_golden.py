"""Golden output pins: sha256 of three outputs that must never change.

A refactor of the datapath, the PE model, the workload or the CLI
keeps these bytes exactly; a change that moves any of them is a
behaviour change, not a refactor.
"""

import hashlib
import sys
from pathlib import Path

from gippsim.cli import main
from gippsim.pearray import PeArrayConfig
from gippsim.sim import SimConfig, format_trace, run_sim

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import verify      # noqa: E402
import workloads   # noqa: E402

DEFAULT_SIM_SHA = "ff6dd5331fefbf4d01ec9997e5150d327fea3957f93922097e7e8b39749e579e"
CRITERION_8_SHA = "99422bcc9203d76e6d14e6cfdeea908072241401cee212df0bac25d763f1c5f5"
DEFAULT_SWEEP_SHA = "06607def8398279d7798c654be53734a6e91fa186f7f0e192d030465d411aef9"


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_default_sim_trace(capsys, tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["sim", "--out", str(out)]) == 0
    capsys.readouterr()
    assert sha256_of(out) == DEFAULT_SIM_SHA


def test_criterion_8_trace(capsys, tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["sim", "--out", str(out), "--n-steps", "500", "--seed", "42"]) == 0
    capsys.readouterr()
    assert sha256_of(out) == CRITERION_8_SHA
    cfg = SimConfig(n_vehicles=100, n_steps=500, seed=42)
    text = format_trace(run_sim(cfg, PeArrayConfig(num_pes=8))[0])
    assert hashlib.sha256(text.encode()).hexdigest() == CRITERION_8_SHA


def test_default_sweep_csv(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert sha256_of(out) == DEFAULT_SWEEP_SHA
    assert verify.check_report(stdout, workloads.WORKLOADS["sweep_grid"]) == (433392, [])
