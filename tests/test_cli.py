import os
import stat
import subprocess
import sys
import threading

import pytest

from gippsim import cli, sim
from gippsim.cli import build_parser, main
from gippsim.fxp import Fx
from gippsim.gipps import InvalidOperandsError
from gippsim.sim import TRACE_HEADER, SimConfig, load_sim_config
from gippsim.sweep import CSV_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_step_prints_trace(capsys):
    code, out, _ = run_cli(capsys, "step", "--a", "2.0", "--t", "0.5",
                           "--vstar", "20.0", "--v", "0.0")
    assert code == 0
    assert "va  raw=    28     0.437500" in out
    assert out.strip().endswith("cycles: 4")
    for stage in ("q", "f", "r", "s", "p1", "p2", "p3", "p4"):
        assert any(line.startswith(stage + " ") for line in out.splitlines())


@pytest.mark.parametrize("flags, lines", [
    (["--a", "2.0", "--t", "0.5", "--vstar", "20.0", "--v", "0.0"], [
        "q   raw=     0     0.000000",
        "f   raw=    64     1.000000",
        "r   raw=     2     0.031250",
        "s   raw=    11     0.171875",
        "p1  raw=   320     5.000000",
        "p2  raw=   160     2.500000",
        "p3  raw=   160     2.500000",
        "p4  raw=    28     0.437500",
        "va  raw=    28     0.437500",
        "cycles: 4"]),
    (["--a", "255.984375", "--t", "255.984375", "--vstar", "255.984375", "--v", "100"], [
        "q   raw=    25     0.390625",
        "f   raw=    39     0.609375",
        "r   raw=    27     0.421875",
        "s   raw=    41     0.640625",
        "p1  raw= 16383   255.984375",          # p1 and p2 clamp
        "p2  raw= 16383   255.984375",
        "p3  raw=  9983   155.984375",
        "p4  raw=  6395    99.921875",
        "va  raw= 12795   199.921875",
        "cycles: 4"]),
], ids=["from-rest", "p1-p2-clamp"])
def test_step_prints_every_stage_va_and_cycles(capsys, flags, lines):
    assert run_cli(capsys, "step", *flags) == (0, "".join(line + "\n" for line in lines), "")


def test_step_at_desired_speed(capsys):
    code, out, _ = run_cli(capsys, "step", "--a", "2.0", "--t", "1.0",
                           "--vstar", "20.0", "--v", "20.0")
    assert code == 0
    assert "20.000000" in out
    assert "cycles: 4" in out


def test_step_rejects_zero_desired_speed(capsys):
    code, _, err = run_cli(capsys, "step", "--a", "1", "--t", "1",
                           "--vstar", "0", "--v", "0")
    assert code == 1
    assert "desired speed must be positive" in err


def test_step_rejects_out_of_range_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["step", "--a", "300.0", "--t", "1", "--vstar", "20", "--v", "0"])
    assert exc.value.code == 2


def test_sqrt_examples(capsys):
    code, out, _ = run_cli(capsys, "sqrt", "--s", "4.0")
    assert code == 0
    assert "result: raw=128  2.000000" in out
    code, out, _ = run_cli(capsys, "sqrt", "--s", "0.03125")
    assert code == 0
    assert "result: raw=11  0.171875" in out
    assert "iterations: 2" in out


def test_sqrt_rejects_negative(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sqrt", "--s", "-1"])
    assert exc.value.code == 2


def test_sweep_restricted_grid(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", "--out", str(out_csv),
                           "--vstars", "5", "--accels", "1", "--times", "0.5")
    assert code == 0
    assert "oracle_mismatches: 0" in out
    assert "cycle_histogram: 4:321" in out     # 5 m/s -> raws 0..320
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 322


def test_sweep_v_equals_vstar_is_exact(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", "--out", str(out_csv),
                           "--v-equals-vstar")
    assert code == 0
    assert "max_abs_err: 0.000000000" in out
    for line in out_csv.read_text(encoding="utf-8").splitlines()[1:]:
        assert line.endswith(",0.000000000")


def test_sweep_unwritable_path(capsys):
    code, _, err = run_cli(capsys, "sweep", "--out", "/nonexistent/x.csv")
    assert code == 1
    assert err == "i/o error: [Errno 2] No such file or directory: '/nonexistent/x.csv'\n"


@pytest.mark.parametrize("axis", [
    ("--vstars", "0"), ("--vstars", "300"), ("--times", "0"), ("--accels", "-1"),
])
def test_sweep_bad_axis_keeps_existing_output(capsys, tmp_path, axis):
    out_csv = tmp_path / "sweep.csv"
    out_csv.write_bytes(b"keep me\n")
    code, _, err = run_cli(capsys, "sweep", "--out", str(out_csv), *axis)
    assert code == 1
    assert err.startswith("error: ")
    assert out_csv.read_bytes() == b"keep me\n"


@pytest.mark.parametrize("axis", [("--vstars", ""), ("--times", ",")])
def test_sweep_empty_axis_entry_is_a_usage_error(capsys, tmp_path, axis):
    """An empty entry in an axis fails its float conversion in argparse:
    exit 2 before the output is opened."""
    out_csv = tmp_path / "sweep.csv"
    out_csv.write_bytes(b"keep me\n")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--out", str(out_csv), *axis])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {axis[0]}: could not convert string to float: ''\n")
    assert out_csv.read_bytes() == b"keep me\n"


def test_sweep_interrupted_mid_write_keeps_existing_output(monkeypatch, tmp_path):
    real = cli.run_sweep

    class FailingFile:
        """``fh`` with a write that raises on its fourth call, mid-grid."""

        def __init__(self, fh):
            self.fh, self.calls = fh, 0

        def write(self, data):
            self.calls += 1
            if self.calls == 4:
                raise KeyboardInterrupt
            return self.fh.write(data)

    def run_sweep(blocks, fh):
        return real(blocks, FailingFile(fh))

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    out_csv = tmp_path / "sweep.csv"
    out_csv.write_bytes(b"keep me\n")
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--out", str(out_csv)])
    assert out_csv.read_bytes() == b"keep me\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_sim_failed_write_keeps_existing_output(capsys, monkeypatch, tmp_path):
    def write_trace_csv(steps, fh):
        fh.write(b"step,vehicle_id")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_trace_csv", write_trace_csv)
    out_csv = tmp_path / "trace.csv"
    out_csv.write_bytes(b"keep me\n")
    code, _, err = run_cli(capsys, "sim", "--out", str(out_csv), "--n-steps", "2")
    assert code == 1
    assert "disk full" in err
    assert out_csv.read_bytes() == b"keep me\n"
    assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]


def test_sim_bad_operands_fail_before_output_is_opened(capsys, monkeypatch, tmp_path):
    def dispatch_batch(batch, pe_cfg):
        raise InvalidOperandsError("operand 3: velocity raw 9 exceeds desired speed raw 5")

    entered = []
    real = cli._replacing
    monkeypatch.setattr(sim, "dispatch_batch", dispatch_batch)
    monkeypatch.setattr(cli, "_replacing", lambda path: entered.append(path) or real(path))
    code, _, err = run_cli(capsys, "sim", "--out", str(tmp_path / "trace.csv"), "--n-steps", "2")
    assert code == 1
    assert err == "error: operand 3: velocity raw 9 exceeds desired speed raw 5\n"
    assert entered == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, entry", [("sweep", "run_sweep"), ("sim", "write_trace_csv")])
def test_empty_out_fails_before_any_compute(capsys, monkeypatch, tmp_path, command, entry):
    """``--out ""`` names the working directory, which is opened in place
    and fails: no run starts and no temp file lands beside or above it."""
    entered = []
    monkeypatch.setattr(cli, entry, lambda *args: entered.append(args))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code, out, err = run_cli(capsys, command, "--out", "")
    assert code == 1
    assert (out, err) == ("", "i/o error: [Errno 2] No such file or directory: ''\n")
    assert entered == []
    assert list(tmp_path.iterdir()) == [work]
    assert list(work.iterdir()) == []


def sim_over_kept_output(capsys, tmp_path, source):
    """``gippsim sim`` over an existing output, given the flags ``source`` or,
    after ``--config``, a file holding its text: the exit code and stderr,
    once the output is shown untouched and no file is left beside it."""
    argv = list(source)
    if argv[0] == "--config":
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(argv[1], encoding="utf-8")
        argv[1] = str(cfg)
    out_csv = tmp_path / "trace.csv"
    out_csv.write_bytes(b"keep me\n")
    code, _, err = run_cli(capsys, "sim", "--out", str(out_csv), *argv)
    assert out_csv.read_bytes() == b"keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["trace.csv"] + (["sim.cfg"] if argv[0] == "--config" else []))
    return code, err


@pytest.mark.parametrize("source, error", [
    (("--seed", "-1"), "seed must be >= 0"),
    (("--config", "seed = -1\n"), "seed must be >= 0"),
    (("--step-t", "300"), "step_t not representable: 300.0 outside [0, 255.984375]"),
    (("--config", "step_t = 300\n"), "step_t not representable: 300.0 outside [0, 255.984375]"),
], ids=["flag", "file", "step-t-flag", "step-t-file"])
def test_sim_negative_seed_keeps_existing_output(capsys, tmp_path, source, error):
    """A negative seed, or a step time the format cannot hold."""
    assert sim_over_kept_output(capsys, tmp_path, source) == (1, f"error: {error}\n")


def test_output_replaces_symlink_target(capsys, tmp_path):
    target = tmp_path / "trace.csv"
    target.write_bytes(b"old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, _, _ = run_cli(capsys, "sim", "--out", str(link), "--n-steps", "1")
    assert code == 0
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8").startswith(TRACE_HEADER + "\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "trace.csv"]


def test_sim_writes_to_fifo_in_place(capsys, tmp_path):
    # a device or FIFO (/dev/null, a pipe) is written, never replaced
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, _, _ = run_cli(capsys, "sim", "--out", str(fifo), "--n-steps", "1")
    reader.join(timeout=30)
    assert code == 0
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got and got[0].startswith(TRACE_HEADER.encode())
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


def test_sweep_writes_to_fifo_in_place(capsys, tmp_path):
    axes = ["--vstars", "5", "--accels", "1", "--times", "0.5"]
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, out, err = run_cli(capsys, "sweep", "--out", str(fifo), *axes)
    reader.join(timeout=30)
    assert (code, err) == (0, "")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    out_csv = tmp_path / "sweep.csv"
    assert run_cli(capsys, "sweep", "--out", str(out_csv), *axes) == (0, out, "")
    assert got == [out_csv.read_bytes()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "sweep.csv"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--pes", "0"],
    ["step", "--a", "1", "--t", "1", "--vstar", "1", "--v", "0",
     "--config", "/nonexistent"],
    ["sqrt", "--s", "1", "--clock-hz", "1"],
])
def test_subcommands_reject_options_they_ignore(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_sim_flags_cover_every_config_key():
    args = build_parser().parse_args([
        "sim", "--step-t", "0.25", "--n-steps", "7", "--n-vehicles", "3",
        "--initial-spacing-m", "4.5", "--seed", "11",
        "--min-desired-speed", "12", "--max-desired-speed", "13",
        "--min-accel", "1.5", "--max-accel", "2.5",
    ])
    overrides = {key: getattr(args, key) for key in (
        "step_t", "n_steps", "n_vehicles", "initial_spacing_m", "seed",
        "min_desired_speed", "max_desired_speed", "min_accel", "max_accel")}
    assert load_sim_config(None, overrides) == SimConfig(
        step_t=Fx(16), n_steps=7, n_vehicles=3, initial_spacing_m=4.5, seed=11,
        min_desired_speed=12.0, max_desired_speed=13.0, min_accel=1.5, max_accel=2.5,
    )


def test_sim_writes_trace(capsys, tmp_path):
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "sim", "--out", str(out_csv),
                           "--n-vehicles", "4", "--n-steps", "3", "--pes", "2")
    assert code == 0
    assert "trace: " in out and "(12 rows)" in out
    assert "cycles: 24" in out                 # 3 steps * ceil(4/2)*4
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 13


def test_sim_reads_config_file(capsys, tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n_vehicles = 2\nn_steps = 2\nseed = 9\n", encoding="utf-8")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli(capsys, "sim", "--config", str(cfg), "--out", str(out_a))[0] == 0
    # CLI override beats the file
    code, out, _ = run_cli(capsys, "sim", "--config", str(cfg),
                           "--out", str(out_b), "--n-steps", "1")
    assert code == 0
    assert len(out_a.read_text().splitlines()) == 5
    assert len(out_b.read_text().splitlines()) == 3


def test_sim_deterministic_across_pes(capsys, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    common = ["sim", "--n-vehicles", "6", "--n-steps", "4", "--seed", "5"]
    assert main(common + ["--out", str(out_a), "--pes", "1"]) == 0
    assert main(common + ["--out", str(out_b), "--pes", "4"]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sim_missing_config(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sim", "--config",
                           str(tmp_path / "absent.cfg"))
    assert code == 1
    assert "i/o error" in err


def test_sim_invalid_config_value(capsys, tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n_steps = 0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "sim", "--config", str(cfg),
                           "--out", str(tmp_path / "t.csv"))
    assert code == 1
    assert "n_steps" in err


@pytest.mark.parametrize("source", [
    ("--initial-spacing-m", "nan"),
    ("--initial-spacing-m", "inf"),
    ("--n-vehicles", "3", "--initial-spacing-m", "1e308"),    # the leader's start overflows
    ("--config", "initial_spacing_m = nan\n"),
    ("--config", "n_vehicles = 1\ninitial_spacing_m = inf\n"),
], ids=["flag-nan", "flag-inf", "flag-overflow", "file-nan", "file-inf-one-vehicle"])
def test_sim_non_finite_spacing_keeps_existing_output(capsys, tmp_path, source):
    code, err = sim_over_kept_output(capsys, tmp_path, source)
    assert code == 1
    assert err.startswith("error: initial_spacing_m must be >= 0 and ")


def test_bench_reports_modeled_and_host(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n-ops", "20",
                           "--iterations", "100")
    assert code == 0
    fields = dict(
        line.split(": ", 1) for line in out.splitlines() if ": " in line
    )
    assert fields["modeled_ns_per_op"] == "16.000"
    assert float(fields["host_ns_per_op"]) > 0.0
    assert fields["host_iterations"] == "100"
    assert float(fields["modeled_ratio"]) == pytest.approx(
        float(fields["host_ns_per_op"]) / 16.0, rel=1e-3)
    assert "144 ns" in out and "9x" in out


def test_bench_rejects_few_iterations(capsys):
    code, _, err = run_cli(capsys, "bench", "--iterations", "50")
    assert code == 1
    assert "iterations" in err
    assert run_cli(capsys, "bench", "--n-ops", "0") == (1, "", "error: n_ops must be >= 1\n")


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "gippsim.cli", "sqrt", "--s", "2.0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "result: raw=90  1.406250" in proc.stdout


def test_back_to_back_main_calls_print_what_fresh_processes_print(capsys, monkeypatch, tmp_path):
    """``build_parser`` is built once per process; calls that share it,
    an argparse error among them, each act as a fresh process does."""
    runs = [["sweep", "--out", "s.csv", "--vstars", "5,10", "--accels", "1", "--times", "0.5"],
            ["sim", "--out", "t.csv", "--n-vehicles", "4", "--n-steps", "3"],
            ["sweep", "--out", "s.csv", "--vstars", "x"],
            ["sweep", "--out", "s.csv", "--vstars", "5", "--accels", "200", "--times", "1"]]
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    build_parser()
    built = build_parser.cache_info().misses
    codes = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        files = {name: (tmp_path / name).read_bytes() for name in ("s.csv", "t.csv")
                 if (tmp_path / name).exists()}
        fresh = subprocess.run([sys.executable, "-m", "gippsim.cli", *argv], env=env,
                               cwd=tmp_path, capture_output=True, text=True)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert files == {name: (tmp_path / name).read_bytes() for name in files}
        codes.append(code)
    assert codes == [0, 0, 2, 0]
    assert build_parser.cache_info().misses == built     # no call built a parser again
