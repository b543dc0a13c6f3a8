import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gippsim import fxp, gipps, pearray
from gippsim.cli import main
from gippsim.fxp import RAW_MAX, VALUE_MAX, Fx, decode, encode
from gippsim.gipps import GippsOperands
from gippsim.oracle import pipeline_oracle
from gippsim.pearray import BatchReport, PeArrayConfig, dispatch_batch
from gippsim.sim import (
    ConfigError,
    SimConfig,
    SimRun,
    TRACE_HEADER,
    TraceRow,
    Vehicle,
    build_tail,
    format_trace,
    init_fleet,
    load_sim_config,
    parse_config_text,
    run_sim,
    step_sim,
    write_trace_csv,
)


def single_vehicle_cfg(**kw):
    base = dict(
        n_vehicles=1, n_steps=200,
        min_desired_speed=20.0, max_desired_speed=20.0,
        min_accel=2.0, max_accel=2.0,
    )
    base.update(kw)
    return SimConfig(**base)


def test_fleet_layout():
    cfg = SimConfig(n_vehicles=4, n_steps=1, initial_spacing_m=7.5)
    fleet = init_fleet(cfg)
    assert Vehicle._fields == ("desired_speed", "max_accel")
    rows, _ = run_sim(cfg)
    assert [r.vehicle_id for r in rows] == [0, 1, 2, 3]
    # rows hold post-step state: undo the one position update
    dt = decode(cfg.step_t)
    assert [r.position_m - r.velocity * dt for r in rows] == [22.5, 15.0, 7.5, 0.0]
    for row, v in zip(rows, fleet):             # the first update starts at rest
        va = pipeline_oracle(GippsOperands(v.max_accel, cfg.step_t, v.desired_speed, Fx(0))).va
        assert row.velocity == decode(Fx(min(va.raw, v.desired_speed.raw)))
    for v in fleet:
        assert encode(cfg.min_desired_speed).raw <= v.desired_speed.raw
        assert v.desired_speed.raw <= encode(cfg.max_desired_speed).raw
        assert encode(cfg.min_accel).raw <= v.max_accel.raw <= encode(cfg.max_accel).raw


def test_fleet_is_seed_deterministic():
    a = init_fleet(SimConfig(seed=7))
    b = init_fleet(SimConfig(seed=7))
    c = init_fleet(SimConfig(seed=8))
    assert a == b
    assert a != c


def test_step_clamps_at_desired_speed():
    cfg = single_vehicle_cfg()
    fleet = init_fleet(cfg)
    tail = build_tail(fleet, cfg)
    vel, pos = np.zeros(1, dtype=np.int64), np.zeros(1)
    # drive far past saturation
    for _ in range(400):
        step_sim(tail, vel, pos, cfg)
    assert vel[0] == fleet[0].desired_speed.raw


def test_single_vehicle_monotone_bounded_stabilizing():
    cfg = single_vehicle_cfg()
    rows, _ = run_sim(cfg)
    vels = [r.velocity for r in rows]
    assert all(b >= a for a, b in zip(vels, vels[1:]))
    assert all(v <= 20.0 for v in vels)
    assert vels[-1] == vels[-2] == 20.0


def test_single_vehicle_exact_sequence():
    # independent re-derivation: iterate the integer oracle with the
    # same clamp and position update the simulator applies
    cfg = single_vehicle_cfg(n_steps=50)
    fleet = init_fleet(cfg)
    desired, accel = fleet[0].desired_speed, fleet[0].max_accel
    rows, _ = run_sim(cfg)

    v = Fx(0)
    pos = 0.0
    dt = decode(cfg.step_t)
    for row in rows:
        ref = pipeline_oracle(GippsOperands(accel, cfg.step_t, desired, v))
        v = Fx(min(ref.va.raw, desired.raw))
        pos += decode(v) * dt
        assert row.velocity == decode(v)
        assert row.position_m == pos


def test_positions_integrate_velocity():
    cfg = SimConfig(n_vehicles=3, n_steps=1)
    fleet = init_fleet(cfg)
    vel, pos = np.zeros(3, dtype=np.int64), np.array([20.0, 10.0, 0.0])
    report, _, _ = step_sim(build_tail(fleet, cfg), vel, pos, cfg, PeArrayConfig(num_pes=2))
    assert report.ops == 3 and report.cycles == 8
    for before, after, v in zip([20.0, 10.0, 0.0], pos, vel):
        assert v > 0
        assert after == before + decode(Fx(v)) * decode(cfg.step_t)


def test_each_operand_validated_once(monkeypatch):
    validated, stepped = [], []
    real_validate, real_step = GippsOperands.validate, pearray.gipps_step
    monkeypatch.setattr(GippsOperands, "validate",
                        lambda self: validated.append(1) or real_validate(self))
    monkeypatch.setattr(pearray, "gipps_step",
                        lambda ops: stepped.append(ops) or real_step(ops))
    run_sim(SimConfig(n_vehicles=7, n_steps=3), PeArrayConfig(num_pes=2))
    assert len(validated) == len(stepped) > 0

    # criterion-8 shape: one stage-body run on arrays builds the whole
    # table, and each vehicle's operands are validated once, not per step
    validated.clear()
    ranks = []
    real_stages = gipps._stages
    monkeypatch.setattr(gipps, "_stages",
                        lambda *args: ranks.append(np.ndim(args[3])) or real_stages(*args))
    run_sim(SimConfig(n_vehicles=100, n_steps=500), PeArrayConfig(num_pes=16))
    assert ranks.count(1) == 1
    assert len(validated) == 100


def per_vehicle_sim(cfg, pe_cfg):
    """The sim with every vehicle's update run through the datapath at
    every step, the same clamp and the same position expression."""
    fleet = init_fleet(cfg)
    n = cfg.n_vehicles
    vel = [Fx(0)] * n
    pos = [(n - 1 - i) * cfg.initial_spacing_m for i in range(n)]
    dt = decode(cfg.step_t)
    rows = []
    ops = cycles = per_op = 0
    time_ns = 0.0
    for step in range(1, cfg.n_steps + 1):
        results, report = dispatch_batch(
            [GippsOperands(veh.max_accel, cfg.step_t, veh.desired_speed, v)
             for veh, v in zip(fleet, vel)], pe_cfg)
        ops += report.ops
        cycles += report.cycles
        time_ns += report.modeled_time_ns
        per_op = max(per_op, report.per_op_cycles)
        for i, (veh, res) in enumerate(zip(fleet, results)):
            vel[i] = Fx(min(res.va.raw, veh.desired_speed.raw))
            pos[i] = pos[i] + decode(vel[i]) * dt
        for i in range(n):
            gap = None if i == 0 else pos[i - 1] - pos[i]
            rows.append(TraceRow(step, i, decode(vel[i]), pos[i], gap))
    return rows, BatchReport(ops, cycles, time_ns, per_op)


@st.composite
def sim_cases(draw):
    # desired speeds down to 0.1 m/s (raw 6) make q sparse; accelerations
    # up to 200 and any step_t word saturate p1 and p2
    speed_hi = draw(st.one_of(st.floats(0.1, 1.0), st.floats(0.1, VALUE_MAX)))
    accel_hi = draw(st.floats(0.0, 200.0))
    cfg = SimConfig(
        step_t=Fx(draw(st.integers(1, RAW_MAX))),
        n_steps=draw(st.integers(1, 80)),
        n_vehicles=draw(st.integers(1, 6)),
        initial_spacing_m=draw(st.floats(0.0, 50.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
        min_desired_speed=draw(st.floats(0.1, speed_hi)),
        max_desired_speed=speed_hi,
        min_accel=draw(st.floats(0.0, accel_hi)),
        max_accel=accel_hi,
    )
    return cfg, PeArrayConfig(num_pes=draw(st.integers(1, 16)))


@settings(max_examples=200, deadline=None)
@given(sim_cases())
def test_run_sim_equals_per_vehicle_datapath(case):
    cfg, pe_cfg = case
    assert run_sim(cfg, pe_cfg) == per_vehicle_sim(cfg, pe_cfg)


def test_run_sim_aggregate_report():
    cfg = SimConfig(n_vehicles=10, n_steps=5)
    rows, report = run_sim(cfg, PeArrayConfig(num_pes=5))
    assert len(rows) == 50
    assert report.ops == 50
    assert report.cycles == 5 * (10 // 5) * 4
    assert report.per_op_cycles == 4


def test_trace_format():
    cfg = SimConfig(n_vehicles=2, n_steps=2)
    rows, _ = run_sim(cfg)
    text = format_trace(rows)
    lines = text.splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0"
    assert first[4] == ""                      # leader has no gap
    second = lines[2].split(",")
    assert second[4] == f"{rows[1].gap_to_leader_m:.6f}"
    # position columns round independently of the gap column
    gap = float(second[4])
    assert gap == pytest.approx(float(first[3]) - float(second[3]), abs=2e-6)
    for cell in (first[2], first[3]):
        assert len(cell.split(".")[1]) == 6


def test_trace_steps_are_one_based():
    rows, _ = run_sim(SimConfig(n_vehicles=1, n_steps=3))
    assert [r.step for r in rows] == [1, 2, 3]


def test_write_trace_csv_roundtrip(tmp_path):
    cfg = SimConfig(n_vehicles=2, n_steps=1)
    path = tmp_path / "trace.csv"
    write_trace_csv(SimRun(cfg), str(path))
    assert path.read_text(encoding="utf-8") == format_trace(run_sim(cfg)[0])


@pytest.mark.parametrize("cfg", [
    # far past the step where velocities settle, spacing not a multiple of 2^-12
    SimConfig(n_vehicles=3, n_steps=3000, initial_spacing_m=10.1, seed=5),
    # ... and one where pos + k * inc would round differently from k adds
    SimConfig(n_vehicles=3, n_steps=3000, initial_spacing_m=12.345, seed=5),
    SimConfig(n_vehicles=3, n_steps=3000, initial_spacing_m=0.0, seed=6),
    SimConfig(n_vehicles=1, n_steps=3000, initial_spacing_m=10.1),     # no gap column
    SimConfig(n_vehicles=7, n_steps=1, initial_spacing_m=10.1),
], ids=["spacing-10.1", "spacing-12.345", "spacing-0", "one-vehicle", "one-step"])
def test_cli_trace_equals_rows_and_per_vehicle_datapath(capsys, tmp_path, cfg):
    pe_cfg = PeArrayConfig(num_pes=2)
    out = tmp_path / "trace.csv"
    flags = [f"--{key.replace('_', '-')}={getattr(cfg, key)!r}" for key in
             ("n_steps", "n_vehicles", "initial_spacing_m", "seed")]
    assert main(["sim", "--out", str(out), "--pes", "2", *flags]) == 0
    report_lines = capsys.readouterr().out.splitlines()[1:5]
    rows, report = run_sim(cfg, pe_cfg)
    assert out.read_text(encoding="utf-8") == format_trace(rows)
    assert (rows, report) == per_vehicle_sim(cfg, pe_cfg)
    assert report_lines == report.lines()


def scalar_saturated(fleet, cfg, vel):
    """Updates at pre-step velocities ``vel`` in which some stage of the
    scalar datapath clamped, final add included."""
    count = 0
    for veh, v in zip(fleet, vel):
        _, _, clamped, c_va = gipps._stages(
            veh.max_accel.raw, cfg.step_t.raw, veh.desired_speed.raw, v, fxp.sqrt)
        count += clamped | c_va
    return count


@pytest.mark.parametrize("kw", [
    dict(min_desired_speed=0.5, min_accel=1.0, max_accel=200.0),       # p1 clamps
    dict(step_t=Fx(RAW_MAX), min_desired_speed=0.5, min_accel=1.0, max_accel=200.0),
    dict(min_desired_speed=250.0, min_accel=90.0, max_accel=102.0),    # only the final add
], ids=["p1", "p1-p2", "final-add"])
def test_saturated_updates_recount(kw):
    cfg = SimConfig(n_vehicles=6, n_steps=120, seed=3, max_desired_speed=VALUE_MAX, **kw)
    fleet = init_fleet(cfg)
    run = SimRun(cfg)
    before, recount = [0] * cfg.n_vehicles, 0
    for _, vel, _ in run:
        recount += scalar_saturated(fleet, cfg, before)
        before = vel.tolist()
    assert run.saturated_updates == recount > 0


def test_saturated_updates_default_config(capsys, tmp_path):
    assert main(["sim", "--out", str(tmp_path / "trace.csv")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "saturated_updates: 0"


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(n_steps=0)
    with pytest.raises(ConfigError):
        SimConfig(n_vehicles=0)
    with pytest.raises(ConfigError):
        SimConfig(initial_spacing_m=-1.0)
    with pytest.raises(ConfigError):
        SimConfig(min_desired_speed=30.0, max_desired_speed=20.0)
    with pytest.raises(ConfigError):
        SimConfig(min_accel=3.0, max_accel=1.0)
    with pytest.raises(ConfigError):
        SimConfig(max_desired_speed=500.0)      # not representable
    with pytest.raises(ConfigError):
        SimConfig(min_desired_speed=0.0)        # quantizes to raw 0
    with pytest.raises(ConfigError):
        SimConfig(step_t=Fx(0))


def test_parse_config_text():
    text = """
    # workload shape
    n_vehicles = 12
    n_steps = 30    # inline comment
    step_t = 0.25
    max_accel = 2.5
    """
    values = parse_config_text(text)
    assert values == {
        "n_vehicles": 12, "n_steps": 30, "step_t": 0.25, "max_accel": 2.5,
    }


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("warp_factor = 9")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("n_steps = soon")


def test_load_sim_config_precedence(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text("n_vehicles = 5\nseed = 1\n", encoding="utf-8")
    cfg = load_sim_config(str(path), {"seed": 2, "n_steps": None})
    assert cfg.n_vehicles == 5                 # from file
    assert cfg.seed == 2                       # override wins
    assert cfg.n_steps == 60                   # default, None ignored


def test_load_sim_config_defaults():
    cfg = load_sim_config()
    assert cfg == SimConfig()
    assert decode(cfg.step_t) == 0.5


def test_load_sim_config_rejects_unknown_override():
    with pytest.raises(ConfigError):
        load_sim_config(None, {"n_wheels": 4})
