import functools
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gippsim import gipps, pearray, sim, text
from gippsim.cli import main
from gippsim.fxp import RAW_MAX, VALUE_MAX, Fx, decode, encode
from gippsim.gipps import GippsOperands
from gippsim.oracle import block_oracle, pipeline_oracle
from gippsim.pearray import BatchReport, PeArrayConfig, dispatch_batch
from gippsim.sim import (
    ConfigError,
    SimConfig,
    SimRun,
    TRACE_HEADER,
    TraceRow,
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
    vstar, accel = init_fleet(cfg)
    # desired speed, then acceleration: V* = 20.0 is raw 1280, a = 2.0 raw 128
    assert [w.tolist() for w in init_fleet(single_vehicle_cfg(n_vehicles=4))] == \
        [[1280] * 4, [128] * 4]
    rows, _ = run_sim(cfg)
    assert [r.vehicle_id for r in rows] == [0, 1, 2, 3]
    # rows hold post-step state: undo the one position update
    dt = decode(cfg.step_t)
    assert [r.position_m - r.velocity * dt for r in rows] == [22.5, 15.0, 7.5, 0.0]
    for row, vs, a in zip(rows, vstar.tolist(), accel.tolist()):   # the first update starts at rest
        va = pipeline_oracle(GippsOperands(Fx(a), cfg.step_t, Fx(vs), Fx(0))).va
        assert row.velocity == decode(Fx(min(va.raw, vs)))
    assert vstar.dtype == accel.dtype == np.int64
    assert encode(cfg.min_desired_speed).raw <= vstar.min()
    assert vstar.max() <= encode(cfg.max_desired_speed).raw
    assert encode(cfg.min_accel).raw <= accel.min() <= accel.max() <= encode(cfg.max_accel).raw


def test_fleet_is_seed_deterministic():
    a = init_fleet(SimConfig(seed=7))
    b = init_fleet(SimConfig(seed=7))
    c = init_fleet(SimConfig(seed=8))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not any(np.array_equal(x, y) for x, y in zip(a, c))


def sequential_fleet(cfg):
    """The fleet drawn one value at a time from the seed's stream: per
    vehicle, desired speed, then acceleration, each encoded on its own."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    vstar, accel = [], []
    for _ in range(cfg.n_vehicles):
        vstar.append(encode(float(rng.uniform(cfg.min_desired_speed, cfg.max_desired_speed))).raw)
        accel.append(encode(float(rng.uniform(cfg.min_accel, cfg.max_accel))).raw)
    return vstar, accel


@pytest.mark.parametrize("ranges", [
    {},
    dict(max_desired_speed=VALUE_MAX, min_accel=0.015625),      # the format's ends
    dict(min_desired_speed=20.0, max_desired_speed=20.0, min_accel=2.0, max_accel=2.0),
    dict(min_desired_speed=0.1, max_desired_speed=0.1, min_accel=0.0, max_accel=200.0),
], ids=["defaults", "format-ends", "min-equals-max", "one-range-pinned"])
def test_init_fleet_is_the_sequential_draw(ranges):
    for n in (1, 2, 4, 100, 1000, 1001):
        for seed in (0, 1, 42, 2**32 - 1):
            cfg = SimConfig(n_vehicles=n, seed=seed, **ranges)
            vstar, accel = init_fleet(cfg)
            assert vstar.dtype == accel.dtype == np.int64
            assert (vstar.tolist(), accel.tolist()) == sequential_fleet(cfg), (n, seed)


def test_step_clamps_at_desired_speed():
    cfg = single_vehicle_cfg()
    vstar, _ = init_fleet(cfg)
    run = SimRun(cfg)
    vel = np.zeros(1, dtype=np.int64)
    p4, clamped, rows = run.table.p4.ravel(), run.table.clamped.ravel(), np.zeros(1, np.int64)
    # drive far past saturation
    for _ in range(400):
        step_sim(run.vstar, p4, clamped, rows, vel)
    assert vel[0] == vstar[0]


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
    desired, accel = (Fx(int(w[0])) for w in init_fleet(cfg))
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
    run = SimRun(cfg, PeArrayConfig(num_pes=2))
    [(_, [vel], [pos])] = list(run)
    assert run.report.ops == 3 and run.report.cycles == 8
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
    vstar, accel = ([Fx(raw) for raw in w.tolist()] for w in init_fleet(cfg))
    n = cfg.n_vehicles
    vel = [Fx(0)] * n
    pos = [(n - 1 - i) * cfg.initial_spacing_m for i in range(n)]
    dt = decode(cfg.step_t)
    rows = []
    ops = cycles = per_op = 0
    time_ns = 0.0
    for step in range(1, cfg.n_steps + 1):
        results, report = dispatch_batch(
            [GippsOperands(a, cfg.step_t, vs, v) for a, vs, v in zip(accel, vstar, vel)], pe_cfg)
        ops += report.ops
        cycles += report.cycles
        time_ns += report.modeled_time_ns
        per_op = max(per_op, report.per_op_cycles)
        for i, (vs, res) in enumerate(zip(vstar, results)):
            vel[i] = Fx(min(res.va.raw, vs.raw))
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
    # at 3 Hz and 7 Hz a step's modeled time is inexact, so its sum depends on the add order
    clock_hz = draw(st.sampled_from([3, 7, pearray.DEFAULT_CLOCK_HZ]))
    return cfg, PeArrayConfig(num_pes=draw(st.integers(1, 16)), clock_hz=clock_hz)


@settings(max_examples=200, deadline=None)
@given(sim_cases())
def test_run_sim_equals_per_vehicle_datapath(case):
    cfg, pe_cfg = case
    expected = per_vehicle_sim(cfg, pe_cfg)
    assert SimRun(cfg, pe_cfg).report == expected[1]     # final before any iteration
    assert run_sim(cfg, pe_cfg) == expected


@pytest.mark.parametrize("clock_hz", [3, 7])
@pytest.mark.parametrize("n_steps", [1, 2, 999, 4321])
def test_modeled_time_sums_the_steps_in_order(clock_hz, n_steps):
    cfg, pe_cfg = SimConfig(n_vehicles=5, n_steps=n_steps), PeArrayConfig(3, clock_hz)
    step = SimRun(SimConfig(n_vehicles=5, n_steps=1), pe_cfg).report.modeled_time_ns
    want = 0.0
    for _ in range(n_steps):
        want += step
    got = SimRun(cfg, pe_cfg).report.modeled_time_ns
    assert type(got) is float
    assert got == want
    if n_steps == 4321:
        assert want != n_steps * step       # the sum's rounding shows


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
    with open(path, "xb") as fh:
        write_trace_csv(SimRun(cfg), fh)
    # as lists of lines, so that a failure names the first differing row quickly
    assert path.read_text(encoding="utf-8").splitlines(keepends=True) == \
        format_trace(run_sim(cfg)[0]).splitlines(keepends=True)


@pytest.mark.parametrize("cfg, block_rows", [
    # the leader passes 2**40 after a few steps: later one-step blocks fall back
    (SimConfig(n_vehicles=2, n_steps=20, initial_spacing_m=2.0**40 - 2), 2),
    (SimConfig(n_vehicles=1, n_steps=100), sim._BLOCK_ROWS),
    # one-step blocks of n rows, each tiling the run's vehicle-id texts once
    (SimConfig(n_vehicles=sim._BLOCK_ROWS + 808, n_steps=3), sim._BLOCK_ROWS),
], ids=["crossing-2^40", "one-vehicle", "wider-than-a-block"])
def test_write_trace_csv_equals_format_trace(monkeypatch, cfg, block_rows):
    monkeypatch.setattr(sim, "_BLOCK_ROWS", block_rows)
    buf = io.BytesIO()
    write_trace_csv(SimRun(cfg), buf)
    assert buf.getvalue().decode().splitlines(keepends=True) == \
        format_trace(run_sim(cfg)[0]).splitlines(keepends=True)


@pytest.mark.parametrize("cfg", [
    SimConfig(n_vehicles=100, n_steps=500),         # the benchmark's sim_platoon shape
    SimConfig(n_vehicles=4, n_steps=12_500),        # and its sim_narrow shape
    # gaps pass through (-1, 0) and print as -0.xxxxxx
    SimConfig(n_vehicles=30, n_steps=200, initial_spacing_m=0.25, seed=3,
              min_desired_speed=1.0, max_desired_speed=60.0),
], ids=["platoon", "narrow", "gaps-in-(-1,0)"])
def test_benchmark_shapes_never_fall_back_to_per_element_texts(monkeypatch, cfg):
    def fallback(x, places, end):
        raise AssertionError(f"{len(x)} values fell back to per-element %.{places}f")

    monkeypatch.setattr(text, "_percent_texts", fallback)
    buf = io.BytesIO()
    write_trace_csv(SimRun(cfg), buf)
    trace = buf.getvalue().decode()
    # as lists of lines, so that a failure names the first differing row quickly
    assert trace.splitlines(keepends=True) == format_trace(
        run_sim(cfg)[0]).splitlines(keepends=True)
    if cfg.initial_spacing_m == 0.25:
        assert trace.count(",-0.") > 10


def test_spacing_2_45_falls_back_per_column(monkeypatch):
    calls = []
    real = text._percent_texts
    monkeypatch.setattr(text, "_percent_texts",
                        lambda x, *rest: calls.append(rest) or real(x, *rest))
    cfg = SimConfig(n_vehicles=3, n_steps=50, initial_spacing_m=2.0**45)
    buf = io.BytesIO()
    write_trace_csv(SimRun(cfg), buf)
    assert buf.getvalue().decode().splitlines(keepends=True) == format_trace(
        run_sim(cfg)[0]).splitlines(keepends=True)
    assert calls == [(6, "\n"), (6, ",")]       # gaps and positions of the one block


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
    assert out.read_text(encoding="utf-8").splitlines(keepends=True) == \
        format_trace(rows).splitlines(keepends=True)
    assert (rows, report) == per_vehicle_sim(cfg, pe_cfg)
    assert report_lines == report.lines()


def oracle_saturated(fleet, cfg, vel):
    """Updates of ``fleet``, ``init_fleet``'s words, at pre-step velocities
    ``vel`` in which the oracle clamped a stage, final add included."""
    vstar, accel = fleet
    ref = block_oracle(accel, cfg.step_t.raw, vstar, np.array(vel, dtype=np.int64))
    return int(np.count_nonzero(ref.clamped | ref.va_clamped))


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
    for _, vels, _ in run:
        for vel in vels:
            recount += oracle_saturated(fleet, cfg, before)
            before = vel.tolist()
    assert run.saturated_updates == recount > 0


# Runs whose fleet settles (or not, "unsettled") at a step that the block
# sizes in block_steps put before, at and after a block boundary.
BLOCK_CASES = {
    "spacing-12.345": SimConfig(n_vehicles=3, n_steps=3000, initial_spacing_m=12.345, seed=5),
    "unsettled": SimConfig(n_vehicles=3, n_steps=40, initial_spacing_m=12.345, seed=5),
    "p1-saturating": SimConfig(n_vehicles=6, n_steps=120, seed=3, min_desired_speed=0.5,
                               max_desired_speed=VALUE_MAX, min_accel=1.0, max_accel=200.0),
}


@functools.lru_cache(maxsize=None)
def reference_run(cfg, pe_cfg):
    """``per_vehicle_sim``'s rows and report, the oracle's recount of
    saturated updates, and the step whose update first changes no
    velocity (``n_steps`` when none does)."""
    rows, report = per_vehicle_sim(cfg, pe_cfg)
    fleet = init_fleet(cfg)
    n = cfg.n_vehicles
    before, saturated, settle = [0] * n, 0, cfg.n_steps
    for step in range(1, cfg.n_steps + 1):
        saturated += oracle_saturated(fleet, cfg, before)
        after = [int(r.velocity * 64) for r in rows[(step - 1) * n:step * n]]
        if after == before:
            settle = min(settle, step)
        before = after
    return rows, report, saturated, settle


def block_steps(cfg, settle):
    """Steps per block: small ones, one past the run, and the three
    that end a block just before, at and just after the settled step."""
    return sorted({1, 3, 7, settle - 1, settle, settle + 1, cfg.n_steps + 1} - {0})


@pytest.mark.parametrize("cfg", BLOCK_CASES.values(), ids=BLOCK_CASES)
def test_any_block_size_gives_the_per_vehicle_run(monkeypatch, cfg):
    pe_cfg = PeArrayConfig(num_pes=2)
    rows, report, saturated, settle = reference_run(cfg, pe_cfg)
    for steps in block_steps(cfg, settle):
        monkeypatch.setattr(sim, "_BLOCK_ROWS", steps * cfg.n_vehicles)
        assert run_sim(cfg, pe_cfg) == (rows, report), steps
        run = SimRun(cfg, pe_cfg)
        writes = []
        write_trace_csv(run, SimpleNamespace(write=writes.append))
        assert len(writes) == 1 + math.ceil(cfg.n_steps / steps), steps   # header, then blocks
        # as lists of lines, so that a failure names the first differing row quickly
        assert b"".join(writes).decode().splitlines(keepends=True) == \
            format_trace(rows).splitlines(keepends=True), steps
        assert run.saturated_updates == saturated, steps


@pytest.mark.parametrize("cfg", BLOCK_CASES.values(), ids=BLOCK_CASES)
def test_iterating_a_run_twice_repeats_it(cfg):
    run = SimRun(cfg)
    once = list(run)
    saturated = run.saturated_updates
    twice = list(run)
    assert run.saturated_updates == saturated
    assert [first for first, _, _ in twice] == [first for first, _, _ in once]
    for (_, vels, pos), (_, vels2, pos2) in zip(once, twice):
        assert np.array_equal(vels2, vels)
        assert np.array_equal(pos2, pos)


def test_stepping_stops_at_the_settled_step(monkeypatch):
    cfg = BLOCK_CASES["spacing-12.345"]
    settle = reference_run(cfg, PeArrayConfig(num_pes=2))[3]
    calls = []
    real = sim.step_sim
    monkeypatch.setattr(sim, "step_sim", lambda *args: calls.append(1) or real(*args))
    for steps in block_steps(cfg, settle):
        monkeypatch.setattr(sim, "_BLOCK_ROWS", steps * cfg.n_vehicles)
        calls.clear()
        for _ in SimRun(cfg):
            pass
        assert len(calls) == settle < cfg.n_steps, steps


def test_saturated_updates_default_config(capsys, tmp_path):
    assert main(["sim", "--out", str(tmp_path / "trace.csv")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "saturated_updates: 0"


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(n_steps=0)
    with pytest.raises(ConfigError):
        SimConfig(n_vehicles=0)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        SimConfig(seed=-1)
    with pytest.raises(ConfigError):
        SimConfig(initial_spacing_m=-1.0)
    for spacing in (math.nan, math.inf, -math.inf):
        for n in (1, 3):
            with pytest.raises(ConfigError, match="initial_spacing_m"):
                SimConfig(n_vehicles=n, initial_spacing_m=spacing)
    with pytest.raises(ConfigError, match="initial_spacing_m"):
        SimConfig(n_vehicles=3, initial_spacing_m=1e308)        # 2 * 1e308 is inf
    assert SimConfig(n_vehicles=3, initial_spacing_m=8e307).initial_spacing_m == 8e307
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
