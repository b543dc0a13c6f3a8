"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Criteria 4, 5 and 6 share one exhaustive sweep of the default operand
grid (108,348 cases).  The error-envelope constants in criterion 6 are
the measured grid values plus a 10% margin; the measured numbers are
asserted not to drift, so a datapath change that moves them fails here.
"""

import io
import math

import numpy as np
import pytest

from gippsim.cli import run_bench
from gippsim.fxp import RAW_MAX, VALUE_MAX, Fx, decode, encode, sqrt
from gippsim.gipps import GippsOperands
from gippsim.oracle import floor_isqrt
from gippsim.pearray import PeArrayConfig, dispatch_batch
from gippsim.sim import SimConfig, format_trace, init_fleet, run_sim
from gippsim.sweep import grid_blocks, run_sweep

GRID_CASES = 108_348
MAX_ABS_ERR_LIMIT = 0.4036     # measured 0.366947 + 10%
MEAN_ABS_ERR_LIMIT = 0.0195    # measured 0.017707 + 10%


def first_block_ops(n):
    """The default grid's first n cases, all in its first block."""
    a, t, vstar, v = next(grid_blocks())
    return [GippsOperands(a, t, Fx(vs), Fx(raw))
            for vs, raw in zip(vstar[:n].tolist(), v[:n].tolist())]


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def sweep_summary():
    return run_sweep(grid_blocks(), io.BytesIO())


def test_criterion_1_quantization_budget(capsys):
    rng = np.random.Generator(np.random.PCG64(1))
    xs = rng.uniform(0.0, VALUE_MAX, 1_000_000).tolist()
    worst = max(abs(decode(encode(x)) - x) for x in xs)
    ok = worst <= 0.0078125 and decode(Fx(1)) == 0.015625
    report(capsys, 1, "quantization budget", ok,
           f"max roundtrip error {worst:.10f} <= 0.0078125 over 1e6 samples, "
           f"resolution 0.015625")


def test_criterion_2_sqrt_exactness(capsys):
    mismatches = sum(
        1 for raw in range(RAW_MAX + 1)
        if sqrt(raw)[0] != floor_isqrt(raw << 6)
    )
    report(capsys, 2, "sqrt exactness", mismatches == 0,
           f"{mismatches} mismatches vs floor-isqrt over all 16384 inputs")


def test_criterion_3_sqrt_convergence(capsys):
    domain_max = max(sqrt(raw)[1].iterations for raw in range(2, 67))
    full_max = max(sqrt(raw)[1].iterations for raw in range(RAW_MAX + 1))
    report(capsys, 3, "sqrt convergence", domain_max <= 2,
           f"max {domain_max} iterations on radicand raws 2..66 "
           f"(full 14-bit domain: {full_max})")


def test_criterion_4_instruction_latency(capsys, sweep_summary):
    _, one_op = dispatch_batch(first_block_ops(1))
    ok = (
        sweep_summary.cases == GRID_CASES
        and sweep_summary.cycle_histogram == {4: GRID_CASES}
        and one_op.modeled_time_ns == 16.0
    )
    report(capsys, 4, "instruction latency", ok,
           f"cycle histogram {sweep_summary.cycle_histogram} over "
           f"{sweep_summary.cases} grid cases, modeled per-op "
           f"{one_op.modeled_time_ns} ns at 250 MHz")


def test_criterion_5_oracle_equivalence(capsys, sweep_summary):
    ok = sweep_summary.cases == GRID_CASES and sweep_summary.mismatches == 0
    report(capsys, 5, "pipeline oracle equivalence", ok,
           f"{sweep_summary.mismatches} bit mismatches over "
           f"{sweep_summary.cases} grid cases")


def test_criterion_6_accuracy_envelope(capsys, sweep_summary):
    ok = (
        sweep_summary.max_abs_err <= MAX_ABS_ERR_LIMIT
        and sweep_summary.mean_abs_err <= MEAN_ABS_ERR_LIMIT
    )
    report(capsys, 6, "accuracy envelope", ok,
           f"max {sweep_summary.max_abs_err:.6f} <= {MAX_ABS_ERR_LIMIT}, "
           f"mean {sweep_summary.mean_abs_err:.6f} <= {MEAN_ABS_ERR_LIMIT}")
    # drift guard on the measured values the limits were derived from
    assert sweep_summary.max_abs_err == pytest.approx(0.366947, abs=1e-6)
    assert sweep_summary.mean_abs_err == pytest.approx(0.017707, abs=1e-6)


def test_criterion_7_pe_scaling(capsys):
    batch = first_block_ops(1200)
    baseline = None
    ok = True
    details = []
    for p in (1, 2, 4, 8, 16):
        results, rep = dispatch_batch(batch, PeArrayConfig(num_pes=p))
        raws = [r.va.raw for r in results]
        if baseline is None:
            baseline = raws
        ok = ok and rep.cycles == 4800 // p and raws == baseline
        details.append(f"P={p}:{rep.cycles}")
    report(capsys, 7, "PE scaling", ok,
           "cycles " + " ".join(details) + ", results bit-identical")


def test_criterion_8_simulation_properties(capsys):
    bad = 0
    for seed in range(20):
        cfg = SimConfig(n_vehicles=100, n_steps=500, seed=seed)
        desired = [decode(Fx(raw)) for raw in init_fleet(cfg)[0].tolist()]
        rows, _ = run_sim(cfg)
        series = [[] for _ in range(cfg.n_vehicles)]
        for row in rows:
            series[row.vehicle_id].append(row.velocity)
        for vid, vels in enumerate(series):
            monotone = all(b >= a for a, b in zip(vels, vels[1:]))
            bounded = max(vels) <= desired[vid]
            stable = vels[-1] == vels[-2]
            if not (monotone and bounded and stable):
                bad += 1

    cfg = SimConfig(n_vehicles=100, n_steps=500, seed=42)
    trace_p1 = format_trace(run_sim(cfg, PeArrayConfig(num_pes=1))[0])
    trace_p8 = format_trace(run_sim(cfg, PeArrayConfig(num_pes=8))[0])
    identical = trace_p1.encode() == trace_p8.encode()

    report(capsys, 8, "simulation properties", bad == 0 and identical,
           f"{bad} violating vehicles over 20 seeds x 100 vehicles x 500 "
           f"steps; traces byte-identical across P=1/P=8: {identical}")


def test_criterion_9_benchmark_substitute(capsys):
    rep = run_bench(n_ops=200, iterations=100, pe_cfg=PeArrayConfig())
    ok = (
        rep.modeled_ns_per_op == 16.0
        and rep.host_iterations >= 100
        and rep.host_ns_per_op > 0.0
        and math.isfinite(rep.host_ns_per_op)
        and rep.modeled_ratio == rep.host_ns_per_op / 16.0
    )
    report(capsys, 9, "benchmark substitute", ok,
           f"modeled {rep.modeled_ns_per_op} ns/op exactly, host "
           f"{rep.host_ns_per_op:.1f} ns/op over {rep.host_iterations} "
           f"iterations, ratio {rep.modeled_ratio:.2f} "
           f"(historical context: 144 ns, 9x)")
