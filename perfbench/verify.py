"""Correctness checks on the program's outputs, run outside the timed phase.

The expected output of each workload is rebuilt here update by update
from ``gippsim.oracle.pipeline_oracle`` (the program's independent
integer model of the instruction) and compared byte for byte with the
file the CLI wrote.  Every line that differs counts as one failed
velocity update.  The fleet draw, the host-side clamp and the position
update are restated from the documented contract, keeping the float
order ``pos + decode(v) * dt`` so positions stay IEEE-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from workloads import SWEEP_ACCELS, SWEEP_TIMES, SWEEP_VSTARS, Workload, encode_raw

SWEEP_HEADER = "a,T,vstar,v,va_fixed,va_ideal,abs_err"
TRACE_HEADER = "step,vehicle_id,velocity,position_m,gap_to_leader_m"


@dataclass
class Check:
    """What one output file showed against the oracle."""

    failed: int = 0
    max_abs_err: float = 0.0
    problems: list[str] = field(default_factory=list)


def ideal_update(a: float, T: float, vstar: float, v: float) -> float:
    """Real-arithmetic velocity update, in the program's float order."""
    ratio = v / vstar
    return v + 2.5 * a * T * (1.0 - ratio) * math.sqrt(0.025 + ratio)


def _compare(path: str, header: str, expected: Iterator[str], check: Check) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines[-1] != "":
        check.problems.append("output does not end with a newline")
    else:
        lines.pop()
    if not lines or lines[0] != header:
        check.problems.append("output header differs")
    got = iter(lines[1:])
    for want in expected:
        if next(got, None) != want:
            check.failed += 1
    extra = sum(1 for _ in got)
    if extra:
        check.problems.append(f"{extra} unexpected extra rows")


def check_sweep(path: str, oracle) -> Check:
    """Rebuild the sweep CSV for the default grid and compare."""
    check = Check()

    def rows() -> Iterator[str]:
        for a_x in SWEEP_ACCELS:
            for t_x in SWEEP_TIMES:
                for vs_x in SWEEP_VSTARS:
                    a, T, V = encode_raw(a_x), encode_raw(t_x), encode_raw(vs_x)
                    for v in range(V + 1):
                        va = oracle(a, T, V, v)
                        ideal = ideal_update(a / 64, T / 64, V / 64, v / 64)
                        err = abs(va / 64 - ideal)
                        check.max_abs_err = max(check.max_abs_err, err)
                        yield (f"{a / 64:.6f},{T / 64:.6f},{V / 64:.6f},{v / 64:.6f},"
                               f"{va / 64:.6f},{ideal:.9f},{err:.9f}")

    _compare(path, SWEEP_HEADER, rows(), check)
    return check


def check_sim(path: str, workload: Workload, seed: int, oracle) -> Check:
    """Replay the fleet from its seed through the oracle and compare."""
    s = workload.sim
    check = Check()
    rng = np.random.Generator(np.random.PCG64(workload.program_seed(seed)))
    desired, accel = [], []
    for _ in range(s.n_vehicles):     # per vehicle: desired speed, then accel
        desired.append(encode_raw(float(rng.uniform(s.min_desired_speed, s.max_desired_speed))))
        accel.append(encode_raw(float(rng.uniform(s.min_accel, s.max_accel))))
    T = encode_raw(s.step_t)
    dt = T / 64
    pos = [(s.n_vehicles - 1 - i) * s.initial_spacing_m for i in range(s.n_vehicles)]
    vel = [0] * s.n_vehicles

    def rows() -> Iterator[str]:
        for step in range(1, s.n_steps + 1):
            for i in range(s.n_vehicles):
                va = oracle(accel[i], T, desired[i], vel[i])
                ideal = ideal_update(accel[i] / 64, dt, desired[i] / 64, vel[i] / 64)
                check.max_abs_err = max(check.max_abs_err, abs(va / 64 - ideal))
                vel[i] = min(va, desired[i])          # host-side clamp
                pos[i] = pos[i] + (vel[i] / 64) * dt
            for i in range(s.n_vehicles):
                gap = "" if i == 0 else f"{pos[i - 1] - pos[i]:.6f}"
                yield f"{step},{i},{vel[i] / 64:.6f},{pos[i]:.6f},{gap}"

    _compare(path, TRACE_HEADER, rows(), check)
    return check


def check_output(path: str, workload: Workload, seed: int, gippsim) -> Check:
    """Check one output file of ``workload`` against the oracle."""
    Ops, Fx = gippsim.gipps.GippsOperands, gippsim.fxp.Fx

    def oracle(a: int, T: int, vstar: int, v: int) -> int:
        return gippsim.oracle.pipeline_oracle(Ops(Fx(a), Fx(T), Fx(vstar), Fx(v))).va.raw

    if workload.sim is None:
        return check_sweep(path, oracle)
    return check_sim(path, workload, seed, oracle)


def parse_summary(stdout: str) -> dict[str, str]:
    """``key: value`` lines the CLI printed."""
    out = {}
    for line in stdout.splitlines():
        key, sep, val = line.partition(": ")
        if sep:
            out[key.strip()] = val.strip()
    return out


def check_report(stdout: str, workload: Workload) -> tuple[int | None, list[str]]:
    """Modeled cycles the CLI reported, and any problem with its summary."""
    summary = parse_summary(stdout)
    problems = []
    try:
        if workload.sim is None:
            if int(summary["cases"]) != workload.updates:
                problems.append(f"cases {summary['cases']} != {workload.updates}")
            if int(summary["oracle_mismatches"]) != 0:
                problems.append(f"oracle_mismatches {summary['oracle_mismatches']}")
            hist = dict(part.split(":") for part in summary["cycle_histogram"].split())
            cycles = sum(int(c) * int(n) for c, n in hist.items())
        else:
            if int(summary["ops"]) != workload.updates:
                problems.append(f"ops {summary['ops']} != {workload.updates}")
            cycles = int(summary["cycles"])
    except (KeyError, ValueError) as exc:
        return None, [f"unreadable CLI summary: {exc!r}"]
    if cycles != workload.expected_cycles:
        problems.append(f"modeled cycles {cycles} != closed form {workload.expected_cycles}")
    return cycles, problems
