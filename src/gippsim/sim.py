"""Synthetic single-lane traffic workload driving the PE array.

The fleet is two per-vehicle constants (desired speed, maximum
acceleration) plus two state columns that ``run_sim`` owns: raw Q8.6
velocity words, all starting at rest, and float positions, starting at
fixed spacing with the leader at index 0.  Each step applies one
velocity update per vehicle, clamps the new velocity at the vehicle's
desired speed and advances its position by velocity * T.  Vehicles
never interact: the point of the workload is throughput and trace
realism, not collision dynamics, so gaps are recorded as they come (a
fast follower behind a slow leader will eventually close its gap
through zero).

Updates come from a per-run table the real datapath fills: p4 depends
only on (a, T, q), q = v / V* is 0..64 raw and T is fixed for a run, so
each step dispatches only the (a.raw, q.raw) keys the table lacks.  As
V* <= 16383, min(v + p4, V*) equals the saturating add plus the clamp.

Fleet randomness comes from numpy's PCG64 generator, seeded from
``SimConfig.seed``; per vehicle, desired speed is drawn first, then
acceleration, both uniform over the configured ranges.  Same seed,
same fleet, bit for bit.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .fxp import FRAC_BITS, SCALE, Fx, OutOfRangeError, decode, encode
from .gipps import GippsOperands
from .pearray import BatchReport, PeArrayConfig, batch_report, dispatch_batch

TRACE_HEADER = "step,vehicle_id,velocity,position_m,gap_to_leader_m"


class ConfigError(ValueError):
    """Rejected simulation configuration."""


@dataclass(frozen=True)
class SimConfig:
    step_t: Fx = encode(0.5)
    n_steps: int = 60
    n_vehicles: int = 100
    initial_spacing_m: float = 10.0
    seed: int = 42
    min_desired_speed: float = 10.0
    max_desired_speed: float = 35.0
    min_accel: float = 1.0
    max_accel: float = 3.0

    def __post_init__(self) -> None:
        if self.step_t.raw == 0:
            raise ConfigError("step_t must encode to a nonzero word")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if self.n_vehicles < 1:
            raise ConfigError("n_vehicles must be >= 1")
        if self.initial_spacing_m < 0.0:
            raise ConfigError("initial_spacing_m must be >= 0")
        for lo, hi, what in (
            (self.min_desired_speed, self.max_desired_speed, "desired speed"),
            (self.min_accel, self.max_accel, "acceleration"),
        ):
            if lo > hi:
                raise ConfigError(f"{what} range is inverted: {lo} > {hi}")
            try:
                encode(lo), encode(hi)
            except OutOfRangeError as exc:
                raise ConfigError(f"{what} range not representable: {exc}") from None
        if encode(self.min_desired_speed).raw == 0:
            raise ConfigError("min_desired_speed quantizes to zero")


class Vehicle(NamedTuple):
    desired_speed: Fx
    max_accel: Fx


class TraceRow(NamedTuple):
    step: int
    vehicle_id: int
    velocity: float
    position_m: float
    gap_to_leader_m: float | None    # None for the lead vehicle

    def csv(self) -> str:
        gap = "" if self.gap_to_leader_m is None else f"{self.gap_to_leader_m:.6f}"
        return (
            f"{self.step},{self.vehicle_id},"
            f"{self.velocity:.6f},{self.position_m:.6f},{gap}"
        )


def init_fleet(cfg: SimConfig) -> list[Vehicle]:
    """Per-vehicle constants, drawn from the seed in vehicle order."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    fleet = []
    for _ in range(cfg.n_vehicles):
        desired = encode(float(rng.uniform(cfg.min_desired_speed, cfg.max_desired_speed)))
        accel = encode(float(rng.uniform(cfg.min_accel, cfg.max_accel)))
        fleet.append(Vehicle(desired, accel))
    return fleet


def step_sim(
    fleet: Sequence[Vehicle],
    vel: list[int],
    pos: list[float],
    tails: dict[tuple[int, int], tuple[int, int]],
    cfg: SimConfig,
    pe_cfg: PeArrayConfig = PeArrayConfig(),
) -> BatchReport:
    """Advance vel (raw words), pos and tails {(a, q): (p4, cycles)} by one step."""
    keys = [(veh.max_accel.raw, (v << FRAC_BITS) // veh.desired_speed.raw)
            for veh, v in zip(fleet, vel)]
    misses = {key: GippsOperands(veh.max_accel, cfg.step_t, veh.desired_speed, Fx(v))
              for key, veh, v in zip(keys, fleet, vel) if key not in tails}
    if misses:
        results, _ = dispatch_batch(misses.values(), pe_cfg)
        for key, res in zip(misses, results):
            tails[key] = res.p4.raw, res.cycles
    entries = [tails[key] for key in keys]
    dt = decode(cfg.step_t)
    for i, (veh, (p4, _)) in enumerate(zip(fleet, entries)):
        vel[i] = min(vel[i] + p4, veh.desired_speed.raw)    # clamp host-side
        pos[i] = pos[i] + vel[i] / SCALE * dt
    return batch_report(len(fleet), max(cycles for _, cycles in entries), pe_cfg)


def run_sim(
    cfg: SimConfig,
    pe_cfg: PeArrayConfig = PeArrayConfig(),
) -> tuple[list[TraceRow], BatchReport]:
    """Run the whole workload; returns the trace and an aggregate report.

    Trace rows carry post-step state, step numbering from 1.  The
    aggregate report sums ops, cycles and modeled time over all steps.
    """
    fleet = init_fleet(cfg)
    n = cfg.n_vehicles
    vel = [0] * n
    pos = [(n - 1 - i) * cfg.initial_spacing_m for i in range(n)]
    tails: dict[tuple[int, int], tuple[int, int]] = {}
    rows: list[TraceRow] = []
    ops = cycles = 0
    time_ns = 0.0
    per_op = 0
    for step in range(1, cfg.n_steps + 1):
        report = step_sim(fleet, vel, pos, tails, cfg, pe_cfg)
        ops += report.ops
        cycles += report.cycles
        time_ns += report.modeled_time_ns
        per_op = max(per_op, report.per_op_cycles)
        for i in range(n):
            gap = None if i == 0 else pos[i - 1] - pos[i]
            rows.append(TraceRow(step, i, vel[i] / SCALE, pos[i], gap))
    return rows, BatchReport(ops, cycles, time_ns, per_op)


def format_trace(rows: Sequence[TraceRow]) -> str:
    buf = io.StringIO()
    buf.write(TRACE_HEADER + "\n")
    for row in rows:
        buf.write(row.csv() + "\n")
    return buf.getvalue()


def write_trace_csv(rows: Sequence[TraceRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        fh.writelines(row.csv() + "\n" for row in rows)


# Every SimConfig field is a config key, with the type its value is
# parsed as: int fields as int, the rest as float (step_t is encoded
# after parsing).  Configuration files are plain "key = value" lines;
# '#' starts a comment.
CONFIG_KEYS: dict[str, type] = {
    f.name: int if isinstance(f.default, int) else float for f in fields(SimConfig)
}


def parse_config_text(text: str) -> dict[str, float | int]:
    values: dict[str, float | int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](val)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {val!r} for {key!r}") from None
    return values


def load_sim_config(
    path: str | None = None,
    overrides: Mapping[str, float | int | None] | None = None,
) -> SimConfig:
    """Build a SimConfig from defaults, an optional file, and overrides.

    Precedence, lowest to highest: built-in defaults, file values,
    overrides (``None`` override entries are ignored, so CLI flags can
    be passed through directly).
    """
    values: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read()))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = val
    if "step_t" in values:
        try:
            values["step_t"] = encode(float(values["step_t"]))
        except OutOfRangeError as exc:
            raise ConfigError(f"step_t not representable: {exc}") from None
    return SimConfig(**values)
