"""Synthetic single-lane traffic workload driving the PE array.

The fleet is two per-vehicle constants (desired speed, maximum
acceleration) plus two state arrays that a ``SimRun`` owns: int64 raw
Q8.6 velocity words, all starting at rest, and float64 positions,
starting at fixed spacing with the leader at index 0.  Each step
applies one velocity update per vehicle, clamps the new velocity at the
vehicle's desired speed and advances its position by velocity * T.
Vehicles never interact: the point of the workload is throughput and
trace realism, not collision dynamics, so gaps are recorded as they
come (a fast follower behind a slow leader will eventually close its
gap through zero).

Every update comes from one per-run table (``Tail``) that a single run
of the datapath's stage body fills (``gipps.tail_table``): p4 depends
only on (a, T, q), T is fixed for a run, and q = v / V* is 0..64 raw
because v <= V*.  With V* = 1.0 (raw 64) the divider gives q = v, so
the table's 65 columns cover every q a vehicle can reach.  A step is
then q = (64 v) // V*, v = min(v + p4[i, q], V*) and pos = pos +
(v / 64) * T, elementwise; as V* <= 16383, the min equals the
saturating final add plus the clamp.  Elementwise numpy ops are the
same IEEE operations as a per-vehicle loop, so positions keep their
bytes even for a spacing that is not a multiple of 2**-12.

Once a step changes no velocity the state is a fixed point and every
later step repeats it, so the run stops stepping and takes the
remaining positions from ``np.add.accumulate`` over blocks of steps,
which adds one row at a time, in step order, as the steps would.

``SimRun`` is a stream of steps: ``write_trace_csv`` formats each step
as it comes, so the CLI never holds the trace, and ``run_sim`` collects
``TraceRow`` objects for library callers.

Fleet randomness comes from numpy's PCG64 generator, seeded from
``SimConfig.seed``; per vehicle, desired speed is drawn first, then
acceleration, both uniform over the configured ranges.  Same seed,
same fleet, bit for bit.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .fxp import FRAC_BITS, RAW_MAX, SCALE, ZERO, Fx, OutOfRangeError, decode, encode
from .gipps import GippsOperands, tail_table
from .pearray import BatchReport, PeArrayConfig, batch_report, dispatch_batch

TRACE_HEADER = "step,vehicle_id,velocity,position_m,gap_to_leader_m"
_SETTLED_ROWS = 1 << 14     # rows per position block once the fleet has settled


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


class Tail(NamedTuple):
    """A run's velocity-update table: vehicle i's update at v / V* = q
    adds ``p4[i, q]``, and a stage before the final add clamped where
    ``clamped[i, q]``; the datapath takes ``cycles[q]``."""

    vstar: np.ndarray       # raw V* per vehicle
    p4: np.ndarray          # (n, 65)
    clamped: np.ndarray     # (n, 65)
    cycles: np.ndarray      # (65,)


def init_fleet(cfg: SimConfig) -> list[Vehicle]:
    """Per-vehicle constants, drawn from the seed in vehicle order."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    fleet = []
    for _ in range(cfg.n_vehicles):
        desired = encode(float(rng.uniform(cfg.min_desired_speed, cfg.max_desired_speed)))
        accel = encode(float(rng.uniform(cfg.min_accel, cfg.max_accel)))
        fleet.append(Vehicle(desired, accel))
    return fleet


def build_tail(fleet: Sequence[Vehicle], cfg: SimConfig,
               pe_cfg: PeArrayConfig = PeArrayConfig()) -> Tail:
    """Check each vehicle's operands once and build the run's table.

    The check dispatches the fleet's first operand sets, from rest, as one
    batch (v only moves within 0..V* after that); ``dispatch_batch``
    names the offending vehicle.  Its scalar datapath runs also give
    perfbench's tracer the Python-bool stage flags that its
    ``fxp.saturations`` counts, which the table's array flags are not
    (ROADMAP item 6).
    """
    dispatch_batch([GippsOperands(veh.max_accel, cfg.step_t, veh.desired_speed, ZERO)
                    for veh in fleet], pe_cfg)
    a = np.array([veh.max_accel.raw for veh in fleet], dtype=np.int64)
    vstar = np.array([veh.desired_speed.raw for veh in fleet], dtype=np.int64)
    return Tail(vstar, *tail_table(a, cfg.step_t.raw))


def step_sim(
    tail: Tail,
    vel: np.ndarray,
    pos: np.ndarray,
    cfg: SimConfig,
    pe_cfg: PeArrayConfig = PeArrayConfig(),
) -> tuple[BatchReport, int, bool]:
    """Advance vel (int64 raw words) and pos (float64) in place by one step.

    Returns the step's report, how many of its updates saturated a
    stage, and whether no velocity changed: the state is then a fixed
    point, and every later step repeats this one.
    """
    i = np.arange(len(vel))
    q = (vel << FRAC_BITS) // tail.vstar
    va = vel + tail.p4[i, q]
    saturated = int(np.count_nonzero(tail.clamped[i, q] | (va > RAW_MAX)))
    va = np.minimum(va, tail.vstar)         # clamp host-side
    settled = np.array_equal(va, vel)
    vel[:] = va
    pos += vel / SCALE * decode(cfg.step_t)
    return batch_report(len(vel), int(tail.cycles[q].max()), pe_cfg), saturated, settled


class SimRun:
    """The workload as a stream of steps.

    Iterating yields ``(step, vel, pos)`` after each step, numbered from
    1: int64 raw velocity words and float64 positions, arrays the run
    goes on to update, so a consumer reads them before asking for the
    next step.  When the stream ends, ``report`` sums ops, cycles and
    modeled time over all steps, and ``saturated_updates`` counts the
    updates in which a datapath stage clamped.
    """

    def __init__(self, cfg: SimConfig, pe_cfg: PeArrayConfig = PeArrayConfig()) -> None:
        self.cfg = cfg
        self.pe_cfg = pe_cfg
        self.report = BatchReport(0, 0, 0.0, 0)
        self.saturated_updates = 0

    def __iter__(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        cfg = self.cfg
        tail = build_tail(init_fleet(cfg), cfg, self.pe_cfg)
        n = cfg.n_vehicles
        vel = np.zeros(n, dtype=np.int64)
        pos = np.arange(n - 1, -1, -1) * cfg.initial_spacing_m
        ops = cycles = per_op = saturated = 0
        time_ns = 0.0
        for step in range(1, cfg.n_steps + 1):
            report, sat, settled = step_sim(tail, vel, pos, cfg, self.pe_cfg)
            ops += report.ops
            cycles += report.cycles
            time_ns += report.modeled_time_ns
            per_op = max(per_op, report.per_op_cycles)
            saturated += sat
            yield step, vel, pos
            if settled:
                break
        rest = cfg.n_steps - step
        for _ in range(rest):           # one add per step, in step order
            time_ns += report.modeled_time_ns
        self.report = BatchReport(ops + rest * report.ops, cycles + rest * report.cycles,
                                  time_ns, per_op)
        self.saturated_updates = saturated + rest * sat
        # Settled: every later step adds the same increment to each
        # position.  accumulate adds one row at a time, the same IEEE
        # adds in the same order as the steps would make.
        inc = vel / SCALE * decode(cfg.step_t)
        chunk = max(1, _SETTLED_ROWS // n)
        while step < cfg.n_steps:
            block = np.empty((min(chunk, cfg.n_steps - step) + 1, n))
            block[0] = pos
            block[1:] = inc
            block = np.add.accumulate(block, axis=0)
            for pos in block[1:]:
                step += 1
                yield step, vel, pos


def run_sim(
    cfg: SimConfig,
    pe_cfg: PeArrayConfig = PeArrayConfig(),
) -> tuple[list[TraceRow], BatchReport]:
    """Run the whole workload; returns the trace rows and ``SimRun.report``."""
    run = SimRun(cfg, pe_cfg)
    rows: list[TraceRow] = []
    for step, vel, pos in run:
        n = len(pos)
        gaps = [None] + (pos[:-1] - pos[1:]).tolist()
        rows += map(TraceRow, [step] * n, range(n), (vel / SCALE).tolist(), pos.tolist(), gaps)
    return rows, run.report


def format_trace(rows: Sequence[TraceRow]) -> str:
    buf = io.StringIO()
    buf.write(TRACE_HEADER + "\n")
    for row in rows:
        buf.write(row.csv() + "\n")
    return buf.getvalue()


def write_trace_csv(steps: Iterable[tuple[int, np.ndarray, np.ndarray]], path: str) -> None:
    """Write a ``SimRun`` stream as the trace CSV, one step at a time.

    Each step's rows come from one %-template over the fleet, with the
    velocity column from a raw -> "%.6f" table; the bytes are those of
    ``format_trace`` on the same run's rows.
    """
    # raw / 64 has at most six decimals, so its "%.6f" is exactly the
    # integer part and one of 64 fractions: much cheaper than 16,384 formats
    fractions = [".%06d" % (k * 10**6 // SCALE) for k in range(SCALE)]
    text = [i + f for i in map(str, range((RAW_MAX + 1) // SCALE)) for f in fractions]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        template = None
        for step, vel, pos in steps:
            if template is None:
                n = len(pos)
                template = "%d,0,%s,%.6f,%s\n" + "".join(
                    f"%d,{i},%s,%.6f,%.6f\n" for i in range(1, n))
                args: list = [""] * (4 * n)
            args[0::4] = [step] * n
            args[1::4] = [text[v] for v in vel.tolist()]
            args[2::4] = pos.tolist()
            args[7::4] = (pos[:-1] - pos[1:]).tolist()
            fh.write(template % tuple(args))


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
