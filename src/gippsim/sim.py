"""Synthetic single-lane traffic workload driving the PE array.

The fleet is two int64 arrays of per-vehicle raw Q8.6 constants
(desired speed, maximum acceleration) plus two state arrays that a
``SimRun`` owns: velocity words, all starting at rest, and float64
positions, starting at fixed spacing with the leader at index 0.  Each step
applies one velocity update per vehicle, clamps the new velocity at the
vehicle's desired speed and advances its position by velocity * T.
Vehicles never interact: the point of the workload is throughput and
trace realism, not collision dynamics, so gaps are recorded as they
come (a fast follower behind a slow leader will eventually close its
gap through zero).

Every update comes from one per-run table that a single
``gipps.gipps_batch`` call fills: p4 depends only on (a, T, q), T is
fixed for a run, and q = v / V* is 0..64 raw because v <= V*.  With
V* = 1.0 (raw 64) the divider gives q = v, so the table's 65 columns
cover every q a vehicle can reach.  A step runs the datapath's own
divider and final add on the fleet's velocity array, q = div(v, V*)
and v = add(v, table.p4[i, q]), then clamps v at V*.  Every legal
update takes the same cycles (the sqrt unit takes two passes on each
radicand 2..66), so the one batch that checks the fleet's operands
gives every step's report.

Once a step changes no velocity the state is a fixed point and every
later step repeats it, so the run stops stepping and repeats the
settled velocities.  Positions come from ``np.add.accumulate`` over
blocks of steps' increments (v / 64) * T: it adds one row at a time,
in step order, the same IEEE adds as pos = pos + (v / 64) * T at each
step, so positions keep their bytes for any spacing.

``SimRun`` is a stream of blocks of steps that ``write_trace_csv``
writes to a binary file as they come, so the CLI never holds the trace;
``run_sim`` collects ``TraceRow``s for library callers, and
``format_trace``'s f-strings are the writer's byte reference.

Fleet randomness comes from numpy's PCG64 generator, seeded from
``SimConfig.seed``: ``init_fleet`` takes one (n, 2) uniform draw, so per
vehicle desired speed comes first, then acceleration, each uniform over
its configured range.  Same seed, same fleet, bit for bit.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields
from typing import BinaryIO, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import fxp
from .fxp import ONE, SCALE, ZERO, Fx, OutOfRangeError, decode, encode
from .gipps import GippsOperands, gipps_batch
from .pearray import BatchReport, PeArrayConfig, dispatch_batch
from .text import fixed_texts, int_texts, join_rows, word_texts

TRACE_HEADER = "step,vehicle_id,velocity,position_m,gap_to_leader_m"
_BLOCK_ROWS = 1 << 13       # trace rows (steps x vehicles) per block: see SimRun


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
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        lead = (self.n_vehicles - 1) * self.initial_spacing_m     # the leader's start
        if not (self.initial_spacing_m >= 0.0 and np.isfinite(lead)):     # 0 * inf is nan
            raise ConfigError("initial_spacing_m must be >= 0 and (n_vehicles - 1) * it finite")
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


def init_fleet(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """The int64 raw V* and a words per vehicle, from one draw of the seed's
    stream: row i is vehicle i's desired speed, then its acceleration."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    x = rng.uniform((cfg.min_desired_speed, cfg.min_accel),
                    (cfg.max_desired_speed, cfg.max_accel), (cfg.n_vehicles, 2))
    vstar, accel = np.array([encode(v).raw for v in x.ravel().tolist()],
                            dtype=np.int64).reshape(-1, 2).T.copy()
    return vstar, accel


def step_sim(vstar: np.ndarray, p4: np.ndarray, clamped: np.ndarray, rows: np.ndarray,
             vel: np.ndarray) -> tuple[int, bool]:
    """Advance vel (int64 raw words) in place by one step.

    ``p4`` and ``clamped`` are the run's raveled table, vehicle i's row
    at ``rows[i]``.  Returns how many of the step's updates saturated a
    stage, and whether no velocity changed: the state is then a fixed
    point, and every later step repeats this one.
    """
    q, _ = fxp.div(vel, vstar)
    q += rows
    va, va_clamped = fxp.add(vel, p4[q])
    saturated = int(np.count_nonzero(clamped[q] | va_clamped))
    np.minimum(va, vstar, out=va)           # clamp host-side
    settled = va.tobytes() == vel.tobytes()     # int64s of one shape: a tenth of array_equal's cost
    vel[:] = va
    return saturated, settled


class SimRun:
    """The workload as a stream of blocks of steps.

    Construction draws the fleet and dispatches its first operand sets,
    from rest, as one batch: that checks each vehicle's operands once
    (v stays within 0..V* after that), naming a bad vehicle.  It sets
    ``vstar``, the raw V* per vehicle; ``table``, ``gipps_batch`` over
    (vehicle i, q = 0..64) at V* = 1.0, so the update at v / V* = q adds
    ``p4[i, q]``; and ``report``.  Every legal update takes the same
    cycles, so the batch's report is each step's, and ``report`` sums
    ops, cycles and modeled time over all steps.

    Iterating yields ``(first, vels, pos)`` once per block of k steps,
    numbered from 1: the (k, n) int64 raw velocity words and float64
    positions after steps first..first + k - 1, arrays that the run never
    writes again.  A block holds at most ``_BLOCK_ROWS`` (8,192) trace rows,
    or one step: a block's write costs ~150 us plus ~160 ns a row (2-core
    Xeon) and peaks near 1.4 MiB.  When the stream ends, ``saturated_updates``
    counts the updates in which a datapath stage clamped.
    """

    def __init__(self, cfg: SimConfig, pe_cfg: PeArrayConfig = PeArrayConfig()) -> None:
        self.cfg = cfg
        self.vstar, a = init_fleet(cfg)
        # The scalar dispatch also gives perfbench's tracer the Python-bool
        # stage flags that its fxp.saturations counts (ROADMAP item 6).
        _, step = dispatch_batch([GippsOperands(Fx(ai), cfg.step_t, Fx(vi), ZERO)
                                  for ai, vi in zip(a.tolist(), self.vstar.tolist())], pe_cfg)
        self.table = gipps_batch(a[:, None], cfg.step_t.raw, ONE.raw, np.arange(ONE.raw + 1))
        # one add per step, in step order: accumulate adds left to right
        time_ns = float(np.add.accumulate(np.full(cfg.n_steps, step.modeled_time_ns))[-1])
        self.report = BatchReport(cfg.n_steps * step.ops, cfg.n_steps * step.cycles,
                                  time_ns, step.per_op_cycles)
        self.saturated_updates = 0

    def __iter__(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        cfg = self.cfg
        n, n_steps = cfg.n_vehicles, cfg.n_steps
        vel = np.zeros(n, dtype=np.int64)
        pos = np.arange(n - 1, -1, -1) * cfg.initial_spacing_m
        p4, clamped = self.table.p4.ravel(), self.table.clamped.ravel()
        rows = np.arange(n) * (ONE.raw + 1)     # vehicle i's row in the raveled table
        saturated, settled = 0, False
        per_block = max(1, _BLOCK_ROWS // n)
        for first in range(1, n_steps + 1, per_block):
            vels = np.empty((min(per_block, n_steps + 1 - first), n), dtype=np.int64)
            k = 0
            while k < len(vels) and not settled:
                sat, settled = step_sim(self.vstar, p4, clamped, rows, vel)
                saturated += sat
                vels[k] = vel
                k += 1
                if settled:     # every later step repeats this one
                    saturated += sat * (n_steps + 1 - first - k)
            vels[k:] = vel
            # One add per row, in step order: the adds a per-step
            # pos + v * T would make, stepped and settled steps alike.
            block = np.empty((len(vels) + 1, n))
            block[0] = pos
            block[1:] = vels / SCALE * decode(cfg.step_t)
            block = np.add.accumulate(block, axis=0)
            pos = block[-1]
            yield first, vels, block[1:]
        self.saturated_updates = saturated


def run_sim(
    cfg: SimConfig,
    pe_cfg: PeArrayConfig = PeArrayConfig(),
) -> tuple[list[TraceRow], BatchReport]:
    """Run the whole workload; returns the trace rows and ``SimRun.report``."""
    run = SimRun(cfg, pe_cfg)
    rows: list[TraceRow] = []
    for first, vels, block in run:
        for step, vel, pos in zip(range(first, first + len(vels)), vels, block):
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


def write_trace_csv(blocks: Iterable[tuple[int, np.ndarray, np.ndarray]], fh: BinaryIO) -> None:
    """Write a ``SimRun`` stream to binary ``fh`` as the trace CSV, block by block.

    Each block's rows are one ``join_rows`` of the ``gippsim.text`` fields of
    step, vehicle, velocity, position and gap; the bytes are those of
    ``format_trace`` on the same run's rows.
    """
    words = word_texts()
    fh.write((TRACE_HEADER + "\n").encode())
    ids: list[np.ndarray] = []
    for first, vels, pos in blocks:
        k, n = vels.shape
        ids = ids or int_texts(np.arange(n), ",")      # the same vehicles in every block
        gaps = np.zeros_like(pos)       # the leader has no gap: 0 formats cheaply, then blanked
        np.subtract(pos[:, :-1], pos[:, 1:], out=gaps[:, 1:])
        gap_fields = fixed_texts(gaps.ravel(), 6, "\n")
        for f in gap_fields:
            f[::n] = b""
        gap_fields[-1][::n] = b"\n"
        fh.write(join_rows([np.repeat(f, n) for f in int_texts(np.arange(first, first + k), ",")]
                           + [np.tile(f, k) for f in ids]
                           + [words[vels.ravel()]]
                           + fixed_texts(pos.ravel(), 6, ",") + gap_fields))


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
