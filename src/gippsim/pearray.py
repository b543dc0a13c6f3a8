"""Cycle model for an array of identical processing elements.

Each PE runs one velocity update at a time (no pipelining); a batch is
assigned round-robin, so a batch of N in-domain updates on P PEs costs
ceil(N / P) * 4 cycles.  PE count and clock only change the timing
model, never the arithmetic: each operand set is validated and computed
once, in batch order, by ``gipps_step``, so results are bit-identical
whatever the host does for parallelism.  The sim dispatches one batch
per run, its fleet's operand sets from rest, as the operand check; its
updates come from a table of the same datapath, and each step is
charged ``batch_report``'s cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .gipps import GippsOperands, GippsResult, InvalidOperandsError, gipps_step

DEFAULT_CLOCK_HZ = 250_000_000


@dataclass(frozen=True)
class PeArrayConfig:
    num_pes: int = 1
    clock_hz: int = DEFAULT_CLOCK_HZ

    def __post_init__(self) -> None:
        if self.num_pes < 1:
            raise ValueError("num_pes must be >= 1")
        if self.clock_hz <= 0:
            raise ValueError("clock_hz must be positive")


@dataclass(frozen=True)
class BatchReport:
    """Timing summary for one dispatched batch."""

    ops: int
    cycles: int
    modeled_time_ns: float
    per_op_cycles: int

    def lines(self) -> list[str]:
        return [
            f"ops: {self.ops}",
            f"cycles: {self.cycles}",
            f"modeled_time_ns: {self.modeled_time_ns:.3f}",
            f"per_op_cycles: {self.per_op_cycles}",
        ]


def dispatch_batch(
    batch: Iterable[GippsOperands],
    cfg: PeArrayConfig = PeArrayConfig(),
) -> tuple[list[GippsResult], BatchReport]:
    """Run a batch and model its latency on the PE array.

    Raises InvalidOperandsError naming the first offending batch index;
    the ops are pure, so the results before it are discarded.
    """
    results = []
    for i, ops in enumerate(batch):
        try:
            results.append(gipps_step(ops))
        except InvalidOperandsError as exc:
            raise InvalidOperandsError(f"operand {i}: {exc}") from None
    per_op = max((res.cycles for res in results), default=0)
    return results, batch_report(len(results), per_op, cfg)


def batch_report(ops: int, per_op: int, cfg: PeArrayConfig) -> BatchReport:
    """Modeled latency of ``ops`` updates of ``per_op`` cycles each: the
    busiest PE, the one that gets ceil(N/P) ops round-robin, sets it."""
    cycles = -(-ops // cfg.num_pes) * per_op
    return BatchReport(ops, cycles, cycles * 1e9 / cfg.clock_hz, per_op)
