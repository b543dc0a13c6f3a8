"""Operand-grid sweeps: fixed point vs the integer oracle and the ideal.

The default grid crosses every representable velocity below each
desired speed with a small set of accelerations and reaction times;
it is the domain the accelerator is meant to serve, and the sweep is
the evidence that the datapath is exact (vs the oracle) and how far
quantization pulls it from the real-arithmetic update.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .fxp import ZERO, Fx, decode, encode
from .gipps import GippsOperands, gipps_reference, gipps_step
from .oracle import pipeline_oracle

DEFAULT_VSTARS = (5.0, 10.0, 20.0, 36.0, 70.0)
DEFAULT_ACCELS = (0.5, 1.0, 2.0, 5.0)
DEFAULT_TIMES = (0.25, 0.5, 1.0)

CSV_HEADER = "a,T,vstar,v,va_fixed,va_ideal,abs_err"


def grid_cases(
    vstars: Iterable[float] = DEFAULT_VSTARS,
    accels: Iterable[float] = DEFAULT_ACCELS,
    times: Iterable[float] = DEFAULT_TIMES,
    v_equals_vstar: bool = False,
) -> Iterator[GippsOperands]:
    """Iterate every grid operand set: all raw velocities 0..vstar.raw.

    ``v_equals_vstar`` restricts the velocity axis to the single point
    v = vstar, where the update is exact.  The axes are encoded and
    checked against the instruction's preconditions before this
    returns (OutOfRangeError, InvalidOperandsError), so a bad axis
    fails before any case runs; the cases themselves stay lazy.
    """
    ea = [encode(x) for x in accels]
    et = [encode(x) for x in times]
    evs = [encode(x) for x in vstars]
    for t in et:
        for vs in evs:
            GippsOperands(ZERO, t, vs, ZERO).validate()
    return (
        GippsOperands(a, t, vs, Fx(vraw))
        for a in ea
        for t in et
        for vs in evs
        for vraw in range(vs.raw if v_equals_vstar else 0, vs.raw + 1)
    )


@dataclass
class SweepSummary:
    cases: int = 0
    mismatches: int = 0
    first_mismatch: GippsOperands | None = None
    max_abs_err: float = 0.0
    mean_abs_err: float = 0.0
    max_sqrt_iterations: int = 0
    cycle_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Bit equality with the oracle and flat 4-cycle latency."""
        return (
            self.cases > 0
            and self.mismatches == 0
            and set(self.cycle_histogram) == {4}
        )

    def lines(self) -> list[str]:
        hist = " ".join(f"{c}:{n}" for c, n in sorted(self.cycle_histogram.items()))
        return [
            f"cases: {self.cases}",
            f"oracle_mismatches: {self.mismatches}",
            f"max_abs_err: {self.max_abs_err:.9f}",
            f"mean_abs_err: {self.mean_abs_err:.9f}",
            f"max_sqrt_iterations: {self.max_sqrt_iterations}",
            f"cycle_histogram: {hist}",
        ]


def run_sweep(
    cases: Iterable[GippsOperands],
    row_sink: Callable[[str], None] | None = None,
) -> SweepSummary:
    """Evaluate each case three ways and fold the results into a summary.

    Every case runs through the pipeline, the independent integer
    oracle (bit-equality check on va and cycles), and the ideal update.
    ``row_sink``, when provided, receives the header line and then one
    newline-terminated CSV row per case; a file object's ``write``
    works directly.
    """
    summary = SweepSummary()
    hist: Counter[int] = Counter()
    err_total = 0.0
    if row_sink is not None:
        row_sink(CSV_HEADER + "\n")
    for ops in cases:
        res = gipps_step(ops)
        ref = pipeline_oracle(ops)
        if res.va.raw != ref.va.raw or res.cycles != ref.cycles:
            summary.mismatches += 1
            if summary.first_mismatch is None:
                summary.first_mismatch = ops
        ideal = gipps_reference(
            decode(ops.a), decode(ops.T), decode(ops.vstar), decode(ops.v)
        )
        err = abs(decode(res.va) - ideal)
        err_total += err
        if err > summary.max_abs_err:
            summary.max_abs_err = err
        it = res.sqrt_trace.iterations
        if it > summary.max_sqrt_iterations:
            summary.max_sqrt_iterations = it
        hist[res.cycles] += 1
        summary.cases += 1
        if row_sink is not None:
            row_sink(
                f"{decode(ops.a):.6f},{decode(ops.T):.6f},"
                f"{decode(ops.vstar):.6f},{decode(ops.v):.6f},"
                f"{decode(res.va):.6f},{ideal:.9f},{err:.9f}\n"
            )
    summary.cycle_histogram = dict(hist)
    summary.mean_abs_err = err_total / summary.cases if summary.cases else 0.0
    return summary
