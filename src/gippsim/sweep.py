"""Operand-grid sweeps: fixed point vs the integer oracle and the ideal.

The default grid crosses every representable velocity below each
desired speed with a small set of accelerations and reaction times;
it is the domain the accelerator is meant to serve, and the sweep is
the evidence that the datapath is exact (vs the oracle) and how far
quantization pulls it from the real-arithmetic update.

``grid_blocks`` is the grid's one iterator: one (a, T) block of at most
BLOCK_ROWS cases at a time (12 blocks, so 12 sqrt tables, on the default
grid).  Every case of a block goes through the array datapath, the
oracle's array form and the ideal at once, as int64 and float64 arrays.
Nothing holds the whole grid; each block's rows are one numpy record
array of ``text`` fields, written to a binary file as bytes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .fxp import RAW_MAX, SCALE, ZERO, Fx, decode, encode
from .gipps import (
    GippsOperands,
    gipps_batch,
    gipps_reference,
    gipps_reference_block,
    gipps_step,
)
from .oracle import block_oracle, pipeline_oracle
from .text import fixed_texts, join_rows, word_texts

DEFAULT_VSTARS = (5.0, 10.0, 20.0, 36.0, 70.0)
DEFAULT_ACCELS = (0.5, 1.0, 2.0, 5.0)
DEFAULT_TIMES = (0.25, 0.5, 1.0)

CSV_HEADER = "a,T,vstar,v,va_fixed,va_ideal,abs_err"

# One block: a and T words, and int64 arrays of raw V* and v, one per row.
Block = tuple[Fx, Fx, np.ndarray, np.ndarray]
BLOCK_ROWS = RAW_MAX + 1        # the cases of the largest single V* run


def grid_blocks(
    vstars: Iterable[float] = DEFAULT_VSTARS,
    accels: Iterable[float] = DEFAULT_ACCELS,
    times: Iterable[float] = DEFAULT_TIMES,
    v_equals_vstar: bool = False,
) -> Iterator[Block]:
    """Iterate the grid in CSV order (each V* with every raw velocity
    0..vstar.raw), in (a, T) blocks of consecutive V* up to BLOCK_ROWS rows.

    ``v_equals_vstar`` restricts the velocity axis to the single point
    v = vstar, where the update is exact.  The axes are encoded and
    checked against the instruction's preconditions before this
    returns (OutOfRangeError, InvalidOperandsError), so a bad axis
    fails before any case runs; the blocks themselves stay lazy.
    """
    ea = [encode(x) for x in accels]
    et = [encode(x) for x in times]
    evs = [encode(x) for x in vstars]
    for t in et:
        for vs in evs:
            GippsOperands(ZERO, t, vs, ZERO).validate()
    groups, rows = [[]], 0              # the V* words of each block, the last one's rows
    for vs in evs:
        n = 1 if v_equals_vstar else vs.raw + 1
        if rows + n > BLOCK_ROWS:
            groups, rows = groups + [[]], 0
        groups[-1].append(vs.raw)
        rows += n

    def block(words: list[int]) -> list[np.ndarray]:
        runs = [np.arange(w if v_equals_vstar else 0, w + 1, dtype=np.int64) for w in words]
        return [np.repeat(np.array(words, np.int64), list(map(len, runs))), np.concatenate(runs)]

    return ((a, t, *block(words)) for a in ea for t in et for words in groups if words)


@dataclass
class SweepSummary:
    cases: int = 0
    mismatches: int = 0
    mismatch_report: list[str] = field(default_factory=list)   # first mismatch
    saturated_cases: int = 0
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
            f"saturated_cases: {self.saturated_cases}",
        ]


def _first_difference(ours: list[tuple[str, int]], theirs: list[tuple[str, int]]) -> str | None:
    for (name, x), (_, y) in zip(ours, theirs):
        if x != y:
            return f"{name} datapath raw {x}, oracle raw {y}"
    return None


def _mismatch_report(ops: GippsOperands, words: list[tuple[str, int]],
                     oracle_words: list[tuple[str, int]]) -> list[str]:
    """The first mismatching case, where its block evaluation differs,
    and the same case re-run through the scalar datapath and oracle."""
    x = [decode(ops.a), decode(ops.T), decode(ops.vstar), decode(ops.v)]
    scalar = _first_difference(gipps_step(ops).words(), pipeline_oracle(ops).words())
    return [
        f"first mismatch: a={x[0]:.6f} T={x[1]:.6f} vstar={x[2]:.6f} v={x[3]:.6f} "
        f"(raw {ops.a.raw} {ops.T.raw} {ops.vstar.raw} {ops.v.raw}; "
        f"ideal {gipps_reference(*x):.9f})",
        f"first differing stage: {_first_difference(words, oracle_words)}",
        f"scalar re-run: {scalar or 'gipps_step and pipeline_oracle agree'}",
    ]


def run_sweep(blocks: Iterable[Block], fh: BinaryIO) -> SweepSummary:
    """Evaluate each block three ways, write it to ``fh`` and fold the
    results into a summary.

    Every case runs through the array datapath, the independent integer
    oracle's array form (bit-equality check on va and cycles), and the
    ideal update; once checked and counted, a block keeps only its va.
    The binary ``fh`` gets the header, then each block's CSV rows in one
    write: the ``word_texts`` of a,T, V*, v and va and the ``fixed_texts``
    of the ideals and errors.  The bytes and the summary are those of
    evaluating one case at a time: the same words, the same IEEE
    operations, and the mean of the errors summed in case order.
    """
    summary = SweepSummary()
    hist: Counter[int] = Counter()
    err_total = 0.0
    words = word_texts()
    fh.write((CSV_HEADER + "\n").encode())
    for a, T, vstar, v in blocks:
        res = gipps_batch(a.raw, T.raw, vstar, v)
        ref = block_oracle(a.raw, T.raw, vstar, v)
        bad = (res.va != ref.va) | (res.cycles != ref.cycles)
        if bad.any():
            summary.mismatches += int(bad.sum())
            if not summary.mismatch_report:
                i = int(bad.argmax())
                summary.mismatch_report = _mismatch_report(
                    GippsOperands(a, T, Fx(int(vstar[i])), Fx(int(v[i]))),
                    res.case(i).words(), ref.case(i).words())
        for c, n in zip(*np.unique(res.cycles, return_counts=True)):
            hist[int(c)] += int(n)
        summary.saturated_cases += int(np.count_nonzero(res.clamped | res.va_clamped))
        summary.cases += len(v)
        va = res.va
        del res, ref, bad               # the stage words are not written
        ideal = gipps_reference_block(decode(a), decode(T), vstar / SCALE, v / SCALE)
        errs = np.abs(va / SCALE - ideal)
        err_total = float(np.add.accumulate(np.append(err_total, errs))[-1])   # in case order
        summary.max_abs_err = float(errs.max(initial=summary.max_abs_err))
        row = [join_rows([words[[a.raw, T.raw]]]), words[vstar], words[v], words[va]]
        row += fixed_texts(ideal, 9, ",") + fixed_texts(errs, 9, "\n")
        del va, ideal, errs             # the fields hold the rows from here
        fh.write(join_rows(row))
    summary.cycle_histogram = dict(hist)
    summary.max_sqrt_iterations = max(hist, default=2) - 2     # cycles = 2 + passes
    summary.mean_abs_err = err_total / summary.cases if summary.cases else 0.0
    return summary
