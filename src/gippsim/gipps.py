"""The accelerated instruction: one Q8.6 car-following velocity update.

The datapath evaluates

    va = v + 2.5 * a * T * (1 - v/V*) * sqrt(0.025 + v/V*)

with a fixed stage order: one divide, one subtract, one constant add,
the seeded square root, then a four-multiply chain and the final add.
``gipps_reference`` is the ideal real-arithmetic counterpart used for
accuracy sweeps.  ``gipps_batch`` runs ``gipps_step``'s stage body on
raw operand words that broadcast as numpy arrays, any a, T, V* and v
per element: the sweep's blocks and the sim's per-run update table.
The stage body calls the ``fxp`` ops through the module.
``gipps_reference_block`` is the ideal over a block of velocities.

Latency model: 1 cycle for divide/subtract/radicand add, the square
root's Newton passes (2 in the instruction's operating domain), and
1 cycle for the multiply chain plus final add, so cycles = 2 + passes
and every in-domain update costs 4 cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fxp
from .fxp import Fx

K1 = Fx(160)   # 2.5, exact in Q8.6
K2 = Fx(2)     # 0.025 quantized to the nearest word, 0.03125

STAGES = ("q", "f", "r", "s", "p1", "p2", "p3", "p4")   # the stage words in pipeline order


class InvalidOperandsError(ValueError):
    """Operand set violates the instruction preconditions."""


@dataclass(frozen=True)
class GippsOperands:
    """One operand set: acceleration a, reaction time T, desired speed
    vstar (V*), current velocity v."""

    a: Fx
    T: Fx
    vstar: Fx
    v: Fx

    def validate(self) -> None:
        check_operands(self.a.raw, self.T.raw, self.vstar.raw, self.v.raw)


def check_operands(a, T, vstar, v) -> None:
    """Raise InvalidOperandsError unless a, T, V* and v are legal operand
    words: ints, or int64 arrays that broadcast, checked elementwise.
    Where a rule fails on an array, the message names the index of its
    first bad element in the broadcast shape."""
    words = {"a": a, "T": T, "vstar": vstar, "v": v}
    rules = [(f"{name} raw {{{name}}} outside 0..{fxp.RAW_MAX}", (w < 0) | (w > fxp.RAW_MAX))
             for name, w in words.items()]
    rules += [("desired speed must be positive", vstar == 0),
              ("reaction time must be positive", T == 0),
              ("velocity raw {v} exceeds desired speed raw {vstar}", v > vstar)]
    for message, bad in rules:
        if bad is True:
            raise InvalidOperandsError(message.format(**words))
        if bad is not False and bad.any():
            shape = np.broadcast_shapes(*map(np.shape, words.values()))
            i = np.unravel_index(np.broadcast_to(bad, shape).argmax(), shape)
            at = {name: np.broadcast_to(w, shape)[i] for name, w in words.items()}
            where = ",".join(map(str, i))
            raise InvalidOperandsError(f"{message.format(**at)} at index {where}")


@dataclass(frozen=True)
class GippsResult:
    """One instruction's output word and latency, with every stage word
    for audits and the CLI; ``GippsBlock.case`` reads one from a batch."""

    va: Fx
    cycles: int
    q: Fx            # v / vstar
    f: Fx            # 1 - q
    r: Fx            # 0.03125 + q, the radicand
    s: Fx            # sqrt(r)
    p1: Fx           # 2.5 * a
    p2: Fx           # p1 * T
    p3: Fx           # p2 * f
    p4: Fx           # p3 * s

    def words(self) -> list[tuple[str, int]]:
        """Raw stage words, va and cycles, in pipeline order."""
        return [(n, getattr(self, n).raw) for n in STAGES + ("va",)] + [("cycles", self.cycles)]


def _stages(a, T, V, v, unit):
    """The datapath in pipeline order on raw words, operands ints or
    int64 arrays that broadcast: va and the stage words, the second
    output of ``unit`` (the sqrt unit, radicand -> (root, detail)), where
    a stage before the final add clamped, and where the final add did."""
    q, c_q = fxp.div(v, V)                 # q <= 1.0 since v <= V*
    f, c_f = fxp.sub(fxp.ONE.raw, q)
    r, c_r = fxp.add(K2.raw, q)            # radicand raw in 2..66
    s, detail = unit(r)
    p1, c_1 = fxp.mul(K1.raw, a)
    p2, c_2 = fxp.mul(p1, T)
    p3, c_3 = fxp.mul(p2, f)
    p4, c_4 = fxp.mul(p3, s)
    va, c_va = fxp.add(v, p4)              # no clamp to V* here
    clamped = c_q | c_f | c_r | c_1 | c_2 | c_3 | c_4
    return (va, q, f, r, s, p1, p2, p3, p4), detail, clamped, c_va


def gipps_step(ops: GippsOperands) -> GippsResult:
    """Run one velocity update through the fixed-point pipeline."""
    ops.validate()
    words, strace, _, _ = _stages(ops.a.raw, ops.T.raw, ops.vstar.raw, ops.v.raw, fxp.sqrt)
    va, *stage = map(Fx, words)
    return GippsResult(va, 2 + strace.iterations, *stage)


@dataclass(frozen=True)
class GippsBlock:
    """Raw words of a batch of updates: one int64 array per stage, each
    broadcastable to ``va``'s shape (``p1`` has the shape of ``a``), the
    cycle counts, where a stage before the final add clamped, and where
    the final add did."""

    va: np.ndarray
    cycles: np.ndarray
    q: np.ndarray
    f: np.ndarray
    r: np.ndarray
    s: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    p4: np.ndarray
    clamped: np.ndarray
    va_clamped: np.ndarray

    def case(self, i: int | tuple[int, ...] = ()) -> GippsResult:
        """Case ``i``'s result, in Python ints (``()`` for a batch of one)."""
        words = np.broadcast_arrays(*(getattr(self, n) for n in ("va", "cycles") + STAGES))
        va, cycles, *stage = (int(w[i]) for w in words)
        return GippsResult(Fx(va), cycles, *map(Fx, stage))


def _sqrt_table(r):
    """Roots and cycles of the radicand words ``r``, from one run of the
    sqrt unit over every radicand legal operands make: 2 + q, q in 0..64."""
    lo, hi = K2.raw, K2.raw + fxp.ONE.raw
    assert np.all((lo <= r) & (r <= hi)), "radicand outside 2..66"
    units = [fxp.sqrt(x) for x in range(lo, hi + 1)]
    roots = np.array([root for root, _ in units], dtype=np.int64)
    cycles = np.array([2 + tr.iterations for _, tr in units], dtype=np.int64)
    return roots[r - lo], cycles[r - lo]


def gipps_batch(a, T, vstar, v) -> GippsBlock:
    """``gipps_step``'s stage body on raw operand words, ints or int64
    arrays that broadcast, so each element equals ``gipps_step`` on its
    own (a, T, V*, v).  The operands are checked first; the sqrt unit
    runs once per call, over the 65 radicands legal operands make."""
    check_operands(a, T, vstar, v)
    (va, *stage), cycles, clamped, c_va = _stages(a, T, vstar, v, _sqrt_table)
    return GippsBlock(va, cycles, *stage, clamped, c_va)


def gipps_reference(a: float, T: float, vstar: float, v: float) -> float:
    """Ideal acceleration-phase velocity update in real arithmetic."""
    if vstar <= 0.0:
        raise ValueError("desired speed must be positive")
    if T <= 0.0:
        raise ValueError("reaction time must be positive")
    if not 0.0 <= v <= vstar:
        raise ValueError("velocity must lie in [0, vstar]")
    ratio = v / vstar
    return v + 2.5 * a * T * (1.0 - ratio) * math.sqrt(0.025 + ratio)


def gipps_reference_block(a: float, T: float, vstar: float | np.ndarray,
                          v: np.ndarray) -> np.ndarray:
    """``gipps_reference`` over float64 velocities ``v``, at one V* or one per row.

    The same operations in the same order, elementwise: each element is
    the scalar call's result bit for bit (IEEE multiply, add and sqrt
    are correctly rounded in both).  The operands are not checked; a
    caller passes decoded words that already passed ``validate``.
    """
    ratio = v / vstar
    return v + 2.5 * a * T * (1.0 - ratio) * np.sqrt(0.025 + ratio)
