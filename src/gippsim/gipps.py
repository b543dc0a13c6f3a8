"""The accelerated instruction: one Q8.6 car-following velocity update.

The datapath evaluates

    va = v + 2.5 * a * T * (1 - v/V*) * sqrt(0.025 + v/V*)

with a fixed stage order: one divide, one subtract, one constant add,
the seeded square root, then a four-multiply chain and the final add.
``gipps_reference`` is the ideal real-arithmetic counterpart used for
accuracy sweeps.  ``gipps_block`` and ``gipps_reference_block`` are the
same two computations over a block of velocities that share a, T and
V*, on numpy arrays, for the sweep; ``gipps_block`` runs ``gipps_step``'s
stage body, which calls the ``fxp`` ops through the module.

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
from .fxp import Fx, SqrtTrace

K1 = Fx(160)   # 2.5, exact in Q8.6
K2 = Fx(2)     # 0.025 quantized to the nearest word, 0.03125


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
        for name, word in vars(self).items():
            if not 0 <= word.raw <= fxp.RAW_MAX:
                raise InvalidOperandsError(f"{name} raw {word.raw} outside 0..{fxp.RAW_MAX}")
        if self.vstar.raw == 0:
            raise InvalidOperandsError("desired speed must be positive")
        if self.T.raw == 0:
            raise InvalidOperandsError("reaction time must be positive")
        if self.v.raw > self.vstar.raw:
            raise InvalidOperandsError(
                f"velocity raw {self.v.raw} exceeds desired speed raw {self.vstar.raw}"
            )


@dataclass(frozen=True)
class GippsResult:
    """One instruction's output word and latency, with every stage word
    for audits and the CLI."""

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
    sqrt_trace: SqrtTrace

    def stages(self) -> list[tuple[str, Fx]]:
        return [
            ("q", self.q), ("f", self.f), ("r", self.r), ("s", self.s),
            ("p1", self.p1), ("p2", self.p2), ("p3", self.p3), ("p4", self.p4),
        ]


def _stages(a, T, V, v, unit):
    """The datapath in pipeline order on raw words, ``v`` an int or an
    int64 array: va and the stage words, the second output of ``unit``
    (the sqrt unit, radicand -> (root, detail)), and where a stage clamped."""
    q, c_q = fxp.div(v, V)                 # q <= 1.0 since v <= V*
    f, c_f = fxp.sub(fxp.ONE.raw, q)
    r, c_r = fxp.add(K2.raw, q)            # radicand raw in 2..66
    s, detail = unit(r)
    p1, c_1 = fxp.mul(K1.raw, a)
    p2, c_2 = fxp.mul(p1, T)
    p3, c_3 = fxp.mul(p2, f)
    p4, c_4 = fxp.mul(p3, s)
    va, c_va = fxp.add(v, p4)              # no clamp to V* here
    saturated = c_q | c_f | c_r | c_1 | c_2 | c_3 | c_4 | c_va
    return (va, q, f, r, s, p1, p2, p3, p4), detail, saturated


def gipps_step(ops: GippsOperands) -> GippsResult:
    """Run one velocity update through the fixed-point pipeline."""
    ops.validate()
    words, strace, _ = _stages(ops.a.raw, ops.T.raw, ops.vstar.raw, ops.v.raw, fxp.sqrt)
    va, *stage = map(Fx, words)
    return GippsResult(va, 2 + strace.iterations, *stage, strace)


@dataclass(frozen=True)
class GippsBlock:
    """Raw words of a block of updates that share a, T and V*: one int64
    array per stage over the block's velocities (``p1`` and ``p2`` are
    one word per block), the cycle counts, and the cases where a clamp
    fired in any stage."""

    va: np.ndarray
    cycles: np.ndarray
    q: np.ndarray
    f: np.ndarray
    r: np.ndarray
    s: np.ndarray
    p1: int
    p2: int
    p3: np.ndarray
    p4: np.ndarray
    saturated: np.ndarray

    def case_words(self, i: int) -> list[tuple[str, int]]:
        """Stage words, va and cycles of case ``i``, in pipeline order."""
        names = ("q", "f", "r", "s", "p1", "p2", "p3", "p4", "va", "cycles")
        return [(name, int(np.broadcast_to(getattr(self, name), self.va.shape)[i]))
                for name in names]


def _sqrt_per_radicand(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sqrt unit once per distinct radicand word: roots and cycles."""
    radicands, at = np.unique(r, return_inverse=True)
    units = [fxp.sqrt(x) for x in radicands.tolist()]
    s = np.array([root for root, _ in units], dtype=np.int64)[at]
    cycles = np.array([2 + tr.iterations for _, tr in units], dtype=np.int64)[at]
    return s, cycles


def gipps_block(a: Fx, T: Fx, vstar: Fx, v: np.ndarray) -> GippsBlock:
    """``gipps_step``'s stage body on an int64 array ``v`` of raw
    velocities that share a, T and V*, so case i equals ``gipps_step`` on
    (a, T, V*, v[i]).  The sqrt unit depends on the radicand word alone
    and runs once per distinct radicand in the block."""
    for end in (v.min(initial=0), v.max(initial=0)):      # an empty block checks v = 0
        GippsOperands(a, T, vstar, Fx(int(end))).validate()
    (va, *stage), cycles, saturated = _stages(a.raw, T.raw, vstar.raw, v, _sqrt_per_radicand)
    return GippsBlock(va, cycles, *stage, saturated)


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


def gipps_reference_block(a: float, T: float, vstar: float, v: np.ndarray) -> np.ndarray:
    """``gipps_reference`` over a float64 array of velocities.

    The same operations in the same order, elementwise: each element is
    the scalar call's result bit for bit (IEEE multiply, add and sqrt
    are correctly rounded in both).  The operands are not checked; a
    caller passes decoded words that already passed ``validate``.
    """
    ratio = v / vstar
    return v + 2.5 * a * T * (1.0 - ratio) * np.sqrt(0.025 + ratio)
