"""Independent re-evaluation of the fixed-point velocity update.

This module is written against the datapath contract, not the datapath
code: integer arithmetic end to end, clamps written as min via
|x - 16383| rather than masks, a float-seeded floor square root with
explicit fix-up instead of the Babylonian unit, and its own copy of
the pass-counting rules; it shares only the result types and the
legal-operand check.  Tests hold ``pipeline_oracle`` and
``gipps.gipps_step`` bit for bit against each other, so a defect in
either one surfaces as a mismatch instead of hiding in shared code.

``block_oracle`` evaluates operand words that broadcast, ints or
int64 arrays, any a, T, V* and v per element; ``pipeline_oracle`` is
that one body read at a single case through ``GippsBlock.case``.
"""

from __future__ import annotations

import numpy as np

from .fxp import SqrtTrace
from .gipps import GippsBlock, GippsOperands, GippsResult, check_operands

_RAW_MAX = 16383

# Mirror of the sqrt unit's seed ROM (contract data, duplicated on
# purpose: a divergence must fail the equivalence tests, not vanish).
_SEED_ROM = (
    0, 0, 0, 0,
    523, 591, 647, 696,
    735, 783, 826, 867,
    903, 937, 974, 1007,
)


def floor_isqrt(t: int) -> int:
    """Largest r with r*r <= t, by float guess and linear fix-up."""
    if t < 0:
        raise ValueError("negative radicand")
    r = int(t ** 0.5)
    while r * r > t:
        r -= 1
    while (r + 1) * (r + 1) <= t:
        r += 1
    return r


def _sqrt_unit_trace(raw: int) -> SqrtTrace:
    """Re-derive the sqrt unit's seed and pass count for a raw word."""
    t = raw * 64
    if t == 0:
        return SqrtTrace(0, 0, ())
    top = t.bit_length() - 1
    k = top // 2
    if k < 1:
        x0 = 1
    else:
        mantissa = t >> (2 * (k - 1))
        x0 = max(1, (_SEED_ROM[mantissa] * 2 ** (k - 1) + 128) // 256)
    chain = [x0]
    for n in range(1, 7):               # hard cap: 6 passes
        chain.append((chain[-1] + t // chain[-1]) // 2)
        # convergence is checked from the second pass on
        if n >= 2 and chain[-1] >= chain[-2]:
            break
    return SqrtTrace(raw, x0, tuple(chain[1:]))


# The floor root and the sqrt unit's pass count of each radicand word
# that a legal update makes, 2 + q for q in 0..64.
_ROOT_WORDS = np.array([floor_isqrt(r * 64) for r in range(2, 67)], dtype=np.int64)
_PASSES = np.array([_sqrt_unit_trace(r).iterations for r in range(2, 67)], dtype=np.int64)


def _clamp(x):
    """min(x, 16383) and whether x exceeded it; ints or arrays."""
    return (x + _RAW_MAX - abs(x - _RAW_MAX)) // 2, x > _RAW_MAX


def _round_mul(x, y):
    return _clamp((x * y + 32) // 64)


def _quotient(v, V):
    return (v * 64) // V               # 0..64 for v <= V: cannot overflow


def _stages(a, T, V, v):
    """Every stage word, va, where a result before the final add
    clamped, and where the final add did; operands ints or int64 arrays."""
    q = _quotient(v, V)
    f = 64 - q
    r = 2 + q
    s = _ROOT_WORDS[r - 2]
    p1, o1 = _round_mul(160, a)
    p2, o2 = _round_mul(p1, T)
    p3, o3 = _round_mul(p2, f)
    p4, o4 = _round_mul(p3, s)
    va, o5 = _clamp(v + p4)
    return q, f, r, s, p1, p2, p3, p4, va, o1 | o2 | o3 | o4, o5


def block_oracle(a, T, vstar, v) -> GippsBlock:
    """Evaluate a batch of updates on raw operand words, ints or int64
    arrays that broadcast.  The root and the pass count depend on the
    radicand word alone, 2 + q with q in 0..64, so both come from
    tables over those 65 words."""
    check_operands(a, T, vstar, v)
    q, f, r, s, p1, p2, p3, p4, va, over, over_va = _stages(a, T, vstar, v)
    return GippsBlock(va, 2 + _PASSES[r - 2], q, f, r, s, p1, p2, p3, p4, over, over_va)


def pipeline_oracle(ops: GippsOperands) -> GippsResult:
    """Evaluate one update: ``block_oracle`` at its one case."""
    return block_oracle(ops.a.raw, ops.T.raw, ops.vstar.raw, ops.v.raw).case()
