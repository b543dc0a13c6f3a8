"""Independent re-evaluation of the fixed-point velocity update.

This module is written against the datapath contract, not the datapath
code: integer arithmetic end to end, clamps written as min via
|x - 16383| rather than masks, a float-seeded floor square root with
explicit fix-up instead of the Babylonian unit, and its own copy of
the pass-counting rules; it shares only ``check_operands``, the
legal-operand check.  Tests hold ``pipeline_oracle`` and
``gipps.gipps_step`` bit for bit against each other, so a defect in
either one surfaces as a mismatch instead of hiding in shared code.

``block_oracle`` is the same evaluation over operand words that
broadcast as int64 arrays, any a, T, V* and v per element: one body
serves both, written so that it runs on Python ints and on arrays
alike.
"""

from __future__ import annotations

import numpy as np

from .fxp import Fx, SqrtTrace
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


# The floor root and the sqrt unit's trace of each radicand word that a
# legal update makes, 2 + q for q in 0..64, and their int64 forms.
_ROOTS = tuple(floor_isqrt(r * 64) for r in range(2, 67))
_TRACES = tuple(_sqrt_unit_trace(r) for r in range(2, 67))
_ROOT_WORDS = np.array(_ROOTS, dtype=np.int64)
_PASSES = np.array([trace.iterations for trace in _TRACES], dtype=np.int64)


def _clamp(x):
    """min(x, 16383) and whether x exceeded it; ints or arrays."""
    return (x + _RAW_MAX - abs(x - _RAW_MAX)) // 2, x > _RAW_MAX


def _round_mul(x, y):
    return _clamp((x * y + 32) // 64)


def _quotient(v, V):
    return (v * 64) // V               # 0..64 for v <= V: cannot overflow


def _stages(a, T, V, v, root):
    """Every stage word, va, where a result before the final add
    clamped, and where the final add did.

    ``v`` may be an int or an int64 array; ``root`` maps radicand words
    to their floor square roots in the same form.
    """
    q = _quotient(v, V)
    f = 64 - q
    r = 2 + q
    s = root(r)
    p1, o1 = _round_mul(160, a)
    p2, o2 = _round_mul(p1, T)
    p3, o3 = _round_mul(p2, f)
    p4, o4 = _round_mul(p3, s)
    va, o5 = _clamp(v + p4)
    return q, f, r, s, p1, p2, p3, p4, va, o1 | o2 | o3 | o4, o5


def pipeline_oracle(ops: GippsOperands) -> GippsResult:
    """Evaluate one update with arbitrary-precision integers."""
    ops.validate()
    a, T, V, v = ops.a.raw, ops.T.raw, ops.vstar.raw, ops.v.raw
    q, f, r, s, p1, p2, p3, p4, va, _, _ = _stages(a, T, V, v, lambda r: _ROOTS[r - 2])
    return GippsResult(
        Fx(va), 2 + _TRACES[r - 2].iterations,
        Fx(q), Fx(f), Fx(r), Fx(s), Fx(p1), Fx(p2), Fx(p3), Fx(p4),
    )


def block_oracle(a, T, vstar, v) -> GippsBlock:
    """Evaluate a batch of updates on raw operand words, ints or int64
    arrays that broadcast.  The root and the pass count depend on the
    radicand word alone, 2 + q with q in 0..64, so both come from one
    table over those 65 words."""
    check_operands(a, T, vstar, v)
    q, f, r, s, p1, p2, p3, p4, va, over, over_va = _stages(
        a, T, vstar, v, lambda r: _ROOT_WORDS[r - 2])
    return GippsBlock(va, 2 + _PASSES[r - 2], q, f, r, s, p1, p2, p3, p4, over, over_va)
