"""Independent re-evaluation of the fixed-point velocity update.

This module is written against the datapath contract, not the datapath
code: plain Python integers end to end, a float-seeded floor square
root with explicit fix-up instead of the Babylonian unit, and its own
copy of the pass-counting rules.  Tests hold ``pipeline_oracle`` and
``gipps.gipps_step`` bit for bit against each other, so a defect in
either one surfaces as a mismatch instead of hiding in shared code.
"""

from __future__ import annotations

from .fxp import Fx, SqrtTrace
from .gipps import GippsOperands, GippsResult, InvalidOperandsError

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


def pipeline_oracle(ops: GippsOperands) -> GippsResult:
    """Evaluate one update with arbitrary-precision integers."""
    a, T, V, v = ops.a.raw, ops.T.raw, ops.vstar.raw, ops.v.raw
    if V == 0:
        raise InvalidOperandsError("desired speed must be positive")
    if T == 0:
        raise InvalidOperandsError("reaction time must be positive")
    if v > V:
        raise InvalidOperandsError(f"velocity raw {v} exceeds desired speed raw {V}")

    def round_mul(x: int, y: int) -> int:
        p = (x * y + 32) // 64
        return p if p <= _RAW_MAX else _RAW_MAX

    q = (v * 64) // V                  # 0..64, divide cannot overflow here
    f = 64 - q
    r = 2 + q
    s = floor_isqrt(r * 64)
    p1 = round_mul(160, a)
    p2 = round_mul(p1, T)
    p3 = round_mul(p2, f)
    p4 = round_mul(p3, s)
    va = v + p4
    if va > _RAW_MAX:
        va = _RAW_MAX

    strace = _sqrt_unit_trace(r)
    return GippsResult(
        Fx(va), 2 + strace.iterations,
        Fx(q), Fx(f), Fx(r), Fx(s), Fx(p1), Fx(p2), Fx(p3), Fx(p4), strace,
    )
