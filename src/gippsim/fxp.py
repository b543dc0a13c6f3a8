"""Bit-accurate model of the Q8.6 fixed-point datapath.

Every quantity is an unsigned 14-bit word read as value = raw / 64:
8 integer bits, 6 fractional bits, resolution 2**-6 = 0.015625, largest
representable value 16383 / 64 = 255.984375.  All speeds are in m/s,
accelerations in m/s^2, times in seconds.

Rounding matches the hardware unit for unit:

* ``encode`` and ``mul`` round to nearest with ties up.
* ``div`` truncates (restoring divider).
* ``add`` and ``sub`` saturate silently at the word limits; both return
  a flag so tests can observe the clamp.
* ``sqrt`` is a table-seeded Babylonian unit; its result is the exact
  floor square root and it reports a per-pass trace.

The ops take raw words, not ``Fx``.  ``add``, ``sub``, ``mul`` and
``div`` return (word, clamped) and are branch-free (the clamp is mask
arithmetic), so one copy of each rule runs on Python ints and on int64
numpy arrays alike: the scalar instruction and its batch form.
``sqrt`` takes one word and returns (root, trace).  ``Fx`` is the word
type at the API's edges: ``encode``/``decode``, operands and results.

All operations are pure: same operands, same words, no hidden state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FRAC_BITS = 6
SCALE = 1 << FRAC_BITS          # 64
RAW_MAX = (1 << 14) - 1         # 16383
VALUE_MAX = RAW_MAX / SCALE     # 255.984375
_HALF = SCALE // 2              # rounding increment for ties-up

SQRT_MAX_PASSES = 6


class OutOfRangeError(ValueError):
    """Real input outside the representable range [0, 255.984375]."""


class DivideByZeroError(ZeroDivisionError):
    """Divisor word is raw 0."""


class Fx(NamedTuple):
    """One Q8.6 word.  ``raw`` is the 14-bit register content."""

    raw: int

    def __repr__(self) -> str:
        return f"Fx({self.raw}={decode(self):.6f})"


ZERO = Fx(0)
ONE = Fx(SCALE)


def encode(x: float) -> Fx:
    """Quantize a real to the nearest Q8.6 word, ties rounding up.

    Raises OutOfRangeError instead of saturating: operand preparation is
    host-side work, so a value outside the format is a caller bug.
    """
    if not 0.0 <= x <= VALUE_MAX:
        raise OutOfRangeError(f"{x!r} outside [0, {VALUE_MAX}]")
    # x * 64 is exact in binary floating point, +0.5/floor gives ties-up
    return Fx(int(math.floor(x * SCALE + 0.5)))


def decode(v: Fx) -> float:
    """Exact real value of a word (raw / 64 is a dyadic rational)."""
    return v.raw / SCALE


def add(x, y):
    """Saturating add.  Flag is True where the sum clamped at 16383."""
    t = x + y
    clamped = t > RAW_MAX
    return t - (t - RAW_MAX) * clamped, clamped


def sub(x, y):
    """Saturating subtract.  Flag is True where the result clamped at 0."""
    t = x - y
    clamped = t < 0
    return t - t * clamped, clamped


def mul(x, y):
    """Multiply, round to nearest (ties up), saturate at 16383.

    The full 28-bit product is rounded once, back to Q8.6.
    """
    t = (x * y + _HALF) >> FRAC_BITS
    clamped = t > RAW_MAX
    return t - (t - RAW_MAX) * clamped, clamped


def div(x, y):
    """Divide with truncation, saturate at 16383.

    The 20-bit shifted dividend goes through the divider whole, so the
    quotient is floor((x * 64) / y) exactly.  ``y`` is one divisor word
    or an int64 array that broadcasts with ``x``; a raw 0 anywhere in it
    raises.
    """
    if not (y.all() if isinstance(y, np.ndarray) else y):
        raise DivideByZeroError("divide by raw 0")
    t = (x << FRAC_BITS) // y
    clamped = t > RAW_MAX
    return t - (t - RAW_MAX) * clamped, clamped


# Seed ROM for the square root unit.  Index is the top 4 significant
# bits of the radicand after normalizing by an even shift, so entries
# 0..3 are unreachable (the leading bit is always set).  Entries are
# Q2.8 estimates of sqrt(mantissa), picked so that one Newton pass from
# the seed lands exactly on the floor root for every radicand the
# velocity-update instruction can produce (raw 2..66), and so that no
# 14-bit input ever needs more than SQRT_MAX_PASSES passes.
SQRT_SEED_LUT = (
    0, 0, 0, 0,
    523, 591, 647, 696,
    735, 783, 826, 867,
    903, 937, 974, 1007,
)


@dataclass(frozen=True)
class SqrtTrace:
    """Per-pass record of one square root evaluation.

    ``radicand`` is the raw input word; ``iterates`` holds x1, x2, ...
    (the seed is not an iterate).  ``iterations`` counts Newton passes
    actually performed.
    """

    radicand: int
    seed_x0: int
    iterates: tuple[int, ...]

    @property
    def iterations(self) -> int:
        return len(self.iterates)


def _sqrt_seed(t: int) -> int:
    """Initial estimate from the leading-one position plus the seed ROM.
    ``sqrt`` passes t = raw * 64 >= 64, so k >= 3, the mantissa picks an
    entry in 4..15 (each >= 523) and the seed is at least 8."""
    k = (t.bit_length() - 1) // 2       # floor(sqrt(t)) is a k+1 bit number
    m = t >> (2 * k - 2)                # normalized mantissa, 4..15
    return (SQRT_SEED_LUT[m] * (1 << (k - 1)) + 128) >> 8


def sqrt(raw: int) -> tuple[int, SqrtTrace]:
    """Exact floor square root of one raw word: root raw and pass trace.

    The radicand is widened to t = raw * 64 so the root stays in Q8.6:
    the result raw is floor(sqrt(t)).  Babylonian refinement runs from
    the ROM seed; the unit always performs its two provisioned passes,
    then stops as soon as a pass fails to decrease, or at the hard cap
    of 6.  The answer is the smaller of the last two iterates: one pass
    from any seed >= 1 lands at or above the floor root, the iterates
    fall to it, and the first pass from it does not decrease.  No word
    takes more than 3 passes, so the cap is never reached.
    """
    t = raw << FRAC_BITS
    if t == 0:
        return 0, SqrtTrace(0, 0, ())
    x0 = _sqrt_seed(t)
    prev = x0
    iterates: list[int] = []
    while True:
        nxt = (prev + t // prev) // 2
        iterates.append(nxt)
        if len(iterates) >= 2 and nxt >= prev:
            break
        if len(iterates) == SQRT_MAX_PASSES:
            break
        prev = nxt
    return min(iterates[-2:]), SqrtTrace(raw, x0, tuple(iterates))
