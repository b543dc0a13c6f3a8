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

Both CSV writers turn numbers into text here, exactly as ``"%d"`` and
``"%.Nf"`` would: ``int_texts``, ``fixed_texts`` and ``word_texts`` give
bytes fields, and ``join_rows`` lays them side by side as rows.
"""

from __future__ import annotations

import functools
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


def word_texts(end: str = "") -> np.ndarray:
    """The ``"%.6f"`` text of every word's value plus ``end``, a bytes array
    indexed by raw: 256 integer parts by 64 fractions, since raw / 64 has at
    most six decimals.  A short integer part leaves NULs inside a text."""
    texts = np.empty(((RAW_MAX + 1) // SCALE, SCALE), [("i", "S3"), ("f", f"S{7 + len(end)}")])
    texts["i"] = np.arange((RAW_MAX + 1) // SCALE).astype("S3")[:, None]
    texts["f"] = [".%06d%s" % (k * 10**6 // SCALE, end) for k in range(SCALE)]
    return texts.ravel().view(f"S{10 + len(end)}")


def decimals(x: np.ndarray, places: int) -> np.ndarray | None:
    """The int64 round(|x| * 10**places) that ``"%.{places}f"`` prints, or
    None unless every |x| * 10**places < 2**52 (NaN and inf fail).

    Below 2**52 every k + 1/2 is a double and rounding is monotone, so
    rint(y), y = fl(|x| * 10**p), is right unless y is itself a tie.  There
    Dekker's product gives the exact error |x| * 10**p - y (|x| is split at
    2**27 + 1; 10**p, p <= 9, has at most 21 bits): a positive error rounds
    up, a negative one down, and zero is a true tie, half-even as in printf.
    """
    mag = np.abs(x)
    scale = 10.0**places
    y = mag * scale
    if not np.all(y < 2.0**52):
        return None
    n = np.rint(y)
    tie = np.flatnonzero(np.abs(y - n) == 0.5)
    if len(tie):
        m, yt = mag[tie], y[tie]
        hi = m * 134217729.0
        hi -= hi - m
        err = (hi * scale - yt) + (m - hi) * scale
        n[tie] = np.where(err > 0, yt + 0.5, np.where(err < 0, yt - 0.5, n[tie]))
    return n.astype(np.int64)


@functools.cache
def _groups(head: str, end: str, leading: bool = False) -> np.ndarray:
    """head + "%03d" + end of 0..999; if ``leading``, "%d" + end and "-%d" + end
    at 1000 and 2000 on, blank at 3000.  Items of 4 or 8 bytes copy fastest."""
    texts = ["%s%03d%s" % (head, i, end) for i in range(1000)]
    if leading:
        texts += [f % i + end for f in ("%d", "-%d") for i in range(1000)] + [""]
    return np.array(texts, dtype="S4" if max(map(len, texts)) <= 4 else "S8")


def int_texts(n: np.ndarray, end: str, *, places: int = 0,
              neg: np.ndarray | bool = False) -> list[np.ndarray]:
    """``"%d" + end`` texts of int64 n >= 0 as bytes fields of three-digit
    groups, or with ``places`` (a multiple of 3) those of n / 10**places;
    "-" leads where ``neg``.  Groups above a text's leading one are blank."""
    point = places // 3                 # groups k < point hold the decimals
    top = max(len(str(int(n.max(initial=0)))) - 1, places) // 3
    sign = 1000 + 1000 * neg if np.any(neg) else 1000     # "%d", or "-%d" where neg
    fields, rest = [], n
    for k in range(top, -1, -1):
        g = rest // 1000**k if k else rest
        rest = rest - g * 1000**k if k else None
        if k >= point:      # the integer part: blank above its leading group, "%03d" below
            lead = sign if k == point else np.where(n < 1000**k, 3000, sign)
            g = g + (lead if k == top else np.where(n >= 1000**(k + 1), 0, lead))
        fields.append(_groups("." if k == point - 1 else "", "" if k else end, k >= point)[g])
    return fields


def fixed_texts(x: np.ndarray, places: int, end: str) -> list[np.ndarray]:
    """``"%.{places}f" + end`` texts of 1-D float64 x as bytes fields: the
    ``int_texts`` of the ``decimals``, "-" where x's sign bit is set, or one
    field of per-element ``"%.*f"`` texts where ``decimals`` gives None."""
    n = decimals(x, places)
    if n is None:
        return [_percent_texts(x, places, end)]
    return int_texts(n, end, places=places, neg=np.signbit(x))


def _percent_texts(x: np.ndarray, places: int, end: str) -> np.ndarray:
    return np.array(["%.*f%s" % (places, v, end) for v in x.tolist()], dtype="S")


def join_rows(fields: list) -> bytes:
    """Rows of the fields side by side, each a bytes array (one text per row)
    or one bytes constant, with every NUL (numpy's padding) dropped."""
    rec = np.empty(max(len(f) for f in fields if isinstance(f, np.ndarray)),
                   [("", np.asarray(f).dtype) for f in fields])
    for name, f in zip(rec.dtype.names, fields):
        rec[name] = f
    return rec.tobytes().translate(None, b"\0")


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
    """Initial estimate from the leading-one position plus the seed ROM."""
    k = (t.bit_length() - 1) // 2       # floor(sqrt(t)) is a k+1 bit number
    if k < 1:
        return 1
    m = t >> (2 * k - 2)                # normalized mantissa, 4..15
    return max(1, (SQRT_SEED_LUT[m] * (1 << (k - 1)) + 128) >> 8)


def sqrt(raw: int) -> tuple[int, SqrtTrace]:
    """Exact floor square root of one raw word: root raw and pass trace.

    The radicand is widened to t = raw * 64 so the root stays in Q8.6:
    the result raw is floor(sqrt(t)).  Babylonian refinement runs from
    the ROM seed; the unit always performs its two provisioned passes,
    then stops as soon as a pass fails to decrease, or at the hard cap
    of 6.  The answer is the smaller of the last two iterates, fixed up
    by at most one decrement so that r*r <= t < (r+1)*(r+1) holds.
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
    root = min(iterates[-2], iterates[-1]) if len(iterates) >= 2 else iterates[-1]
    if root * root > t:
        root -= 1
    return root, SqrtTrace(raw, x0, tuple(iterates))
