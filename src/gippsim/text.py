"""Both CSV writers' numbers as text, exactly as ``"%d"`` and ``"%.Nf"``
would print them: ``int_texts``, ``fixed_texts`` and ``word_texts`` give
bytes fields, and ``join_rows`` lays them side by side as rows of bytes."""

from __future__ import annotations

import functools

import numpy as np

from .fxp import RAW_MAX, SCALE


@functools.cache
def word_texts() -> np.ndarray:
    """The ``"%.6f,"`` text of each word's value, a read-only bytes array by
    raw, built once: 256 integer parts by 64 fractions (raw / 64 has at most
    six decimals).  A short integer part leaves NULs inside a text."""
    texts = np.empty(((RAW_MAX + 1) // SCALE, SCALE), [("i", "S3"), ("f", "S8")])
    texts["i"] = np.arange((RAW_MAX + 1) // SCALE).astype("S3")[:, None]
    texts["f"] = [".%06d," % (k * 10**6 // SCALE) for k in range(SCALE)]
    texts.flags.writeable = False
    return texts.ravel().view("S11")


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
    or one bytes constant, with every NUL (numpy's padding) dropped; consumes ``fields``."""
    rec = np.empty(max(len(f) for f in fields if isinstance(f, np.ndarray)),
                   [("", np.asarray(f).dtype) for f in fields])
    for name, f in zip(rec.dtype.names, fields):
        rec[name] = f
    fields.clear()                      # the record is the rows' one copy from here
    data = rec.tobytes()
    del rec                             # one copy of the rows before the strip, not two
    return data.translate(None, b"\0")
