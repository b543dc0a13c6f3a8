"""Datapath against oracle on every legal operand, one factor at a time.

The update factors as va = add(v, TAIL(p2, q)), with p2 = mul(mul(160, a), T),
q = div(v, V*) and TAIL(p2, q) = mul(mul(p2, 64 - q), sqrt(2 + q)).  Each
factor is checked here on its whole input domain, the datapath's fxp
ops against the oracle's own rules: together they cover every legal
(a, T, V*, v), not only the sweep grid.  Products of two 14-bit words stay
below 2**28, so the word-pair checks run in int32 without overflow and
give the int64 results.
"""

import numpy as np

from gippsim import fxp, oracle
from gippsim.fxp import RAW_MAX

ROWS = 4       # word-pair chunks of 4 x 16384 int32 words (256 KB), which stay in cache


def each_word_pair():
    """All 2**28 (x, y) word pairs, as broadcastable int32 chunks."""
    words = np.arange(RAW_MAX + 1, dtype=np.int32)
    for lo in range(0, RAW_MAX + 1, ROWS):
        yield words[lo:lo + ROWS, None], words[None, :]


def test_mul_on_all_word_pairs():
    for x, y in each_word_pair():
        word, clamped = fxp.mul(x, y)
        want, over = oracle._round_mul(x, y)
        assert np.array_equal(word, want)
        assert np.array_equal(clamped, over)


def test_add_on_all_word_pairs():
    for x, y in each_word_pair():
        word, clamped = fxp.add(x, y)
        want, over = oracle._clamp(x + y)
        assert np.array_equal(word, want)
        assert np.array_equal(clamped, over)


def test_quotient_on_all_legal_velocity_pairs():
    v = np.arange(RAW_MAX + 1, dtype=np.int64)
    for vstar in range(1, RAW_MAX + 1):
        q, clamped = fxp.div(v[:vstar + 1], vstar)
        assert not clamped.any()
        assert np.array_equal(q, oracle._quotient(v[:vstar + 1], vstar))


def test_sqrt_unit_on_every_radicand_the_update_makes():
    for r in range(2, 67):                 # 2 + q for q in 0..64
        root, trace = fxp.sqrt(r)
        assert root == oracle.floor_isqrt(r * 64) == oracle._ROOT_WORDS[r - 2]
        assert trace == oracle._sqrt_unit_trace(r)
        assert trace.iterations == oracle._PASSES[r - 2]
        assert trace.iterations == 2


def test_tail_on_every_p2_and_q():
    p2 = np.arange(RAW_MAX + 1, dtype=np.int64)[:, None]
    q = np.arange(65, dtype=np.int64)[None, :]
    f, c_f = fxp.sub(fxp.ONE.raw, q)
    r, c_r = fxp.add(2, q)
    s = np.array([fxp.sqrt(x)[0] for x in r.ravel().tolist()], dtype=np.int64)
    p3, c_3 = fxp.mul(p2, f)
    p4, c_4 = fxp.mul(p3, s[None, :])
    s_oracle = np.array([oracle.floor_isqrt(x * 64) for x in range(2, 67)], dtype=np.int64)
    want, _ = oracle._round_mul(oracle._round_mul(p2, 64 - q)[0], s_oracle[None, :])
    assert np.array_equal(p4, want)
    # so on legal operands only p1, p2 and the final add can clamp
    assert not (c_f.any() or c_r.any() or c_3.any() or c_4.any())
