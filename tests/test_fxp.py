import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gippsim import fxp
from gippsim.fxp import (
    ONE,
    RAW_MAX,
    SCALE,
    VALUE_MAX,
    ZERO,
    DivideByZeroError,
    Fx,
    OutOfRangeError,
    add,
    decode,
    div,
    encode,
    mul,
    sqrt,
    sub,
)
from gippsim.oracle import floor_isqrt

raws = st.integers(min_value=0, max_value=RAW_MAX)


def test_constants():
    assert SCALE == 64
    assert RAW_MAX == 16383
    assert VALUE_MAX == 16383 / 64
    assert ZERO.raw == 0
    assert ONE.raw == 64
    assert decode(Fx(1)) == 0.015625


def test_encode_rounds_to_nearest_ties_up():
    assert encode(0.0).raw == 0
    assert encode(1.0).raw == 64
    assert encode(0.0078125).raw == 1          # exact tie, rounds up
    assert encode(0.0078124).raw == 0
    assert encode(255.984375).raw == RAW_MAX
    assert encode(0.025).raw == 2              # radicand constant quantization
    assert encode(2.5).raw == 160


def test_encode_range_errors():
    for bad in (-0.015625, -1.0, 256.0, 255.9921875, math.inf):
        with pytest.raises(OutOfRangeError):
            encode(bad)
    with pytest.raises(OutOfRangeError):
        encode(math.nan)


def test_decode_encode_roundtrip_exhaustive():
    for raw in range(RAW_MAX + 1):
        assert encode(decode(Fx(raw))).raw == raw


def test_add_saturates():
    s, sat = add(RAW_MAX, 1)
    assert s == RAW_MAX and sat
    s, sat = add(100, 28)
    assert s == 128 and not sat


def test_sub_saturates_at_zero():
    s, sat = sub(1, 2)
    assert s == 0 and sat
    s, sat = sub(64, 1)
    assert s == 63 and not sat


def test_mul_rounds_to_nearest_ties_up():
    # 0.5 * 0.5 = 0.25 exact
    assert mul(32, 32)[0] == 16
    # raw product 1*32 = 32/4096, exactly half an output ulp: rounds up
    assert mul(1, 32)[0] == 1
    assert mul(1, 31)[0] == 0
    r, sat = mul(RAW_MAX, RAW_MAX)
    assert r == RAW_MAX and sat


def test_div_truncates():
    q, sat = div(1, 3)                         # 1/3 -> floor(64/3)/64
    assert q == 21 and not sat
    q, sat = div(64, 64)
    assert q == 64
    q, sat = div(RAW_MAX, 1)
    assert q == RAW_MAX and sat                # 255.98/0.015625 overflows
    with pytest.raises(DivideByZeroError):
        div(ONE.raw, ZERO.raw)


def test_div_array_divisor():
    rng = np.random.Generator(np.random.PCG64(11))
    x = rng.integers(0, RAW_MAX + 1, 500)
    y = rng.integers(1, RAW_MAX + 1, 500)
    q, sat = div(x, y)
    want = [div(a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert q.tolist() == [w for w, _ in want]
    assert sat.tolist() == [c for _, c in want]
    y[137] = ZERO.raw
    with pytest.raises(DivideByZeroError):
        div(x, y)


@given(raws, raws)
def test_add_matches_integer_model(x, y):
    s, sat = add(x, y)
    assert s == min(x + y, RAW_MAX)
    assert sat == (x + y > RAW_MAX)


@given(raws, raws)
def test_mul_matches_integer_model(x, y):
    r, sat = mul(x, y)
    assert r == min((x * y + 32) >> 6, RAW_MAX)
    assert sat == ((x * y + 32) >> 6 > RAW_MAX)


@given(raws, st.integers(min_value=1, max_value=RAW_MAX))
def test_div_matches_integer_model(x, y):
    q, sat = div(x, y)
    assert q == min((x << 6) // y, RAW_MAX)


def test_sqrt_pinned_cases():
    # (input raw, root raw, seed, iterates)
    cases = [
        (128, 90, 92, (90, 90)),               # sqrt(2.0) -> 1.40625
        (2, 11, 11, (11, 11)),                 # sqrt(0.03125) -> 0.171875
        (256, 128, 131, (128, 128)),           # sqrt(4.0) -> 2.0 exact
        (16383, 1023, 1007, (1024, 1023, 1023)),
    ]
    for raw, want_root, want_seed, want_iter in cases:
        root, tr = sqrt(raw)
        assert root == want_root
        assert tr.seed_x0 == want_seed
        assert tr.iterates == want_iter
        assert tr.radicand == raw


def test_sqrt_zero_shortcut():
    root, tr = sqrt(ZERO.raw)
    assert root == 0
    assert tr.iterations == 0
    assert tr.iterates == ()


def test_sqrt_exhaustive_matches_floor_isqrt():
    for raw in range(RAW_MAX + 1):
        root, _ = sqrt(raw)
        assert root == floor_isqrt(raw << 6), raw


def test_sqrt_floor_postcondition_exhaustive():
    for raw in range(RAW_MAX + 1):
        root, _ = sqrt(raw)
        t = raw << 6
        assert root * root <= t
        assert (root + 1) * (root + 1) > t


def test_sqrt_iteration_histogram():
    hist = {}
    for raw in range(RAW_MAX + 1):
        _, tr = sqrt(raw)
        hist[tr.iterations] = hist.get(tr.iterations, 0) + 1
    assert hist == {0: 1, 2: 14227, 3: 2156}
    assert max(hist) <= fxp.SQRT_MAX_PASSES


def test_sqrt_seed_relative_error_bound():
    worst = 0.0
    for raw in range(1, RAW_MAX + 1):
        _, tr = sqrt(raw)
        exact = math.sqrt(raw << 6)
        worst = max(worst, abs(tr.seed_x0 - exact) / exact)
    assert worst < 0.087


def test_repr_shows_raw_and_value():
    assert repr(Fx(28)) == "Fx(28=0.437500)"
