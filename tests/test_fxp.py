import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gippsim import fxp, text
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
from gippsim.text import fixed_texts, int_texts, join_rows, word_texts

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


def test_word_texts_format_every_word():
    assert word_texts().dtype == "S10"
    texts = join_rows([word_texts(), b"\n"]).decode("ascii").splitlines()
    assert texts == [f"{raw / 64:.6f}" for raw in range(RAW_MAX + 1)]
    with_end = join_rows([word_texts(",")]).decode("ascii")
    assert with_end == "".join(f"{raw / 64:.6f}," for raw in range(RAW_MAX + 1))


def six_decimal_texts(x):
    """``fixed_texts(x, 6, "\n")`` joined, one string per value."""
    return join_rows(fixed_texts(np.asarray(x, dtype=np.float64), 6, "\n")).decode().splitlines()


def test_grid_texts_format_every_fraction():
    """Values on the 2**-12 grid: j / 4096 ties at six decimals when
    j = 32 (mod 64), and "%.6f" rounds those ties half-even."""
    j = np.arange(4096)
    for whole in (0, 1, 255, 2**20, 2**40 - 1):
        for sign in (1.0, -1.0):
            x = sign * (whole + j / 4096)
            assert six_decimal_texts(x) == ["%.6f" % v for v in x.tolist()]
    assert six_decimal_texts([32 / 4096, 96 / 4096]) == ["0.007812", "0.023438"]
    assert six_decimal_texts([-0.0, -0.5, 0.0]) == ["-0.000000", "-0.500000", "0.000000"]


@pytest.mark.parametrize("x", [
    [0.5, 0.1],                         # one element off the grid
    [12.345, 10.0],
    [1 / 8192],
    [2.0**40],                          # |x| * 10**6 is past 2**52: "%.*f" per element
    [-(2.0**40), 1.0],
    [2.0**45 + 0.5],
    [math.inf],
], ids=str)
def test_grid_texts_leave_off_grid_arrays_to_percent_format(x):
    assert six_decimal_texts(x) == ["%.6f" % v for v in x]
    big = max(abs(v) for v in x) * 1e6 >= 2**52
    assert (text.decimals(np.array(x), 6) is None) == big


def exact_tie_distance(x, places):
    """|frac(x * 10**places) - 1/2| in exact arithmetic."""
    y = Fraction(abs(x)) * 10**places
    return abs(y - math.floor(y) - Fraction(1, 2))


def decimal_texts(x, places):
    """``decimals(x, places)`` as the "%.{places}f" text it stands for."""
    x = np.asarray(x, dtype=np.float64)
    n = text.decimals(x, places).tolist()
    return ["-" * s + "%d.%0*d" % (k // 10**places, places, k % 10**places)
            for s, k in zip(np.signbit(x).tolist(), n)]


@pytest.mark.parametrize("places", [6, 9])
@given(data=st.data())
def test_decimals_on_floats_up_to_2_52(places, data):
    edge = 2.0**52 / 10**places
    xs = data.draw(st.lists(st.floats(-edge, edge, exclude_min=True, exclude_max=True),
                            min_size=1, max_size=50))
    assert decimal_texts(xs, places) == ["%.*f" % (places, x) for x in xs]


@pytest.mark.parametrize("places", [6, 9])
def test_decimals_next_to_ties(places):
    """The neighbours of (k + 1/2) / 10**p: x * 10**p often rounds onto
    the tie, and Dekker's error says which way the exact product lies."""
    rng = np.random.Generator(np.random.PCG64(23))
    ks = np.concatenate([rng.integers(0, 10**k, 300) for k in (3, 8, 12, 15)])
    centres = (ks + 0.5) / 10**places
    xs = np.concatenate([centres] + [np.nextafter(centres, s * np.inf) for s in (-1, 1)])
    xs = np.concatenate([xs, -xs, [2.0**52 / 10**places * (1 - 2**-52)]])
    y = np.abs(xs) * 10**places
    false_ties = [x for x, tie in zip(xs.tolist(), (np.abs(y - np.rint(y)) == 0.5).tolist())
                  if tie and exact_tie_distance(x, places) != 0]
    assert len(false_ties) > 100
    assert decimal_texts(xs, places) == ["%.*f" % (places, x) for x in xs.tolist()]


@pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan, 2.0**52 / 1e6, -(2.0**52) / 1e6])
def test_decimals_none_past_2_52(x):
    assert text.decimals(np.array([1.0, x]), 6) is None


def test_int_texts():
    n = np.array([0, 999, 1000, 10**6 - 1, 10**6, 2**52, 5, 1001, 10**9, 123456789])
    assert join_rows(int_texts(n, "\n")).decode() == "".join(f"{k}\n" for k in n.tolist())
    for k in n.tolist():
        assert join_rows(int_texts(np.array([k]), ",")) == b"%d," % k
    assert join_rows(int_texts(n, ",", places=3, neg=n % 2 == 1)).decode() == "".join(
        "%s%d.%03d," % ("-" * (k % 2), k // 1000, k % 1000) for k in n.tolist())


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
