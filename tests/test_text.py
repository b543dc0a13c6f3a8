import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gippsim import text
from gippsim.fxp import RAW_MAX
from gippsim.text import fixed_texts, int_texts, join_rows, word_texts


def test_word_texts_format_every_word():
    assert word_texts().dtype == "S10"
    texts = join_rows([word_texts(), b"\n"]).decode("ascii").splitlines()
    assert texts == [f"{raw / 64:.6f}" for raw in range(RAW_MAX + 1)]
    with_end = join_rows([word_texts(",")]).decode("ascii")
    assert with_end == "".join(f"{raw / 64:.6f}," for raw in range(RAW_MAX + 1))


def six_decimal_texts(x):
    """``fixed_texts(x, 6, "\n")`` joined, one string per value."""
    return join_rows(fixed_texts(np.asarray(x, dtype=np.float64), 6, "\n")).decode().splitlines()


def test_fixed_texts_6_places_format_every_fraction():
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
def test_fixed_texts_6_places_leave_off_grid_arrays_to_percent_format(x):
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
