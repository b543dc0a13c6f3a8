import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gippsim import text
from gippsim.fxp import RAW_MAX
from gippsim.text import fixed_texts, int_texts, join_rows, word_texts


def test_word_texts_format_every_word():
    table = word_texts()
    assert table is word_texts() and table.dtype == "S11" and not table.flags.writeable
    texts = join_rows([table]).decode("ascii")
    assert texts == "".join(f"{raw / 64:.6f}," for raw in range(RAW_MAX + 1))


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
def test_decimals_on_exact_ties(places):
    """j / 2**(places + 1), j odd, are the doubles whose x * 10**places ends
    in exactly 1/2: "%.*f" rounds them half-even."""
    d = 2**(places + 1)
    ties = np.concatenate([np.arange(1, d, 2) / d + m for m in (0, 1, 7, 255, 512, 999)])
    assert all(exact_tie_distance(x, places) == 0 for x in ties.tolist())
    xs = np.concatenate([ties, -ties])
    assert decimal_texts(xs, places) == ["%.*f" % (places, x) for x in xs.tolist()]


@pytest.mark.parametrize("places", [6, 9])
def test_decimals_next_to_ties(places):
    """Floats one and two ulps from (k + 1/2) / 10**p, and their negatives:
    x * 10**p often rounds onto the tie, and Dekker's error says which way
    the exact product lies.  One draw of k spans magnitudes, one is dense."""
    rng = np.random.Generator(np.random.PCG64(23))
    wide = np.concatenate([rng.integers(0, 10**k, 300) for k in (3, 8, 12, 15)])
    dense = np.random.Generator(np.random.PCG64(22)).integers(0, 10**12, 400)
    for ks, least in ((wide, 100), (dense, 1000)):
        xs = (ks + 0.5) / 10**places
        for _ in range(2):
            xs = np.concatenate([xs] + [np.nextafter(xs, s * np.inf) for s in (-1, 1)])
        xs = np.concatenate([xs, -xs])
        y = np.abs(xs) * 10**places
        false_ties = [x for x, tie in zip(xs.tolist(), (np.abs(y - np.rint(y)) == 0.5).tolist())
                      if tie and exact_tie_distance(x, places) != 0]
        assert len(false_ties) > least
        assert decimal_texts(xs, places) == ["%.*f" % (places, x) for x in xs.tolist()]


@pytest.mark.parametrize("places", [6, 9])
def test_decimals_at_the_ends_of_the_range(places):
    """Zero, a half and one and a half of the last place, values that round
    up to 1000, tiny negatives, and the last double below 2**52 / 10**places."""
    nines = "999." + "9" * places
    xs = [float(s) for s in ("0", f"5e-{places + 1}", f"1.5e-{places}", nines + "4", nines + "5",
                             "1000", "-0", "-1e-12", f"-2.5e-{places}")]
    xs += [np.nextafter(1000.0, 0.0), np.nextafter(2.0**52 / 10**places, 0.0)]
    texts = decimal_texts(xs, places)
    assert texts == ["%.*f" % (places, x) for x in xs]
    assert texts[-2] == "1000." + "0" * places


@pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan, 2.0**52 / 1e6, -(2.0**52) / 1e6,
                               2.0**52 / 1e9, -(2.0**52) / 1e9])
def test_decimals_none_past_2_52(x):
    for places in (6, 9):
        if not abs(x) < 2.0**52 / 10**places:
            assert text.decimals(np.array([1.0, x]), places) is None


def test_int_texts():
    n = np.array([0, 999, 1000, 10**6 - 1, 10**6, 2**52, 5, 1001, 10**9, 123456789])
    assert join_rows(int_texts(n, "\n")).decode() == "".join(f"{k}\n" for k in n.tolist())
    for k in n.tolist():
        assert join_rows(int_texts(np.array([k]), ",")) == b"%d," % k
    assert join_rows(int_texts(n, ",", places=3, neg=n % 2 == 1)).decode() == "".join(
        "%s%d.%03d," % ("-" * (k % 2), k // 1000, k % 1000) for k in n.tolist())
