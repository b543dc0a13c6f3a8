import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gippsim.fxp import Fx, RAW_MAX, decode, encode, sqrt
from gippsim.gipps import (
    GippsOperands,
    InvalidOperandsError,
    gipps_batch,
    gipps_reference,
    gipps_step,
)
from gippsim.oracle import block_oracle, pipeline_oracle


def ops_from_floats(a, t, vstar, v):
    return GippsOperands(encode(a), encode(t), encode(vstar), encode(v))


def test_step_from_rest():
    res = gipps_step(ops_from_floats(2.0, 0.5, 20.0, 0.0))
    assert decode(res.va) == 0.4375
    assert res.words() == [
        ("q", 0), ("f", 64), ("r", 2), ("s", 11),
        ("p1", 320), ("p2", 160), ("p3", 160), ("p4", 28), ("va", 28), ("cycles", 4),
    ]


def test_step_at_desired_speed_is_identity():
    res = gipps_step(ops_from_floats(2.0, 1.0, 20.0, 20.0))
    assert res.va.raw == encode(20.0).raw
    assert res.cycles == 4


def test_step_worst_grid_case():
    # largest fixed-vs-ideal gap on the default grid: the truncated
    # divide feeds the sqrt at its steepest point and the a*T gain is 12.5
    ops = GippsOperands(Fx(320), Fx(64), Fx(4480), Fx(139))
    res = gipps_step(ops)
    assert res.va.raw == 299
    ideal = gipps_reference(5.0, 1.0, 70.0, decode(Fx(139)))
    assert abs(decode(res.va) - ideal) == pytest.approx(0.3669468, abs=1e-6)


def test_cycles_track_sqrt_iterations():
    res = gipps_step(ops_from_floats(1.0, 0.25, 36.0, 18.0))
    assert res.cycles == 2 + sqrt(res.r.raw)[1].iterations


def test_preconditions():
    with pytest.raises(InvalidOperandsError, match="desired speed"):
        gipps_step(GippsOperands(Fx(64), Fx(64), Fx(0), Fx(0)))
    with pytest.raises(InvalidOperandsError, match="reaction time"):
        gipps_step(GippsOperands(Fx(64), Fx(0), Fx(64), Fx(0)))
    with pytest.raises(InvalidOperandsError, match="exceeds"):
        gipps_step(GippsOperands(Fx(64), Fx(64), Fx(64), Fx(65)))


# Words outside 0..16383 that the arithmetic would take without a check:
# the first drives the datapath to va = Fx(-29) and the oracle's floor
# root to a negative radicand; the second (v <= V*, both past the word
# width) saturates to va = 16383 on both paths.
OUT_OF_RANGE = [
    (GippsOperands(Fx(64), Fx(64), Fx(64), Fx(-5)), "v raw -5 outside"),
    (GippsOperands(Fx(64), Fx(64), Fx(20000), Fx(19000)), "vstar raw 20000 outside"),
]


@pytest.mark.parametrize("ops, message", OUT_OF_RANGE)
def test_every_entry_point_rejects_out_of_range_words(ops, message):
    with pytest.raises(InvalidOperandsError, match=message):
        gipps_step(ops)
    with pytest.raises(InvalidOperandsError, match=message):
        pipeline_oracle(ops)
    v = np.array([0, ops.v.raw], dtype=np.int64)
    for block_entry in (gipps_batch, block_oracle):
        with pytest.raises(InvalidOperandsError, match=message):
            block_entry(ops.a.raw, ops.T.raw, ops.vstar.raw, v)
        with pytest.raises(InvalidOperandsError, match=message):
            block_entry(ops.a.raw, ops.T.raw, ops.vstar.raw, v[::-1])


def test_validate_names_each_out_of_range_operand():
    legal = GippsOperands(Fx(64), Fx(64), Fx(64), Fx(0))
    for name in ("a", "T", "vstar", "v"):
        for raw in (-1, RAW_MAX + 1):
            with pytest.raises(InvalidOperandsError, match=f"^{name} raw {raw} outside"):
                dataclasses.replace(legal, **{name: Fx(raw)}).validate()
    GippsOperands(Fx(RAW_MAX), Fx(RAW_MAX), Fx(RAW_MAX), Fx(RAW_MAX)).validate()


def test_reference_value():
    got = gipps_reference(2.0, 1.0, 20.0, 0.0)
    assert got == pytest.approx(2.5 * 2.0 * math.sqrt(0.025), rel=1e-12)
    assert got == pytest.approx(0.7905694150420949, abs=1e-15)
    assert gipps_reference(2.0, 1.0, 20.0, 20.0) == 20.0


def test_reference_preconditions():
    with pytest.raises(ValueError):
        gipps_reference(2.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        gipps_reference(2.0, 0.0, 20.0, 0.0)
    with pytest.raises(ValueError):
        gipps_reference(2.0, 1.0, 20.0, 21.0)


@st.composite
def valid_operands(draw):
    vstar = draw(st.integers(min_value=1, max_value=RAW_MAX))
    v = draw(st.integers(min_value=0, max_value=vstar))
    a = draw(st.integers(min_value=0, max_value=RAW_MAX))
    t = draw(st.integers(min_value=1, max_value=RAW_MAX))
    return GippsOperands(Fx(a), Fx(t), Fx(vstar), Fx(v))


@given(valid_operands())
def test_step_matches_oracle_on_arbitrary_operands(ops):
    assert gipps_step(ops).words() == pipeline_oracle(ops).words()


@given(valid_operands())
def test_velocity_never_decreases(ops):
    res = gipps_step(ops)
    assert res.va.raw >= ops.v.raw
