import pytest

from gippsim.fxp import Fx
from gippsim.gipps import GippsOperands, InvalidOperandsError, gipps_step
from gippsim.pearray import (
    DEFAULT_CLOCK_HZ,
    BatchReport,
    PeArrayConfig,
    dispatch_batch,
)
from gippsim.sweep import grid_blocks


def small_batch(n):
    a, t, vstar, v = next(grid_blocks())
    return [GippsOperands(a, t, Fx(vs), Fx(raw))
            for vs, raw in zip(vstar[:n].tolist(), v[:n].tolist())]


def test_results_match_sequential_execution():
    batch = small_batch(37)
    results, report = dispatch_batch(batch, PeArrayConfig(num_pes=4))
    assert len(results) == 37
    for ops, res in zip(batch, results):
        assert res.va.raw == gipps_step(ops).va.raw
    assert report.ops == 37


def test_results_identical_across_pe_counts():
    batch = small_batch(50)
    baseline = [r.va.raw for r in dispatch_batch(batch)[0]]
    for p in (2, 3, 8, 50, 64):
        got = [r.va.raw for r in dispatch_batch(batch, PeArrayConfig(num_pes=p))[0]]
        assert got == baseline


def test_cycle_accounting_divisible():
    batch = small_batch(16)
    for p in (1, 2, 4, 8, 16):
        _, report = dispatch_batch(batch, PeArrayConfig(num_pes=p))
        assert report.cycles == 16 * 4 // p
        assert report.per_op_cycles == 4


def test_cycle_accounting_remainder():
    # 5 ops on 2 PEs: round-robin loads one PE with 3
    _, report = dispatch_batch(small_batch(5), PeArrayConfig(num_pes=2))
    assert report.cycles == 12


def test_more_pes_than_ops():
    _, report = dispatch_batch(small_batch(3), PeArrayConfig(num_pes=8))
    assert report.cycles == 4


def test_empty_batch():
    results, report = dispatch_batch([])
    assert results == []
    assert report == BatchReport(0, 0, 0.0, 0)


def test_modeled_time_follows_clock():
    batch = small_batch(1)
    _, report = dispatch_batch(batch)
    assert report.modeled_time_ns == 16.0            # 4 cycles at 250 MHz
    _, report = dispatch_batch(batch, PeArrayConfig(clock_hz=125_000_000))
    assert report.modeled_time_ns == 32.0
    _, report = dispatch_batch(batch, PeArrayConfig(clock_hz=1_000_000_000))
    assert report.modeled_time_ns == 4.0


def test_invalid_operand_names_batch_index():
    batch = small_batch(3)
    batch.insert(2, GippsOperands(Fx(64), Fx(64), Fx(0), Fx(0)))
    with pytest.raises(InvalidOperandsError, match=r"operand 2:"):
        dispatch_batch(batch)


def test_out_of_range_operand_names_batch_index():
    batch = small_batch(3)
    batch.insert(1, GippsOperands(Fx(64), Fx(64), Fx(64), Fx(-5)))
    with pytest.raises(InvalidOperandsError, match=r"^operand 1: v raw -5 outside"):
        dispatch_batch(batch)
    batch[1] = GippsOperands(Fx(64), Fx(64), Fx(20000), Fx(19000))
    with pytest.raises(InvalidOperandsError, match=r"^operand 1: vstar raw 20000 outside"):
        dispatch_batch(batch)


def test_config_validation():
    with pytest.raises(ValueError):
        PeArrayConfig(num_pes=0)
    with pytest.raises(ValueError):
        PeArrayConfig(clock_hz=0)
    assert PeArrayConfig().clock_hz == DEFAULT_CLOCK_HZ


def test_report_lines_format():
    _, report = dispatch_batch(small_batch(2), PeArrayConfig(num_pes=2))
    assert report.lines() == [
        "ops: 2",
        "cycles: 4",
        "modeled_time_ns: 16.000",
        "per_op_cycles: 4",
    ]
