"""The block sweep against the scalar datapath, oracle and ideal.

``run_sweep`` evaluates one (a, T) block of (V*, v) rows at a time on
int64 arrays.  These tests hold every block-level piece to its scalar
counterpart case by case, and the sweep's CSV bytes and summary to a
copy of the one-case-at-a-time loop it replaced.
"""

import dataclasses
import io
import math
import os
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gippsim import fxp, sweep, text
from gippsim.cli import main
from gippsim.fxp import RAW_MAX, Fx, decode
from gippsim.gipps import (
    GippsOperands,
    gipps_batch,
    gipps_reference,
    gipps_reference_block,
    gipps_step,
)
from gippsim.oracle import block_oracle, pipeline_oracle
from gippsim.sim import SimConfig, SimRun, write_trace_csv
from gippsim.sweep import CSV_HEADER, grid_blocks, run_sweep
from gippsim.text import fixed_texts, join_rows


def scalar_saturated(ops):
    """Whether a stage before the final add, and whether the final add,
    flagged a clamp while ``gipps_step`` ran ``ops``."""
    flags = []

    def recording(op):
        def wrapped(*args):
            out = op(*args)
            flags.append(out[1])
            return out
        return wrapped

    ops_by_name = {name: recording(getattr(fxp, name)) for name in ("div", "sub", "add", "mul")}
    with mock.patch.multiple(fxp, **ops_by_name):
        gipps_step(ops)
    return any(flags[:-1]), flags[-1]          # the final add is the last op


def per_case_sweep(cases):
    """The sweep as it ran before blocks: one case at a time."""
    rows = [CSV_HEADER + "\n"]
    n = mismatches = max_it = 0
    err_total = max_err = 0.0
    hist = Counter()
    for ops in cases:
        res = gipps_step(ops)
        ref = pipeline_oracle(ops)
        if res.va.raw != ref.va.raw or res.cycles != ref.cycles:
            mismatches += 1
        ideal = gipps_reference(decode(ops.a), decode(ops.T), decode(ops.vstar), decode(ops.v))
        err = abs(decode(res.va) - ideal)
        err_total += err
        if err > max_err:
            max_err = err
        max_it = max(max_it, fxp.sqrt(res.r.raw)[1].iterations)
        hist[res.cycles] += 1
        n += 1
        rows.append(
            f"{decode(ops.a):.6f},{decode(ops.T):.6f},"
            f"{decode(ops.vstar):.6f},{decode(ops.v):.6f},"
            f"{decode(res.va):.6f},{ideal:.9f},{err:.9f}\n"
        )
    lines = [
        f"cases: {n}",
        f"oracle_mismatches: {mismatches}",
        f"max_abs_err: {max_err:.9f}",
        f"mean_abs_err: {err_total / n if n else 0.0:.9f}",
        f"max_sqrt_iterations: {max_it}",
        "cycle_histogram: " + " ".join(f"{c}:{k}" for c, k in sorted(hist.items())),
    ]
    return "".join(rows), lines


@st.composite
def blocks(draw):
    """A legal batch: per element any a, T >= 1, V* >= 1 and v in 0..V*."""
    n = draw(st.integers(1, 40))
    a = draw(st.lists(st.integers(0, RAW_MAX), min_size=n, max_size=n))
    t = draw(st.lists(st.integers(1, RAW_MAX), min_size=n, max_size=n))
    vstar = draw(st.lists(st.integers(1, RAW_MAX), min_size=n, max_size=n))
    v = [draw(st.integers(0, x)) for x in vstar]
    return tuple(np.array(x, dtype=np.int64) for x in (a, t, vstar, v))


def each_case(block):
    """The batch's operand sets, one per element of its broadcast shape."""
    columns = [x.tolist() for x in np.broadcast_arrays(*block)]
    return [GippsOperands(*map(Fx, words)) for words in zip(*columns)]


@given(blocks())
@example((12800, 64, 320, np.arange(321, dtype=np.int64)))              # p1 clamps
@example((64, 16383, 320, np.arange(321, dtype=np.int64)))              # only p2 clamps
@example((16383, 16383, 16383, np.array([0, 8000, 16383])))             # va clamps
@example((6500, 64, 16383, np.array([0, 16000, 16383])))                # only va clamps
def test_block_datapath_equals_gipps_step(block):
    res = gipps_batch(*block)
    for i, ops in enumerate(each_case(block)):
        words = res.case(i).words()
        assert words == gipps_step(ops).words()
        assert all(type(x) is int for _, x in words)
        assert (bool(res.clamped[i]), bool(res.va_clamped[i])) == scalar_saturated(ops)


@given(blocks())
@example((12800, 64, 320, np.arange(321, dtype=np.int64)))
@example((64, 16383, 320, np.arange(321, dtype=np.int64)))
@example((6500, 64, 16383, np.array([0, 16000, 16383])))
def test_block_oracle_equals_pipeline_oracle(block):
    ref = block_oracle(*block)
    res = gipps_batch(*block)
    assert np.array_equal(ref.clamped, res.clamped)
    assert np.array_equal(ref.va_clamped, res.va_clamped)
    for i, ops in enumerate(each_case(block)):
        words, scalar = ref.case(i).words(), pipeline_oracle(ops).words()
        assert words == scalar
        assert all(type(x) is int for _, x in words + scalar)


def test_block_entries_check_operands():
    v = np.arange(5, dtype=np.int64)
    vstar = np.full(5, 64, dtype=np.int64)
    for entry in (gipps_batch, block_oracle):
        with pytest.raises(ValueError, match="exceeds"):
            entry(64, 64, 3, v)
        with pytest.raises(ValueError, match="reaction time"):
            entry(64, 0, 64, v)
        with pytest.raises(ValueError, match="desired speed"):
            entry(64, 64, 0, v[:1])
        # one bad element in a per-element V* batch is named by its index
        with pytest.raises(ValueError, match="^velocity raw 4 exceeds .* raw 3 at index 3$"):
            entry(64, 64, np.where(v == 3, 3, vstar), np.where(v == 3, 4, v))
        with pytest.raises(ValueError, match="^desired speed must be positive at index 3$"):
            entry(64, 64, np.where(v == 3, 0, vstar), v)


axis_words = st.lists(st.integers(0, RAW_MAX), min_size=1, max_size=2)


@settings(max_examples=40, deadline=None)
@given(
    accels=axis_words,
    times=st.lists(st.integers(1, RAW_MAX), min_size=1, max_size=2),
    vstars=st.lists(st.integers(1, 200), min_size=1, max_size=2),
    v_equals_vstar=st.booleans(),
)
@example(accels=[12800], times=[64], vstars=[320], v_equals_vstar=False)     # saturating
@example(accels=[64, 320], times=[32, 64], vstars=[320, 1280], v_equals_vstar=True)
@example(accels=[16383], times=[16383], vstars=[12800], v_equals_vstar=False)  # ideal > 1000
@example(accels=[64], times=[16], vstars=[16383, 32, 64, 16383], v_equals_vstar=False)  # row cap
def test_run_sweep_matches_per_case_loop(accels, times, vstars, v_equals_vstar):
    axes = dict(vstars=[w / 64 for w in vstars], accels=[w / 64 for w in accels],
                times=[w / 64 for w in times], v_equals_vstar=v_equals_vstar)
    fh = io.BytesIO()
    summary = run_sweep(grid_blocks(**axes), fh)
    want_csv, want_lines = per_case_sweep(spelled_out_grid(**axes))
    # as lists of lines, so that a failure names the first differing row quickly
    assert fh.getvalue().splitlines(keepends=True) == want_csv.encode().splitlines(keepends=True)
    assert summary.lines()[:6] == want_lines
    assert fh.getvalue().count(b"\n") == summary.cases + 1


class RecordingFile(io.BytesIO):
    """A binary file that keeps each ``write`` call's bytes."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, data):
        self.writes.append(data)
        return super().write(data)


def test_run_sweep_writes_header_then_one_write_per_block():
    axes = dict(vstars=(0.5, 1.0, 5.0), accels=(1.0, 200.0), times=(0.25, 1.0))
    fh = RecordingFile()
    run_sweep(grid_blocks(**axes), fh)
    n_blocks = len(list(grid_blocks(**axes)))
    assert n_blocks == 4
    assert len(fh.writes) == 1 + n_blocks
    assert fh.writes[0] == (CSV_HEADER + "\n").encode()
    want = per_case_sweep(spelled_out_grid(**axes))[0]
    # as lists of lines, so that a failure names the first differing row quickly
    assert b"".join(fh.writes).splitlines(keepends=True) == want.encode().splitlines(keepends=True)


def no_percent_texts(x, places, end):
    raise AssertionError(f"{len(x)} values fell back to per-element %.{places}f")


def test_run_sweep_writes_columns_past_2_52_as_percent_texts(monkeypatch):
    """Only the columns of a block with ideals and errors past 2**52 / 10**9
    are written from per-element "%.9f" texts."""
    axes = dict(vstars=(5.0,), accels=(255.0, 1.0), times=(255.0,))
    real_ideal, real_texts = sweep.gipps_reference_block, text._percent_texts
    fallbacks = []

    def counting(x, places, end):
        fallbacks.append((len(x), places, end))
        return real_texts(x, places, end)

    monkeypatch.setattr(sweep, "gipps_reference_block",
                        lambda a, *rest: real_ideal(a, *rest) * (1e7 if a == 255 else 1))
    monkeypatch.setattr(text, "_percent_texts", counting)
    fh = RecordingFile()
    run_sweep(grid_blocks(**axes), fh)
    assert fallbacks == [(321, 9, ","), (321, 9, "\n")]
    assert len(fh.writes) == 3
    rows = [line.split(",") for line in b"".join(fh.writes).decode().splitlines()[1:]]
    ideals = [real_ideal(*map(float, (a, t, vs, v))) * (1e7 if a == "255.000000" else 1)
              for a, t, vs, v, *_ in rows]
    assert [r[5] for r in rows] == ["%.9f" % x for x in ideals]
    assert all(r[6] == "%.9f" % abs(float(r[4]) - x) for r, x in zip(rows, ideals))


def test_default_grid_writes_no_percent_texts(monkeypatch, default_grid):
    monkeypatch.setattr(text, "_percent_texts", no_percent_texts)
    fh = RecordingFile()
    assert run_sweep(grid_blocks(), fh).lines() == default_grid.lines()
    assert len(fh.writes) == 1 + 12


def test_fixed_texts_equal_percent_texts_rounding_up_to_1000(monkeypatch):
    """The exact path against per-element "%.9f" (``decimals`` made to give
    None), on ideals that round up to 1000."""
    axes = dict(vstars=(0.5, 1.0), accels=(1.0,), times=(0.25,))
    monkeypatch.setattr(sweep, "gipps_reference_block",
                        lambda a, t, vstar, v: np.full(len(v), 999.9999999996))
    got = io.BytesIO()
    run_sweep(grid_blocks(**axes), got)
    monkeypatch.setattr(text, "decimals", lambda x, places: None)
    want = io.BytesIO()
    run_sweep(grid_blocks(**axes), want)
    assert got.getvalue().splitlines() == want.getvalue().splitlines()
    assert got.getvalue().count(b",1000.000000000,") == 33 + 65


def test_decimals_9_on_default_grid():
    for a, t, vstar, v in grid_blocks():
        ideal = gipps_reference_block(decode(a), decode(t), vstar / 64, v / 64)
        errs = np.abs(gipps_batch(a.raw, t.raw, vstar, v).va / 64 - ideal)
        for x in (ideal, errs):
            texts = join_rows(fixed_texts(x, 9, "\n")).decode().splitlines()
            assert texts == ["%.9f" % y for y in x.tolist()]


def spelled_out_grid(vstars=sweep.DEFAULT_VSTARS, accels=sweep.DEFAULT_ACCELS,
                     times=sweep.DEFAULT_TIMES, v_equals_vstar=False):
    """The grid's cases in CSV order: a, then T, then V*, then v."""
    return [GippsOperands(fxp.encode(a), fxp.encode(t), fxp.encode(vs), Fx(raw))
            for a in accels for t in times for vs in vstars
            for raw in range(fxp.encode(vs).raw if v_equals_vstar else 0, fxp.encode(vs).raw + 1)]


# V* runs of 16,384, 33, 65, 16,384, 16,384, 193 and 12,801 rows
CAP_AXES = dict(vstars=(255.984375, 0.5, 1.0, 255.984375, 255.984375, 3.0, 200.0),
                accels=(1.0, 200.0), times=(0.25,))


@pytest.mark.parametrize("axes, n_pairs, rows", [
    (CAP_AXES, 2, [16384, 33 + 65, 16384, 16384, 193 + 12801]),
    (dict(CAP_AXES, v_equals_vstar=True), 2, [7]),
    ({}, 12, [321 + 641 + 1281 + 2305 + 4481]),
    (dict(v_equals_vstar=True), 12, [5]),
], ids=["row-cap", "row-cap-v-equals-vstar", "default", "default-v-equals-vstar"])
def test_grid_blocks_hold_one_a_t_pair_and_at_most_block_rows(axes, n_pairs, rows):
    blocks = list(grid_blocks(**axes))
    assert sweep.BLOCK_ROWS == RAW_MAX + 1 == 16384
    assert [len(v) for _, _, _, v in blocks] == rows * n_pairs
    pairs = [(a, t) for a, t, _, _ in blocks]
    assert all(isinstance(x, Fx) for pair in pairs for x in pair)
    assert len(set(pairs)) == n_pairs
    assert pairs == sorted(pairs, key=pairs.index)     # a pair's blocks are consecutive
    flat = [GippsOperands(a, t, Fx(vs), Fx(raw))
            for a, t, vstar, v in blocks
            for vs, raw in zip(vstar.tolist(), v.tolist())]
    assert flat == spelled_out_grid(**axes)


def test_default_sweep_keeps_only_what_it_writes():
    """A block holds its rows at most twice while it is written: the joined
    record and its bytes, then the bytes and the NUL-stripped copy, since
    ``join_rows`` empties the list of text fields once the record is filled;
    never the datapath's and the oracle's stage arrays.  Measured peak with numpy
    2.4.6: 1.78 MiB (2.31 MiB when the fields stayed alive through the join,
    3.23 MiB when the record did through the strip too, 4.31 MiB when both
    results did too); the bound leaves 12% margin."""
    run_sweep(grid_blocks(vstars=(5.0,)), io.BytesIO())     # digit tables are built once
    with open(os.devnull, "wb") as fh:
        tracemalloc.start()
        try:
            run_sweep(grid_blocks(), fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2.0 * 2**20


@pytest.mark.parametrize("cfg", [
    SimConfig(n_vehicles=100, n_steps=500),         # the benchmark's sim_platoon shape
    SimConfig(n_vehicles=4, n_steps=12_500),        # and its sim_narrow shape
], ids=["platoon", "narrow"])
def test_sim_writer_keeps_one_block(cfg):
    """The trace writer holds one block of ``sim._BLOCK_ROWS`` rows at a time,
    at most twice while ``join_rows`` strips it, as the sweep does.  Measured
    peak with numpy 2.4.6 at 8,192 rows per block: 1.40 MiB (platoon) and
    1.31 MiB (narrow), against 0.75 and 0.63 MiB at 4,096; the bound leaves
    14% margin, so a larger block shows here."""
    write_trace_csv(SimRun(SimConfig(n_vehicles=2, n_steps=2)), io.BytesIO())   # digit tables
    with open(os.devnull, "wb") as fh:
        tracemalloc.start()
        try:
            write_trace_csv(SimRun(cfg), fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.6 * 2**20


@pytest.fixture(scope="module")
def default_grid():
    return run_sweep(grid_blocks(), io.BytesIO())


def test_saturated_cases_counts_clamps(capsys, tmp_path, default_grid):
    argv = ["sweep", "--out", str(tmp_path / "s.csv"),
            "--vstars", "5", "--accels", "200", "--times", "1"]
    assert main(argv) == 0                       # saturation is reported, not failed
    out = capsys.readouterr().out
    recount = sum(any(scalar_saturated(ops))
                  for ops in spelled_out_grid(vstars=(5.0,), accels=(200.0,), times=(1.0,)))
    assert recount == 321
    assert f"saturated_cases: {recount}" in out.splitlines()
    assert default_grid.lines()[-1] == "saturated_cases: 0"


def test_first_mismatch_names_case_and_stage(capsys, monkeypatch, tmp_path):
    real = sweep.block_oracle

    def perturbed(a, t, vstar, v):
        ref = real(a, t, vstar, v)
        p4, va = ref.p4.copy(), ref.va.copy()
        p4[7] += 1
        va[7] += 1
        return dataclasses.replace(ref, p4=p4, va=va)

    monkeypatch.setattr(sweep, "block_oracle", perturbed)
    argv = ["sweep", "--out", str(tmp_path / "s.csv"),
            "--vstars", "5", "--accels", "1", "--times", "0.5"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "oracle_mismatches: 1" in captured.out.splitlines()
    err = captured.err.splitlines()
    assert err[0].startswith("first mismatch: a=1.000000 T=0.500000 vstar=5.000000 "
                             "v=0.109375 (raw 64 32 320 7; ideal ")
    p4 = gipps_step(GippsOperands(Fx(64), Fx(32), Fx(320), Fx(7))).p4.raw
    assert err[1] == f"first differing stage: p4 datapath raw {p4}, oracle raw {p4 + 1}"
    assert err[2] == "scalar re-run: gipps_step and pipeline_oracle agree"


def test_first_mismatch_in_a_merged_block_names_its_rows_vstar(monkeypatch):
    real = sweep.block_oracle

    def perturbed(a, t, vstar, v):
        ref = real(a, t, vstar, v)
        va = ref.va.copy()
        va[33 + 7] += 1                   # the V* = 0.5 run has 33 rows
        return dataclasses.replace(ref, va=va)

    monkeypatch.setattr(sweep, "block_oracle", perturbed)
    summary = run_sweep(grid_blocks(vstars=(0.5, 5.0), accels=(1.0,), times=(0.5,)),
                        io.BytesIO())
    assert summary.mismatches == 1
    assert summary.mismatch_report[0].startswith(
        "first mismatch: a=1.000000 T=0.500000 vstar=5.000000 v=0.109375 (raw 64 32 320 7; ")
    va = gipps_step(GippsOperands(Fx(64), Fx(32), Fx(320), Fx(7))).va.raw
    assert summary.mismatch_report[1] == f"first differing stage: va datapath raw {va}, " \
                                         f"oracle raw {va + 1}"


def test_ideal_block_equals_gipps_reference_on_default_grid():
    for a, t, vstar, v in grid_blocks():
        xs = (decode(a), decode(t))
        got = gipps_reference_block(*xs, vstar / 64, v / 64).tolist()
        assert got == [gipps_reference(*xs, vs / 64, raw / 64)
                       for vs, raw in zip(vstar.tolist(), v.tolist())]


def test_ideal_block_equals_gipps_reference_on_random_floats():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(200):
        a, t = rng.uniform(0.0, 300.0), rng.uniform(1e-6, 300.0)
        vstar = rng.uniform(1e-6, 300.0)
        v = rng.uniform(0.0, vstar, 50)
        got = gipps_reference_block(float(a), float(t), float(vstar), v).tolist()
        assert got == [gipps_reference(float(a), float(t), float(vstar), x) for x in v.tolist()]


def test_mean_abs_err_sums_errors_in_case_order(default_grid):
    errs = []
    for a, t, vstar, v in grid_blocks():
        va = gipps_batch(a.raw, t.raw, vstar, v).va.tolist()
        errs += [abs(x / 64 - gipps_reference(decode(a), decode(t), vs / 64, raw / 64))
                 for vs, raw, x in zip(vstar.tolist(), v.tolist(), va)]
    total = 0.0
    for err in errs:
        total += err
    assert default_grid.mean_abs_err == total / len(errs) == 0.017706800857223405
    assert default_grid.max_abs_err == max(errs) == 0.3669468295667908
    # the order is visible: a compensated or pairwise sum gives other bits
    assert math.fsum(errs) != total
    assert float(np.sum(np.array(errs))) != total
