"""Command-line front end.

Subcommands:

  step    evaluate one velocity update and print the pipeline trace
  sqrt    inspect the seeded-Babylonian square root on one operand
  sweep   exhaustive fixed-point vs oracle vs ideal verification sweep
  sim     run the traffic workload and write its trace CSV
  bench   time a host float baseline against the modeled accelerator

All decimal flags are quantized through encode() on parse, so commands
operate on exactly the words the datapath would see.  Every command is
deterministic for fixed inputs except bench's host timing fields.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .fxp import Fx, OutOfRangeError, decode, encode, sqrt
from .gipps import GippsOperands, InvalidOperandsError, gipps_reference, gipps_step
from .pearray import DEFAULT_CLOCK_HZ, BatchReport, PeArrayConfig, dispatch_batch
from .sim import CONFIG_KEYS, ConfigError, SimRun, load_sim_config, write_trace_csv
from .sim import run_sim  # noqa: F401  (perfbench's sim.run span binds it; ROADMAP item 6)
from .sweep import DEFAULT_ACCELS, DEFAULT_TIMES, DEFAULT_VSTARS, grid_blocks, run_sweep

_BENCH_SEED = 20260815    # fixed so bench operand sets are reproducible


@dataclass(frozen=True)
class BenchReport:
    host_ns_per_op: float
    host_iterations: int
    modeled_ns_per_op: float
    modeled_ratio: float        # host / modeled
    batch: BatchReport
    host: str

    def lines(self) -> list[str]:
        out = [
            f"host: {self.host}",
            f"host_iterations: {self.host_iterations}",
            f"host_ns_per_op: {self.host_ns_per_op:.3f}",
            f"modeled_ns_per_op: {self.modeled_ns_per_op:.3f}",
            f"modeled_ratio: {self.modeled_ratio:.3f}",
        ]
        out.extend("batch_" + line for line in self.batch.lines())
        return out


def _fx_flag(text: str) -> Fx:
    """argparse type hook: decimal string -> quantized word."""
    try:
        return encode(float(text))
    except (ValueError, OutOfRangeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _pe_config(args: argparse.Namespace) -> PeArrayConfig:
    return PeArrayConfig(num_pes=args.pes, clock_hz=args.clock_hz)


def cmd_step(args: argparse.Namespace) -> int:
    ops = GippsOperands(a=args.a, T=args.t, vstar=args.vstar, v=args.v)
    res = gipps_step(ops)
    for name, fx in res.stages():
        print(f"{name:<3} raw={fx.raw:>6}  {decode(fx):>11.6f}")
    print(f"va  raw={res.va.raw:>6}  {decode(res.va):>11.6f}")
    print(f"cycles: {res.cycles}")
    return 0


def cmd_sqrt(args: argparse.Namespace) -> int:
    root, trace = sqrt(args.s.raw)
    print(f"radicand: raw={trace.radicand}  {decode(Fx(trace.radicand)):.6f}")
    print(f"seed: {trace.seed_x0}")
    for n, x in enumerate(trace.iterates, start=1):
        print(f"pass {n}: {x}")
    print(f"iterations: {trace.iterations}")
    print(f"result: raw={root}  {decode(Fx(root)):.6f}")
    return 0


def _axis(text: str) -> tuple[float, ...]:
    """argparse type hook: comma-separated decimal grid axis."""
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values:
        raise argparse.ArgumentTypeError("empty axis")
    return values


@contextlib.contextmanager
def _replacing(path: str) -> Iterator[str]:
    """Yield a new temp path beside ``path``: moved over ``path`` on
    success, removed on any exception (KeyboardInterrupt included)."""
    if os.path.exists(path) and not os.path.isfile(path):
        yield path          # a device or FIFO such as /dev/null: write in place
        return
    target = os.path.realpath(path)     # replace a symlink's target, not the link
    tmp = f"{target}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        open(tmp, "x").close()
    except OSError as exc:          # report the path asked for, not the temp name
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        yield tmp
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def cmd_sweep(args: argparse.Namespace) -> int:
    blocks = grid_blocks(args.vstars, args.accels, args.times,
                         v_equals_vstar=args.v_equals_vstar)
    with _replacing(args.out) as tmp:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            summary = run_sweep(blocks, row_sink=fh.write)
    for line in summary.lines():
        print(line)
    for line in summary.mismatch_report:
        print(line, file=sys.stderr)
    return 0 if summary.passed else 1


def cmd_sim(args: argparse.Namespace) -> int:
    overrides = {key: getattr(args, key) for key in CONFIG_KEYS}
    cfg = load_sim_config(args.config, overrides)
    run = SimRun(cfg, _pe_config(args))
    with _replacing(args.out) as tmp:
        write_trace_csv(run, tmp)
    print(f"trace: {args.out} ({cfg.n_vehicles * cfg.n_steps} rows)")
    for line in run.report.lines():
        print(line)
    print(f"saturated_updates: {run.saturated_updates}")
    return 0


def _bench_operands(n_ops: int) -> list[GippsOperands]:
    """Reproducible in-domain operand sets for the timing loop."""
    rng = np.random.Generator(np.random.PCG64(_BENCH_SEED))
    batch = []
    for _ in range(n_ops):
        vstar = encode(float(rng.uniform(5.0, 70.0)))
        v = Fx(int(rng.integers(0, vstar.raw + 1)))
        a = encode(float(rng.uniform(0.5, 5.0)))
        T = encode(float(rng.uniform(0.25, 1.0)))
        batch.append(GippsOperands(a=a, T=T, vstar=vstar, v=v))
    return batch


def run_bench(n_ops: int, iterations: int, pe_cfg: PeArrayConfig) -> BenchReport:
    if n_ops < 1:
        raise ValueError("n_ops must be >= 1")
    if iterations < 100:
        raise ValueError("iterations must be >= 100")
    batch = _bench_operands(n_ops)
    floats = [(decode(o.a), decode(o.T), decode(o.vstar), decode(o.v)) for o in batch]

    checksum = 0.0
    t0 = time.perf_counter_ns()
    for _ in range(iterations):
        for a, T, vstar, v in floats:
            checksum += gipps_reference(a, T, vstar, v)
    t1 = time.perf_counter_ns()
    if not (checksum > 0.0):    # guard: keep the loop body observable
        raise RuntimeError("benchmark checksum degenerate; timing invalid")

    per_iter_ns = (t1 - t0) / iterations
    tick_ns = max(time.get_clock_info("perf_counter").resolution * 1e9, 1.0)
    if per_iter_ns < 100.0 * tick_ns:
        print(
            f"warning: per-iteration time {per_iter_ns:.0f} ns is below 100 "
            f"timer ticks ({tick_ns:.0f} ns each); increase n_ops",
            file=sys.stderr,
        )

    _, report = dispatch_batch(batch, pe_cfg)
    host_ns_per_op = per_iter_ns / n_ops
    modeled_ns_per_op = 4e9 / pe_cfg.clock_hz
    return BenchReport(
        host_ns_per_op=host_ns_per_op,
        host_iterations=iterations,
        modeled_ns_per_op=modeled_ns_per_op,
        modeled_ratio=host_ns_per_op / modeled_ns_per_op,
        batch=report,
        host=f"{platform.processor() or platform.machine()}, "
             f"{platform.system()} {platform.release()}, "
             f"Python {platform.python_version()}",
    )


def cmd_bench(args: argparse.Namespace) -> int:
    report = run_bench(args.n_ops, args.iterations, _pe_config(args))
    for line in report.lines():
        print(line)
    print("context: a 2010-era Core i3-350M software baseline averaged "
          "144 ns per update, 9x the modeled 16 ns figure")
    return 0


def build_parser() -> argparse.ArgumentParser:
    pe_array = argparse.ArgumentParser(add_help=False)
    pe_array.add_argument("--clock-hz", type=int, default=DEFAULT_CLOCK_HZ,
                          help="modeled clock frequency (default 250 MHz)")
    pe_array.add_argument("--pes", type=int, default=1,
                          help="number of processing elements")

    parser = argparse.ArgumentParser(
        prog="gippsim",
        description="Bit-accurate model of a Q8.6 car-following accelerator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("step", help="evaluate one velocity update")
    p.add_argument("--a", type=_fx_flag, required=True, help="max acceleration")
    p.add_argument("--t", type=_fx_flag, required=True, help="reaction time")
    p.add_argument("--vstar", type=_fx_flag, required=True, help="desired speed")
    p.add_argument("--v", type=_fx_flag, required=True, help="current speed")
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("sqrt", help="trace the square root unit")
    p.add_argument("--s", type=_fx_flag, required=True, help="radicand")
    p.set_defaults(func=cmd_sqrt)

    p = sub.add_parser("sweep", help="exhaustive verification sweep")
    p.add_argument("--out", default="sweep.csv", help="per-case CSV path")
    p.add_argument("--vstars", type=_axis, default=DEFAULT_VSTARS,
                   help="comma-separated desired speeds")
    p.add_argument("--accels", type=_axis, default=DEFAULT_ACCELS,
                   help="comma-separated accelerations")
    p.add_argument("--times", type=_axis, default=DEFAULT_TIMES,
                   help="comma-separated reaction times")
    p.add_argument("--v-equals-vstar", action="store_true",
                   help="restrict the velocity axis to v = vstar")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sim", parents=[pe_array],
                       help="run the traffic workload")
    p.add_argument("--out", default="trace.csv", help="trace CSV path")
    p.add_argument("--config", default=None,
                   help="key = value configuration file")
    for key, kind in CONFIG_KEYS.items():     # --n-steps sets n_steps, ...
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, default=None)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("bench", parents=[pe_array],
                       help="host float baseline vs modeled accelerator")
    p.add_argument("--n-ops", dest="n_ops", type=int, default=1000,
                   help="operand sets per iteration")
    p.add_argument("--iterations", type=int, default=100,
                   help="timing iterations (minimum 100)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidOperandsError, OutOfRangeError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
