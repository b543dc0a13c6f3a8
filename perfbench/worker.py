"""One fresh interpreter that imports gippsim and runs one workload.

run.py starts it; it is not meant to be run by hand:

  worker.py setup --workload W --seed S
      time ``import gippsim`` plus building the CLI arguments
  worker.py run --workload W --seed S --seconds N --trace 0|1
      closed loop of ``gippsim.cli.main(argv)`` calls for N seconds

Either mode prints one JSON object as its only stdout line.  The CLI's
own prints are captured per call and handed back for checking.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time

from workloads import OUT, WORKLOADS, import_gippsim

# Float-baseline calibration: 1,000 fixed operand sets x 300 passes
# (about 90 ms), timed before and after every call.
CAL_OPS = 1000
CAL_ITERATIONS = 300

# Set-up probes: one after every call, so that they sample the whole
# run rather than one moment of host speed, and at least this many.
MIN_SETUP_PROBES = 12


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def cli_call(cli, argv, tracer=None):
    """One CLI call: exit code, wall seconds, captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter_ns()
        try:
            rc = cli.main(argv) if tracer is None else tracer.call(cli.main, argv)
        except SystemExit as exc:        # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        t1 = time.perf_counter_ns()
    return rc, (t1 - t0) / 1e9, buf.getvalue()


def float_baseline(cli):
    """The CLI's own float-baseline bench (``gipps_reference`` timing).

    It keeps the bench's checksum guard and timer-resolution warning.
    """
    from gippsim.pearray import PeArrayConfig
    return cli.run_bench(CAL_OPS, CAL_ITERATIONS, PeArrayConfig())


def probe_setup(args) -> float:
    """Time a fresh interpreter's set-up, as ``worker.py setup`` reports it."""
    proc = subprocess.run(
        [sys.executable, __file__, "setup", "--workload", args.workload,
         "--seed", str(args.seed)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return json.loads(proc.stdout)["setup_s"]


def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    import_gippsim()
    WORKLOADS[args.workload].argv(args.seed, "out.csv")
    return {"setup_s": time.perf_counter() - t0}


def cmd_run(args) -> dict:
    workload = WORKLOADS[args.workload]
    cli = import_gippsim().cli
    import numpy
    from tracer import Tracer    # not at module level: it imports numpy
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    target = OUT / f"{stem}.csv"
    argv = workload.argv(args.seed, str(target))

    float_baseline(cli)                                 # warm-up, discarded
    probe_setup(args)                                   # warm-up, discarded
    setup: list[float] = []
    calls: list[dict] = []
    kept: dict[str, str] = {}     # sha256 -> path of one output with it
    layers: list[dict] = []
    tracer = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(calls) % 2 == 1
        target.unlink(missing_ok=True)
        # The float baseline is timed right before and right after each
        # call; their mean tracks the host's speed during the call.
        ref_before = float_baseline(cli).host_ns_per_op
        if traced:
            tracer = Tracer()
            tracer.install()
            try:
                rc, wall, stdout = cli_call(cli, argv, tracer)
            finally:
                tracer.uninstall()
        else:
            rc, wall, stdout = cli_call(cli, argv)
        ref_after = float_baseline(cli).host_ns_per_op
        size = target.stat().st_size if target.exists() else 0
        digest = sha256_file(target) if target.exists() else ""
        if digest and digest not in kept:
            keep = OUT / f"{stem}-out{len(kept)}.csv"
            os.replace(target, keep)
            kept[digest] = str(keep)
        if traced:
            m = tracer.layer_metrics(wall, workload.pes)
            m["sweep.csv_bytes"] = size if workload.sim is None else 0
            m["sim.trace_bytes"] = 0 if workload.sim is None else size
            layers.append(m)
        calls.append({"rc": rc, "wall_s": wall, "stdout": stdout, "sha256": digest,
                      "bytes": size, "float_ref_ns": (ref_before + ref_after) / 2,
                      "traced": traced})
        setup.append(probe_setup(args))
        if time.perf_counter() - start >= args.seconds and (not args.trace or traced):
            break
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(probe_setup(args))

    target.unlink(missing_ok=True)
    spans = None
    if tracer is not None:
        spans = str(OUT / f"spans-{workload.name}.npz")
        tracer.save(spans, request=f"{stem}-call{len(calls) - 1}")
    return {
        "calls": calls,
        "setup_s": setup,
        "outputs": kept,
        "layers": layers,
        "spans": spans,
        "modeled_ns_per_op": float_baseline(cli).modeled_ns_per_op,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = cmd_setup(args) if args.mode == "setup" else cmd_run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
