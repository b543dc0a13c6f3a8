"""gippsim benchmark: one workload, timed end to end or traced by layer.

  python3 perfbench/run.py --workload sim_platoon --seed 3 --seconds 20 --trace 0

Run from the root of a gippsim checkout.  Each workload runs in a fresh
interpreter (worker.py), one at a time, with no threads: a closed loop
with a single client that starts the next ``gippsim.cli.main`` call
only after the previous one returned, for ``--seconds`` seconds.
Every output is then checked against the integer oracle (verify.py),
outside the timed phase.

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` alternates untraced and traced calls and prints the
per-layer metrics (tracer.py).  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it are a readable summary.  Full details, including the run
fingerprint, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy's BLAS would start a thread pool at import; the benchmark and
# every interpreter it starts (which inherit this) run single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import verify  # noqa: E402  (after the thread settings: it imports numpy)
from workloads import OUT, ROOT, SRC, WORKLOADS, import_gippsim

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

CHILD_DEADLINE_S = 150    # the worker is killed after this; the run ends within 180 s


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_worker(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"worker {' '.join(args)} ran past {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def src_digest() -> str:
    """sha256 over the program's source files, a version id without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*cmd: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def check_calls(workload, seed: int, result: dict) -> tuple[list[int], float, int | None, list[str]]:
    """Failed updates per call, max datapath error, modeled cycles, problems."""
    gippsim = import_gippsim()
    checks = {}
    for digest, path in result["outputs"].items():
        checks[digest] = verify.check_output(path, workload, seed, gippsim)
        os.remove(path)
    problems: list[str] = []
    failed: list[int] = []
    cycles = None
    for i, call in enumerate(result["calls"]):
        call_cycles, call_problems = verify.check_report(call["stdout"], workload)
        if cycles is None:
            cycles = call_cycles
        check = checks.get(call["sha256"])
        if call["rc"] != 0:
            call_problems.append(f"exit code {call['rc']}")
        if check is None:
            call_problems.append("no output file")
        else:
            call_problems += check.problems
        if call_problems:
            failed.append(workload.updates)
            problems += [f"call {i}: {p}" for p in call_problems]
        else:
            failed.append(check.failed)
            if check.failed:
                problems.append(f"call {i}: {check.failed} rows differ from the oracle")
    max_err = max((c.max_abs_err for c in checks.values()), default=0.0)
    return failed, max_err, cycles, problems


def run_metrics(workload, result, failed, max_err, cycles) -> dict[str, float]:
    """Metrics of the untraced calls and the checks, in either mode."""
    calls = [c for c in result["calls"] if not c["traced"]]
    n = workload.updates
    attempted = n * len(result["calls"])
    return {
        "updates_per_s": statistics.median(n / c["wall_s"] for c in calls),
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "correct_rate": 1.0 - sum(failed) / attempted,
        "error_rate": sum(failed) / attempted,
        "slowdown_vs_float": statistics.median(
            c["wall_s"] / n * 1e9 / c["float_ref_ns"] for c in calls),
        "float_ref_ns": statistics.median(c["float_ref_ns"] for c in result["calls"]),
        "modeled_cycles": cycles or 0,
        "max_abs_err_mps": max_err,
    }


def layer_metrics(result) -> dict[str, float]:
    """Per-layer metrics: the median over the traced calls."""
    layers = result["layers"]
    metrics = {}
    for key in layers[0]:
        values = [m[key] for m in layers if key in m]
        if len(values) == len(layers):    # counts repeat exactly; keep them whole
            ints = all(isinstance(x, int) for x in values)
            metrics[key] = (statistics.median_low if ints else statistics.median)(values)
    plain = [c["wall_s"] for c in result["calls"] if not c["traced"]]
    traced = [c["wall_s"] for c in result["calls"] if c["traced"]]
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(plain)
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "gippsim" / "__init__.py").is_file():
        fail(f"no gippsim sources under {SRC}; run from the root of a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    common = ["--workload", workload.name, "--seed", str(args.seed)]

    # Build: byte-compile once, so no timed interpreter compiles sources.
    if not (compileall.compile_dir(str(SRC), quiet=1)
            and compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)):
        fail("byte-compiling the sources failed")

    timeout = CHILD_DEADLINE_S - (time.perf_counter() - started)
    result = run_worker(["run", *common, "--seconds", str(args.seconds),
                         "--trace", str(args.trace)], timeout)
    failed, max_err, cycles, problems = check_calls(workload, args.seed, result)
    attempted = workload.updates * len(result["calls"])
    metrics = run_metrics(workload, result, failed, max_err, cycles)
    if args.trace:
        metrics.update(layer_metrics(result))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    fingerprint = {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": result["python"],
        "numpy": result["numpy"],
        "git": git_state(),
        "src_sha256": src_digest(),
        "workload": workload.name,
        "seed": args.seed,
        "size": workload.size(args.seed),
        "run_seconds": args.seconds,
        "trace": args.trace,
        "calls": len(result["calls"]),
        "output_sha256": sorted({c["sha256"] for c in result["calls"]}),
        # Arithmetic, not a measurement: 4 cycles at the modeled clock.
        "modeled_ns_per_op": result["modeled_ns_per_op"],
    }

    walls = [c["wall_s"] for c in result["calls"] if not c["traced"]]
    q1, q2, q3 = quartiles([workload.updates / w for w in walls])
    print(f"workload {workload.name} seed {args.seed}: {len(result['calls'])} calls "
          f"of {workload.updates} updates in {args.seconds} s")
    print(f"updates_per_s over {len(walls)} untraced calls: "
          f"q1 {q1:.1f}  median {q2:.1f}  q3 {q3:.1f}")
    print(f"max_abs_err_mps (fixed point vs ideal, exact): {max_err:.9f} m/s")
    print(f"slowdown_vs_float: {metrics['slowdown_vs_float']:.2f} x "
          f"against float_ref_ns {metrics['float_ref_ns']:.1f} ns")
    for problem in problems:
        print(f"problem: {problem}")
    out_metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in metrics:
            print(f"absent: {name} (its function no longer exists)", file=sys.stderr)
            continue
        out_metrics[name] = {"value": metrics[name], "unit": entry["unit"]}
        print(f"{name}: {metrics[name]!r} {entry['unit']}")
    print("fingerprint: " + json.dumps(fingerprint))

    OUT.mkdir(exist_ok=True)
    detail = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"fingerprint": fingerprint, "metrics": metrics,
                                  "setup_s": result["setup_s"], "problems": problems,
                                  "calls": [{k: c[k] for k in ("wall_s", "float_ref_ns",
                                                               "traced", "sha256", "rc")}
                                            for c in result["calls"]],
                                  "spans": result["spans"]}, indent=1))
    print(json.dumps({
        "correct": not problems and sum(failed) == 0,
        "attempted": attempted,
        "failed": sum(failed),
        "metrics": out_metrics,
    }))


if __name__ == "__main__":
    main()
