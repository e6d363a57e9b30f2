"""Benchmark of swphase, driven from outside through its CLI and library entry points.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from `src/`.
With `--trace 0` a run repeats passes over the workload's operations for
`--seconds` and reports the end-to-end metrics.  With `--trace 1` it runs a
warm-up pass, one untraced and two traced passes, and reports the per-layer
metrics; the correctness verdict fails if the exact counts of the two traced
passes differ.  `--inject wrong-kernel` runs the workload against a deliberately
wrong kernel; its oracles must then fail operations.

End-to-end metrics (`--trace 0`):

* setup_s -- median wall time of a fresh process that imports swphase and
  completes the workload's first call; sampled after every pass and at least
  five times.
* wall_s -- median wall time of one pass over the workload's operations.
* op_s.p50, op_s.p90 -- per-operation latency over every pass of the run;
  the report line states how many samples lie beyond each.
* items_per_s -- Monte Carlo samples requested (Haar samples plus moduli
  draws) per second on verify-sweep and moment-panel, Wigner grid points per
  second on wigner-grid, in the median pass.  One name serves both, because
  every metric is reported on every workload.
* peak_rss_mb -- peak resident memory of this process after the passes.

`error_rate` (failed over attempted operations) is printed with them; it is
the `failed` and `attempted` of the result line.  A `verify` that exits 1
with every |z| within the failure limit is counted as a statistical flag.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give provenance and
each metric by name and unit.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {"setup_s": "s", "wall_s": "s", "op_s.p50": "s", "op_s.p90": "s",
         "items_per_s": "1/s", "peak_rss_mb": "MiB"}


class Ledger:
    """Outcomes of every operation run, with the fingerprints of their outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.flags = 0
        self.failures: list[str] = []
        self.fingerprints: dict[str, bytes] = {}

    def grade(self, op, outcome, error):
        self.attempted += 1
        verdict, fingerprint = f"fail: raised {error!r}", None
        if error is None:
            try:
                verdict, fingerprint = op.check(outcome)
            except Exception as exc:  # malformed output fails the operation, not the run
                verdict = f"fail: output check raised {exc!r}"
            if fingerprint and self.fingerprints.setdefault(op.name, fingerprint) != fingerprint:
                verdict = "fail: output differs from an earlier run with the same arguments"
        if verdict == "flag":
            self.flags += 1
        elif verdict != "ok":
            self.failed += 1
            self.failures.append(f"{op.name}: {verdict}")


def run_pass(sw, ops, ledger, trace=None):
    """Run every operation once, closed loop; grade the outputs after the timed region."""
    tracer.clear_caches()
    latencies, outcomes = [], []
    if trace is not None:
        trace.install(sw)
    try:
        start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                if trace is None:
                    outcome = op.call()
                else:
                    with trace.span("bench.op"):
                        outcome = op.call()
                outcomes.append((outcome, None))
            except Exception as exc:  # an operation failure is counted, not fatal
                outcomes.append((None, exc))
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
    finally:
        if trace is not None:
            trace.uninstall()
    for op, (outcome, error) in zip(ops, outcomes):
        ledger.grade(op, outcome, error)
    return wall, latencies


def python_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def fresh_process(args, timeout=120):
    return subprocess.run([sys.executable, *args], env=python_env(), cwd=ROOT, timeout=timeout,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True)


def measure_setup(code):
    """Wall time of a fresh process that imports swphase and completes its first call."""
    t0 = time.perf_counter()
    fresh_process(["-c", code])
    return time.perf_counter() - t0


def measure_imports():
    """Cumulative import times of swphase and of scipy.special within it, from -X importtime."""
    found = {"swphase": [], "scipy.special": []}
    for _ in range(IMPORTTIME_REPEATS):
        err = fresh_process(["-X", "importtime", "-c", "import swphase"]).stderr
        seen = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                seen[parts[2].strip()] = int(parts[1]) * 1e-6
        for name in found:
            found[name].append(seen.get(name, 0.0))
    return {
        "setup.import_s": statistics.median(found["swphase"]),
        "setup.scipy_special_import_s": statistics.median(found["scipy.special"]),
    }


def provenance(sw, args):
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "swphase": sw.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inject": args.inject,
    }


def end_to_end(sw, workload, args, ledger, report):
    ops = workload.ops
    # Warm-up on the largest operation: lazy imports, and the first touch of
    # its memory, which costs a first pass up to twice that operation's time.
    run_pass(sw, [max(ops, key=lambda op: op.items)], Ledger())
    walls, latencies, setups = [], [], []
    # Set-up is sampled once after each pass, inside the measured window, so
    # its samples spread over the run like the passes do.  A pass starts only
    # if it and its set-up sample are expected to end within --seconds.
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start + statistics.median(walls)
                        + statistics.median(setups) <= args.seconds):
        wall, lat = run_pass(sw, ops, ledger)
        walls.append(wall)
        latencies += lat
        setups.append(measure_setup(workload.first_call))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(workload.first_call))
    # One more repeat of a seeded operation, so single-pass runs check determinism too.
    run_pass(sw, [ops[args.seed % len(ops)]], ledger)

    wall = statistics.median(walls)
    items = sum(op.items for op in ops)
    p50, p90 = (float(x) for x in np.percentile(latencies, [50, 90]))
    count = len(latencies)
    report.append(f"passes={len(walls)} operations={count} items per pass={items} "
                  f"setup samples={len(setups)}")
    report.append(f"op_s samples: n={count}, {count - int(0.5 * count)} beyond p50, "
                  f"{count - int(0.9 * count)} beyond p90")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "op_s.p50": p50,
        "op_s.p90": p90,
        "items_per_s": items / wall,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(sw, workload, ledger, report):
    ops = workload.ops
    run_pass(sw, ops, Ledger())  # warm-up, so the untraced pass does not pay first-pass costs
    untraced, _ = run_pass(sw, ops, ledger)
    traces, walls = [], []
    for _ in range(2):
        t = tracer.Tracer()
        wall, _ = run_pass(sw, ops, ledger, t)
        traces.append(t.layer_metrics())
        walls.append(wall)
    first, second = traces
    counts = [k for k in first if tracer.unit(k) != "s"]
    moved = [k for k in counts if first[k] != second[k]]
    if moved:
        ledger.failures.append(f"counts differ between two traced passes: {', '.join(moved)}")
    metrics = {k: first[k] if k in counts else (first[k] + second[k]) / 2 for k in first}
    metrics["trace.overhead_s"] = statistics.mean(walls) - untraced
    metrics.update(measure_imports())
    report.append(f"untraced pass {untraced:.4f} s, traced passes {walls[0]:.4f} s and {walls[1]:.4f} s")
    return metrics, not moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("none", "wrong-kernel"), default="none")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "swphase" / "__init__.py").is_file():
        print(f"error: no swphase sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import swphase as sw
    import swphase.cli  # noqa: F401  (the package does not import its CLI)

    if Path(sw.__file__).resolve().parent != SRC / "swphase":
        print(f"error: imported swphase from {sw.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    patches = tracer.Patches()
    ledger, report = Ledger(), []
    try:
        rng = np.random.default_rng(args.seed)
        workload = WORKLOADS[args.workload](sw, rng, scratch)
        # A fixed shuffle spreads every kind of operation over the whole pass,
        # so a slow spell of the machine does not fall on one kind only.
        workload.ops = [workload.ops[i] for i in rng.permutation(len(workload.ops))]
        if args.inject == "wrong-kernel":
            workload.inject_wrong_kernel(patches)
        if args.trace:
            metrics, counts_repeat = per_layer(sw, workload, ledger, report)
            units = {k: tracer.unit(k) for k in metrics}
        else:
            metrics, counts_repeat = end_to_end(sw, workload, args, ledger, report), True
            units = UNITS
    finally:
        patches.undo()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    print("provenance " + json.dumps(provenance(sw, args), sort_keys=True))
    print(f"{args.workload} seed={args.seed}: " + "; ".join(report))
    print(f"attempted={ledger.attempted} failed={ledger.failed} statistical_flags={ledger.flags} "
          f"error_rate={ledger.failed / ledger.attempted:.6g}")
    for line in ledger.failures:
        print(f"FAILED {line}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    result = {
        "correct": ledger.failed == 0 and counts_repeat,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
