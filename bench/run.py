"""Benchmark for zslkit: end-to-end time, memory and accuracy per workload,
plus per-layer spans traced from outside the program.

Run from the repository root:

    python3 bench/run.py --workload paper-51-50 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

With --trace 0 the operation runs untraced for --seconds and the end-to-end
metrics are reported. With --trace 1 the time is split between untraced
runs, traced runs and, for workloads with several splits, single-worker
runs, and the per-layer metrics are reported. `--workload all` runs every
workload in both modes, each in a fresh process. The last line of the
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The program is imported from `src/` beside this directory; without it the
benchmark fails before printing a result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH.parent / ".bench_work"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402
import zslkit  # noqa: E402

if Path(zslkit.__file__).resolve().parent != SRC / "zslkit":
    sys.exit(f"bench: imported zslkit from {zslkit.__file__}, not from {SRC}")

import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPS = 3
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "A_UU.ind": ("fraction", "higher"),
    "H.ind": ("fraction", "higher"),
    "A_UU.trans": ("fraction", "higher"),
    "H.trans": ("fraction", "higher"),
}
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "ZSLKIT_THREADS",
)


def l3_bytes():
    """L3 size of cpu0 as the kernel reports it, or None."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except (OSError, ValueError):
            return None
    return None


def blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return None


def environment(w):
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "blas_thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "largest_array_bytes_computed": W.largest_array_bytes(w),
    }


class Runner:
    """Runs operations, checks every output, and counts failures."""

    def __init__(self, w, inputs, seed):
        self.w, self.inputs, self.seed = w, inputs, seed
        self.attempted = self.failed = 0
        self.first_bytes = None

    def attempt(self, fn, what):
        """Run fn() once; return (seconds, result), or None if it raised or
        its output failed a check. Every output must be byte-identical to
        the first."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            result = fn()
        except Exception as e:  # counted in `failed` and reported, never fatal
            print(f"operation failed ({what}): {e!r}", file=sys.stderr)
            self.failed += 1
            return None
        dt = time.perf_counter() - t
        problems = W.check_output(self.w, self.inputs, self.seed, result)
        data = W.output_bytes(self.w, result)
        if self.first_bytes is None:
            self.first_bytes = data
        elif data != self.first_bytes:
            problems.append("output differs from the first run's")
        for p in problems:
            print(f"check failed ({what}): {p}", file=sys.stderr)
        if problems:
            self.failed += 1
            return None
        return dt, result

    def repeat(self, fn, what, until, at_least=1):
        """Attempt fn until the deadline has passed and at least `at_least` ran."""
        out = []
        for n in itertools.count(1):
            got = self.attempt(fn, what)
            if got is not None:
                out.append(got)
            if n >= at_least and time.perf_counter() >= until:
                return out


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def op(runner, workers=None):
    return lambda: W.run_op(runner.w, runner.inputs, runner.seed, workers)


def end_to_end(runner, seconds, setup_s):
    runs = runner.repeat(op(runner), "operation", time.perf_counter() + seconds)
    metrics = {
        # Other tenants of a shared machine only ever slow a run down, so
        # the fastest run is the steadiest estimate of the operation's cost.
        "run_s": min((dt for dt, _ in runs), default=0.0),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if runner.w.name == W.ACCURACY_WORKLOAD:
        reports = runs[0][1] if runs else None
    else:
        # one untimed run of the accuracy workload on the same seed
        aw = W.WORKLOADS[W.ACCURACY_WORKLOAD]
        probe = Runner(aw, W.make_inputs(aw, runner.seed, WORK), runner.seed)
        got = probe.attempt(op(probe), "accuracy")
        runner.attempted += probe.attempted
        runner.failed += probe.failed
        reports = got[1] if got else None
    if reports:
        metrics.update(W.accuracies(reports))
    return {k: (metrics.get(k, 0.0), unit) for k, (unit, _) in END_TO_END.items()}


def per_layer(runner, seconds):
    start = time.perf_counter()
    serial = not runner.w.is_encode and len(runner.inputs.splits) > 1
    phases = 3 if serial else 2
    untraced = runner.repeat(op(runner), "untraced", start + seconds / phases)

    layer_runs = []

    def traced_op():
        tracer = Tracer()
        with tracer.patched(W.targets()), tracer.span("operation"):
            result = W.run_op(runner.w, runner.inputs, runner.seed)
        layer_runs.append(W.layer_metrics(tracer))
        if tracer.missing:
            print(f"not traced, missing: {', '.join(tracer.missing)}", file=sys.stderr)
        return result

    runner.repeat(traced_op, "traced", start + 2 * seconds / phases)
    serial_runs = []
    if serial:
        serial_runs = runner.repeat(op(runner, workers=1), "workers=1", start + seconds)

    metrics = {}
    if layer_runs:
        metrics = {k: statistics.median(m[k] for m in layer_runs) for k in layer_runs[0]}
    run_s = median_or_zero([dt for dt, _ in untraced])
    serial_s = median_or_zero([dt for dt, _ in serial_runs])
    metrics["trace.overhead_s"] = metrics.get("trace.run_s", 0.0) - run_s
    metrics["pipeline.serial_run_s"] = serial_s
    metrics["pipeline.pool_speedup"] = serial_s / run_s if serial_s and run_s else 0.0
    return {k: (metrics.get(k, 0.0), unit) for k, (unit, _) in W.PER_LAYER.items()}


def run_workload(args):
    imported = time.perf_counter() - T0
    w = W.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    setup_times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        inputs = W.make_inputs(w, args.seed, WORK)
        for warm in W.WARM_UP:
            W.run_op(warm, W.make_inputs(warm, 0, WORK), 0)
        setup_times.append(time.perf_counter() - t)
    setup_s = imported + statistics.median(setup_times)

    runner = Runner(w, inputs, args.seed)
    # The first full-size run faults in memory the later ones reuse; its
    # output is checked but its time is dropped.
    runner.attempt(op(runner), "first run")
    if args.trace:
        metrics = per_layer(runner, args.seconds)
    else:
        metrics = end_to_end(runner, args.seconds, setup_s)

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(environment(w), sort_keys=True))
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    error_rate = runner.failed / runner.attempted
    print(f"  {'error_rate':<{width}}  {error_rate:>14.6g}  fraction"
          f"  ({runner.failed} of {runner.attempted} operations)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Every workload in both modes, each in a fresh process."""
    status = 0
    for name in W.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
