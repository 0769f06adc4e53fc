"""cowsim's benchmark: one workload, one seed, one process, one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bulk-attack --seed 1 --seconds 30 --trace 0

It imports cowsim from the checkout's ``src/`` (and fails, printing no
result, when there is none), makes the workload's inputs from ``--seed``,
does one warm-up call and then runs passes of the workload back to back for
``--seconds`` seconds.  Every pass checks its outputs.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``setup_s`` is the median wall time of fresh interpreters that import
cowsim, build the workload's configs and make the warm-up call.  Timings
are host time rescaled to the reference speed: the fixed kernel in
``reference.py`` is timed before and after every pass and every set-up, and
each is scaled by ``NOMINAL_S`` over the mean of those two kernel times.
The record also gives the unscaled host figures.

``--trace 1`` alternates untraced passes and traced passes (spans only),
then makes one memory pass (spans plus tracemalloc, for the span peaks),
and reports the per-layer metrics of the traced pass with the median time.
Its span self times, the tracer's own bookkeeping and the benchmark's own
time outside any span add up to that pass's time; the difference from the
untraced pass time is the tracing overhead.  These are unscaled host times.

The second-to-last line of standard output is a JSON "record" with the
machine, sample counts, output digests and exact-repeat counts.  The last
line is the result: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# one thread for numpy's backends; set before numpy loads, inherited by probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from reference import NOMINAL_S, Reference  # noqa: E402

HERE = Path(__file__).resolve()
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Benchmark one cowsim workload.")
    ap.add_argument("--workload", required=True, help="bulk-attack, mu-sweep or seed-sweep")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_cowsim():
    """Import cowsim from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import cowsim

    if SRC not in Path(cowsim.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported cowsim from {cowsim.__file__}, not from {SRC}")


def time_setup(args, reference) -> tuple[float, float]:
    """(host seconds, scale) of one fresh interpreter doing import, configs
    and warm-up; scale turns host seconds into reference seconds."""
    cmd = [sys.executable, str(HERE), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    before = reference.seconds()
    t0 = perf_counter()
    subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL)
    host = perf_counter() - t0
    return host, NOMINAL_S / ((before + reference.seconds()) / 2)


def one_pass(workload, tracer=None):
    from workloads import Pass

    gc.collect()
    p = Pass(tracer)
    try:
        workload.run_pass(p)
    except Exception:
        p.failed += 1
        p.errors.append(traceback.format_exc(limit=5))
    p.spans = tracer.take() if tracer is not None else None
    return p


def check_repeat(p, first) -> None:
    """Every pass runs the same inputs, so it must give the same outputs."""
    if first is not None:
        p.check(
            "pass repeats the first pass's digests and counts",
            lambda: p.digests() == first.digests() and p.counts == first.counts,
        )


def measure(workload, seconds: float, reference):
    """Untraced passes back to back until `seconds` have elapsed, with the
    reference kernel timed between passes; sets each pass's `scale`."""
    passes = []
    before = reference.seconds()
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        p = one_pass(workload)
        after = reference.seconds()
        p.scale = NOMINAL_S / ((before + after) / 2)
        before = after
        check_repeat(p, passes[0] if passes else None)
        passes.append(p)
    return passes


def measure_traced(workload, seconds: float, tracer):
    """Pairs of (untraced, traced) passes until `seconds` have elapsed, then
    one memory pass: tracemalloc slows allocation-heavy stages many times
    over, so it runs once and only its span peaks are used."""
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    tracer.install()
    try:
        while not untraced or perf_counter() < deadline:
            p = one_pass(workload)
            check_repeat(p, untraced[0] if untraced else None)
            untraced.append(p)
            p = one_pass(workload, tracer)
            check_repeat(p, untraced[0])
            traced.append(p)
        tracer.memory = True
        tracemalloc.start()
        try:
            memory = one_pass(workload, tracer)
        finally:
            tracemalloc.stop()
            tracer.memory = False
        check_repeat(memory, untraced[0])
    finally:
        tracer.uninstall()
    return untraced, traced, memory


def timings(passes, setups, scaled: bool) -> dict[str, float]:
    """Median pass throughput, call latency percentiles and median set-up
    time, in reference seconds when `scaled`, else in host seconds."""

    def factor(scale: float) -> float:
        return scale if scaled else 1.0

    rates = [p.slots / (p.seconds * factor(p.scale)) for p in passes if p.seconds > 0]
    latencies = [x * factor(p.scale) for p in passes for x in p.latencies]
    return {
        "slots_per_s": statistics.median(rates) if rates else 0.0,
        "run_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "run_p95_ms": float(np.percentile(latencies, 95)) * 1e3,
        "setup_s": statistics.median(host * factor(scale) for host, scale in setups),
    }


def median_pass(passes):
    """The pass with the median time (the lower middle one of an even count)."""
    return sorted(passes, key=lambda p: p.seconds)[(len(passes) - 1) // 2]


def per_layer_metrics(untraced, traced, memory, tracer):
    from tracing import span_names

    rep = median_pass(traced)
    spans = rep.spans
    metrics = {}
    for name in span_names():
        s = spans.stats[name]
        peak = memory.spans.stats[name].peak_bytes
        metrics[f"{name}.self_s"] = (s.self_s, "s")
        metrics[f"{name}.calls"] = (s.calls, "count")
        metrics[f"{name}.out_bytes"] = (s.out_bytes, "B")
        metrics[f"{name}.peak_mb"] = (peak / 2**20, "MiB")
    c = rep.counts
    for key in ("funnel.slots", "funnel.data_clicks", "funnel.decoys_dropped", "funnel.verified", "funnel.kept"):
        metrics[key] = (c[key], "count")
    metrics["funnel.bins_passed"] = (spans.bins_passed, "count")
    metrics["funnel.key_yield"] = (c["funnel.kept"] / c["funnel.slots"] if c["funnel.slots"] else 0.0, "ratio")
    checked, clicks = c["bob.checked_boundaries"], c["bob.monitor_clicks"]
    metrics["bob.checked_boundaries"] = (checked, "count")
    metrics["bob.monitor_clicks"] = (clicks, "count")
    metrics["bob.monitor_click_rate"] = (clicks / checked if checked else 0.0, "ratio")
    metrics["verdict.aborts_no_attack"] = (c["verdict.aborts_no_attack"], "count")
    metrics["verdict.aborts_attack"] = (c["verdict.aborts_attack"], "count")
    untraced_s = statistics.median(p.seconds for p in untraced)
    metrics["trace.pass_s"] = (rep.seconds, "s")
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (rep.seconds - untraced_s, "s")
    metrics["trace.bookkeeping_s"] = (spans.bookkeeping_s, "s")
    metrics["bench.self_s"] = (rep.seconds - spans.root_s, "s")
    metrics["trace.wrapped_functions"] = (tracer.wrapped, "count")
    return metrics, rep


def machine_info():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cowsim" / "__init__.py").is_file():
        print(f"perfbench: no cowsim package at {SRC / 'cowsim'}", file=sys.stderr)
        return 2
    setups = []
    if not args.trace and not args.setup_probe:
        reference = Reference()
        setups = [time_setup(args, reference) for _ in range(SETUP_REPEATS)]

    import_cowsim()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        if args.setup_probe:
            return 0
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine_info()}
        if args.trace:
            tracer = Tracer()
            untraced, traced, memory = measure_traced(workload, args.seconds, tracer)
            metrics, rep = per_layer_metrics(untraced, traced, memory, tracer)
            passes = untraced + traced + [memory]
            spans = rep.spans
            record["absent_layers"] = tracer.absent
            record["unavailable_counts"] = ["funnel.bins_passed"] if tracer.bins_passed_missing else []
            # root spans, accumulated apart, must equal self times plus bookkeeping
            record["closure_residual_s"] = spans.root_s - spans.bookkeeping_s - sum(
                s.self_s for s in spans.stats.values()
            )
            record["pass_counts"] = {"untraced": len(untraced), "traced": len(traced), "memory": 1}
        else:
            passes = measure(workload, args.seconds, reference)
            scaled = timings(passes, setups, scaled=True)
            metrics = {
                "slots_per_s": (scaled["slots_per_s"], "1/s"),
                "run_p50_ms": (scaled["run_p50_ms"], "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
                "setup_s": (scaled["setup_s"], "s"),
            }
            # ten samples lie beyond p95 only from 200 samples on (seed-sweep)
            record["run_p95_ms"] = scaled["run_p95_ms"]
            record["run_samples"] = sum(len(p.latencies) for p in passes)
            record["host"] = timings(passes, setups, scaled=False)
            record["scales"] = {"passes": [p.scale for p in passes], "setups": [sc for _, sc in setups]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record["passes"] = len(passes)
    record["pass_slots"] = passes[0].slots
    record["failed_fraction"] = failed / attempted if attempted else 1.0
    record["digests"] = passes[0].digests()
    record["counts"] = passes[0].counts
    record["errors"] = [e for p in passes for e in p.errors][:5]
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
