"""Run one dvokit benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload train-ddvo --seed 1 --seconds 28 --trace 0

Run it from anywhere; it imports dvokit from the ``src`` directory next to
this one, and fails without printing a result when that is missing.  One
caller drives the library in a closed loop: the next op starts only after
the previous one returned.  BLAS runs on one thread.  The first episode
is a warm-up whose latencies are not counted.

With ``--trace 0`` every op gets one timestamp and the end-to-end metrics
are printed.  With ``--trace 1`` untraced and traced episodes alternate:
traced episodes route the calls into each layer through spans (see
``spans.py``) and the per-layer metrics, plus the tracing overhead, are
printed.  Spans are written to ``perfbench/out/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give the environment, every metric by name with its unit, and the
quality metrics the correctness gate checks.  The exit code is 0 only
when the gate passes.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# Input generation is repeated this often, and the import is timed in
# this many fresh interpreters; set-up reports the sum of the medians.
SETUP_REPS = 3
IMPORT_REPS = 5

# Untimed episodes run before timing starts, so that first-call costs
# and cold caches stay out of the latencies.  Their outputs are checked.
WARMUP_EPISODES = 1

# Each kind of episode (untraced, traced) runs at least this often, so
# that its outputs and counts can be compared between two runs.
MIN_EPISODES = 2

clock = time.perf_counter


def pin_blas_threads():
    """One BLAS thread; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def load_library():
    """Import numpy and the checkout's dvokit; returns the workloads module."""
    src = ROOT / "src"
    if not (src / "dvokit" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no dvokit sources under {src}")
    sys.path.insert(0, str(src))
    import workloads
    import dvokit

    if Path(dvokit.__file__).resolve().parent != src / "dvokit":
        raise SystemExit(f"benchmark: imported dvokit from {dvokit.__file__}, not {src}")
    return workloads


def import_seconds():
    """Median time to import numpy and dvokit, each in a fresh interpreter.

    One import per process would let a single cold or warm import decide
    the value, so the import is timed in `IMPORT_REPS` child interpreters
    run one after the other.
    """
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
            "import workloads; print(repr(time.perf_counter() - start))")
    samples = []
    for _ in range(IMPORT_REPS):
        child = subprocess.run([sys.executable, "-c", code, str(HERE), str(ROOT / "src")],
                               capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(child.stdout))
    return statistics.median(samples)


def blas_threads():
    """Threads of the loaded OpenBLAS pool, or None where it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload, seed, seconds, trace):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "op": workload.unit,
        "ops_per_episode": workload.steps,
        "setup_reps": SETUP_REPS,
        "import_reps": IMPORT_REPS,
    }


def p50_ms(latencies):
    return statistics.median(latencies) * 1e3


def p90_ms(latencies):
    return statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3


def per_layer_spec(workloads):
    """(name, unit) of every per-layer metric, in print order."""
    spec = []
    for span in workloads.SPAN_NAMES:
        per = "setup" if span in workloads.SETUP_SPANS else "op"
        spec += [(f"{span}.calls_per_{per}", "count"),
                 (f"{span}.busy_ms_per_{per}", "ms"),
                 (f"{span}.self_ms_per_{per}", "ms")]
    spec += [("dvo.gn_iterations", "count"), ("dvo.level_cap_ratio", "ratio"),
             ("ddvo.unrolled_iters", "count"), ("trace.op_ms_p50", "ms"),
             ("trace.op_ms_p50_untraced", "ms"), ("trace.overhead_ms_per_op", "ms")]
    return spec


# The gated end-to-end metrics.  The host's speed drifts over minutes, and
# the slow state it drifts into sets the p90, so the p90 repeats within the
# bound while the median and the throughput, which move with the share of
# fast moments in a run, do not.  Those two are printed but not gated.
END_TO_END = (("op_ms_p90", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Printed before the result line, not in it; the correctness gate checks
# the quality metrics among them.
REPORT_UNITS = {"op_ms_p50": "ms", "ops_per_s": "1/s", "error_rate": "ratio",
                "final_loss": "1", "gt_abs_rel": "1", "first_loss": "1", "rot_err_deg_p50": "deg", "trans_err_rel_p50": "ratio"}


def measure(workloads, import_s, name, seed, seconds, trace, steps=None):
    """Set up and run workload `name`; returns (result, report, tracer).

    `steps` overrides the ops per episode (the smoke test uses it).
    """
    workload = workloads.make(name, steps)
    tracer = Tracer() if trace else None
    counts = Counter()

    def traced(fn):
        """Run `fn` with every trace point rebound, restoring them after."""
        workloads.install_tracing(tracer, workload, counts)
        try:
            return fn()
        finally:
            tracer.restore()

    setup_times = []
    for _ in range(SETUP_REPS):
        start = clock()
        inputs = traced(lambda: workload.setup(seed)) if trace else workload.setup(seed)
        setup_times.append(clock() - start)

    t0 = clock()
    warmup = [workload.episode(inputs) for _ in range(WARMUP_EPISODES)]
    kinds = (False, True) if trace else (False,)
    runs = {kind: [] for kind in kinds}
    traced_ops = set()
    episode_counts = []  # per traced episode: calls per span and result counts
    next_op = 0
    for i in itertools.count():
        kind = kinds[i % len(kinds)]
        enough = all(len(runs[k]) >= MIN_EPISODES for k in kinds)
        last = runs[kind][-1].seconds if runs[kind] else 0.0
        if enough and clock() - t0 + last > seconds:
            break
        if not kind:
            runs[kind].append(workload.episode(inputs))
            continue
        base = next_op
        next_op += workload.steps
        traced_ops.update(range(base, next_op))
        tracer.op = base
        first_span = len(tracer.spans)
        counts.clear()

        def on_op(k, base=base):
            tracer.op = base + k

        runs[kind].append(traced(lambda: workload.episode(inputs, on_op)))
        tracer.op = -1
        calls = Counter(span[1] for span in tracer.spans[first_span:])
        episode_counts.append((calls, dict(counts)))

    episodes = warmup + [e for kind in kinds for e in runs[kind]]
    problems = list(dict.fromkeys(p for e in episodes for p in e.problems))
    first = episodes[0]
    for e in episodes[1:]:
        if e.quality != first.quality or e.fingerprint != first.fingerprint:
            problems.append("outputs differ between two runs of the same seed: "
                            f"{first.quality} vs {e.quality}")
            break
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    plain = [x for e in runs[False] for x in e.latencies]

    busy = sum(e.seconds for e in runs[False])
    report = {"error_rate": failed / attempted, "ops": len(plain),
              "episodes": len(runs[False]), "op_ms_p50": p50_ms(plain),
              "ops_per_s": len(plain) / busy}
    report.update(first.quality)
    if not trace:
        metrics = {
            "op_ms_p90": p90_ms(plain),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        metrics, units = per_layer_metrics(workloads, tracer, traced_ops,
                                           episode_counts, plain, runs[True])
        report["traced_episodes"] = len(runs[True])
        report["busy_share"] = busy_shares(workloads, metrics, runs[True])
        if any(c != episode_counts[0] for c in episode_counts[1:]):
            problems.append("call counts differ between two traced runs")
        for span in workloads.SPAN_NAMES:
            if span.startswith(workloads.ZERO_CALLS[name]):
                value = metrics[f"{span}.calls_per_op"]
                if value:
                    problems.append(f"{span} made {value!r} calls per op, expected 0")
    for key, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {key} is not finite: {value!r}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report["problems"] = problems
    return result, report, tracer


def per_layer_metrics(workloads, tracer, traced_ops, episode_counts, plain, traced_runs):
    """Per-layer metrics of the traced episodes, and their units."""
    n_ops = len(traced_ops)
    n_setups = SETUP_REPS
    op_totals = tracer.totals(traced_ops)
    setup_totals = tracer.totals({-1})
    units = dict(per_layer_spec(workloads))
    metrics = {}
    for span in workloads.SPAN_NAMES:
        if span in workloads.SETUP_SPANS:
            calls, busy, own = setup_totals.get(span, (0, 0.0, 0.0))
            per, n = "setup", n_setups
        else:
            calls, busy, own = op_totals.get(span, (0, 0.0, 0.0))
            per, n = "op", n_ops
        metrics[f"{span}.calls_per_{per}"] = calls / n
        metrics[f"{span}.busy_ms_per_{per}"] = busy * 1e3 / n
        metrics[f"{span}.self_ms_per_{per}"] = own * 1e3 / n
    results = Counter()
    for _calls, counts in episode_counts:
        results.update(counts)
    metrics["dvo.gn_iterations"] = results["gn_iterations"] / n_ops
    metrics["dvo.level_cap_ratio"] = (results["capped_levels"] / results["levels"]
                                      if results["levels"] else 0.0)
    metrics["ddvo.unrolled_iters"] = results["unrolled_iters"] / n_ops
    traced_lat = [x for e in traced_runs for x in e.latencies]
    metrics["trace.op_ms_p50"] = p50_ms(traced_lat)
    metrics["trace.op_ms_p50_untraced"] = p50_ms(plain)
    metrics["trace.overhead_ms_per_op"] = (metrics["trace.op_ms_p50"]
                                           - metrics["trace.op_ms_p50_untraced"])
    return metrics, units


def busy_shares(workloads, metrics, traced_runs):
    """Busy time of each span called during ops, as a share of op time."""
    lat = [x for e in traced_runs for x in e.latencies]
    op_ms = sum(lat) * 1e3 / len(lat)
    shares = {span: metrics[f"{span}.busy_ms_per_op"] / op_ms
              for span in workloads.SPAN_NAMES
              if span not in workloads.SETUP_SPANS and metrics[f"{span}.calls_per_op"]}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int, default=None,
                        help="ops per episode, in place of the workload's own; "
                             "for checking that its step mix matches a longer run")
    args = parser.parse_args(argv)
    if args.steps is not None and args.steps < 1:
        parser.error("--steps must be at least 1")

    pin_blas_threads()
    workloads = load_library()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    # The traced run reports no setup_s, so it skips the import timing.
    import_s = import_seconds() if not args.trace else 0.0
    result, report, tracer = measure(workloads, import_s, args.workload, args.seed,
                                     args.seconds, bool(args.trace), args.steps)
    env = environment(workloads.make(args.workload, args.steps), args.seed, args.seconds,
                      args.trace)
    env["ops"] = report["ops"]
    print("# env " + json.dumps(env))
    for key, entry in result["metrics"].items():
        print(f"{key} {entry['value']!r} {entry['unit']}")
    for key, unit in REPORT_UNITS.items():
        if key in report:
            print(f"{key} {report[key]!r} {unit}")
    print("# report " + json.dumps(report))
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    for problem in report["problems"]:
        print(f"benchmark: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
