"""Smoke test of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/smoke.py

Runs every workload at a tiny op count through the untraced and the
traced path in this process, and checks that:

* each run passes its correctness gate;
* the metric names and units match ``BENCHMARK.json`` exactly;
* every library name the traced run rebinds is restored afterwards;
* two traced runs give the same call counts and result counts.

It then runs the command line twice on one workload, checking the last
output line and that the quality metrics repeat bit for bit across
processes, and once in a directory holding only ``BENCHMARK.json`` and
this directory, where the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

# Ops per episode for the in-process runs: small, yet enough for the
# loss to fall from the first step to the last.
TINY_STEPS = {"train-ddvo": 3, "train-dvo-em": 3, "train-pose-param": 5,
              "odometry-160": 2}
SEED = 3
CLI_WORKLOAD = "train-pose-param"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
COUNT_SUFFIXES = (".calls_per_op", ".calls_per_setup", "gn_iterations",
                  "level_cap_ratio", "unrolled_iters")


def check(condition, message):
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def expected_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def bound_names(workloads):
    """Every library name the benchmark rebinds, with its original value."""
    training = workloads.training
    names = {(m, a): getattr(m, a) for m, a, _ in workloads.TRACE_POINTS}
    names[(training, "DepthParam")] = training.DepthParam
    return names


def check_in_process(workloads):
    end_to_end, per_layer = expected_metrics()
    originals = bound_names(workloads)
    for name in workloads.WORKLOADS:
        steps = TINY_STEPS[name]
        result, report, _ = run.measure(workloads, 0.0, name, SEED, 0, False, steps)
        check(result["correct"], f"{name} untraced: {report['problems']}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == end_to_end, f"{name} end-to-end metrics {sorted(got)}")
        counts = []
        for _ in range(2):
            result, report, _ = run.measure(workloads, 0.0, name, SEED, 0, True, steps)
            check(result["correct"], f"{name} traced: {report['problems']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == per_layer, f"{name} per-layer metrics differ from BENCHMARK.json")
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if k.endswith(COUNT_SUFFIXES)})
            for (module, attribute), value in originals.items():
                check(getattr(module, attribute) is value,
                      f"{module.__name__}.{attribute} not restored after {name}")
        check(counts[0] == counts[1], f"{name}: counts differ between traced runs")
        print(f"smoke: {name} ok ({steps} ops per episode)", flush=True)


def cli(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", CLI_WORKLOAD,
         "--seed", str(SEED), "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_command_line():
    end_to_end, _ = expected_metrics()
    reports = []
    for _ in range(2):
        proc = cli(run.ROOT, "--trace", "0")
        check(proc.returncode == 0, f"command line exit {proc.returncode}: {proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        check(set(result) == RESULT_KEYS, f"last line keys {sorted(result)}")
        check(set(result["metrics"]) == set(end_to_end), "command line metric names")
        for key, unit in end_to_end.items():
            check(any(line.split()[:1] == [key] and line.endswith(f" {unit}")
                      for line in lines), f"no '{key} ... {unit}' line")
        report = next(line for line in lines if line.startswith("# report "))
        reports.append(json.loads(report[len("# report "):]))
    for key in ("final_loss", "gt_abs_rel"):
        check(reports[0][key] == reports[1][key],
              f"{key} differs between two processes at one seed")
    print("smoke: command line ok, quality repeats across processes", flush=True)


def check_bare_directory():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = cli(bare, "--trace", "0")
        check(proc.returncode != 0, "benchmark succeeded without the sources")
        check("correct" not in proc.stdout, "benchmark printed a result without the sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: fails without the sources, as it should", flush=True)


def main():
    run.pin_blas_threads()
    workloads = run.load_library()
    check_in_process(workloads)
    check_command_line()
    check_bare_directory()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
