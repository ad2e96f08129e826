#!/usr/bin/env python3
"""Benchmark entry point: builds the harness from source, runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

The harness (perfbench/harness.cpp) is configured and built with CMake into
.bench_build/perfbench under the checkout root, together with the mars
library sources. The run's last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Workloads and metrics are described
in perfbench/README.md and BENCHMARK.json.

--selfcheck runs every workload at tiny sizes and checks that each prints
every metric named in BENCHMARK.json with its unit, that the deterministic
metrics repeat exactly on a second run of the same seed, and that they do not
change with the execution-only thread count.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD_DIR / "perfbench_harness"
RUN_TIMEOUT_S = 170

# Simulated or counted metrics: a function of the seed alone.
DETERMINISTIC = [
    "latency_reduction_pct",
    "goodput_rps",
    "plan.evals",
    "serve.tasks",
    "serve.p99_ms",
    "comap.rollouts",
    "comap.rollout_hit_ratio",
    "comap.p99_ms",
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness (both no-ops when up to date)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_harness",
         "-j", jobs],
        check=True, stdout=sys.stderr)


def run_harness(workload, seed, seconds, trace, extra=()):
    """Runs the harness once; returns (stdout lines, parsed result)."""
    command = [str(HARNESS), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               *extra]
    if trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"harness exited with {done.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"malformed result line: {lines[-1]}")
    return lines, result


def selfcheck():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = [f"{name} is not a metric of BENCHMARK.json"
                for name in DETERMINISTIC
                if name not in expected[False] and name not in expected[True]]
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            runs = [run_harness(workload, 7, 0.5, trace, ["--tiny"])[1]
                    for _ in range(2)]
            runs += [run_harness(workload, 7, 0.5, trace,
                                 ["--tiny", "--threads", str(threads)])[1]
                     for threads in (1, 2)]
            label = f"{workload} trace={int(trace)}"
            for run in runs:
                if not run["correct"] or run["failed"]:
                    problems.append(f"{label}: checks failed")
                units = {k: v["unit"] for k, v in run["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"{label}: metrics/units differ from "
                                    "BENCHMARK.json")
            for name in (n for n in DETERMINISTIC if n in expected[trace]):
                values = {json.dumps(r["metrics"].get(name)) for r in runs}
                if len(values) != 1:
                    problems.append(f"{label}: {name} not repeatable: {values}")
            log(f"selfcheck {label}: {len(runs)} runs compared")
    for problem in problems:
        log(f"selfcheck FAILED {problem}")
    log("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        build()
        if args.selfcheck:
            return selfcheck()
        lines, _ = run_harness(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError) as error:
        log(f"perfbench: {error}")
        return 2
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
