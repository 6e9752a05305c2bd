#!/usr/bin/env python3
"""Builds and runs the end-to-end pipeline benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload ingest-zipf --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --check [--seed 1] [--seconds 2]

The first form builds perfbench/ (and the library under src/) into
.bench_build/, runs one workload, saves the full result record (run
context, every metric with its sample count) under .bench_build/results/,
and prints as its last line one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 the per_layer ones.
The exit code is non-zero when a correctness check failed.

--check runs every workload (those of BENCHMARK.json and ingest-zipf) on
--seed and on a second seed that no baseline uses, traced and untraced,
and requires every correctness check to pass; it then runs each workload
against a deliberately corrupted reference and requires the run to fail.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
# Added to --seed for the check's second seed; no recorded run uses it.
UNUSED_SEED_OFFSET = 1_000_003
# Runnable and covered by --check, but not in BENCHMARK.json: its
# wall-clock figures follow hypervisor steal too closely to gate on a
# shared machine (see README.md).
UNGATED_WORKLOADS = ["ingest-zipf"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"no {spec_path}")
    with open(spec_path) as f:
        return json.load(f)


def build():
    """Configures once, then (re)builds; returns the benchmark binary."""
    if not (ROOT / "src" / "ats").is_dir():
        fail(f"no library sources under {ROOT / 'src' / 'ats'}")
    BUILD_DIR.mkdir(exist_ok=True)
    cmake_dir = BUILD_DIR / "cmake"
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (cmake_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(cmake_dir), "--target",
                      "pipeline_bench", "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            # Build output goes to stderr: stdout ends with the result line.
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))
    return cmake_dir / "pipeline_bench"


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs the binary; returns (exit code, report lines, result record)."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", str(BUILD_DIR / "run"), *extra]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload}: no result record (exit code {proc.returncode})")
    return proc.returncode, lines[:-1], record


def contract_line(spec, record, trace):
    """The result line: exactly the metrics BENCHMARK.json names."""
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        measured = record["metrics"].get(metric["name"])
        if measured is None or measured["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} missing or not in {metric['unit']}")
        metrics[metric["name"]] = {"value": measured["value"],
                                   "unit": measured["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS


def run(args, spec):
    names = workload_names(spec)
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    binary = build()
    code, lines, record = run_once(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
    results = BUILD_DIR / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w") as f:
        json.dump(record, f, indent=1)
    for line in lines:
        print(line)
    print(json.dumps(contract_line(spec, record, args.trace)))
    return code


def check(args, spec):
    binary = build()
    ok = True
    for workload in workload_names(spec):
        for seed in (args.seed, args.seed + UNUSED_SEED_OFFSET):
            for trace in (0, 1):
                code, _, record = run_once(binary, workload, seed,
                                           args.seconds, trace)
                good = code == 0 and record["correct"] and record["failed"] == 0
                ok &= good
                print(f"check {workload:17} seed={seed:<8} trace={trace}: "
                      f"{'pass' if good else 'FAIL'} "
                      f"({record['failed']} failed of {record['attempted']})")
        code, _, record = run_once(binary, workload, args.seed, 1, 0,
                                   ["--corrupt-reference"])
        good = code != 0 and not record["correct"] and record["failed"] > 0
        ok &= good
        print(f"check {workload:17} corrupted reference: "
              f"{'detected' if good else 'NOT DETECTED'} (exit code {code})")
    print("check: " + ("all passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.check:
        args.seconds = args.seconds or 2
        return check(args, spec)
    if args.workload is None:
        parser.error("--workload is required")
    args.seconds = args.seconds or spec["run_seconds"]
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
