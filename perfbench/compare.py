#!/usr/bin/env python3
"""Compares two sets of pipeline-benchmark result records.

  python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of result records as perfbench/run.py
writes them (.bench_build/results/, or perfbench/baseline/). Records are
paired by file name: the same workload, seed and trace mode. The
comparison refuses (exit code 2) when a pair's run contexts differ: CPU
count, SIMD level, build type, compiler, thread counts, run length. For
every end-to-end metric it prints both medians with their quartiles, and
flags a metric that BENCHMARK.json gates on that workload whose NEW median
is worse than the BASE median by more than the metric's bound (exit
code 1).
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    return {p.name: json.loads(p.read_text())
            for p in sorted(Path(directory).glob("*-trace0.json"))}


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    pairs = sorted(set(base) & set(new))
    if not pairs:
        print("compare: no result records with matching names", file=sys.stderr)
        return 2
    for name in pairs:
        if base[name]["context"] != new[name]["context"]:
            diff = {k: (base[name]["context"].get(k), new[name]["context"].get(k))
                    for k in base[name]["context"].keys() | new[name]["context"].keys()
                    if base[name]["context"].get(k) != new[name]["context"].get(k)}
            print(f"compare: refusing, run contexts differ for {name}: {diff}",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sorted({base[n]["context"]["workload"] for n in pairs})
    regressed = False
    for workload in workloads:
        names = [n for n in pairs if base[n]["context"]["workload"] == workload]
        print(f"{workload}: {len(names)} paired runs")
        gated = {}
        if workload in {w["name"] for w in spec["workloads"]}:
            gated = {m["name"]: m for m in spec["end_to_end"]}
        for key in base[names[0]]["metrics"]:
            metric = gated.get(key)
            b = summary([base[n]["metrics"][key]["value"] for n in names])
            w = summary([new[n]["metrics"][key]["value"] for n in names])
            change = (w[1] - b[1]) / b[1] if b[1] else 0.0
            verdict = "(not gated)"
            if metric is not None:
                sign = 1 if metric["better"] == "lower" else -1
                worse = sign * change > metric["bound"]
                regressed |= worse
                verdict = f"WORSE than bound {metric['bound']}" if worse else ""
            print(f"  {key:18} base {b[1]:12.6g} [{b[0]:.6g}, {b[2]:.6g}]"
                  f"  new {w[1]:12.6g} [{w[0]:.6g}, {w[2]:.6g}]"
                  f"  {change:+7.2%}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
