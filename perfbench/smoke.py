#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload for one measured pass on a second seed, untraced,
and sweep-small once traced.  Checks that each run prints every
end-to-end metric by name with a unit, that failed_ratio is 0, and that
the result line carries exactly the metrics BENCHMARK.json lists.

Usage:  python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # a second seed, next to seed 0 of the baseline
E2E_NAMES = ("pass_s", "cli_s", "setup_s", "peak_rss_mb", "headroom_digits",
             "failed_ratio", "runtime_warnings")


def run(workload: str, seed: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    runs = [(w, 0) for w in workloads.WORKLOADS] + [("sweep-small", 1)]
    for workload, trace in runs:
        printed, result = run(workload, SEED, trace)
        group = spec["per_layer"] if trace else spec["end_to_end"]
        wanted = [m["name"] for m in group]
        names = wanted if trace else list(E2E_NAMES)
        label = f"{workload} trace={trace}"
        for name in names:
            if name not in printed or not printed[name][1]:
                problems.append(f"{label}: {name} not printed with a unit")
        if printed.get("failed_ratio", (None,))[0] != 0.0:
            problems.append(f"{label}: failed_ratio is not 0")
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{label}: result keys {sorted(result)}")
        if not result.get("correct") or result.get("failed"):
            problems.append(f"{label}: result not correct")
        if sorted(result["metrics"]) != sorted(wanted):
            problems.append(f"{label}: result metrics differ from "
                            "BENCHMARK.json")
        print(f"{label}: {len(printed)} metrics, "
              f"{result['attempted']} checks, {result['failed']} failed")
    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
