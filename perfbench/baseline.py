#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it as a baseline.

For each workload the benchmark runs once per seed 0-9 untraced, and once
traced on seed 0, each run for run_seconds of BENCHMARK.json.
For every end-to-end metric it prints the median, the quartiles and
their distance as a share of the median next to the metric's bound.
With --out it writes the summary as JSON.

Usage:
    python3 perfbench/baseline.py [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(10))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One benchmark run; returns (env, result, wall seconds of the run)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0][len("env "):])
    return env, json.loads(lines[-1]), time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description="multi-seed baseline")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in workloads.WORKLOADS:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        checks = [0, 0]
        run_walls = []
        for seed in SEEDS:
            env, result, run_wall = run(workload, seed, seconds, 0)
            run_walls.append(run_wall)
            checks[0] += result["attempted"]
            checks[1] += result["failed"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items())
                + f" ({run_wall:.1f} s)", flush=True)
        summary["environment"] = {k: v for k, v in env.items()
                                  if k not in ("workload", "seed", "trace")}
        rows = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
                else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": m["bound"],
                               "values": vals}
            print(f"  {m['name']:16s} median {med:.5g} {m['unit']:6s} "
                  f"q1 {q1:.5g} q3 {q3:.5g} spread {spread:.3f} "
                  f"(bound {m['bound']}, third {m['bound'] / 3:.3f})")
        _, traced, trace_wall = run(workload, SEEDS[0], seconds, 1)
        summary["workloads"][workload] = {
            "end_to_end": rows,
            "checks": {"attempted": checks[0], "failed": checks[1]},
            "run_wall_s": run_walls,
            "trace_run_wall_s": trace_wall,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()}}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
