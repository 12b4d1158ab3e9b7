#!/usr/bin/env python3
"""Steadiness command: runs each workload N times and prints, for every
metric, its median, quartiles and interquartile spread as a share of
the median. Those spreads set the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--seconds 10] [--trace 0]
                                [--workloads paper_joins,theta_wide,http_live]
                                [--first-seed 1]

Run i uses seed first-seed + i. Runs are sequential. Each run goes
through run.py, so the first one builds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_joins", "theta_wide", "http_live"]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.first_seed + i, args.seconds,
                         args.trace)
            results.append(r)
            print(f"  {workload} seed {args.first_seed + i}: " +
                  ", ".join(f"{k}={v['value']:.6g}"
                            for k, v in r["metrics"].items()
                            if args.trace == 0),
                  flush=True)
        failed = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, correct={correct}, "
              f"failed share {failed}")
        print(f"  {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8}  unit")
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = (statistics.quantiles(values, n=4)
                           if len(values) > 1 else (values[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<40} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.3f}  {m['unit']}", flush=True)


if __name__ == "__main__":
    main()
