#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, the way the driver takes it.

Runs the command of BENCHMARK.json N times per workload, each time with
another --seed, and prints for every end-to-end metric the distance between
the first and third quartile of its N values as a share of their median,
next to the metric's bound. A spread above a third of the bound is flagged.

    python3 benchmark/scripts/spread.py [--runs 10] [--workload W ...] [--first-seed 100]

Run it from the root of the repository.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        for run in range(args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(args.first_seed + run),
                "--seconds", str(seconds), "--trace", "0",
            ]
            started = time.time()
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {args.first_seed + run}: {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"# {workload} run {run}: {time.time() - started:.1f}s", file=sys.stderr)
        print(f"{workload}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bounds[name] / 3 or name == "setup_s" else "  <-- above bound/3"
            flagged += bool(flag)
            print(f"  {name:<24} median {med:>14.4f}  spread {spread:7.4f}  bound {bounds[name]:.3f}{flag}"
                  f"   min {min(vals):.4f} max {max(vals):.4f}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
