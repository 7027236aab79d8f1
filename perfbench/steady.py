#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end
metric's spread: the distance between the first and third quartile of
its values as a share of their median, next to a third of the metric's
bound.  Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--first-seed N]
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds):
    out = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for w in names:
        values = {m: [] for m in bounds}
        for i in range(args.runs):
            res = run(spec["command"], w, args.first_seed + i, spec["run_seconds"])
            if not res["correct"]:
                print(f"{w}: seed {args.first_seed + i} not correct: {res}")
                steady = False
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            ok = m == "setup_s" or spread < bounds[m] / 3
            steady = steady and ok
            print(f"{w:14s} {m:12s} median {med:12.6g} spread {spread:7.4f} "
                  f"third-of-bound {bounds[m] / 3:7.4f} {'ok' if ok else 'WIDE'} "
                  f"values {' '.join(f'{v:.6g}' for v in vs)}")
            sys.stdout.flush()
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
