#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

Usage (from the repository root):

    python3 metambench/spread.py --workload table2 --seeds 1 10 [--trace 0]

For every metric it prints the median, the quartiles (Python's
statistics.quantiles with n=4), the interquartile range as a share of the
median, and, for end-to-end metrics, that share against the metric's bound
in BENCHMARK.json. Raw results go to .bench_build/metambench/spread-*.jsonl,
each run's standard error to spread-<workload>-<trace>-<seed>.err beside them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", nargs=2, type=int, required=True, metavar=("FIRST", "LAST"))
    p.add_argument("--trace", type=int, default=0)
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = os.path.join(ROOT, ".bench_build", "metambench", f"spread-{a.workload}-{a.trace}.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    values = {}
    for seed in range(a.seeds[0], a.seeds[1] + 1):
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", a.workload, "--seed", str(seed),
               "--trace", str(a.trace)]
        with open(log[:-len(".jsonl")] + f"-{seed}.err", "w") as err:
            res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
        if res.returncode != 0:
            print(f"seed {seed}: exit {res.returncode}")
            continue
        result = json.loads(res.stdout.splitlines()[-1])
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound {bound} {'OK' if share <= bound else 'OVER'}"
        print(f"{name:36s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} iqr/median {share:.4f}{flag}")


if __name__ == "__main__":
    main()
