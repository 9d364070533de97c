#!/usr/bin/env python3
"""Steadiness command: run each workload k times, each with another seed,
and print every end-to-end metric's median, quartiles and spread (the
interquartile distance as a share of the median) next to its bound.

Run from the repository root:

    python3 perfbench/steady.py --runs 10

Run k uses seed k. The command, workloads, run length and bounds come from
BENCHMARK.json, so this measures exactly what a regression check compares.
A spread above a third of its bound is flagged: two sets of runs can then
differ by the bound on noise alone. Per-layer figures come from the
benchmark's own traced mode (`--trace 1`).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds, env):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900, env=env)
    if p.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(argv)} reported incorrect answers:\n{p.stderr[-2000:]}")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")

    worst = 0.0
    for name in names:
        rows = {m["name"]: [] for m in bench["end_to_end"]}
        failed = attempted = 0
        for seed in range(1, args.runs + 1):
            r = run(bench["command"], name, seed, seconds, env)
            attempted += r["attempted"]
            failed += r["failed"]
            for m in rows:
                rows[m].append(r["metrics"][m]["value"])
            print(f"  {name} seed {seed}: " + ", ".join(
                f"{m}={v[-1]:.4g}" for m, v in rows.items()), flush=True)
        print(f"\n{name}: {args.runs} runs, {failed}/{attempted} operations failed")
        print("| metric | median | q1 | q3 | spread | bound | spread/bound |")
        print("|---|---|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            q1, q2, q3, s = spread(rows[m["name"]])
            ratio = s / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, ratio)
            flag = "" if ratio <= 1 / 3 else " (above a third)"
            print(f"| {m['name']} ({m['unit']}) | {q2:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {s:.2%} | {m['bound']:.0%} | {ratio:.2f}{flag} |")
        print(flush=True)
    print(f"largest spread/bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
