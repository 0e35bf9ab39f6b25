#!/usr/bin/env python3
"""A/A steadiness check for the campaign benchmark.

    python3 campaignbench/steadiness.py [--workloads w1,w2] [--runs N]
                                        [--seconds S] [--seed-base B]

Run from the repository root. For each workload it makes two sets of N runs
of the same code, interleaved (A B, B A, A B, ...), each run with its own
seed (set A: B+1..B+N, set B: B+1001..B+1000+N). For every end-to-end metric
in BENCHMARK.json it prints each set's median and quartiles, the spread
(q3 - q1) / median, and the A/A difference (median B - median A) / median A
against the metric's bound. A spread above a third of the bound, or an A/A
difference beyond the bound, is flagged. The spread of setup_s is shown but
not flagged, since the bound applies to its median only.
"""
import argparse
import json
import statistics
import subprocess
import sys

HERE = "campaignbench"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, f"{HERE}/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--seed-base", type=int, default=0)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0
    for workload in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                seed = args.seed_base + i + 1 + (1000 if name == "B" else 0)
                sets[name].append(run_once(workload, seed, seconds))
        shares = {name: {r["failed"] / r["attempted"] for r in runs} for name, runs in sets.items()}
        print(f"\n== {workload}: {args.runs} runs per set, {seconds} s each; "
              f"failed share A {sorted(shares['A'])} B {sorted(shares['B'])}")
        print(f"{'metric':22} {'med A':>12} {'q1 A':>12} {'q3 A':>12} {'spread A':>9} "
              f"{'med B':>12} {'spread B':>9} {'all':>6} {'A/A':>8} {'bound':>6}")
        for metric, bound in bounds.items():
            a = [r["metrics"][metric]["value"] for r in sets["A"]]
            b = [r["metrics"][metric]["value"] for r in sets["B"]]
            qa1, ma, qa3, sa = summary(a)
            _, mb, _, sb = summary(b)
            sall = summary(a + b)[3]
            diff = (mb - ma) / ma if ma else float("inf")
            flags = []
            if metric != "setup_s" and max(sa, sb, sall) > bound / 3:
                flags.append("SPREAD")
            if abs(diff) > bound:
                flags.append("A/A")
            worst += bool(flags)
            print(f"{metric:22} {ma:12.6g} {qa1:12.6g} {qa3:12.6g} {sa:9.3f} "
                  f"{mb:12.6g} {sb:9.3f} {sall:6.3f} {diff:+8.3f} {bound:6.2f} {' '.join(flags)}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
