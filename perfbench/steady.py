#!/usr/bin/env python3
"""Steadiness runner: run one workload N times with different seeds and
print, for each end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median, against the metric's bound in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/steady.py --workload locality --runs 10
    python3 perfbench/steady.py --workload locality --runs 10 \
        --save set1.json
    python3 perfbench/steady.py --workload locality --runs 10 \
        --against set1.json

Quartiles are Python's statistics.quantiles(values, n=4). With --against, a
second set is compared with a saved first one: each metric's median may not
be worse than the first set's by more than its bound. The exit code is 1
when a spread exceeds its bound or a median comparison fails, 0 otherwise.
Every end-to-end metric is checked, setup_s included.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"run with seed {seed} failed ({out.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"run with seed {seed} failed its checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--save", help="write the run set to this JSON file")
    ap.add_argument("--against", help="compare medians with a saved set")
    args = ap.parse_args()

    manifest = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    seconds = args.seconds or manifest["run_seconds"]
    bounds = {m["name"]: m for m in manifest["end_to_end"]}

    runs = []
    for i in range(args.runs):
        seed = args.seed_base + i
        runs.append(run_once(args.workload, seed, seconds))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "runs": runs}, f, indent=1)
    first = None
    if args.against:
        first = json.load(open(args.against))["runs"]

    ok = True
    print(f"\n{args.workload}: {len(runs)} runs")
    print(f"{'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}  verdict")
    for name, m in bounds.items():
        values = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = []
        if spread > m["bound"]:
            verdict.append("SPREAD > BOUND")
            ok = False
        elif spread > m["bound"] / 3:
            verdict.append("spread > bound/3")
        if first is not None:
            base = statistics.median(r[name] for r in first)
            change = (med - base) / base if m["better"] == "lower" \
                else (base - med) / base
            verdict.append(f"vs first set {change:+.1%}")
            if change > m["bound"]:
                verdict.append("WORSE THAN BOUND")
                ok = False
        print(f"{name:14s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f} {m['bound']:6.2f}  {'; '.join(verdict) or 'ok'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
