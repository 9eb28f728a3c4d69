#!/usr/bin/env python3
"""Steadiness check: run one workload N times and report each metric's spread.

    python3 perfbench/steady.py --workload crowd --runs 10 --seed 1 \
        --save .bench_build/crowd-set1.json
    python3 perfbench/steady.py --workload crowd --runs 10 --seed 1 \
        --compare .bench_build/crowd-set1.json
    python3 perfbench/steady.py --workload churn --runs 10 --seed 1 --vary-seed

Runs perfbench/run.py N times (the same seed, or seeds S, S+1, ... with
--vary-seed) and prints, per metric, the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median of
every end-to-end metric.  A metric whose spread exceeds its BENCHMARK.json
bound is flagged.  --save writes the per-run values as JSON; --compare
reads such a file from an earlier set and prints how far each median moved,
flagging a move in the worse direction beyond the bound.  Exits 1 when any
run fails or any metric is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--vary-seed", action="store_true",
                    help="use seeds seed, seed+1, ... instead of one seed")
    ap.add_argument("--save", help="write the per-run values to this file")
    ap.add_argument("--compare", help="an earlier set's --save file")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = str(spec["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    values = {}
    units = {}
    failed = False
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seed else args.seed
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        last = proc.stdout.strip().split("\n")[-1] if proc.stdout else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"run {i + 1} (seed {seed}): exit {proc.returncode}")
            failed = True
            continue
        result = json.loads(last)
        if not result["correct"] or result["failed"]:
            print(f"run {i + 1} (seed {seed}): correct={result['correct']} "
                  f"failed={result['failed']}")
            failed = True
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"run {i + 1}/{args.runs} seed {seed}: " + " ".join(
            f"{name}={m['value']:.6g}"
            for name, m in result["metrics"].items()), flush=True)

    mode = "seeds %d..%d" % (args.seed, args.seed + args.runs - 1) \
        if args.vary_seed else "seed %d" % args.seed
    print(f"\n{args.workload}, {args.runs} runs, {mode}, "
          f"--seconds {seconds}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    flagged = []
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        flag = ""
        if spread > bound:
            flag = "  OVER BOUND"
            flagged.append(name)
        elif spread > bound / 3:
            flag = "  over bound/3"
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound:>6} {units[name]}{flag}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f)
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
        print(f"\nmedian moves from {args.compare} (positive = worse)")
        print(f"{'metric':34} {'earlier':>12} {'now':>12} {'worse by':>9} "
              f"{'bound':>6}")
        for name, vals in values.items():
            before = statistics.median(earlier[name])
            now = statistics.median(vals)
            worse = (now - before) / before if before else 0.0
            if better[name] == "higher":
                worse = -worse
            flag = ""
            if worse > bounds[name]:
                flag = "  WORSE THAN BOUND"
                flagged.append(name + " (median)")
            print(f"{name:34} {before:12.6g} {now:12.6g} {worse:+9.4f} "
                  f"{bounds[name]:>6}{flag}")
    if flagged:
        print("flagged: " + ", ".join(flagged))
    return 1 if failed or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
