#!/usr/bin/env python3
"""Spread report: run one workload several times, one seed each, and print
every metric's median, quartiles and interquartile spread as a share of
the median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload tpch --runs 10
    python3 perfbench/spread.py --workload spine --runs 5 --trace 1

Run from the repository root. Each run lasts BENCHMARK.json's
run_seconds. With --trace 0 the first seed is run a second time and the
bound-quality metrics of the two runs must be identical; the script exits
1 if they are not, or if any run is incorrect or has failures. Each run's
phase line (set-up, check times, peak RSS per phase) goes to stderr.
"""

import argparse
import json
import statistics
import subprocess
import sys

BOUND_QUALITY = ("possible_over_sg", "certain_over_sg", "range_width")


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("phases:"):
            print(f"seed {seed}: {line}", file=sys.stderr)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    results = []
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        r = run_once(spec, args.workload, seed, args.trace)
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", file=sys.stderr)
        ok &= r["correct"] and r["failed"] == 0

    print(f"{args.workload}: {args.runs} runs x {seconds} s, trace={args.trace}")
    print(f"{'metric':28} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        flag = "" if bound is None or spread <= bound / 3 else "  above bound/3"
        print(f"{name:28} {unit:>6} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")

    if args.trace == 0:
        again = run_once(spec, args.workload, args.first_seed, 0)
        for name in BOUND_QUALITY:
            a = results[0]["metrics"][name]["value"]
            b = again["metrics"][name]["value"]
            same = a == b
            ok &= same
            print(f"repeat seed {args.first_seed}: {name} {a} vs {b}: "
                  f"{'identical' if same else 'DIFFERENT'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
