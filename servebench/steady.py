#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

Runs each workload N times, each with another seed, and prints every
metric's median, quartiles and spread (interquartile range over the
median) beside its bound from BENCHMARK.json: the evidence that the
bounds hold. It also prints the workload shape (universe size, route
shares, first-seen share) of the first two seeds side by side, to show
the shape does not depend on the seed.

Run from the repository root:

    python3 servebench/steady.py --runs 10 [--workloads warm-poll,admit-churn]
        [--seconds 12] [--seed0 1] [--trace 0]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "servebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.time() - started
    lines = proc.stdout.strip().splitlines()
    shape = next((json.loads(l[6:]) for l in lines if l.startswith("shape ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr[-4000:])
    return proc.returncode, result, shape, elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in specs}
    status = 0
    for workload in workloads:
        values, shapes, times = {}, [], []
        for i in range(args.runs):
            seed = args.seed0 + i
            code, result, shape, elapsed = run_once(workload, seed, seconds, args.trace)
            times.append(elapsed)
            if code != 0 or result is None or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit {code})")
                status = 1
                continue
            shapes.append((seed, shape))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            values_text = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
            print(f"{workload} seed {seed}: ok in {elapsed:.0f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}: {values_text}", flush=True)
        print(f"\n{workload}: {len(times)} runs, {statistics.median(times):.0f} s median wall time")
        print(f"  {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            bound_text = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:<32} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {bound_text:>6} {flag}")
        if len(shapes) >= 2:
            print("  shape by seed (must not depend on the seed):")
            for seed, shape in shapes[:2]:
                print(f"    seed {seed}: {json.dumps(shape)}")
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
