#!/usr/bin/env python3
"""Steadiness tool: runs the benchmark repeatedly and reports, per
workload and metric, the median, the quartiles and the spread
(interquartile distance as a share of the median) against the bound
`BENCHMARK.json` declares.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --workloads point,bulk,feed
    python3 perfbench/steady.py --runs 5 --workloads bulk --sets 2

Each run uses another seed (seed0, seed0+1, ...). With `--sets 2` the
whole series runs twice and the second set's medians are compared with
the first's. A spread (other than `setup_s`'s) or a median drift beyond
its bound fails; the bounds were set from this tool's output, aiming at
spreads below a third of each bound. The failed share of operations
must be identical across all runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    return result, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    ok = True
    for workload in workloads:
        sets = []
        shares = set()
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            walls = []
            for i in range(args.runs):
                seed = args.seed0 + s * args.runs + i
                result, wall = run_once(spec, workload, seed, seconds, args.trace)
                walls.append(wall)
                shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:4])
                print(f"  {workload} seed {seed}: {wall:.1f} s, {shown}", flush=True)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: correct is false")
                    ok = False
                shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
            print(f"\n{workload} set {s + 1}: {args.runs} runs, wall per run "
                  f"{min(walls):.1f}-{max(walls):.1f} s")
            print(f"  {'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}{'spr/bnd':>9}")
            for name, vals in values.items():
                if len(vals) < 2:
                    continue
                q1, q2, q3, spr = spread(vals)
                bound = bounds[name]
                rel = f"{spr / bound:8.2f}" if bound else "       -"
                flag = ""
                if bound and name != "setup_s" and spr > bound:
                    flag, ok = "  OVER BOUND", False
                elif bound and spr > bound / 3:
                    flag = "  above a third"
                bnd = f"{bound:8.3f}" if bound else "       -"
                print(f"  {name:<28}{q2:>14.4f}{q1:>14.4f}{q3:>14.4f}{spr:>9.4f}{bnd}{rel}{flag}")
        if len(shares) > 1:
            print(f"  failed share differs between runs: {shares}")
            ok = False
        for s in range(1, len(sets)):
            print(f"  drift of set {s + 1} against set 1:")
            for m in metrics:
                name, bound = m["name"], bounds[m["name"]]
                a, b = statistics.median(sets[0][name]), statistics.median(sets[s][name])
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = "  WORSE THAN BOUND" if bound and worse > bound else ""
                ok = ok and not flag
                print(f"    {name:<28}{a:>14.4f} -> {b:>14.4f}  worse by {worse * 100:6.2f}%{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
