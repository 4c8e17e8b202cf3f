#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve --runs 5 [--seconds 20] [--trace 0]

Run from the repository root. Each run uses the next seed from
--first-seed. Prints, per metric, the median of the runs and the spread:
the distance between the first and third quartile (as
statistics.quantiles(values, n=4) gives them) as a share of the median,
next to the metric's bound from BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

ap = argparse.ArgumentParser()
ap.add_argument("--workload", required=True)
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--seconds", type=int)
ap.add_argument("--trace", default="0")
args = ap.parse_args()

bench = json.load(open("BENCHMARK.json"))
seconds = args.seconds or bench["run_seconds"]
bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
values = {}
for i in range(args.runs):
    seed = args.first_seed + i
    cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", args.trace]
    started = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.monotonic() - started
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    if out.returncode != 0 or not last.startswith("{"):
        sys.stderr.write(out.stderr)
        sys.exit(f"run with seed {seed} failed (exit {out.returncode})")
    result = json.loads(last)
    if not result["correct"]:
        sys.exit(f"run with seed {seed} reported correct=false")
    for name, m in result["metrics"].items():
        values.setdefault(name, []).append(m["value"])
    print(f"seed {seed} ({elapsed:.1f} s): " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
          flush=True)

if args.runs < 2:
    sys.exit(0)
worst = 0.0
for name, vs in values.items():
    med = statistics.median(vs)
    q1, _, q3 = statistics.quantiles(vs, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    bound = bounds.get(name)
    flag = ""
    if bound is not None and name != "setup_s":
        worst = max(worst, spread / bound)
        flag = "  OVER BOUND" if spread > bound else ("  over bound/3" if spread > bound / 3 else "")
    print(f"{name:<32} median {med:>14.6g}  spread {spread:7.4f}  bound {bound}{flag}")
print(f"worst spread / bound: {worst:.3f}")
