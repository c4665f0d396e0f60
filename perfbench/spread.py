#!/usr/bin/env python3
"""
Run-to-run spread of the end-to-end metrics: runs run.py once per seed
for each workload and prints, per metric, the median, the quartiles
and the interquartile range as a share of the median.

    python3 perfbench/spread.py --workload figures --seeds 1-10 --seconds 20
    python3 perfbench/spread.py --workload all --seeds 1-10 --json perfbench/out/spread.json

This is how perfbench/baseline.json was recorded; use the same seeds
and --seconds on the parent and the change when comparing the two.
"""

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import run_child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med if med else None}


def measure(workload, seeds, seconds):
    runs = []
    for seed in seeds:
        began = time.perf_counter()
        result, _ = run_child(workload, seed, seconds, 0)
        result["seed"] = seed
        result["elapsed_s"] = time.perf_counter() - began
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"elapsed={result['elapsed_s']:.1f}s {values}", flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        summary[name] = spread([r["metrics"][name]["value"] for r in runs])
        s = summary[name]
        print(f"{workload} {name}: median {s['median']:.5g} quartiles "
              f"{s['q1']:.5g}..{s['q3']:.5g} iqr/median {s['iqr_frac']:.3f}", flush=True)
    return {"runs": runs, "spread": summary}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--json", help="write every run and the spreads here")
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out = {name: measure(name, args.seeds, args.seconds) for name in names}
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
