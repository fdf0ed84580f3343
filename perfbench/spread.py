#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's
median and spread (interquartile range over median), next to its bound.

    python3 perfbench/spread.py --workload serve-cc --seeds 1-10 [--seconds 20]

Run from the repository root; every run goes through perfbench/run.py.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    opts = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = opts.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in opts.seeds:
        run = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", opts.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.4f}" for n, v in values.items()), flush=True)
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"{metric['name']:<16} median {med:.4f} {metric['unit']:<3} spread {spread:.3f} "
              f"(bound {metric['bound']}, a third of it {metric['bound'] / 3:.3f})")


if __name__ == "__main__":
    main()
