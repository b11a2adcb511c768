#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
takes it: run the benchmark once per seed, then for each metric the
interquartile distance of its values (``statistics.quantiles(n=4)``)
as a share of their median, next to the metric's bound.

    python3 perfbench/spread.py --workload fleet-hits --seeds 1-10

Runs are sequential; each run's last stdout line is kept in
``.perfbench/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    sys.path.insert(0, ROOT)
    from perfbench.metrics import median, quartile_spread

    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    log = os.path.join(ROOT, ".perfbench", f"spread-{args.workload}.jsonl")
    values: dict[str, list[float]] = {}
    failed_runs = 0
    with open(log, "w") as out:
        for seed in seed_range(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", f"{seconds:g}", "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            last = (proc.stdout.strip().splitlines() or [""])[-1]
            out.write(last + "\n")
            if proc.returncode != 0:
                failed_runs += 1
                print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(last)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
    print(f"{'metric':18} {'median':>12} {'spread':>8} {'bound':>6} "
          f"{'bound/3':>8}")
    worst = 0.0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        series = values.get(name, [])
        if len(series) < 2:
            continue
        share = quartile_spread(series)
        flag = "" if share < metric["bound"] / 3 else "  <-- wide"
        if name != "setup_s":
            worst = max(worst, share / metric["bound"])
        print(f"{name:18} {median(series):12.5g} {share:8.4f} "
              f"{metric['bound']:6.2f} {metric['bound'] / 3:8.4f}{flag}")
    print(f"failed runs: {failed_runs}; worst spread/bound (not setup_s): "
          f"{worst:.3f}")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
