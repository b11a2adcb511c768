#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload npb-direct --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists and which
layers it stresses and bypasses):

``npb-direct``     NPB cells in process on serial and threads x2
``serve-compute``  compute-bearing traffic to one async daemon
``fleet-hits``     cache hits through the shard coordinator

``--trace 0`` prints every end-to-end metric; ``--trace 1`` interleaves
an untraced and a traced phase and prints every per-layer metric.
Human-readable
lines (host-noise stamp, metrics with units, the tail percentile and
sample count, failures) come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Any
failed operation makes the exit code 1.  The full record and the spans
of a traced run are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("npb-direct", "serve-compute", "fleet-hits")


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric lists, units and directions."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


OVERHEAD = "obs.tracing_overhead."


def overheads(spec: dict, plain: dict, traced: dict) -> dict:
    """Tracing cost of each end-to-end metric that has an
    ``obs.tracing_overhead.<metric>`` entry, signed so that positive is
    worse."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out = {}
    for metric in spec["per_layer"]:
        if not metric["name"].startswith(OVERHEAD):
            continue
        name = metric["name"][len(OVERHEAD):]
        diff = traced.get(name, 0.0) - plain.get(name, 0.0)
        out[metric["name"]] = -diff if better[name] == "higher" else diff
    return out


def execute(args, workdir: str) -> dict:
    """Run one workload; returns the phases, tallies and figures."""
    from perfbench import direct, served
    from perfbench.daemon import Fleet

    if args.workload == "npb-direct":
        return direct.run(args.seed, args.seconds, bool(args.trace))
    config = {"serve-compute": served.SERVE_COMPUTE,
              "fleet-hits": served.FLEET_HITS}[args.workload]
    with Fleet(ROOT, workdir) as fleet:
        return served.run(config, fleet, args.seed, args.seconds,
                          bool(args.trace))


def report(args, out: dict, stamp: dict,
           spec: dict) -> tuple[dict, dict]:
    """Metrics of the requested kind, and the full record.

    A per-layer figure of a layer the workload bypasses (the coordinator
    on ``serve-compute``, kernels on ``fleet-hits``) is printed as 0,
    which is what was measured there.
    """
    plain = out["plain"]
    e2e = {m["name"]: plain.get(m["name"]) for m in spec["end_to_end"]}
    e2e["setup_s"] = out["setup_s"]
    e2e["peak_rss_mb"] = out["peak_rss_mb"]
    listed = spec["end_to_end"]
    values = e2e
    if args.trace:
        layers = dict(out["layers"])
        layers.update(overheads(spec, plain, out["traced"]))
        listed = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in listed}
    metrics = {}
    for metric in listed:
        value = values.get(metric["name"])
        if value is None:
            raise RuntimeError(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": float(value),
                                   "unit": metric["unit"]}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": stamp,
        "metrics": metrics, "end_to_end": e2e,
        "latency": plain.get("latency"),
        "tallies": [t.as_dict() for t in out["tallies"]],
        "warmup_s": out.get("warmup_s"),
        "setup_runs": out.get("setup_runs"),
        "mops_by_backend": plain.get("mops_by_backend"),
        "partition_drift": plain.get("drift"),
        "cells": [{"cell": f"{c['bm']}.{c['cls']}.{c['backend']}",
                   "run_s": c["run_s"], "setup_s": c["setup_s"]}
                  for c in plain.get("good", [])],
    }
    return metrics, record


def print_summary(args, metrics: dict, record: dict, attempted: int,
                  failed: int) -> None:
    host = record["host"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: nproc={nproc} loadavg_1m={loadavg_1m_before:.2f}->"
          "{loadavg_1m_after:.2f} calibration_s={calibration_s_before:.4f}->"
          "{calibration_s_after:.4f} steal={steal_share:.4f} "
          "iowait={iowait_share:.4f} git_sha={git_sha} "
          "source_sha256={short}".format(
              short=host["source_sha256"][:12], **host))
    latency = record["latency"]
    if latency:
        print(f"latency: p50={latency['p50']:.3f} ms "
              f"tail=p{latency['tail_percentile']:.2f}="
              f"{latency['tail']:.3f} ms over n={latency['n']} "
              f"({latency['tail_rule']})")
    if record["mops_by_backend"]:
        print("mops by backend (geomean): " + ", ".join(
            f"{be}={v:.2f}" for be, v in record["mops_by_backend"].items()))
    if record["partition_drift"]:
        print("threads records within the partition tolerance but not "
              "bit-identical to serial (max relative difference): "
              + ", ".join(f"{k}={v:.2e}"
                          for k, v in record["partition_drift"].items()))
    ratio = failed / attempted if attempted else 0.0
    print(f"failed_ratio: {ratio:.6f} ({failed} of {attempted})")
    for tally in record["tallies"]:
        if tally["reasons"]:
            print(f"failures: {tally['reasons']}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro sources under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    signal.signal(signal.SIGTERM, _interrupt)
    from perfbench.hoststamp import HostStamp

    outdir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(outdir, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    stamp = HostStamp(ROOT)
    stamp.begin()
    started = time.perf_counter()
    out = execute(args, workdir)
    host = stamp.end()
    host["elapsed_s"] = time.perf_counter() - started
    metrics, record = report(args, out, host, spec)
    attempted = sum(t.attempted for t in out["tallies"])
    failed = sum(t.failed for t in out["tallies"])
    tag = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    with open(os.path.join(outdir, f"{tag}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    if "recorder" in out:
        out["recorder"].write(os.path.join(outdir, f"{tag}.spans.jsonl"))
    shutil.rmtree(workdir, ignore_errors=True)
    print_summary(args, metrics, record, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
