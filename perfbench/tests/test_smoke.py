"""Tiny-size smoke of each workload and of the daemon lifecycle.

Each workload runs its real code path on the cheapest specs for about a
second, traced, and must produce every catalog metric with no failed
operation.
"""

import argparse
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import direct, run, served
from perfbench.daemon import Fleet, child_processes

ROOT = run.ROOT
SPEC = run.load_spec()


def _report(workload, out, trace):
    args = argparse.Namespace(workload=workload, seed=3, seconds=1.0,
                              trace=trace)
    stamp = {"source_sha256": "0" * 64}
    return run.report(args, out, stamp, SPEC)[0]


def _check(workload, out):
    tallies = out["tallies"]
    assert all(t.failed == 0 for t in tallies), [t.reasons for t in tallies]
    e2e = _report(workload, out, 0)
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in e2e.values()), e2e
    layers = _report(workload, out, 1)
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    return e2e, layers


def test_npb_direct_tiny():
    from repro.obs import SpanStore, set_span_store

    store = SpanStore()
    previous = set_span_store(store)
    config = direct.DirectConfig(cells=(("IS", "S"), ("CG", "S")),
                                 warmup=(("IS", "S"),))
    try:
        out = direct.run(3, 0.0, True, config)
    finally:
        set_span_store(previous)
    e2e, layers = _check("npb-direct", out)
    # two cells on two backends, each run untraced and traced
    assert out["tallies"][0].attempted == 8
    assert layers["team.calls.threads"]["value"] > 0
    assert layers["kernels.ops.CG"]["value"] > 0
    assert layers["coordinator.hop_ms"]["value"] == 0.0
    # the traced pass ran the program's own tracing: one run span and
    # its region spans per cell
    names = [span.name for tid in store.trace_ids()
             for span in store.trace(tid)]
    assert names.count("run") == 4
    assert any(name.startswith("region:") for name in names)


def _served(config, tmp_path):
    with Fleet(ROOT, str(tmp_path)) as fleet:
        out = served.run(config, fleet, 3, 1.0, True)
    assert child_processes() == []
    # only the traced phase asks the service to trace
    assert all(s["body"].get("trace_id") for s in out["traced"]["samples"])
    assert not any(s["body"].get("trace_id")
                   for s in out["plain"]["samples"])
    return out


def test_serve_compute_tiny(tmp_path):
    config = served.ServedConfig(mix=(("IS", "S"), ("CG", "S")),
                                 no_cache=True, shards=0, setups=1)
    out = _served(config, tmp_path)
    e2e, layers = _check("serve-compute", out)
    # clients stop only at block boundaries: the mix is exactly equal
    specs = [s["spec"] for s in out["plain"]["samples"]]
    assert specs.count(("IS", "S")) == specs.count(("CG", "S")) > 0
    assert layers["cache.hit_ratio"]["value"] == 0.0
    assert layers["pool.warm_ratio"]["value"] == 1.0
    assert layers["coordinator.routed"]["value"] == 0.0


def test_fleet_hits_tiny(tmp_path):
    config = served.ServedConfig(mix=(("IS", "S"), ("CG", "S")),
                                 no_cache=False, shards=2, setups=1,
                                 hop_pairs=4)
    out = _served(config, tmp_path)
    e2e, layers = _check("fleet-hits", out)
    assert layers["cache.hit_ratio"]["value"] == 1.0
    assert layers["coordinator.routed"]["value"] > 0
    assert layers["coordinator.failovers"]["value"] == 0.0
    assert layers["kernels.execute_s.serial"]["value"] == 0.0


def test_fleet_reaps_daemons_when_the_run_fails(tmp_path):
    with pytest.raises(RuntimeError, match="mid-run"):
        with Fleet(ROOT, str(tmp_path)) as fleet:
            fleet.daemons(1)
            assert len(child_processes()) == 1
            raise RuntimeError("mid-run failure")
    assert child_processes() == []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-hits",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
