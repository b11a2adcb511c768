"""Workload ``npb-direct``: NPB cells in process, no service layer.

Every cell runs once on the ``serial`` team and once on ``threads`` x2
through the public API (``make_team`` -> ``NPBenchmark.setup`` ->
``run``), in an order the seed permutes.  The serial half is bound by
the kernels; the threaded half adds the team's dispatch and barrier
cost, which is where the paper's synchronisation overhead (and this
repository's LU pathology) lives.
"""

from __future__ import annotations

import ctypes
import gc
import random
import time
from dataclasses import dataclass

from perfbench.metrics import (PARTITION_RTOL, Tally, classify_record,
                               geomean, latency_summary, median,
                               reduction_drift)
from perfbench.spans import SpanRecorder, mean_self_ms

BACKENDS = (("serial", 1), ("threads", 2))


@dataclass(frozen=True)
class DirectConfig:
    #: (benchmark, class) cells; each runs once per backend per pass
    cells: tuple
    #: untimed (benchmark, class) serial runs, plus one threads run of
    #: the first, before timing
    warmup: tuple


#: Whole passes an untraced run makes at least (more if ``--seconds``
#: asks for longer).  Two passes give 32 latency samples, so the tail
#: (ten samples beyond) is p68.75, above the median, and each cell's
#: ``mops`` is the better of two; a pass takes about 27 s on a 2-vCPU
#: host.  The traced run makes one pass that runs each cell twice.
PASSES = 2

#: Each timed region is about a second serial on a 2-vCPU host.  IS
#: runs at W because IS.A alone peaks at 1.5 GB RSS.  The warm-up runs
#: the cheap class-S kernels so first imports and NumPy caches are paid
#: before timing.
FULL = DirectConfig(
    cells=(("BT", "S"), ("SP", "S"), ("LU", "S"), ("FT", "W"),
           ("MG", "W"), ("CG", "W"), ("IS", "W"), ("EP", "S")),
    warmup=(("CG", "S"), ("FT", "S"), ("MG", "S"), ("IS", "S")),
)


class CountingTeam:
    """Delegates to a Team, counting and timing its dispatch calls.

    Only the traced phase wraps teams.  Each call becomes a ``team.call``
    span under the cell's ``core.run`` span; everything other than the
    dispatch methods passes straight through to the wrapped team.
    """

    def __init__(self, team, recorder: SpanRecorder, trace: int,
                 parent: int):
        self._team = team
        self._recorder = recorder
        self._trace = trace
        self._parent = parent
        self.calls = 0
        self.seconds = 0.0

    def __getattr__(self, name):
        return getattr(self._team, name)

    def _call(self, method: str, args: tuple):
        start = time.perf_counter()
        try:
            return getattr(self._team, method)(*args)
        finally:
            end = time.perf_counter()
            self.calls += 1
            self.seconds += end - start
            self._recorder.add("team.call", start, end, self._trace,
                               self._parent)

    def parallel_for(self, *args):
        return self._call("parallel_for", args)

    def parallel_kernel(self, *args):
        return self._call("parallel_kernel", args)

    def reduce_kernel(self, *args):
        return self._call("reduce_kernel", args)

    def reduce_sum(self, *args):
        return self._call("reduce_sum", args)

    def run_on_all(self, *args):
        return self._call("run_on_all", args)


def run_cell(bm: str, cls: str, backend: str, workers: int,
             recorder: SpanRecorder | None = None) -> dict:
    """One cell end to end; returns its timings and result record."""
    from repro import get_benchmark, make_team

    trace = recorder.new_id() if recorder is not None else None
    rss_before = status_kib("VmRSS")
    reset_peak_rss()
    t_start = time.perf_counter()
    team = make_team(backend, workers)
    try:
        t_team = time.perf_counter()
        bench_team = team
        counting = None
        run_span = None
        if recorder is not None:
            run_span = recorder.new_id()
            counting = bench_team = CountingTeam(team, recorder, trace,
                                                 run_span)
        bench = get_benchmark(bm)(cls, bench_team)
        bench.setup()
        t_setup = time.perf_counter()
        result = traced_run(bench, team) if recorder else bench.run()
        t_run = time.perf_counter()
        ops = bench.op_count()
    finally:
        team.close()
    t_close = time.perf_counter()
    rss_rise_mb = (status_kib("VmHWM") - rss_before) * 1024 / 1e6
    del bench
    release_memory()
    t_end = time.perf_counter()
    if recorder is not None:
        root = recorder.add("core.cell", t_start, t_close, trace)
        recorder.add("team.spawn", t_start, t_team, trace, root)
        recorder.add("core.setup", t_team, t_setup, trace, root)
        recorder.add("core.run", t_setup, t_run, trace, root,
                     span_id=run_span)
        recorder.add("team.close", t_run, t_close, trace, root)
    return {
        "bm": bm, "cls": cls, "backend": backend, "workers": workers,
        "traced": recorder is not None, "wall_s": t_end - t_start,
        "spawn_s": t_team - t_start, "setup_s": t_setup - t_start,
        "run_s": t_run - t_setup, "ops": ops, "rss_rise_mb": rss_rise_mb,
        "calls": counting.calls if counting else 0,
        "call_s": counting.seconds if counting else 0.0,
        "record": result.to_dict(),
    }


def traced_run(bench, team):
    """``bench.run()`` with the program's own tracing on, as the service
    scheduler does it for a traced job: a ``run`` span in the process
    span store, the run inside its context (so ``Team`` dispatch
    accumulates region and worker timing), then the region spans."""
    from repro.obs import get_span_store, spans_from_team_trace, use_trace

    store = get_span_store()
    span, ctx = store.start_span("run", attrs={"benchmark": bench.name,
                                               "backend": team.backend})
    with use_trace(ctx):
        result = bench.run()
    span.end()
    store.add_many(spans_from_team_trace(team.take_trace(), result.regions,
                                         ctx))
    return result


def cell_order(cells, seed: int) -> list[tuple[str, str, str, int]]:
    order = [(bm, cls, be, w) for bm, cls in cells for be, w in BACKENDS]
    random.Random(seed).shuffle(order)
    return order


def timed_passes(order, passes: int, seconds: float, tally: Tally,
                 recorder=None) -> list[list[dict]]:
    """At least ``passes`` whole passes over ``order``, more until
    ``seconds`` have elapsed; returns the runs of each pass.

    With a ``recorder`` (the traced run) every cell runs twice in a row,
    untraced and traced, the two in alternating order from cell to
    cell, so the tracing overhead compares runs made under the same
    host conditions.
    """
    done: list[list[dict]] = []
    started = time.perf_counter()
    while len(done) < passes or time.perf_counter() - started < seconds:
        runs = []
        for index, (bm, cls, backend, workers) in enumerate(order):
            phases = (None, recorder) if recorder else (None,)
            for rec in phases[::-1] if index % 2 else phases:
                try:
                    runs.append(run_cell(bm, cls, backend, workers, rec))
                except Exception as exc:  # a failed cell is counted
                    tally.record(f"exception:{type(exc).__name__}")
        done.append(runs)
    return done


def gate(runs: list[dict], tally: Tally, digest) -> tuple:
    """Apply the correctness gate; returns (passed runs, drift).

    Every record must verify, and be bit-identical (by ``digest``) to
    the first verified serial record of its cell.  A threads record
    whose digest differs passes only when its verification quantities
    are within :data:`~perfbench.metrics.PARTITION_RTOL` of the serial
    ones; each such cell is returned in ``drift`` with its largest
    relative difference, so the reordering stays visible.
    """
    references: dict = {}
    for cell in runs:
        record = cell["record"]
        if cell["backend"] == "serial" and record.get("verified"):
            references.setdefault((cell["bm"], cell["cls"]),
                                  record["verification"])
    good, drift = [], {}
    for cell in runs:
        record = cell["record"]
        ref = references.get((cell["bm"], cell["cls"]))
        reason = classify_record(
            record, None if ref is None else digest(ref), digest)
        if reason == "digest_mismatch" and cell["backend"] != "serial":
            worst = reduction_drift(record["verification"], ref)
            if worst is not None and worst <= PARTITION_RTOL:
                reason = None
                key = f"{cell['bm']}.{cell['cls']}.{cell['backend']}"
                drift[key] = max(drift.get(key, 0.0), worst)
        if tally.record(reason):
            good.append(cell)
    return good, drift


def end_to_end(good: list[dict]) -> dict:
    """``mops`` is the effective Mop/s of each cell (its NPB operations
    over the ``run()`` wall time its caller waited), geomean over cells;
    ``jobs_per_s`` is cells per second of their own wall time (team
    spawn through memory release); ``mops_by_backend`` is the records'
    own NPB Mop/s, for reference."""
    per_cell: dict[tuple, list[float]] = {}
    effective: dict[tuple, list[float]] = {}
    for cell in good:
        key = (cell["bm"], cell["cls"], cell["backend"])
        per_cell.setdefault(key, []).append(cell["record"]["mops"])
        effective.setdefault(key, []).append(
            cell["ops"] / cell["run_s"] / 1e6)
    lat = latency_summary([c["run_s"] * 1e3 for c in good])
    return {
        "mops": geomean(max(v) for v in effective.values()),
        "jobs_per_s": len(good) / sum(c["wall_s"] for c in good),
        "latency_p50_ms": lat["p50"],
        "latency_tail_ms": lat["tail"],
        "latency": lat,
        "mops_by_backend": {
            be: geomean(max(v) for k, v in per_cell.items() if k[2] == be)
            for be, _ in BACKENDS
            if any(k[2] == be for k in per_cell)
        },
    }


def per_layer(good: list[dict], recorder: SpanRecorder, cells,
              drift: dict) -> dict:
    """The core/kernels/team/runtime figures of the traced pass."""
    out: dict[str, float] = {"core.partition_drift_cells": len(drift)}
    by = {(c["bm"], c["backend"]): c for c in good}
    out["core.setup_s"] = sum(c["setup_s"] for c in good)
    out["core.verify_s"] = sum(c["run_s"] - c["record"]["time_seconds"]
                               for c in good)
    for bm, _ in cells:
        for backend, _ in BACKENDS:
            cell = by.get((bm, backend))
            out[f"core.timed_s.{bm}.{backend}"] = (
                cell["record"]["time_seconds"] if cell else 0.0)
        serial, threads = by.get((bm, "serial")), by.get((bm, "threads"))
        out[f"kernels.ops.{bm}"] = serial["ops"] if serial else 0.0
        execute = (_region_sum(serial["record"], "execute_seconds")
                   if serial else 0.0)
        out[f"kernels.mops.{bm}"] = (serial["ops"] / execute / 1e6
                                     if execute else 0.0)
        out[f"team.speedup_x2.{bm}"] = (
            serial["record"]["time_seconds"] / threads["record"]["time_seconds"]
            if serial and threads else 0.0)
    for backend, _ in BACKENDS:
        cells = [c for c in good if c["backend"] == backend]
        calls = sum(c["calls"] for c in cells)
        out[f"team.calls.{backend}"] = calls
        out[f"team.call_us.{backend}"] = (
            sum(c["call_s"] for c in cells) / calls * 1e6 if calls else 0.0)
        out[f"kernels.execute_s.{backend}"] = sum(
            _region_sum(c["record"], "execute_seconds") for c in cells)
    threads = [c for c in good if c["backend"] == "threads"]
    dispatch = sum(_region_sum(c["record"], "dispatch_seconds")
                   for c in threads)
    barrier = sum(_region_sum(c["record"], "barrier_seconds")
                  for c in threads)
    wall = sum(_region_sum(c["record"], "wall_seconds") for c in threads)
    out["runtime.dispatch_s.threads"] = dispatch
    out["runtime.barrier_s.threads"] = barrier
    out["runtime.barrier_share.threads"] = barrier / wall if wall else 0.0
    out["team.spawn_s.threads"] = sum(c["spawn_s"] for c in threads)
    out.update(mean_self_ms(recorder.rows()))
    return out


def _region_sum(record: dict, key: str) -> float:
    return sum(stats.get(key, 0.0) for stats in record["regions"].values())


def warm_up(warmup) -> float:
    start = time.perf_counter()
    for bm, cls in warmup:
        run_cell(bm, cls, "serial", 1)
    if warmup:
        run_cell(*warmup[0], "threads", 2)
    return time.perf_counter() - start


def measure(config: DirectConfig, seed: int, passes: int, seconds: float,
            recorder=None) -> tuple[Tally, dict]:
    """The timed passes; returns their tally and the figures of each
    phase, keyed by whether it was traced (only ``False`` without a
    ``recorder``)."""
    tally = Tally()
    runs = timed_passes(cell_order(config.cells, seed), passes, seconds,
                        tally, recorder)
    from repro.service.chaos import result_digest

    good, drift = gate([c for cells in runs for c in cells], tally,
                       result_digest)
    phases = {}
    for traced in (False, True) if recorder else (False,):
        mine = [c for c in good if c["traced"] == traced]
        phases[traced] = {
            "good": mine, "drift": drift,
            "setup_s": median(sum(c["setup_s"] for c in cells
                                  if c["traced"] == traced)
                              for cells in runs)}
        if mine:
            phases[traced].update(end_to_end(mine))
    return tally, phases


def run(seed: int, seconds: float, trace: bool,
        config: DirectConfig = FULL) -> dict:
    """Warm up, then measure.  The traced run makes one pass in which
    every cell runs untraced and traced (the program's tracing on, and
    the benchmark's spans recorded); the difference of the two phases
    is the tracing overhead.

    ``peak_rss_mb`` is the RSS after warm-up plus the largest rise any
    one cell made above the RSS it started from: the peak of the largest
    cell in a warmed process, independent of the seeded order (back to
    back, allocator fragmentation from earlier cells would add to it).
    """
    warmup_s = warm_up(config.warmup)
    baseline_mb = status_kib("VmRSS") * 1024 / 1e6
    recorder = SpanRecorder() if trace else None
    tally, phases = measure(config, seed, 1 if trace else PASSES, seconds,
                            recorder)
    plain = phases[False]
    result = {"warmup_s": warmup_s, "plain": plain, "tallies": [tally],
              "setup_s": plain["setup_s"],
              "peak_rss_mb": baseline_mb + max(
                  c["rss_rise_mb"] for c in plain["good"])}
    if trace:
        traced = phases[True]
        result["traced"] = traced
        result["recorder"] = recorder
        result["layers"] = per_layer(traced["good"], recorder, config.cells,
                                     traced["drift"])
    return result


def release_memory() -> None:
    """Start the next cell from the memory state of a fresh process.

    The master thread's scratch arena outlives a team, so without this
    a cell would inherit the buffers of whichever cells the seeded
    order put before it.
    """
    from repro.runtime.arena import fresh_worker_arena

    fresh_worker_arena()
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def _load_libc():
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.malloc_trim.argtypes = [ctypes.c_size_t]
        libc.malloc_trim.restype = ctypes.c_int
        return libc
    except (OSError, AttributeError):
        return None


_LIBC = _load_libc()


def status_kib(key: str) -> int:
    """A ``kB`` field of ``/proc/self/status`` (``VmRSS``, ``VmHWM``)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def reset_peak_rss() -> None:
    """Reset ``VmHWM`` to the current RSS (Linux ``clear_refs``), so the
    high-water mark after a cell is that cell's own peak.  Where the
    reset is refused the mark keeps the process peak, an upper bound."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass
