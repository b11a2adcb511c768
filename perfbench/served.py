"""Workloads ``serve-compute`` and ``fleet-hits``: traffic to daemons.

Both drive closed-loop clients (each sends its next request only after
the previous reply) through :class:`~repro.service.api.ServiceClient`
against daemons that run in child processes (:mod:`perfbench.daemon`).

``serve-compute``
    one async daemon with the default warm serial pool of 2; every
    request is ``no_cache``, so each one executes kernels.  The
    coordinator is bypassed and the cache is only written.
``fleet-hits``
    a shard coordinator in front of two async daemons; the cache is
    warmed before timing, so every timed request is a hit and kernels
    do no work.  Front end, coordinator hop and cache reads do it all.

Server-side layer times come from the public job record in each reply
(``submitted_at``/``queued_at``/``started_at``/``finished_at``,
``pooled``, ``result.regions``, ``result.time_seconds``) and from
``/status`` deltas.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from perfbench.metrics import (Tally, classify_response, geomean,
                               latency_summary, median)
from perfbench.spans import SpanRecorder, mean_self_ms


@dataclass(frozen=True)
class ServedConfig:
    #: (benchmark, class) specs of the seeded equal mix
    mix: tuple
    no_cache: bool
    #: shards behind a coordinator; 0 = clients talk to one daemon
    shards: int
    #: blocks each client sends at least, more until ``seconds`` pass
    min_blocks: int = 1
    #: times the fleet is set up per run; setup_s is the median
    setups: int = 3
    #: coordinator/direct request pairs of the traced hop probe
    hop_pairs: int = 100


#: Closed-loop clients per workload.
CLIENTS = 2

#: The mix is trimodal (MG about 50 ms, CG about 350 ms, FT about 1.2 s
#: on a 2-vCPU host), so the median is CG's median and the tail is FT's:
#: eight blocks per client (48 requests) keep both inside their mode.
SERVE_COMPUTE = ServedConfig(
    mix=(("CG", "S"), ("MG", "S"), ("FT", "S")), no_cache=True, shards=0,
    min_blocks=8)
#: Three processes and a cache fill per set-up: two set-ups keep the run
#: short, and every timed request is a hit either way.
FLEET_HITS = ServedConfig(
    mix=(("CG", "S"), ("MG", "S"), ("IS", "S"), ("EP", "S")),
    no_cache=False, shards=2, setups=2)


def payload(spec: tuple, no_cache: bool, trace: bool) -> dict:
    """One submission; ``trace`` asks the service to record the job's
    spans (the front ends and the coordinator honour it)."""
    bm, cls = spec
    return {"benchmark": bm, "problem_class": cls, "no_cache": no_cache,
            "wait": True, "trace": trace}


def mix_blocks(mix: tuple, seed: int, client: int):
    """Endless seeded equal mix: each block is one seeded permutation of
    the specs."""
    rng = random.Random(f"{seed}:{client}")
    while True:
        block = list(mix)
        rng.shuffle(block)
        yield block


def references(mix: tuple, digest) -> dict:
    """Serial in-process run of every spec: its verification digest
    (the gate's reference), op count and ``run()`` overhead."""
    from repro import get_benchmark, make_team

    refs = {}
    for bm, cls in mix:
        with make_team("serial", 1) as team:
            bench = get_benchmark(bm)(cls, team)
            bench.setup()
            start = time.perf_counter()
            result = bench.run()
            wall = time.perf_counter() - start
        if not result.verified:
            raise RuntimeError(f"reference {bm}.{cls} did not verify")
        refs[(bm, cls)] = {
            "digest": digest(result.to_dict()["verification"]),
            "ops": bench.op_count(),
            "verify_s": wall - result.time_seconds,
        }
    return refs


class Target:
    """Where requests go: the daemon, or the coordinator plus shards."""

    def __init__(self, entry: str, shards: dict[str, str]):
        from repro.service import ServiceClient

        self.client = ServiceClient(entry, timeout=120.0)
        self.shard_clients = {name: ServiceClient(url, timeout=120.0)
                              for name, url in shards.items()}

    def status(self) -> dict:
        code, body = self.client.status()
        if code != 200:
            raise RuntimeError(f"/status returned {code}")
        return body

    def close(self) -> None:
        self.client.close()
        for client in self.shard_clients.values():
            client.close()


def start_fleet(fleet, config: ServedConfig) -> Target:
    if config.shards == 0:
        return Target(fleet.daemons(1)[0], {})
    urls = fleet.daemons(config.shards)
    shards = {f"shard{i}": url for i, url in enumerate(urls)}
    return Target(fleet.coordinator(shards), shards)


def warm(target: Target, config: ServedConfig, refs: dict,
         tally: Tally, digest) -> None:
    """Each client sends one request per spec before timing: this fills
    the cache on fleet-hits and warms both pooled dispatchers on
    serve-compute (scratch arenas belong to the dispatcher thread)."""
    def client() -> None:
        for spec in config.mix:
            send(target.client, spec, config.no_cache, refs[spec]["digest"],
                  digest, tally)
        target.client.close()

    threads = [threading.Thread(target=client)
               for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def send(client, spec, no_cache, expected, digest, tally: Tally,
          recorder: SpanRecorder | None = None,
          span: str = "client.request"):
    """One timed request; returns its sample or None when it failed.

    With a ``recorder`` (the traced phase) the request asks the service
    to trace it, and the benchmark's own spans are recorded as soon as
    its reply is in.
    """
    request = payload(spec, no_cache, recorder is not None)
    sent = time.time()
    start = time.perf_counter()
    try:
        code, body = client.submit(request)
    except Exception as exc:  # transport failure is a counted failure
        tally.record(f"exception:{type(exc).__name__}")
        return None
    elapsed = time.perf_counter() - start
    if not tally.record(classify_response(code, body, expected, digest)):
        return None
    sample = {"spec": spec, "sent": sent, "rtt_s": elapsed, "body": body}
    if recorder is not None:
        record_spans(recorder, sample, span)
    return sample


def closed_loop(target: Target, config: ServedConfig, seed: int,
                seconds: float, refs: dict, digest,
                recorder: SpanRecorder | None = None) -> dict:
    """:data:`CLIENTS` closed-loop clients for ``seconds``.

    A client stops only at a block boundary, so every client sends whole
    blocks and the measured mix is exactly equal whatever the seed; it
    sends at least ``config.min_blocks`` blocks.

    With a ``recorder`` (the traced run) each client alternates
    untraced and traced blocks and sends an even number of them, so the
    two phases of the tracing overhead are measured under the same
    conditions.  Each sample is tagged ``traced``; ``busy_s`` is, per
    phase, the time the clients spent in its blocks.
    """
    tally = Tally()
    samples: list[dict] = []
    busy = {False: 0.0, True: 0.0}
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds
    ends: list[float] = []

    def client_loop(index: int) -> None:
        blocks = mix_blocks(config.mix, seed, index)
        sent = 0
        while (sent < config.min_blocks or time.perf_counter() < deadline
               or (recorder is not None and sent % 2)):
            traced = recorder is not None and sent % 2 == 1
            sent += 1
            block_start = time.perf_counter()
            for spec in next(blocks):
                sample = send(target.client, spec, config.no_cache,
                              refs[spec]["digest"], digest, tally,
                              recorder if traced else None)
                if sample is not None:
                    sample["traced"] = traced
                    with lock:
                        samples.append(sample)
            with lock:
                busy[traced] += time.perf_counter() - block_start
        with lock:
            ends.append(time.perf_counter())
        target.client.close()

    threads = [threading.Thread(target=client_loop, args=(i,))
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = max(ends) - started
    return {"tally": tally, "samples": samples, "wall_s": wall,
            "busy_s": busy}


def phase_of(loop: dict, traced: bool) -> dict:
    """One phase of an interleaved loop, with the wall time its blocks
    took (the clients' busy time in it, over the client count)."""
    return {"samples": [s for s in loop["samples"]
                        if s["traced"] == traced],
            "wall_s": loop["busy_s"][traced] / CLIENTS}


def end_to_end(phase: dict, refs: dict) -> dict:
    """``mops`` is the effective Mop/s of each spec (its NPB operations
    over its median client round trip), geomean over the mix."""
    samples = phase["samples"]
    if not samples:
        return {}
    lat = latency_summary([s["rtt_s"] * 1e3 for s in samples])
    rtts: dict[tuple, list[float]] = {}
    for sample in samples:
        rtts.setdefault(sample["spec"], []).append(sample["rtt_s"])
    return {
        "mops": geomean(refs[spec]["ops"] / median(v) / 1e6
                        for spec, v in rtts.items()),
        "jobs_per_s": len(samples) / phase["wall_s"],
        "latency_p50_ms": lat["p50"],
        "latency_tail_ms": lat["tail"],
        "latency": lat,
    }


def fleet_rss_mb(status: dict) -> float:
    """Peak RSS of the daemon, or of coordinator plus shards."""
    total = status.get("rss_bytes", 0)
    if "totals" in status:
        total += status["totals"]["rss_bytes"]
    return total / 1e6


def status_counters(status: dict) -> dict:
    """The counters the per-layer deltas are taken from."""
    if "totals" in status:
        t = status["totals"]
        pool_leases = sum(
            s["status"]["pool"]["leases"] for s in status["shards"].values()
            if s.get("status"))
        return {"routed": status["routing"]["submitted"],
                "failovers": status["routing"]["failovers"],
                "leases": pool_leases, "coalesced": t["coalesced"],
                "duplicate_executions": t["duplicate_executions"]}
    return {"routed": 0, "failovers": 0,
            "leases": status["pool"]["leases"],
            "coalesced": status["dedup"]["coalesced"],
            "duplicate_executions": status["dedup"]["duplicate_executions"]}


def hop_probe(target: Target, config: ServedConfig, seed: int, refs: dict,
              digest, tally: Tally, recorder: SpanRecorder) -> dict:
    """Alternate the same spec through the coordinator and straight to
    the shard that served it; the medians' difference is the hop."""
    rng = random.Random(seed)
    via, direct = [], []
    for _ in range(config.hop_pairs):
        spec = rng.choice(config.mix)
        expected = refs[spec]["digest"]
        first = send(target.client, spec, config.no_cache, expected,
                      digest, tally, recorder, "client.via_coordinator")
        if first is None:
            continue
        via.append(first)
        shard = first["body"]["routing"]["served_by"]
        second = send(target.shard_clients[shard], spec, config.no_cache,
                       expected, digest, tally, recorder, "client.direct")
        if second is not None:
            direct.append(second)
    return {"via": via, "direct": direct}


def record_spans(recorder: SpanRecorder, sample: dict, name: str) -> None:
    """Client span plus child spans derived from the job record."""
    body = sample["body"]
    trace = recorder.new_id()
    root = recorder.add(name, sample["sent"],
                        sample["sent"] + sample["rtt_s"], trace)
    job = recorder.add("service.job", body["submitted_at"],
                       body["finished_at"], trace, root)
    if body.get("queued_at") is not None and body.get("started_at"):
        recorder.add("queue.wait", body["queued_at"], body["started_at"],
                     trace, job)
    if body.get("started_at") is not None:
        run = recorder.add("scheduler.run", body["started_at"],
                           body["finished_at"], trace, job)
        record = body["result"]
        if not body.get("cache_hit") and record:
            # Region positions are not recorded, only durations: lay
            # them end to end from the run's start.
            at = body["started_at"]
            for stats in record["regions"].values():
                recorder.add("kernels.region", at,
                             at + stats["wall_seconds"], trace, run)
                at += stats["wall_seconds"]


def per_layer(loop: dict, before: dict, after: dict, refs: dict,
              probe: dict | None, recorder: SpanRecorder) -> dict:
    samples = loop["samples"]
    bodies = [s["body"] for s in samples]
    executed = [b for b in bodies if not b.get("cache_hit")]
    cached = [b for b in bodies if b.get("cache_hit")]
    out: dict[str, float] = {}

    def med(values):
        values = list(values)
        return median(values) if values else 0.0

    direct = probe["direct"] if probe else samples
    out["front_end.ms"] = med(
        (s["rtt_s"] - (s["body"]["finished_at"] - s["body"]["submitted_at"]))
        * 1e3 for s in direct)
    out["coordinator.hop_ms"] = (
        med(s["rtt_s"] * 1e3 for s in probe["via"])
        - med(s["rtt_s"] * 1e3 for s in probe["direct"])
        if probe and probe["via"] and probe["direct"] else 0.0)
    out["coordinator.routed"] = after["routed"] - before["routed"]
    out["coordinator.failovers"] = after["failovers"] - before["failovers"]
    out["queue.wait_ms"] = med((b["started_at"] - b["queued_at"]) * 1e3
                               for b in bodies)
    out["queue.rejected"] = loop["tally"].reasons.get("rejected_429", 0)
    out["pool.warm_ratio"] = (sum(1 for b in executed if b.get("pooled"))
                              / len(executed) if executed else 0.0)
    out["pool.leases"] = after["leases"] - before["leases"]
    out["scheduler.run_ms"] = med((b["finished_at"] - b["started_at"]) * 1e3
                                  for b in bodies)
    out["scheduler.overhead_ms"] = med(
        (b["finished_at"] - b["started_at"]
         - b["result"]["time_seconds"]) * 1e3 for b in executed)
    out["scheduler.duplicate_executions"] = (
        after["duplicate_executions"] - before["duplicate_executions"])
    out["cache.hit_ratio"] = len(cached) / len(bodies) if bodies else 0.0
    out["cache.in_service_ms"] = med(
        (b["finished_at"] - b["submitted_at"]) * 1e3 for b in cached)
    out["dedup.coalesced_ratio"] = (
        (after["coalesced"] - before["coalesced"]) / len(bodies)
        if bodies else 0.0)
    # server-side kernels and core, from the executed records
    by_bm: dict[str, list[dict]] = {}
    for body in executed:
        by_bm.setdefault(body["result"]["benchmark"], []).append(
            body["result"])
    regions = [stats for b in executed
               for stats in b["result"]["regions"].values()]
    execute = sum(r["execute_seconds"] for r in regions)
    calls = sum(r["calls"] for r in regions)
    out["kernels.execute_s.serial"] = execute
    out["team.calls.serial"] = calls
    out["team.call_us.serial"] = (sum(r["wall_seconds"] for r in regions)
                                  / calls * 1e6 if calls else 0.0)
    out["core.verify_s"] = sum(r["verify_s"] for r in refs.values())
    for (bm, _), ref in refs.items():
        out[f"kernels.ops.{bm}"] = ref["ops"]
        records = by_bm.get(bm, [])
        if records:
            out[f"core.timed_s.{bm}.serial"] = med(
                r["time_seconds"] for r in records)
            ex = med(sum(s["execute_seconds"] for s in r["regions"].values())
                     for r in records)
            out[f"kernels.mops.{bm}"] = ref["ops"] / ex / 1e6 if ex else 0.0
    out.update(mean_self_ms(recorder.rows()))
    return out


def run(config: ServedConfig, fleet, seed: int, seconds: float,
        trace: bool) -> dict:
    """Set the fleet up ``config.setups`` times (the last one stays),
    then measure.  In the traced run the clients alternate untraced and
    traced blocks and, behind a coordinator, the hop probe follows."""
    from repro.service.chaos import result_digest as digest

    refs = references(config.mix, digest)
    setup_tally = Tally()
    setup_times = []
    target = None
    for attempt in range(config.setups):
        start = time.perf_counter()
        target = start_fleet(fleet, config)
        warm(target, config, refs, setup_tally, digest)
        setup_times.append(time.perf_counter() - start)
        if attempt < config.setups - 1:
            target.close()
            problems = fleet.stop()
            if problems:
                raise RuntimeError("; ".join(problems))
    recorder = SpanRecorder() if trace else None
    try:
        before = status_counters(target.status())
        loop = closed_loop(target, config, seed, seconds, refs, digest,
                           recorder)
        after = status_counters(target.status())
        result = {"setup_s": median(setup_times), "setup_runs": setup_times,
                  "tallies": [setup_tally, loop["tally"]]}
        if trace:
            plain, traced = phase_of(loop, False), phase_of(loop, True)
            probe = None
            if config.shards:
                probe = hop_probe(target, config, seed, refs, digest,
                                  loop["tally"], recorder)
            result["traced"] = traced
            result["traced"].update(end_to_end(traced, refs))
            result["recorder"] = recorder
            result["layers"] = per_layer(loop, before, after, refs, probe,
                                         recorder)
        else:
            plain = loop
        plain.update(end_to_end(plain, refs))
        result["plain"] = plain
        result["peak_rss_mb"] = fleet_rss_mb(target.status())
        return result
    finally:
        target.close()
