"""In-memory spans for the benchmark's traced run.

The benchmark records a span around each call it makes into a layer
(and derives child spans for server-side work from the public job
record), keeps them in memory, and writes them out once the run ends.
A layer's self time is its span's duration minus the part of that
interval its child spans cover.

The recorder takes timestamps as given.  In-process workloads use
``time.perf_counter()``; the service workloads use ``time.time()``,
because server-side job stamps come from other processes and only the
wall clock is shared between them.
"""

from __future__ import annotations

import itertools
import json
import threading


class SpanRecorder:
    """Append-only span store; spans are ``(id, trace, parent, name,
    start, end)`` rows, one trace id per request or benchmark cell."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._rows: list[tuple] = []

    def new_id(self) -> int:
        """A fresh trace id, or a span id reserved before the span ends
        (so children recorded first can name it as their parent)."""
        return next(self._ids)

    def add(self, name: str, start: float, end: float, trace: int,
            parent: int | None = None, span_id: int | None = None) -> int:
        if span_id is None:
            span_id = next(self._ids)
        with self._lock:
            self._rows.append((span_id, trace, parent, name, start, end))
        return span_id

    def rows(self) -> list[tuple]:
        with self._lock:
            return list(self._rows)

    def write(self, path: str) -> None:
        keys = ("span_id", "trace_id", "parent_id", "name", "start", "end")
        with open(path, "w") as handle:
            for row in self.rows():
                handle.write(json.dumps(dict(zip(keys, row))) + "\n")


def covered(interval: tuple[float, float], children) -> float:
    """Length of the union of ``children`` intervals inside ``interval``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(rows) -> dict[str, dict]:
    """Per span name: count, total duration and total self time (s)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, parent, _, start, end in rows:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for span_id, _, _, name, start, end in rows:
        entry = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        duration = max(0.0, end - start)
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - covered((start, end),
                                              children.get(span_id, ()))
    return out


def mean_self_ms(rows) -> dict[str, float]:
    """``self_ms.<name>``: mean self time per span of each name (ms)."""
    return {f"self_ms.{name}": stats["self_s"] / stats["count"] * 1e3
            for name, stats in self_times(rows).items()}
