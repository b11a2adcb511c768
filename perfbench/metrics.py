"""Pure metric arithmetic of the benchmark: no I/O, no repro imports.

Kept apart from the workloads so the rules every figure rests on (the
tail percentile, the geomean, what counts as a failed operation, the
digest check) can be tested on hand-made inputs.
"""

from __future__ import annotations

import math
import statistics
import threading

#: A tail percentile is only reported with at least this many samples
#: beyond it; fewer would make the "tail" one or two unlucky requests.
TAIL_MIN_BEYOND = 10


def tail_percentile(samples) -> dict:
    """The highest percentile with at least ten samples beyond it.

    With ``n`` sorted samples the value ``x[n - 11]`` has exactly ten
    samples above it, so it is the nearest-rank percentile
    ``100 * (n - 10) / n``.  Below eleven samples no percentile has ten
    beyond it; the maximum is returned and labelled as such.
    """
    values = sorted(float(v) for v in samples)
    n = len(values)
    if n == 0:
        raise ValueError("tail_percentile needs at least one sample")
    if n <= TAIL_MIN_BEYOND:
        return {"percentile": 100.0, "value": values[-1], "n": n,
                "beyond": 0, "rule": "max (fewer than 11 samples)"}
    index = n - TAIL_MIN_BEYOND - 1
    return {"percentile": 100.0 * (n - TAIL_MIN_BEYOND) / n,
            "value": values[index], "n": n,
            "beyond": n - 1 - index,
            "rule": f">= {TAIL_MIN_BEYOND} samples beyond"}


def geomean(values) -> float:
    """Geometric mean of strictly positive values."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 or not math.isfinite(v) for v in values):
        raise ValueError(f"geomean needs positive finite values: {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values) -> float:
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median (the acceptance
    rule: ``statistics.quantiles(values, n=4)``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


def classify_record(record, expected_digest: str | None, digest) -> str | None:
    """Why a result record fails the correctness gate, or None.

    ``digest(verification)`` is the digest function; ``expected_digest``
    is the serial in-process reference of the same spec.
    """
    if not isinstance(record, dict):
        return "no_result"
    if not record.get("verified", False):
        return "unverified"
    verification = record.get("verification")
    if verification is None:
        return "unverified"
    if expected_digest is None:
        return "no_reference"
    if digest(verification) != expected_digest:
        return "digest_mismatch"
    return None


#: Declared tolerance for a threads x2 record against the serial x1
#: reference: a two-slab partition reorders floating-point reductions,
#: which can move the last bits of a verification quantity (LU.S, MG.W
#: and EP.S do at this commit).  Records of the same spec are held to
#: bit-identity; only this cross-partition pair uses the tolerance.
PARTITION_RTOL = 1e-12


def reduction_drift(got, reference) -> float | None:
    """Largest relative difference of the ``computed`` values of two
    verification lists, or None when they differ in anything else
    (quantities, reference values, pass/fail)."""
    if len(got) != len(reference):
        return None
    worst = 0.0
    for a, b in zip(got, reference):
        if (a["quantity"], a["reference"], a["passed"]) != (
                b["quantity"], b["reference"], b["passed"]):
            return None
        scale = max(abs(b["computed"]), 1e-300)
        worst = max(worst, abs(a["computed"] - b["computed"]) / scale)
    return worst


def classify_response(code, body, expected_digest, digest) -> str | None:
    """Why one served operation failed, or None when it succeeded.

    Failures: a 429 (refused), a 503 from the coordinator with no shard
    served (unreachable), any other non-200, a job that did not end
    ``done``/``cached``, an unverified record, or a digest mismatch.
    Transport exceptions never reach here; the caller counts them as
    ``exception``.
    """
    if code == 429:
        return "rejected_429"
    if code == 503 and isinstance(body, dict) and "routing" in body:
        return "unreachable"
    if code != 200:
        return f"http_{code}"
    if not isinstance(body, dict):
        return "bad_body"
    state = body.get("state")
    if state not in ("done", "cached"):
        return f"state_{state}"
    return classify_record(body.get("result"), expected_digest, digest)


class Tally:
    """Attempted/failed counters with failure reasons (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def record(self, reason: str | None) -> bool:
        """Count one operation; True when it succeeded."""
        with self._lock:
            self.attempted += 1
            if reason is None:
                return True
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
            return False

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failed_ratio": self.failed_ratio,
                "reasons": dict(sorted(self.reasons.items()))}


def latency_summary(samples_ms) -> dict:
    """Median and tail of a latency sample, with the sample count."""
    tail = tail_percentile(samples_ms)
    return {"p50": median(samples_ms), "tail": tail["value"],
            "tail_percentile": tail["percentile"], "n": tail["n"],
            "tail_rule": tail["rule"]}
