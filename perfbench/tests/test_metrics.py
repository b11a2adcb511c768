"""The benchmark's own metric rules, on hand-made inputs."""

import json
import math
import os

import pytest

from perfbench import direct
from perfbench.metrics import (PARTITION_RTOL, Tally, classify_record,
                               classify_response, geomean, quartile_spread,
                               reduction_drift, tail_percentile)
from perfbench.spans import SpanRecorder, covered, self_times
from repro.service.chaos import result_digest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# ------------------------------------------------------------------ #
# tail percentile and sample count


def test_tail_has_exactly_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    tail = tail_percentile(samples)
    assert tail["n"] == 100
    assert tail["percentile"] == pytest.approx(90.0)
    assert tail["value"] == 90.0
    assert sum(1 for s in samples if s > tail["value"]) == 10
    assert tail["beyond"] == 10


def test_tail_percentile_rises_with_sample_count():
    small = tail_percentile(range(20))
    large = tail_percentile(range(1000))
    assert small["percentile"] == pytest.approx(50.0)
    assert large["percentile"] == pytest.approx(99.0)
    assert large["value"] == 989.0


def test_tail_ignores_input_order():
    ordered = tail_percentile(range(50))
    shuffled = tail_percentile([49 - i for i in range(50)])
    assert ordered == shuffled


def test_tail_below_eleven_samples_is_the_labelled_max():
    tail = tail_percentile([3.0, 1.0, 2.0])
    assert tail["value"] == 3.0
    assert tail["beyond"] == 0
    assert "max" in tail["rule"]
    eleven = tail_percentile(range(11))
    assert eleven["value"] == 0.0 and eleven["beyond"] == 10


def test_tail_rejects_empty():
    with pytest.raises(ValueError):
        tail_percentile([])


# ------------------------------------------------------------------ #
# geomean and spread


def test_geomean():
    assert geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert geomean([2.0, 8.0, 4.0]) == pytest.approx(4.0)
    assert geomean(v for v in [5.0]) == pytest.approx(5.0)


@pytest.mark.parametrize("bad", [[], [1.0, 0.0], [2.0, -1.0],
                                 [1.0, math.inf]])
def test_geomean_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        geomean(bad)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    # quantiles(n=4) of these ten values: q1=9.725, q3=10.275
    assert quartile_spread(values) == pytest.approx(0.55 / 10.0)


# ------------------------------------------------------------------ #
# failed_ratio: what counts as a failure


VERIFICATION = [{"quantity": "zeta", "computed": 8.5971775078648,
                 "reference": 8.5971775078648, "relative_error": 0.0,
                 "passed": True}]


def body(state="done", verified=True, verification=VERIFICATION):
    return {"state": state, "result": {"verified": verified,
                                       "verification": verification}}


REF = result_digest(VERIFICATION)


@pytest.mark.parametrize("code,payload,reason", [
    (200, body(), None),
    (200, body(state="cached"), None),
    (429, {"error": "full"}, "rejected_429"),
    (503, {"error": "no shard reachable", "routing": {}}, "unreachable"),
    (503, {"error": "draining"}, "http_503"),
    (500, {"error": "boom"}, "http_500"),
    (200, body(state="failed"), "state_failed"),
    (200, body(verified=False), "unverified"),
    (200, {"state": "done", "result": None}, "no_result"),
])
def test_classify_response(code, payload, reason):
    assert classify_response(code, payload, REF, result_digest) == reason


def test_failed_ratio_counts_every_failure_kind():
    tally = Tally()
    outcomes = [(200, body()), (429, {}), (503, {"routing": {}}),
                (200, body(verified=False)),
                (200, body(verification=[dict(VERIFICATION[0],
                                              computed=8.6)]))]
    for code, payload in outcomes:
        tally.record(classify_response(code, payload, REF, result_digest))
    tally.record("exception:ServiceUnavailable")
    assert tally.attempted == 6
    assert tally.failed == 5
    assert tally.failed_ratio == pytest.approx(5 / 6)
    assert tally.as_dict()["reasons"] == {
        "digest_mismatch": 1, "exception:ServiceUnavailable": 1,
        "rejected_429": 1, "unreachable": 1, "unverified": 1}


def test_transport_exception_is_a_counted_failure():
    from perfbench.served import send
    from repro.service import ServiceUnavailable

    class DeadClient:
        def submit(self, payload):
            raise ServiceUnavailable("connection refused")

    tally = Tally()
    assert send(DeadClient(), ("CG", "S"), True, REF, result_digest,
                 tally) is None
    assert tally.failed == 1
    assert tally.reasons == {"exception:ServiceUnavailable": 1}


# ------------------------------------------------------------------ #
# digest check


def test_digest_catches_a_tampered_record():
    from repro import run_benchmark

    record = run_benchmark("CG", "S").to_dict()
    reference = result_digest(record["verification"])
    assert classify_record(record, reference, result_digest) is None
    tampered = json.loads(json.dumps(record))
    value = tampered["verification"][0]["computed"]
    tampered["verification"][0]["computed"] = math.nextafter(value, math.inf)
    assert classify_record(tampered, reference, result_digest) == (
        "digest_mismatch")
    # a JSON round trip (what every served record goes through) keeps bits
    assert classify_record(json.loads(json.dumps(record)), reference,
                           result_digest) is None


def _cell(backend, computed, verified=True):
    verification = [dict(VERIFICATION[0], computed=computed)]
    return {"bm": "EP", "cls": "S", "backend": backend,
            "record": {"verified": verified, "verification": verification}}


def test_gate_holds_serial_to_bits_and_threads_to_the_tolerance():
    base = VERIFICATION[0]["computed"]
    last_bit = math.nextafter(base, math.inf)
    runs = [_cell("serial", base), _cell("threads", last_bit),
            _cell("serial", last_bit)]
    tally = Tally()
    good, drift = direct.gate(runs, tally, result_digest)
    # the second serial record differs in its last bit: a failure
    assert tally.reasons == {"digest_mismatch": 1}
    assert [c["backend"] for c in good] == ["serial", "threads"]
    assert set(drift) == {"EP.S.threads"}
    assert 0 < drift["EP.S.threads"] <= PARTITION_RTOL


def test_gate_fails_threads_beyond_the_tolerance():
    base = VERIFICATION[0]["computed"]
    runs = [_cell("serial", base), _cell("threads", base * (1 + 1e-9))]
    tally = Tally()
    good, drift = direct.gate(runs, tally, result_digest)
    assert tally.reasons == {"digest_mismatch": 1}
    assert drift == {}


def test_reduction_drift_requires_matching_structure():
    other = [dict(VERIFICATION[0], passed=False)]
    assert reduction_drift(other, VERIFICATION) is None
    assert reduction_drift(VERIFICATION, VERIFICATION) == 0.0


# ------------------------------------------------------------------ #
# spans


def test_self_time_subtracts_the_union_of_children():
    rec = SpanRecorder()
    trace = rec.new_id()
    root = rec.add("parent", 0.0, 10.0, trace)
    rec.add("child", 1.0, 3.0, trace, root)
    rec.add("child", 2.0, 5.0, trace, root)   # overlaps the first
    rec.add("child", 9.0, 12.0, trace, root)  # runs past the parent
    stats = self_times(rec.rows())
    assert stats["parent"]["self_s"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert stats["child"]["count"] == 3
    assert covered((0.0, 1.0), []) == 0.0


# ------------------------------------------------------------------ #
# host-noise stamp


def test_host_stamp_fields():
    from perfbench.hoststamp import HostStamp

    stamp = HostStamp(ROOT)
    stamp.begin()
    host = stamp.end()
    for key in ("loadavg_1m_before", "loadavg_1m_after",
                "calibration_s_before", "calibration_s_after",
                "steal_jiffies", "iowait_jiffies", "nproc", "git_sha",
                "source_sha256"):
        assert key in host
    assert host["calibration_s_before"] > 0 and host["nproc"] >= 1
