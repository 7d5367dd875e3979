"""SLO accounting: digests, objectives, burn rates, tracker verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    VERDICT_SLO_BREACH,
    VERDICT_SLO_OK,
    LatencyDigest,
    SLOObjective,
    SLOTracker,
)


class TestLatencyDigest:
    def test_empty_digest(self):
        digest = LatencyDigest()
        assert digest.count == 0
        assert digest.percentile(50) is None
        assert digest.min is None and digest.max is None

    def test_percentiles_track_observations(self):
        digest = LatencyDigest()
        for ms in (1.0, 2.0, 3.0, 100.0):
            digest.observe(ms * 1e-3)
        assert digest.percentile(0) == pytest.approx(1e-3)
        assert digest.percentile(100) == pytest.approx(0.1)
        # p50 targets the 1-3 ms half, nowhere near the 100 ms tail.
        assert digest.percentile(50) < 10e-3

    def test_relative_bucket_error_is_small(self):
        # 20 buckets/decade -> ~12% worst-case relative width; one
        # mid-bucket value must come back within that.
        digest = LatencyDigest()
        digest.observe(3.3e-3)
        for p in (1, 50, 99):
            assert digest.percentile(p) == pytest.approx(3.3e-3, rel=0.13)

    def test_negative_latency_rejected(self):
        with pytest.raises(ParameterError):
            LatencyDigest().observe(-1e-6)

    def test_bad_resolution_rejected(self):
        with pytest.raises(ParameterError):
            LatencyDigest(lo_exp=3, hi_exp=-6)
        with pytest.raises(ParameterError):
            LatencyDigest(per_decade=0)

    def test_merge_is_lossless(self):
        a, b, combined = LatencyDigest(), LatencyDigest(), LatencyDigest()
        for i, ms in enumerate((0.5, 1.0, 5.0, 50.0, 400.0, 2.0)):
            (a if i % 2 else b).observe(ms * 1e-3)
            combined.observe(ms * 1e-3)
        a.merge(b)
        assert a.to_dict() == combined.to_dict()

    def test_merge_mismatched_resolution_rejected(self):
        with pytest.raises(ParameterError):
            LatencyDigest().merge(LatencyDigest(per_decade=10))

    def test_dict_round_trip(self):
        digest = LatencyDigest()
        for ms in (1.0, 2.0, 700.0):
            digest.observe(ms * 1e-3)
        restored = LatencyDigest.from_dict(digest.to_dict())
        assert restored.to_dict() == digest.to_dict()
        assert restored.percentile(99) == digest.percentile(99)

    def test_serialization_is_sparse(self):
        digest = LatencyDigest()
        digest.observe(1e-3)
        buckets = digest.to_dict()["buckets"]
        assert len(buckets) == 1
        assert all(n > 0 for n in buckets.values())


class TestSLOObjective:
    def test_allowed_bad_fraction(self):
        objective = SLOObjective("p99", threshold_s=10e-3, target=0.99)
        assert objective.allowed_bad_fraction == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ParameterError):
            SLOObjective("bad", threshold_s=0.0)
        with pytest.raises(ParameterError):
            SLOObjective("bad", threshold_s=1.0, target=1.0)
        with pytest.raises(ParameterError):
            SLOObjective("bad", threshold_s=1.0, target=0.0)

    def test_defaults_are_sane(self):
        assert len(DEFAULT_OBJECTIVES) == 2
        assert all(o.threshold_s > 0 for o in DEFAULT_OBJECTIVES)


class TestSLOTracker:
    def test_all_good_is_ok(self):
        tracker = SLOTracker()
        for _ in range(100):
            tracker.observe(1e-3)
        report = tracker.report(duration_s=0.1)
        assert report["verdict"] == VERDICT_SLO_OK
        assert report["completed"] == 100
        assert report["qps_completed"] == pytest.approx(1000.0)
        assert all(
            o["burn_rate"] == 0.0 for o in report["objectives"]
        )

    def test_burn_rate_math(self):
        # 2 bad of 100 against a 99% target: bad fraction 0.02 over an
        # allowed 0.01 -> burn rate 2, error budget -1.
        objective = SLOObjective("p99", threshold_s=10e-3, target=0.99)
        tracker = SLOTracker(objectives=(objective,))
        for _ in range(98):
            tracker.observe(1e-3)
        for _ in range(2):
            tracker.observe(20e-3)
        entry = tracker.report()["objectives"][0]
        assert entry["bad"] == 2
        assert entry["burn_rate"] == pytest.approx(2.0)
        assert entry["error_budget_remaining"] == pytest.approx(-1.0)
        assert entry["verdict"] == VERDICT_SLO_BREACH

    def test_burn_rate_exactly_one_is_ok(self):
        # Consuming the budget exactly as provisioned is not a breach.
        objective = SLOObjective("p99", threshold_s=10e-3, target=0.99)
        tracker = SLOTracker(objectives=(objective,))
        for _ in range(99):
            tracker.observe(1e-3)
        tracker.observe(20e-3)
        entry = tracker.report()["objectives"][0]
        assert entry["burn_rate"] == pytest.approx(1.0)
        assert entry["verdict"] == VERDICT_SLO_OK

    def test_any_rejection_breaches(self):
        tracker = SLOTracker()
        tracker.observe(1e-3)
        tracker.reject()
        report = tracker.report()
        assert report["rejected"] == 1
        assert report["verdict"] == VERDICT_SLO_BREACH

    def test_empty_tracker_is_ok(self):
        report = SLOTracker().report()
        assert report["completed"] == 0
        assert report["verdict"] == VERDICT_SLO_OK
        assert report["latency"]["p50_ms"] is None

    def test_objectives_use_exact_latencies_not_the_digest(self):
        # A threshold inside one bucket: digest resolution must not
        # blur the bad count.
        threshold = 10e-3
        objective = SLOObjective("edge", threshold_s=threshold, target=0.5)
        tracker = SLOTracker(objectives=(objective,))
        tracker.observe(threshold)  # on the line: good
        tracker.observe(threshold * 1.0001)  # just over: bad
        assert tracker.report()["objectives"][0]["bad"] == 1

    def test_report_embeds_digest_state(self):
        tracker = SLOTracker()
        tracker.observe(2e-3)
        digest = tracker.report()["digest"]
        assert digest["count"] == 1
        restored = LatencyDigest.from_dict(digest)
        assert restored.count == 1


def _state(tracker: SLOTracker) -> dict:
    hist = tracker.digest._hist
    return {
        "buckets": list(hist.bucket_counts),
        "count": hist.count,
        "sum": hist.sum.hex(),
        "min": hist.min,
        "max": hist.max,
        "bad": list(tracker.bad),
    }


class TestObserveMany:
    """Batched observation against one ``observe`` per latency."""

    latencies = st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=2e3),
            st.sampled_from((0.0, 50e-3, 250e-3, 1e-6, 1e3)),
        ),
        max_size=40,
    )

    @settings(max_examples=150, deadline=None)
    @given(batches=st.lists(latencies, max_size=5))
    def test_equals_sequential_observe(self, batches):
        batched, sequential = SLOTracker(), SLOTracker()
        for batch in batches:
            batched.observe_many(batch)
            for latency in batch:
                sequential.observe(latency)
        assert _state(batched) == _state(sequential)
        assert batched.report() == sequential.report()

    @settings(max_examples=150, deadline=None)
    @given(batches=st.lists(latencies, max_size=5))
    def test_arrays_equal_sequential_observe(self, batches):
        batched, sequential = SLOTracker(), SLOTracker()
        for batch in batches:
            batched.observe_many(np.array(batch, dtype=np.float64))
            for latency in batch:
                sequential.observe(latency)
        assert _state(batched) == _state(sequential)
        assert repr(batched.digest.min) == repr(sequential.digest.min)
        assert type(batched.bad[0]) is int
        assert batched.report() == sequential.report()

    def test_array_first_of_equal_extremes_is_kept(self):
        batched, sequential = SLOTracker(), SLOTracker()
        batched.observe_many(np.array([0.0, -0.0, 1e-3, 1e-3]))
        for latency in (0.0, -0.0, 1e-3, 1e-3):
            sequential.observe(latency)
        assert repr(batched.digest.min) == repr(sequential.digest.min) == "0.0"
        assert _state(batched) == _state(sequential)

    def test_array_with_a_negative_latency_changes_nothing(self):
        tracker = SLOTracker()
        tracker.observe_many(np.array([2e-3, 60e-3]))
        before = _state(tracker)
        with pytest.raises(ParameterError, match="-1e-09"):
            tracker.observe_many(np.array([1e-3, -1e-9, 300e-3]))
        assert _state(tracker) == before

    def test_first_of_equal_extremes_is_kept(self):
        batched, sequential = SLOTracker(), SLOTracker()
        batched.observe_many([0.0, -0.0, 1e-3])
        for latency in (0.0, -0.0, 1e-3):
            sequential.observe(latency)
        assert str(batched.digest.min) == str(sequential.digest.min) == "0.0"

    def test_negative_latency_raises_like_observe(self):
        with pytest.raises(ParameterError):
            SLOTracker().observe(-1e-9)
        tracker = SLOTracker()
        with pytest.raises(ParameterError):
            tracker.observe_many([1e-3, -1e-9])
        assert _state(tracker) == _state(SLOTracker())

    def test_empty_batch_changes_nothing(self):
        tracker = SLOTracker()
        tracker.observe_many([])
        assert _state(tracker) == _state(SLOTracker())
