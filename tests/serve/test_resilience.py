"""Resilient sharded serving: breakers, routing, hedging, the gate."""

import hashlib
import json
import pathlib
from dataclasses import asdict

import pytest

from repro.errors import ParameterError
from repro.obs.gate import exit_code
from repro.obs.slo import SLOObjective
from repro.pim.config import UPMEMConfig
from repro.pim.faults import FaultPlan
from repro.serve.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    GATE,
    LEDGER,
    BreakerSpec,
    CircuitBreaker,
    ResilienceSpec,
    capture_resilience_run,
    check_resilience_runs,
    degraded_plan,
    read_resilience_run,
    render_resilience_text,
    simulate_resilient,
)
from repro.serve import scheduler
from repro.serve.service import RequestClass, ServeSpec, simulate

CONFIG = UPMEMConfig()
REPO = pathlib.Path(__file__).resolve().parents[2]


def _spec(qps=2000.0, seed=0, security=109, **kwargs) -> ServeSpec:
    return ServeSpec(
        classes=(
            RequestClass(security_bits=security, rate_qps=qps),
        ),
        duration_s=0.1,
        seed=seed,
        **kwargs,
    )


def _stripped(doc: dict) -> dict:
    doc = dict(doc)
    for key in ("run_id", "created_at", "git_sha"):
        doc.pop(key, None)
    return doc


class TestCircuitBreaker:
    def test_closed_until_threshold_then_open(self):
        breaker = CircuitBreaker(
            BreakerSpec(failure_threshold=3, cooldown_s=0.5)
        )
        assert breaker.state(0.0) == BREAKER_CLOSED
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state(0.0) == BREAKER_CLOSED
        assert breaker.allows(0.0)
        breaker.record_failure(0.0)
        assert breaker.state(0.0) == BREAKER_OPEN
        assert not breaker.allows(0.1)
        assert breaker.opened_count == 1

    def test_half_open_trial_after_cooldown(self):
        breaker = CircuitBreaker(
            BreakerSpec(failure_threshold=1, cooldown_s=0.5)
        )
        breaker.record_failure(0.0)
        assert breaker.state(0.4) == BREAKER_OPEN
        assert breaker.state(0.5) == BREAKER_HALF_OPEN
        assert breaker.allows(0.5)

    def test_half_open_success_closes(self):
        breaker = CircuitBreaker(
            BreakerSpec(failure_threshold=1, cooldown_s=0.5)
        )
        breaker.record_failure(0.0)
        breaker.record_success(0.6)
        assert breaker.state(0.6) == BREAKER_CLOSED
        assert breaker.opened_count == 1

    def test_half_open_failure_retrips_fresh_cooldown(self):
        breaker = CircuitBreaker(
            BreakerSpec(failure_threshold=3, cooldown_s=0.5)
        )
        for _ in range(3):
            breaker.record_failure(0.0)
        # One failure in half-open re-trips immediately — no need for
        # threshold-many consecutive failures again.
        breaker.record_failure(0.6)
        assert breaker.state(0.7) == BREAKER_OPEN
        assert not breaker.allows(1.0)
        assert breaker.allows(1.1)
        assert breaker.opened_count == 2

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(
            BreakerSpec(failure_threshold=2, cooldown_s=0.5)
        )
        breaker.record_failure(0.0)
        breaker.record_success(0.1)
        breaker.record_failure(0.2)
        assert breaker.state(0.3) == BREAKER_CLOSED

    @pytest.mark.parametrize(
        "kwargs",
        [dict(failure_threshold=0), dict(cooldown_s=-1.0)],
    )
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            BreakerSpec(**kwargs)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_shards=0),
            dict(retry_budget=-1),
            dict(hedge_after_s=-1e-3),
            dict(shed_burn_threshold=0.0),
        ],
    )
    def test_bad_resilience_spec_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            ResilienceSpec(serve=_spec(), **kwargs)


class TestZeroFaultSingleShardIdentity:
    def test_deterministic_documents(self):
        rspec = ResilienceSpec(serve=_spec(seed=3), n_shards=4)
        a = _stripped(simulate_resilient(rspec).doc)
        b = _stripped(simulate_resilient(rspec).doc)
        assert a == b


class TestDegradedRouting:
    def test_dead_shard_gets_no_launches_and_traffic_reroutes(self):
        plan, victim = degraded_plan(1, (1, 4), CONFIG)
        res = simulate_resilient(
            ResilienceSpec(serve=_spec(seed=1), n_shards=4, plan=plan)
        )
        shards = {s["shard"]: s for s in res.doc["shards"]}
        assert shards[victim]["healthy_dpus"] == 0
        assert shards[victim]["launches"] == 0
        resilience = res.doc["resilience"]
        assert resilience["routed_batches"] > 0
        assert resilience["failed_requests"] == 0
        assert resilience["attainment"] == 1.0

    def test_conservation_completed_plus_rejected_is_offered(self):
        plan, _ = degraded_plan(1, (1, 4), CONFIG)
        res = simulate_resilient(
            ResilienceSpec(serve=_spec(seed=1), n_shards=4, plan=plan)
        )
        offered = res.doc["resilience"]["offered_requests"]
        completed = sum(r["completed"] for r in res.reports.values())
        rejected = sum(r["rejected"] for r in res.reports.values())
        assert completed + rejected == offered
        assert len(res.timelines) == completed
        # Winner launches carry exactly the completed requests.
        winner_members = sum(
            launch.batch_size
            for launch in res.launches
            if not launch.hedged or launch.hedge_winner
        )
        assert winner_members == completed


class TestAllShardsFailing:
    def test_breakers_open_and_requests_reject(self):
        """transient_rate=1.0 exhausts every dispatch: the retry budget
        burns, breakers trip, and all requests are rejected."""
        plan = FaultPlan(transient_rate=1.0)
        res = simulate_resilient(
            ResilienceSpec(
                serve=_spec(qps=500.0),
                n_shards=2,
                plan=plan,
                breaker=BreakerSpec(failure_threshold=2, cooldown_s=5e-3),
            )
        )
        resilience = res.doc["resilience"]
        assert resilience["failed_requests"] > 0
        assert resilience["redispatches"] > 0
        assert resilience["breaker_opened"] > 0
        assert not res.timelines
        completed = sum(r["completed"] for r in res.reports.values())
        assert completed == 0
        assert res.doc["verdict"] == "SLO-BREACH"


class TestHedging:
    def test_queued_batches_hedge_and_winner_is_recorded(self):
        # hedge_after_s=0 hedges any batch that waits at all; past the
        # per-shard knee the serial shard timelines queue, so hedges
        # must fire.
        res = simulate_resilient(
            ResilienceSpec(
                serve=_spec(qps=160000.0, security=54, seed=1),
                n_shards=2,
                hedge_after_s=0.0,
            )
        )
        resilience = res.doc["resilience"]
        assert resilience["hedges_issued"] > 0
        assert resilience["hedge_overhead_s"] > 0.0
        hedged = [launch for launch in res.launches if launch.hedged]
        assert hedged
        # Every hedged batch has exactly one winning copy.
        by_seal: dict = {}
        for launch in hedged:
            by_seal.setdefault(
                (launch.class_key, launch.seal_s), []
            ).append(launch)
        for copies in by_seal.values():
            assert sum(1 for c in copies if c.hedge_winner) == 1

    def test_hedging_off_by_default(self):
        res = simulate_resilient(
            ResilienceSpec(
                serve=_spec(qps=160000.0, security=54), n_shards=2
            )
        )
        assert res.doc["resilience"]["hedges_issued"] == 0


class TestShedding:
    def test_only_lowest_priority_class_sheds(self):
        spec = ServeSpec(
            classes=(
                RequestClass(
                    security_bits=54, rate_qps=2000.0, priority=1
                ),
                RequestClass(
                    security_bits=109, rate_qps=2000.0, priority=0
                ),
            ),
            duration_s=0.1,
            seed=0,
            # Impossible latency objective: every completion is "bad",
            # so the burn rate saturates immediately.
            objectives=(
                SLOObjective("p99-instant", threshold_s=1e-12, target=0.99),
            ),
        )
        res = simulate_resilient(
            ResilienceSpec(serve=spec, n_shards=2, shed_burn_threshold=1.0)
        )
        shed = res.doc["resilience"]["shed_by_class"]
        assert shed["vec_add@109"] > 0  # priority 0 sheds
        assert shed["vec_add@54"] == 0  # priority 1 is protected
        assert res.doc["resilience"]["shed_batches"] > 0

    def test_no_shedding_without_threshold(self):
        res = simulate_resilient(
            ResilienceSpec(serve=_spec(qps=2000.0), n_shards=2)
        )
        assert res.doc["resilience"]["shed_batches"] == 0


class TestPinnedTimelines:
    """Request timelines at points the serial oracle cannot reach.

    The sha256 of every timeline, in order, was recorded before the
    loop stopped building timelines per request; a lazily built list
    must reproduce it exactly.
    """

    @staticmethod
    def _digest(result) -> str:
        return hashlib.sha256(
            json.dumps([asdict(t) for t in result.timelines]).encode()
        ).hexdigest()

    @pytest.mark.parametrize(
        "qps, expected",
        [
            (
                144000.0,
                "05065c98267d9dcc59dfd4637f8910b616cd9bcc1e12c16773d1178945c58cc8",
            ),
            (
                176000.0,
                "246f4a1971cc4a45d15c53f2f2585a58002147c686a9b798b122d07a674d0057",
            ),
        ],
    )
    def test_degraded_hedged_knee_points(self, qps, expected):
        plan, _ = degraded_plan(0, (1, 4), CONFIG)
        res = simulate_resilient(
            ResilienceSpec(
                serve=_spec(qps=qps, seed=0, security=54),
                n_shards=4,
                hedge_after_s=5e-3,
                plan=plan.scaled(),
            )
        )
        assert self._digest(res) == expected

    def test_shedding_two_class_point(self):
        plan, _ = degraded_plan(0, (1, 4), CONFIG)
        spec = ServeSpec(
            classes=(
                RequestClass(
                    security_bits=54, rate_qps=150000.0, priority=1
                ),
                RequestClass(
                    security_bits=109, rate_qps=30000.0, priority=0
                ),
            ),
            duration_s=0.05,
            seed=0,
        )
        res = simulate_resilient(
            ResilienceSpec(
                serve=spec,
                n_shards=4,
                hedge_after_s=5e-3,
                shed_burn_threshold=1.0,
                plan=plan.scaled(),
            )
        )
        resilience = res.doc["resilience"]
        assert resilience["shed_by_class"]["vec_add@109"] > 0
        assert resilience["hedges_issued"] > 0
        assert (resilience["good_requests"], len(res.timelines)) == (
            5342,
            8263,
        )
        assert self._digest(res) == (
            "093fd38016a52db55ad9feb4ebc5b3d3c77c89ed11aa1845971327df486c3a6b"
        )


class TestShedFlush:
    """Shedding reads the burn rate of every batch served before it.

    The loop charges served requests to the SLO trackers in bulk; at
    this point one shed decision turns on the batch served just before
    it (charging one batch late sheds 44 requests instead of 46). The
    sha256 of the point document (without run identity) and of the
    timelines were recorded before the accounting was deferred.
    """

    def test_two_class_point_is_unchanged(self):
        spec = ServeSpec(
            classes=(
                RequestClass(security_bits=54, rate_qps=2000.0, priority=1),
                RequestClass(security_bits=109, rate_qps=2000.0, priority=0),
            ),
            duration_s=0.05,
            seed=0,
            objectives=(
                SLOObjective("p99-under-3ms", threshold_s=3e-3, target=0.99),
            ),
        )
        res = simulate_resilient(
            ResilienceSpec(serve=spec, n_shards=2, shed_burn_threshold=1.5)
        )
        resilience = res.doc["resilience"]
        assert resilience["shed_by_class"] == {
            "vec_add@109": 46,
            "vec_add@54": 0,
        }
        assert (resilience["shed_batches"], len(res.timelines)) == (19, 152)
        doc = json.dumps(_stripped(res.doc), sort_keys=True).encode()
        assert hashlib.sha256(doc).hexdigest() == (
            "8e17b41b3d222475f7e23c9bf7c9b1ef80748abfbf0818a32e476c5c607a868f"
        )
        assert TestPinnedTimelines._digest(res) == (
            "184f42a4819b28274adf03f2a117cb58b81fdcd5899fe77146ae66de00bcdf17"
        )


class TestLazyTimelines:
    def test_gate_capture_builds_no_timelines(self, monkeypatch):
        built = []
        real_init = scheduler.RequestTimeline.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(
            scheduler.RequestTimeline, "__init__", counting_init
        )
        assert capture_resilience_run(**TestResilienceGate.GRID)["points"]
        res = simulate_resilient(ResilienceSpec(serve=_spec(), n_shards=2))
        plain = simulate(_spec())
        assert built == []
        for result in (res, plain):
            built.clear()
            completed = sum(r["completed"] for r in result.reports.values())
            assert len(result.timelines) == len(built) == completed
            assert result.timelines is result.timelines

    def test_timelines_are_read_only(self):
        res = simulate_resilient(ResilienceSpec(serve=_spec(), n_shards=2))
        with pytest.raises(AttributeError):
            res.timelines = []


class TestGoodRequests:
    """``good_requests`` comes from the trackers' bad counts."""

    def _point(self, objectives):
        return simulate_resilient(
            ResilienceSpec(
                serve=_spec(
                    qps=176000.0, security=54, objectives=objectives
                ),
                n_shards=4,
            )
        )

    def test_two_objectives_count_the_tightest(self):
        objectives = (
            SLOObjective("p99-10ms", threshold_s=10e-3, target=0.99),
            SLOObjective("p50-3ms", threshold_s=3e-3, target=0.5),
        )
        res = self._point(objectives)
        latencies = [t.latency_s for t in res.timelines]
        good = sum(1 for s in latencies if s <= 3e-3)
        assert 0 < good < len(latencies)
        assert sum(1 for s in latencies if s <= 10e-3) > good
        assert res.doc["resilience"]["good_requests"] == good

    def test_no_objectives_every_completion_is_good(self):
        res = self._point(())
        completed = sum(r["completed"] for r in res.reports.values())
        assert completed > 0
        assert res.doc["resilience"]["good_requests"] == completed
        assert res.doc["resilience"]["attainment"] == 1.0


class TestDegradationAcceptance:
    """The headline: sharding turns global degradation into ≤ 1/K."""

    def test_degraded_unsharded_breaches_where_sharded_holds(self):
        qps = 144000.0
        plan, _ = degraded_plan(1, (1, 4), CONFIG)
        healthy_k1 = simulate_resilient(
            ResilienceSpec(serve=_spec(qps, 1, 54), n_shards=1)
        )
        degraded_k1 = simulate_resilient(
            ResilienceSpec(
                serve=_spec(qps, 1, 54), n_shards=1, plan=plan.scaled()
            )
        )
        degraded_k4 = simulate_resilient(
            ResilienceSpec(
                serve=_spec(qps, 1, 54),
                n_shards=4,
                plan=plan.scaled(),
                hedge_after_s=5e-3,
            )
        )
        assert healthy_k1.doc["verdict"] == "SLO-OK"
        assert degraded_k1.doc["verdict"] == "SLO-BREACH"
        assert degraded_k4.doc["verdict"] == "SLO-OK"

        def p99(result):
            return list(result.reports.values())[0]["latency"]["p99_ms"]

        # The unsharded fleet pays the slowdown globally; the sharded
        # fleet isolates it and routes around the casualty.
        assert p99(degraded_k1) > p99(healthy_k1)
        assert p99(degraded_k4) < p99(degraded_k1)

    def test_committed_capacity_locks_the_one_over_k_floor(self):
        doc = read_resilience_run(REPO / "baselines" / "resilience.json")
        for key, entry in doc["capacity"].items():
            k = int(key.split("shards=")[1])
            if k > 1:
                assert entry["retained"] is not None
                assert entry["retained"] >= entry["retained_floor"]
        # And the unsharded model demonstrably degrades harder.
        for seed in doc["seeds"]:
            k1 = doc["capacity"][f"seed={seed}:shards=1"]["retained"]
            kmax = max(k for k in doc["shard_counts"])
            ksharded = doc["capacity"][f"seed={seed}:shards={kmax}"][
                "retained"
            ]
            assert k1 < 1.0 - 1.0 / kmax <= ksharded


class TestResilienceGate:
    GRID = dict(
        seeds=(1,),
        shard_counts=(1, 2),
        qps_grid=(2000.0,),
        duration_s=0.05,
    )

    @pytest.fixture(scope="class")
    def doc(self):
        return capture_resilience_run(**self.GRID)

    def test_round_trip_is_clean(self, doc, tmp_path):
        path = tmp_path / "resilience.json"
        LEDGER.write(doc, path)
        loaded = read_resilience_run(path)
        assert _stripped(loaded) == _stripped(doc)
        verdicts = check_resilience_runs(loaded, doc)
        assert exit_code(verdicts) == 0
        assert all(v.verdict == "ok" for v in verdicts)

    def test_perturbed_point_is_drift(self, doc):
        doctored = json.loads(json.dumps(doc))
        label = sorted(doctored["points"])[0]
        doctored["points"][label]["completed"] += 1
        verdicts = check_resilience_runs(doctored, doc)
        assert exit_code(verdicts) == 1
        failed = [v for v in verdicts if v.failed]
        assert failed and failed[0].key == label
        report = GATE.render_check(verdicts, doctored, doc)
        assert "RESILIENCE-DRIFT" in report

    def test_config_change_is_drift(self, doc):
        doctored = json.loads(json.dumps(doc))
        doctored["qps_grid"] = [4000.0]
        verdicts = check_resilience_runs(doctored, doc)
        config_row = next(
            v for v in verdicts if v.key == "<resil-config>"
        )
        assert config_row.failed

    def test_current_only_points_are_new(self, doc):
        trimmed = json.loads(json.dumps(doc))
        label = sorted(trimmed["points"])[0]
        del trimmed["points"][label]
        verdicts = {
            v.key: v.verdict
            for v in check_resilience_runs(trimmed, doc)
        }
        assert verdicts[label] == "new"

    def test_render_text_mentions_capacity_and_verdicts(self, doc):
        text = render_resilience_text(doc)
        assert "capacity under one dead shard" in text
        assert "SLO verdict summary" in text

    def test_bad_documents_rejected(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ParameterError):
            read_resilience_run(missing)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99, "kind": "other"}))
        with pytest.raises(ParameterError):
            read_resilience_run(bad)
