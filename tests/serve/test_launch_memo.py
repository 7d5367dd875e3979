"""The per-process launch memo: shared, immutable, and invisible.

Fault-free launch prices are memoized once per process
(:class:`~repro.serve.shard.ShardedPricer`). A serving point must come
out the same whatever ran before it in the process, faulted shards must
never share a price, and traced or metered runs must price (and emit
their spans and metrics) exactly as without the memo.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.backends.pim import PIMBackend
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.runident import run_identity
from repro.obs.trace import Tracer, use_tracer
from repro.pim.config import UPMEMConfig
from repro.pim.faults import FaultPlan, use_fault_plan
from repro.pim.runtime import PIMRuntime
from repro.serve import shard
from repro.serve.resilience import (
    ResilienceSpec,
    degraded_plan,
    simulate_resilient,
)
from repro.serve.service import RequestClass, ServeSpec, price_launch, simulate
from repro.serve.shard import (
    PricedLaunch,
    ShardedPricer,
    clear_launch_memo,
    make_layout,
)

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
CONFIG = UPMEMConfig()


def _spec(qps: float, seed: int = 0) -> ServeSpec:
    return ServeSpec(
        classes=(
            RequestClass(workload="vec_add", security_bits=54, rate_qps=qps),
        ),
        duration_s=0.02,
        seed=seed,
    )


def _degraded(qps: float = 176000.0) -> ResilienceSpec:
    plan, _victim = degraded_plan(0, (1, 4), CONFIG)
    return ResilienceSpec(
        serve=_spec(qps), n_shards=4, hedge_after_s=5e-3, plan=plan
    )


def _mixed() -> ServeSpec:
    return ServeSpec(
        classes=(
            RequestClass(workload="vec_add", security_bits=54, rate_qps=2e4),
            RequestClass(workload="mean", security_bits=109, rate_qps=5e3),
        ),
        duration_s=0.02,
        seed=2,
    )


#: name -> (run the point, ``pim.time_kernel.*`` spans it emits traced).
#: The span counts are the pricings of each distinct (shard, class,
#: batch) the point prices, as before the memo existed.
POINTS = {
    "plain": (lambda: simulate(_spec(96000.0)), 2),
    "degraded": (lambda: simulate_resilient(_degraded()), 8),
    "mixed": (lambda: simulate(_mixed()), 13),
}


def _observed(result) -> dict:
    """A point's doc (minus run identity), reports and launches."""
    identity = set(run_identity())
    return json.loads(
        json.dumps(
            {
                "doc": {
                    k: v for k, v in result.doc.items() if k not in identity
                },
                "reports": result.reports,
                "launches": [launch.to_dict() for launch in result.launches],
            }
        )
    )


@pytest.fixture
def empty_memo():
    clear_launch_memo()
    yield shard._LAUNCH_MEMO
    clear_launch_memo()


class TestPricedLaunch:
    def test_same_key_on_two_shards_is_one_unmutated_record(self, empty_memo):
        """Shards 0 and 1 of a 4-shard fleet have the same size: two
        pricers pricing the same class and batch there share one
        record, equal to a fresh pricing and mutated by neither."""
        layout = make_layout(4, CONFIG)
        assert layout.size_of(0) == layout.size_of(1)
        slow = RequestClass(workload="vec_add", security_bits=54, rate_qps=1.0)
        fast = dataclasses.replace(slow, rate_qps=9e4)
        a = ShardedPricer((slow,), layout, FaultPlan(), CONFIG)
        b = ShardedPricer((fast,), layout, FaultPlan(), CONFIG)
        first = a.price(0, slow.key, 16)
        snapshot = dataclasses.asdict(first)
        second = b.price(1, fast.key, 16)
        assert second is first
        assert dataclasses.asdict(first) == snapshot
        assert len(empty_memo) == 1

        backend = PIMBackend(
            runtime=PIMRuntime(config=layout.shard_config(CONFIG, 1))
        )
        with use_fault_plan(FaultPlan()):
            fresh = PricedLaunch.of(price_launch(backend, fast, 16))
        assert second == fresh
        with pytest.raises(dataclasses.FrozenInstanceError):
            second.seconds = 0.0

    def test_the_memo_is_bounded(self, empty_memo, monkeypatch):
        monkeypatch.setattr(shard, "LAUNCH_MEMO_LIMIT", 3)
        cls = RequestClass(workload="vec_add", security_bits=54, rate_qps=1.0)
        pricer = ShardedPricer((cls,), make_layout(1, CONFIG), FaultPlan())
        for batch in range(1, 6):
            pricer.price(0, cls.key, batch)
        assert [key[-1] for key in empty_memo] == [3, 4, 5]


class TestProcessHistoryIndependence:
    @pytest.mark.parametrize("name", sorted(POINTS))
    def test_first_after_others_and_after_a_clear(self, name, empty_memo):
        run, _spans = POINTS[name]
        first = _observed(run())
        for other in sorted(POINTS):
            POINTS[other][0]()
        assert empty_memo
        after_others = _observed(run())
        clear_launch_memo()
        after_clear = _observed(run())
        assert after_others == first
        assert after_clear == first

    def test_a_fresh_process_agrees(self, empty_memo):
        """The degraded point, alone in a new interpreter, matches the
        same point run here after every other point."""
        for name in sorted(POINTS):
            POINTS[name][0]()
        here = _observed(simulate_resilient(_degraded()))
        code = (
            "import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from tests.serve.test_launch_memo import _degraded, _observed\n"
            "from repro.serve.resilience import simulate_resilient\n"
            "print(json.dumps(_observed(simulate_resilient(_degraded()))))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC.parent)],
            check=True,
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert json.loads(done.stdout) == here


class TestFaultDrawsNeverShare:
    def test_transient_faults_stay_out_of_the_memo(self, empty_memo):
        plan = FaultPlan(seed=5, transient_rate=0.3)
        spec = ResilienceSpec(serve=_spec(96000.0), n_shards=2, plan=plan)
        once = _observed(simulate_resilient(spec))
        assert len(empty_memo) == 0
        twice = _observed(simulate_resilient(spec))
        assert len(empty_memo) == 0
        assert twice == once

    def test_a_retry_policy_stays_out_of_the_memo(self, empty_memo):
        from repro.pim.faults import DEFAULT_RETRY_POLICY

        cls = RequestClass(workload="vec_add", security_bits=54, rate_qps=1.0)
        pricer = ShardedPricer(
            (cls,),
            make_layout(1, CONFIG),
            FaultPlan(),
            retry_policy=DEFAULT_RETRY_POLICY,
        )
        pricer.price(0, cls.key, 8)
        assert len(empty_memo) == 0

    def test_only_the_fault_free_shards_share(self, empty_memo):
        """A dead shard is never priced; its live siblings are."""
        result = simulate_resilient(_degraded())
        priced_shards = {launch.shard for launch in result.launches}
        assert empty_memo
        configs = {key[0] for key in empty_memo}
        layout = result.layout
        assert configs == {
            layout.shard_config(CONFIG, s) for s in priced_shards
        }


class TestObservedRunsBypass:
    @pytest.mark.parametrize("name", sorted(POINTS))
    def test_traced_spans_match_with_a_warm_memo(self, name, empty_memo):
        run, spans = POINTS[name]
        run()
        assert empty_memo
        tracer = Tracer()
        with use_tracer(tracer):
            traced = run()
        emitted = [
            s for s in tracer.finished if s.name.startswith("pim.time_kernel.")
        ]
        assert len(emitted) == spans
        assert _observed(traced) == _observed(run())

    @pytest.mark.parametrize("name", sorted(POINTS))
    def test_metered_kernel_launches_match(self, name, empty_memo):
        run, spans = POINTS[name]
        run()
        registry = MetricsRegistry()
        with use_registry(registry):
            run()
        assert registry.snapshot()["pim.kernel_launches"]["value"] == spans
