"""The serving point against the serial reference scheduler.

``simulate`` is the one-shard case of the sharded serving loop. The
serial path it replaced — admission, ``price_launch`` on the whole
fleet under the healthy-fraction fault plan, and
``BatchScheduler.schedule`` on one device timeline — is rebuilt here as
the oracle, and every observable of the point must match it exactly.
Admission is rebuilt too, one guard check per arrival over arrival
times summed one ``interarrival`` at a time, so the production path's
whole-class admission and streamed draws are checked against it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.registry import get_backend
from repro.core.params import BFVParameters
from repro.core.planner import HeadroomGuard, plan_budget
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.slo import VERDICT_SLO_BREACH, VERDICT_SLO_OK, SLOTracker
from repro.pim.config import UPMEMConfig
from repro.pim.faults import plan_for_healthy_fraction, use_fault_plan
from repro.serve.arrivals import OpenLoopArrivals
from repro.serve.scheduler import BatchScheduler
from repro.serve.service import (
    RequestClass,
    ServeSpec,
    price_launch,
    simulate,
)
from repro.workloads.registry import PAPER_WORKLOADS

#: (workload, security bits) pairs a class is drawn from. At the default
#: 2-bit margin vec_mul@54 is rejected (its planned budget is negative);
#: at 50 bits vec_mul@109 and mean@54 are rejected too.
_CLASS_KEYS = (
    ("vec_add", 27),
    ("vec_add", 54),
    ("vec_add", 109),
    ("vec_mul", 54),
    ("vec_mul", 109),
    ("mean", 54),
    ("mean", 109),
)

_LAUNCH_FIELDS = (
    "index",
    "class_key",
    "batch_size",
    "ops",
    "seal_s",
    "service_start_s",
    "complete_s",
    "service_seconds",
    "launch_s",
    "kernel_s",
    "fault_s",
    "transfer_s",
    "bound",
    "dpus_used",
)


@st.composite
def _specs(draw) -> ServeSpec:
    keys = draw(
        st.lists(
            st.sampled_from(_CLASS_KEYS), min_size=1, max_size=3, unique=True
        )
    )
    classes = tuple(
        RequestClass(
            workload=workload,
            security_bits=bits,
            rate_qps=draw(st.sampled_from((500.0, 4000.0, 30000.0))),
            ops_per_request=draw(st.sampled_from((16, 64))),
            priority=draw(st.integers(0, 2)),
        )
        for workload, bits in keys
    )
    return ServeSpec(
        classes=classes,
        duration_s=0.02,
        seed=draw(st.sampled_from((0, 1, 7))),
        healthy=draw(st.sampled_from((1.0, 0.9, 0.8, 0.5))),
        max_batch=draw(st.sampled_from((8, 64))),
        margin_bits=draw(st.sampled_from((2.0, 50.0))),
    )


#: Counter name prefixes admission writes.
_ADMISSION_COUNTERS = (
    "serve.requests.",
    "serve.rejected.",
    "noise.headroom_violations",
)


@dataclass(frozen=True)
class _Stamp:
    pred_bits: float


def _admission_counters(registry: MetricsRegistry) -> dict:
    return {
        name: snapshot
        for name, snapshot in registry.snapshot().items()
        if name.startswith(_ADMISSION_COUNTERS)
    }


def _reference_arrivals(cls: RequestClass, spec: ServeSpec) -> list:
    """Arrival times summed one per-index ``interarrival`` at a time."""
    source = OpenLoopArrivals(cls.key, cls.rate_qps, seed=spec.seed)
    times = []
    t = 0.0
    index = 0
    while True:
        t += source.interarrival(index)
        if t >= spec.duration_s:
            return times
        times.append(t)
        index += 1


def _reference_admission(
    spec: ServeSpec, trackers: dict, registry: MetricsRegistry
) -> dict:
    """Per-arrival admission: every arrival is put to the guard."""
    guard = HeadroomGuard(margin_bits=spec.margin_bits)
    class_arrivals = {}
    for cls in spec.classes:
        params = BFVParameters.security_level(cls.security_bits)
        circuit = PAPER_WORKLOADS[cls.workload].circuit(cls.ops_per_request)
        stamp = _Stamp(pred_bits=plan_budget(params, circuit).remaining_bits)
        admitted = []
        for t in _reference_arrivals(cls, spec):
            guard.check(f"serve.admit.{cls.key}", stamp, params)
            if stamp.pred_bits < spec.margin_bits:
                trackers[cls.key].reject()
                registry.counter(f"serve.rejected.{cls.key}").inc()
            else:
                admitted.append(t)
                registry.counter(f"serve.requests.{cls.key}").inc()
        class_arrivals[cls.key] = admitted
    return class_arrivals


def _simulate(spec: ServeSpec):
    """``simulate`` with its metrics on a private registry."""
    with use_registry(MetricsRegistry()) as registry:
        result = simulate(spec)
    return result, _admission_counters(registry)


def _reference(spec: ServeSpec) -> dict:
    """The serial single-device serving point, built from its parts."""
    config = UPMEMConfig()
    plan = plan_for_healthy_fraction(spec.healthy, spec.seed, config)
    trackers = {c.key: SLOTracker(spec.objectives) for c in spec.classes}
    with use_registry(MetricsRegistry()) as registry:
        class_arrivals = _reference_admission(spec, trackers, registry)
    backend = get_backend("pim")
    by_key = {c.key: c for c in spec.classes}
    priced: dict = {}

    def pricer(class_key, batch_size):
        if (class_key, batch_size) not in priced:
            priced[class_key, batch_size] = price_launch(
                backend, by_key[class_key], batch_size
            )
        return priced[class_key, batch_size]

    scheduler = BatchScheduler(
        max_batch=spec.max_batch, max_wait_s=spec.max_wait_s
    )
    with use_fault_plan(plan):
        timelines, launches = scheduler.schedule(class_arrivals, pricer)
    for timeline in timelines:
        trackers[timeline.class_key].observe(timeline.latency_s)

    energy_j = 0.0
    movement = 0
    for launch in launches:
        detail = pricer(launch.class_key, launch.batch_size).detail
        energy_j += float(detail.get("energy_j", 0.0))
        movement += int(detail.get("movement_bytes", 0))
    busy_s = sum(l.complete_s - l.service_start_s for l in launches)
    horizon = max([spec.duration_s] + [l.complete_s for l in launches])
    reports = {
        key: tracker.report(duration_s=spec.duration_s)
        for key, tracker in trackers.items()
    }
    completed = sum(r["completed"] for r in reports.values())
    breached = any(
        r["verdict"] == VERDICT_SLO_BREACH for r in reports.values()
    )
    return {
        "admission": _admission_counters(registry),
        "timelines": timelines,
        "launches": launches,
        "reports": reports,
        "effective_dpus": plan.effective_dpus(config),
        "device": {
            "launches": len(launches),
            "busy_s": busy_s,
            "horizon_s": horizon,
            "utilization": busy_s / horizon if horizon > 0 else 0.0,
        },
        "energy": {
            "total_j": energy_j,
            "avg_watts": energy_j / horizon if horizon > 0 else 0.0,
            "j_per_request": energy_j / completed if completed else None,
            "movement_bytes": movement,
        },
        "verdict": VERDICT_SLO_BREACH if breached else VERDICT_SLO_OK,
    }


class TestSimulateMatchesTheSerialReference:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec=_specs())
    def test_every_observable_is_bit_identical(self, spec):
        expected = _reference(spec)
        result, admission = _simulate(spec)

        assert admission == expected["admission"]
        assert [asdict(t) for t in result.timelines] == [
            asdict(t) for t in expected["timelines"]
        ]
        assert len(result.launches) == len(expected["launches"])
        for got, want in zip(result.launches, expected["launches"]):
            for name in _LAUNCH_FIELDS:
                assert getattr(got, name) == getattr(want, name), name
        # Launch entries keep every key and value; they may only gain
        # the sharded ones.
        for got, want in zip(result.doc["launches"], expected["launches"]):
            want = want.to_dict()
            assert {key: got[key] for key in want} == want
        assert result.reports == expected["reports"]
        assert result.doc["classes"] == expected["reports"]
        for section in ("effective_dpus", "device", "energy", "verdict"):
            assert result.doc[section] == expected[section], section

    def test_the_drawn_margins_reject_a_class(self):
        """The 50-bit margin setting does exercise rejection."""
        spec = ServeSpec(
            classes=(
                RequestClass(workload="vec_add", security_bits=109),
                RequestClass(workload="vec_mul", security_bits=109),
            ),
            duration_s=0.005,
            margin_bits=50.0,
        )
        result, admission = _simulate(spec)
        reports = result.reports
        assert reports["vec_add@109"]["rejected"] == 0
        assert reports["vec_add@109"]["completed"] > 0
        assert reports["vec_mul@109"]["completed"] == 0
        assert reports["vec_mul@109"]["rejected"] > 0

        # Per-arrival counters, guard violations included, match the
        # oracle's one-check-per-arrival admission.
        expected = _reference(spec)
        assert admission == expected["admission"]
        assert result.reports == expected["reports"]
        rejected = reports["vec_mul@109"]["rejected"]
        assert admission["serve.rejected.vec_mul@109"]["value"] == rejected
        assert admission["noise.headroom_violations"]["value"] == rejected
        assert admission["serve.requests.vec_add@109"]["value"] == (
            reports["vec_add@109"]["completed"]
        )
        assert "serve.requests.vec_mul@109" not in admission
        assert "serve.rejected.vec_add@109" not in admission


class TestAdmissionCounters:
    def test_an_empty_stream_registers_no_counter(self):
        """A window that ends before the first arrival admits nothing
        and leaves no ``serve.requests`` counter behind."""
        spec = ServeSpec(
            classes=(RequestClass(rate_qps=1.0),), duration_s=1e-9
        )
        result, admission = _simulate(spec)
        assert admission == _reference(spec)["admission"] == {}
        assert result.reports[spec.classes[0].key]["completed"] == 0


class TestDeadFleet:
    def test_every_request_is_rejected(self):
        """A healthy fraction that disables every DPU leaves the one
        shard dead: each batch fails and its requests are rejected."""
        spec = ServeSpec(
            classes=(RequestClass(rate_qps=500.0),),
            duration_s=0.02,
            healthy=1e-4,
        )
        result = simulate(spec)
        report = result.reports[spec.classes[0].key]
        assert result.doc["effective_dpus"] == 0
        assert result.launches == []
        assert report["completed"] == 0
        assert report["rejected"] > 0
        assert result.doc["verdict"] == VERDICT_SLO_BREACH
