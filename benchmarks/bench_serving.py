"""Serving-capacity benchmark (`repro serve`).

Benchmarks the deterministic serving simulation — seeded open-loop
arrivals batched into shared PIM kernel launches — and appends one
``metrics.jsonl`` record (run id, git SHA, QPS and tail-latency
gauges) so serving capacity trends ride the same longitudinal tooling
as the figure regenerations.
"""

import json

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve import RequestClass, ServeSpec, simulate

_SPEC = ServeSpec(
    classes=(
        RequestClass(
            workload="vec_add", security_bits=109, rate_qps=2000.0
        ),
    ),
    duration_s=0.25,
    seed=0,
)


def _point_gauges(registry, report, energy=None) -> None:
    """Publish one serving report as gauges on ``registry``."""
    latency = report["latency"]
    burns = [o["burn_rate"] for o in report["objectives"]]
    energy = energy or {}
    for name, value in (
        ("serve.qps_completed", report["qps_completed"]),
        ("serve.completed", float(report["completed"])),
        ("serve.rejected", float(report["rejected"])),
        ("serve.p50_ms", latency["p50_ms"]),
        ("serve.p99_ms", latency["p99_ms"]),
        ("serve.p999_ms", latency["p999_ms"]),
        ("serve.max_burn_rate", max(burns) if burns else 0.0),
        ("energy.joules.total", energy.get("total_j")),
        ("energy.watts_avg", energy.get("avg_watts")),
        ("energy.joules_per_request", energy.get("j_per_request")),
        ("movement.bytes.total", energy.get("movement_bytes")),
    ):
        if value is not None:
            registry.gauge(name).set(float(value))


def test_bench_serving_point(benchmark, _metrics_log, _run_identity):
    registry = MetricsRegistry()
    with use_registry(registry):
        result = benchmark.pedantic(
            simulate, args=(_SPEC,), iterations=1, rounds=3
        )

    report = result.reports[_SPEC.classes[0].key]
    # Modelled-time invariants: every arrival is served, in order,
    # with identical results on every benchmark round (seeded clock).
    assert report["completed"] == len(result.timelines)
    assert report["rejected"] == 0

    _point_gauges(registry, report, energy=result.doc.get("energy"))
    with open(_metrics_log, "a") as handle:
        handle.write(
            json.dumps(
                {
                    "run_id": _run_identity["run_id"],
                    "timestamp": _run_identity["created_at"],
                    "git_sha": _run_identity["git_sha"],
                    "experiment": "serving",
                    "metrics": registry.snapshot(),
                }
            )
            + "\n"
        )


def test_bench_serving_degraded_fleet(benchmark):
    spec = ServeSpec(
        classes=_SPEC.classes,
        duration_s=_SPEC.duration_s,
        seed=_SPEC.seed,
        healthy=0.8,
    )
    result = benchmark.pedantic(
        simulate, args=(spec,), iterations=1, rounds=3
    )
    report = result.reports[spec.classes[0].key]
    assert report["completed"] == len(result.timelines)
