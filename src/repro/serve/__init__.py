"""``repro.serve`` — a deterministic batched serving model over PIM.

The paper's small-workload story is dominated by fixed kernel-launch
overhead, which makes batching *the* deployment question: a realistic
multi-user service packs many users' ciphertext operations into shared
PIM kernel launches. This package turns that question into a
computable, regression-gated model (ROADMAP item 2):

* :mod:`repro.serve.arrivals` — a seeded open-loop Poisson arrival
  process on the **modelled clock** (SHA-256 unit draws, no wall-clock
  or :mod:`random` state, exactly the :mod:`repro.pim.faults`
  discipline);
* :mod:`repro.serve.scheduler` — per-class batch formation (seal on
  ``max_batch`` or a ``max_wait`` timer) feeding a serial device
  timeline priced by the *exact* experiment pricing path, so the
  zero-fault point stays bit-identical to ``baselines/perf.json``;
  every request carries a :class:`~repro.serve.scheduler.RequestTimeline`
  decomposing modelled latency into queue → dispatch → launch →
  kernel → transfer phases;
* :mod:`repro.serve.service` — :class:`~repro.serve.service.ServeSpec`,
  the single-point simulation, the capacity sweep over QPS × security
  level × fleet health (resumable through the PR-6 run registry), the
  sweep document persistence, and the Chrome-trace export (one lane
  per request class).

Fault tolerance rides on top (PR 10):

* :mod:`repro.serve.shard` — rank-aligned fleet partitioning with
  deterministic ciphertext→shard placement and per-shard pricing
  (single shard + zero faults stays bit-identical to
  ``baselines/perf.json``);
* :mod:`repro.serve.resilience` — health-aware routing, per-shard
  circuit breakers, retry budgets, hedged dispatch, SLO-coupled load
  shedding, and the RESILIENCE gate
  (``baselines/resilience.json``, ``repro resil record|check|html``).

SLO accounting (digests, burn rates, verdicts) lives in
:mod:`repro.obs.slo`; the CLI surface is ``repro serve run|sweep|html``
and the capacity dashboard is
:func:`repro.obs.htmlreport.render_serve_report`. See
``docs/observability.md`` ("Serving & SLOs") and
``docs/robustness.md`` ("Sharded serving & resilience").
"""

from repro.serve.arrivals import OpenLoopArrivals
from repro.serve.scheduler import (
    BatchLaunch,
    BatchScheduler,
    RequestTimeline,
)
from repro.serve.resilience import (
    BreakerSpec,
    CircuitBreaker,
    ResilienceResult,
    ResilienceSpec,
    capture_resilience_run,
    check_resilience_runs,
    degraded_plan,
    read_resilience_run,
    render_resilience_text,
    simulate_resilient,
)
from repro.serve.service import (
    DEFAULT_HEALTHY_GRID,
    DEFAULT_QPS_GRID,
    RequestClass,
    ServeSpec,
    check_serving_baseline,
    emit_request_spans,
    render_point_text,
    render_sweep_text,
    simulate,
    sweep_capacity,
    timelines_to_chrome_trace,
)
from repro.serve.shard import (
    ShardedPricer,
    ShardLayout,
    check_sharded_baseline,
    home_shard,
    make_layout,
)

__all__ = [
    "OpenLoopArrivals",
    "RequestTimeline",
    "BatchLaunch",
    "BatchScheduler",
    "RequestClass",
    "ServeSpec",
    "DEFAULT_HEALTHY_GRID",
    "DEFAULT_QPS_GRID",
    "simulate",
    "sweep_capacity",
    "check_serving_baseline",
    "emit_request_spans",
    "render_point_text",
    "render_sweep_text",
    "timelines_to_chrome_trace",
    "ShardLayout",
    "make_layout",
    "home_shard",
    "ShardedPricer",
    "check_sharded_baseline",
    "BreakerSpec",
    "CircuitBreaker",
    "ResilienceSpec",
    "ResilienceResult",
    "simulate_resilient",
    "degraded_plan",
    "capture_resilience_run",
    "check_resilience_runs",
    "render_resilience_text",
    "read_resilience_run",
]
