"""Fault-tolerant sharded serving: health-aware routing, breakers,
hedging, shedding — and the RESILIENCE gate.

The tentpole on top of :mod:`repro.serve.shard`: a sharded serving
point (:func:`simulate_resilient`) where the fleet is K sub-fleets with
independent modelled timelines and faults degrade *capacity* instead of
every request:

* **health-aware placement** — requests hash to a home shard; batches
  whose home is dead (no healthy DPUs) or breaker-blocked route to the
  healthiest usable shard, deterministically;
* **circuit breakers** — one per shard, the classic
  closed → open → half-open machine on consecutive
  :class:`~repro.errors.PermanentDeviceError` dispatches, with the
  cooldown priced in **modelled** time;
* **retry budgets** — a failed dispatch redispatches to the next-best
  shard while the budget lasts; the failure's modelled cost (wasted
  launch attempts plus the policy's capped backoffs) still occupies
  the failing shard;
* **hedged dispatch** — a batch whose queue wait exceeds
  ``hedge_after_s`` is duplicated on the healthiest idle shard; the
  first completion wins and the loser's busy seconds are accounted as
  hedge overhead (both copies priced through the untouched
  :class:`~repro.pim.runtime.PIMRuntime`);
* **SLO-coupled shedding** — when the running burn rate crosses
  ``shed_burn_threshold``, sealed batches of the lowest-priority
  classes are shed (counted as rejections) to protect the rest.

Everything is seeded and bit-reproducible. The loop here is the only
serving loop: :func:`repro.serve.service.simulate` is its one-shard
case with no hedging and no shedding, and the single-shard pricer
reproduces ``baselines/perf.json`` bit-for-bit
(:func:`repro.serve.service.check_serving_baseline`), so MODEL-DRIFT
stays green.

The **RESILIENCE gate** locks degraded-fleet SLO attainment per
(fault seed × shard count × QPS) point in ``baselines/resilience.json``
(``repro resil record/check/html``): :func:`capture_resilience_run`
sweeps healthy and one-dead-shard fleets across shard counts, records
per-point attainment/latency/breaker/hedge scalars, and
:func:`check_resilience_runs` demands exact equality — any difference
is ``RESILIENCE-DRIFT``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError, PermanentDeviceError
from repro.obs import baseline as bl
from repro.obs import gate, htmlreport
from repro.obs.metrics import get_registry
from repro.obs.runident import run_identity
from repro.obs.slo import (
    VERDICT_SLO_BREACH,
    VERDICT_SLO_OK,
    SLOTracker,
)
from repro.pim.config import UPMEMConfig
from repro.pim.faults import (
    DEFAULT_RETRY_POLICY,
    FaultPlan,
    plan_for_healthy_fraction,
)
from repro.serve.scheduler import BatchScheduler, ServedBatches
from repro.serve.service import (
    SCHEMA_VERSION,
    RequestClass,
    ServeSpec,
    _admitted_arrivals,
    check_serving_baseline,
)
from repro.serve.shard import ShardedPricer, home_shards, make_layout

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "LEDGER",
    "GATE",
    "DEFAULT_RESIL_BASELINE_PATH",
    "DEFAULT_RESIL_HISTORY_PATH",
    "DEFAULT_RESIL_SEEDS",
    "DEFAULT_SHARD_COUNTS",
    "DEFAULT_RESIL_QPS",
    "BreakerSpec",
    "CircuitBreaker",
    "ResilienceSpec",
    "ShardLaunch",
    "ResilienceResult",
    "simulate_resilient",
    "degraded_plan",
    "capture_resilience_run",
    "check_resilience_runs",
    "render_resilience_text",
    "read_resilience_run",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


#: Where ``repro resil record`` writes the committed gate baseline.
DEFAULT_RESIL_BASELINE_PATH = "baselines/resilience.json"

#: Where every recorded resilience run is appended, one JSON per line.
DEFAULT_RESIL_HISTORY_PATH = "baselines/resilience-history.jsonl"

#: Fault seeds swept by the default RESILIENCE gate grid (matches the
#: CI chaos matrix).
DEFAULT_RESIL_SEEDS = (1, 7)

#: Shard counts swept by default: unsharded vs the reference partition.
DEFAULT_SHARD_COUNTS = (1, 4)

#: Offered-QPS grid swept by default (requests/s). The top of the grid
#: straddles the degraded-fleet saturation knee at vec_add@54: under
#: one dead shard's ranks the unsharded model breaches p99 at 144k
#: (every request pays the global slowdown) while the 4-shard fleet
#: routes around the casualty and sustains 144k, hedging stragglers
#: at 176k.
DEFAULT_RESIL_QPS = (2000.0, 96000.0, 144000.0, 176000.0)


@dataclass(frozen=True)
class BreakerSpec:
    """Parameters of one shard's circuit breaker."""

    #: Consecutive failed dispatches that trip the breaker open.
    failure_threshold: int = 3

    #: Modelled seconds the breaker stays open before admitting one
    #: half-open trial dispatch.
    cooldown_s: float = 25e-3

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ParameterError(
                f"failure_threshold must be >= 1: {self.failure_threshold}"
            )
        if self.cooldown_s < 0:
            raise ParameterError(
                f"cooldown_s must be non-negative: {self.cooldown_s}"
            )

    def to_dict(self) -> dict:
        return {
            "failure_threshold": self.failure_threshold,
            "cooldown_s": self.cooldown_s,
        }


class CircuitBreaker:
    """Closed → open → half-open, all transitions in modelled time.

    Closed counts consecutive failures; at ``failure_threshold`` it
    trips open for ``cooldown_s`` modelled seconds. An open breaker
    whose cooldown has elapsed admits dispatches again (the half-open
    trial); the first success closes it, another failure re-trips it
    for a fresh cooldown. Dispatch is serial per decision point, so the
    single-trial discipline needs no extra bookkeeping.
    """

    def __init__(self, spec: BreakerSpec):
        self.spec = spec
        self.opened_count = 0
        self._consecutive = 0
        self._open = False
        self._open_until = 0.0

    def state(self, now: float) -> str:
        if not self._open:
            return BREAKER_CLOSED
        return BREAKER_HALF_OPEN if now >= self._open_until else BREAKER_OPEN

    def allows(self, now: float) -> bool:
        """Whether a dispatch may target this shard at modelled ``now``."""
        return not self._open or now >= self._open_until

    def record_success(self, now: float) -> None:
        self._consecutive = 0
        self._open = False

    def record_failure(self, now: float) -> None:
        self._consecutive += 1
        if self._open or self._consecutive >= self.spec.failure_threshold:
            self._open = True
            self._open_until = now + self.spec.cooldown_s
            self.opened_count += 1


@dataclass(frozen=True)
class ResilienceSpec:
    """One sharded resilient serving point, fully specified."""

    serve: ServeSpec = ServeSpec()
    n_shards: int = 4
    breaker: BreakerSpec = BreakerSpec()

    #: Redispatches allowed per batch after its first target fails
    #: (the first dispatch is free; 0 = fail fast).
    retry_budget: int = 1

    #: Queue wait (seal -> service start) beyond which the batch is
    #: hedged on the healthiest other usable shard. ``None`` disables
    #: hedging.
    hedge_after_s: float | None = None

    #: Running burn rate beyond which sealed batches of the
    #: lowest-priority classes are shed. ``None`` disables shedding.
    shed_burn_threshold: float | None = None

    #: Explicit fault plan; ``None`` derives one from
    #: ``serve.healthy`` exactly like the unsharded point.
    plan: FaultPlan | None = None

    def __post_init__(self):
        if self.n_shards < 1:
            raise ParameterError(
                f"n_shards must be >= 1: {self.n_shards}"
            )
        if self.retry_budget < 0:
            raise ParameterError(
                f"retry_budget must be non-negative: {self.retry_budget}"
            )
        if self.hedge_after_s is not None and self.hedge_after_s < 0:
            raise ParameterError(
                f"hedge_after_s must be non-negative: {self.hedge_after_s}"
            )
        if (
            self.shed_burn_threshold is not None
            and self.shed_burn_threshold <= 0
        ):
            raise ParameterError(
                "shed_burn_threshold must be positive: "
                f"{self.shed_burn_threshold}"
            )

    def to_dict(self) -> dict:
        return {
            "serve": self.serve.to_dict(),
            "n_shards": self.n_shards,
            "breaker": self.breaker.to_dict(),
            "retry_budget": self.retry_budget,
            "hedge_after_s": self.hedge_after_s,
            "shed_burn_threshold": self.shed_burn_threshold,
            "plan": _plan_spec(self.plan) if self.plan is not None else None,
        }


def _plan_spec(plan: FaultPlan) -> dict:
    """The JSON-able spec fields of a fault plan (no draw state)."""
    return {
        "seed": plan.seed,
        "dpu_fail_rate": plan.dpu_fail_rate,
        "transient_rate": plan.transient_rate,
        "corruption_rate": plan.corruption_rate,
        "stuck_rate": plan.stuck_rate,
        "disabled_dpus": list(plan.disabled_dpus),
        "disabled_ranks": list(plan.disabled_ranks),
        "disable_dpus": plan.disable_dpus,
        "launch_script": list(plan.launch_script),
        "transfer_script": list(plan.transfer_script),
    }


@dataclass
class ShardLaunch:
    """One shared launch on one shard (hedge copies included)."""

    index: int
    class_key: str
    shard: int
    home_shard: int
    batch_size: int
    ops: int
    seal_s: float
    service_start_s: float
    complete_s: float
    service_seconds: float
    launch_s: float
    kernel_s: float
    fault_s: float
    transfer_s: float
    bound: str
    dpus_used: int
    hedged: bool = False
    hedge_winner: bool = False

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "class": self.class_key,
            "shard": self.shard,
            "home_shard": self.home_shard,
            "batch_size": self.batch_size,
            "ops": self.ops,
            "seal_s": self.seal_s,
            "service_start_s": self.service_start_s,
            "complete_s": self.complete_s,
            "service_seconds": self.service_seconds,
            "launch_s": self.launch_s,
            "kernel_s": self.kernel_s,
            "fault_s": self.fault_s,
            "transfer_s": self.transfer_s,
            "bound": self.bound,
            "dpus_used": self.dpus_used,
            "hedged": self.hedged,
            "hedge_winner": self.hedge_winner,
        }


@dataclass
class ResilienceResult:
    """Everything one resilient serving point produced."""

    spec: ResilienceSpec
    layout: object
    launches: list
    reports: dict
    doc: dict
    batches: ServedBatches = field(repr=False, compare=False)

    @property
    def timelines(self) -> list:
        """Every completed request's timeline, built on first read."""
        return self.batches.timelines


def _running_burn(trackers: dict) -> float:
    """Worst running burn rate across classes and objectives."""
    worst = 0.0
    for tracker in trackers.values():
        completed = tracker.digest.count
        if not completed:
            continue
        for objective, bad in zip(tracker.objectives, tracker.bad):
            burn = (bad / completed) / objective.allowed_bad_fraction
            worst = max(worst, burn)
    return worst


def _good_requests(tracker: SLOTracker) -> int:
    """Completed requests that met every objective, i.e. the tightest."""
    objectives = tracker.objectives
    if not objectives:
        return tracker.digest.count
    tightest = min(
        range(len(objectives)), key=lambda i: objectives[i].threshold_s
    )
    return tracker.digest.count - tracker.bad[tightest]


def _failure_cost_s(policy, config: UPMEMConfig) -> float:
    """Modelled seconds one exhausted dispatch wastes on its shard.

    The runtime raises :class:`~repro.errors.PermanentDeviceError`
    after ``max_attempts`` consecutive failed launches; the failing
    shard still paid every launch overhead plus the policy's (capped)
    backoff between attempts.
    """
    cost = policy.max_attempts * config.launch_overhead_s
    for failures in range(1, policy.max_attempts):
        cost += policy.backoff_seconds(failures)
    return cost


def _seal_batches(spec: ServeSpec, layout, class_arrivals: dict) -> list:
    """Placement and batch formation, in device order.

    Every admitted request goes to its home shard, and batches form per
    (class, home shard): each shard runs its own formation timer.
    Returns ``(seal, class key, home, batch index, members)`` per
    sealed batch, sorted by the first four; ``members`` is a view of
    the batch's indices into ``class_arrivals[class key]``.
    """
    scheduler = BatchScheduler(
        max_batch=spec.max_batch, max_wait_s=spec.max_wait_s
    )
    sealed = []
    for class_key in sorted(class_arrivals):
        arrivals = class_arrivals[class_key]
        homes = home_shards(layout, spec.seed, class_key, len(arrivals))
        for home in range(layout.n_shards):
            owners = np.flatnonzero(homes == home)
            for batch_index, (seal, members) in enumerate(
                scheduler.form_batches(arrivals[owners])
            ):
                sealed.append(
                    (
                        seal,
                        class_key,
                        home,
                        batch_index,
                        owners[members.start : members.stop],
                    )
                )
    sealed.sort(key=lambda item: item[:4])
    return sealed


def _account(
    pending: list, class_arrivals: dict, trackers: dict, registry
) -> None:
    """Charge served requests to the SLO trackers and the
    ``serve.latency_s`` histogram, then empty ``pending``.

    ``pending`` holds ``(class key, complete, members)`` per served
    batch, in service order. Each request's latency is its batch's
    completion minus its arrival (:attr:`RequestTimeline.latency_s`).
    The latencies are computed as one array; each tracker observes its
    class's share and the histogram all of them, both in service order,
    so the state is exactly that of observing batch by batch.
    """
    if not pending:
        return
    keys = [key for key, _, _ in pending]
    sizes = [len(members) for _, _, members in pending]
    completes = np.repeat([complete for _, complete, _ in pending], sizes)
    members = np.concatenate([members for _, _, members in pending])
    classes = sorted(set(keys))
    if len(classes) == 1:
        (key,) = classes
        latencies = completes - class_arrivals[key][members]
        trackers[key].observe_many(latencies)
    else:
        owner = np.repeat([classes.index(key) for key in keys], sizes)
        latencies = np.empty(len(members))
        for index, key in enumerate(classes):
            mine = owner == index
            latencies[mine] = (
                completes[mine] - class_arrivals[key][members[mine]]
            )
            trackers[key].observe_many(latencies[mine])
    registry.histogram("serve.latency_s").observe_many(latencies)
    pending.clear()


class _Fleet:
    """The shards' modelled state over one serving point.

    Per shard: its healthy DPUs, when it is next free, its busy seconds,
    its launch count and its circuit breaker. Over the point: the
    dispatch event counts and every launch's energy and data movement.
    """

    def __init__(
        self, healthy: list, breaker: BreakerSpec, failure_cost: float
    ):
        n_shards = len(healthy)
        self.healthy = healthy
        self.free = [0.0] * n_shards
        self.busy = [0.0] * n_shards
        self.launches = [0] * n_shards
        self.breakers = [CircuitBreaker(breaker) for _ in range(n_shards)]
        self.failure_cost = failure_cost
        self.failures = 0
        self.routed = 0
        self.redispatches = 0
        self.hedges_issued = 0
        self.hedges_won = 0
        self.hedge_overhead_s = 0.0
        self.energy_j = 0.0
        self.movement_bytes = 0

    def usable(self, shard: int, now: float) -> bool:
        return self.healthy[shard] > 0 and self.breakers[shard].allows(now)

    def best(self, key, now: float, excluded) -> int | None:
        """The usable shard outside ``excluded`` that minimizes ``key``."""
        candidates = [
            shard
            for shard in range(len(self.healthy))
            if shard not in excluded and self.usable(shard, now)
        ]
        return min(candidates, key=key) if candidates else None

    def charge_failure(self, shard: int, now: float) -> None:
        """Occupy a shard with one exhausted dispatch's cost."""
        start = max(now, self.free[shard])
        self.free[shard] = start + self.failure_cost
        self.busy[shard] += self.failure_cost
        self.breakers[shard].record_failure(start + self.failure_cost)
        self.failures += 1


def _dispatch(
    fleet: _Fleet,
    pricer: ShardedPricer,
    rspec: ResilienceSpec,
    seal: float,
    class_key: str,
    home: int,
    batch_size: int,
) -> tuple:
    """Dispatch one sealed batch and occupy the shards that serve it.

    The home shard goes first when it is usable. Otherwise, and after
    each failed try, the healthiest usable untried shard goes
    (earliest-free, then lowest index, break ties). A failed try costs
    its shard (:meth:`_Fleet.charge_failure`) and spends one
    redispatch of the retry budget. A batch that would wait more than
    ``hedge_after_s`` is copied onto the earliest-free other usable
    shard (healthiest, then lowest index, break ties). Every copy
    occupies its shard for its full priced duration: hedging buys
    latency with capacity, and the loser's busy time is the price.

    Returns ``(copies, winner)``: ``(shard, start, complete, priced)``
    per copy, the first target first, and the index of the copy that
    completes first (earliest, then lowest shard). ``copies`` is empty
    when every try failed.
    """
    healthy = fleet.healthy
    free = fleet.free
    tried: set = set()
    budget = rspec.retry_budget
    while True:
        if home not in tried and fleet.usable(home, seal):
            target = home
        else:
            target = fleet.best(
                lambda s: (-healthy[s], free[s], s), seal, tried | {home}
            )
            if target is None:
                return [], 0
        try:
            priced = pricer.price(target, class_key, batch_size)
        except PermanentDeviceError:
            tried.add(target)
            fleet.charge_failure(target, seal)
            fleet.redispatches += 1
            if budget == 0:
                return [], 0
            budget -= 1
            continue
        break
    if target != home:
        fleet.routed += 1

    start = max(seal, free[target])
    copies = [(target, start, priced)]
    hedge_after_s = rspec.hedge_after_s
    if hedge_after_s is not None and (start - seal) > hedge_after_s:
        alt = fleet.best(
            lambda s: (free[s], -healthy[s], s), seal, tried | {target}
        )
        if alt is not None:
            try:
                alt_priced = pricer.price(alt, class_key, batch_size)
            except PermanentDeviceError:
                fleet.charge_failure(alt, seal)
            else:
                copies.append((alt, max(seal, free[alt]), alt_priced))
                fleet.hedges_issued += 1

    finished = []
    for shard, start_s, priced in copies:
        complete = start_s + priced.seconds + priced.transfer_s
        free[shard] = complete
        fleet.busy[shard] += complete - start_s
        fleet.launches[shard] += 1
        fleet.breakers[shard].record_success(complete)
        fleet.energy_j += priced.energy_j
        fleet.movement_bytes += priced.movement_bytes
        finished.append((shard, start_s, complete, priced))
    if len(finished) == 1:
        return finished, 0
    winner = min((0, 1), key=lambda i: (finished[i][2], finished[i][0]))
    if winner:
        fleet.hedges_won += 1
    loser = finished[1 - winner]
    fleet.hedge_overhead_s += loser[2] - loser[1]
    return finished, winner


def _shards_doc(layout, fleet: _Fleet, horizon: float) -> list:
    """The per-shard section of the ``resil-point`` document."""
    shards = []
    for shard in range(layout.n_shards):
        start, stop = layout.span_of(shard)
        busy = fleet.busy[shard]
        breaker = fleet.breakers[shard]
        shards.append(
            {
                "shard": shard,
                "span": [start, stop],
                "ranks": list(layout.ranks_of(shard)),
                "total_dpus": stop - start,
                "healthy_dpus": fleet.healthy[shard],
                "launches": fleet.launches[shard],
                "busy_s": busy,
                "utilization": busy / horizon if horizon > 0 else 0.0,
                "breaker": {
                    "opened": breaker.opened_count,
                    "final_state": breaker.state(horizon),
                },
            }
        )
    return shards


def _serve(rspec: ResilienceSpec) -> ResilienceResult:
    """The serving loop: admission, placement, batching, dispatch.

    The one loop behind both :func:`simulate_resilient` and
    :func:`repro.serve.service.simulate` (its one-shard, no-hedge,
    no-shed case), so the two can never diverge. The ``resil-point``
    document comes back without its run identity.
    """
    spec = rspec.serve
    config = UPMEMConfig()
    layout = make_layout(rspec.n_shards, config)
    if rspec.plan is not None:
        plan = rspec.plan
    else:
        plan = plan_for_healthy_fraction(spec.healthy, spec.seed, config)
    registry = get_registry()
    trackers = {c.key: SLOTracker(spec.objectives) for c in spec.classes}
    class_arrivals = _admitted_arrivals(spec, trackers, registry)

    pricer = ShardedPricer(spec.classes, layout, plan, config)
    n_shards = layout.n_shards
    policy = pricer.retry_policy or DEFAULT_RETRY_POLICY
    fleet = _Fleet(
        [pricer.healthy_dpus(s) for s in range(n_shards)],
        rspec.breaker,
        _failure_cost_s(policy, config),
    )

    sealed = _seal_batches(spec, layout, class_arrivals)

    min_priority = min(c.priority for c in spec.classes)
    sheddable = {
        c.key for c in spec.classes if c.priority == min_priority
    }

    failed_batches = 0
    failed_requests = 0
    shed_batches = 0
    shed_by_class = {c.key: 0 for c in spec.classes}
    launches: list = []
    # (winning launch index, batch index, members) per served batch:
    # all a request timeline needs besides its arrival time.
    records: list = []
    # (class key, complete, members) per served batch not yet charged
    # to the trackers (see _account).
    pending: list = []

    for seal, class_key, home, batch_index, members in sealed:
        if rspec.shed_burn_threshold is not None and class_key in sheddable:
            # The burn rate must see every batch served so far.
            _account(pending, class_arrivals, trackers, registry)
            if _running_burn(trackers) > rspec.shed_burn_threshold:
                trackers[class_key].reject(len(members))
                shed_batches += 1
                shed_by_class[class_key] += len(members)
                registry.counter(f"serve.shed.{class_key}").inc(len(members))
                continue

        batch_size = len(members)
        copies, winner = _dispatch(
            fleet, pricer, rspec, seal, class_key, home, batch_size
        )
        if not copies:
            failed_batches += 1
            failed_requests += batch_size
            trackers[class_key].reject(batch_size)
            registry.counter(f"serve.failed.{class_key}").inc(batch_size)
            continue
        records.append((len(launches) + winner, batch_index, members))
        hedged = len(copies) > 1
        for copy, (shard, start, complete, priced) in enumerate(copies):
            launches.append(
                ShardLaunch(
                    len(launches),
                    class_key,
                    shard,
                    home,
                    batch_size,
                    priced.ops,
                    seal,
                    start,
                    complete,
                    priced.seconds,
                    priced.launch_s,
                    priced.kernel_s,
                    priced.fault_s,
                    priced.transfer_s,
                    priced.bound,
                    priced.dpus_used,
                    hedged,
                    hedged and copy == winner,
                )
            )
        pending.append((class_key, copies[winner][2], members))

    _account(pending, class_arrivals, trackers, registry)
    # Event counts are charged once per point; a counter with nothing
    # to count is never created, as with per-event increments.
    for name, count in (
        ("serve.shard.failures", fleet.failures),
        ("serve.redispatch", fleet.redispatches),
        ("serve.shard.routed", fleet.routed),
        ("serve.hedge.issued", fleet.hedges_issued),
        ("serve.hedge.won", fleet.hedges_won),
        ("serve.launches", len(launches)),
    ):
        if count:
            registry.counter(name).inc(count)
    for breaker in fleet.breakers:
        if breaker.opened_count:
            registry.counter("serve.breaker.opened").inc(
                breaker.opened_count
            )

    if launches:
        registry.histogram("serve.batch_size").observe_many(
            [launch.batch_size for launch in launches]
        )
        registry.counter("serve.energy_j").inc(fleet.energy_j)
        registry.counter("serve.movement_bytes").inc(fleet.movement_bytes)

    horizon = max(
        [spec.duration_s] + [launch.complete_s for launch in launches]
    )
    reports = {
        key: tracker.report(duration_s=spec.duration_s)
        for key, tracker in trackers.items()
    }
    breached = any(
        r["verdict"] == VERDICT_SLO_BREACH for r in reports.values()
    )
    completed = sum(r["completed"] for r in reports.values())
    rejected = sum(r["rejected"] for r in reports.values())
    offered = completed + rejected
    good = sum(_good_requests(tracker) for tracker in trackers.values())
    busy_s = sum(fleet.busy)

    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "resil-point",
        "spec": rspec.to_dict(),
        "n_dpus": config.n_dpus,
        "n_shards": n_shards,
        "layout": layout.to_dict(),
        "plan": _plan_spec(plan),
        "effective_dpus": sum(fleet.healthy),
    }
    doc["classes"] = {key: reports[key] for key in sorted(reports)}
    doc["shards"] = _shards_doc(layout, fleet, horizon)
    doc["resilience"] = {
        "routed_batches": fleet.routed,
        "redispatches": fleet.redispatches,
        "failed_batches": failed_batches,
        "failed_requests": failed_requests,
        "hedges_issued": fleet.hedges_issued,
        "hedges_won": fleet.hedges_won,
        "hedge_overhead_s": fleet.hedge_overhead_s,
        "shed_batches": shed_batches,
        "shed_by_class": {
            key: shed_by_class[key] for key in sorted(shed_by_class)
        },
        "breaker_opened": sum(b.opened_count for b in fleet.breakers),
        "attainment": good / offered if offered else None,
        "good_requests": good,
        "offered_requests": offered,
    }
    doc["device"] = {
        "launches": len(launches),
        "busy_s": busy_s,
        "horizon_s": horizon,
        "utilization": (
            busy_s / (horizon * n_shards) if horizon > 0 else 0.0
        ),
    }
    energy_j = fleet.energy_j
    doc["energy"] = {
        "total_j": energy_j,
        "avg_watts": energy_j / horizon if horizon > 0 else 0.0,
        "j_per_request": energy_j / completed if completed else None,
        "movement_bytes": fleet.movement_bytes,
    }
    doc["verdict"] = VERDICT_SLO_BREACH if breached else VERDICT_SLO_OK
    return ResilienceResult(
        spec=rspec,
        layout=layout,
        launches=launches,
        reports=reports,
        doc=doc,
        batches=ServedBatches(launches, records, class_arrivals),
    )


def simulate_resilient(rspec: ResilienceSpec) -> ResilienceResult:
    """Run one sharded resilient serving point in modelled time.

    Deterministic: the same spec yields byte-identical timelines and
    documents (modulo run identity). With one shard, no hedging and no
    shedding this is the plain serving point
    (:func:`repro.serve.service.simulate`), which runs the same loop.
    """
    result = _serve(rspec)
    result.doc.update(run_identity())
    return result


# -- the RESILIENCE gate -----------------------------------------------------


def degraded_plan(seed: int, shard_counts, config: UPMEMConfig) -> tuple:
    """The gate's one-dead-shard fault plan for a seed.

    The victim is a whole shard of the *reference* layout (the largest
    swept shard count), chosen by seed; its ranks are disabled. The
    same plan is applied at every shard count, so the unsharded model
    degrades globally while a matching sharded layout loses exactly one
    shard and routes around it. Returns ``(plan, victim_shard)``.
    """
    layout = make_layout(max(shard_counts), config)
    victim = seed % layout.n_shards
    return (
        FaultPlan(seed=seed, disabled_ranks=layout.ranks_of(victim)),
        victim,
    )


def _point_scalars(result: ResilienceResult) -> dict:
    """The deterministic per-point summary locked by the gate."""
    doc = result.doc
    resilience = doc["resilience"]
    reports = doc["classes"]
    completed = sum(r["completed"] for r in reports.values())
    rejected = sum(r["rejected"] for r in reports.values())
    burns = [
        o["burn_rate"]
        for r in reports.values()
        for o in r["objectives"]
    ]
    p99 = [
        r["latency"]["p99_ms"]
        for r in reports.values()
        if r["latency"]["p99_ms"] is not None
    ]
    return {
        "completed": completed,
        "rejected": rejected,
        "good": resilience["good_requests"],
        "attainment": resilience["attainment"],
        "p99_ms": max(p99) if p99 else None,
        "max_burn_rate": max(burns) if burns else 0.0,
        "routed_batches": resilience["routed_batches"],
        "redispatches": resilience["redispatches"],
        "failed_requests": resilience["failed_requests"],
        "hedges_issued": resilience["hedges_issued"],
        "hedges_won": resilience["hedges_won"],
        "hedge_overhead_ms": resilience["hedge_overhead_s"] * 1e3,
        "shed_requests": sum(resilience["shed_by_class"].values()),
        "breaker_opened": resilience["breaker_opened"],
        "verdict": doc["verdict"],
        "shards": [
            {
                "shard": s["shard"],
                "total_dpus": s["total_dpus"],
                "healthy_dpus": s["healthy_dpus"],
                "launches": s["launches"],
                "busy_ms": s["busy_s"] * 1e3,
                "breaker_opened": s["breaker"]["opened"],
            }
            for s in doc["shards"]
        ],
    }


def capture_resilience_run(
    workload: str = "vec_add",
    security_bits: int = 54,
    seeds=DEFAULT_RESIL_SEEDS,
    shard_counts=DEFAULT_SHARD_COUNTS,
    qps_grid=DEFAULT_RESIL_QPS,
    duration_s: float = 0.1,
    ops_per_request: int = 64,
    max_batch: int = 64,
    max_wait_s: float = 2e-3,
    breaker: BreakerSpec = BreakerSpec(),
    retry_budget: int = 1,
    hedge_after_s: float | None = 5e-3,
    shed_burn_threshold: float | None = None,
    baseline: dict | None = None,
    progress=None,
) -> dict:
    """Sweep the RESILIENCE grid and capture the gate document.

    For every (fault seed × shard count × QPS) point, simulate both the
    healthy fleet and the one-dead-shard fleet (:func:`degraded_plan`)
    and record the deterministic attainment/latency/breaker/hedge
    scalars. ``baseline`` (a perf baseline document) rides the
    single-shard zero-fault bit-identity check along. The whole
    document is exact-match gated by :func:`check_resilience_runs`.
    """
    seeds = tuple(int(s) for s in seeds)
    shard_counts = tuple(sorted(set(int(k) for k in shard_counts)))
    rates = tuple(sorted(set(float(q) for q in qps_grid)))
    if not seeds:
        raise ParameterError("need at least one fault seed")
    if not shard_counts:
        raise ParameterError("need at least one shard count")
    if not rates:
        raise ParameterError("qps grid must be non-empty")

    config = UPMEMConfig()
    points: dict = {}
    capacity: dict = {}
    victims: dict = {}
    for seed in seeds:
        plan_degraded, victim = degraded_plan(seed, shard_counts, config)
        victims[str(seed)] = victim
        for k in shard_counts:
            sustainable: dict = {}
            for fleet, plan in (
                ("healthy", FaultPlan()),
                ("degraded", plan_degraded),
            ):
                passing = []
                for qps in rates:
                    label = (
                        f"seed={seed}:shards={k}:fleet={fleet}:qps={qps:g}"
                    )
                    if progress is not None:
                        progress(label)
                    spec = ServeSpec(
                        classes=(
                            RequestClass(
                                workload=workload,
                                security_bits=security_bits,
                                rate_qps=qps,
                                ops_per_request=ops_per_request,
                            ),
                        ),
                        duration_s=duration_s,
                        seed=seed,
                        max_batch=max_batch,
                        max_wait_s=max_wait_s,
                    )
                    rspec = ResilienceSpec(
                        serve=spec,
                        n_shards=k,
                        breaker=breaker,
                        retry_budget=retry_budget,
                        hedge_after_s=hedge_after_s,
                        shed_burn_threshold=shed_burn_threshold,
                        plan=plan.scaled(),
                    )
                    point = _point_scalars(simulate_resilient(rspec))
                    points[label] = point
                    if point["verdict"] == VERDICT_SLO_OK:
                        passing.append(qps)
                sustainable[fleet] = max(passing) if passing else None
            healthy_qps = sustainable["healthy"]
            degraded_qps = sustainable["degraded"]
            capacity[f"seed={seed}:shards={k}"] = {
                "healthy_qps": healthy_qps,
                "degraded_qps": degraded_qps,
                "retained": (
                    degraded_qps / healthy_qps
                    if healthy_qps and degraded_qps
                    else None
                ),
                # One dead shard of K should cost at most 1/K of the
                # sustainable rate (hedging overhead rides on top).
                "retained_floor": 1.0 - 1.0 / k if k > 1 else 0.0,
            }

    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "resilience-baseline",
        "workload": workload,
        "security_bits": security_bits,
        "seeds": list(seeds),
        "shard_counts": list(shard_counts),
        "qps_grid": list(rates),
        "duration_s": duration_s,
        "ops_per_request": ops_per_request,
        "max_batch": max_batch,
        "max_wait_s": max_wait_s,
        "config": {
            "breaker": breaker.to_dict(),
            "retry_budget": retry_budget,
            "hedge_after_s": hedge_after_s,
            "shed_burn_threshold": shed_burn_threshold,
        },
        "victims": victims,
    }
    doc.update(run_identity())
    doc["points"] = points
    doc["capacity"] = capacity
    if baseline is not None:
        doc["baseline_check"] = check_serving_baseline(
            baseline,
            workload=workload,
            security_levels=(security_bits,),
            ops_per_request=ops_per_request,
        )
    return doc


# -- persistence -------------------------------------------------------------

#: The resilience baseline and run-history format (``repro resil``).
LEDGER = gate.Ledger(
    noun="resilience",
    what="resilience baseline",
    family="points",
    hint="repro resil record",
    schema=SCHEMA_VERSION,
    kind="resilience-baseline",
)

#: Read and schema-validate a resilience document.
read_resilience_run = LEDGER.read


# -- the check ---------------------------------------------------------------

#: Top-level scalar fields compared as the ``<resil-config>`` row.
_CONFIG_FIELDS = (
    "workload",
    "security_bits",
    "seeds",
    "shard_counts",
    "qps_grid",
    "duration_s",
    "ops_per_request",
    "max_batch",
    "max_wait_s",
    "config",
    "victims",
)


def check_resilience_runs(baseline: dict, current: dict) -> list:
    """Compare a current resilience capture against the baseline.

    Exact-match policy throughout (:func:`repro.obs.gate.check_exact`)
    — every point scalar is deterministic modelled arithmetic, so *any*
    difference is ``RESILIENCE-DRIFT``. The grid configuration is
    compared first (as ``<resil-config>``), then the points, the
    capacity rows and the perf-baseline cross-check rows; points present
    only in the current run are ``new`` (adopt with ``--update``).
    """
    return gate.check_exact(
        GATE,
        baseline,
        current,
        "<resil-config>",
        _CONFIG_FIELDS,
        ("capacity", "baseline_check"),
    )


def render_resilience_text(doc: dict) -> str:
    """A recorded resilience document as a terminal report."""
    lines = [
        f"resilience grid — {doc['workload']}@{doc['security_bits']}, "
        f"seeds {doc['seeds']}, shards {doc['shard_counts']}, "
        f"qps {doc['qps_grid']}, {doc['duration_s']:g} s window"
    ]
    lines.append(
        "\ncapacity under one dead shard "
        "(sustainable qps, degraded/healthy):"
    )
    for key in sorted(doc["capacity"]):
        entry = doc["capacity"][key]
        retained = entry["retained"]
        lines.append(
            f"  {key}: healthy "
            + (
                f"{entry['healthy_qps']:g}"
                if entry["healthy_qps"] is not None
                else "none"
            )
            + " -> degraded "
            + (
                f"{entry['degraded_qps']:g}"
                if entry["degraded_qps"] is not None
                else "none"
            )
            + (
                f" (retained {retained:.2f}, "
                f"floor {entry['retained_floor']:.2f})"
                if retained is not None
                else ""
            )
        )
    ok = sum(
        1
        for p in doc["points"].values()
        if p["verdict"] == VERDICT_SLO_OK
    )
    breach = len(doc["points"]) - ok
    lines.append(
        f"\nSLO verdict summary: {ok} SLO-OK, {breach} SLO-BREACH over "
        f"{len(doc['points'])} points"
    )
    hedges = sum(p["hedges_issued"] for p in doc["points"].values())
    redispatches = sum(
        p["redispatches"] for p in doc["points"].values()
    )
    shed = sum(p["shed_requests"] for p in doc["points"].values())
    opened = sum(p["breaker_opened"] for p in doc["points"].values())
    lines.append(
        f"resilience events: {redispatches} redispatches, "
        f"{hedges} hedges, {shed} shed requests, "
        f"{opened} breaker trips"
    )
    for verdict in doc.get("baseline_check", []):
        lines.append(
            f"baseline gate: {verdict['experiment']} "
            f"({verdict['class']}) -> {verdict['verdict']}"
        )
    return "\n".join(lines)


# -- the gate spec -------------------------------------------------------------


def _add_arguments(parser, command: str) -> None:
    parser.add_argument(
        "--workload",
        default="vec_add",
        help="request-class workload (default: vec_add)",
    )
    parser.add_argument(
        "--security",
        type=int,
        default=54,
        metavar="BITS",
        help="security level (default: 54)",
    )
    parser.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=list(DEFAULT_RESIL_SEEDS),
        help=f"fault seeds to sweep (default: "
        f"{' '.join(str(s) for s in DEFAULT_RESIL_SEEDS)})",
    )
    parser.add_argument(
        "--shards",
        nargs="+",
        type=int,
        default=list(DEFAULT_SHARD_COUNTS),
        metavar="K",
        help=f"shard counts to sweep (default: "
        f"{' '.join(str(k) for k in DEFAULT_SHARD_COUNTS)})",
    )
    parser.add_argument(
        "--qps",
        nargs="+",
        type=float,
        default=list(DEFAULT_RESIL_QPS),
        help=f"offered rates to sweep (default: "
        f"{' '.join(f'{q:g}' for q in DEFAULT_RESIL_QPS)})",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=0.1,
        metavar="S",
        help="modelled arrival window in seconds (default: 0.1)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="consecutive failures that trip a shard's breaker "
        "(default: 3)",
    )
    parser.add_argument(
        "--breaker-cooldown-ms",
        type=float,
        default=25.0,
        metavar="MS",
        help="breaker cooldown in modelled milliseconds (default: 25)",
    )
    parser.add_argument(
        "--retry-budget",
        type=int,
        default=1,
        metavar="N",
        help="redispatches allowed after a failed dispatch (default: 1)",
    )
    parser.add_argument(
        "--hedge-after-ms",
        type=float,
        default=5.0,
        metavar="MS",
        help="queue wait that triggers a hedged duplicate launch "
        "(default: 5)",
    )
    parser.add_argument(
        "--perf-baseline",
        default="baselines/perf.json",
        metavar="FILE",
        help="perf baseline for the single-shard bit-identity "
        "cross-check (default: baselines/perf.json)",
    )
    parser.add_argument(
        "--skip-baseline",
        action="store_true",
        help="skip the single-shard perf cross-check",
    )


def _capture(args, progress, **recorded) -> dict:
    """Capture the grid the CLI options name, overridden by ``recorded``."""
    perf_baseline = None
    if not args.skip_baseline and os.path.exists(args.perf_baseline):
        perf_baseline = bl.read_run(args.perf_baseline)
    kwargs = dict(
        workload=args.workload,
        security_bits=args.security,
        seeds=args.seeds,
        shard_counts=args.shards,
        qps_grid=args.qps,
        duration_s=args.duration,
        breaker=BreakerSpec(
            failure_threshold=args.breaker_threshold,
            cooldown_s=args.breaker_cooldown_ms * 1e-3,
        ),
        retry_budget=args.retry_budget,
        hedge_after_s=(
            args.hedge_after_ms * 1e-3
            if args.hedge_after_ms is not None
            else None
        ),
        baseline=perf_baseline,
        progress=progress,
    )
    kwargs.update(recorded)
    return capture_resilience_run(**kwargs)


def _capture_for_check(baseline: dict, args, progress) -> dict:
    """Re-simulate exactly the recorded grid, not the CLI defaults."""
    config = baseline["config"]
    return _capture(
        args,
        progress,
        workload=baseline["workload"],
        security_bits=baseline["security_bits"],
        seeds=baseline["seeds"],
        shard_counts=baseline["shard_counts"],
        qps_grid=baseline["qps_grid"],
        duration_s=baseline["duration_s"],
        breaker=BreakerSpec(**config["breaker"]),
        retry_budget=config["retry_budget"],
        hedge_after_s=config["hedge_after_s"],
        shed_burn_threshold=config["shed_burn_threshold"],
    )


GATE = gate.Gate(
    name="resil",
    ledger=LEDGER,
    baseline_path=DEFAULT_RESIL_BASELINE_PATH,
    history_path=DEFAULT_RESIL_HISTORY_PATH,
    title="resilience check — current capture vs committed baseline",
    noun="checks",
    order=(gate.VERDICT_OK, gate.VERDICT_NEW, gate.RESILIENCE_DRIFT),
    drift_hint=None,
    help="fault-tolerant sharded serving: record, gate, and render "
    "degraded-fleet SLO attainment",
    description=(
        "Sweep the sharded resilient serving model — health-aware "
        "placement over K rank-aligned shards, per-shard circuit "
        "breakers, retry budgets, hedged dispatch — across a fault "
        "seed × shard count × offered QPS grid, healthy and with "
        "one shard's ranks disabled. Every point is deterministic "
        "modelled arithmetic, so the gate demands exact equality "
        "(RESILIENCE-DRIFT otherwise); the single-shard zero-fault "
        "pricer is cross-checked bit-for-bit against the perf "
        "baseline. See docs/robustness.md."
    ),
    commands={
        "record": "capture the RESILIENCE gate baseline",
        "check": "re-simulate the recorded grid and gate against the "
        "baseline",
        "html": "render the shard-health dashboard from the recorded run",
    },
    add_arguments=_add_arguments,
    capture=_capture,
    capture_for_check=_capture_for_check,
    check=lambda baseline, current, args: check_resilience_runs(
        baseline, current
    ),
    html=htmlreport.render_resilience_report,
    recorded=lambda doc: (
        f"{render_resilience_text(doc)}\n"
        f"recorded {len(doc['points'])} resilience points"
    ),
)
