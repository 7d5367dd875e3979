"""Serving points, capacity sweeps, persistence, and exports.

A **serving point** is one fully-specified simulation
(:class:`ServeSpec` -> :func:`simulate`): the one-shard case of the
serving loop in :mod:`repro.serve.resilience` — seeded open-loop
arrivals per request class, batch formation, a serial PIM device
timeline priced by the exact experiment pricing path
(:func:`price_launch`), admission control through
:class:`~repro.core.planner.HeadroomGuard`, degraded fleets through the
fault layer, and per-class SLO accounting
(:class:`~repro.obs.slo.SLOTracker`). A request class names one of the
paper's workloads (:data:`repro.workloads.registry.PAPER_WORKLOADS`), which
supplies both its launch factory and its noise-circuit shape.

A **capacity sweep** (:func:`sweep_capacity`) asks the ROADMAP item-2
question directly: for each security level and fleet-health fraction,
step the offered QPS across a grid and report p50/p99/p99.9 modelled
latency, burn rates, and the *sustainable QPS* — the highest offered
rate whose point still meets every SLO objective.

Two invariants mirror the chaos harness:

* the **zero-fault serving point prices through the untouched path**:
  :func:`check_serving_baseline` sums the one-shard serving pricer
  over each experiment's batches and pairs the sums with
  ``baselines/perf.json`` series totals through the perf gate's one
  cross-check (:func:`repro.obs.gate.baseline_pairs`); they must match
  bit-for-bit (MODEL-DRIFT otherwise);
* **everything is seeded** — a spec + seed yields byte-identical
  request timelines, digest state, and sweep documents (modulo the
  run identity).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.backends.base import TimingBreakdown
from repro.core.params import BFVParameters
from repro.core.planner import HeadroomGuard, plan_budget
from repro.errors import ParameterError
from repro.obs.export import (
    chrome_complete,
    chrome_document,
    chrome_metadata,
    merge_chrome_traces,
)
from repro.obs.gate import Ledger, baseline_pairs
from repro.obs.runident import run_identity
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    VERDICT_SLO_BREACH,
    VERDICT_SLO_OK,
)
from repro.obs.trace import get_tracer
from repro.pim.config import UPMEMConfig
from repro.pim.faults import DEFAULT_HEALTHY, FaultPlan
from repro.serve.arrivals import OpenLoopArrivals
from repro.serve.scheduler import ServedBatches
from repro.workloads.registry import EXPERIMENT_CELLS, PAPER_WORKLOADS

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_QPS_GRID",
    "RequestClass",
    "ServeSpec",
    "ServeResult",
    "simulate",
    "sweep_capacity",
    "check_serving_baseline",
    "price_launch",
    "SWEEPS",
    "render_point_text",
    "render_sweep_text",
    "timelines_to_chrome_trace",
    "emit_request_spans",
]

#: Version stamped into every serving document.
SCHEMA_VERSION = 1

#: Offered-QPS grid swept by default (requests/s per class).
DEFAULT_QPS_GRID = (1000.0, 4000.0, 16000.0)

#: The backend serving batches are priced on.
SERVE_BACKEND = "pim"


@dataclass(frozen=True)
class _PredictedStamp:
    """Adapter giving :class:`HeadroomGuard` the shape it checks."""

    pred_bits: float


@dataclass(frozen=True)
class RequestClass:
    """One stream of homogeneous requests.

    A request bundles ``ops_per_request`` ciphertext operations of one
    workload kind at one security level — the unit a user submits. A
    shared kernel launch packs whole requests, so a batch of ``B``
    requests prices the workload at ``B * ops_per_request`` ciphertext
    operations.
    """

    workload: str = "vec_add"
    security_bits: int = 109
    rate_qps: float = 1000.0
    ops_per_request: int = 64
    #: Scheduling priority (higher = more important). The resilience
    #: layer's load shedder drops the *lowest* priority classes first
    #: when the SLO burn rate crosses its threshold; the plain
    #: scheduler ignores it.
    priority: int = 0

    def __post_init__(self):
        if self.workload not in PAPER_WORKLOADS:
            raise ParameterError(
                f"unknown serving workload {self.workload!r}; known: "
                f"{sorted(PAPER_WORKLOADS)}"
            )
        if self.rate_qps <= 0:
            raise ParameterError(
                f"rate_qps must be positive: {self.rate_qps}"
            )
        if self.ops_per_request < 1:
            raise ParameterError(
                f"ops_per_request must be >= 1: {self.ops_per_request}"
            )

    @property
    def key(self) -> str:
        return f"{self.workload}@{self.security_bits}"

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "security_bits": self.security_bits,
            "rate_qps": self.rate_qps,
            "ops_per_request": self.ops_per_request,
            "priority": self.priority,
        }


@dataclass(frozen=True)
class ServeSpec:
    """One serving point, fully specified (and therefore reproducible)."""

    classes: tuple = (RequestClass(),)
    duration_s: float = 0.5
    seed: int = 0
    healthy: float = 1.0
    max_batch: int = 64
    max_wait_s: float = 2e-3
    margin_bits: float = 2.0
    objectives: tuple = DEFAULT_OBJECTIVES

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ParameterError(
                f"duration must be positive: {self.duration_s}"
            )
        if not 0.0 < self.healthy <= 1.0:
            raise ParameterError(
                f"healthy fraction must be in (0, 1]: {self.healthy}"
            )
        keys = [c.key for c in self.classes]
        if len(set(keys)) != len(keys):
            raise ParameterError(
                f"request classes must be distinct: {keys}"
            )
        if not self.classes:
            raise ParameterError("need at least one request class")

    def to_dict(self) -> dict:
        return {
            "classes": [c.to_dict() for c in self.classes],
            "duration_s": self.duration_s,
            "seed": self.seed,
            "healthy": self.healthy,
            "max_batch": self.max_batch,
            "max_wait_s": self.max_wait_s,
            "margin_bits": self.margin_bits,
            "objectives": [o.to_dict() for o in self.objectives],
        }


@dataclass
class ServeResult:
    """Everything one serving point produced."""

    spec: ServeSpec
    launches: list
    reports: dict
    doc: dict
    batches: ServedBatches = field(repr=False, compare=False)

    @property
    def timelines(self) -> list:
        """Every completed request's timeline, built on first read."""
        return self.batches.timelines


def price_launch(backend, cls: RequestClass, batch_size: int) -> TimingBreakdown:
    """Price one shared launch of ``batch_size`` requests of ``cls``.

    Prices through the exact experiment path — the workload factory and
    ``Backend.time_op`` — and merges the per-request breakdowns into
    one launch (times and bytes summed, the widest DPU use kept).
    """
    ops = batch_size * cls.ops_per_request
    workload = PAPER_WORKLOADS[cls.workload].factory(cls.security_bits, ops)
    seconds = 0.0
    launch_s = kernel_s = transfer_s = energy_j = 0.0
    dpus_used = movement_bytes = 0
    bound = "?"
    for request in workload.device_requests():
        breakdown = backend.time_op(request)
        seconds += breakdown.seconds
        detail = breakdown.detail
        launch_s += float(detail.get("launch_s", 0.0))
        kernel_s += float(detail.get("kernel_s", 0.0))
        transfer_s += float(detail.get("transfer_s", 0.0))
        energy_j += float(detail.get("energy_j", 0.0))
        movement_bytes += int(detail.get("movement_bytes", 0))
        dpus_used = max(dpus_used, int(detail.get("dpus_used", 0)))
        bound = str(detail.get("bound", bound))
    return TimingBreakdown(
        backend=SERVE_BACKEND,
        op=cls.workload,
        seconds=seconds,
        detail={
            "launch_s": launch_s,
            "kernel_s": kernel_s,
            "transfer_s": transfer_s,
            "dpus_used": dpus_used,
            "bound": bound,
            "ops": ops,
            "energy_j": energy_j,
            "movement_bytes": movement_bytes,
        },
    )


def _admitted_arrivals(spec: ServeSpec, trackers: dict, registry) -> dict:
    """Noise-headroom admission over every class's arrival stream.

    Returns class key -> admitted arrival times (a float64 array, empty
    for a rejected class); rejected arrivals are charged to the class's
    tracker and counters. Shared by the plain point simulation and the
    sharded resilience simulation so admission semantics can never
    diverge between the two.

    The planned budget is a property of the class, so a class is either
    admitted or rejected whole: an admitted stream is counted with one
    increment, and only rejection runs the guard per arrival (each
    rejected request gets its own headroom span and violation count).
    """
    guard = HeadroomGuard(margin_bits=spec.margin_bits)
    class_arrivals: dict = {}
    for cls in spec.classes:
        key = cls.key
        params = BFVParameters.security_level(cls.security_bits)
        circuit = PAPER_WORKLOADS[cls.workload].circuit(cls.ops_per_request)
        plan_bits = plan_budget(params, circuit).remaining_bits
        arrivals = OpenLoopArrivals(
            key, cls.rate_qps, seed=spec.seed
        ).times_until(spec.duration_s)
        if plan_bits >= spec.margin_bits:
            # The guard passes every arrival without a trace.
            if len(arrivals):
                registry.counter(f"serve.requests.{key}").inc(len(arrivals))
            class_arrivals[key] = arrivals
            continue
        stamp = _PredictedStamp(pred_bits=plan_bits)
        for _ in arrivals:
            guard.check(f"serve.admit.{key}", stamp, params)
            trackers[key].reject()
            registry.counter(f"serve.rejected.{key}").inc()
        class_arrivals[key] = arrivals[:0]
    return class_arrivals


def simulate(spec: ServeSpec) -> ServeResult:
    """Run one serving point end to end in modelled time.

    The one-shard case of the sharded serving loop
    (:mod:`repro.serve.resilience`): the whole fleet under the plan
    ``spec.healthy`` derives, with no hedging and no shedding.
    Deterministic: the same spec yields byte-identical timelines,
    digest state, and document (modulo the run identity stamped into
    the document).
    """
    # Deferred: repro.serve.resilience imports this module at its top.
    from repro.serve.resilience import ResilienceSpec, _serve

    served = _serve(ResilienceSpec(serve=spec, n_shards=1))
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "serve-point",
        "spec": spec.to_dict(),
        "n_dpus": served.doc["n_dpus"],
        "effective_dpus": served.doc["effective_dpus"],
    }
    doc.update(run_identity())
    doc["classes"] = served.doc["classes"]
    doc["device"] = served.doc["device"]
    doc["launches"] = [launch.to_dict() for launch in served.launches]
    doc["energy"] = served.doc["energy"]
    doc["verdict"] = served.doc["verdict"]
    return ServeResult(
        spec=spec,
        launches=served.launches,
        reports=served.reports,
        doc=doc,
        batches=served.batches,
    )


# -- capacity sweep ----------------------------------------------------------


def _point_summary(result: ServeResult, class_key: str) -> dict:
    """The persistable scalar summary of one sweep point."""
    report = result.reports[class_key]
    latency = report["latency"]
    burns = [o["burn_rate"] for o in report["objectives"]]
    return {
        "completed": float(report["completed"]),
        "rejected": float(report["rejected"]),
        "p50_ms": latency["p50_ms"],
        "p99_ms": latency["p99_ms"],
        "p999_ms": latency["p999_ms"],
        "mean_ms": latency["mean_ms"],
        "qps_completed": report.get("qps_completed", 0.0),
        "max_burn_rate": max(burns) if burns else 0.0,
        "utilization": result.doc["device"]["utilization"],
        "energy_j": result.doc["energy"]["total_j"],
        "avg_watts": result.doc["energy"]["avg_watts"],
        "j_per_request": result.doc["energy"]["j_per_request"],
    }


def _point_verdict(summary: dict) -> str:
    if summary["rejected"] > 0 or summary["max_burn_rate"] > 1.0:
        return VERDICT_SLO_BREACH
    return VERDICT_SLO_OK


def sweep_capacity(
    workload: str = "vec_add",
    security_levels=(27, 54, 109),
    healthy_grid=DEFAULT_HEALTHY,
    qps_grid=DEFAULT_QPS_GRID,
    duration_s: float = 0.5,
    seed: int = 0,
    ops_per_request: int = 64,
    max_batch: int = 64,
    max_wait_s: float = 2e-3,
    margin_bits: float = 2.0,
    objectives=DEFAULT_OBJECTIVES,
    baseline: dict | None = None,
    progress=None,
) -> dict:
    """The capacity sweep: QPS × security level × fleet health.

    ``baseline`` (a perf baseline document) adds the zero-fault
    bit-identity cross-check. ``progress`` receives a label as each
    point starts pricing.
    """
    levels = sorted(set(int(b) for b in security_levels))
    fractions = sorted(set(healthy_grid), reverse=True)
    rates = sorted(set(float(q) for q in qps_grid))
    if not levels:
        raise ParameterError("security levels must be non-empty")
    if not rates:
        raise ParameterError("qps grid must be non-empty")

    base_spec = ServeSpec(
        classes=(
            RequestClass(
                workload=workload,
                security_bits=levels[0],
                rate_qps=rates[0],
                ops_per_request=ops_per_request,
            ),
        ),
        duration_s=duration_s,
        seed=seed,
        max_batch=max_batch,
        max_wait_s=max_wait_s,
        margin_bits=margin_bits,
        objectives=tuple(objectives),
    )

    cells: dict = {}
    for bits in levels:
        by_health: dict = {}
        for fraction in fractions:
            points = []
            for qps in rates:
                cls = RequestClass(
                    workload=workload,
                    security_bits=bits,
                    rate_qps=qps,
                    ops_per_request=ops_per_request,
                )
                spec = replace(
                    base_spec, classes=(cls,), healthy=fraction
                )
                if progress is not None:
                    progress(f"{cls.key} h={fraction:g} qps={qps:g}")
                summary = _point_summary(simulate(spec), cls.key)
                points.append(
                    {"qps": qps}
                    | summary
                    | {"verdict": _point_verdict(summary)}
                )
            passing = [
                p["qps"] for p in points if p["verdict"] == VERDICT_SLO_OK
            ]
            by_health[f"{fraction:g}"] = {
                "points": points,
                "sustainable_qps": max(passing) if passing else None,
            }
        cells[str(bits)] = by_health

    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "serve-sweep",
        "workload": workload,
        "security_levels": levels,
        "healthy": fractions,
        "qps_grid": rates,
        "duration_s": duration_s,
        "seed": seed,
        "ops_per_request": ops_per_request,
        "max_batch": max_batch,
        "max_wait_s": max_wait_s,
        "margin_bits": margin_bits,
        "objectives": [o.to_dict() for o in objectives],
        "n_dpus": UPMEMConfig().n_dpus,
    }
    doc.update(run_identity())
    doc["cells"] = cells
    if baseline is not None:
        doc["baseline_check"] = check_serving_baseline(
            baseline,
            workload=workload,
            security_levels=levels,
            ops_per_request=ops_per_request,
        )
    return doc


# -- the zero-fault bit-identity gate ----------------------------------------


def check_serving_baseline(
    baseline: dict,
    workload: str = "vec_add",
    security_levels=(27, 54, 109),
    ops_per_request: int = 64,
) -> list:
    """Gate the serving pricer against ``baselines/perf.json``.

    For every experiment whose cells are ``workload`` at one of the
    requested security levels (:data:`repro.workloads.registry.EXPERIMENT_CELLS`),
    price the workload's batches (one launch per batch) through the
    one-shard :class:`~repro.serve.shard.ShardedPricer` of the whole
    fleet under an inactive fault plan, and pair the accumulated pim
    milliseconds with the committed series total
    (:func:`repro.obs.gate.baseline_pairs`). They must match
    **bit-for-bit**, exactly like the grid's fault-free cells: a single
    shard of the whole fleet *is* the whole fleet. Returns verdict
    dicts with ``verdict`` in {"ok", "MODEL-DRIFT", "new"}.
    """
    # Deferred: repro.serve.shard imports this module at its top.
    from repro.serve.shard import ShardedPricer, make_layout

    config = UPMEMConfig()
    layout = make_layout(1, config)
    batches = PAPER_WORKLOADS[workload].batches
    # The batches must land on whole requests to reuse the per-launch
    # pricer.
    ops = 1 if any(b % ops_per_request for b in batches) else ops_per_request
    totals: dict = {}
    classes: dict = {}
    for eid, (cell_workload, bits) in sorted(EXPERIMENT_CELLS.items()):
        if cell_workload != workload or bits not in security_levels:
            continue
        cls = RequestClass(
            workload=workload,
            security_bits=bits,
            rate_qps=1.0,
            ops_per_request=ops,
        )
        pricer = ShardedPricer((cls,), layout, FaultPlan(), config)
        total_ms = 0.0
        for batch in batches:
            breakdown = pricer.price(0, cls.key, batch // ops)
            total_ms += breakdown.seconds * 1e3
        totals[eid] = {SERVE_BACKEND: total_ms}
        classes[eid] = cls.key
    return [
        {
            "experiment": row["experiment"],
            "class": classes[row["experiment"]],
            "expected_ms": row["expected_ms"],
            "got_ms": row["got_ms"],
            "verdict": row["verdict"],
        }
        for row in baseline_pairs(totals, baseline, (SERVE_BACKEND,))
    ]


# -- persistence ------------------------------------------------------------

#: The capacity-sweep document format (``repro serve sweep -o``).
SWEEPS = Ledger(
    noun="serving-sweep",
    what="serving sweep",
    family="cells",
    hint="repro serve sweep -o <file>",
    schema=SCHEMA_VERSION,
    kind="serve-sweep",
)


# -- rendering ---------------------------------------------------------------


def _fmt_ms(value) -> str:
    return "-" if value is None else f"{value:9.3f}"


def render_point_text(result: ServeResult) -> str:
    """One serving point as a terminal report."""
    spec = result.spec
    doc = result.doc
    lines = [
        f"serving point — seed {spec.seed}, {spec.duration_s:g} s window, "
        f"{spec.healthy * 100:g}% healthy "
        f"({doc['effective_dpus']}/{doc['n_dpus']} DPUs), "
        f"batch <= {spec.max_batch} within {spec.max_wait_s * 1e3:g} ms"
    ]
    for key in sorted(result.reports):
        report = result.reports[key]
        latency = report["latency"]
        lines.append(f"\n{key}:")
        lines.append(
            f"  completed {report['completed']} "
            f"({report.get('qps_completed', 0.0):,.0f} qps), "
            f"rejected {report['rejected']}"
        )
        lines.append(
            f"  latency ms: p50 {_fmt_ms(latency['p50_ms'])}  "
            f"p99 {_fmt_ms(latency['p99_ms'])}  "
            f"p99.9 {_fmt_ms(latency['p999_ms'])}  "
            f"max {_fmt_ms(latency['max_ms'])}"
        )
        for objective in report["objectives"]:
            lines.append(
                f"  {objective['name']}: {objective['bad']} bad "
                f"(burn rate {objective['burn_rate']:.3f}, budget "
                f"{objective['error_budget_remaining']:+.3f}) "
                f"-> {objective['verdict']}"
            )
        lines.append(f"  verdict: {report['verdict']}")
    device = doc["device"]
    lines.append(
        f"\ndevice: {device['launches']} launches, "
        f"busy {device['busy_s'] * 1e3:,.2f} ms of "
        f"{device['horizon_s'] * 1e3:,.2f} ms "
        f"({device['utilization'] * 100:.1f}% utilized)"
    )
    energy = doc["energy"]
    per_request = energy["j_per_request"]
    lines.append(
        f"energy: {energy['total_j']:.3f} J modelled "
        f"({energy['avg_watts']:.1f} W avg, "
        + (
            f"{per_request * 1e3:.3f} mJ/request, "
            if per_request is not None
            else "no completed requests, "
        )
        + f"{energy['movement_bytes']:,} bytes moved)"
    )
    lines.append(f"point verdict: {doc['verdict']}")
    return "\n".join(lines)


def render_sweep_text(doc: dict) -> str:
    """The capacity sweep as a terminal table, with the verdict summary."""
    lines = [
        f"serving capacity sweep — {doc['workload']}, seed {doc['seed']}, "
        f"{doc['duration_s']:g} s window, {doc['ops_per_request']} "
        f"ops/request, fleet {doc['n_dpus']} DPUs"
    ]
    ok = breach = 0
    total_energy_j = 0.0
    sustainable_lines = []
    for bits in doc["security_levels"]:
        by_health = doc["cells"][str(bits)]
        for fraction_key, entry in by_health.items():
            lines.append(f"\n{doc['workload']}@{bits}, {fraction_key} healthy:")
            lines.append(
                "       qps  completed   p50 ms     p99 ms   p99.9 ms"
                "     burn  verdict"
            )
            for point in entry["points"]:
                if point["verdict"] == VERDICT_SLO_OK:
                    ok += 1
                else:
                    breach += 1
                total_energy_j += point.get("energy_j") or 0.0
                lines.append(
                    f"  {point['qps']:8g}  {point['completed']:9g}  "
                    f"{_fmt_ms(point['p50_ms'])}  {_fmt_ms(point['p99_ms'])}  "
                    f"{_fmt_ms(point['p999_ms'])}  "
                    f"{point['max_burn_rate']:7.3f}  {point['verdict']}"
                )
            sustainable = entry["sustainable_qps"]
            sustainable_lines.append(
                f"  {doc['workload']}@{bits} at {fraction_key} healthy: "
                + (
                    f"{sustainable:g} qps"
                    if sustainable is not None
                    else "none (every point breached)"
                )
            )
    lines.append(
        f"\nSLO verdict summary: {ok} SLO-OK, {breach} SLO-BREACH over "
        f"{ok + breach} points"
    )
    lines.append(
        f"modelled energy: {total_energy_j:.3f} J across all points"
    )
    lines.append("sustainable QPS:")
    lines.extend(sustainable_lines)
    for verdict in doc.get("baseline_check", []):
        lines.append(
            f"baseline gate: {verdict['experiment']} ({verdict['class']}) "
            f"-> {verdict['verdict']}"
        )
    return "\n".join(lines)


# -- exports -----------------------------------------------------------------


def timelines_to_chrome_trace(timelines) -> dict:
    """Request timelines as a Chrome trace, one process per class.

    Timestamps are **modelled** microseconds (arrival = ``ts``). Each
    request is a complete event with nested phase events (queue /
    dispatch / launch / kernel / fault / transfer); overlapping
    requests of one class spread across a small pool of lanes
    (``tid``) so concurrent lifetimes stay readable.
    """
    by_class: dict = {}
    for timeline in timelines:
        by_class.setdefault(timeline.class_key, []).append(timeline)
    if not by_class:
        raise ParameterError("no request timelines to export")

    documents = []
    for class_key in sorted(by_class):
        events = [chrome_metadata("process_name", f"serve class {class_key}")]
        lanes: list = []
        for timeline in sorted(
            by_class[class_key], key=lambda t: (t.arrival_s, t.request_id)
        ):
            tid = None
            for lane, free_at in enumerate(lanes):
                if free_at <= timeline.arrival_s:
                    tid = lane
                    break
            if tid is None:
                if len(lanes) < 32:
                    lanes.append(0.0)
                    tid = len(lanes) - 1
                else:
                    tid = min(range(len(lanes)), key=lanes.__getitem__)
            lanes[tid] = timeline.complete_s
            tid += 1  # tid 0 carries the metadata event
            events.append(
                chrome_complete(
                    "serve.request",
                    "serve",
                    tid,
                    timeline.arrival_s * 1e6,
                    timeline.latency_s * 1e6,
                    {
                        "request_id": timeline.request_id,
                        "batch_index": timeline.batch_index,
                        "batch_size": timeline.batch_size,
                        "latency_ms": timeline.latency_s * 1e3,
                    },
                )
            )
            phases = (
                ("serve.queue", timeline.arrival_s, timeline.queue_s),
                (
                    "serve.dispatch",
                    timeline.batch_formed_s,
                    timeline.dispatch_s,
                ),
                (
                    "serve.launch",
                    timeline.service_start_s,
                    timeline.launch_s,
                ),
                (
                    "serve.kernel",
                    timeline.service_start_s + timeline.launch_s,
                    timeline.kernel_s + timeline.fault_s,
                ),
                (
                    "serve.transfer",
                    timeline.complete_s - timeline.transfer_s,
                    timeline.transfer_s,
                ),
            )
            events.extend(
                chrome_complete(
                    name,
                    "serve",
                    tid,
                    start * 1e6,
                    duration * 1e6,
                    {"request_id": timeline.request_id},
                )
                for name, start, duration in phases
                if duration > 0
            )
        documents.append(chrome_document(events))
    return merge_chrome_traces(documents)


def emit_request_spans(result: ServeResult) -> int:
    """Re-emit request timelines as nested ``repro.obs`` spans.

    Wall durations are meaningless here (the spans open and close
    immediately); the *modelled* clock rides on ``modelled_s`` and the
    phase attributes, matching the convention every other
    instrumentation site uses. No-op (returns 0) under the null
    tracer.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return 0
    emitted = 0
    for timeline in result.timelines:
        with tracer.span(
            "serve.request",
            attrs={
                "request_id": timeline.request_id,
                "class": timeline.class_key,
                "modelled_s": timeline.latency_s,
                "arrival_s": timeline.arrival_s,
                "batch_index": timeline.batch_index,
                "batch_size": timeline.batch_size,
            },
        ):
            for name, duration in (
                ("serve.queue", timeline.queue_s),
                ("serve.dispatch", timeline.dispatch_s),
                ("serve.launch", timeline.launch_s),
                ("serve.kernel", timeline.kernel_s + timeline.fault_s),
                ("serve.transfer", timeline.transfer_s),
            ):
                with tracer.span(name, attrs={"modelled_s": duration}):
                    pass
        emitted += 1
    return emitted
