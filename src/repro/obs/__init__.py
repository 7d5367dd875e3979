"""``repro.obs`` — zero-dependency tracing and metrics for the model.

The pipeline (workloads -> backends -> PIM runtime -> kernels) computes
rich intermediate results — per-kernel compute/DMA breakdowns, tasklet
counts, limb-operation tallies — and historically discarded everything
but final scalars. This package keeps that story observable:

* :mod:`repro.obs.trace` — nested spans with wall-clock *and* modelled
  device time, a process-global tracer, and a null no-op default;
* :mod:`repro.obs.metrics` — counters/gauges/histograms with the same
  null-by-default discipline;
* :mod:`repro.obs.export` — JSONL, Chrome-trace, and text-tree
  exporters over finished spans.

Quick start::

    from repro import obs

    tracer = obs.Tracer()
    with obs.use_tracer(tracer):
        run_experiment("fig1a")
    obs.write_jsonl(tracer.finished, "trace.jsonl")
    print(obs.render_time_tree(tracer.finished))

Or, without touching code: ``REPRO_TRACE=trace.jsonl repro-experiments
run fig1a``. See ``docs/observability.md``.

Layered on top (PR 2): :mod:`repro.obs.baseline` records
schema-versioned performance runs, :mod:`repro.obs.perf` compares them
(exact modelled times, noise-aware wall times) and diffs attribution,
and :mod:`repro.obs.htmlreport` renders the run history as a
self-contained HTML dashboard — all driven by ``repro perf``.

PR 3 adds :mod:`repro.obs.profile`: the pipeline profiler behind
``repro profile`` — per-tasklet occupancy, DMA contention, load
balance, and bottleneck verdicts cross-checked against the analytic
cost model (disagreement raises
:class:`~repro.errors.ModelValidationError`).

PR 4 makes the *correctness* axis observable: :mod:`repro.obs.noise`
stamps every ciphertext with its predicted invariant-noise budget
(updated by each evaluator operation, measured on demand with the
secret key), and :mod:`repro.obs.noisegate` gates the growth model
against committed predicted-vs-measured trajectories
(``NOISE-DRIFT``) — driven by ``repro noise record|check|report``.

PR 6 makes the whole evaluation matrix *persistent and resumable*:
:mod:`repro.obs.runident` is the shared run-identity stamp (uuid,
timestamp, git SHA) every recorder now uses, and
:mod:`repro.obs.registry` is a sqlite-backed run store — a grid table
of enumerated parameter combinations (workload × backend × security
level × fleet health × batch size) with atomic claim/run/record/resume
semantics, plus a runs ledger for longitudinal trends — driven by
``repro grid init|run|status|resume|html``.

PR 7 adds request-level SLO observability: :mod:`repro.obs.slo` turns
per-request modelled latencies from the :mod:`repro.serve` substrate
into streaming percentile digests (mergeable, log-bucketed), SLO
objectives with burn-rate and error-budget accounting, and
``SLO-OK`` / ``SLO-BREACH`` verdicts — driven by
``repro serve run|sweep|html`` with the capacity dashboard in
:func:`repro.obs.htmlreport.render_serve_report`.

PR 8 adds the *energy* dimension: :mod:`repro.obs.energy` prices every
modelled kernel's joules mechanistically from its timing decomposition
(DPU pipeline-active vs idle, WRAM↔MRAM DMA per byte, host-link
transfers, CPU/GPU TDP envelopes — constants with provenance in
:class:`~repro.obs.energy.EnergyConfig`), attributes the bytes moved at
each memory level to ``movement.bytes.*`` counters and span
attributes, and gates the deterministic model against the committed
``baselines/energy.json`` (``ENERGY-DRIFT``) — driven by
``repro energy record|check|report`` with the dashboard in
:func:`repro.obs.htmlreport.render_energy_report`.

PR 9 adds drift *forensics* — the first layer to join all four gate
families (MODEL-DRIFT, NOISE-DRIFT, ENERGY-DRIFT, SLO) behind one
attribution engine: :mod:`repro.obs.forensics` aligns two recorded
runs by span path (self-vs-children time split from
:func:`repro.obs.export.path_tree`), ranks the top drift contributors
per family, runs CUSUM change-point detection over the longitudinal
histories (``baselines/*history.jsonl``) and the registry runs ledger
to flag the first git SHA of each shift, and exports differential
flamegraphs — collapsed-stack text (:func:`repro.obs.export.to_collapsed`
/ :func:`repro.obs.forensics.to_diff_collapsed`) and self-contained
HTML (:func:`repro.obs.htmlreport.render_forensics_report`) — driven
by ``repro why <experiment> --against <baseline|run-id>`` and
``repro forensics html|shifts``.
"""

from repro.obs.baseline import (
    capture_experiment,
    capture_run,
    find_run,
    read_run,
)
from repro.obs.energy import (
    DEFAULT_ENERGY_CONFIG,
    EnergyConfig,
    KernelEnergy,
    capture_energy_experiment,
    capture_energy_run,
    check_energy_runs,
    energy_rollup,
    get_energy_config,
    kernel_energy,
    movement_bytes,
    op_energy,
    read_energy_run,
    set_energy_config,
    use_energy_config,
)
from repro.obs.forensics import (
    align_trees,
    comparable_trees,
    cusum_changepoints,
    detect_shifts,
    diff_report,
    rank_contributors,
    render_shifts,
    render_why,
    scan_shifts,
    to_diff_collapsed,
    tree_from_attribution,
    why_exit_code,
    why_report,
)
from repro.obs.runident import git_sha, run_identity
from repro.obs.export import (
    merge_chrome_traces,
    path_tree,
    read_jsonl,
    render_time_tree,
    span_to_dict,
    to_chrome_trace,
    to_collapsed,
    write_chrome_trace,
    write_collapsed,
    write_jsonl,
)
from repro.obs.htmlreport import (
    render_dashboard,
    render_energy_report,
    render_faults_report,
    render_forensics_report,
    render_grid_dashboard,
    render_noise_report,
    render_profile_report,
    render_resilience_report,
    render_serve_report,
)
from repro.obs.noise import (
    NULL_NOISE_LEDGER,
    NoiseLedger,
    NoiseStamp,
    NullNoiseLedger,
    get_noise_ledger,
    set_noise_ledger,
    use_noise_ledger,
)
from repro.obs.noisegate import (
    capture_noise_run,
    check_noise_runs,
    read_noise_run,
)
from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullMetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.profile import (
    DMAEngineProfile,
    KernelProfile,
    LoadBalance,
    TaskletOccupancy,
    classify_bottleneck,
    kernel_from_spec,
    profile_experiment,
    profile_kernel,
    profile_programs,
    render_profile_text,
    render_profiles_text,
)
from repro.obs.perf import (
    check_runs,
    diff_runs,
    render_diff,
)
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    VERDICT_SLO_BREACH,
    VERDICT_SLO_OK,
    LatencyDigest,
    SLOObjective,
    SLOTracker,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    configure_from_env,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    # trace
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "configure_from_env",
    # metrics
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    # export
    "span_to_dict",
    "write_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "merge_chrome_traces",
    "render_time_tree",
    # pipeline profiler (repro profile)
    "TaskletOccupancy",
    "DMAEngineProfile",
    "LoadBalance",
    "KernelProfile",
    "classify_bottleneck",
    "profile_programs",
    "profile_kernel",
    "profile_experiment",
    "kernel_from_spec",
    "render_profile_text",
    "render_profiles_text",
    "render_profile_report",
    # baselines & regression (repro perf)
    "capture_experiment",
    "capture_run",
    "run_identity",
    "git_sha",
    "read_run",
    "find_run",
    "check_runs",
    "diff_runs",
    "render_diff",
    "render_dashboard",
    # noise ledger & calibration gate (repro noise)
    "NoiseStamp",
    "NoiseLedger",
    "NullNoiseLedger",
    "NULL_NOISE_LEDGER",
    "get_noise_ledger",
    "set_noise_ledger",
    "use_noise_ledger",
    "capture_noise_run",
    "check_noise_runs",
    "read_noise_run",
    "render_noise_report",
    # degraded-fleet sweep card (repro faults)
    "render_faults_report",
    # run registry & longitudinal dashboard (repro grid)
    "render_grid_dashboard",
    # request-level SLOs & serving capacity (repro serve)
    "LatencyDigest",
    "SLOObjective",
    "SLOTracker",
    "DEFAULT_OBJECTIVES",
    "VERDICT_SLO_OK",
    "VERDICT_SLO_BREACH",
    "render_serve_report",
    # sharded serving resilience dashboard (repro resil)
    "render_resilience_report",
    # energy & data movement (repro energy)
    "EnergyConfig",
    "DEFAULT_ENERGY_CONFIG",
    "KernelEnergy",
    "get_energy_config",
    "set_energy_config",
    "use_energy_config",
    "kernel_energy",
    "movement_bytes",
    "op_energy",
    "energy_rollup",
    "capture_energy_experiment",
    "capture_energy_run",
    "check_energy_runs",
    "read_energy_run",
    "render_energy_report",
    # drift forensics (repro why / repro forensics)
    "path_tree",
    "to_collapsed",
    "write_collapsed",
    "tree_from_attribution",
    "comparable_trees",
    "align_trees",
    "rank_contributors",
    "to_diff_collapsed",
    "why_report",
    "diff_report",
    "why_exit_code",
    "render_why",
    "cusum_changepoints",
    "detect_shifts",
    "scan_shifts",
    "render_shifts",
    "render_forensics_report",
]
