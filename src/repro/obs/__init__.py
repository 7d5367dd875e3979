"""``repro.obs`` — zero-dependency tracing and metrics for the model.

The pipeline (workloads -> backends -> PIM runtime -> kernels) computes
rich intermediate results — per-kernel compute/DMA breakdowns, tasklet
counts, limb-operation tallies — and historically discarded everything
but final scalars. This package keeps that story observable.

Module map:

* **Recording.** :mod:`~repro.obs.trace` — nested spans with
  wall-clock *and* modelled device time, a process-global tracer and a
  null no-op default; :mod:`~repro.obs.metrics` —
  counters/gauges/histograms with the same null-by-default discipline;
  :mod:`~repro.obs.instrument` — the workloads' span helper and the
  fault-metric hook.
* **Exporting.** :mod:`~repro.obs.export` — JSONL, text-tree,
  path-table and collapsed-stack exporters over finished spans, and
  the one owner of the Chrome-trace event format (the simulator's and
  the serving loop's timelines use its builders).
* **Gates.** :mod:`~repro.obs.gate` — the one ledger and verdict
  framework; :mod:`~repro.obs.baseline` and :mod:`~repro.obs.perf`
  record and check modelled and wall times (``repro perf``);
  :mod:`~repro.obs.noise` and :mod:`~repro.obs.noisegate` track each
  ciphertext's predicted noise budget and gate the growth model
  (``repro noise``); :mod:`~repro.obs.energy` prices each kernel's
  joules and bytes moved (``repro energy``); :mod:`~repro.obs.slo`
  holds the latency digests, SLO objectives and burn rates behind
  ``repro serve`` and ``repro resil``.
* **Explaining.** :mod:`~repro.obs.profile` — per-tasklet occupancy,
  DMA contention and bottleneck verdicts (``repro profile``);
  :mod:`~repro.obs.forensics` — span-aligned drift attribution,
  change-point scans and differential flamegraphs (``repro why``,
  ``repro forensics``).
* **Storing and rendering.** :mod:`~repro.obs.runident` — the run
  identity stamp (uuid, timestamp, git SHA);
  :mod:`~repro.obs.registry` — the experiment grid and its perf
  cross-check (``repro grid``); :mod:`~repro.obs.htmlreport` — every
  self-contained HTML dashboard.

Quick start::

    from repro import obs

    tracer = obs.Tracer()
    with obs.use_tracer(tracer):
        run_experiment("fig1a")
    obs.write_jsonl(tracer.finished, "trace.jsonl")
    print(obs.render_time_tree(tracer.finished))

Or, without touching code: ``REPRO_TRACE=trace.jsonl repro-experiments
run fig1a``. See ``docs/observability.md``.
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
    # experiment grid dashboard (repro grid)
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
