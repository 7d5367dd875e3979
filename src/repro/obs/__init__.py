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

This package init imports none of them: import each from its module.
Quick start::

    from repro.harness.runner import run_experiment
    from repro.obs.export import render_time_tree, write_jsonl
    from repro.obs.trace import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        run_experiment("fig1a")
    write_jsonl(tracer.finished, "trace.jsonl")
    print(render_time_tree(tracer.finished))

Or, without touching code: ``REPRO_TRACE=trace.jsonl repro-experiments
run fig1a``. See ``docs/observability.md``.
"""
