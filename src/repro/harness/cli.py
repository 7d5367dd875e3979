"""Command-line entry point: ``repro-experiments``.

Subcommands:

* ``list`` — show all registered experiments;
* ``run <id> [<id> ...]`` — run experiments and print their tables;
* ``report [-o FILE]`` — run everything and write the markdown
  paper-vs-measured report (the generator of EXPERIMENTS.md);
* ``platforms`` — describe the modelled platforms;
* ``obs [--trace F] [--chrome F] [--metrics F] [--report] run <id>...``
  — run experiments with tracing enabled and export the spans;
* ``perf record|check|diff|html`` — performance baselines, the
  regression gate (exact modelled times, noise-aware wall times), the
  attribution diff between recorded runs, and the HTML dashboard;
* ``profile <experiment|kernel-spec>`` — the pipeline profiler:
  tasklet occupancy, DMA contention, and a bottleneck verdict per
  kernel, with optional Chrome-trace and HTML exports;
* ``noise record|check|report`` — noise-budget calibration: record
  seeded predicted-vs-measured budget trajectories per security
  level, gate the growth model against them (``NOISE-DRIFT``), and
  render the budget-vs-depth HTML report;
* ``energy record|check|report`` — modelled energy & data movement:
  record per-experiment joules (DPU pipeline/idle/DMA split, host-link
  transfers, CPU/GPU TDP envelopes) and bytes moved per memory level,
  gate the deterministic model against the committed baseline
  (``ENERGY-DRIFT``), and render the energy-per-op / EDP / movement
  dashboard;
* ``faults run`` — the chaos harness: run experiments under a seeded
  fault plan (disabled DPUs, transient launches, transfer corruption,
  stuck tasklets);
* ``grid run|html`` — the experiment grid: price every workload ×
  backend × security × fleet-health × batch cell, cross-check the
  fault-free cells against the perf baseline, report the PIM slowdown
  per experiment as the fleet degrades, write the cells as one JSON
  document, and render it as the dashboard (status heatmap, slowdown
  curves, verdict history);
* ``serve run|sweep|html`` — the batched serving model: simulate a
  seeded open-loop serving point with request-level SLO accounting
  (latency decomposition, streaming percentiles, burn rates), sweep
  offered QPS × security level × fleet health for sustainable
  capacity, and render the capacity dashboard;
* ``resil record|check|html`` — fault-tolerant sharded serving:
  sweep the resilient model (health-aware placement over K
  rank-aligned shards, circuit breakers, retry budgets, hedged
  dispatch) across fault seed × shard count × offered QPS, healthy
  and with one shard's ranks disabled, lock every point's SLO
  attainment exactly (``RESILIENCE-DRIFT``), and render the
  shard-health dashboard;
* ``gates [--skip-wall]`` — every drift gate's ``check`` (perf, noise,
  energy, resil) in one process: one row per gate with its verdict,
  exit code and duration; exits with the worst code;
* ``why <experiment> --against <baseline|run-id>`` — drift forensics:
  re-run one experiment and attribute any drift span by span
  (path-aligned self-time deltas), over the exact model surface, and
  against the energy ledger, with CUSUM change points locating when
  each longitudinal series first shifted; non-zero exit on drift;
* ``forensics html|shifts`` — differential flamegraphs (HTML +
  collapsed-stack text) between two recorded runs, and the
  change-point scan over every longitudinal store (perf / energy /
  noise histories).

Installed as both ``repro-experiments`` and the shorter ``repro``.

Exit codes: 0 success, 1 failure (a failed experiment, a tripped
gate), :data:`EXIT_DATA` (2) when required recorded data — a baseline,
the run history — is missing, empty, or corrupt, so scripts can tell
"nothing usable recorded" from "something regressed". The four drift
gates' ``record``/``check``/``html`` commands are generated from their
:class:`~repro.obs.gate.Gate` specs.

Setting ``REPRO_TRACE`` (see :func:`repro.obs.trace.configure_from_env`)
enables tracing for *any* subcommand and flushes at process exit.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ParameterError, ReproError
from repro.obs.trace import configure_from_env

#: Exit status for "the recorded data this command needs does not
#: exist (yet)" — distinct from 1, which means a real failure.
EXIT_DATA = 2


def _cmd_list(_args) -> int:
    from repro.harness.experiments import EXPERIMENTS

    width = max(len(eid) for eid in EXPERIMENTS)
    for eid, experiment in EXPERIMENTS.items():
        print(f"{eid.ljust(width)}  {experiment.paper_ref}: {experiment.title}")
    return 0


def _run_and_print(ids, keep_going: bool) -> int:
    """Run experiments, print tables, report failures; exit status."""
    from repro.harness.experiments import get_experiment
    from repro.harness.report import format_experiment
    from repro.harness.runner import run_all

    results = run_all(ids, keep_going=keep_going)
    for eid, rows in results.items():
        print(format_experiment(get_experiment(eid), rows))
        print()
    for record in results.failure_records():
        print(
            f"experiment {record['experiment']!r} FAILED: "
            f"{record['error_type']}: {record['message']}",
            file=sys.stderr,
        )
    if results.failures:
        total = len(results) + len(results.failures)
        print(
            f"{len(results.failures)} of {total} experiments failed",
            file=sys.stderr,
        )
    return 1 if results.failures else 0


def _cmd_run(args) -> int:
    return _run_and_print(args.ids, args.keep_going)


def _cmd_report(args) -> int:
    from repro.harness.report import render_markdown_report

    _emit(render_markdown_report(args.ids or None), args.output)
    return 0


def _cmd_obs(args) -> int:
    """Run experiments under a recording tracer and export the spans."""
    from repro.obs.export import render_time_tree, to_chrome_trace, write_jsonl
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.obs.trace import Tracer, use_tracer

    tracer = Tracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        status = _run_and_print(args.ids, args.keep_going)
    spans = tracer.finished
    exported = False
    if args.trace:
        n = write_jsonl(spans, args.trace)
        print(f"wrote {n} spans to {args.trace}", file=sys.stderr)
        exported = True
    if args.chrome:
        _write_chrome(args.chrome, to_chrome_trace(spans))
        exported = True
    if args.metrics:
        import json

        _write(args.metrics, json.dumps(registry.snapshot()) + "\n")
        print(f"wrote metrics snapshot to {args.metrics}", file=sys.stderr)
        exported = True
    if args.tree or not exported:
        print(render_time_tree(spans))
    return status


def _progress(eid: str) -> None:
    print(f"  recording {eid} ...", file=sys.stderr)


def _no_data(message: str, hint: str = "repro perf record") -> int:
    """Report missing recorded data; :data:`EXIT_DATA`, never a trace.

    The record-it-first hint is printed once: a message that already
    names it (a ledger's "record one with '<hint>'") goes out as is.
    """
    if f"'{hint}'" not in message:
        message = f"{message}\nrecord a run first: {hint}"
    print(message, file=sys.stderr)
    return EXIT_DATA


def _load_recorded(loader, *args, hint: str = "repro perf record"):
    """Load recorded data under the EXIT_DATA convention.

    Every subcommand that *reads* recorded artifacts (gate baselines and
    histories, serving sweeps, grid documents) shares
    one failure mode — "the data this command needs is missing or
    unreadable" — reported identically: the loader's
    :class:`~repro.errors.ParameterError` message (naming the file, and
    the line of a history) plus a record-it-first hint on stderr, exit
    status :data:`EXIT_DATA`, never a traceback.

    Returns ``(value, None)`` on success or ``(None, status)`` after
    reporting; callers return ``status`` when it is set.
    """
    try:
        return loader(*args), None
    except ParameterError as exc:
        return None, _no_data(str(exc), hint=hint)


def _read_optional(ledger, path):
    """The document ``ledger`` stores at ``path``; ``None`` when absent."""
    import os

    return ledger.read(path) if os.path.exists(path) else None


def _write(path, document: str) -> None:
    """Write a rendered document to ``path``, creating its directories."""
    import pathlib

    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(document)


def _write_chrome(path, document: dict) -> None:
    """Write a Chrome-trace document: the one ``--chrome`` writer."""
    import json

    _write(path, json.dumps(document))
    print(f"wrote Chrome trace to {path}", file=sys.stderr)


def _emit(document: str, output) -> None:
    """Write a rendered document to ``output``, or print it."""
    if output:
        _write(output, document)
        print(f"wrote {output}")
    else:
        print(document)


def _gate_record(gate, args) -> int:
    """``repro <gate> record``: capture a baseline, append the history."""
    doc = gate.capture(args, _progress)
    gate.ledger.write(doc, args.baseline)
    gate.ledger.append(doc, args.history)
    print(
        f"{gate.recorded(doc)} as run {doc['run_id'][:12]} "
        f"(git {str(doc['git_sha'])[:12]})"
    )
    print(f"baseline written to {args.baseline}; history at {args.history}")
    return 0


def _gate_check(gate, args) -> int:
    """``repro <gate> check``: re-capture and compare; 1 on drift."""
    from repro.obs.gate import exit_code

    baseline, status = _load_recorded(
        gate.ledger.read, args.baseline, hint=gate.ledger.hint
    )
    if baseline is None:
        return status
    current = gate.capture_for_check(baseline, args, _progress)
    gate.ledger.append(current, args.history)
    verdicts = gate.check(baseline, current, args)
    print(gate.render_check(verdicts, baseline, current))
    if args.update:
        gate.ledger.write(current, args.baseline)
        print(f"{gate.ledger.what} re-recorded: {args.baseline}")
        return 0
    return exit_code(verdicts)


def _cmd_gates(args) -> int:
    """``repro gates``: every gate's ``check``, one row per gate.

    Each gate runs as ``repro <gate> check`` with that command's
    defaults (perf gets ``--skip-wall`` when given), so the reports,
    history lines and exit codes are the separate commands'. The exit
    status is the worst gate's.
    """
    import time

    from repro.obs import energy, noisegate, perf
    from repro.serve import resilience

    parser = build_parser()
    rows = []
    for gate in (perf.GATE, noisegate.GATE, energy.GATE, resilience.GATE):
        argv = [gate.name, "check"]
        if gate is perf.GATE and args.skip_wall:
            argv.append("--skip-wall")
        gate_args = parser.parse_args(argv)
        print(f"== repro {' '.join(argv)}")
        start = time.perf_counter()
        try:
            code = gate_args.func(gate_args)
            verdict = {0: "ok", 1: gate.drift, EXIT_DATA: "no data"}[code]
        except ReproError as exc:
            # As main() reports it: one line, exit 1.
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code, verdict = 1, "error"
        rows.append((gate.name, verdict, code, time.perf_counter() - start))
        print()
    width = max(len("verdict"), *(len(verdict) for _, verdict, _, _ in rows))
    print(f"{'gate':<6} {'verdict':<{width}}  exit  seconds")
    for name, verdict, code, seconds in rows:
        print(f"{name:<6} {verdict:<{width}}  {code:>4}  {seconds:7.2f}")
    return max(code for _, _, code, _ in rows)


def _gate_html(gate, args) -> int:
    """``repro <gate> html|report``: render the recorded runs as HTML."""
    loaded, status = _load_recorded(
        lambda: (
            gate.ledger.history(args.history),
            _read_optional(gate.ledger, args.baseline),
        ),
        hint=gate.ledger.hint,
    )
    if loaded is None:
        return status
    history, baseline = loaded
    current = history[-1] if history else baseline
    if current is None:
        return _no_data(
            f"no {gate.ledger.noun} history at {args.history} and no "
            f"baseline at {args.baseline} — nothing to render",
            hint=gate.ledger.hint,
        )
    verdicts = None if baseline is None else gate.check(baseline, current, args)
    _emit(gate.html(current, baseline, history, verdicts), args.output)
    return 0


def _cmd_perf_diff(args) -> int:
    """Attribution diff between two recorded runs."""
    from repro.obs import baseline as bl
    from repro.obs import perf

    history, status = _load_recorded(bl.LEDGER.history, args.history)
    if history is None:
        return status
    if not history:
        return _no_data(
            f"no run history at {args.history} (missing or empty)"
        )
    run_a, status = _load_recorded(bl.find_run, args.run_a, args.history)
    if run_a is None:
        return status
    run_b, status = _load_recorded(bl.find_run, args.run_b, args.history)
    if run_b is None:
        return status
    print(perf.render_diff(run_a, run_b, top_k=args.top))
    return 0


def _cmd_why(args) -> int:
    """Drift forensics for one experiment against a recorded baseline."""
    from repro.harness.experiments import get_experiment
    from repro.obs import baseline as bl
    from repro.obs import energy as en
    from repro.obs import forensics as fx
    from repro.obs import htmlreport

    get_experiment(args.experiment)  # an unknown id is an error, not no data
    baseline_run, status = _load_recorded(
        bl.find_run, args.against, args.history
    )
    if baseline_run is None:
        return status
    if args.experiment not in baseline_run.get("experiments", {}):
        return _no_data(
            f"experiment {args.experiment!r} is not in the baseline run",
            hint=f"repro perf record {args.experiment}",
        )
    loaded, status = _load_recorded(
        lambda: (
            _read_optional(en.LEDGER, args.energy_baseline),
            bl.LEDGER.history(args.history),
            en.LEDGER.history(args.energy_history),
        )
    )
    if loaded is None:
        return status
    energy_baseline, history, energy_history = loaded
    report = fx.why_report(
        args.experiment,
        baseline_run,
        energy_baseline=energy_baseline,
        history=history,
        energy_history=energy_history,
        top_k=args.top,
    )
    print(fx.render_why(report))
    if args.html:
        _write(args.html, htmlreport.render_forensics_report(report))
        print(f"wrote {args.html}")
    if args.collapsed:
        _write(
            args.collapsed,
            fx.to_diff_collapsed(report["families"]["spans"]["aligned"]),
        )
        print(f"wrote {args.collapsed}")
    return fx.why_exit_code(report)


def _cmd_forensics_html(args) -> int:
    """Differential flamegraph report between two recorded runs."""
    from repro.obs import baseline as bl
    from repro.obs import forensics as fx
    from repro.obs import htmlreport

    run_a, status = _load_recorded(bl.find_run, args.run_a, args.history)
    if run_a is None:
        return status
    if args.run_b == "latest":
        history, status = _load_recorded(bl.LEDGER.history, args.history)
        if history is None:
            return status
        if not history:
            return _no_data(
                f"no run history at {args.history} (missing or empty)"
            )
        run_b = history[-1]
    else:
        run_b, status = _load_recorded(
            bl.find_run, args.run_b, args.history
        )
        if run_b is None:
            return status
    report = fx.diff_report(
        run_a, run_b, experiments=args.ids or None, top_k=args.top
    )
    _emit(htmlreport.render_forensics_report(report), args.output)
    if args.collapsed:
        _write(
            args.collapsed,
            "".join(
                fx.to_diff_collapsed(
                    report["experiments"][eid]["spans"]["aligned"]
                )
                for eid in sorted(report["experiments"])
            ),
        )
        print(f"wrote {args.collapsed}")
    return 0


def _cmd_forensics_shifts(args) -> int:
    """CUSUM change-point scan over every longitudinal store."""
    import json as _json

    from repro.obs import baseline as bl
    from repro.obs import energy as en
    from repro.obs import forensics as fx
    from repro.obs import noisegate as ng

    loaded, status = _load_recorded(
        lambda: (
            bl.LEDGER.history(args.history),
            en.LEDGER.history(args.energy_history),
            ng.LEDGER.history(args.noise_history),
        )
    )
    if loaded is None:
        return status
    perf_history, energy_history, noise_history = loaded
    series: dict = {}
    sources = []
    if perf_history:
        series.update(fx.perf_series(perf_history))
        sources.append(f"perf:{args.history}")
    if energy_history:
        series.update(fx.energy_series(energy_history))
        sources.append(f"energy:{args.energy_history}")
    if noise_history:
        series.update(fx.noise_series(noise_history))
        sources.append(f"noise:{args.noise_history}")
    if not series:
        return _no_data(
            "no longitudinal history found (perf, energy or noise)"
        )
    shifts = fx.scan_shifts(series, k_rel=args.k_rel, h_mult=args.h_mult)
    print(f"scanned {len(series)} series from {', '.join(sources)}")
    print(fx.render_shifts(shifts))
    if args.json:
        _write(args.json, _json.dumps(shifts, indent=1, sort_keys=True))
        print(f"wrote {args.json}")
    return 0


def _cmd_faults_run(args) -> int:
    """Run experiments under a seeded fault plan (the chaos harness)."""
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.pim.faults import FaultPlan, RetryPolicy, use_fault_plan

    plan = FaultPlan(
        seed=args.seed,
        dpu_fail_rate=args.dpu_fail_rate,
        transient_rate=args.transient_rate,
        corruption_rate=args.corrupt_rate,
        stuck_rate=args.stuck_rate,
        disable_dpus=args.disable_dpus,
    )
    policy = RetryPolicy(max_attempts=args.max_attempts)
    registry = MetricsRegistry()
    with use_fault_plan(plan, policy), use_registry(registry):
        status = _run_and_print(args.ids, args.keep_going)
    snapshot = registry.snapshot()
    fault_lines = [
        f"  {name}: {data['value']}"
        for name, data in sorted(snapshot.items())
        if name.startswith(("faults.", "pim.effective_dpus", "pim.disabled"))
        and data.get("type") in ("counter", "gauge")
    ]
    print(
        f"fault plan: seed {args.seed}, "
        f"{args.disable_dpus} DPUs disabled by count, rates "
        f"dpu={args.dpu_fail_rate} transient={args.transient_rate} "
        f"corrupt={args.corrupt_rate} stuck={args.stuck_rate}, "
        f"retry budget {args.max_attempts}",
        file=sys.stderr,
    )
    if fault_lines:
        print("fault telemetry:", file=sys.stderr)
        for line in fault_lines:
            print(line, file=sys.stderr)
    else:
        print("fault telemetry: no faults fired", file=sys.stderr)
    return status


def _perf_baseline(path):
    """``(perf baseline or None, None)``, or ``(None, EXIT_DATA)``."""
    from repro.obs import baseline as bl

    return _load_recorded(_read_optional, bl.LEDGER, path)


def _cmd_grid_run(args) -> int:
    """Price every grid cell, cross-check the fault-free ones."""
    import dataclasses

    from repro.obs import registry as regmod
    from repro.obs.gate import exit_code

    overrides = {"seed": args.seed}
    for field, values in (
        ("workloads", args.workloads),
        ("security_bits", args.security),
        ("healthy", args.healthy),
        ("backends", args.backends),
    ):
        if values:
            overrides[field] = tuple(values)
    if args.max_batches is not None:
        overrides["max_batches"] = args.max_batches
    spec = dataclasses.replace(regmod.PRESETS[args.preset], **overrides)
    baseline, status = _perf_baseline(args.baseline)
    if status:
        return status
    cells = regmod.run_grid(spec, keep_going=args.keep_going)
    print(regmod.render_status(spec, cells, baseline))
    if args.output:
        regmod.GRIDS.write(regmod.grid_document(spec, cells), args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    failed = [c for c in cells if c["status"] == regmod.STATUS_FAILED]
    for cell in failed:
        print(f"cell FAILED — {cell['failure_header']}", file=sys.stderr)
    if failed:
        return 1
    return exit_code(regmod.check_against_baseline(cells, baseline))


def _cmd_grid_html(args) -> int:
    """Render a grid document as the HTML dashboard."""
    from repro.obs import baseline as bl
    from repro.obs import htmlreport
    from repro.obs import noisegate as ng
    from repro.obs import perf
    from repro.obs import registry as regmod

    grid, status = _load_recorded(
        regmod.read_grid, args.grid, hint=regmod.GRIDS.hint
    )
    if grid is None:
        return status
    loaded, status = _load_recorded(
        lambda: (
            _read_optional(bl.LEDGER, args.baseline),
            bl.LEDGER.history(args.history),
            _read_optional(ng.LEDGER, args.noise_baseline),
            ng.LEDGER.history(args.noise_history),
        )
    )
    if loaded is None:
        return status
    spec, cells = grid
    baseline, perf_history, noise_baseline, noise_history = loaded
    # Each recorded perf and noise run's verdicts, as `perf check
    # --skip-wall` and `noise check` report them.
    check_args = argparse.Namespace(skip_wall=True)
    gate_runs = [
        (gate.name, doc, gate.check(gate_baseline, doc, check_args))
        for gate, gate_baseline, history in (
            (perf.GATE, baseline, perf_history),
            (ng.GATE, noise_baseline, noise_history),
        )
        if gate_baseline is not None
        for doc in history
    ]
    document = htmlreport.render_grid_dashboard(
        cells,
        spec,
        verdicts=regmod.check_against_baseline(cells, baseline),
        gate_runs=gate_runs,
        slowdowns=regmod.pim_slowdowns(spec, cells),
    )
    _emit(document, args.output)
    return 0


def _serve_spec_from_args(args, security_bits, rate_qps, healthy):
    """One single-class :class:`~repro.serve.service.ServeSpec` from CLI args."""
    from repro.serve import service as serve

    return serve.ServeSpec(
        classes=(
            serve.RequestClass(
                workload=args.workload,
                security_bits=security_bits,
                rate_qps=rate_qps,
                ops_per_request=args.ops_per_request,
            ),
        ),
        duration_s=args.duration,
        seed=args.seed,
        healthy=healthy,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms * 1e-3,
    )


def _cmd_serve_run(args) -> int:
    """Simulate one serving point and print its SLO report."""
    import json

    from repro.serve import service as serve

    spec = _serve_spec_from_args(
        args, args.security, args.qps, args.healthy
    )
    result = serve.simulate(spec)
    serve.emit_request_spans(result)  # no-op unless REPRO_TRACE is set
    print(serve.render_point_text(result))
    if args.output:
        _write(args.output, json.dumps(result.doc, indent=1, sort_keys=True))
        print(f"wrote point document to {args.output}", file=sys.stderr)
    if args.chrome:
        _write_chrome(
            args.chrome, serve.timelines_to_chrome_trace(result.timelines)
        )
    return 0


def _serve_progress(label: str) -> None:
    print(f"  point {label} ...", file=sys.stderr)


def _cmd_serve_sweep(args) -> int:
    """Sweep QPS × security × fleet health; report sustainable capacity."""
    from repro.obs import htmlreport
    from repro.obs.gate import Verdict, exit_code
    from repro.serve import service as serve

    baseline = None
    if not args.skip_baseline:
        baseline, status = _perf_baseline(args.baseline)
        if status:
            return status

    doc = serve.sweep_capacity(
        workload=args.workload,
        security_levels=args.security,
        healthy_grid=args.healthy,
        qps_grid=args.qps,
        duration_s=args.duration,
        seed=args.seed,
        ops_per_request=args.ops_per_request,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms * 1e-3,
        baseline=baseline,
        progress=_serve_progress,
    )
    print(serve.render_sweep_text(doc))
    if args.output:
        serve.SWEEPS.write(doc, args.output)
        print(f"wrote sweep document to {args.output}", file=sys.stderr)
    if args.html:
        _write(args.html, htmlreport.render_serve_report(doc))
        print(f"wrote capacity dashboard to {args.html}", file=sys.stderr)
    if args.chrome:
        # One representative point's request timelines: the highest
        # security level at full offered load on the healthiest fleet.
        spec = _serve_spec_from_args(
            args,
            max(args.security),
            max(args.qps),
            max(args.healthy),
        )
        _write_chrome(
            args.chrome,
            serve.timelines_to_chrome_trace(serve.simulate(spec).timelines),
        )
    return exit_code(
        Verdict(row["experiment"], row["verdict"])
        for row in doc.get("baseline_check", [])
    )


def _cmd_serve_html(args) -> int:
    """Render a recorded serving sweep as the capacity dashboard."""
    from repro.obs import htmlreport
    from repro.serve import service as serve

    doc, status = _load_recorded(
        serve.SWEEPS.read, args.sweep, hint=serve.SWEEPS.hint
    )
    if doc is None:
        return status
    _emit(htmlreport.render_serve_report(doc), args.output)
    return 0


def _cmd_profile(args) -> int:
    """Profile the pipeline: occupancy, DMA contention, verdicts.

    The target is an experiment id (the experiment runs under a
    recording tracer and every distinct kernel launch is re-simulated)
    or a kernel spec like ``vec_mul:128`` (one DPU is simulated
    directly at ``--elements`` / ``--tasklets``).
    """
    from repro.harness.experiments import EXPERIMENTS
    from repro.obs import export, htmlreport
    from repro.obs import profile as prof

    tolerance = (
        args.tolerance
        if args.tolerance is not None
        else prof.DEFAULT_TOLERANCE
    )
    spans = []
    if args.target in EXPERIMENTS:
        spans, profiles = prof.profile_experiment(
            args.target,
            tolerance=tolerance,
            max_elements=args.max_elements,
        )
        header = f"pipeline profile — experiment {args.target}"
    else:
        kernel = prof.kernel_from_spec(args.target)
        profiles = [
            prof.profile_kernel(
                kernel,
                n_elements=args.elements,
                tasklets=args.tasklets,
                tolerance=tolerance,
            )
        ]
        header = f"pipeline profile — kernel {args.target}"

    print(prof.render_profiles_text(profiles, header=header))
    if args.chrome:
        documents = []
        if spans:
            documents.append(export.to_chrome_trace(spans))
        documents.extend(
            p.trace.to_chrome_trace(process_name=f"DPU sim: {p.label}")
            for p in profiles
        )
        if documents:
            _write_chrome(args.chrome, export.merge_chrome_traces(documents))
        else:
            print(
                f"nothing to export to {args.chrome}: no spans and no "
                "kernel launches",
                file=sys.stderr,
            )
    if args.html:
        _write(args.html, htmlreport.render_profile_report(profiles, title=header))
        print(f"wrote HTML report to {args.html}", file=sys.stderr)
    return 0


def _cmd_platforms(_args) -> int:
    from repro.backends.registry import BACKEND_ORDER, get_backend

    for name in BACKEND_ORDER:
        print(f"{name}: {get_backend(name).describe()}")
    return 0


def _cmd_scorecard(_args) -> int:
    from repro.harness.scorecard import render_scorecard

    print(render_scorecard())
    return 0


def _cmd_chart(args) -> int:
    from repro.harness.charts import render_experiment_chart
    from repro.harness.experiments import get_experiment

    for eid in args.ids:
        experiment = get_experiment(eid)
        print(render_experiment_chart(experiment, experiment.run(), args.width))
        print()
    return 0


def _cmd_verify(_args) -> int:
    """Run the functional pipelines end to end on a small ring.

    Exercises encrypt → evaluate → decrypt for every workload plus the
    rotation and device-kernel paths; each step asserts exact agreement
    with plaintext references internally.
    """
    from repro.core import BFVParameters, KeyGenerator
    from repro.core.galois import rotate_rows
    from repro.pim.executor import DeviceEvaluator
    from repro.poly.modring import find_ntt_prime
    from repro.workloads.context import WorkloadContext
    from repro.workloads.linreg import LinearRegressionWorkload
    from repro.workloads.mean import MeanWorkload
    from repro.workloads.variance import VarianceWorkload
    from repro.workloads.vectorops import VectorAddWorkload, VectorMulWorkload
    from repro.workloads.covariance import CovarianceWorkload

    params = BFVParameters(
        poly_degree=64,
        coeff_modulus=find_ntt_prime(60, 64),
        plain_modulus=257,
    )
    context = WorkloadContext.from_params(params, seed=17)
    print(f"verification ring: {params.describe()}")

    checks = [
        ("vector addition", lambda: VectorAddWorkload().run_functional(context, batch=2)),
        ("vector multiplication", lambda: VectorMulWorkload().run_functional(context, batch=1)),
        ("arithmetic mean", lambda: MeanWorkload().run_functional(
            context, n_users=6, samples_per_user=3, high=8)),
        ("variance", lambda: VarianceWorkload().run_functional(
            context, n_users=5, samples_per_user=2, high=5)),
        ("linear regression", lambda: LinearRegressionWorkload().run_functional(
            context, n_samples=8, feature_high=3, noise=1)),
        ("covariance", lambda: CovarianceWorkload().run_functional(
            context, n_users=5, samples_per_user=2, high=5)),
    ]

    def rotation_check():
        keygen = KeyGenerator(params, seed=17)
        galois = keygen.generate_galois_keys(context.keys.secret_key, steps=[1])
        row = params.poly_degree // 2
        values = list(range(-8, 8)) + [0] * (row - 16)  # one full row
        rotated = rotate_rows(context.encrypt_slots(values), 1, galois)
        expected = values[1:] + values[:1] + [0] * row  # row 1 is empty
        got = context.decrypt_slots(rotated)
        assert got == expected, (got, expected)
        return True

    def device_kernel_check():
        device = DeviceEvaluator(params)
        a = context.encrypt_slots([1, 2, 3])
        b = context.encrypt_slots([10, 20, 30])
        device_sum, _run = device.add(a, b)
        host_sum = context.evaluator.add(a, b)
        assert device_sum == host_sum
        return True

    checks.append(("slot rotation (Galois)", rotation_check))
    checks.append(("device-kernel addition", device_kernel_check))

    for name, check in checks:
        check()
        print(f"  {name}: OK")
    print("all functional verifications passed")
    return 0


def _add_output(parser) -> None:
    parser.add_argument("-o", "--output", help="output file (default: stdout)")


def _add_keep_going(parser) -> None:
    parser.add_argument(
        "-k",
        "--keep-going",
        action="store_true",
        help="on a per-experiment failure, report it and continue",
    )


def _add_history(parser, gate, prefix: str = "") -> None:
    """``--<prefix>history``: the gate's run-history JSONL."""
    parser.add_argument(
        f"--{prefix}history",
        default=gate.history_path,
        metavar="FILE",
        help=f"{gate.ledger.noun} run-history JSONL "
        f"(default: {gate.history_path})",
    )


def _add_ledger_paths(parser, gate, prefix: str = "") -> None:
    """``--<prefix>baseline`` and ``--<prefix>history`` for a gate."""
    parser.add_argument(
        f"--{prefix}baseline",
        default=gate.baseline_path,
        metavar="FILE",
        help=f"{gate.ledger.what} JSON (default: {gate.baseline_path})",
    )
    _add_history(parser, gate, prefix)


def _add_gate(sub, gate):
    """``repro <gate> record|check|<html>`` from a gate spec.

    Every command gets the gate's own options plus ``--baseline`` and
    ``--history``; ``check`` adds ``--update`` and the HTML command
    ``-o``. Returns the gate's subparsers for extra commands.
    """
    import functools

    parser = sub.add_parser(
        gate.name, help=gate.help, description=gate.description
    )
    commands = parser.add_subparsers(
        dest=f"{gate.name}_command", required=True
    )
    for command, help_text in gate.commands.items():
        handler = {"record": _gate_record, "check": _gate_check}.get(
            command, _gate_html
        )
        command_parser = commands.add_parser(command, help=help_text)
        if handler is _gate_html:
            _add_output(command_parser)
        gate.add_arguments(command_parser, command)
        if handler is _gate_check:
            command_parser.add_argument(
                "--update",
                action="store_true",
                help="adopt the current run as the new baseline (exit 0)",
            )
        _add_ledger_paths(command_parser, gate)
        command_parser.set_defaults(func=functools.partial(handler, gate))
    return commands


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the experiments of 'Evaluating Homomorphic "
            "Operations on a Real-World Processing-In-Memory System' "
            "(IISWC 2023)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments").set_defaults(
        func=_cmd_list
    )

    run_parser = sub.add_parser("run", help="run experiments and print tables")
    run_parser.add_argument("ids", nargs="+", help="experiment ids")
    _add_keep_going(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    report_parser = sub.add_parser(
        "report", help="write the markdown paper-vs-model report"
    )
    report_parser.add_argument("ids", nargs="*", help="subset of experiments")
    _add_output(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    obs_parser = sub.add_parser(
        "obs",
        help="run experiments with tracing enabled and export the trace",
    )
    obs_parser.add_argument(
        "--trace", metavar="FILE", help="write spans as JSONL to FILE"
    )
    obs_parser.add_argument(
        "--chrome",
        metavar="FILE",
        help="write a chrome://tracing / Perfetto JSON trace to FILE",
    )
    obs_parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the metrics-registry snapshot as JSON to FILE",
    )
    obs_parser.add_argument(
        "--tree",
        action="store_true",
        help="print the text time-attribution tree (default when no "
        "export file is given)",
    )
    _add_keep_going(obs_parser)
    obs_parser.add_argument(
        "action",
        choices=("run",),
        help="what to do under tracing (currently: run)",
    )
    obs_parser.add_argument("ids", nargs="+", help="experiment ids")
    obs_parser.set_defaults(func=_cmd_obs)

    from repro.obs import energy, noisegate, perf
    from repro.serve import resilience

    gates_parser = sub.add_parser(
        "gates",
        help="check every drift gate (perf, noise, energy, resil) in one "
        "process",
        description=(
            "Run each gate's check as 'repro <gate> check' does, with "
            "its defaults, and print one row per gate: verdict, exit "
            "code and duration. Exits with the worst code."
        ),
    )
    gates_parser.add_argument(
        "--skip-wall",
        action="store_true",
        help="pass --skip-wall to the perf check",
    )
    gates_parser.set_defaults(func=_cmd_gates)

    perf_sub = _add_gate(sub, perf.GATE)
    diff_parser = perf_sub.add_parser(
        "diff", help="attribution diff between two recorded runs"
    )
    diff_parser.add_argument(
        "run_a", help="run JSON file, or run-id prefix in the history"
    )
    diff_parser.add_argument(
        "run_b", help="run JSON file, or run-id prefix in the history"
    )
    diff_parser.add_argument(
        "--top", type=int, default=10, help="rows per experiment"
    )
    _add_ledger_paths(diff_parser, perf.GATE)
    diff_parser.set_defaults(func=_cmd_perf_diff)

    from repro.obs.forensics import H_MULT as _H_MULT
    from repro.obs.forensics import K_REL as _K_REL

    _PERF_BASELINE = perf.GATE.baseline_path

    why_parser = sub.add_parser(
        "why",
        help="drift forensics: explain one experiment's drift against a "
        "recorded baseline",
        description=(
            "Re-run one experiment and attribute any drift against a "
            "recorded baseline: span-path-aligned self-time deltas "
            "(which span moved), the exact model surface (series "
            "totals, counters, transfer split), the energy ledger, and "
            "CUSUM change points over the longitudinal history (when "
            "it started). Non-zero exit on any drift. See "
            "docs/observability.md."
        ),
    )
    why_parser.add_argument(
        "experiment", help="experiment id (run 'repro list')"
    )
    why_parser.add_argument(
        "--against",
        default=_PERF_BASELINE,
        metavar="BASELINE|RUN-ID",
        help="baseline JSON file, or run-id prefix in the history "
        f"(default: {_PERF_BASELINE})",
    )
    _add_history(why_parser, perf.GATE)
    _add_ledger_paths(why_parser, energy.GATE, "energy-")
    why_parser.add_argument(
        "--top", type=int, default=10, help="contributors per family"
    )
    why_parser.add_argument(
        "--html",
        metavar="FILE",
        help="write the forensics HTML report (differential flamegraph) "
        "to FILE",
    )
    why_parser.add_argument(
        "--collapsed",
        metavar="FILE",
        help="write the differential collapsed-stack text to FILE",
    )
    why_parser.set_defaults(func=_cmd_why)

    forensics_parser = sub.add_parser(
        "forensics",
        help="differential flamegraphs and change-point scans over "
        "recorded runs",
        description=(
            "Run-comparison forensics over the recorded stores: "
            "'html' aligns two recorded runs span by span and renders "
            "differential flamegraphs; 'shifts' runs CUSUM "
            "change-point detection over every longitudinal series "
            "(the perf, energy and noise histories), "
            "flagging the first git SHA of each shift."
        ),
    )
    forensics_sub = forensics_parser.add_subparsers(
        dest="forensics_command", required=True
    )

    forensics_html = forensics_sub.add_parser(
        "html",
        help="differential flamegraph report between two recorded runs",
    )
    forensics_html.add_argument(
        "ids", nargs="*", help="restrict to these experiments"
    )
    forensics_html.add_argument(
        "--run-a",
        default=_PERF_BASELINE,
        metavar="RUN",
        help="run JSON file, or run-id prefix in the history "
        f"(default: {_PERF_BASELINE})",
    )
    forensics_html.add_argument(
        "--run-b",
        default="latest",
        metavar="RUN",
        help="run JSON file, run-id prefix, or 'latest' "
        "(default: the newest history entry)",
    )
    _add_history(forensics_html, perf.GATE)
    forensics_html.add_argument(
        "--top", type=int, default=10, help="contributors per experiment"
    )
    _add_output(forensics_html)
    forensics_html.add_argument(
        "--collapsed",
        metavar="FILE",
        help="write the differential collapsed-stack text to FILE",
    )
    forensics_html.set_defaults(func=_cmd_forensics_html)

    forensics_shifts = forensics_sub.add_parser(
        "shifts",
        help="CUSUM change-point scan over the longitudinal stores",
    )
    _add_history(forensics_shifts, perf.GATE)
    _add_history(forensics_shifts, energy.GATE, "energy-")
    _add_history(forensics_shifts, noisegate.GATE, "noise-")
    forensics_shifts.add_argument(
        "--k-rel",
        type=float,
        default=_K_REL,
        help="CUSUM allowance as a fraction of the regime mean "
        f"(default: {_K_REL})",
    )
    forensics_shifts.add_argument(
        "--h-mult",
        type=float,
        default=_H_MULT,
        help="CUSUM decision threshold in allowances "
        f"(default: {_H_MULT})",
    )
    forensics_shifts.add_argument(
        "--json", metavar="FILE", help="write the shift records as JSON"
    )
    forensics_shifts.set_defaults(func=_cmd_forensics_shifts)

    _add_gate(sub, noisegate.GATE)
    _add_gate(sub, energy.GATE)

    faults_parser = sub.add_parser(
        "faults",
        help="chaos harness: run experiments under injected faults",
        description=(
            "Deterministic fault injection for the PIM model: run "
            "experiments under a seeded FaultPlan (disabled DPUs, "
            "transient launch failures, transfer corruption, stuck "
            "tasklets). Same seed, same faults, same modelled times — "
            "see docs/robustness.md. 'repro grid run --healthy ...' "
            "reports the PIM slowdown across degraded fleets."
        ),
    )
    faults_sub = faults_parser.add_subparsers(
        dest="faults_command", required=True
    )

    faults_run = faults_sub.add_parser(
        "run", help="run experiments under a seeded fault plan"
    )
    faults_run.add_argument("ids", nargs="+", help="experiment ids")
    faults_run.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (default: 0)"
    )
    faults_run.add_argument(
        "--dpu-fail-rate",
        type=float,
        default=0.0,
        help="probability each DPU is permanently disabled (default: 0)",
    )
    faults_run.add_argument(
        "--transient-rate",
        type=float,
        default=0.0,
        help="probability a kernel launch fails transiently (default: 0)",
    )
    faults_run.add_argument(
        "--corrupt-rate",
        type=float,
        default=0.0,
        help="probability a guarded host<->DPU transfer is corrupted "
        "(default: 0)",
    )
    faults_run.add_argument(
        "--stuck-rate",
        type=float,
        default=0.0,
        help="probability a launch hits a stuck-tasklet timeout "
        "(default: 0)",
    )
    faults_run.add_argument(
        "--disable-dpus",
        type=int,
        default=0,
        help="fuse off this many hash-ranked DPUs (the paper's "
        "2,560 -> 2,524 situation; default: 0)",
    )
    faults_run.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="launch attempts before PermanentDeviceError (default: 3)",
    )
    _add_keep_going(faults_run)
    faults_run.set_defaults(func=_cmd_faults_run)

    grid_parser = sub.add_parser(
        "grid",
        help="price the full experiment grid and cross-check it against "
        "the perf baseline",
        description=(
            "The workload × backend × security × fleet-health × batch "
            "grid. 'run' prices every cell (a pure function of its "
            "coordinates and the fault seed), prints the status and "
            "cross-checks the fault-free cells bit-for-bit against the "
            "committed perf baseline (MODEL-DRIFT otherwise); with -o it "
            "writes the cells as one JSON document, which 'html' "
            "renders. See docs/observability.md."
        ),
    )
    grid_sub = grid_parser.add_subparsers(dest="grid_command", required=True)

    def _grid_baseline(p) -> None:
        from repro.obs.baseline import DEFAULT_BASELINE_PATH

        p.add_argument(
            "--baseline",
            default=DEFAULT_BASELINE_PATH,
            metavar="FILE",
            help="perf baseline to cross-check fault-free cells against "
            f"(default: {DEFAULT_BASELINE_PATH})",
        )

    grid_run = grid_sub.add_parser(
        "run", help="price every grid cell and cross-check the baseline"
    )
    grid_run.add_argument(
        "--preset",
        choices=("paper", "tiny"),
        default="paper",
        help="'paper': every workload/backend/security level; 'tiny': "
        "a truncated CI-sized grid (default: paper)",
    )
    grid_run.add_argument(
        "--workloads", nargs="+", metavar="W", help="workloads to enumerate"
    )
    grid_run.add_argument(
        "--security",
        nargs="+",
        type=int,
        metavar="BITS",
        help="security levels to enumerate (default: 27 54 109)",
    )
    grid_run.add_argument(
        "--healthy",
        nargs="+",
        type=float,
        metavar="FRACTION",
        help="fleet-health fractions to enumerate (default: 1.0 0.9 0.8)",
    )
    grid_run.add_argument(
        "--backends", nargs="+", metavar="B", help="backends to enumerate"
    )
    grid_run.add_argument(
        "--max-batches",
        type=int,
        default=None,
        metavar="N",
        help="truncate every workload's batch list to its first N sizes",
    )
    grid_run.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (default: 0)"
    )
    grid_run.add_argument(
        "-k",
        "--keep-going",
        action="store_true",
        help="record a failing cell (type, message, fault class) "
        "and continue",
    )
    _grid_baseline(grid_run)
    grid_run.add_argument(
        "-o", "--output", metavar="FILE", help="write the grid document to FILE"
    )
    grid_run.set_defaults(func=_cmd_grid_run)

    grid_html = grid_sub.add_parser(
        "html",
        help="render a grid document as the dashboard (heatmap, "
        "slowdown curves, verdict history)",
    )
    grid_html.add_argument(
        "--grid",
        default="grid.json",
        metavar="FILE",
        help="grid document written by 'repro grid run -o' "
        "(default: grid.json)",
    )
    _grid_baseline(grid_html)
    _add_output(grid_html)
    _add_history(grid_html, perf.GATE)
    _add_ledger_paths(grid_html, noisegate.GATE, "noise-")
    grid_html.set_defaults(func=_cmd_grid_html)

    serve_parser = sub.add_parser(
        "serve",
        help="batched serving model: request-level SLOs, capacity "
        "sweeps, and the capacity dashboard",
        description=(
            "Simulate a deterministic batched serving point over the "
            "PIM model — seeded open-loop arrivals, per-class batch "
            "formation, a serial device timeline priced by the exact "
            "experiment pricing path — and account request-level SLOs "
            "(streaming latency percentiles, burn rates, error "
            "budgets). 'sweep' answers the capacity question: the QPS "
            "one node sustains per security level at each fleet-health "
            "point. Zero-fault points are cross-checked bit-for-bit "
            "against the committed perf baseline (MODEL-DRIFT "
            "otherwise). See docs/observability.md."
        ),
    )
    serve_sub = serve_parser.add_subparsers(
        dest="serve_command", required=True
    )

    def _serve_common(p) -> None:
        p.add_argument(
            "--workload",
            default="vec_add",
            help="request-class workload (default: vec_add)",
        )
        p.add_argument(
            "--duration",
            type=float,
            default=0.5,
            metavar="S",
            help="modelled arrival window in seconds (default: 0.5)",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=0,
            help="seed for arrivals and the fault plan (default: 0)",
        )
        p.add_argument(
            "--ops-per-request",
            type=int,
            default=64,
            metavar="N",
            help="ciphertext operations bundled per request (default: 64)",
        )
        p.add_argument(
            "--max-batch",
            type=int,
            default=64,
            metavar="N",
            help="requests per shared kernel launch (default: 64)",
        )
        p.add_argument(
            "--max-wait-ms",
            type=float,
            default=2.0,
            metavar="MS",
            help="batch-formation timer in milliseconds (default: 2)",
        )
        p.add_argument(
            "--chrome",
            metavar="FILE",
            help="write request timelines as a Perfetto trace "
            "(one process per request class) to FILE",
        )

    serve_run = serve_sub.add_parser(
        "run", help="simulate one serving point and print the SLO report"
    )
    serve_run.add_argument(
        "--security",
        type=int,
        default=109,
        metavar="BITS",
        help="security level (default: 109)",
    )
    serve_run.add_argument(
        "--qps",
        type=float,
        default=1000.0,
        help="offered request rate (default: 1000)",
    )
    serve_run.add_argument(
        "--healthy",
        type=float,
        default=1.0,
        metavar="FRACTION",
        help="fleet-health fraction (default: 1.0)",
    )
    serve_run.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the point document JSON to FILE",
    )
    _serve_common(serve_run)
    serve_run.set_defaults(func=_cmd_serve_run)

    serve_sweep = serve_sub.add_parser(
        "sweep",
        help="sweep QPS × security × fleet health; report sustainable "
        "capacity",
    )
    serve_sweep.add_argument(
        "--security",
        nargs="+",
        type=int,
        default=[27, 54, 109],
        metavar="BITS",
        help="security levels to sweep (default: 27 54 109)",
    )
    serve_sweep.add_argument(
        "--qps",
        nargs="+",
        type=float,
        default=[1000.0, 4000.0, 16000.0],
        help="offered rates to sweep (default: 1000 4000 16000)",
    )
    serve_sweep.add_argument(
        "--healthy",
        nargs="+",
        type=float,
        default=[1.0, 0.9, 0.8],
        metavar="FRACTION",
        help="fleet-health fractions to sweep (default: 1.0 0.9 0.8)",
    )
    serve_sweep.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the sweep document JSON to FILE",
    )
    serve_sweep.add_argument(
        "--html",
        metavar="FILE",
        help="write the capacity dashboard HTML to FILE",
    )
    serve_sweep.add_argument(
        "--baseline",
        default="baselines/perf.json",
        metavar="FILE",
        help="perf baseline for the zero-fault bit-identity cross-check "
        "(default: baselines/perf.json)",
    )
    serve_sweep.add_argument(
        "--skip-baseline",
        action="store_true",
        help="skip the zero-fault baseline cross-check",
    )
    _serve_common(serve_sweep)
    serve_sweep.set_defaults(func=_cmd_serve_sweep)

    serve_html = serve_sub.add_parser(
        "html",
        help="render a recorded serving sweep as the capacity dashboard",
    )
    serve_html.add_argument(
        "--sweep",
        default="serve-sweep.json",
        metavar="FILE",
        help="sweep JSON recorded by 'repro serve sweep -o' "
        "(default: serve-sweep.json)",
    )
    _add_output(serve_html)
    serve_html.set_defaults(func=_cmd_serve_html)

    _add_gate(sub, resilience.GATE)

    profile_parser = sub.add_parser(
        "profile",
        help="profile the pipeline: tasklet occupancy, DMA contention, "
        "bottleneck verdicts",
        description=(
            "Re-simulate kernel launches cycle by cycle and report "
            "per-tasklet occupancy (with every stall cycle attributed), "
            "DMA-engine contention, load balance, and a bottleneck "
            "verdict cross-checked against the analytic cost model. "
            "The target is an experiment id (run 'repro list') or a "
            "kernel spec such as vec_mul:128."
        ),
    )
    profile_parser.add_argument(
        "target", help="experiment id, or kernel spec like vec_mul:128"
    )
    profile_parser.add_argument(
        "--elements",
        type=int,
        default=256,
        help="elements per DPU for kernel specs (default: 256)",
    )
    profile_parser.add_argument(
        "--tasklets",
        type=int,
        default=16,
        help="tasklets per DPU for kernel specs (default: 16)",
    )
    profile_parser.add_argument(
        "--max-elements",
        type=int,
        default=256,
        help="cap on simulated elements/DPU when profiling an "
        "experiment (default: 256)",
    )
    profile_parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="sim-vs-analytic disagreement tolerance (fraction; "
        "default: the profiler's)",
    )
    profile_parser.add_argument(
        "--chrome",
        metavar="FILE",
        help="write a merged Perfetto trace (host spans + one process "
        "per simulated kernel) to FILE",
    )
    profile_parser.add_argument(
        "--html",
        metavar="FILE",
        help="write the occupancy/stall HTML report to FILE",
    )
    profile_parser.set_defaults(func=_cmd_profile)

    sub.add_parser(
        "platforms", help="describe the modelled platforms"
    ).set_defaults(func=_cmd_platforms)

    sub.add_parser(
        "scorecard",
        help="classify every paper claim against the model's ratios",
    ).set_defaults(func=_cmd_scorecard)

    chart_parser = sub.add_parser(
        "chart", help="draw experiments as terminal bar charts"
    )
    chart_parser.add_argument("ids", nargs="+", help="experiment ids")
    chart_parser.add_argument(
        "-w", "--width", type=int, default=48, help="bar width in characters"
    )
    chart_parser.set_defaults(func=_cmd_chart)

    sub.add_parser(
        "verify",
        help="run every workload end to end on a small ring and check "
        "against plaintext references",
    ).set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    configure_from_env()  # honour the REPRO_TRACE switch
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # A library error names its cause; a traceback adds nothing.
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
