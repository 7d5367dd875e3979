"""Regression policies and attribution diffs over recorded perf runs.

Two deliberately different comparison policies, one per clock domain:

* **Modelled time is exact.** The cost model is deterministic — the
  same tree must reproduce every modelled series total bit-for-bit.
  Any difference means the *model itself* changed (a kernel cost
  constant, a work-distribution rule, a backend price) and is reported
  as ``MODEL-DRIFT``: never auto-accepted, always re-baselined
  deliberately (``repro perf check --update``). Launch counts,
  limb-op tallies, and the host<->DPU transfer split are held to the
  same exact standard — they are model outputs too.
* **Wall time is noisy.** The Python process's wall cost moves with
  the machine, so the policy compares the current median against the
  baseline median with a threshold scaled by the *baseline's own
  dispersion*: ``threshold = max(min_rel, spread_factor * spread)``.
  Outside the band: ``REGRESSION`` (slower) or ``faster``; inside:
  ``ok``.

Verdict severity: ``MODEL-DRIFT`` > ``REGRESSION`` > ``new`` >
``faster`` > ``ok``; the gate fails (:func:`repro.obs.gate.exit_code`)
iff any experiment drifted or regressed. :data:`GATE` is the
``repro perf`` spec.
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.obs import baseline as bl
from repro.obs import gate, htmlreport

__all__ = [
    "GATE",
    "classify_wall",
    "modelled_drift",
    "baseline_pairs",
    "check_runs",
    "diff_runs",
    "render_diff",
]

#: Wall-time policy defaults: the regression threshold is
#: ``max(MIN_REL_THRESHOLD, SPREAD_FACTOR * baseline spread)``.
MIN_REL_THRESHOLD = 0.25
SPREAD_FACTOR = 3.0


# -- policies ---------------------------------------------------------------


def classify_wall(
    baseline_wall: dict,
    current_wall: dict,
    min_rel: float = MIN_REL_THRESHOLD,
    spread_factor: float = SPREAD_FACTOR,
) -> tuple:
    """(verdict, ratio) for the noisy wall-clock domain.

    The threshold adapts to how noisy the baseline itself was: an
    experiment whose recorded repeats spread 20% gets a wider band
    than one that was stable to 1%.
    """
    base = baseline_wall["median_s"]
    cur = current_wall["median_s"]
    if base <= 0:
        return gate.VERDICT_OK, None
    ratio = cur / base
    threshold = max(min_rel, spread_factor * baseline_wall.get("spread", 0.0))
    if ratio > 1.0 + threshold:
        return gate.VERDICT_REGRESSION, ratio
    if ratio < 1.0 / (1.0 + threshold):
        return gate.VERDICT_FASTER, ratio
    return gate.VERDICT_OK, ratio


def _exact_diffs(label: str, base: dict, cur: dict) -> list:
    """Human-readable differences between two exact-valued mappings."""
    notes = []
    for key in sorted(set(base) | set(cur)):
        b, c = base.get(key), cur.get(key)
        if b != c:
            notes.append(f"{label} {key}: baseline {b!r} -> current {c!r}")
    return notes


def modelled_drift(baseline_exp: dict, current_exp: dict) -> list:
    """Every exact-domain difference for one experiment (empty = none).

    Covers the modelled series totals, row count, kernel-launch and
    limb-op counters, and the transfer split — the full deterministic
    surface of the cost model.
    """
    notes = []
    base_mod, cur_mod = baseline_exp["modelled"], current_exp["modelled"]
    notes += _exact_diffs(
        "series", base_mod["series_totals"], cur_mod["series_totals"]
    )
    if base_mod["n_rows"] != cur_mod["n_rows"]:
        notes.append(
            f"n_rows: baseline {base_mod['n_rows']} -> "
            f"current {cur_mod['n_rows']}"
        )
    base_c, cur_c = baseline_exp["counters"], current_exp["counters"]
    for scalar in ("kernel_launches", "compute_bound", "dma_bound"):
        if base_c.get(scalar) != cur_c.get(scalar):
            notes.append(
                f"counter {scalar}: baseline {base_c.get(scalar)} -> "
                f"current {cur_c.get(scalar)}"
            )
    notes += _exact_diffs(
        "kernel launches", base_c.get("kernels", {}), cur_c.get("kernels", {})
    )
    notes += _exact_diffs(
        "limb_ops", base_c.get("limb_ops", {}), cur_c.get("limb_ops", {})
    )
    notes += _exact_diffs(
        "transfer", baseline_exp["transfer"], current_exp["transfer"]
    )
    return notes


def baseline_pairs(totals: dict, baseline: dict, backends) -> list:
    """Pair each priced (experiment, backend) total with the baseline's.

    ``totals`` maps experiment id -> {backend: modelled ms}, summed
    elsewhere (grid cells, serving launches) in the experiment's batch
    order. Every backend in ``backends`` gets one row per experiment, in
    ``totals`` order: ``{experiment, backend, expected_ms, got_ms,
    verdict}``. The verdict is ``new`` when the baseline has no such
    series total, ``partial`` when ``totals`` has none yet, and
    otherwise ``ok`` or ``MODEL-DRIFT`` by exact float equality — the
    modelled-exactness policy of :func:`modelled_drift`.
    """
    recorded = baseline.get("experiments", {})
    rows = []
    for eid, got in totals.items():
        series = recorded.get(eid, {}).get("modelled", {}).get("series_totals", {})
        for backend in backends:
            got_ms, expected_ms = got.get(backend), series.get(backend)
            if expected_ms is None:
                verdict = gate.VERDICT_NEW
            elif got_ms is None:
                verdict = gate.VERDICT_PARTIAL
            elif got_ms == expected_ms:
                verdict = gate.VERDICT_OK
            else:
                verdict = gate.MODEL_DRIFT
            rows.append(
                {
                    "experiment": eid,
                    "backend": backend,
                    "expected_ms": expected_ms,
                    "got_ms": got_ms,
                    "verdict": verdict,
                }
            )
    return rows


def check_runs(
    baseline: dict, current: dict, skip_wall: bool = False
) -> list:
    """Compare a current run against a baseline, one verdict each.

    Experiments present only in the current run are ``new`` (recorded
    but uncomparable — re-baseline to adopt them); baseline experiments
    absent from the current run are simply not checked (the caller
    chose a subset). Each row's detail is its wall ratio.
    """
    verdicts = []
    for eid, cur_exp in current["experiments"].items():
        base_exp = baseline["experiments"].get(eid)
        ratio = None
        if base_exp is None:
            label, notes = gate.VERDICT_NEW, (gate.NEW_NOTE,)
        else:
            notes = modelled_drift(base_exp, cur_exp)
            label = gate.MODEL_DRIFT if notes else gate.VERDICT_OK
            if not notes and not skip_wall:
                label, ratio = classify_wall(base_exp["wall"], cur_exp["wall"])
        detail = "wall skipped" if ratio is None else f"wall x{ratio:.2f}"
        verdicts.append(GATE.verdict(eid, notes, label, detail))
    return verdicts


# -- attribution diff -------------------------------------------------------


def diff_runs(run_a: dict, run_b: dict, top_k: int = 10) -> dict:
    """Which spans account for the delta between two recorded runs.

    For every experiment present in both runs, the per-span-name
    attribution tables are aligned and ranked through the forensics
    helpers (:func:`repro.obs.forensics.align_trees` /
    :func:`~repro.obs.forensics.rank_contributors` — the same code path
    ``repro why`` uses) by absolute modelled-seconds delta (wall delta
    as tiebreak); the top-k rows are returned per experiment as
    ``(name, modelled_a, modelled_b, wall_a, wall_b)`` tuples.
    """
    # Deferred: repro.obs.forensics imports this module at its top.
    from repro.obs import forensics

    if top_k < 1:
        raise ParameterError(f"top_k must be >= 1: {top_k}")
    diffs: dict = {}
    for eid in run_a["experiments"]:
        if eid not in run_b["experiments"]:
            continue
        rows = forensics.rank_contributors(
            forensics.align_trees(
                forensics.tree_from_attribution(
                    run_a["experiments"][eid].get("attribution", {})
                ),
                forensics.tree_from_attribution(
                    run_b["experiments"][eid].get("attribution", {})
                ),
            ),
            top_k=top_k,
            by="total",
        )
        diffs[eid] = [
            (
                row["path"],
                row["modelled_a"],
                row["modelled_b"],
                row["wall_a"],
                row["wall_b"],
            )
            for row in rows
        ]
    return diffs


def _fmt_delta(a: float, b: float) -> str:
    delta = b - a
    sign = "+" if delta >= 0 else ""
    return f"{sign}{delta * 1e3:.3f}"


def render_diff(run_a: dict, run_b: dict, top_k: int = 10) -> str:
    """The attribution diff as aligned text tables (ms columns)."""
    diffs = diff_runs(run_a, run_b, top_k=top_k)
    header = (
        f"perf diff — A: run {run_a.get('run_id', '?')[:12]} "
        f"({run_a.get('created_at', '?')})  ->  "
        f"B: run {run_b.get('run_id', '?')[:12]} "
        f"({run_b.get('created_at', '?')})"
    )
    lines = [header]
    if not diffs:
        lines.append("(no experiments in common)")
        return "\n".join(lines)
    for eid, rows in diffs.items():
        lines.append("")
        lines.append(f"== {eid} ==")
        if not rows:
            lines.append("(no span attribution recorded)")
            continue
        table = [
            (
                "span",
                "modelled A ms",
                "modelled B ms",
                "Δ modelled",
                "wall A ms",
                "wall B ms",
                "Δ wall",
            )
        ]
        for name, mod_a, mod_b, wall_a, wall_b in rows:
            table.append(
                (
                    name,
                    f"{mod_a * 1e3:.3f}",
                    f"{mod_b * 1e3:.3f}",
                    _fmt_delta(mod_a, mod_b),
                    f"{wall_a * 1e3:.3f}",
                    f"{wall_b * 1e3:.3f}",
                    _fmt_delta(wall_a, wall_b),
                )
            )
        widths = [
            max(len(row[i]) for row in table) for i in range(len(table[0]))
        ]
        for i, row in enumerate(table):
            lines.append(
                "  ".join(
                    cell.ljust(w) if j == 0 else cell.rjust(w)
                    for j, (cell, w) in enumerate(zip(row, widths))
                )
            )
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


# -- the gate spec ----------------------------------------------------------


def _add_arguments(parser, command: str) -> None:
    if command == "record":
        parser.add_argument(
            "ids",
            nargs="*",
            help="experiments to record (default: the fast set)",
        )
        parser.add_argument(
            "--repeats",
            type=int,
            default=3,
            help="untraced wall-time repeats per experiment (default: 3)",
        )
    elif command == "check":
        parser.add_argument(
            "ids",
            nargs="*",
            help="experiments to check (default: everything in the baseline)",
        )
        parser.add_argument(
            "--repeats", type=int, default=3, help="wall-time repeats"
        )
        parser.add_argument(
            "--skip-wall",
            action="store_true",
            help="modelled-exactness only (for CI / foreign machines)",
        )
    else:
        parser.add_argument(
            "--skip-wall",
            action="store_true",
            help="badge on modelled exactness only",
        )


GATE = gate.Gate(
    name="perf",
    ledger=bl.LEDGER,
    baseline_path=bl.DEFAULT_BASELINE_PATH,
    history_path=bl.DEFAULT_HISTORY_PATH,
    title="perf check — current run vs baseline",
    noun="experiments",
    order=(
        gate.VERDICT_OK,
        gate.VERDICT_FASTER,
        gate.VERDICT_NEW,
        gate.VERDICT_REGRESSION,
        gate.MODEL_DRIFT,
    ),
    drift_hint=(
        "modelled times are deterministic; drift means the cost "
        "model changed — re-baseline deliberately with "
        "'repro perf check --update'"
    ),
    help="performance baselines, regression gate, and dashboard",
    description=(
        "Record schema-versioned performance baselines and gate "
        "changes against them: modelled times must match exactly "
        "(MODEL-DRIFT otherwise), wall times within a noise-aware "
        "band (REGRESSION otherwise). See docs/observability.md."
    ),
    commands={
        "record": "capture a baseline run (modelled + wall + rollups)",
        "check": "re-run and compare against the baseline",
        "html": "render the run history as a standalone HTML dashboard",
    },
    add_arguments=_add_arguments,
    capture=lambda args, progress: bl.capture_run(
        args.ids or None, repeats=args.repeats, progress=progress
    ),
    capture_for_check=lambda baseline, args, progress: bl.capture_run(
        args.ids or list(baseline["experiments"]),
        repeats=args.repeats,
        progress=progress,
    ),
    check=lambda baseline, current, args: check_runs(
        baseline, current, skip_wall=args.skip_wall
    ),
    html=htmlreport.render_dashboard,
    recorded=lambda doc: f"recorded {len(doc['experiments'])} experiments",
)
