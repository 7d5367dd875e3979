"""Drift forensics: *why* the numbers moved and *when* it started.

The four gates built in PRs 2–8 (``MODEL-DRIFT``, ``NOISE-DRIFT``,
``ENERGY-DRIFT``, ``SLO``/``REGRESSION``) each answer "did something
change?" for one family. This module answers the two questions they
leave open:

* **Why** — :func:`align_trees` joins two runs' path-keyed span tables
  (:func:`repro.obs.export.path_tree`) node by node and computes
  per-path deltas for both clock domains, inclusive *and* self.
  Because self time is "this span minus its children", a top-level
  drift decomposes into the exact spans that moved: a perturbed kernel
  cost constant shows up as self-time on ``pim.time_kernel.*`` leaves,
  not as an undifferentiated blob on the experiment root.
  :func:`why_report` wraps that in a unified cross-gate report —
  span alignment, the perf gate's exact model surface, and the energy
  gate's config + joules ledger — ranking top contributors per family.
* **When** — :func:`cusum_changepoints` runs two-sided CUSUM
  change-point detection over the longitudinal series in
  ``baselines/*history.jsonl``, flagging the first recorded run — and
  its git SHA — of each shift per experiment.

Comparison policy follows the perf gate: the modelled clock domain is
deterministic, so *any* difference is drift (exact float equality);
wall seconds ride along for context but never gate. Differential
flamegraphs come out of the same aligned rows: collapsed-stack text via
:func:`to_diff_collapsed` and self-contained HTML via
:func:`repro.obs.htmlreport.render_forensics_report`.

Driven by ``repro why <experiment> --against <baseline|run-id>`` and
``repro forensics html|shifts``.
"""

from __future__ import annotations

import statistics

from repro.errors import ParameterError
from repro.obs import baseline as _bl
from repro.obs import energy as _energy
from repro.obs import gate
from repro.obs import perf as _perf
from repro.obs.gate import exact_diffs
from repro.obs.runident import run_identity

__all__ = [
    "VERDICT_SKIPPED",
    "tree_from_attribution",
    "comparable_trees",
    "align_trees",
    "rank_contributors",
    "modelled_projection",
    "to_diff_collapsed",
    "compare_experiment",
    "why_report",
    "diff_report",
    "why_exit_code",
    "render_why",
    "cusum_changepoints",
    "detect_shifts",
    "perf_series",
    "energy_series",
    "noise_series",
    "scan_shifts",
    "render_shifts",
]

VERDICT_SKIPPED = "skipped"

#: CUSUM defaults (:data:`repro.obs.gate.CUSUM_K_REL`, ``CUSUM_H_MULT``).
K_REL = gate.CUSUM_K_REL
H_MULT = gate.CUSUM_H_MULT
_EPS = 1e-12


# -- span-path alignment ----------------------------------------------------


def tree_from_attribution(attribution: dict) -> dict:
    """A flat per-span-name attribution table as a degenerate path tree.

    Fallback for run documents recorded before path tables existed:
    every name becomes a depth-0 path whose self time equals its
    inclusive time, so :func:`align_trees` compares old and new records
    through one code path (at name granularity instead of path
    granularity).
    """
    return {
        name: {
            "name": name,
            "depth": 0,
            "count": entry.get("count", 0),
            "wall_s": entry.get("wall_s", 0.0),
            "modelled_s": entry.get("modelled_s", 0.0),
            "self_wall_s": entry.get("wall_s", 0.0),
            "self_modelled_s": entry.get("modelled_s", 0.0),
        }
        for name, entry in attribution.items()
    }


def comparable_trees(exp_a: dict, exp_b: dict) -> tuple:
    """``(tree_a, tree_b, mode)`` for two captured experiment docs.

    Path tables are only comparable against path tables, so when either
    side predates them **both** sides degrade to the flat per-name
    attribution (``mode == "name"``); otherwise the full path-keyed
    tables are used (``mode == "path"``).
    """
    if exp_a.get("paths") and exp_b.get("paths"):
        return exp_a["paths"], exp_b["paths"], "path"
    return (
        tree_from_attribution(exp_a.get("attribution", {})),
        tree_from_attribution(exp_b.get("attribution", {})),
        "name",
    )


def align_trees(tree_a: dict, tree_b: dict) -> list:
    """Join two path tables into per-path delta rows, sorted by path.

    Every path present in either tree yields one row carrying both
    sides' count / inclusive / self values (zeros for the absent side)
    and a ``status`` of ``"both"``, ``"only_a"``, or ``"only_b"``.
    """
    rows = []
    for path in sorted(set(tree_a) | set(tree_b)):
        a, b = tree_a.get(path), tree_b.get(path)
        node = a if a is not None else b
        rows.append(
            {
                "path": path,
                "name": node["name"],
                "depth": node["depth"],
                "status": "both"
                if a is not None and b is not None
                else ("only_a" if b is None else "only_b"),
                "count_a": a["count"] if a else 0,
                "count_b": b["count"] if b else 0,
                "modelled_a": a["modelled_s"] if a else 0.0,
                "modelled_b": b["modelled_s"] if b else 0.0,
                "wall_a": a["wall_s"] if a else 0.0,
                "wall_b": b["wall_s"] if b else 0.0,
                "self_modelled_a": a["self_modelled_s"] if a else 0.0,
                "self_modelled_b": b["self_modelled_s"] if b else 0.0,
                "self_wall_a": a["self_wall_s"] if a else 0.0,
                "self_wall_b": b["self_wall_s"] if b else 0.0,
            }
        )
    return rows


def rank_contributors(rows, top_k: int = 10, by: str = "total") -> list:
    """The aligned rows that explain the most drift, biggest first.

    ``by="total"`` ranks on absolute inclusive modelled delta (wall
    delta as tiebreak) — the ``repro perf diff`` ordering.
    ``by="self"`` ranks on absolute *self* modelled delta (inclusive
    delta as tiebreak) — the forensics ordering, which surfaces the
    span that actually moved rather than every ancestor it inflates.
    Path breaks remaining ties, so the ranking is deterministic.
    """
    if top_k < 1:
        raise ParameterError(f"top_k must be >= 1: {top_k}")
    if by == "self":
        def key(r):
            return (
                -abs(r["self_modelled_b"] - r["self_modelled_a"]),
                -abs(r["modelled_b"] - r["modelled_a"]),
                r["path"],
            )
    elif by == "total":
        def key(r):
            return (
                -abs(r["modelled_b"] - r["modelled_a"]),
                -abs(r["wall_b"] - r["wall_a"]),
                r["path"],
            )
    else:
        raise ParameterError(f"unknown contributor ranking: {by!r}")
    return sorted(rows, key=key)[:top_k]


def modelled_projection(tree: dict) -> dict:
    """The deterministic projection of a path table.

    Drops both wall columns (process noise) and keeps count, inclusive
    modelled, and self modelled per path — two captures of the same
    tree must serialize this projection byte-identically.
    """
    return {
        path: {
            "count": node["count"],
            "modelled_s": node["modelled_s"],
            "self_modelled_s": node["self_modelled_s"],
        }
        for path, node in sorted(tree.items())
    }


def to_diff_collapsed(rows) -> str:
    """Aligned rows as differential collapsed-stack text.

    One ``path value_a value_b`` line per path with any self modelled
    time on either side, values in integer nanoseconds — the two-column
    format ``difffolded.pl``-style flamegraph tooling consumes.
    """
    lines = []
    for row in sorted(rows, key=lambda r: r["path"]):
        a = int(round(row["self_modelled_a"] * 1e9))
        b = int(round(row["self_modelled_b"] * 1e9))
        if a > 0 or b > 0:
            lines.append(f"{row['path']} {a} {b}")
    return "".join(line + "\n" for line in lines)


# -- the cross-gate why report ----------------------------------------------


def _spans_family(base_exp: dict, cur_exp: dict, top_k: int) -> dict:
    tree_a, tree_b, mode = comparable_trees(base_exp, cur_exp)
    aligned = align_trees(tree_a, tree_b)
    moved = [
        r
        for r in aligned
        if r["modelled_a"] != r["modelled_b"]
        or r["self_modelled_a"] != r["self_modelled_b"]
        or r["count_a"] != r["count_b"]
    ]
    return {
        "verdict": gate.MODEL_DRIFT if moved else gate.VERDICT_OK,
        "mode": mode,
        "moved": len(moved),
        "contributors": rank_contributors(moved, top_k, by="self")
        if moved
        else [],
        "aligned": aligned,
    }


def _model_family(base_exp: dict, cur_exp: dict) -> dict:
    notes = _perf.modelled_drift(base_exp, cur_exp)
    return {
        "verdict": gate.MODEL_DRIFT if notes else gate.VERDICT_OK,
        "notes": notes,
    }


def _numeric_leaves(doc, prefix: str = "") -> dict:
    """Flatten a nested document to ``dotted.key -> float`` leaves."""
    leaves: dict = {}
    if isinstance(doc, dict):
        for key in doc:
            child = f"{prefix}.{key}" if prefix else str(key)
            leaves.update(_numeric_leaves(doc[key], child))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        leaves[prefix] = float(doc)
    return leaves


def _energy_family(
    experiment_id: str,
    energy_baseline: dict | None,
    current_energy: dict,
    current_config: dict,
    top_k: int,
) -> dict:
    if energy_baseline is None:
        return {
            "verdict": VERDICT_SKIPPED,
            "notes": [
                "no energy baseline; record one with 'repro energy record'"
            ],
            "contributors": [],
        }
    notes = exact_diffs(
        "config", energy_baseline.get("config", {}), current_config
    )
    base_exp = energy_baseline.get("experiments", {}).get(experiment_id)
    contributors = []
    if base_exp is None:
        notes.append(
            f"experiment {experiment_id!r} not in the energy baseline; "
            "adopt with 'repro energy record'"
        )
    else:
        notes += exact_diffs("", base_exp, current_energy)
        base_leaves = _numeric_leaves(base_exp)
        cur_leaves = _numeric_leaves(current_energy)
        changed = [
            {
                "key": key,
                "value_a": base_leaves.get(key, 0.0),
                "value_b": cur_leaves.get(key, 0.0),
            }
            for key in sorted(set(base_leaves) | set(cur_leaves))
            if base_leaves.get(key) != cur_leaves.get(key)
        ]
        changed.sort(
            key=lambda c: (-abs(c["value_b"] - c["value_a"]), c["key"])
        )
        contributors = changed[:top_k]
    return {
        "verdict": gate.ENERGY_DRIFT if notes else gate.VERDICT_OK,
        "notes": notes,
        "contributors": contributors,
    }


def compare_experiment(
    base_exp: dict, cur_exp: dict, top_k: int = 10
) -> dict:
    """The span-alignment and model families for one experiment pair."""
    return {
        "spans": _spans_family(base_exp, cur_exp, top_k),
        "model": _model_family(base_exp, cur_exp),
    }


def _identity_of(doc: dict) -> dict:
    return {
        key: doc.get(key) for key in ("run_id", "created_at", "git_sha")
    }


def why_report(
    experiment_id: str,
    baseline_run: dict,
    *,
    energy_baseline: dict | None = None,
    history=None,
    energy_history=None,
    top_k: int = 10,
) -> dict:
    """Capture ``experiment_id`` fresh and explain any drift.

    One unified cross-gate document: the **spans** family (path-aligned
    self-time attribution), the **model** family (the perf gate's exact
    surface: series totals, counters, transfer split), the **energy**
    family (config + joules/movement ledger, skipped without a
    baseline), and — when longitudinal history is supplied — CUSUM
    change points locating when each series first shifted.
    """
    base_exp = baseline_run.get("experiments", {}).get(experiment_id)
    if base_exp is None:
        raise ParameterError(
            f"experiment {experiment_id!r} is not in the baseline run; "
            "re-record with 'repro perf record'"
        )
    cur_exp = _bl.capture_experiment(experiment_id, repeats=1)
    families = compare_experiment(base_exp, cur_exp, top_k=top_k)
    families["energy"] = _energy_family(
        experiment_id,
        energy_baseline,
        _energy.capture_energy_experiment(experiment_id),
        _energy.get_energy_config().to_dict(),
        top_k,
    )
    series: dict = {}
    if history:
        series.update(perf_series(history, experiment_id=experiment_id))
    if energy_history:
        series.update(
            energy_series(energy_history, experiment_id=experiment_id)
        )
    return {
        "kind": "why",
        "experiment": experiment_id,
        "top_k": top_k,
        "baseline": _identity_of(baseline_run),
        "current": run_identity(),
        "families": families,
        "shifts": scan_shifts(series),
    }


def diff_report(
    run_a: dict, run_b: dict, experiments=None, top_k: int = 10
) -> dict:
    """Span + model families for every experiment two runs share."""
    shared = [
        eid
        for eid in run_a.get("experiments", {})
        if eid in run_b.get("experiments", {})
        and (experiments is None or eid in experiments)
    ]
    return {
        "kind": "diff",
        "top_k": top_k,
        "run_a": _identity_of(run_a),
        "run_b": _identity_of(run_b),
        "experiments": {
            eid: compare_experiment(
                run_a["experiments"][eid],
                run_b["experiments"][eid],
                top_k=top_k,
            )
            for eid in shared
        },
    }


def why_exit_code(report: dict) -> int:
    """Non-zero iff any family drifted (change points never gate)."""
    drifted = any(
        family.get("verdict") in gate.FAILING
        for family in report["families"].values()
    )
    return 1 if drifted else 0


# -- change-point detection -------------------------------------------------


def cusum_changepoints(
    values, k_rel: float = K_REL, h_mult: float = H_MULT
) -> list:
    """Two-sided CUSUM over a (near-)deterministic series.

    Walks the series keeping a running mean of the current regime; each
    point's deviation beyond the allowance ``k = k_rel * |mean|``
    accumulates into one-sided sums, and when either sum crosses
    ``h = h_mult * k`` the **start of the excursion** (the first point
    of the new regime, not the point where evidence became conclusive)
    is reported and the regime resets there. A monotonic ramp therefore
    reports a change point at the ramp's first step and keeps firing
    while the series keeps moving — honest behaviour for modelled
    series, where every sustained move is a real model change.
    """
    points: list = []
    start = 0
    n = len(values)
    while start < n:
        ref_sum, ref_n = float(values[start]), 1
        s_pos = s_neg = 0.0
        pos_start = neg_start = None
        detected = None
        for i in range(start + 1, n):
            ref = ref_sum / ref_n
            k = k_rel * max(abs(ref), _EPS)
            h = h_mult * k
            dev = float(values[i]) - ref
            s_pos = max(0.0, s_pos + dev - k)
            if s_pos > 0.0:
                if pos_start is None:
                    pos_start = i
            else:
                pos_start = None
            s_neg = max(0.0, s_neg - dev - k)
            if s_neg > 0.0:
                if neg_start is None:
                    neg_start = i
            else:
                neg_start = None
            if s_pos > h or s_neg > h:
                detected = pos_start if s_pos > h else neg_start
                break
            ref_sum += float(values[i])
            ref_n += 1
        if detected is None:
            break
        points.append(detected)
        start = detected
    return points


def detect_shifts(
    series, k_rel: float = K_REL, h_mult: float = H_MULT
) -> list:
    """Change points over ``[(value, meta), ...]`` as shift records.

    Each record locates one regime change: the index and the recording
    run's identity (``run_id`` / ``git_sha`` / ``created_at`` from the
    point's ``meta``) of the **first run of the new regime**, plus the
    segment means either side of the cut.
    """
    values = [float(v) for v, _ in series]
    cuts = cusum_changepoints(values, k_rel=k_rel, h_mult=h_mult)
    bounds = [0] + cuts + [len(values)]
    shifts = []
    for j, cut in enumerate(cuts):
        meta = series[cut][1] or {}
        shifts.append(
            {
                "index": cut,
                "before_mean": statistics.fmean(
                    values[bounds[j] : bounds[j + 1]]
                ),
                "after_mean": statistics.fmean(
                    values[bounds[j + 1] : bounds[j + 2]]
                ),
                "run_id": meta.get("run_id"),
                "git_sha": meta.get("git_sha"),
                "created_at": meta.get("created_at"),
            }
        )
    return shifts


def _meta_of(doc: dict) -> dict:
    return {
        key: doc.get(key) for key in ("run_id", "git_sha", "created_at")
    }


def perf_series(history, experiment_id: str | None = None) -> dict:
    """Longitudinal modelled series totals out of perf history docs."""
    out: dict = {}
    for doc in history:
        meta = _meta_of(doc)
        for eid, exp in doc.get("experiments", {}).items():
            if experiment_id is not None and eid != experiment_id:
                continue
            totals = exp.get("modelled", {}).get("series_totals", {})
            for name, value in totals.items():
                out.setdefault(f"perf.{eid}.{name}", []).append(
                    (float(value), meta)
                )
    return out


def energy_series(history, experiment_id: str | None = None) -> dict:
    """Longitudinal per-backend joules out of energy history docs."""
    out: dict = {}
    for doc in history:
        meta = _meta_of(doc)
        for eid, exp in doc.get("experiments", {}).items():
            if experiment_id is not None and eid != experiment_id:
                continue
            for backend, joules in exp.get("joules", {}).items():
                out.setdefault(f"energy.{eid}.{backend}_j", []).append(
                    (float(joules), meta)
                )
    return out


def noise_series(history) -> dict:
    """Longitudinal final measured noise bits out of noise history docs."""
    out: dict = {}
    for doc in history:
        meta = _meta_of(doc)
        for bits, level in doc.get("levels", {}).items():
            for name, shape in level.get("workloads", {}).items():
                trajectory = shape.get("trajectory", [])
                if not trajectory:
                    continue
                out.setdefault(f"noise.{bits}b.{name}_bits", []).append(
                    (float(trajectory[-1].get("meas_bits", 0.0)), meta)
                )
    return out


def scan_shifts(
    named_series: dict, k_rel: float = K_REL, h_mult: float = H_MULT
) -> dict:
    """Shift records per series name, dropping shift-free series."""
    shifts = {
        name: detect_shifts(series, k_rel=k_rel, h_mult=h_mult)
        for name, series in sorted(named_series.items())
    }
    return {name: found for name, found in shifts.items() if found}


# -- text renderers ---------------------------------------------------------


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def _fmt_delta_ms(a: float, b: float) -> str:
    delta = (b - a) * 1e3
    return f"{'+' if delta >= 0 else ''}{delta:.3f}"


def render_why(report: dict) -> str:
    """The why report as aligned text."""
    families = report["families"]
    base, cur = report["baseline"], report["current"]
    lines = [
        f"why {report['experiment']} — current run vs baseline",
        f"  baseline: run {str(base.get('run_id', '?'))[:12]} "
        f"({base.get('created_at', '?')}, "
        f"git {str(base.get('git_sha'))[:12]})",
        f"  current:  run {str(cur.get('run_id', '?'))[:12]} "
        f"({cur.get('created_at', '?')}, "
        f"git {str(cur.get('git_sha'))[:12]})",
        "",
    ]
    spans = families["spans"]
    lines.append(
        f"[{spans['verdict']:>12}] spans "
        f"({spans['mode']}-aligned): {spans['moved']} moved"
    )
    for row in spans["contributors"]:
        lines.append(
            f"               - {row['path']}  "
            f"self {_fmt_ms(row['self_modelled_a'])} -> "
            f"{_fmt_ms(row['self_modelled_b'])} ms "
            f"(Δ {_fmt_delta_ms(row['self_modelled_a'], row['self_modelled_b'])}"
            f", inclusive Δ "
            f"{_fmt_delta_ms(row['modelled_a'], row['modelled_b'])})"
        )
    model = families["model"]
    lines.append(
        f"[{model['verdict']:>12}] model (series totals, counters, transfer)"
    )
    for note in model["notes"]:
        lines.append(f"               - {note}")
    energy = families["energy"]
    lines.append(f"[{energy['verdict']:>12}] energy (config, joules, bytes)")
    for note in energy["notes"]:
        lines.append(f"               - {note}")
    if report.get("shifts"):
        lines.append("")
        lines.append("change points (longitudinal history):")
        lines.extend(
            "  " + line for line in render_shifts(report["shifts"]).splitlines()
        )
    lines.append("")
    if why_exit_code(report):
        lines.append(
            "verdict: DRIFT — the top self-time contributors above are "
            "the spans that moved"
        )
    else:
        lines.append("verdict: no drift — modelled surfaces match exactly")
    return "\n".join(lines)


def render_shifts(shifts: dict) -> str:
    """Shift records per series as aligned text."""
    if not shifts:
        return "no change points detected"
    lines = []
    for name in sorted(shifts):
        for shift in shifts[name]:
            lines.append(
                f"{name}: shift at index {shift['index']} "
                f"(git {str(shift.get('git_sha'))[:12]}, "
                f"{shift.get('created_at', '?')}): "
                f"mean {shift['before_mean']:.6g} -> "
                f"{shift['after_mean']:.6g}"
            )
    return "\n".join(lines)
