"""Self-contained HTML dashboards (zero dependencies, inline SVG).

Every HTML surface of the CLI is one page: a title, the identity lines,
the verdict card (a summary and one row per
:class:`~repro.obs.gate.Verdict`, with its notes), then the page's
detail sections. Sections are built from shared primitives (table, line
chart, stacked bar and legend, card, notes list) plus a hook only where
a view really differs: the noise budget chart, the forensics
flamegraph, the profile occupancy bars and the grid heatmap. The four
gate dashboards take :attr:`repro.obs.gate.Gate.html`'s arguments.

Callers compute verdicts and pass them in; the renderer never re-runs a
check and imports only the standard library and :mod:`repro.obs.gate`.
Everything is inlined, so a file opens anywhere with no server and no
network.
"""

from __future__ import annotations

import html as _html
from collections import Counter

from repro.obs import gate as _gate

__all__ = [
    "render_dashboard",
    "render_profile_report",
    "render_noise_report",
    "render_faults_report",
    "render_grid_dashboard",
    "render_serve_report",
    "render_energy_report",
    "render_forensics_report",
    "render_resilience_report",
]

_RED, _GREEN, _BLUE, _AMBER = "#c62828", "#2e7d32", "#1565c0", "#f9a825"

_BADGE_COLORS = {
    **{label: _RED for label in _gate.FAILING},
    _gate.MODEL_DRIFT: "#e65100",
    _gate.VERDICT_OK: _GREEN,
    _gate.VERDICT_FASTER: _BLUE,
    _gate.VERDICT_NEW: "#6a1b9a",
    _gate.VERDICT_PARTIAL: _AMBER,
    "SLO-OK": _GREEN,
    "SLO-BREACH": _RED,
}

_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 70em; color: #222; padding: 0 1em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin: 1.6em 0 .4em; }
.meta { color: #666; font-size: .9em; }
.badge { display: inline-block; padding: .15em .6em; border-radius: 1em;
         color: #fff; font-size: .85em; font-weight: 600;
         vertical-align: middle; }
table { border-collapse: collapse; margin: .4em 0 1em; }
th, td { border: 1px solid #ddd; padding: .25em .6em; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { background: #f5f5f5; }
td ul { text-align: left; margin: 0; }
.spark { vertical-align: middle; margin-left: .6em; }
.card { border: 1px solid #e0e0e0; border-radius: 6px;
        padding: .8em 1em; margin: .8em 0; }
details > summary { cursor: pointer; color: #555; }
.occbar { display: flex; height: 14px; border-radius: 3px;
          overflow: hidden; background: #eceff1; }
.occbar span { display: block; height: 100%; }
.legend span.swatch { display: inline-block; width: .8em; height: .8em;
                      border-radius: 2px; margin: 0 .3em 0 .9em;
                      vertical-align: -1px; }
.gridcell { display: inline-block; width: .9em; height: .9em;
            border-radius: 2px; margin: 1px; vertical-align: middle; }
.flame { font: 11px ui-monospace, monospace; white-space: nowrap;
         margin: .6em 0; }
.fnode { display: inline-block; vertical-align: top; min-width: 2px; }
.fkids { width: 100%; white-space: nowrap; }
.fbox { overflow: hidden; text-overflow: ellipsis; white-space: nowrap;
        border: 1px solid #fff; border-radius: 2px; padding: 1px 3px;
        box-sizing: border-box; }
"""


# -- shared primitives ----------------------------------------------------------


def _esc(value) -> str:
    return _html.escape(str(value), quote=True)


def _num(value, spec: str, suffix: str = "") -> str:
    """``value`` formatted with ``spec``, or ``-`` for ``None``."""
    return "-" if value is None else f"{value:{spec}}{suffix}"


def _badge(label: str) -> str:
    color = _BADGE_COLORS.get(label, "#555")
    return f'<span class="badge" style="background:{color}">{_esc(label)}</span>'


def _identity(doc: dict) -> str:
    return (
        f"run <code>{_esc(str(doc.get('run_id', '?'))[:12])}</code> · "
        f"{_esc(doc.get('created_at', '?'))} · "
        f"git <code>{_esc(str(doc.get('git_sha'))[:12])}</code>"
    )


def _identities(current: dict, baseline) -> list:
    """The identity lines of a page over ``current`` (and ``baseline``)."""
    lines = [f"current: {_identity(current)}"]
    if baseline is not None:
        lines.append(f"baseline: {_identity(baseline)}")
    return lines


def _table(headers, rows, empty: str = "") -> str:
    """A table: text ``headers``, ``rows`` of cell HTML; with no rows
    the ``empty`` note (when given) stands in for it."""
    if not rows and empty:
        return f"<p class='meta'>{_esc(empty)}</p>"
    head = "".join(f"<th>{_esc(header)}</th>" for header in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _notes(notes) -> str:
    """A note list; past the first 20 notes, one line counts the rest."""
    notes, limit = list(notes), 20
    shown = notes[:limit]
    if len(notes) > limit:
        shown.append(f"… and {len(notes) - limit} more")
    items = "".join(f"<li>{_esc(note)}</li>" for note in shown)
    return f"<ul>{items}</ul>" if items else ""


def _card(heading: str, *body, subtitle: str = "") -> str:
    """A bordered section: an escaped heading, then ``body`` HTML."""
    sub = f" <span class='meta'>{_esc(subtitle)}</span>" if subtitle else ""
    return f"<div class='card'><h2>{_esc(heading)}{sub}</h2>{''.join(body)}</div>"


def _details(summary: str, body: str) -> str:
    return f"<details><summary>{_esc(summary)}</summary>{body}</details>"


def _chart(lines, title: str, xs=None, width: int = 160, height: int = 36,
           what: str = "runs") -> str:
    """One inline SVG line chart.

    ``lines`` are ``(values, color, dashed)`` series over the shared x
    positions ``xs`` (default: the index, left = first); solid series
    get a dot per point. Fewer than two points draw a note instead.
    """
    n = len(lines[0][0])
    if n < 2:
        return f'<span class="meta">(need ≥2 {_esc(what)} for a trend)</span>'
    xs = list(range(n)) if xs is None else list(xs)
    ys = [v for values, _color, _dashed in lines for v in values]
    pad = 4
    x_lo, x_span = min(xs), (max(xs) - min(xs)) or 1.0
    y_lo, y_span = min(ys), (max(ys) - min(ys)) or 1.0

    def point(x, y) -> tuple:
        return (pad + (x - x_lo) / x_span * (width - 2 * pad),
                height - pad - (y - y_lo) / y_span * (height - 2 * pad))

    parts = [
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
        f"<title>{_esc(title)}</title>"
    ]
    for values, color, dashed in lines:
        points = [point(x, y) for x, y in zip(xs, values)]
        coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
        dash = ' stroke-dasharray="4 3"' if dashed else ""
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>'
        )
        if not dashed:
            parts.extend(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.2" fill="{color}"/>'
                for x, y in points
            )
    return "".join(parts) + "</svg>"


def _sparkline(values, label: str, fmt) -> str:
    """A run-over-run trend of ``values`` (``None`` entries skipped)."""
    points = [v for v in values if v is not None]
    title = label
    if points:
        title += (f" trend over {len(points)} runs: "
                  f"min {fmt(min(points))}, max {fmt(max(points))}")
    return _chart([(points, _BLUE, False)], title)


def _bar(segments, total=None, unit: str = "", width: str = "24em") -> str:
    """One stacked bar of ``(label, value, color)`` segments, sized as
    shares of ``total`` (default: their sum), each with a tooltip."""
    total = total or sum(value for _label, value, _color in segments) or 1
    spans = "".join(
        f'<span style="width:{value / total * 100:.2f}%;background:{color}" '
        f'title="{_esc(label)}: {value:,.0f} {_esc(unit)} '
        f'({value / total * 100:.1f}%)"></span>'
        for label, value, color in segments
        if value > 0
    )
    return f'<div class="occbar" style="width:{width}">{spans}</div>'


def _legend(pairs) -> str:
    """Color swatches for ``(label, color)`` pairs."""
    swatches = "".join(
        f'<span class="swatch" style="background:{color}"></span>{_esc(label)}'
        for label, color in pairs
    )
    return f'<p class="meta legend">{swatches}</p>'


def _tally(labels) -> str:
    """One badge per distinct label with its count."""
    counts = Counter(labels)
    return " ".join(f"{_badge(k)} {n}" for k, n in sorted(counts.items()))


def _verdict_card(heading: str, subtitle: str, verdicts) -> str:
    """The verdict tally with the gate outcome, then one badge row per
    verdict with its notes; no verdicts (nothing checked) render nothing."""
    verdicts = list(verdicts or ())
    if not verdicts:
        return ""
    outcome = (" — <strong>gate fails</strong>" if _gate.exit_code(verdicts)
               else " — gate passes")
    rows = [[_badge(v.verdict), _esc(v.key), _esc(v.detail) + _notes(v.notes)]
            for v in verdicts]
    return _card(
        heading,
        f"<p>{_tally(v.verdict for v in verdicts)}{outcome}</p>",
        _table(["verdict", "checked", "notes"], rows),
        subtitle=subtitle,
    )


def _page(title: str, meta, sections) -> str:
    """The one page: title, identity/meta lines, then the sections."""
    return "".join([
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title><style>{_CSS}</style>",
        f"</head><body><h1>{_esc(title)}</h1>",
        "<p class='meta'>" + "<br>".join(meta) + "</p>" if meta else "",
        *sections,
        "</body></html>",
    ])


# -- pipeline profiles (repro profile) -------------------------------------------

#: Tasklet cycle categories: (TaskletOccupancy field, label, color).
_OCCUPANCY = (
    ("instructions", "issuing", _GREEN),
    ("dma_blocked_cycles", "DMA-blocked", _BLUE),
    ("revolve_stall_cycles", "revolve stall", _AMBER),
    ("dispatch_wait_cycles", "dispatch wait", "#e65100"),
    ("idle_cycles", "idle", "#b0bec5"),
)


def _profile_card(profile) -> str:
    """One :class:`~repro.obs.profile.KernelProfile`: verdict, the
    per-tasklet cycle breakdown bars, DMA contention and load balance."""
    dma, load = profile.dma, profile.load
    subsample = (f" (subsampled from {profile.full_elements} elements/DPU)"
                 if profile.subsampled else "")
    lines = [
        f"simulated {profile.simulated_cycles:,} cycles vs analytic "
        f"max(compute={profile.analytic_compute_cycles:,.0f}, "
        f"dma={profile.analytic_dma_cycles:,.0f}) — model error "
        f"{profile.model_error * 100:+.2f}%{_esc(subsample)}",
        f"issue utilization {profile.issue_utilization * 100:.1f}% · "
        f"DMA engine busy {dma.busy_fraction * 100:.1f}% over "
        f"{dma.n_transfers} transfers (queue wait mean "
        f"{dma.mean_queue_wait:.1f} / max {dma.max_queue_wait:.1f} cycles)",
    ]
    if load is not None:
        lines.append(
            f"load balance: {load.dpus_engaged} DPUs over "
            f"{load.ranks_engaged} ranks ({load.idle_dpus} idle); "
            f"elements/DPU min {load.min_elements} / mean "
            f"{load.mean_elements:.1f} / max {load.max_elements} "
            f"(imbalance ×{load.imbalance:.2f})"
        )
    if dma.queue_waits:
        lines.append("queue-wait histogram [cycles]: " + " · ".join(
            f"{_esc(label)}: {count}"
            for label, count in dma.wait_histogram() if count
        ))
    rows = [
        [f"t{occ.tasklet}", f"{occ.instructions:,}",
         f"{occ.occupancy * 100:.1f}%",
         _bar([(label, float(getattr(occ, field)), color)
               for field, label, color in _OCCUPANCY],
              total=profile.simulated_cycles, unit="cycles")]
        for occ in profile.occupancy
    ]
    return _card(
        profile.label,
        "<p class='meta'>" + "<br>".join(lines) + "</p>",
        _table(["tasklet", "instr", "occupancy", "cycle breakdown"], rows),
        _legend((label, color) for _field, label, color in _OCCUPANCY),
        subtitle=profile.verdict,
    )


def render_profile_report(profiles, title: str = "repro pipeline profile") -> str:
    """The ``repro profile`` page: one card per
    :class:`~repro.obs.profile.KernelProfile` (bottleneck verdict,
    per-tasklet stall breakdown bars, DMA contention, load balance)."""
    sections = [_profile_card(p) for p in profiles]
    meta = [] if sections else ["No PIM kernel launches to profile."]
    return _page(title, meta, sections)


# -- the perf dashboard (repro perf html) ----------------------------------------


def _fmt_ms(value: float) -> str:
    return f"{value * 1e3:.2f} ms"


def _series(history, eid: str, pick) -> list:
    """``pick(experiment)`` per recorded run (``None`` where it is absent)."""
    return [pick(doc["experiments"][eid]) if eid in doc.get("experiments", {})
            else None for doc in history]


def render_dashboard(current: dict, baseline=None, history=(), verdicts=None) -> str:
    """The perf dashboard: the perf gate's ``verdicts``, then per
    experiment the wall median with its trend over ``history`` (oldest
    first), the modelled series totals and the top attribution rows."""
    history = list(history) or [current]
    meta = [f"{len(history)} recorded run(s)"]
    meta += _identities(current, baseline)
    sections = [_verdict_card("perf gate", "current run vs baseline", verdicts)]
    for eid, exp in current["experiments"].items():
        walls = _series(history, eid, lambda e: e["wall"]["median_s"])
        wall, modelled = exp["wall"], exp["modelled"]
        series = sorted(modelled["series_totals"].items())
        top = sorted(exp.get("attribution", {}).items(),
                     key=lambda item: -item[1].get("modelled_s", 0.0))[:5]
        sections.append(_card(
            eid,
            f"<p class='meta'>wall median {_fmt_ms(wall['median_s'])} "
            f"(spread {wall['spread'] * 100:.0f}% over {wall['repeats']} "
            f"repeats){_sparkline(walls, 'wall median', _fmt_ms)}</p>",
            _table([f"series (totals across {modelled['n_rows']} rows)",
                    f"value [{modelled.get('unit', '')}]"],
                   [[_esc(name), f"{value:,.4f}"] for name, value in series]),
            _details("attribution (top spans by modelled time)", _table(
                ["span", "count", "modelled ms", "wall ms"],
                [[_esc(name), entry.get("count", 0),
                  f"{entry.get('modelled_s', 0.0) * 1e3:,.3f}",
                  f"{entry.get('wall_s', 0.0) * 1e3:,.3f}"]
                 for name, entry in top],
                empty="(no spans recorded)",
            )),
        ))
    return _page("repro perf dashboard", meta, sections)


# -- noise calibration (repro noise report) --------------------------------------


def _noise_card(bits: str, name: str, trajectory) -> str:
    """Predicted and measured budget per step against the zero line."""
    final = trajectory[-1]
    chart = _chart(
        [([0.0] * len(trajectory), _RED, True),
         ([step["pred_bits"] for step in trajectory], _BLUE, True),
         ([step["meas_bits"] for step in trajectory], _GREEN, False)],
        "budget trajectory: " + " → ".join(s["op"] for s in trajectory),
        width=340, height=130, what="steps",
    )
    rows = [
        [i, _esc(step["op"]), f"{step['pred_bits']:.2f}",
         f"{step['meas_bits']:.2f}", step["depth"], step["key_switches"]]
        for i, step in enumerate(trajectory)
    ]
    return _card(
        f"{bits}-bit level · {name}",
        chart,
        _legend((("predicted (dashed)", _BLUE), ("measured", _GREEN),
                 ("zero, below which decryption fails", _RED))),
        f"<p class='meta'>final headroom: {final['meas_bits']:.1f} bits "
        f"measured ({final['pred_bits']:.1f} predicted) after "
        f"{len(trajectory) - 1} operations at depth {final['depth']}</p>",
        _details("trajectory", _table(
            ["step", "op", "pred bits", "meas bits", "depth", "key switches"],
            rows,
        )),
    )


def render_noise_report(current: dict, baseline=None, history=(), verdicts=None) -> str:
    """The noise calibration report: the NOISE-DRIFT gate's ``verdicts``,
    then per (security level, workload shape) the predicted and measured
    budget trajectories and the final decryption-failure headroom."""
    sections = [_verdict_card(
        "NOISE gate", "trajectories vs the calibration baseline", verdicts
    )]
    for bits, level in sorted(current["levels"].items(),
                              key=lambda item: int(item[0])):
        for name, shape in level["workloads"].items():
            sections.append(_noise_card(bits, name, shape["trajectory"]))
    return _page("repro noise calibration", _identities(current, baseline), sections)


# -- degraded-fleet availability (repro faults) ----------------------------------


def _faults_card(eid: str, points) -> str:
    worst = max((p.get("slowdown") or 1.0 for p in points), default=1.0)
    usable = [p for p in points
              if p.get("slowdown") is not None and p.get("healthy") is not None]
    # Availability decreases left to right: 100% healthy at the left.
    chart = _chart(
        [([p["slowdown"] for p in usable], _RED, False)],
        f"{eid}: PIM slowdown vs healthy fraction, worst {worst:.3f}x",
        xs=[-p["healthy"] for p in usable], width=320, height=120,
        what="grid points",
    )
    rows = [
        [f"{p['healthy'] * 100:.1f}%", p["disabled_dpus"], p["effective_dpus"],
         _num(p.get("pim_total"), ",.4f"), _num(p.get("slowdown"), ".4f", "x")]
        for p in points
    ]
    headers = ["healthy", "disabled", "effective DPUs", "pim total", "slowdown"]
    return _card(eid, chart, _table(headers, rows),
                 subtitle=f"worst slowdown {worst:.3f}x")


def render_faults_report(doc: dict) -> str:
    """The availability-vs-slowdown page for a ``repro faults sweep``
    document (:func:`repro.harness.chaos.sweep_degraded_fleet`): per
    experiment the PIM slowdown curve and the full grid table."""
    meta = [
        _identity(doc),
        f"seed {_esc(doc.get('seed'))} · fleet {_esc(doc.get('n_dpus'))} "
        "DPUs · grid " + ", ".join(f"{f * 100:.0f}%" for f in doc.get("grid", [])),
    ]
    sections = [_faults_card(eid, entry.get("points", []))
                for eid, entry in doc.get("experiments", {}).items()]
    return _page("repro degraded-fleet sweep", meta, sections)


# -- run registry (repro grid html) ----------------------------------------------

_STATUS_COLORS = {
    "done": _GREEN, "failed": _RED, "running": _AMBER, "pending": "#b0bec5",
}


def _heatmap_card(workload: str, cells) -> str:
    """Per-workload status heatmap: (security, healthy) rows × batch
    columns, one colored square per backend inside each cell."""

    def block(cell: dict) -> str:
        status = cell["status"]
        tip = f"{cell['backend']}: {status}"
        if status == "done" and cell.get("modelled_ms") is not None:
            tip += f" — {cell['modelled_ms']:,.4f} ms modelled"
        elif status == "failed" and cell.get("failure_header"):
            tip = cell["failure_header"]
        color = _STATUS_COLORS.get(status, "#555")
        return (f'<span class="gridcell" style="background:{color}" '
                f'title="{_esc(tip)}"></span>')

    batches = sorted({c["batch"] for c in cells})
    index: dict = {}
    for cell in cells:
        key = (cell["security_bits"], cell["healthy"], cell["batch"])
        index.setdefault(key, []).append(cell)
    row_keys = sorted({(c["security_bits"], c["healthy"]) for c in cells},
                      key=lambda k: (k[0], -k[1]))
    rows = [
        [f"{bits}b · {healthy * 100:g}% healthy"]
        + ["".join(map(block, index.get((bits, healthy, b), [])))
           for b in batches]
        for bits, healthy in row_keys
    ]
    done = sum(1 for c in cells if c["status"] == "done")
    return _card(workload,
                 _table(["security · health", *(f"{b:,}" for b in batches)], rows),
                 subtitle=f"{done}/{len(cells)} cells done")


def _trends_card(runs) -> str:
    """PIM modelled totals across recorded registry runs, per group."""
    series: dict = {}
    for run in runs:
        rollups = run.get("rollups", {})
        # Experiment groups when the grid covers them fully, plus the
        # per-workload totals any grid (even a truncated one) produces.
        merged = {**rollups.get("workloads", {}), **rollups.get("experiments", {})}
        for eid, totals in merged.items():
            series.setdefault(eid, []).append(
                (str(run.get("git_sha"))[:12], totals.get("pim"))
            )
    rows = []
    for eid, points in sorted(series.items()):
        values = [v for _sha, v in points]
        latest = next((v for v in reversed(values) if v is not None), None)
        shas = " → ".join(sha for sha, _v in points)
        rows.append([
            f"<span title='{_esc(shas)}'>{_esc(eid)}</span>",
            _sparkline(values, "pim modelled", lambda v: f"{v:,.4f} ms"),
            _num(latest, ",.4f"),
            len(values),
        ])
    return _card(
        "Modelled-time trends",
        _table(["experiment", "trend (old → new)", "latest [ms]", "runs"], rows,
               empty="No recorded runs yet — drain the grid with 'repro grid run'."),
        subtitle="pim totals across registry runs, by git SHA",
    )


def _annotation_links(annotations: dict) -> str:
    """Drift-annotation stamps: ``perf`` links to the per-experiment
    forensics artifact (``forensics-<experiment>.html``, as ``repro why
    <experiment> --html`` writes it in CI); ``failures`` is text."""
    parts = []
    perf = annotations.get("perf")
    if perf:
        label = (f"top drift: {perf.get('experiment', '?')}/"
                 f"{perf.get('backend', '?')} "
                 f"Δ{perf.get('delta_ms', 0.0):+.4g} ms")
        href = f"forensics-{perf.get('experiment', '')}.html"
        parts.append(f"<a href='{_esc(href)}'>{_esc(label)}</a>")
    failures = annotations.get("failures")
    if failures:
        parts.append(_esc(f"{failures.get('count', 0)} failure(s): "
                          f"{failures.get('first', '')}"))
    return f"<br><span class='meta'>{' · '.join(parts)}</span>" if parts else ""


def _history_card(runs, gate_runs) -> str:
    """Every recorded gate outcome over time, one tally per run: the
    runs ledger's grid verdicts (with their drift annotations) and the
    ``(source, doc, verdicts)`` gate rows, failing rows named."""
    rows = [
        ("grid", run,
         [_gate.Verdict(v["experiment"], v["verdict"])
          for v in run.get("rollups", {}).get("verdicts", [])],
         run.get("drift_annotations") or {})
        for run in runs
    ]
    rows += [(source, doc, list(vs), {}) for source, doc, vs in gate_runs]
    rows.sort(key=lambda row: row[1].get("created_at", ""))
    body = []
    for source, doc, verdicts, annotations in rows:
        bad = "; ".join(f"{v.key}: {v.verdict}" for v in verdicts if v.failed)
        body.append([
            _esc(doc.get("created_at", "")),
            f"<code>{_esc(str(doc.get('git_sha'))[:12])}</code>",
            _esc(source),
            _tally(v.verdict for v in verdicts)
            + (f"<br><span class='meta'>{_esc(bad)}</span>" if bad else "")
            + _annotation_links(annotations),
        ])
    return _card("Verdict history",
                 _table(["recorded", "git", "gate", "verdicts"], body,
                        empty="No recorded verdicts yet."),
                 subtitle="grid · perf · noise gates over time")


def render_grid_dashboard(cells, runs, spec, verdicts=None, gate_runs=()) -> str:
    """The ``repro grid html`` dashboard over a run registry's plain data
    (:class:`~repro.obs.registry.RunRegistry` cells, runs and spec).

    ``verdicts`` are the fault-free cells' perf-baseline cross-check
    (:func:`repro.obs.registry.check_against_baseline`); ``gate_runs``
    are ``(source, doc, verdicts)`` rows the caller checked (perf and
    noise histories), interleaved by time with the grid's own verdicts.
    """
    cells, runs = list(cells), list(runs)
    counts = Counter(cell["status"] for cell in cells)
    meta = [
        f"{len(cells)} cells — "
        + " · ".join(f"{status}: {n}" for status, n in sorted(counts.items()))
        + f" · seed {_esc(spec.seed)} · {len(runs)} recorded run(s)"
    ]
    if runs:
        meta.append(f"latest: {_identity(runs[-1])}")
    sections = [
        _verdict_card("Baseline cross-check",
                      "fault-free cells vs the committed perf baseline", verdicts),
        _legend(_STATUS_COLORS.items()),
    ]
    by_workload: dict = {}
    for cell in cells:
        by_workload.setdefault(cell["workload"], []).append(cell)
    sections.extend(_heatmap_card(w, by_workload[w])
                    for w in spec.workloads if w in by_workload)
    sections += [_trends_card(runs), _history_card(runs, gate_runs)]
    return _page("repro run registry", meta, sections)


# -- serving capacity (repro serve html) -----------------------------------------


def _cross_check(doc: dict, heading: str, subtitle: str) -> str:
    """A serving document's zero-fault perf-baseline cross-check rows."""
    return _verdict_card(heading, subtitle, [
        _gate.Verdict(row["experiment"], row["verdict"])
        for row in doc.get("baseline_check", [])
    ])


def _slo_tally(points) -> str:
    return f"<p>{_tally(p['verdict'] for p in points)} over {len(points)} points</p>"


def _ladder_card(doc: dict, bits: int) -> str:
    """One security level's QPS ladder, one table per health point."""
    headers = ["offered qps", "completed", "rejected", "p50 ms", "p99 ms",
               "p99.9 ms", "burn", "util", "energy J", "avg W", "verdict"]
    body = []
    for fraction, entry in doc["cells"][str(bits)].items():
        points = entry["points"]
        trend = _sparkline([p["p99_ms"] for p in points], "p99",
                           lambda v: f"{v:,.3f} ms")
        rows = [
            [f"{p['qps']:,.0f}", f"{p['completed']:,.0f}",
             f"{p['rejected']:,.0f}", _num(p["p50_ms"], ",.3f"),
             _num(p["p99_ms"], ",.3f"), _num(p["p999_ms"], ",.3f"),
             f"{p['max_burn_rate']:.3f}", f"{p['utilization'] * 100:.1f}%",
             _num(p.get("energy_j"), ".3f"), _num(p.get("avg_watts"), ".1f"),
             _badge(p["verdict"])]
            for p in points
        ]
        body += [f"<h3>{_esc(fraction)} healthy {trend}</h3>",
                 _table(headers, rows)]
    return _card(f"{doc['workload']}@{bits}", *body)


def render_serve_report(doc: dict) -> str:
    """The capacity dashboard for a ``repro serve sweep`` document
    (:func:`repro.serve.service.sweep_capacity`): its baseline
    cross-check, sustainable QPS per security level and fleet health,
    and the latency/burn-rate ladder behind each cell."""
    objectives = ", ".join(
        f"{o['name']} ({o['target'] * 100:g}% ≤ {o['threshold_s'] * 1e3:g} ms)"
        for o in doc.get("objectives", [])
    )
    meta = [
        _identity(doc),
        f"{_esc(doc['workload'])} · seed {_esc(doc['seed'])} · "
        f"{_esc(doc['duration_s'])} s window · "
        f"{_esc(doc['ops_per_request'])} ops/request · batch ≤ "
        f"{_esc(doc['max_batch'])} within {doc['max_wait_s'] * 1e3:g} ms · "
        f"fleet {_esc(doc['n_dpus'])} DPUs",
        f"objectives: {_esc(objectives)}",
    ]
    points = [point for by_health in doc["cells"].values()
              for entry in by_health.values() for point in entry["points"]]
    # Sustainable QPS per security level (rows) × fleet health (columns).
    fractions = [f"{f:g}" for f in doc["healthy"]]
    capacity = [
        [f"{_esc(doc['workload'])}@{bits}"]
        + ["breached" if q is None else f"{q:,.0f}"
           for q in (doc["cells"][str(bits)][f]["sustainable_qps"]
                     for f in fractions)]
        for bits in doc["security_levels"]
    ]
    sections = [
        _cross_check(doc, "Zero-fault baseline cross-check",
                     "serving pricer vs the committed perf baseline, bit-for-bit"),
        _slo_tally(points),
        _card("Sustainable QPS",
              _table(["class", *(f"{f} healthy" for f in fractions)], capacity),
              subtitle="highest offered rate meeting every objective"),
    ]
    sections.extend(_ladder_card(doc, bits) for bits in doc["security_levels"])
    return _page("repro serving capacity", meta, sections)


# -- energy & data movement (repro energy report) --------------------------------

#: Memory levels: movement key -> (label, color).
_MOVEMENT = {
    "wram_mram": ("WRAM↔MRAM DMA", _GREEN),
    "host_to_dpu": ("host→DPU (DDR)", _BLUE),
    "dpu_to_host": ("DPU→host (DDR)", "#6a1b9a"),
    "host_dram": ("host DRAM stream", "#e65100"),
    "hbm": ("GPU HBM stream", _AMBER),
}


def _energy_card(eid: str, exp: dict, history) -> str:
    """One experiment's energy-per-op / EDP / movement card."""
    joules, edp = exp.get("joules", {}), exp.get("edp_js", {})
    modelled, pim_j = exp.get("modelled_s", {}), joules.get("pim")
    trend = _series(history, eid, lambda e: e["joules"].get("pim"))
    body = ["<p class='meta'>pim energy trend"
            + _sparkline(trend, "pim energy", lambda v: f"{v:.4g} J") + "</p>"]
    rows = [
        [_esc(backend), f"{joules[backend]:.6g}",
         f"{modelled[backend] * 1e3:,.3f}" if backend in modelled else "-",
         _num(edp.get(backend), ".6g"),
         f"{joules[backend] / pim_j:,.1f}×" if pim_j else "-"]
        for backend in sorted(joules)
    ]
    if rows:
        body.append(_table(
            ["backend", "energy [J]", "modelled ms", "EDP [J·s]", "vs pim"], rows
        ))
    movement = exp.get("movement_bytes", {})
    if movement:
        body.append(f"<p class='meta'>data movement: "
                    f"{sum(movement.values()):,.0f} bytes</p>")
        segments = []
        for level, value in sorted(movement.items()):
            label, color = _MOVEMENT.get(level, (level, "#555"))
            segments.append((label, value, color))
        body.append(_bar(segments, unit="bytes"))
    kernels = exp.get("pim_kernels", {})
    if kernels:
        body.append(_details("PIM energy by kernel", _table(
            ["kernel", "energy [J]"],
            [[_esc(name), f"{value:.6g}"] for name, value in sorted(kernels.items())],
        )))
    return _card(eid, *body)


def render_energy_report(current: dict, baseline=None, history=(),
                         verdicts=None) -> str:
    """The energy dashboard: the ENERGY-DRIFT gate's ``verdicts``, then per
    experiment joules, EDP and PIM advantage per backend, the bytes moved
    per memory level, the per-kernel PIM split and a trend over
    ``history``."""
    config = current.get("config", {})
    meta = _identities(current, baseline) + [
        f"constants: DPU {config.get('dpu_active_watts', 0):g} W "
        f"active / {config.get('dpu_idle_watts', 0):g} W idle · MRAM DMA "
        f"{config.get('mram_dma_pj_per_byte', 0):g} pJ/B · DDR link "
        f"{config.get('host_link_pj_per_byte', 0):g} pJ/B · CPU "
        f"{config.get('cpu_watts', 0):g} W · GPU "
        f"{config.get('gpu_watts', 0):g} W"
    ]
    experiments = current.get("experiments", {})
    levels = sorted({level for exp in experiments.values()
                     for level in exp.get("movement_bytes", {})})
    sections = [
        _verdict_card("ENERGY gate", "current capture vs the committed baseline",
                      verdicts),
        _legend(_MOVEMENT.get(level, (level, "#555")) for level in levels)
        if levels else "",
    ]
    history = list(history) or [current]
    sections.extend(_energy_card(eid, exp, history)
                    for eid, exp in experiments.items())
    return _page("repro energy & data movement", meta, sections)


# -- drift forensics (repro why / repro forensics) -------------------------------


def _flame_color(delta_self: float, max_abs: float) -> str:
    """Red for slower in B, blue for faster, grey for unchanged."""
    if max_abs <= 0.0 or delta_self == 0.0:
        return "#eceff1"
    lightness = 92 - 32 * min(1.0, abs(delta_self) / max_abs)
    return f"hsl({6 if delta_self > 0 else 211},78%,{lightness:.0f}%)"


def _flame_html(aligned) -> str:
    """Aligned path rows as a differential icicle flamegraph.

    Frame width is proportional to the wider run's inclusive modelled
    time (``max(modelled_a, modelled_b)``), so a span that only exists
    on one side still gets its true width; color encodes the *self*
    modelled delta — the drift is painted on the frame that moved, not
    on every ancestor above it.
    """
    rows = [r for r in aligned if max(r["modelled_a"], r["modelled_b"]) > 0]
    if not rows:
        return "<p class='meta'>(no modelled spans to draw)</p>"
    children: dict = {}
    for row in rows:
        if row["depth"]:
            children.setdefault(row["path"].rsplit(";", 1)[0], []).append(row)
    max_abs = max(abs(r["self_modelled_b"] - r["self_modelled_a"]) for r in rows)

    def basis(row) -> float:
        return max(row["modelled_a"], row["modelled_b"])

    def node_html(row, parent_basis: float) -> str:
        width = 100.0 * basis(row) / parent_basis if parent_basis else 0.0
        delta_self = row["self_modelled_b"] - row["self_modelled_a"]
        tooltip = (
            f"{row['path']}\n"
            f"inclusive {row['modelled_a'] * 1e3:.3f} -> "
            f"{row['modelled_b'] * 1e3:.3f} ms\n"
            f"self Δ {delta_self * 1e3:+.3f} ms ({row['status']})"
        )
        kids = "".join(node_html(child, basis(row))
                       for child in children.get(row["path"], ()))
        return (
            f"<div class='fnode' style='width:{width:.3f}%'>"
            f"<div class='fbox' style='background:"
            f"{_flame_color(delta_self, max_abs)}' "
            f"title='{_esc(tooltip)}'>{_esc(row['name'])}</div>"
            + (f"<div class='fkids'>{kids}</div>" if kids else "")
            + "</div>"
        )

    roots = [row for row in rows if not row["depth"]]
    total = sum(basis(row) for row in roots)
    frames = "".join(node_html(row, total) for row in roots)
    legend = _legend((
        ("self slower in B", _flame_color(1.0, 1.0)),
        ("self faster in B", _flame_color(-1.0, 1.0)),
        ("unchanged — width ∝ inclusive modelled time of the wider run",
         "#eceff1"),
    ))
    return f"<div class='flame'>{frames}</div>{legend}"


def _spans_card(eid: str, spans: dict) -> str:
    """The top moved span paths and the differential flamegraph."""
    rows = [
        [_esc(row["path"]), row["count_a"], row["count_b"],
         f"{row['modelled_a'] * 1e3:,.3f}", f"{row['modelled_b'] * 1e3:,.3f}",
         f"{(row['self_modelled_b'] - row['self_modelled_a']) * 1e3:+,.3f}"]
        for row in spans["contributors"]
    ]
    headers = ["span path", "count A", "count B", "modelled A ms",
               "modelled B ms", "Δ self ms"]
    return _card(
        f"{eid} — span alignment",
        _table(headers, rows, empty="(no moved spans)"),
        "<h3>Differential flamegraph "
        "<span class='meta'>A (baseline) vs B (current)</span></h3>",
        _flame_html(spans["aligned"]),
    )


def _shifts_card(shifts: dict) -> str:
    rows = [
        [_esc(name), shift["index"],
         f"<code>{_esc(str(shift.get('git_sha'))[:12])}</code>",
         _esc(shift.get("created_at", "?")),
         f"{shift['before_mean']:,.6g}", f"{shift['after_mean']:,.6g}"]
        for name in sorted(shifts)
        for shift in shifts[name]
    ]
    headers = ["series", "index", "first git SHA", "recorded", "mean before",
               "mean after"]
    return _card(
        "Change points",
        _table(headers, rows, empty="No change points detected."),
        subtitle="CUSUM over longitudinal history",
    )


def render_forensics_report(report: dict) -> str:
    """A :mod:`repro.obs.forensics` ``why`` report (one experiment, then
    its change points) or ``diff`` report (every shared experiment): the
    span/model/energy families as verdict rows, then per experiment the
    top moved spans and the differential flamegraph."""
    if report.get("kind") == "why":
        eid = report["experiment"]
        meta = [f"experiment <strong>{_esc(eid)}</strong>",
                f"A (baseline): {_identity(report['baseline'])}",
                f"B (current): {_identity(report['current'])}"]
        experiments = {eid: report["families"]}
    else:
        meta = [f"A: {_identity(report['run_a'])}",
                f"B: {_identity(report['run_b'])}"]
        experiments = report["experiments"]
        if not experiments:
            meta.append("No experiments in common.")
    eids = sorted(experiments)
    verdicts = []
    for eid in eids:
        spans = experiments[eid]["spans"]
        verdicts.append(_gate.Verdict(
            f"{eid} spans", spans["verdict"],
            detail=f"{spans['mode']}-aligned, {spans['moved']} moved",
        ))
        verdicts.extend(
            _gate.Verdict(f"{eid} {name}", family["verdict"], tuple(family["notes"]))
            for name in ("model", "energy")
            if (family := experiments[eid].get(name)) is not None
        )
    sections = [_verdict_card("Drift families", "baseline A vs current B",
                              verdicts)]
    sections.extend(_spans_card(eid, experiments[eid]["spans"]) for eid in eids)
    if report.get("kind") == "why":
        sections.append(_shifts_card(report.get("shifts") or {}))
    return _page("repro drift forensics", meta, sections)


# -- sharded serving resilience (repro resil html) -------------------------------


def _resil_capacity_card(doc: dict) -> str:
    """Sustainable QPS, healthy vs one dead shard, per seed × K."""
    rows = []
    for key, entry in sorted(doc["capacity"].items()):
        retained, floor = entry["retained"], entry["retained_floor"]
        ok = retained is not None and retained >= floor
        rows.append([_esc(key), _esc(entry["healthy_qps"]),
                     _esc(entry["degraded_qps"]), _num(retained, ".2f"),
                     f"{floor:.2f}", _badge("SLO-OK" if ok else "SLO-BREACH")])
    headers = ["point", "healthy qps", "degraded qps", "retained", "floor", ""]
    return _card("Capacity under one dead shard", _table(headers, rows),
                 subtitle="sustainable QPS, healthy vs degraded fleet; the "
                 "floor is 1 − 1/K")


def _resil_points_cards(doc: dict) -> list:
    """Every grid point's attainment and resilience counters, then the
    per-shard health tables of the degraded points."""
    rows = [
        [_esc(label), p["completed"], p["rejected"],
         _num(p["attainment"], ".3f"), _num(p["p99_ms"], ".1f"),
         p["routed_batches"], p["redispatches"],
         f"{p['hedges_issued']}/{p['hedges_won']}", p["shed_requests"],
         p["breaker_opened"], _badge(p["verdict"])]
        for label, p in sorted(doc["points"].items())
    ]
    headers = ["point", "done", "rej", "attain", "p99 ms", "routed", "redisp",
               "hedge i/w", "shed", "trips", ""]

    def health(shard: dict) -> str:
        total = shard.get("total_dpus") or shard["healthy_dpus"] or 1
        frac = shard["healthy_dpus"] / total
        color = _GREEN if frac > 0.5 else _AMBER if frac > 0.0 else _RED
        return _bar([("healthy", shard["healthy_dpus"], color)], total=total,
                    unit="DPUs", width="8em")

    shard_headers = ["shard", "health", "healthy DPUs", "launches", "busy ms",
                     "breaker trips"]
    body = [
        _details(f"{label} — shard health", _table(shard_headers, [
            [f"shard {s['shard']}", health(s), s["healthy_dpus"],
             s["launches"], f"{s['busy_ms']:.2f}", s["breaker_opened"]]
            for s in point["shards"]
        ]))
        for label, point in sorted(doc["points"].items())
        if ":fleet=degraded:" in label
    ]
    return [_card("Grid points", _table(headers, rows)),
            _card("Shard health under degradation", *body)]


def render_resilience_report(current: dict, baseline=None, history=(),
                             verdicts=None) -> str:
    """The shard-health dashboard: the RESILIENCE gate's ``verdicts``, the
    perf cross-check, capacity healthy vs one dead shard, every grid
    point's SLO attainment and resilience counters, and per-shard health
    under degradation."""
    doc, cfg = current, current["config"]
    hedge, shed = cfg["hedge_after_s"], cfg["shed_burn_threshold"]
    meta = _identities(doc, baseline) + [
        f"{_esc(doc['workload'])}@{_esc(doc['security_bits'])} · "
        f"seeds {_esc(doc['seeds'])} · shards {_esc(doc['shard_counts'])} · "
        f"qps {_esc(doc['qps_grid'])} · {_esc(doc['duration_s'])} s window",
        f"breaker: trip at {_esc(cfg['breaker']['failure_threshold'])} "
        f"consecutive failures, cooldown "
        f"{cfg['breaker']['cooldown_s'] * 1e3:g} ms · retry budget "
        f"{_esc(cfg['retry_budget'])} · hedge after "
        + ("off" if hedge is None else f"{hedge * 1e3:g} ms")
        + " · shedding " + ("off" if shed is None else f"burn &gt; {shed:g}"),
    ]
    sections = [
        _verdict_card("RESILIENCE gate", "current run vs the committed "
                      "resilience baseline, exact equality", verdicts),
        _slo_tally(list(doc["points"].values())),
        _cross_check(doc, "Single-shard zero-fault cross-check",
                     "sharded pricer vs the committed perf baseline, bit-for-bit"),
        _resil_capacity_card(doc),
        *_resil_points_cards(doc),
    ]
    return _page("repro sharded serving resilience", meta, sections)
