"""Self-contained HTML perf dashboard (zero dependencies, inline SVG).

One call (:func:`render_dashboard`) turns the recorded run history and
the committed baseline into a single HTML file: a verdict summary, and
per experiment a verdict badge, a wall-time trend sparkline across all
recorded runs, the modelled series totals, and the top attribution
rows. Everything is inlined — CSS, SVG — so the file opens anywhere
(including as a CI artifact) with no server and no network.
"""

from __future__ import annotations

import html as _html
import pathlib

from repro.obs import gate as _gate
from repro.obs import perf as _perf

__all__ = [
    "render_dashboard",
    "write_dashboard",
    "render_profile_report",
    "render_noise_report",
    "write_noise_report",
    "render_faults_report",
    "write_faults_report",
    "render_grid_dashboard",
    "write_grid_dashboard",
    "render_serve_report",
    "write_serve_report",
    "render_energy_report",
    "write_energy_report",
    "render_forensics_report",
    "write_forensics_report",
    "render_resilience_report",
    "write_resilience_report",
]

_BADGE_COLORS = {
    _gate.VERDICT_OK: "#2e7d32",
    _gate.VERDICT_FASTER: "#1565c0",
    _gate.VERDICT_NEW: "#6a1b9a",
    _gate.VERDICT_REGRESSION: "#c62828",
    _gate.MODEL_DRIFT: "#e65100",
    "NOISE-DRIFT": "#c62828",
    "partial": "#f9a825",
    "SLO-OK": "#2e7d32",
    "SLO-BREACH": "#c62828",
    "ENERGY-DRIFT": "#c62828",
    "RESILIENCE-DRIFT": "#c62828",
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
.spark { vertical-align: middle; margin-left: .6em; }
.card { border: 1px solid #e0e0e0; border-radius: 6px;
        padding: .8em 1em; margin: .8em 0; }
details > summary { cursor: pointer; color: #555; }
.occbar { display: flex; height: 14px; width: 24em; border-radius: 3px;
          overflow: hidden; background: #eceff1; }
.occbar span { display: block; height: 100%; }
.legend span.swatch { display: inline-block; width: .8em; height: .8em;
                      border-radius: 2px; margin: 0 .3em 0 .9em;
                      vertical-align: -1px; }
"""

#: Stall-category colors, matching the occupancy legend.
_OCC_COLORS = {
    "issue": "#2e7d32",
    "dma_blocked": "#1565c0",
    "revolve_stall": "#f9a825",
    "dispatch_wait": "#e65100",
    "idle": "#b0bec5",
}


def _esc(value) -> str:
    return _html.escape(str(value), quote=True)


def _badge(verdict: str) -> str:
    color = _BADGE_COLORS.get(verdict, "#555")
    return f'<span class="badge" style="background:{color}">{_esc(verdict)}</span>'


def _fmt_ms_value(value: float) -> str:
    return f"{value * 1e3:.2f} ms"


def _sparkline(
    values,
    width: int = 160,
    height: int = 36,
    label: str = "wall median",
    fmt=_fmt_ms_value,
) -> str:
    """An inline SVG polyline of a value series (left = oldest)."""
    points = [v for v in values if v is not None]
    if len(points) < 2:
        return '<span class="meta">(need ≥2 runs for a trend)</span>'
    lo, hi = min(points), max(points)
    span = (hi - lo) or 1.0
    pad = 3
    step = (width - 2 * pad) / (len(points) - 1)
    coords = " ".join(
        f"{pad + i * step:.1f},"
        f"{height - pad - (v - lo) / span * (height - 2 * pad):.1f}"
        for i, v in enumerate(points)
    )
    last_y = height - pad - (points[-1] - lo) / span * (height - 2 * pad)
    title = (
        f"{label} trend over {len(points)} runs: "
        f"min {fmt(lo)}, max {fmt(hi)}"
    )
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
        f"<title>{_esc(title)}</title>"
        f'<polyline points="{coords}" fill="none" stroke="#1565c0" '
        f'stroke-width="1.5"/>'
        f'<circle cx="{pad + (len(points) - 1) * step:.1f}" '
        f'cy="{last_y:.1f}" r="2.5" fill="#1565c0"/>'
        f"</svg>"
    )


def _series_table(modelled: dict) -> str:
    rows = "".join(
        f"<tr><td>{_esc(name)}</td><td>{value:,.4f}</td></tr>"
        for name, value in sorted(modelled["series_totals"].items())
    )
    unit = _esc(modelled.get("unit", ""))
    return (
        "<table><tr><th>series (totals across "
        f"{modelled['n_rows']} rows)</th><th>value [{unit}]</th></tr>"
        f"{rows}</table>"
    )


def _attribution_table(attribution: dict, top_k: int = 5) -> str:
    ranked = sorted(
        attribution.items(),
        key=lambda item: -item[1].get("modelled_s", 0.0),
    )[:top_k]
    if not ranked:
        return '<span class="meta">(no spans recorded)</span>'
    rows = "".join(
        f"<tr><td>{_esc(name)}</td><td>{entry.get('count', 0)}</td>"
        f"<td>{entry.get('modelled_s', 0.0) * 1e3:,.3f}</td>"
        f"<td>{entry.get('wall_s', 0.0) * 1e3:,.3f}</td></tr>"
        for name, entry in ranked
    )
    return (
        "<table><tr><th>span</th><th>count</th>"
        "<th>modelled ms</th><th>wall ms</th></tr>"
        f"{rows}</table>"
    )


def _identity_line(doc: dict) -> str:
    return (
        f"run <code>{_esc(str(doc.get('run_id', '?'))[:12])}</code> · "
        f"{_esc(doc.get('created_at', '?'))} · "
        f"git <code>{_esc(str(doc.get('git_sha'))[:12])}</code>"
    )


def _page_head(title: str, extra_css: str = "") -> list:
    """The shared document prologue every report starts with."""
    return [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title><style>{_CSS}{extra_css}</style>"
        "</head><body>",
        f"<h1>{_esc(title)}</h1>",
    ]


#: The shared document epilogue (the counterpart of :func:`_page_head`).
_PAGE_FOOT = "</body></html>"


def _verdict_summary(labels) -> str:
    """Verdict-count badges plus the gate outcome, as one paragraph.

    ``labels`` are verdict *strings*; any label in
    :data:`repro.obs.gate.FAILING` fails the gate.
    """
    counts: dict = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return (
        "<p>"
        + " ".join(f"{_badge(k)} {n}" for k, n in sorted(counts.items()))
        + _gate_outcome(counts)
        + "</p>"
    )


def _gate_outcome(labels) -> str:
    if any(label in _gate.FAILING for label in labels):
        return " — <strong>gate fails</strong>"
    return " — gate passes"


def _gate_card(heading: str, subtitle: str, badges, notes=()) -> str:
    """A gate-outcome card: per-item badges and the pass/fail verdict.

    ``badges`` is an iterable of ``(verdict, label)`` pairs.
    """
    badges = list(badges)
    parts = [
        f"<div class='card'><h2>{_esc(heading)} "
        f"<span class='meta'>{_esc(subtitle)}</span></h2><p>",
        " ".join(_badge(v) + f" {_esc(label)}" for v, label in badges),
        _gate_outcome(v for v, _label in badges),
        "</p>",
    ]
    notes = list(notes)
    if notes:
        parts.append(
            "<ul>"
            + "".join(f"<li>{_esc(note)}</li>" for note in notes)
            + "</ul>"
        )
    parts.append("</div>")
    return "".join(parts)


def _write_html(path, html: str) -> None:
    """Write a rendered report, creating parent directories."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(html)


# -- pipeline profiles ------------------------------------------------------


def _occupancy_bar(occ, total_cycles: int) -> str:
    """One tasklet's cycle breakdown as a stacked horizontal bar."""
    shares = (
        ("issue", float(occ.instructions)),
        ("dma_blocked", occ.dma_blocked_cycles),
        ("revolve_stall", occ.revolve_stall_cycles),
        ("dispatch_wait", occ.dispatch_wait_cycles),
        ("idle", occ.idle_cycles),
    )
    total = total_cycles or 1
    segments = "".join(
        f'<span style="width:{value / total * 100:.2f}%;'
        f'background:{_OCC_COLORS[name]}" title="{_esc(name)}: '
        f"{value:,.0f} cycles ({value / total * 100:.1f}%)\"></span>"
        for name, value in shares
        if value > 0
    )
    return f'<div class="occbar">{segments}</div>'


def _occupancy_legend() -> str:
    labels = {
        "issue": "issuing",
        "dma_blocked": "DMA-blocked",
        "revolve_stall": "revolve stall",
        "dispatch_wait": "dispatch wait",
        "idle": "idle",
    }
    return (
        '<p class="meta legend">'
        + "".join(
            f'<span class="swatch" style="background:{color}"></span>'
            f"{_esc(labels[name])}"
            for name, color in _OCC_COLORS.items()
        )
        + "</p>"
    )


def _profile_section(profile) -> str:
    """One :class:`~repro.obs.profile.KernelProfile` as a card."""
    parts = ["<div class='card'>"]
    parts.append(
        f"<h2>{_esc(profile.label)} "
        f'<span class="badge" style="background:#37474f">'
        f"{_esc(profile.verdict)}</span></h2>"
    )
    subsample = (
        f" (subsampled from {profile.full_elements} elements/DPU)"
        if profile.subsampled
        else ""
    )
    parts.append(
        f"<p class='meta'>simulated {profile.simulated_cycles:,} cycles vs "
        f"analytic max(compute={profile.analytic_compute_cycles:,.0f}, "
        f"dma={profile.analytic_dma_cycles:,.0f}) — model error "
        f"{profile.model_error * 100:+.2f}%{_esc(subsample)}<br>"
        f"issue utilization {profile.issue_utilization * 100:.1f}% · "
        f"DMA engine busy {profile.dma.busy_fraction * 100:.1f}% over "
        f"{profile.dma.n_transfers} transfers (queue wait mean "
        f"{profile.dma.mean_queue_wait:.1f} / max "
        f"{profile.dma.max_queue_wait:.1f} cycles)</p>"
    )
    rows = "".join(
        f"<tr><td>t{occ.tasklet}</td>"
        f"<td>{occ.instructions:,}</td>"
        f"<td>{occ.occupancy * 100:.1f}%</td>"
        f"<td>{_occupancy_bar(occ, profile.simulated_cycles)}</td></tr>"
        for occ in profile.occupancy
    )
    parts.append(
        "<table><tr><th>tasklet</th><th>instr</th><th>occupancy</th>"
        "<th style='text-align:left'>cycle breakdown</th></tr>"
        f"{rows}</table>"
    )
    parts.append(_occupancy_legend())
    if profile.load is not None:
        load = profile.load
        parts.append(
            f"<p class='meta'>load balance: {load.dpus_engaged} DPUs over "
            f"{load.ranks_engaged} ranks ({load.idle_dpus} idle); "
            f"elements/DPU min {load.min_elements} / mean "
            f"{load.mean_elements:.1f} / max {load.max_elements} "
            f"(imbalance ×{load.imbalance:.2f})</p>"
        )
    if profile.dma.queue_waits:
        histogram = " · ".join(
            f"{_esc(label)}: {count}"
            for label, count in profile.dma.wait_histogram()
            if count
        )
        parts.append(
            f"<p class='meta'>queue-wait histogram [cycles]: {histogram}</p>"
        )
    parts.append("</div>")
    return "".join(parts)


def render_profile_report(
    profiles, title: str = "repro pipeline profile"
) -> str:
    """Standalone HTML report for pipeline profiles.

    ``profiles`` are :class:`~repro.obs.profile.KernelProfile` objects;
    each renders as a card with the bottleneck verdict, per-tasklet
    occupancy bars with the full stall breakdown, and DMA contention
    stats — the HTML face of ``repro profile``.
    """
    profiles = list(profiles)
    parts = _page_head(title)
    if not profiles:
        parts.append(
            "<p class='meta'>No PIM kernel launches to profile.</p>"
        )
    parts.extend(_profile_section(p) for p in profiles)
    parts.append(_PAGE_FOOT)
    return "".join(parts)


# -- noise calibration ------------------------------------------------------


def _budget_chart(trajectory, width: int = 340, height: int = 130) -> str:
    """Predicted and measured budget vs trajectory step, as inline SVG.

    Both series on one axis (bits of remaining invariant-noise budget);
    the zero line — below which decryption fails — is drawn dashed
    whenever the value range reaches it.
    """
    preds = [step["pred_bits"] for step in trajectory]
    meas = [step["meas_bits"] for step in trajectory]
    values = preds + meas + [0.0]
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    pad = 8
    n = len(trajectory)
    step_x = (width - 2 * pad) / max(n - 1, 1)

    def y(v: float) -> float:
        return height - pad - (v - lo) / span * (height - 2 * pad)

    def line(series, color: str, dashed: bool = False) -> str:
        coords = " ".join(
            f"{pad + i * step_x:.1f},{y(v):.1f}" for i, v in enumerate(series)
        )
        dash = ' stroke-dasharray="4 3"' if dashed else ""
        return (
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>'
        )

    ops = " → ".join(step["op"] for step in trajectory)
    parts = [
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">',
        f"<title>{_esc(f'budget trajectory: {ops}')}</title>",
        f'<line x1="{pad}" y1="{y(0.0):.1f}" x2="{width - pad}" '
        f'y2="{y(0.0):.1f}" stroke="#c62828" stroke-width="1" '
        f'stroke-dasharray="2 3"/>',
        line(preds, "#1565c0", dashed=True),
        line(meas, "#2e7d32"),
    ]
    parts.extend(
        f'<circle cx="{pad + i * step_x:.1f}" cy="{y(v):.1f}" r="2.2" '
        f'fill="#2e7d32"/>'
        for i, v in enumerate(meas)
    )
    parts.append("</svg>")
    return "".join(parts)


def _noise_card(bits: str, name: str, shape: dict, verdict) -> str:
    trajectory = shape["trajectory"]
    final = trajectory[-1]
    headroom = final["meas_bits"]
    parts = ["<div class='card'>"]
    parts.append(
        f"<h2>{_esc(bits)}-bit level · {_esc(name)} "
        + (_badge(verdict.verdict) if verdict is not None else "")
        + "</h2>"
    )
    parts.append(_budget_chart(trajectory))
    parts.append(
        "<p class='meta'>"
        '<span style="color:#1565c0">— — predicted</span> · '
        '<span style="color:#2e7d32">— measured</span> · '
        '<span style="color:#c62828">· · zero (decryption fails)</span>'
        f"<br>final headroom: {headroom:.1f} bits measured "
        f"({final['pred_bits']:.1f} predicted) after "
        f"{len(trajectory) - 1} operations at depth {final['depth']}"
        "</p>"
    )
    rows = "".join(
        f"<tr><td>{i}</td><td>{_esc(step['op'])}</td>"
        f"<td>{step['pred_bits']:.2f}</td>"
        f"<td>{step['meas_bits']:.2f}</td>"
        f"<td>{step['depth']}</td><td>{step['key_switches']}</td></tr>"
        for i, step in enumerate(trajectory)
    )
    parts.append(
        "<details><summary>trajectory</summary>"
        "<table><tr><th>step</th><th>op</th><th>pred bits</th>"
        "<th>meas bits</th><th>depth</th><th>key switches</th></tr>"
        f"{rows}</table></details>"
    )
    if verdict is not None and verdict.notes:
        parts.append(
            "<ul>"
            + "".join(f"<li>{_esc(note)}</li>" for note in verdict.notes)
            + "</ul>"
        )
    parts.append("</div>")
    return "".join(parts)


def render_noise_report(
    current: dict,
    baseline: dict | None = None,
    title: str = "repro noise calibration",
) -> str:
    """Budget-vs-depth HTML report for a recorded noise run.

    Each (security level, workload shape) renders as a card: the
    predicted and measured budget trajectories against the zero line,
    the final decryption-failure headroom, and — when a calibration
    baseline is given — the same ``NOISE-DRIFT`` verdict badges as
    ``repro noise check`` (:func:`repro.obs.noisegate.check_noise_runs`).
    """
    from repro.obs import noisegate as _ng

    verdict_by_key: dict = {}
    verdicts = []
    if baseline is not None:
        verdicts = _ng.check_noise_runs(baseline, current)
        verdict_by_key = {v.key: v for v in verdicts}

    parts = _page_head(title)
    parts.append(
        f"<p class='meta'>current: {_identity_line(current)}"
        + (
            f"<br>baseline: {_identity_line(baseline)}"
            if baseline is not None
            else ""
        )
        + "</p>"
    )
    if verdicts:
        parts.append(_verdict_summary(v.verdict for v in verdicts))
    for bits, level in sorted(
        current["levels"].items(), key=lambda item: int(item[0])
    ):
        for name, shape in level["workloads"].items():
            verdict = verdict_by_key.get(f"{bits}b/{name}")
            parts.append(_noise_card(bits, name, shape, verdict))
    parts.append(_PAGE_FOOT)
    return "".join(parts)


def write_noise_report(path, current, baseline=None, **kwargs) -> None:
    """Render and write the noise-calibration HTML file."""
    _write_html(path, render_noise_report(current, baseline, **kwargs))


# -- degraded-fleet availability card (repro faults) ------------------------


def _slowdown_chart(
    points, width: int = 320, height: int = 120
) -> str:
    """Availability (x, healthy fraction) vs slowdown (y) as inline SVG."""
    usable = [
        p
        for p in points
        if p.get("slowdown") is not None and p.get("healthy") is not None
    ]
    if len(usable) < 2:
        return '<span class="meta">(need ≥2 grid points for a curve)</span>'
    pad = 8
    xs = [p["healthy"] for p in usable]
    ys = [p["slowdown"] for p in usable]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def coord(p):
        # Availability decreases left to right: 100% healthy at the left.
        x = pad + (x_hi - p["healthy"]) / x_span * (width - 2 * pad)
        y = (
            height
            - pad
            - (p["slowdown"] - y_lo) / y_span * (height - 2 * pad)
        )
        return f"{x:.1f},{y:.1f}"

    coords = " ".join(coord(p) for p in usable)
    title = (
        f"slowdown {y_lo:.3f}x at {x_hi * 100:.0f}% healthy to "
        f"{y_hi:.3f}x at {x_lo * 100:.0f}% healthy"
    )
    dots = "".join(
        f'<circle cx="{coord(p).split(",")[0]}" '
        f'cy="{coord(p).split(",")[1]}" r="2.5" fill="#c62828"/>'
        for p in usable
    )
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
        f"<title>{_esc(title)}</title>"
        f'<polyline points="{coords}" fill="none" stroke="#c62828" '
        f'stroke-width="1.5"/>{dots}</svg>'
    )


def _faults_card(eid: str, entry: dict) -> str:
    """One experiment's availability-vs-slowdown card."""
    points = entry.get("points", [])
    worst = max(
        (p.get("slowdown") or 1.0 for p in points), default=1.0
    )
    parts = ["<div class='card'>"]
    parts.append(
        f"<h2>{_esc(eid)} "
        f"<span class='meta'>worst slowdown {worst:.3f}x</span></h2>"
    )
    parts.append(_slowdown_chart(points))
    rows = "".join(
        f"<tr><td>{p['healthy'] * 100:.1f}%</td>"
        f"<td>{p['disabled_dpus']}</td><td>{p['effective_dpus']}</td>"
        + (
            f"<td>{p['pim_total']:,.4f}</td>"
            if p.get("pim_total") is not None
            else "<td>-</td>"
        )
        + (
            f"<td>{p['slowdown']:.4f}x</td>"
            if p.get("slowdown") is not None
            else "<td>-</td>"
        )
        + "</tr>"
        for p in points
    )
    parts.append(
        "<table><tr><th>healthy</th><th>disabled</th><th>effective "
        "DPUs</th><th>pim total</th><th>slowdown</th></tr>"
        f"{rows}</table>"
    )
    parts.append("</div>")
    return "".join(parts)


def render_faults_report(
    doc: dict, title: str = "repro degraded-fleet sweep"
) -> str:
    """The availability-vs-slowdown card for a recorded faults sweep.

    One card per swept experiment: the PIM slowdown curve across the
    healthy-fraction grid (100% healthy at the left) plus the full
    grid table — fleet sizes, modelled totals, slowdowns. Rendered
    from the JSON document ``repro faults sweep -o`` writes
    (:func:`repro.harness.chaos.sweep_degraded_fleet`).
    """
    parts = _page_head(title)
    parts.append(
        f"<p class='meta'>{_identity_line(doc)}"
        f"<br>seed {_esc(doc.get('seed'))} · fleet "
        f"{_esc(doc.get('n_dpus'))} DPUs · grid "
        + ", ".join(f"{f * 100:.0f}%" for f in doc.get("grid", []))
        + "</p>"
    )
    for eid, entry in doc.get("experiments", {}).items():
        parts.append(_faults_card(eid, entry))
    parts.append(_PAGE_FOOT)
    return "".join(parts)


def write_faults_report(path, doc, **kwargs) -> None:
    """Render and write the degraded-fleet sweep HTML card."""
    _write_html(path, render_faults_report(doc, **kwargs))


def render_dashboard(
    history,
    baseline: dict | None = None,
    skip_wall: bool = False,
    title: str = "repro perf dashboard",
    profiles=None,
) -> str:
    """The dashboard HTML for a run history (oldest first).

    The newest history entry is "the current run"; when a baseline is
    given, verdict badges come from the same policies as
    ``repro perf check`` (:func:`repro.obs.perf.check_runs`).
    """
    history = list(history)
    if not history and baseline is not None:
        history = [baseline]
    current = history[-1] if history else None

    verdict_by_exp: dict = {}
    verdicts = []
    if baseline is not None and current is not None:
        verdicts = _perf.check_runs(baseline, current, skip_wall=skip_wall)
        verdict_by_exp = {v.key: v for v in verdicts}

    parts = _page_head(title)
    if current is None:
        parts.append(
            "<p class='meta'>No recorded runs yet — run "
            "<code>repro perf record</code>.</p>"
        )
        if profiles:
            parts.append("<h2>Pipeline profiles</h2>")
            parts.extend(_profile_section(p) for p in profiles)
        parts.append(_PAGE_FOOT)
        return "".join(parts)

    parts.append(
        f"<p class='meta'>{len(history)} recorded run(s); latest: "
        f"{_identity_line(current)}"
        + (
            f"<br>baseline: {_identity_line(baseline)}"
            if baseline is not None
            else ""
        )
        + "</p>"
    )
    if verdicts:
        parts.append(_verdict_summary(v.verdict for v in verdicts))

    for eid, exp in current["experiments"].items():
        verdict = verdict_by_exp.get(eid)
        walls = [
            doc["experiments"][eid]["wall"]["median_s"]
            if eid in doc.get("experiments", {})
            else None
            for doc in history
        ]
        parts.append("<div class='card'>")
        parts.append(
            f"<h2>{_esc(eid)} "
            + (_badge(verdict.verdict) if verdict else "")
            + _sparkline(walls)
            + "</h2>"
        )
        wall = exp["wall"]
        parts.append(
            f"<p class='meta'>wall median {wall['median_s'] * 1e3:.2f} ms "
            f"(spread {wall['spread'] * 100:.0f}% over "
            f"{wall['repeats']} repeats)"
            + (
                f" · {verdict.detail} vs baseline" if verdict else ""
            )
            + "</p>"
        )
        if verdict and verdict.notes:
            parts.append(
                "<ul>"
                + "".join(f"<li>{_esc(note)}</li>" for note in verdict.notes)
                + "</ul>"
            )
        parts.append(_series_table(exp["modelled"]))
        parts.append(
            "<details><summary>attribution (top spans by modelled "
            "time)</summary>"
            + _attribution_table(exp.get("attribution", {}))
            + "</details>"
        )
        parts.append("</div>")

    if profiles:
        parts.append("<h2>Pipeline profiles</h2>")
        parts.extend(_profile_section(p) for p in profiles)
    parts.append(_PAGE_FOOT)
    return "".join(parts)


def write_dashboard(path, history, baseline=None, **kwargs) -> None:
    """Render and write the dashboard HTML file."""
    _write_html(path, render_dashboard(history, baseline, **kwargs))


# -- longitudinal grid dashboard (repro grid html) ---------------------------

_STATUS_COLORS = {
    "done": "#2e7d32",
    "failed": "#c62828",
    "running": "#f9a825",
    "pending": "#b0bec5",
}


def _status_block(cell: dict) -> str:
    """One backend's status square inside a heatmap cell."""
    status = cell["status"]
    color = _STATUS_COLORS.get(status, "#555")
    tip = f"{cell['backend']}: {status}"
    if status == "done" and cell.get("modelled_ms") is not None:
        tip += f" — {cell['modelled_ms']:,.4f} ms modelled"
    elif status == "failed" and cell.get("failure_header"):
        tip = cell["failure_header"]
    return (
        f'<span class="gridcell" style="background:{color}" '
        f'title="{_esc(tip)}"></span>'
    )


def _heatmap_card(workload: str, cells) -> str:
    """Per-workload status heatmap: (security, healthy) rows × batch
    columns, one colored square per backend inside each cell."""
    batches = sorted({c["batch"] for c in cells})
    index: dict = {}
    for cell in cells:
        key = (cell["security_bits"], cell["healthy"], cell["batch"])
        index.setdefault(key, []).append(cell)
    row_keys = sorted(
        {(c["security_bits"], c["healthy"]) for c in cells},
        key=lambda k: (k[0], -k[1]),
    )
    head = "".join(f"<th>{batch:,}</th>" for batch in batches)
    body = []
    for bits, healthy in row_keys:
        tds = []
        for batch in batches:
            group = index.get((bits, healthy, batch), [])
            tds.append(
                "<td>"
                + "".join(_status_block(c) for c in group)
                + "</td>"
            )
        body.append(
            f"<tr><td>{bits}b · {healthy * 100:g}% healthy</td>"
            + "".join(tds)
            + "</tr>"
        )
    done = sum(1 for c in cells if c["status"] == "done")
    return (
        "<div class='card'>"
        f"<h2>{_esc(workload)} "
        f"<span class='meta'>{done}/{len(cells)} cells done</span></h2>"
        f"<table><tr><th>security · health</th>{head}</tr>"
        + "".join(body)
        + "</table></div>"
    )


def _heatmap_legend() -> str:
    return (
        '<p class="meta legend">'
        + "".join(
            f'<span class="swatch" style="background:{color}"></span>'
            f"{_esc(status)}"
            for status, color in _STATUS_COLORS.items()
        )
        + "</p>"
    )


def _grid_trends_card(runs) -> str:
    """Modelled-time trend lines across recorded registry runs.

    One row per experiment group the registry's ledger rolled up: the
    PIM modelled total across runs (left = oldest, labelled by git
    SHA in the tooltip) as a sparkline, plus the latest value.
    """
    series: dict = {}
    for run in runs:
        rollups = run.get("rollups", {})
        # Experiment groups when the grid covers them fully, plus the
        # per-workload totals any grid (even a truncated one) produces.
        merged = dict(rollups.get("workloads", {}))
        merged.update(rollups.get("experiments", {}))
        for eid, totals in merged.items():
            series.setdefault(eid, []).append(
                (str(run.get("git_sha"))[:12], totals.get("pim"))
            )
    if not series:
        return (
            "<div class='card'><h2>Modelled-time trends</h2>"
            "<p class='meta'>No recorded runs yet — drain the grid "
            "with <code>repro grid run</code>.</p></div>"
        )
    rows = []
    for eid, points in sorted(series.items()):
        values = [v for _sha, v in points]
        latest = next(
            (v for v in reversed(values) if v is not None), None
        )
        shas = " → ".join(sha for sha, _v in points)
        rows.append(
            f"<tr><td title='{_esc(shas)}'>{_esc(eid)}</td>"
            f"<td style='text-align:left'>{_sparkline(values)}</td>"
            + (
                f"<td>{latest:,.4f}</td>"
                if latest is not None
                else "<td>-</td>"
            )
            + f"<td>{len(values)}</td></tr>"
        )
    return (
        "<div class='card'><h2>Modelled-time trends "
        "<span class='meta'>pim totals across registry runs, by git "
        "SHA</span></h2>"
        "<table><tr><th>experiment</th>"
        "<th style='text-align:left'>trend (old → new)</th>"
        "<th>latest [ms]</th><th>runs</th></tr>"
        + "".join(rows)
        + "</table></div>"
    )


def _verdict_history_rows(runs, perf_history, baseline,
                          noise_history, noise_baseline) -> list:
    """(created_at, git_sha, source, [(experiment, verdict)],
    drift_annotations) rows."""
    from repro.obs import noisegate as _ng

    rows = []
    for run in runs:
        verdicts = run.get("rollups", {}).get("verdicts", [])
        rows.append(
            (
                run.get("created_at", ""),
                str(run.get("git_sha"))[:12],
                "grid",
                [(v["experiment"], v["verdict"]) for v in verdicts],
                run.get("drift_annotations") or {},
            )
        )
    if baseline is not None:
        for doc in perf_history or []:
            verdicts = _perf.check_runs(baseline, doc, skip_wall=True)
            rows.append(
                (
                    doc.get("created_at", ""),
                    str(doc.get("git_sha"))[:12],
                    "perf",
                    [(v.key, v.verdict) for v in verdicts],
                    {},
                )
            )
    if noise_baseline is not None:
        for doc in noise_history or []:
            verdicts = _ng.check_noise_runs(noise_baseline, doc)
            rows.append(
                (
                    doc.get("created_at", ""),
                    str(doc.get("git_sha"))[:12],
                    "noise",
                    [(v.key, v.verdict) for v in verdicts],
                    {},
                )
            )
    rows.sort(key=lambda row: row[0])
    return rows


def _annotation_links(annotations: dict) -> str:
    """Drift-annotation stamps as deep-links into forensics reports.

    The ``perf`` stamp links to the conventional per-experiment
    forensics artifact (``forensics-<experiment>.html``, as written by
    ``repro why <experiment> --html`` in CI); the ``failures`` stamp is
    informational text.
    """
    parts = []
    perf = annotations.get("perf")
    if perf:
        label = (
            f"top drift: {perf.get('experiment', '?')}/"
            f"{perf.get('backend', '?')} "
            f"Δ{perf.get('delta_ms', 0.0):+.4g} ms"
        )
        href = f"forensics-{perf.get('experiment', '')}.html"
        parts.append(f"<a href='{_esc(href)}'>{_esc(label)}</a>")
    failures = annotations.get("failures")
    if failures:
        parts.append(
            _esc(
                f"{failures.get('count', 0)} failure(s): "
                f"{failures.get('first', '')}"
            )
        )
    if not parts:
        return ""
    return f"<br><span class='meta'>{' · '.join(parts)}</span>"


def _verdict_history_card(rows) -> str:
    """The longitudinal verdict table: every recorded gate outcome —
    grid MODEL-DRIFT, perf MODEL-DRIFT/REGRESSION, noise NOISE-DRIFT —
    ordered by time, one badge summary per recorded run, with grid
    rows' drift-annotation stamps deep-linking into forensics reports."""
    if not rows:
        return (
            "<div class='card'><h2>Verdict history</h2>"
            "<p class='meta'>No recorded verdicts yet.</p></div>"
        )
    body = []
    for created_at, sha, source, verdicts, annotations in rows:
        counts: dict = {}
        for _name, verdict in verdicts:
            counts[verdict] = counts.get(verdict, 0) + 1
        bad = [
            f"{name}: {verdict}"
            for name, verdict in verdicts
            if verdict in _gate.FAILING
        ]
        badges = " ".join(
            f"{_badge(verdict)} {n}" for verdict, n in sorted(counts.items())
        )
        detail = (
            f"<br><span class='meta'>{_esc('; '.join(bad))}</span>"
            if bad
            else ""
        )
        body.append(
            f"<tr><td>{_esc(created_at)}</td><td><code>{_esc(sha)}</code>"
            f"</td><td>{_esc(source)}</td>"
            f"<td style='text-align:left'>{badges}{detail}"
            f"{_annotation_links(annotations)}</td></tr>"
        )
    return (
        "<div class='card'><h2>Verdict history "
        "<span class='meta'>grid · perf · noise gates over time</span>"
        "</h2><table><tr><th>recorded</th><th>git</th><th>gate</th>"
        "<th style='text-align:left'>verdicts</th></tr>"
        + "".join(body)
        + "</table></div>"
    )


def render_grid_dashboard(
    cells,
    runs,
    spec,
    baseline: dict | None = None,
    perf_history=None,
    noise_baseline: dict | None = None,
    noise_history=None,
    title: str = "repro run registry",
) -> str:
    """The longitudinal dashboard for a run registry (``repro grid html``).

    Three panels over the registry's plain data (``cells`` and ``runs``
    as returned by :meth:`~repro.obs.registry.RunRegistry.cells` /
    :meth:`~repro.obs.registry.RunRegistry.runs`, ``spec`` the
    :class:`~repro.obs.registry.GridSpec`):

    * a per-cell **status heatmap** per workload — security × health
      rows, batch columns, one colored square per backend;
    * **modelled-time trend lines** across recorded registry runs,
      labelled by git SHA;
    * the **verdict history** — grid MODEL-DRIFT outcomes from the
      runs ledger, interleaved with perf (MODEL-DRIFT / REGRESSION)
      and noise (NOISE-DRIFT) gate outcomes recomputed from their
      committed histories, ordered by time.
    """
    from repro.obs import registry as _registry

    cells = list(cells)
    runs = list(runs)
    counts: dict = {}
    for cell in cells:
        counts[cell["status"]] = counts.get(cell["status"], 0) + 1
    parts = _page_head(
        title,
        extra_css=(
            ".gridcell { display: inline-block; width: .9em; height: .9em;"
            " border-radius: 2px; margin: 1px; vertical-align: middle; }"
        ),
    )
    parts.extend([
        f"<p class='meta'>{len(cells)} cells — "
        + " · ".join(
            f"{status}: {n}" for status, n in sorted(counts.items())
        )
        + f" · seed {_esc(spec.seed)} · {len(runs)} recorded run(s)"
        + (
            f"<br>latest: {_identity_line(runs[-1])}" if runs else ""
        )
        + "</p>",
        _heatmap_legend(),
    ])

    by_workload: dict = {}
    for cell in cells:
        by_workload.setdefault(cell["workload"], []).append(cell)
    for workload in spec.workloads:
        if workload in by_workload:
            parts.append(_heatmap_card(workload, by_workload[workload]))

    parts.append(_grid_trends_card(runs))

    verdicts = _registry.check_against_baseline(cells, baseline)
    if verdicts:
        parts.append(
            _gate_card(
                "Baseline cross-check",
                "fault-free cells vs the committed perf baseline",
                [(v.verdict, v.key) for v in verdicts],
                notes=[note for v in verdicts for note in v.notes],
            )
        )

    parts.append(
        _verdict_history_card(
            _verdict_history_rows(
                runs, perf_history, baseline, noise_history, noise_baseline
            )
        )
    )
    parts.append(_PAGE_FOOT)
    return "".join(parts)


def write_grid_dashboard(path, cells, runs, spec, **kwargs) -> None:
    """Render and write the longitudinal grid dashboard."""
    _write_html(path, render_grid_dashboard(cells, runs, spec, **kwargs))


# -- serving capacity dashboard (repro serve html) ---------------------------


def _fmt_point_ms(value) -> str:
    return "-" if value is None else f"{value:,.3f}"


def _capacity_overview(doc: dict) -> str:
    """Sustainable QPS per security level (rows) × fleet health (cols)."""
    fractions = [f"{f:g}" for f in doc["healthy"]]
    head = "".join(
        f"<th>{_esc(f)} healthy</th>" for f in fractions
    )
    body = []
    for bits in doc["security_levels"]:
        by_health = doc["cells"][str(bits)]
        tds = []
        for fraction in fractions:
            sustainable = by_health[fraction]["sustainable_qps"]
            tds.append(
                f"<td>{sustainable:,.0f}</td>"
                if sustainable is not None
                else "<td>breached</td>"
            )
        body.append(
            f"<tr><td>{_esc(doc['workload'])}@{bits}</td>"
            + "".join(tds)
            + "</tr>"
        )
    return (
        "<div class='card'><h2>Sustainable QPS "
        "<span class='meta'>highest offered rate meeting every "
        "objective</span></h2>"
        f"<table><tr><th>class</th>{head}</tr>"
        + "".join(body)
        + "</table></div>"
    )


def _serve_points_card(doc: dict, bits: int) -> str:
    """One security level's QPS ladder, one table per health point."""
    by_health = doc["cells"][str(bits)]
    parts = ["<div class='card'>", f"<h2>{_esc(doc['workload'])}@{bits}</h2>"]
    for fraction, entry in by_health.items():
        p99s = [p["p99_ms"] for p in entry["points"]]
        parts.append(
            f"<h3>{_esc(fraction)} healthy "
            + _sparkline(p99s)
            + "</h3>"
        )
        rows = "".join(
            f"<tr><td>{p['qps']:,.0f}</td>"
            f"<td>{p['completed']:,.0f}</td>"
            f"<td>{p['rejected']:,.0f}</td>"
            f"<td>{_fmt_point_ms(p['p50_ms'])}</td>"
            f"<td>{_fmt_point_ms(p['p99_ms'])}</td>"
            f"<td>{_fmt_point_ms(p['p999_ms'])}</td>"
            f"<td>{p['max_burn_rate']:.3f}</td>"
            f"<td>{p['utilization'] * 100:.1f}%</td>"
            + (
                f"<td>{p['energy_j']:.3f}</td>"
                if p.get("energy_j") is not None
                else "<td>-</td>"
            )
            + (
                f"<td>{p['avg_watts']:.1f}</td>"
                if p.get("avg_watts") is not None
                else "<td>-</td>"
            )
            + f"<td style='text-align:left'>{_badge(p['verdict'])}</td></tr>"
            for p in entry["points"]
        )
        parts.append(
            "<table><tr><th>offered qps</th><th>completed</th>"
            "<th>rejected</th><th>p50 ms</th><th>p99 ms</th>"
            "<th>p99.9 ms</th><th>burn</th><th>util</th>"
            "<th>energy J</th><th>avg W</th>"
            "<th style='text-align:left'>verdict</th></tr>"
            f"{rows}</table>"
        )
    return "".join(parts) + "</div>"


def render_serve_report(
    doc: dict, title: str = "repro serving capacity"
) -> str:
    """The capacity dashboard for a recorded serving sweep.

    Answers ROADMAP item 2 directly: what QPS can one node sustain at
    each security level, at each fleet-health point, with p50/p99/p99.9
    modelled latency and burn rates behind each cell. Rendered from the
    JSON document ``repro serve sweep -o`` writes
    (:func:`repro.serve.service.sweep_capacity`); when the sweep
    carried the zero-fault baseline cross-check, its bit-identity
    verdicts render too.
    """
    objectives = ", ".join(
        f"{o['name']} ({o['target'] * 100:g}% ≤ {o['threshold_s'] * 1e3:g} ms)"
        for o in doc.get("objectives", [])
    )
    ok = breach = 0
    for by_health in doc["cells"].values():
        for entry in by_health.values():
            for point in entry["points"]:
                if point["verdict"] == "SLO-OK":
                    ok += 1
                else:
                    breach += 1
    parts = _page_head(title)
    parts.extend([
        f"<p class='meta'>{_identity_line(doc)}"
        f"<br>{_esc(doc['workload'])} · seed {_esc(doc['seed'])} · "
        f"{_esc(doc['duration_s'])} s window · "
        f"{_esc(doc['ops_per_request'])} ops/request · batch ≤ "
        f"{_esc(doc['max_batch'])} within "
        f"{doc['max_wait_s'] * 1e3:g} ms · fleet {_esc(doc['n_dpus'])} DPUs"
        f"<br>objectives: {_esc(objectives)}</p>",
        f"<p>{_badge('SLO-OK')} {ok} {_badge('SLO-BREACH')} {breach} "
        f"over {ok + breach} points</p>",
        _capacity_overview(doc),
    ])
    for bits in doc["security_levels"]:
        parts.append(_serve_points_card(doc, bits))
    checks = doc.get("baseline_check", [])
    if checks:
        parts.append(
            _gate_card(
                "Zero-fault baseline cross-check",
                "serving pricer vs the committed perf baseline, "
                "bit-for-bit",
                [(v["verdict"], v["experiment"]) for v in checks],
            )
        )
    parts.append(_PAGE_FOOT)
    return "".join(parts)


def write_serve_report(path, doc, **kwargs) -> None:
    """Render and write the serving capacity dashboard."""
    _write_html(path, render_serve_report(doc, **kwargs))


# -- energy & data movement (repro energy report) ----------------------------

#: Memory-level colors for the movement stacked bars.
_MOVE_COLORS = {
    "wram_mram": "#2e7d32",
    "host_to_dpu": "#1565c0",
    "dpu_to_host": "#6a1b9a",
    "host_dram": "#e65100",
    "hbm": "#f9a825",
}

_MOVE_LABELS = {
    "wram_mram": "WRAM↔MRAM DMA",
    "host_to_dpu": "host→DPU (DDR)",
    "dpu_to_host": "DPU→host (DDR)",
    "host_dram": "host DRAM stream",
    "hbm": "GPU HBM stream",
}


def _movement_bar(movement: dict) -> str:
    """Bytes moved per memory level as one stacked horizontal bar."""
    total = sum(movement.values())
    if not total:
        return '<span class="meta">(no bytes moved)</span>'
    segments = "".join(
        f'<span style="width:{value / total * 100:.2f}%;'
        f'background:{_MOVE_COLORS.get(level, "#555")}" '
        f'title="{_esc(_MOVE_LABELS.get(level, level))}: '
        f"{value:,.0f} bytes ({value / total * 100:.1f}%)\"></span>"
        for level, value in sorted(movement.items())
        if value > 0
    )
    return f'<div class="occbar">{segments}</div>'


def _movement_legend(levels) -> str:
    return (
        '<p class="meta legend">'
        + "".join(
            f'<span class="swatch" '
            f'style="background:{_MOVE_COLORS.get(level, "#555")}"></span>'
            f"{_esc(_MOVE_LABELS.get(level, level))}"
            for level in sorted(levels)
        )
        + "</p>"
    )


def _energy_card(eid: str, exp: dict, verdict, history) -> str:
    """One experiment's energy-per-op / EDP / movement card."""
    joules = exp.get("joules", {})
    modelled = exp.get("modelled_s", {})
    edp = exp.get("edp_js", {})
    pim_j = joules.get("pim")
    trend = [
        doc["experiments"][eid]["joules"].get("pim")
        if eid in doc.get("experiments", {})
        else None
        for doc in history
    ]
    parts = ["<div class='card'>"]
    parts.append(
        f"<h2>{_esc(eid)} "
        + (_badge(verdict.verdict) if verdict else "")
        + _sparkline(
            trend, label="pim energy", fmt=lambda v: f"{v:.4g} J"
        )
        + "</h2>"
    )
    if verdict and verdict.notes:
        parts.append(
            "<ul>"
            + "".join(f"<li>{_esc(note)}</li>" for note in verdict.notes)
            + "</ul>"
        )
    rows = []
    for backend in sorted(joules):
        seconds = modelled.get(backend)
        ratio = (
            f"{joules[backend] / pim_j:,.1f}×"
            if pim_j and backend != "pim"
            else ("1×" if backend == "pim" and pim_j else "-")
        )
        rows.append(
            f"<tr><td>{_esc(backend)}</td>"
            f"<td>{joules[backend]:.6g}</td>"
            + (
                f"<td>{seconds * 1e3:,.3f}</td>"
                if seconds is not None
                else "<td>-</td>"
            )
            + (
                f"<td>{edp[backend]:.6g}</td>"
                if backend in edp
                else "<td>-</td>"
            )
            + f"<td>{ratio}</td></tr>"
        )
    if rows:
        parts.append(
            "<table><tr><th>backend</th><th>energy [J]</th>"
            "<th>modelled ms</th><th>EDP [J·s]</th>"
            "<th>vs pim</th></tr>" + "".join(rows) + "</table>"
        )
    movement = exp.get("movement_bytes", {})
    if movement:
        parts.append(
            f"<p class='meta'>data movement: "
            f"{sum(movement.values()):,.0f} bytes</p>"
        )
        parts.append(_movement_bar(movement))
    kernels = exp.get("pim_kernels", {})
    if kernels:
        kernel_rows = "".join(
            f"<tr><td>{_esc(name)}</td><td>{value:.6g}</td></tr>"
            for name, value in sorted(kernels.items())
        )
        parts.append(
            "<details><summary>PIM energy by kernel</summary>"
            "<table><tr><th>kernel</th><th>energy [J]</th></tr>"
            f"{kernel_rows}</table></details>"
        )
    parts.append("</div>")
    return "".join(parts)


def render_energy_report(
    current: dict,
    baseline: dict | None = None,
    history=None,
    title: str = "repro energy & data movement",
) -> str:
    """The energy/movement dashboard for a recorded energy run.

    One card per experiment: modelled joules per backend with the
    energy-delay product and the PIM advantage ratio, the
    movement-bytes stacked bar across memory levels, and the per-kernel
    PIM energy split. With a ``baseline``, the same ``ENERGY-DRIFT``
    verdict badges as ``repro energy check``
    (:func:`repro.obs.energy.check_energy_runs`); with a ``history``,
    a PIM-joules trend sparkline per experiment.
    """
    from repro.obs import energy as _energy

    history = list(history or [])
    verdict_by_exp: dict = {}
    verdicts = []
    if baseline is not None:
        verdicts = _energy.check_energy_runs(baseline, current)
        verdict_by_exp = {v.key: v for v in verdicts}

    config = current.get("config", {})
    parts = _page_head(title)
    parts.append(
        f"<p class='meta'>current: {_identity_line(current)}"
        + (
            f"<br>baseline: {_identity_line(baseline)}"
            if baseline is not None
            else ""
        )
        + f"<br>constants: DPU {config.get('dpu_active_watts', 0):g} W "
        f"active / {config.get('dpu_idle_watts', 0):g} W idle · MRAM DMA "
        f"{config.get('mram_dma_pj_per_byte', 0):g} pJ/B · DDR link "
        f"{config.get('host_link_pj_per_byte', 0):g} pJ/B · CPU "
        f"{config.get('cpu_watts', 0):g} W · GPU "
        f"{config.get('gpu_watts', 0):g} W</p>"
    )
    if verdicts:
        parts.append(_verdict_summary(v.verdict for v in verdicts))
    levels = {
        level
        for exp in current.get("experiments", {}).values()
        for level in exp.get("movement_bytes", {})
    }
    if levels:
        parts.append(_movement_legend(levels))
    for eid, exp in current.get("experiments", {}).items():
        parts.append(
            _energy_card(eid, exp, verdict_by_exp.get(eid), history)
        )
    parts.append(_PAGE_FOOT)
    return "".join(parts)


def write_energy_report(path, current, baseline=None, **kwargs) -> None:
    """Render and write the energy/movement dashboard."""
    _write_html(path, render_energy_report(current, baseline, **kwargs))


# -- drift forensics (repro why / repro forensics) --------------------------

_FLAME_CSS = """
.flame { font: 11px ui-monospace, monospace; white-space: nowrap;
         margin: .6em 0; }
.fnode { display: inline-block; vertical-align: top; min-width: 2px; }
.fkids { width: 100%; white-space: nowrap; }
.fbox { overflow: hidden; text-overflow: ellipsis; white-space: nowrap;
        border: 1px solid #fff; border-radius: 2px; padding: 1px 3px;
        box-sizing: border-box; }
.flamelegend span { margin-right: 1.2em; }
"""


def _flame_color(delta_self: float, max_abs: float) -> str:
    """Red for slower in B, blue for faster, grey for unchanged."""
    if max_abs <= 0.0 or delta_self == 0.0:
        return "#eceff1"
    intensity = min(1.0, abs(delta_self) / max_abs)
    lightness = 92 - 32 * intensity
    hue = 6 if delta_self > 0 else 211
    return f"hsl({hue},78%,{lightness:.0f}%)"


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
    roots = []
    for row in rows:
        if row["depth"] == 0:
            roots.append(row)
        else:
            children.setdefault(
                row["path"].rsplit(";", 1)[0], []
            ).append(row)
    max_abs = max(
        abs(r["self_modelled_b"] - r["self_modelled_a"]) for r in rows
    )

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
        kids = "".join(
            node_html(child, basis(row))
            for child in children.get(row["path"], ())
        )
        return (
            f"<div class='fnode' style='width:{width:.3f}%'>"
            f"<div class='fbox' style='background:"
            f"{_flame_color(delta_self, max_abs)}' "
            f"title='{_esc(tooltip)}'>{_esc(row['name'])}</div>"
            + (f"<div class='fkids'>{kids}</div>" if kids else "")
            + "</div>"
        )

    total = sum(basis(row) for row in roots)
    frames = "".join(node_html(row, total) for row in roots)
    legend = (
        "<p class='flamelegend meta'>"
        f"<span style='color:{_flame_color(1.0, 1.0)}'>■</span>"
        "self slower in B "
        f"<span style='color:{_flame_color(-1.0, 1.0)}'>■</span>"
        "self faster in B "
        "<span style='color:#b0bec5'>■</span>unchanged — width ∝ "
        "inclusive modelled time of the wider run</p>"
    )
    return f"<div class='flame'>{frames}</div>{legend}"


def _contributors_table(contributors) -> str:
    if not contributors:
        return "<p class='meta'>(no moved spans)</p>"
    rows = "".join(
        f"<tr><td>{_esc(row['path'])}</td>"
        f"<td>{row['count_a']}</td><td>{row['count_b']}</td>"
        f"<td>{row['modelled_a'] * 1e3:,.3f}</td>"
        f"<td>{row['modelled_b'] * 1e3:,.3f}</td>"
        f"<td>{(row['self_modelled_b'] - row['self_modelled_a']) * 1e3:+,.3f}"
        "</td></tr>"
        for row in contributors
    )
    return (
        "<table><tr><th>span path</th><th>count A</th><th>count B</th>"
        "<th>modelled A ms</th><th>modelled B ms</th>"
        "<th>Δ self ms</th></tr>"
        f"{rows}</table>"
    )


def _shifts_table(shifts: dict) -> str:
    rows = "".join(
        f"<tr><td>{_esc(name)}</td><td>{shift['index']}</td>"
        f"<td><code>{_esc(str(shift.get('git_sha'))[:12])}</code></td>"
        f"<td>{_esc(shift.get('created_at', '?'))}</td>"
        f"<td>{shift['before_mean']:,.6g}</td>"
        f"<td>{shift['after_mean']:,.6g}</td></tr>"
        for name in sorted(shifts)
        for shift in shifts[name]
    )
    return (
        "<table><tr><th>series</th><th>index</th><th>first git SHA</th>"
        "<th>recorded</th><th>mean before</th><th>mean after</th></tr>"
        f"{rows}</table>"
    )


def _forensics_experiment_section(eid: str, families: dict) -> list:
    spans = families["spans"]
    parts = [
        _gate_card(
            f"{eid} — span alignment",
            f"{spans['mode']}-aligned, {spans['moved']} moved",
            [(spans["verdict"], "spans")],
        ),
        _contributors_table(spans["contributors"]),
        "<h2>Differential flamegraph "
        "<span class='meta'>A (baseline) vs B (current)</span></h2>",
        _flame_html(spans["aligned"]),
    ]
    model = families["model"]
    parts.append(
        _gate_card(
            f"{eid} — model surface",
            "series totals · counters · transfer split",
            [(model["verdict"], "model")],
            notes=model["notes"][:20],
        )
    )
    energy = families.get("energy")
    if energy is not None:
        parts.append(
            _gate_card(
                f"{eid} — energy",
                "config · joules · movement bytes",
                [(energy["verdict"], "energy")],
                notes=energy["notes"][:20],
            )
        )
    return parts


def render_forensics_report(
    report: dict, title: str = "repro drift forensics"
) -> str:
    """The drift-forensics report as one self-contained HTML page.

    Accepts either document shape from :mod:`repro.obs.forensics`:
    a ``why`` report (one experiment: span/model/energy family cards,
    differential flamegraph, change points) or a ``diff`` report
    (one span+model section per shared experiment).
    """
    parts = _page_head(title, extra_css=_FLAME_CSS)
    if report.get("kind") == "why":
        base, cur = report["baseline"], report["current"]
        parts.append(
            f"<p class='meta'>experiment <strong>"
            f"{_esc(report['experiment'])}</strong><br>"
            f"A (baseline): {_identity_line(base)}<br>"
            f"B (current): {_identity_line(cur)}</p>"
        )
        parts.extend(
            _forensics_experiment_section(
                report["experiment"], report["families"]
            )
        )
        parts.append(
            "<h2>Change points "
            "<span class='meta'>CUSUM over longitudinal history</span></h2>"
        )
        if report.get("shifts"):
            parts.append(_shifts_table(report["shifts"]))
        else:
            parts.append("<p class='meta'>No change points detected.</p>")
    else:
        parts.append(
            f"<p class='meta'>A: {_identity_line(report['run_a'])}<br>"
            f"B: {_identity_line(report['run_b'])}</p>"
        )
        if not report["experiments"]:
            parts.append("<p class='meta'>No experiments in common.</p>")
        for eid in sorted(report["experiments"]):
            parts.extend(
                _forensics_experiment_section(
                    eid, report["experiments"][eid]
                )
            )
    parts.append(_PAGE_FOOT)
    return "".join(parts)


def write_forensics_report(path, report: dict, **kwargs) -> None:
    """Render and write the drift-forensics report."""
    _write_html(path, render_forensics_report(report, **kwargs))


# -- sharded serving resilience (repro resil html) ---------------------------


def _shard_health_bar(shard: dict) -> str:
    """One shard's healthy-DPU fraction as a small horizontal bar."""
    total = shard.get("total_dpus") or shard["healthy_dpus"] or 1
    frac = shard["healthy_dpus"] / total
    color = "#2e7d32" if frac > 0.5 else "#f9a825" if frac > 0.0 else "#c62828"
    return (
        '<span class="occbar" style="width:8em" '
        f'title="{shard["healthy_dpus"]}/{total} DPUs healthy">'
        f'<span style="width:{frac * 100:.0f}%;background:{color}"></span>'
        "</span>"
    )


def _resil_capacity_card(doc: dict) -> str:
    """Sustainable QPS, healthy vs one dead shard, per seed × K."""
    rows = []
    for key in sorted(doc["capacity"]):
        entry = doc["capacity"][key]
        retained = entry["retained"]
        floor = entry["retained_floor"]
        if retained is None:
            verdict = "SLO-BREACH"
        else:
            verdict = "SLO-OK" if retained >= floor else "SLO-BREACH"
        rows.append(
            f"<tr><td>{_esc(key)}</td>"
            f"<td>{_esc(entry['healthy_qps'])}</td>"
            f"<td>{_esc(entry['degraded_qps'])}</td>"
            + (
                f"<td>{retained:.2f}</td>"
                if retained is not None
                else "<td>—</td>"
            )
            + f"<td>{floor:.2f}</td><td>{_badge(verdict)}</td></tr>"
        )
    return (
        "<div class='card'><h2>Capacity under one dead shard "
        "<span class='meta'>sustainable QPS, healthy vs degraded "
        "fleet; the floor is 1 − 1/K</span></h2>"
        "<table><tr><th>point</th><th>healthy qps</th>"
        "<th>degraded qps</th><th>retained</th><th>floor</th>"
        "<th></th></tr>" + "".join(rows) + "</table></div>"
    )


def _resil_point_rows(doc: dict) -> str:
    rows = []
    for label in sorted(doc["points"]):
        p = doc["points"][label]
        p99 = f"{p['p99_ms']:.1f}" if p["p99_ms"] is not None else "—"
        att = (
            f"{p['attainment']:.3f}"
            if p["attainment"] is not None
            else "—"
        )
        rows.append(
            f"<tr><td>{_esc(label)}</td><td>{p['completed']}</td>"
            f"<td>{p['rejected']}</td><td>{att}</td><td>{p99}</td>"
            f"<td>{p['routed_batches']}</td><td>{p['redispatches']}</td>"
            f"<td>{p['hedges_issued']}/{p['hedges_won']}</td>"
            f"<td>{p['shed_requests']}</td><td>{p['breaker_opened']}</td>"
            f"<td>{_badge(p['verdict'])}</td></tr>"
        )
    return (
        "<table><tr><th>point</th><th>done</th><th>rej</th>"
        "<th>attain</th><th>p99 ms</th><th>routed</th><th>redisp</th>"
        "<th>hedge i/w</th><th>shed</th><th>trips</th><th></th></tr>"
        + "".join(rows)
        + "</table>"
    )


def _resil_shard_sections(doc: dict) -> list:
    """Per-point shard-health tables for the degraded points."""
    parts = []
    degraded = [
        label
        for label in sorted(doc["points"])
        if ":fleet=degraded:" in label
    ]
    for label in degraded:
        point = doc["points"][label]
        shard_rows = "".join(
            f"<tr><td>shard {s['shard']}</td>"
            f"<td>{_shard_health_bar(s)}</td>"
            f"<td>{s['healthy_dpus']}</td><td>{s['launches']}</td>"
            f"<td>{s['busy_ms']:.2f}</td><td>{s['breaker_opened']}</td>"
            "</tr>"
            for s in point["shards"]
        )
        parts.append(
            f"<details><summary>{_esc(label)} — shard health</summary>"
            "<table><tr><th>shard</th><th>health</th>"
            "<th>healthy DPUs</th><th>launches</th><th>busy ms</th>"
            f"<th>breaker trips</th></tr>{shard_rows}</table></details>"
        )
    return parts


def render_resilience_report(
    current: dict,
    baseline: dict | None = None,
    title: str = "repro sharded serving resilience",
) -> str:
    """The shard-health dashboard for a recorded resilience run.

    Renders the RESILIENCE grid (:func:`repro.serve.resilience.
    capture_resilience_run`): sustainable capacity healthy vs one dead
    shard per shard count, every grid point's SLO attainment and
    resilience counters (routing, redispatch, hedging, shedding,
    breaker trips), per-shard health under degradation, and — when a
    committed baseline is given — the exact-equality RESILIENCE gate.
    """
    doc = current
    cfg = doc["config"]
    hedge = (
        f"{cfg['hedge_after_s'] * 1e3:g} ms"
        if cfg["hedge_after_s"] is not None
        else "off"
    )
    shed = (
        f"burn > {cfg['shed_burn_threshold']:g}"
        if cfg["shed_burn_threshold"] is not None
        else "off"
    )
    ok = sum(
        1 for p in doc["points"].values() if p["verdict"] == "SLO-OK"
    )
    breach = len(doc["points"]) - ok
    parts = _page_head(title)
    parts.extend([
        f"<p class='meta'>{_identity_line(doc)}"
        f"<br>{_esc(doc['workload'])}@{_esc(doc['security_bits'])} · "
        f"seeds {_esc(doc['seeds'])} · shards {_esc(doc['shard_counts'])} · "
        f"qps {_esc(doc['qps_grid'])} · {_esc(doc['duration_s'])} s window"
        f"<br>breaker: trip at {_esc(cfg['breaker']['failure_threshold'])} "
        f"consecutive failures, cooldown "
        f"{cfg['breaker']['cooldown_s'] * 1e3:g} ms · retry budget "
        f"{_esc(cfg['retry_budget'])} · hedge after {hedge} · "
        f"shedding {shed}</p>",
        f"<p>{_badge('SLO-OK')} {ok} {_badge('SLO-BREACH')} {breach} "
        f"over {len(doc['points'])} points</p>",
        _resil_capacity_card(doc),
        "<h2>Grid points</h2>",
        _resil_point_rows(doc),
        "<h2>Shard health under degradation</h2>",
    ])
    parts.extend(_resil_shard_sections(doc))
    checks = doc.get("baseline_check", [])
    if checks:
        parts.append(
            _gate_card(
                "Single-shard zero-fault cross-check",
                "sharded pricer vs the committed perf baseline, "
                "bit-for-bit",
                [(v["verdict"], v["experiment"]) for v in checks],
            )
        )
    if baseline is not None:
        from repro.serve import resilience as _resil

        verdicts = _resil.check_resilience_runs(baseline, doc)
        notes = [
            f"{v.key}: {note}" for v in verdicts for note in v.notes
        ]
        parts.append(
            _gate_card(
                "RESILIENCE gate",
                "current run vs the committed resilience baseline, "
                "exact equality",
                [(v.verdict, v.key) for v in verdicts],
                notes=notes[:20],
            )
        )
    parts.append(_PAGE_FOOT)
    return "".join(parts)


def write_resilience_report(path, current, baseline=None, **kwargs) -> None:
    """Render and write the shard-health resilience dashboard."""
    _write_html(path, render_resilience_report(current, baseline, **kwargs))
