"""Chaos harness: replay experiments across a degraded-fleet grid.

``repro faults sweep`` drives :func:`sweep_degraded_fleet`: the fig1 /
fig2 experiments are re-run under :class:`~repro.pim.faults.FaultPlan`
instances that fuse off a growing share of the fleet (100% … 80%
healthy by default), producing one schema-versioned JSON document of
availability-vs-slowdown points. Two invariants make the sweep a
regression artifact rather than an anecdote:

* at **100% healthy** the plan is inactive, so the sweep point is
  produced by the *untouched* pricing path and must equal the
  committed fault-free baseline (``baselines/perf.json``) exactly —
  the MODEL-DRIFT gate extended to the chaos harness;
* everything is **seeded** — the same seed yields a bit-identical
  document (modulo the run identity), across invocations and machines.

:func:`repro.obs.htmlreport.render_faults_report` renders the document
as the availability-vs-slowdown HTML card CI uploads.
"""

from __future__ import annotations

from repro.harness.runner import run_experiment
from repro.obs.baseline import series_totals
from repro.obs.gate import Ledger
from repro.obs.runident import run_identity
from repro.pim.config import UPMEMConfig
from repro.pim.faults import plan_for_healthy_fraction, use_fault_plan

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_SWEEP_EXPERIMENTS",
    "DEFAULT_HEALTHY_GRID",
    "sweep_degraded_fleet",
    "SWEEPS",
    "render_sweep_text",
]

#: Version stamped into every sweep document.
SCHEMA_VERSION = 1

#: The paper's headline experiments: fig1 microbenchmarks + fig2 workloads.
DEFAULT_SWEEP_EXPERIMENTS = ("fig1a", "fig1b", "fig2a", "fig2b", "fig2c")

#: Healthy-fleet fractions swept by default (100% … 80%).
DEFAULT_HEALTHY_GRID = (1.0, 0.95, 0.9, 0.85, 0.8)

#: The series name carrying the PIM backend's modelled time.
PIM_SERIES = "pim"


def sweep_degraded_fleet(
    ids=None,
    grid=None,
    seed: int = 0,
    progress=None,
) -> dict:
    """Run experiments across the degraded-fleet grid; one JSON doc.

    For each experiment (default: the fig1/fig2 set) and healthy
    fraction the document records the disabled/effective DPU counts,
    the per-series modelled totals, and the PIM slowdown relative to
    the experiment's 100%-healthy run. ``progress`` is an optional
    callable receiving ``(experiment_id, fraction)`` as each cell
    starts.
    """
    config = UPMEMConfig()
    fractions = sorted(
        set(DEFAULT_HEALTHY_GRID if grid is None else grid), reverse=True
    )
    # Built up front so a bad fraction fails before any work; a plan
    # that only disables DPUs draws nothing, so experiments share it.
    plans = [
        (fraction, plan_for_healthy_fraction(fraction, seed, config))
        for fraction in fractions
    ]
    selected = (
        list(DEFAULT_SWEEP_EXPERIMENTS) if ids is None else list(ids)
    )
    experiments: dict = {}
    for eid in selected:
        points = []
        baseline_pim = None
        for fraction, plan in plans:
            if progress is not None:
                progress(eid, fraction)
            with use_fault_plan(plan):
                totals = series_totals(run_experiment(eid))
            pim_total = totals.get(PIM_SERIES)
            if fraction == 1.0:
                baseline_pim = pim_total
            slowdown = None
            if (
                pim_total is not None
                and baseline_pim is not None
                and baseline_pim > 0
            ):
                slowdown = pim_total / baseline_pim
            points.append(
                {
                    "healthy": fraction,
                    "disabled_dpus": config.n_dpus
                    - plan.effective_dpus(config),
                    "effective_dpus": plan.effective_dpus(config),
                    "series_totals": totals,
                    "pim_total": pim_total,
                    "slowdown": slowdown,
                }
            )
        experiments[eid] = {"points": points}

    doc = {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "grid": fractions,
        "n_dpus": config.n_dpus,
    }
    doc.update(run_identity())
    doc["experiments"] = experiments
    return doc


# -- persistence ------------------------------------------------------------


#: The sweep document format (``repro faults sweep -o``).
SWEEPS = Ledger(
    noun="faults-sweep",
    what="faults sweep",
    family="experiments",
    hint="repro faults sweep -o <file>",
    schema=SCHEMA_VERSION,
)


def render_sweep_text(doc: dict) -> str:
    """The sweep as an availability-vs-slowdown text table."""
    lines = [
        f"degraded-fleet sweep — seed {doc.get('seed')}, "
        f"fleet {doc.get('n_dpus')} DPUs"
    ]
    for eid, entry in doc["experiments"].items():
        lines.append(f"\n{eid}:")
        lines.append(
            "  healthy   disabled  effective  pim total      slowdown"
        )
        for point in entry["points"]:
            pim = point.get("pim_total")
            slowdown = point.get("slowdown")
            lines.append(
                f"  {point['healthy'] * 100:6.1f}%  "
                f"{point['disabled_dpus']:8d}  "
                f"{point['effective_dpus']:9d}  "
                + (f"{pim:12.4f}  " if pim is not None else f"{'-':>12}  ")
                + (f"{slowdown:7.4f}x" if slowdown is not None else f"{'-':>8}")
            )
    return "\n".join(lines)
