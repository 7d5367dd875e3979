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

Sweeps can also record through the persistent run registry
(``repro faults sweep --registry grid.db``):
:func:`recorded_sweep_degraded_fleet` enumerates the sweep as grid
cells, drains only the pending ones (an interrupted sweep resumes with
zero recomputation), and assembles a sweep document bit-identical to
the direct path from the recorded cells.
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.harness.runner import run_experiment
from repro.obs.baseline import series_totals
from repro.obs.gate import Ledger
from repro.obs.runident import run_identity
from repro.pim.config import UPMEMConfig
from repro.pim.faults import FaultPlan, RetryPolicy, use_fault_plan

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_SWEEP_EXPERIMENTS",
    "DEFAULT_HEALTHY_GRID",
    "plan_for_healthy_fraction",
    "sweep_degraded_fleet",
    "spec_for_experiments",
    "sweep_from_registry",
    "recorded_sweep_degraded_fleet",
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


def plan_for_healthy_fraction(
    fraction: float, seed: int, config: UPMEMConfig
) -> FaultPlan:
    """A plan that fuses off ``(1 - fraction)`` of the fleet by count.

    At ``fraction == 1.0`` the plan disables nothing and is inactive —
    the pricing model runs its untouched fault-free path.
    """
    if not 0.0 < fraction <= 1.0:
        raise ParameterError(f"healthy fraction must be in (0, 1]: {fraction}")
    disable = round(config.n_dpus * (1.0 - fraction))
    return FaultPlan(seed=seed, disable_dpus=disable)


def sweep_degraded_fleet(
    ids=None,
    grid=None,
    seed: int = 0,
    retry_policy: RetryPolicy | None = None,
    progress=None,
) -> dict:
    """Run experiments across the degraded-fleet grid; one JSON doc.

    For each experiment and healthy fraction the document records the
    disabled/effective DPU counts, the per-series modelled totals, and
    the PIM slowdown relative to the experiment's 100%-healthy run.
    ``progress`` is an optional callable receiving ``(experiment_id,
    fraction)`` as each cell starts.
    """
    fractions = sorted(
        set(DEFAULT_HEALTHY_GRID if grid is None else grid), reverse=True
    )
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise ParameterError(
                f"healthy fraction must be in (0, 1]: {fraction}"
            )

    def totals_for(eid, fraction, plan) -> dict:
        if progress is not None:
            progress(eid, fraction)
        with use_fault_plan(plan, retry_policy):
            return series_totals(run_experiment(eid))

    return _sweep_doc(ids, fractions, seed, totals_for)


def _sweep_doc(ids, fractions, seed: int, totals_for) -> dict:
    """The sweep document over ``ids`` (default: the fig1/fig2 set).

    ``totals_for(experiment_id, fraction, plan)`` returns the per-series
    modelled totals at one healthy fraction; each point records them
    with the disabled/effective DPU counts and the PIM slowdown
    relative to the experiment's 100%-healthy point.
    """
    config = UPMEMConfig()
    selected = (
        list(DEFAULT_SWEEP_EXPERIMENTS) if ids is None else list(ids)
    )
    experiments: dict = {}
    for eid in selected:
        points = []
        baseline_pim = None
        for fraction in fractions:
            plan = plan_for_healthy_fraction(fraction, seed, config)
            totals = totals_for(eid, fraction, plan)
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


# -- recording through the run registry --------------------------------------


def spec_for_experiments(ids=None, grid=None, seed: int = 0):
    """The :class:`~repro.obs.registry.GridSpec` covering a sweep.

    The sweep's experiments map onto grid cells via
    :data:`repro.obs.registry.EXPERIMENT_CELLS`; the spec enumerates
    the union of their workloads and security levels over the healthy
    grid (a cross product, so mixing security levels across workloads
    enumerates a few extra fault-free cells — cheap, and they only
    widen the baseline cross-check).
    """
    from repro.obs import registry as regmod

    selected = (
        list(DEFAULT_SWEEP_EXPERIMENTS) if ids is None else list(ids)
    )
    fractions = sorted(
        set(DEFAULT_HEALTHY_GRID if grid is None else grid), reverse=True
    )
    workloads: list = []
    bits: set = set()
    for eid in selected:
        if eid not in regmod.EXPERIMENT_CELLS:
            raise ParameterError(
                f"experiment {eid!r} has no grid-cell mapping; "
                f"registry-backed sweeps support: "
                f"{sorted(regmod.EXPERIMENT_CELLS)}"
            )
        workload, security, _batches = regmod.EXPERIMENT_CELLS[eid]
        if workload not in workloads:
            workloads.append(workload)
        bits.add(security)
    return regmod.GridSpec(
        workloads=tuple(workloads),
        security_bits=tuple(sorted(bits)),
        healthy=tuple(fractions),
        seed=seed,
    )


def sweep_from_registry(registry, ids=None) -> dict:
    """Assemble a sweep document from a drained registry's cells.

    The document is bit-identical to :func:`sweep_degraded_fleet` with
    the same experiments/grid/seed (modulo the run identity): each
    point's per-series totals sum the recorded per-batch cells in the
    same order the direct path accumulates experiment rows.
    :class:`~repro.errors.ParameterError` if any needed cell is not
    done (drain or resume first).
    """
    from repro.obs import registry as regmod

    spec = registry.spec
    index = {
        (
            cell["workload"],
            cell["security_bits"],
            cell["healthy"],
            cell["batch"],
            cell["backend"],
        ): cell
        for cell in registry.cells()
        if cell["status"] == regmod.STATUS_DONE
    }

    def totals_for(eid, fraction, _plan) -> dict:
        if eid not in regmod.EXPERIMENT_CELLS:
            raise ParameterError(
                f"experiment {eid!r} has no grid-cell mapping; "
                f"registry-backed sweeps support: "
                f"{sorted(regmod.EXPERIMENT_CELLS)}"
            )
        workload, security, batches = regmod.EXPERIMENT_CELLS[eid]
        totals: dict = {}
        for backend in spec.backends:
            total = 0.0
            for batch in batches:
                cell = index.get((workload, security, fraction, batch, backend))
                if cell is None:
                    raise ParameterError(
                        f"{registry.path}: cell for {eid} "
                        f"({workload}/{backend}@{security}b "
                        f"h={fraction:g} batch={batch}) is not done; "
                        "drain the grid first ('repro grid run' / "
                        "'repro grid resume')"
                    )
                total += cell["modelled_ms"]
            totals[backend] = total
        return totals

    fractions = sorted(set(spec.healthy), reverse=True)
    return _sweep_doc(ids, fractions, spec.seed, totals_for)


def recorded_sweep_degraded_fleet(
    db_path, ids=None, grid=None, seed: int = 0, progress=None
) -> dict:
    """A degraded-fleet sweep recorded through the run registry.

    Opens (or initialises) the registry at ``db_path`` with the spec
    the sweep needs, releases cells an interrupted worker left claimed,
    drains only the pending ones, then assembles the sweep document
    from the recorded cells — re-running after an interruption resumes
    with zero recomputation, and a fully drained registry prices
    nothing at all. The registry spec must match the requested sweep
    (:class:`~repro.errors.ParameterError` otherwise — use a fresh
    database per sweep shape).
    """
    import pathlib as _pathlib

    from repro.obs import registry as regmod

    spec = spec_for_experiments(ids, grid=grid, seed=seed)
    if _pathlib.Path(db_path).exists():
        registry = regmod.RunRegistry.open(db_path)
        if registry.spec != spec:
            raise ParameterError(
                f"{db_path}: registry grid does not match this sweep "
                "(different experiments, healthy grid, or seed); "
                "point --registry at a fresh database"
            )
    else:
        registry = regmod.RunRegistry.create(db_path, spec)
    registry.release_stale()
    regmod.drain(
        registry,
        owner="faults-sweep",
        progress=progress,
        command="faults sweep --registry",
    )
    return sweep_from_registry(registry, ids)


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
