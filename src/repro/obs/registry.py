"""The experiment grid: every paper cell, priced as a pure function.

The paper's results are one matrix — workload × backend × security
level × batch — and this module enumerates it (:class:`GridSpec`),
adding a fleet-health axis so the PIM cells also run on a degraded
fleet. A cell's modelled result is a pure function of its coordinates
plus the grid's fault seed (:func:`run_cell`), priced by the same
workload/backend path the experiments use, so :func:`run_grid` simply
prices every cell in order; nothing is stored between runs.

The workloads and their batches are the paper's cells
(:data:`repro.workloads.registry.PAPER_WORKLOADS`); fault-free cells therefore
reproduce the committed ``baselines/perf.json`` totals bit-identically,
and :func:`check_against_baseline` formats the perf gate's one
cross-check (:func:`repro.obs.gate.baseline_pairs`) over the grid.
``repro grid run -o`` writes the cells as one JSON document
(:data:`GRIDS`) that ``repro grid html`` renders.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import groupby

from repro.backends.registry import BACKEND_ORDER, get_backend
from repro.errors import ParameterError
from repro.harness.runner import failure_record
from repro.obs import gate
from repro.obs.gate import Ledger, Verdict, baseline_pairs
from repro.obs.runident import run_identity
from repro.pim.config import UPMEMConfig
from repro.pim.faults import (
    DEFAULT_HEALTHY,
    plan_for_healthy_fraction,
    use_fault_plan,
)
from repro.workloads.registry import EXPERIMENT_CELLS, PAPER_WORKLOADS

__all__ = [
    "SECURITY_LEVELS",
    "STATUS_DONE",
    "STATUS_FAILED",
    "GridSpec",
    "PRESETS",
    "GRIDS",
    "cell_label",
    "run_cell",
    "run_grid",
    "grid_document",
    "read_grid",
    "check_against_baseline",
    "experiment_totals",
    "pim_slowdowns",
    "render_status",
]

#: The paper's security levels (bits of q), the grid's security axis.
SECURITY_LEVELS = (27, 54, 109)

STATUS_DONE = "done"
STATUS_FAILED = "failed"


# -- grid specification -----------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """The enumerated parameter space of one grid.

    ``max_batches`` truncates every workload's canonical batch list (a
    tiny-grid switch for CI and tests). Every axis is validated here,
    so a bad or repeated axis value is rejected before any cell is
    priced.
    """

    workloads: tuple = tuple(PAPER_WORKLOADS)
    backends: tuple = BACKEND_ORDER
    security_bits: tuple = SECURITY_LEVELS
    healthy: tuple = DEFAULT_HEALTHY
    max_batches: int | None = None
    seed: int = 0

    def __post_init__(self):
        for axis in ("workloads", "backends", "security_bits", "healthy"):
            values = getattr(self, axis)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ParameterError(
                    f"grid axis {axis!r} repeats {repeated}: each value "
                    "may appear once"
                )
        for workload in self.workloads:
            if workload not in PAPER_WORKLOADS:
                raise ParameterError(
                    f"unknown grid workload {workload!r}; known: "
                    f"{sorted(PAPER_WORKLOADS)}"
                )
        for backend in self.backends:
            if backend not in BACKEND_ORDER:
                raise ParameterError(
                    f"unknown grid backend {backend!r}; known: "
                    f"{list(BACKEND_ORDER)}"
                )
        for bits in self.security_bits:
            if bits not in SECURITY_LEVELS:
                raise ParameterError(
                    f"unknown grid security level {bits!r}; the paper's "
                    f"levels: {list(SECURITY_LEVELS)}"
                )
        for fraction in self.healthy:
            if not 0.0 < fraction <= 1.0:
                raise ParameterError(
                    f"healthy fraction must be in (0, 1]: {fraction}"
                )
        if self.max_batches is not None and self.max_batches < 1:
            raise ParameterError(
                f"max_batches must be >= 1: {self.max_batches}"
            )

    def batches_for(self, workload: str) -> tuple:
        batches = PAPER_WORKLOADS[workload].batches
        if self.max_batches is not None:
            batches = batches[: self.max_batches]
        return batches

    def cells(self):
        """Every cell coordinate, in the deterministic grid order."""
        for workload in self.workloads:
            for bits in sorted(self.security_bits):
                for healthy in sorted(self.healthy, reverse=True):
                    for batch in self.batches_for(workload):
                        for backend in self.backends:
                            yield {
                                "workload": workload,
                                "backend": backend,
                                "security_bits": bits,
                                "healthy": healthy,
                                "batch": batch,
                            }

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> GridSpec:
        return cls(
            **{
                key: tuple(value) if isinstance(value, list) else value
                for key, value in data.items()
            }
        )


#: ``repro grid run --preset``: the full paper grid, and a truncated
#: CI-sized one (two workloads, one level, two batches each).
PRESETS = {
    "paper": GridSpec(),
    "tiny": GridSpec(
        workloads=("vec_add", "mean"),
        security_bits=(109,),
        healthy=(1.0, 0.9),
        max_batches=2,
    ),
}


def cell_label(cell: dict) -> str:
    """The one-line cell key reports and failure headers lead with."""
    return (
        f"{cell['workload']}/{cell['backend']}"
        f"@{cell['security_bits']}b"
        f" h={cell['healthy']:g} batch={cell['batch']}"
    )


# -- running cells ----------------------------------------------------------


def run_cell(cell: dict, seed: int = 0) -> float:
    """Price one grid cell; returns modelled milliseconds.

    The exact pricing path the experiments use: the workload built from
    the cell's coordinates, timed on the named backend under the
    degraded-fleet :class:`~repro.pim.faults.FaultPlan` for the cell's
    health fraction (inactive at 100% healthy, so fault-free cells run
    the untouched path the committed baselines were recorded from).
    """
    try:
        paper_workload = PAPER_WORKLOADS[cell["workload"]]
    except KeyError:
        raise ParameterError(
            f"unknown grid workload {cell['workload']!r}; known: "
            f"{sorted(PAPER_WORKLOADS)}"
        ) from None
    workload = paper_workload.factory(cell["security_bits"], cell["batch"])
    backend = get_backend(cell["backend"])
    plan = plan_for_healthy_fraction(cell["healthy"], seed, UPMEMConfig())
    with use_fault_plan(plan):
        return workload.time_on(backend) * 1e3


def run_grid(spec: GridSpec, keep_going: bool = False) -> list:
    """Price every cell of ``spec``, in grid order; one row per cell.

    A row is the cell's coordinates plus ``status``, ``modelled_ms``
    and, for a failed cell, its :func:`repro.harness.runner.failure_record`
    fields (``error_type``, ``fault_class`` and the one-line
    ``failure_header``). A failing cell is recorded as ``failed`` under
    ``keep_going``; otherwise its exception propagates.
    """
    rows = []
    for cell in spec.cells():
        row = {
            **cell,
            "status": STATUS_DONE,
            "modelled_ms": None,
            "error_type": None,
            "fault_class": None,
            "failure_header": None,
        }
        try:
            row["modelled_ms"] = run_cell(cell, seed=spec.seed)
        except Exception as exc:
            if not keep_going:
                raise
            record = failure_record(cell_label(cell), exc)
            row.update(
                status=STATUS_FAILED,
                error_type=record["error_type"],
                fault_class=record["fault_class"],
                failure_header=record["header"],
            )
        rows.append(row)
    return rows


# -- the grid document ------------------------------------------------------

#: The grid document format (``repro grid run -o``): the spec and every
#: cell row keyed by :func:`cell_label`, stamped with the run identity.
GRIDS = Ledger(
    noun="grid",
    what="grid document",
    family="cells",
    hint="repro grid run -o <file>",
    kind="grid",
)


def grid_document(spec: GridSpec, rows) -> dict:
    """One grid run as a :data:`GRIDS` document."""
    doc = {"schema": GRIDS.schema, "kind": GRIDS.kind, **run_identity()}
    doc["spec"] = spec.to_dict()
    doc["cells"] = {cell_label(row): row for row in rows}
    return doc


def read_grid(path) -> tuple:
    """``(spec, rows)`` out of a grid document, rows in grid order;
    :class:`ParameterError` naming ``path`` if it is missing, corrupt
    or lacks a cell its spec enumerates."""
    doc = GRIDS.read(path)
    try:
        spec = GridSpec.from_dict(doc["spec"])
        rows = [doc["cells"][cell_label(cell)] for cell in spec.cells()]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParameterError(
            f"{path}: malformed grid document ({type(exc).__name__}: "
            f"{exc}); re-record with '{GRIDS.hint}'"
        ) from None
    return spec, rows


# -- the MODEL-DRIFT gate over the grid -------------------------------------


def _backends(cells) -> list:
    """The backends the grid enumerates, sorted."""
    return sorted({cell["backend"] for cell in cells})


def _covered(cells, healthy: float) -> list:
    """Experiments whose every batch the grid enumerates at ``healthy``.

    Only these are comparable with a baseline: a
    ``max_batches``-truncated grid (the CI tiny preset) skips the
    groups it cannot reproduce rather than reporting them partial.
    """
    coverage: dict = {}
    for cell in cells:
        if cell["healthy"] == healthy:
            coverage.setdefault(
                (cell["workload"], cell["security_bits"]), set()
            ).add(cell["batch"])
    return [
        eid
        for eid, (workload, bits) in EXPERIMENT_CELLS.items()
        if set(PAPER_WORKLOADS[workload].batches)
        <= coverage.get((workload, bits), set())
    ]


def experiment_totals(cells, healthy: float = 1.0) -> dict:
    """Per-backend modelled totals by experiment, at one fleet health.

    For each experiment (:data:`repro.workloads.registry.EXPERIMENT_CELLS`) whose
    cells the grid enumerates at ``healthy``, sums done cells per
    backend *in batch order* — the same float-accumulation order as
    :func:`repro.obs.baseline.series_totals` over the experiment's
    rows, so the fault-free totals are comparable bit-for-bit.
    Backends with missing cells are omitted.
    """
    done = {
        (
            cell["workload"],
            cell["security_bits"],
            cell["batch"],
            cell["backend"],
        ): cell["modelled_ms"]
        for cell in cells
        if cell["healthy"] == healthy and cell["status"] == STATUS_DONE
    }
    totals: dict = {}
    for eid in _covered(cells, healthy):
        workload, bits = EXPERIMENT_CELLS[eid]
        series: dict = {}
        for backend in _backends(cells):
            values = [
                done.get((workload, bits, batch, backend))
                for batch in PAPER_WORKLOADS[workload].batches
            ]
            if None in values:
                continue
            total = 0.0
            for value in values:
                total += value
            series[backend] = total
        if series:
            totals[eid] = series
    return totals


#: The backend whose slowdown :func:`pim_slowdowns` reports.
PIM_BACKEND = "pim"


def pim_slowdowns(spec: GridSpec, cells) -> dict:
    """The PIM slowdown-vs-fleet-health view, by experiment.

    For each experiment the grid covers, one point per enumerated
    health, healthiest first: the disabled and effective DPU counts of
    the cells' :func:`~repro.pim.faults.plan_for_healthy_fraction` plan,
    the pim total (:func:`experiment_totals`) and its slowdown against
    the experiment's 100%-healthy pim total. Slowdown is ``None`` when
    the grid has no 100% column or either total is missing. Empty when
    the grid does not enumerate the pim backend.
    """
    if PIM_BACKEND not in spec.backends:
        return {}
    cells = list(cells)
    config = UPMEMConfig()
    full: dict = {}
    view: dict = {}
    for healthy in sorted(spec.healthy, reverse=True):
        effective = plan_for_healthy_fraction(
            healthy, spec.seed, config
        ).effective_dpus(config)
        totals = experiment_totals(cells, healthy)
        for eid in _covered(cells, healthy):
            pim = totals.get(eid, {}).get(PIM_BACKEND)
            if healthy == 1.0:
                full[eid] = pim
            base = full.get(eid)
            view.setdefault(eid, []).append({
                "healthy": healthy,
                "disabled_dpus": config.n_dpus - effective,
                "effective_dpus": effective,
                "pim_total": pim,
                "slowdown": pim / base if pim is not None and base else None,
            })
    return view


#: The note each non-``ok`` (experiment, backend) pair contributes.
_PAIR_NOTES = {
    gate.MODEL_DRIFT: "{backend}: grid total {got_ms!r} != baseline {expected_ms!r}",
    gate.VERDICT_PARTIAL: "backend {backend!r}: cells failed",
    gate.VERDICT_NEW: "backend {backend!r}: not in the baseline",
}


def check_against_baseline(cells, baseline: dict | None) -> list:
    """MODEL-DRIFT verdicts: fault-free grid totals vs ``perf.json``.

    One verdict per experiment the grid covers, over every backend it
    enumerates (:func:`repro.obs.gate.baseline_pairs`): ``MODEL-DRIFT``
    when any backend's total differs from the committed
    ``series_totals`` (bit-identical floats — the perf gate's
    modelled-exactness policy), else ``partial`` when a backend has
    failed cells, else ``new`` when the baseline lacks a total, else
    ``ok``. Returns ``[]`` when no baseline is given.
    """
    if baseline is None:
        return []
    totals = experiment_totals(cells)
    rows = baseline_pairs(
        {eid: totals.get(eid, {}) for eid in _covered(cells, 1.0)},
        baseline,
        _backends(cells),
    )
    verdicts = []
    for eid, group in groupby(rows, key=lambda row: row["experiment"]):
        group = list(group)
        label, hits = gate.VERDICT_OK, []
        for candidate in _PAIR_NOTES:
            hits = [row for row in group if row["verdict"] == candidate]
            if hits:
                label = candidate
                break
        notes = tuple(_PAIR_NOTES[label].format(**row) for row in hits)
        verdicts.append(Verdict(eid, label, notes))
    return verdicts


# -- text status ------------------------------------------------------------


def render_status(spec: GridSpec, cells, baseline: dict | None = None) -> str:
    """A grid run as a text status report.

    Counts by status, per-(workload, security, health) completion, the
    failed-cell headers, the PIM slowdown per experiment as the fleet
    degrades (:func:`pim_slowdowns`), and — when a perf baseline is
    given — the grid MODEL-DRIFT verdicts.
    """
    cells = list(cells)
    failed = [c for c in cells if c["status"] == STATUS_FAILED]
    lines = [
        f"experiment grid — {len(cells)} cells (seed {spec.seed})",
        f"  {STATUS_DONE}: {len(cells) - len(failed)}  "
        f"{STATUS_FAILED}: {len(failed)}",
    ]

    groups: dict = {}
    for cell in cells:
        key = (cell["workload"], cell["security_bits"], cell["healthy"])
        group = groups.setdefault(key, {"done": 0, "total": 0})
        group["total"] += 1
        if cell["status"] == STATUS_DONE:
            group["done"] += 1
    lines.append("\n  workload         security  healthy   done/total")
    for (workload, bits, healthy), group in groups.items():
        marker = " " if group["done"] == group["total"] else "*"
        lines.append(
            f"  {workload:<16} {bits:>6}b  {healthy * 100:6.1f}%  "
            f"{group['done']:>6}/{group['total']}{marker}"
        )

    if failed:
        lines.append("\nfailed cells:")
        lines.extend(f"  {c['failure_header']}" for c in failed)

    slowdowns = pim_slowdowns(spec, cells)
    if slowdowns:
        lines.append("\nPIM slowdown vs fleet health:")
    for eid, points in slowdowns.items():
        lines.append(f"\n{eid}:")
        lines.append(
            "  healthy   disabled  effective  pim total      slowdown"
        )
        for point in points:
            pim, slowdown = point["pim_total"], point["slowdown"]
            lines.append(
                f"  {point['healthy'] * 100:6.1f}%  "
                f"{point['disabled_dpus']:8d}  "
                f"{point['effective_dpus']:9d}  "
                + (f"{pim:12.4f}  " if pim is not None else f"{'-':>12}  ")
                + (f"{slowdown:7.4f}x" if slowdown is not None else f"{'-':>8}")
            )

    verdicts = check_against_baseline(cells, baseline)
    if verdicts:
        lines.append("\nbaseline check (fault-free cells vs perf.json):")
        lines.extend("  " + v.describe() for v in verdicts)
        lines.append(
            "  gate FAILS (MODEL-DRIFT)" if gate.exit_code(verdicts)
            else "  gate passes"
        )
    return "\n".join(lines)
