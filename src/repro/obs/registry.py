"""Persistent run registry: a sqlite-backed, resumable experiment grid.

Every sweep before this PR was ephemeral — results landed in ad-hoc
JSON/JSONL files with no cross-run identity, so an interrupted sweep
restarted from zero and nothing could be trended over time. This
module is the missing store, in the py_experimenter idiom: fill a job
table once, run workers until drained, resume after interruption.

Two tables carry the story:

* **grid** — one row per enumerated parameter combination
  (workload × backend × security level × fleet health × batch size)
  with ``status`` (pending / running / done / failed), owner,
  timestamps, and the recorded result (modelled ms, wall s) or failure
  record (type, message, ``[permanent]``/``[transient]`` fault class,
  the PR-3 one-line header). Workers claim cells atomically
  (``BEGIN IMMEDIATE`` + conditional update), so two workers draining
  the same grid never double-claim.
* **runs** — one row per drain invocation: the shared run identity
  (:mod:`repro.obs.runident` — run_id / timestamp / git SHA / schema
  version), cells done/failed, modelled + wall totals, and a JSON
  rollup (per-experiment modelled totals, metric counters, verdicts,
  failure headers), plus a ``drift_annotations`` stamp
  (:func:`drift_annotations` — the top drift contributor per family)
  that the dashboard's verdict history deep-links into forensics
  reports. This ledger is what the longitudinal dashboard
  (``repro grid html``) trends across git SHAs.

A third table, **points**, memoizes generic parameter sweeps for
:func:`repro.harness.sweep.recorded_sweep`.

Determinism contract: a cell's modelled result is a pure function of
its coordinates (plus the grid's fault seed), priced by the same
workload/backend path the experiments use. Fault-free cells therefore
reproduce the committed ``baselines/perf.json`` totals bit-identically
— :func:`check_against_baseline` is the MODEL-DRIFT gate extended to
the grid — and an interrupt-then-resume drain yields byte-identical
result rows to an uninterrupted one (:meth:`RunRegistry.result_rows`).
"""

from __future__ import annotations

import json
import pathlib
import sqlite3
from dataclasses import dataclass
from datetime import datetime, timezone
from time import perf_counter

from repro.backends import get_backend
from repro.backends.registry import BACKEND_ORDER
from repro.errors import ParameterError
from repro.obs import baseline as _bl
from repro.obs import energy as _energy
from repro.obs import gate
from repro.obs.gate import Verdict
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.runident import run_identity
from repro.workloads.linreg import LinearRegressionWorkload
from repro.workloads.mean import FIG2A_USERS, MeanWorkload
from repro.workloads.variance import FIG2B_USERS, VarianceWorkload
from repro.workloads.vectorops import (
    FIG1A_SIZES,
    FIG1B_SIZES,
    VectorAddWorkload,
    VectorMulWorkload,
)

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_DB_PATH",
    "GRID_WORKLOADS",
    "EXPERIMENT_CELLS",
    "SECURITY_LEVELS",
    "DEFAULT_HEALTHY",
    "STATUS_PENDING",
    "STATUS_RUNNING",
    "STATUS_DONE",
    "STATUS_FAILED",
    "GridSpec",
    "RunRegistry",
    "cell_label",
    "run_cell",
    "drain",
    "check_against_baseline",
    "drift_annotations",
    "experiment_totals",
    "workload_totals",
    "render_status",
]

#: Version stamped into the registry's ``meta`` table; readers refuse
#: unknown versions so a layout change cannot be silently misread.
SCHEMA_VERSION = 1

#: Where ``repro grid`` looks for the registry by default.
DEFAULT_DB_PATH = "grid.db"

#: The paper's security levels (bits of q), the grid's security axis.
SECURITY_LEVELS = (27, 54, 109)

#: Fleet-health fractions enumerated by default (100% … 80%).
DEFAULT_HEALTHY = (1.0, 0.9, 0.8)

STATUS_PENDING = "pending"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"


@dataclass(frozen=True)
class GridWorkload:
    """One grid workload: a factory over (security_bits, batch)."""

    factory: object  # Callable[[int, int], workload]
    batches: tuple
    batch_axis: str  # what "batch" means for this workload


def _linreg(bits: int, batch: int):
    # The fig2c shape: 640 users, the batch axis sweeps ciphertexts
    # per user (the paper's 32/64 configurations).
    return LinearRegressionWorkload(
        security_bits=bits, n_users=640, ciphertexts_per_user=batch
    )


#: The grid's workload axis. Batch means ciphertexts for the fig1
#: microbenchmarks, users for the fig2 statistics, ciphertexts/user
#: for linear regression — each workload's canonical paper sizes.
GRID_WORKLOADS = {
    "vec_add": GridWorkload(
        factory=lambda bits, batch: VectorAddWorkload(
            security_bits=bits, n_ciphertexts=batch
        ),
        batches=FIG1A_SIZES,
        batch_axis="n_ciphertexts",
    ),
    "vec_mul": GridWorkload(
        factory=lambda bits, batch: VectorMulWorkload(
            security_bits=bits, n_ciphertexts=batch
        ),
        batches=FIG1B_SIZES,
        batch_axis="n_ciphertexts",
    ),
    "mean": GridWorkload(
        factory=lambda bits, batch: MeanWorkload(
            security_bits=bits, n_users=batch
        ),
        batches=FIG2A_USERS,
        batch_axis="n_users",
    ),
    "variance": GridWorkload(
        factory=lambda bits, batch: VarianceWorkload(
            security_bits=bits, n_users=batch
        ),
        batches=FIG2B_USERS,
        batch_axis="n_users",
    ),
    "linreg": GridWorkload(
        factory=_linreg,
        batches=(32, 64),
        batch_axis="ciphertexts_per_user",
    ),
}

#: Experiment id -> (workload, security_bits, batches): which fault-free
#: grid cells, summed per backend in batch order, must reproduce that
#: experiment's committed ``series_totals`` bit-identically.
EXPERIMENT_CELLS = {
    "fig1a": ("vec_add", 109, FIG1A_SIZES),
    "fig1a_64bit": ("vec_add", 54, FIG1A_SIZES),
    "fig1a_32bit": ("vec_add", 27, FIG1A_SIZES),
    "fig1b": ("vec_mul", 109, FIG1B_SIZES),
    "fig1b_64bit": ("vec_mul", 54, FIG1B_SIZES),
    "fig1b_32bit": ("vec_mul", 27, FIG1B_SIZES),
    "fig2a": ("mean", 109, FIG2A_USERS),
    "fig2b": ("variance", 109, FIG2B_USERS),
    "fig2c": ("linreg", 109, (32, 64)),
}


# -- grid specification -----------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """The enumerated parameter space of one registry.

    ``max_batches`` truncates every workload's canonical batch list (a
    tiny-grid switch for CI and tests). The spec is stored in the
    registry's ``meta`` table so ``resume`` can verify it is draining
    the same grid it initialised.
    """

    workloads: tuple = tuple(GRID_WORKLOADS)
    backends: tuple = BACKEND_ORDER
    security_bits: tuple = SECURITY_LEVELS
    healthy: tuple = DEFAULT_HEALTHY
    max_batches: int | None = None
    seed: int = 0

    def __post_init__(self):
        for workload in self.workloads:
            if workload not in GRID_WORKLOADS:
                raise ParameterError(
                    f"unknown grid workload {workload!r}; known: "
                    f"{sorted(GRID_WORKLOADS)}"
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
        batches = GRID_WORKLOADS[workload].batches
        if self.max_batches is not None:
            batches = batches[: self.max_batches]
        return batches

    def cells(self):
        """Every cell coordinate, in the deterministic claim order."""
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "workloads": list(self.workloads),
                "backends": list(self.backends),
                "security_bits": list(self.security_bits),
                "healthy": list(self.healthy),
                "max_batches": self.max_batches,
                "seed": self.seed,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> GridSpec:
        data = json.loads(text)
        return cls(
            workloads=tuple(data["workloads"]),
            backends=tuple(data["backends"]),
            security_bits=tuple(data["security_bits"]),
            healthy=tuple(data["healthy"]),
            max_batches=data.get("max_batches"),
            seed=data.get("seed", 0),
        )


def cell_label(cell: dict) -> str:
    """The one-line cell key reports and failure headers lead with."""
    return (
        f"{cell['workload']}/{cell['backend']}"
        f"@{cell['security_bits']}b"
        f" h={cell['healthy']:g} batch={cell['batch']}"
    )


# -- the sqlite store -------------------------------------------------------

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT
);
CREATE TABLE IF NOT EXISTS grid (
    cell_id        INTEGER PRIMARY KEY,
    workload       TEXT NOT NULL,
    backend        TEXT NOT NULL,
    security_bits  INTEGER NOT NULL,
    healthy        REAL NOT NULL,
    batch          INTEGER NOT NULL,
    status         TEXT NOT NULL DEFAULT 'pending',
    owner          TEXT,
    claimed_at     TEXT,
    finished_at    TEXT,
    run_id         TEXT,
    attempts       INTEGER NOT NULL DEFAULT 0,
    modelled_ms    REAL,
    wall_s         REAL,
    error_type     TEXT,
    error_message  TEXT,
    fault_class    TEXT,
    failure_header TEXT,
    UNIQUE (workload, backend, security_bits, healthy, batch)
);
CREATE TABLE IF NOT EXISTS runs (
    run_id            TEXT PRIMARY KEY,
    created_at        TEXT,
    git_sha           TEXT,
    schema            INTEGER,
    command           TEXT,
    owner             TEXT,
    cells_done        INTEGER,
    cells_failed      INTEGER,
    wall_s            REAL,
    modelled_ms       REAL,
    rollups           TEXT,
    drift_annotations TEXT
);
CREATE TABLE IF NOT EXISTS points (
    sweep_key  TEXT NOT NULL,
    parameter  REAL NOT NULL,
    value      REAL NOT NULL,
    run_id     TEXT,
    created_at TEXT,
    PRIMARY KEY (sweep_key, parameter)
);
"""

#: Columns of the deterministic result projection: everything a resumed
#: drain must reproduce byte-identically (no owners, no timestamps, no
#: run ids, no wall clocks).
RESULT_COLUMNS = (
    "workload",
    "backend",
    "security_bits",
    "healthy",
    "batch",
    "status",
    "modelled_ms",
    "error_type",
    "fault_class",
)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class RunRegistry:
    """One open registry database; see the module docstring.

    Each instance owns one sqlite connection; concurrent workers open
    their own instances on the same path. All writes run in short
    ``BEGIN IMMEDIATE`` transactions so claims are atomic.
    """

    def __init__(self, path, connection: sqlite3.Connection):
        self.path = pathlib.Path(path)
        self._conn = connection
        self._conn.row_factory = sqlite3.Row

    # -- lifecycle ----------------------------------------------------------

    @staticmethod
    def _connect(path) -> sqlite3.Connection:
        conn = sqlite3.connect(
            str(path), timeout=30.0, isolation_level=None
        )
        conn.execute("PRAGMA busy_timeout = 30000")
        return conn

    @staticmethod
    def _migrate(conn: sqlite3.Connection) -> None:
        """Additive in-place migrations for older registries.

        ``drift_annotations`` (PR 9) is a pure annotation column — its
        absence never changed how ledger rows were read, so existing
        databases are upgraded with an ``ALTER TABLE`` instead of a
        schema-version bump that would force a re-init.
        """
        columns = {
            row[1] for row in conn.execute("PRAGMA table_info(runs)")
        }
        if "drift_annotations" not in columns:
            conn.execute(
                "ALTER TABLE runs ADD COLUMN drift_annotations TEXT"
            )

    @classmethod
    def create(cls, path, spec: GridSpec, force: bool = False) -> RunRegistry:
        """Initialise a registry: create tables, fill the grid once."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        conn = cls._connect(path)
        registry = cls(path, conn)
        existing = conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "AND name='grid'"
        ).fetchone()
        if existing and not force:
            n = conn.execute("SELECT COUNT(*) FROM grid").fetchone()[0]
            if n:
                raise ParameterError(
                    f"{path}: registry already initialised ({n} cells); "
                    "use --force to drop and refill"
                )
        # executescript() commits any open transaction, so the tables
        # go in first and the fill runs in its own transaction.
        conn.executescript(_TABLES)
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.execute("DELETE FROM grid")
            conn.execute("DELETE FROM runs")
            conn.execute("DELETE FROM points")
            conn.execute("DELETE FROM meta")
            identity = run_identity()
            for key, value in (
                ("schema", str(SCHEMA_VERSION)),
                ("spec", spec.to_json()),
                ("created_at", identity["created_at"]),
                ("created_by_run", identity["run_id"]),
                ("created_git_sha", str(identity["git_sha"])),
            ):
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    (key, value),
                )
            conn.executemany(
                "INSERT INTO grid (workload, backend, security_bits, "
                "healthy, batch) VALUES (?, ?, ?, ?, ?)",
                [
                    (
                        c["workload"],
                        c["backend"],
                        c["security_bits"],
                        c["healthy"],
                        c["batch"],
                    )
                    for c in spec.cells()
                ],
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return registry

    @classmethod
    def open(cls, path) -> RunRegistry:
        """Open an existing registry; :class:`ParameterError` if the
        database is missing, empty, or of an unknown schema."""
        path = pathlib.Path(path)
        if not path.exists():
            raise ParameterError(
                f"no run registry at {path}; create one with "
                "'repro grid init'"
            )
        conn = cls._connect(path)
        has_grid = conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "AND name='grid'"
        ).fetchone()
        if not has_grid or not conn.execute(
            "SELECT COUNT(*) FROM grid"
        ).fetchone()[0]:
            conn.close()
            raise ParameterError(
                f"{path}: registry is empty (no grid cells); "
                "initialise it with 'repro grid init'"
            )
        registry = cls(path, conn)
        schema = registry.meta("schema")
        if schema != str(SCHEMA_VERSION):
            conn.close()
            raise ParameterError(
                f"{path}: unsupported registry schema {schema!r} "
                f"(this build reads version {SCHEMA_VERSION}); "
                "re-initialise with 'repro grid init --force'"
            )
        cls._migrate(conn)
        return registry

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> RunRegistry:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- meta ---------------------------------------------------------------

    def meta(self, key: str) -> str | None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return row["value"] if row else None

    @property
    def spec(self) -> GridSpec:
        text = self.meta("spec")
        if text is None:
            raise ParameterError(f"{self.path}: registry has no grid spec")
        return GridSpec.from_json(text)

    # -- claiming and recording ---------------------------------------------

    def claim_next(self, owner: str) -> dict | None:
        """Atomically claim the lowest-id pending cell, or ``None``.

        The claim runs in one ``BEGIN IMMEDIATE`` transaction: the
        write lock is taken *before* the candidate is selected, so two
        workers can never observe the same pending cell.
        """
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            row = self._conn.execute(
                "SELECT * FROM grid WHERE status = ? "
                "ORDER BY cell_id LIMIT 1",
                (STATUS_PENDING,),
            ).fetchone()
            if row is None:
                self._conn.execute("COMMIT")
                return None
            updated = self._conn.execute(
                "UPDATE grid SET status = ?, owner = ?, claimed_at = ?, "
                "attempts = attempts + 1 "
                "WHERE cell_id = ? AND status = ?",
                (
                    STATUS_RUNNING,
                    owner,
                    _now(),
                    row["cell_id"],
                    STATUS_PENDING,
                ),
            )
            assert updated.rowcount == 1  # guaranteed under the lock
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return dict(row)

    def complete(
        self, cell_id: int, modelled_ms: float, wall_s: float, run_id: str
    ) -> None:
        """Record a claimed cell's result and mark it done."""
        self._conn.execute("BEGIN IMMEDIATE")
        self._conn.execute(
            "UPDATE grid SET status = ?, modelled_ms = ?, wall_s = ?, "
            "finished_at = ?, run_id = ?, error_type = NULL, "
            "error_message = NULL, fault_class = NULL, "
            "failure_header = NULL WHERE cell_id = ?",
            (STATUS_DONE, modelled_ms, wall_s, _now(), run_id, cell_id),
        )
        self._conn.execute("COMMIT")

    def fail(self, cell_id: int, record: dict, run_id: str) -> None:
        """Record a claimed cell's failure record and mark it failed.

        ``record`` is a :func:`repro.harness.runner.failure_record`
        dict — type, message, ``[permanent]``/``[transient]`` fault
        class, and the one-line header.
        """
        self._conn.execute("BEGIN IMMEDIATE")
        self._conn.execute(
            "UPDATE grid SET status = ?, finished_at = ?, run_id = ?, "
            "error_type = ?, error_message = ?, fault_class = ?, "
            "failure_header = ? WHERE cell_id = ?",
            (
                STATUS_FAILED,
                _now(),
                run_id,
                record.get("error_type"),
                record.get("message"),
                record.get("fault_class"),
                record.get("header"),
                cell_id,
            ),
        )
        self._conn.execute("COMMIT")

    def release_stale(self) -> int:
        """Return interrupted (``running``) cells to ``pending``.

        ``repro grid resume`` calls this first: cells a killed worker
        left claimed become claimable again; *done* cells are never
        touched, so resume recomputes nothing.
        """
        self._conn.execute("BEGIN IMMEDIATE")
        cursor = self._conn.execute(
            "UPDATE grid SET status = ?, owner = NULL, claimed_at = NULL "
            "WHERE status = ?",
            (STATUS_PENDING, STATUS_RUNNING),
        )
        self._conn.execute("COMMIT")
        return cursor.rowcount

    def retry_failed(self) -> int:
        """Return failed cells to pending (explicit re-run request)."""
        self._conn.execute("BEGIN IMMEDIATE")
        cursor = self._conn.execute(
            "UPDATE grid SET status = ?, owner = NULL, claimed_at = NULL, "
            "error_type = NULL, error_message = NULL, fault_class = NULL, "
            "failure_header = NULL WHERE status = ?",
            (STATUS_PENDING, STATUS_FAILED),
        )
        self._conn.execute("COMMIT")
        return cursor.rowcount

    # -- reading ------------------------------------------------------------

    def counts(self) -> dict:
        """Cell counts by status (every status present, even at 0)."""
        counts = {
            status: 0
            for status in (
                STATUS_PENDING,
                STATUS_RUNNING,
                STATUS_DONE,
                STATUS_FAILED,
            )
        }
        for row in self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM grid GROUP BY status"
        ):
            counts[row["status"]] = row["n"]
        return counts

    def cells(self, status: str | None = None) -> list:
        """Grid rows as dicts, in cell-id (claim) order."""
        if status is None:
            rows = self._conn.execute(
                "SELECT * FROM grid ORDER BY cell_id"
            )
        else:
            rows = self._conn.execute(
                "SELECT * FROM grid WHERE status = ? ORDER BY cell_id",
                (status,),
            )
        return [dict(row) for row in rows]

    def result_rows(self) -> list:
        """The deterministic result projection (:data:`RESULT_COLUMNS`).

        Two drains of the same grid — interrupted-and-resumed or not —
        must produce byte-identical serialisations of this list.
        """
        return [
            tuple(cell[column] for column in RESULT_COLUMNS)
            for cell in self.cells()
        ]

    # -- the runs ledger ----------------------------------------------------

    def record_run(self, doc: dict) -> None:
        """Append one drain invocation to the runs ledger."""
        self._conn.execute("BEGIN IMMEDIATE")
        self._conn.execute(
            "INSERT OR REPLACE INTO runs (run_id, created_at, git_sha, "
            "schema, command, owner, cells_done, cells_failed, wall_s, "
            "modelled_ms, rollups, drift_annotations) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                doc["run_id"],
                doc["created_at"],
                doc["git_sha"],
                SCHEMA_VERSION,
                doc.get("command", ""),
                doc.get("owner", ""),
                doc.get("cells_done", 0),
                doc.get("cells_failed", 0),
                doc.get("wall_s", 0.0),
                doc.get("modelled_ms", 0.0),
                json.dumps(doc.get("rollups", {}), sort_keys=True),
                json.dumps(
                    doc.get("drift_annotations", {}), sort_keys=True
                ),
            ),
        )
        self._conn.execute("COMMIT")

    def runs(self) -> list:
        """All recorded drain invocations, oldest first."""
        out = []
        for row in self._conn.execute(
            "SELECT * FROM runs ORDER BY created_at, run_id"
        ):
            doc = dict(row)
            doc["rollups"] = json.loads(doc.get("rollups") or "{}")
            doc["drift_annotations"] = json.loads(
                doc.get("drift_annotations") or "{}"
            )
            out.append(doc)
        return out

    # -- memoized sweep points ----------------------------------------------

    def points(self, sweep_key: str) -> dict:
        """Recorded parameter -> value pairs for one sweep key."""
        return {
            row["parameter"]: row["value"]
            for row in self._conn.execute(
                "SELECT parameter, value FROM points WHERE sweep_key = ?",
                (sweep_key,),
            )
        }

    def record_point(
        self,
        sweep_key: str,
        parameter: float,
        value: float,
        run_id: str | None = None,
    ) -> None:
        """Memoize one sweep sample (idempotent per (key, parameter))."""
        self._conn.execute("BEGIN IMMEDIATE")
        self._conn.execute(
            "INSERT OR REPLACE INTO points "
            "(sweep_key, parameter, value, run_id, created_at) "
            "VALUES (?, ?, ?, ?, ?)",
            (sweep_key, float(parameter), float(value), run_id, _now()),
        )
        self._conn.execute("COMMIT")


# -- running cells ----------------------------------------------------------


def run_cell(cell: dict, seed: int = 0) -> float:
    """Price one grid cell; returns modelled milliseconds.

    The exact pricing path the experiments use: the workload built from
    the cell's coordinates, timed on the named backend under the
    degraded-fleet :class:`~repro.pim.faults.FaultPlan` for the cell's
    health fraction (inactive at 100% healthy, so fault-free cells run
    the untouched path the committed baselines were recorded from).
    """
    from repro.harness.chaos import plan_for_healthy_fraction
    from repro.pim.config import UPMEMConfig
    from repro.pim.faults import use_fault_plan

    try:
        grid_workload = GRID_WORKLOADS[cell["workload"]]
    except KeyError:
        raise ParameterError(
            f"unknown grid workload {cell['workload']!r}; known: "
            f"{sorted(GRID_WORKLOADS)}"
        ) from None
    workload = grid_workload.factory(cell["security_bits"], cell["batch"])
    backend = get_backend(cell["backend"])
    plan = plan_for_healthy_fraction(cell["healthy"], seed, UPMEMConfig())
    with use_fault_plan(plan):
        return workload.time_on(backend) * 1e3


def drain(
    registry: RunRegistry,
    owner: str = "worker",
    keep_going: bool = False,
    max_cells: int | None = None,
    baseline: dict | None = None,
    progress=None,
    command: str = "grid run",
) -> dict:
    """Claim and run pending cells until the grid is drained.

    One invocation = one row in the runs ledger, stamped with the
    shared run identity. Failures under ``keep_going`` are recorded as
    failed cells (type, message, fault class, PR-3 header) and the
    drain continues; without it the failing cell is still recorded,
    then the exception propagates. ``max_cells`` bounds the number of
    claims (the CI half-run switch). ``progress`` receives each cell's
    label as it starts.
    """
    identity = run_identity()
    seed = registry.spec.seed
    done: list = []
    failures: list = []
    metrics = MetricsRegistry()
    t_start = perf_counter()
    with use_registry(metrics):
        while max_cells is None or len(done) + len(failures) < max_cells:
            cell = registry.claim_next(owner)
            if cell is None:
                break
            label = cell_label(cell)
            if progress is not None:
                progress(label)
            t_cell = perf_counter()
            try:
                modelled_ms = run_cell(cell, seed=seed)
            except Exception as exc:
                from repro.harness.runner import failure_record

                record = failure_record(label, exc)
                registry.fail(cell["cell_id"], record, identity["run_id"])
                failures.append(record)
                if not keep_going:
                    _record_drain(
                        registry, identity, command, owner, done,
                        failures, perf_counter() - t_start, baseline,
                        metrics,
                    )
                    raise
                continue
            registry.complete(
                cell["cell_id"],
                modelled_ms,
                perf_counter() - t_cell,
                identity["run_id"],
            )
            done.append({**cell, "modelled_ms": modelled_ms})
    return _record_drain(
        registry, identity, command, owner, done, failures,
        perf_counter() - t_start, baseline, metrics,
    )


def _record_drain(
    registry, identity, command, owner, done, failures, wall_s,
    baseline, metrics,
) -> dict:
    """Roll one drain up into the runs ledger; returns the run doc."""
    cells = registry.cells()
    verdicts = check_against_baseline(cells, baseline)
    snapshot = metrics.snapshot()
    doc = dict(identity)
    doc.update(
        {
            "command": command,
            "owner": owner,
            "cells_done": len(done),
            "cells_failed": len(failures),
            "wall_s": wall_s,
            "modelled_ms": sum(c["modelled_ms"] for c in done),
            "rollups": {
                "experiments": experiment_totals(cells),
                "workloads": workload_totals(cells),
                "counters": _bl._counter_rollup(snapshot),
                "energy": _energy.energy_rollup(snapshot),
                "verdicts": [
                    {
                        "experiment": v.key,
                        "verdict": v.verdict,
                        "notes": list(v.notes),
                    }
                    for v in verdicts
                ],
                "failures": [record["header"] for record in failures],
            },
            "drift_annotations": drift_annotations(
                cells, baseline, failures
            ),
        }
    )
    registry.record_run(doc)
    return doc


def drift_annotations(cells, baseline: dict | None, failures=()) -> dict:
    """Top drift contributor per family, as a JSON-able ledger stamp.

    ``"perf"`` names the (experiment, backend) series with the largest
    absolute modelled delta against the committed baseline among the
    groups the grid reproduces; ``"failures"`` carries the count and
    first failure header. Empty when nothing drifted or failed. The
    grid dashboard's verdict history renders these stamps and
    deep-links each one into a ``repro why <experiment>`` forensics
    report (``forensics-<experiment>.html``).
    """
    annotations: dict = {}
    if baseline is not None:
        totals = experiment_totals(cells)
        top = None
        for eid, recorded in sorted(
            baseline.get("experiments", {}).items()
        ):
            expected = recorded["modelled"]["series_totals"]
            got = totals.get(eid)
            if not got:
                continue
            for backend in sorted(expected):
                if backend not in got:
                    continue
                delta = got[backend] - expected[backend]
                if delta != 0.0 and (
                    top is None or abs(delta) > abs(top["delta_ms"])
                ):
                    top = {
                        "experiment": eid,
                        "backend": backend,
                        "grid_ms": got[backend],
                        "baseline_ms": expected[backend],
                        "delta_ms": delta,
                    }
        if top is not None:
            annotations["perf"] = top
    if failures:
        annotations["failures"] = {
            "count": len(failures),
            "first": failures[0]["header"],
        }
    return annotations


# -- the MODEL-DRIFT gate over the grid -------------------------------------


def _fault_free_index(cells) -> dict:
    """(workload, bits, batch, backend) -> done cell, health == 100%."""
    return {
        (
            cell["workload"],
            cell["security_bits"],
            cell["batch"],
            cell["backend"],
        ): cell
        for cell in cells
        if cell["healthy"] == 1.0 and cell["status"] == STATUS_DONE
    }


def _grid_coverage(cells) -> dict:
    """(workload, bits) -> batches the grid enumerates at 100% healthy.

    An experiment group is only comparable when the grid enumerates
    *every* batch its committed ``series_totals`` summed over — a
    ``max_batches``-truncated grid (the CI tiny preset) silently skips
    groups it cannot reproduce rather than reporting them partial.
    """
    coverage: dict = {}
    for cell in cells:
        if cell["healthy"] == 1.0:
            coverage.setdefault(
                (cell["workload"], cell["security_bits"]), set()
            ).add(cell["batch"])
    return coverage


def _covers(coverage: dict, workload: str, bits: int, batches) -> bool:
    return set(batches) <= coverage.get((workload, bits), set())


def experiment_totals(cells) -> dict:
    """Fault-free per-backend modelled totals by experiment group.

    For each mapped experiment (:data:`EXPERIMENT_CELLS`) whose cells
    the grid enumerates, sums done cells per backend *in batch order* —
    the same float-accumulation order as
    :func:`repro.obs.baseline.series_totals` over the experiment's
    rows, so totals are comparable bit-for-bit. Backends with missing
    cells are omitted.
    """
    index = _fault_free_index(cells)
    coverage = _grid_coverage(cells)
    backends = sorted({cell["backend"] for cell in cells})
    totals: dict = {}
    for eid, (workload, bits, batches) in EXPERIMENT_CELLS.items():
        if not _covers(coverage, workload, bits, batches):
            continue
        series: dict = {}
        for backend in backends:
            values = [
                index.get((workload, bits, batch, backend))
                for batch in batches
            ]
            if any(v is None for v in values):
                continue
            total = 0.0
            for value in values:
                total += value["modelled_ms"]
            series[backend] = total
        if series:
            totals[eid] = series
    return totals


def workload_totals(cells) -> dict:
    """Fault-free per-backend totals by ``workload@bits`` group.

    Unlike :func:`experiment_totals` this needs no full batch coverage
    — it sums whatever done 100%-healthy cells the grid has, in batch
    order, so even a truncated CI grid produces trendable longitudinal
    data. Not comparable against the committed baseline (use
    :func:`experiment_totals` for that).
    """
    totals: dict = {}
    for cell in cells:
        if cell["healthy"] != 1.0 or cell["status"] != STATUS_DONE:
            continue
        group = totals.setdefault(
            f"{cell['workload']}@{cell['security_bits']}b", {}
        )
        group[cell["backend"]] = (
            group.get(cell["backend"], 0.0) + cell["modelled_ms"]
        )
    return totals


def check_against_baseline(cells, baseline: dict | None) -> list:
    """MODEL-DRIFT verdicts: fault-free grid totals vs ``perf.json``.

    For every experiment group the grid covers: ``ok`` when each
    backend total matches the committed ``series_totals`` **exactly**
    (bit-identical floats — the perf gate's modelled-exactness policy),
    ``MODEL-DRIFT`` on any mismatch, ``partial`` while cells are still
    pending/failed, ``new`` when the baseline has no such experiment.
    Returns ``[]`` when no baseline is given.
    """
    if baseline is None:
        return []
    coverage = _grid_coverage(cells)
    totals = experiment_totals(cells)
    verdicts = []
    for eid, (workload, bits, batches) in EXPERIMENT_CELLS.items():
        if not _covers(coverage, workload, bits, batches):
            continue
        recorded = baseline.get("experiments", {}).get(eid)
        if recorded is None:
            verdicts.append(
                Verdict(
                    eid,
                    gate.VERDICT_NEW,
                    (f"experiment {eid!r} not in the baseline",),
                )
            )
            continue
        expected = recorded["modelled"]["series_totals"]
        got = totals.get(eid, {})
        missing = [name for name in sorted(expected) if name not in got]
        if missing:
            verdicts.append(
                Verdict(
                    eid,
                    gate.VERDICT_PARTIAL,
                    tuple(
                        f"backend {name!r}: cells pending or failed"
                        for name in missing
                    ),
                )
            )
            continue
        notes = tuple(
            f"{name}: grid total {got[name]!r} != baseline "
            f"{expected[name]!r}"
            for name in sorted(expected)
            if got[name] != expected[name]
        )
        verdicts.append(
            Verdict(eid, gate.MODEL_DRIFT if notes else gate.VERDICT_OK, notes)
        )
    return verdicts


# -- text status ------------------------------------------------------------


def render_status(registry: RunRegistry, baseline: dict | None = None) -> str:
    """The registry as a text status report.

    Counts by status, per-(workload, security, health) completion, the
    failed-cell headers, the latest ledger entries, and — when a perf
    baseline is given — the grid MODEL-DRIFT verdicts.
    """
    counts = registry.counts()
    cells = registry.cells()
    spec = registry.spec
    total = len(cells)
    lines = [
        f"run registry {registry.path} — {total} cells "
        f"(seed {spec.seed})",
        "  "
        + "  ".join(
            f"{status}: {counts[status]}"
            for status in (
                STATUS_DONE,
                STATUS_FAILED,
                STATUS_RUNNING,
                STATUS_PENDING,
            )
        ),
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

    failed = [c for c in cells if c["status"] == STATUS_FAILED]
    if failed:
        lines.append("\nfailed cells:")
        lines.extend(f"  {c['failure_header']}" for c in failed)

    runs = registry.runs()
    if runs:
        lines.append("\nrecorded runs (newest last):")
        for run in runs[-5:]:
            lines.append(
                f"  {run['run_id'][:12]}  git {str(run['git_sha'])[:12]}  "
                f"{run['created_at']}  done {run['cells_done']} "
                f"failed {run['cells_failed']}"
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
