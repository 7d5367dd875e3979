"""Run registry: grid enumeration, atomic claims, resume determinism,
and the bit-identical baseline cross-check."""

import json
import threading

import pytest

from repro.errors import ParameterError
from repro.obs import gate
from repro.obs import registry as reg
from repro.obs.baseline import read_run

#: One small grid most tests share: two workloads, truncated batches.
TINY = dict(
    workloads=("vec_add", "mean"),
    security_bits=(109,),
    healthy=(1.0, 0.9),
    max_batches=2,
)


def tiny_registry(tmp_path, name="grid.db", **overrides):
    spec = reg.GridSpec(**{**TINY, **overrides})
    return reg.RunRegistry.create(tmp_path / name, spec)


class TestGridSpec:
    def test_enumerates_full_cross_product(self):
        spec = reg.GridSpec(**TINY)
        cells = list(spec.cells())
        # 2 workloads x 1 security x 2 healthy x 2 batches x 4 backends
        assert len(cells) == 32
        assert len({tuple(sorted(c.items())) for c in cells}) == 32

    def test_cell_order_is_deterministic(self):
        spec = reg.GridSpec(**TINY)
        assert list(spec.cells()) == list(spec.cells())
        first = next(iter(spec.cells()))
        # healthiest fraction and smallest batch come first
        assert first["healthy"] == 1.0
        assert first["workload"] == "vec_add"

    def test_roundtrips_through_json(self):
        spec = reg.GridSpec(**TINY, seed=5)
        assert reg.GridSpec.from_json(spec.to_json()) == spec

    def test_rejects_unknown_workload(self):
        with pytest.raises(ParameterError, match="unknown grid workload"):
            reg.GridSpec(workloads=("nope",))

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_rejects_bad_healthy_fraction(self, fraction):
        with pytest.raises(ParameterError, match="healthy fraction"):
            reg.GridSpec(healthy=(fraction,))

    def test_rejects_bad_max_batches(self):
        with pytest.raises(ParameterError, match="max_batches"):
            reg.GridSpec(max_batches=0)


class TestLifecycle:
    def test_open_missing_db_raises_parameter_error(self, tmp_path):
        with pytest.raises(ParameterError, match="repro grid init"):
            reg.RunRegistry.open(tmp_path / "none.db")

    def test_open_empty_file_raises_parameter_error(self, tmp_path):
        empty = tmp_path / "empty.db"
        empty.touch()
        with pytest.raises(ParameterError, match="repro grid init"):
            reg.RunRegistry.open(empty)

    def test_create_then_open(self, tmp_path):
        created = tiny_registry(tmp_path)
        opened = reg.RunRegistry.open(created.path)
        assert opened.spec == created.spec
        assert opened.counts()["pending"] == 32

    def test_create_twice_requires_force(self, tmp_path):
        created = tiny_registry(tmp_path)
        with pytest.raises(ParameterError, match="already initialised"):
            reg.RunRegistry.create(created.path, created.spec)
        refilled = reg.RunRegistry.create(
            created.path, reg.GridSpec(**TINY, seed=9), force=True
        )
        assert refilled.spec.seed == 9

    def test_unknown_schema_rejected(self, tmp_path):
        created = tiny_registry(tmp_path)
        created._conn.execute(
            "UPDATE meta SET value = '99' WHERE key = 'schema'"
        )
        with pytest.raises(ParameterError, match="unsupported registry"):
            reg.RunRegistry.open(created.path)


class TestAtomicClaims:
    def test_claim_marks_running_and_sets_owner(self, tmp_path):
        registry = tiny_registry(tmp_path)
        cell = registry.claim_next("w1")
        assert cell is not None
        row = registry.cells()[0]
        assert row["status"] == reg.STATUS_RUNNING
        assert row["owner"] == "w1"
        assert row["attempts"] == 1

    def test_two_workers_never_double_claim(self, tmp_path):
        """The concurrency contract: workers racing over separate
        connections each get distinct cells, every cell exactly once."""
        path = tiny_registry(tmp_path).path
        claims: dict = {}
        lock = threading.Lock()
        barrier = threading.Barrier(2)

        def worker(name: str) -> None:
            registry = reg.RunRegistry.open(path)
            barrier.wait()
            while True:
                cell = registry.claim_next(name)
                if cell is None:
                    break
                with lock:
                    claims.setdefault(cell["cell_id"], []).append(name)
            registry.close()

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(claims) == 32  # every cell claimed...
        assert all(len(owners) == 1 for owners in claims.values())

    def test_claim_returns_none_when_drained(self, tmp_path):
        registry = tiny_registry(tmp_path)
        while registry.claim_next("w"):
            pass
        assert registry.claim_next("w") is None


class TestDrain:
    def test_drain_completes_every_cell(self, tmp_path):
        registry = tiny_registry(tmp_path)
        doc = reg.drain(registry)
        assert doc["cells_done"] == 32
        assert doc["cells_failed"] == 0
        assert registry.counts()["done"] == 32
        assert all(
            c["modelled_ms"] > 0 and c["run_id"] == doc["run_id"]
            for c in registry.cells()
        )

    def test_drain_records_run_in_ledger(self, tmp_path):
        registry = tiny_registry(tmp_path)
        doc = reg.drain(registry, owner="ci")
        runs = registry.runs()
        assert len(runs) == 1
        assert runs[0]["run_id"] == doc["run_id"]
        assert runs[0]["owner"] == "ci"
        # the truncated grid covers no full experiment group, but the
        # per-workload rollup still carries trendable totals
        assert runs[0]["rollups"]["experiments"] == {}
        assert set(runs[0]["rollups"]["workloads"]) == {
            "vec_add@109b",
            "mean@109b",
        }
        assert isinstance(runs[0]["rollups"]["counters"], dict)

    def test_max_cells_bounds_the_drain(self, tmp_path):
        registry = tiny_registry(tmp_path)
        doc = reg.drain(registry, max_cells=5)
        assert doc["cells_done"] == 5
        assert registry.counts()["pending"] == 27

    def test_failure_recorded_as_failed_cell(self, tmp_path, monkeypatch):
        """keep_going failures land in the grid with the PR-3 record:
        type, message, fault class, and the one-line header."""
        from repro.errors import PermanentDeviceError

        registry = tiny_registry(tmp_path)
        real_run_cell = reg.run_cell

        def flaky(cell, seed=0):
            if cell["backend"] == "pim" and cell["healthy"] < 1.0:
                raise PermanentDeviceError("fleet gave out")
            return real_run_cell(cell, seed=seed)

        monkeypatch.setattr(reg, "run_cell", flaky)
        doc = reg.drain(registry, keep_going=True)
        failed = registry.cells(reg.STATUS_FAILED)
        assert doc["cells_failed"] == len(failed) == 4  # 2 workloads x 2 batches
        record = failed[0]
        assert record["error_type"] == "PermanentDeviceError"
        assert record["fault_class"] == "permanent"
        assert "[permanent] PermanentDeviceError" in record["failure_header"]
        assert record["failure_header"] in doc["rollups"]["failures"]

    def test_without_keep_going_failure_propagates(
        self, tmp_path, monkeypatch
    ):
        registry = tiny_registry(tmp_path)

        def broken(cell, seed=0):
            raise ValueError("boom")

        monkeypatch.setattr(reg, "run_cell", broken)
        with pytest.raises(ValueError):
            reg.drain(registry)
        # the failing cell is still recorded, and the ledger has the run
        assert registry.counts()["failed"] == 1
        assert len(registry.runs()) == 1


class TestResumeDeterminism:
    def test_interrupted_resume_is_byte_identical(self, tmp_path):
        """The determinism contract: interrupt a drain mid-flight
        (a claimed-but-unfinished cell left behind), resume, and the
        result rows serialize byte-for-byte like an uninterrupted run."""
        straight = tiny_registry(tmp_path, "straight.db")
        reg.drain(straight)

        interrupted = tiny_registry(tmp_path, "interrupted.db")
        reg.drain(interrupted, max_cells=7)
        # simulate the kill: a worker claims a cell and dies
        assert interrupted.claim_next("doomed") is not None
        assert interrupted.counts()["running"] == 1
        # resume: release stale claims, drain the rest
        assert interrupted.release_stale() == 1
        reg.drain(interrupted)

        assert interrupted.counts()["done"] == 32
        serialize = lambda rows: json.dumps(rows, sort_keys=True)  # noqa: E731
        assert serialize(interrupted.result_rows()) == serialize(
            straight.result_rows()
        )

    def test_resume_recomputes_nothing(self, tmp_path, monkeypatch):
        registry = tiny_registry(tmp_path)
        reg.drain(registry, max_cells=20)
        priced = []
        real_run_cell = reg.run_cell

        def counting(cell, seed=0):
            priced.append(cell["cell_id"])
            return real_run_cell(cell, seed=seed)

        monkeypatch.setattr(reg, "run_cell", counting)
        reg.drain(registry)
        assert len(priced) == 12  # only the cells the first pass left

    def test_retry_failed_returns_cells_to_pending(
        self, tmp_path, monkeypatch
    ):
        registry = tiny_registry(tmp_path)

        def broken(cell, seed=0):
            raise RuntimeError("boom")

        monkeypatch.setattr(reg, "run_cell", broken)
        reg.drain(registry, keep_going=True, max_cells=3)
        monkeypatch.undo()
        assert registry.retry_failed() == 3
        reg.drain(registry)
        assert registry.counts()["done"] == 32
        assert all(
            c["failure_header"] is None for c in registry.cells()
        )


class TestBaselineCrossCheck:
    def test_fault_free_cells_reproduce_baseline_bit_identically(
        self, tmp_path
    ):
        """The acceptance gate: grid cells at 100% health, summed per
        backend in batch order, equal the committed perf.json series
        totals with float ``==`` — no tolerance."""
        registry = tiny_registry(
            tmp_path,
            workloads=("mean",),
            healthy=(1.0,),
            max_batches=None,
        )
        reg.drain(registry)
        baseline = read_run("baselines/perf.json")
        totals = reg.experiment_totals(registry.cells())
        expected = baseline["experiments"]["fig2a"]["modelled"][
            "series_totals"
        ]
        for series, value in expected.items():
            assert totals["fig2a"][series] == value
        verdicts = reg.check_against_baseline(registry.cells(), baseline)
        by_eid = {v.key: v for v in verdicts}
        assert by_eid["fig2a"].verdict == gate.VERDICT_OK
        assert gate.exit_code(verdicts) == 0

    def test_drift_detected_on_any_mismatch(self, tmp_path):
        registry = tiny_registry(
            tmp_path, workloads=("mean",), healthy=(1.0,), max_batches=None
        )
        reg.drain(registry)
        registry._conn.execute(
            "UPDATE grid SET modelled_ms = modelled_ms * 1.000001 "
            "WHERE backend = 'pim' AND batch = 640"
        )
        baseline = read_run("baselines/perf.json")
        verdicts = reg.check_against_baseline(registry.cells(), baseline)
        by_eid = {v.key: v for v in verdicts}
        assert by_eid["fig2a"].verdict == gate.MODEL_DRIFT
        assert gate.exit_code(verdicts) == 1

    def test_partial_while_cells_outstanding(self, tmp_path):
        registry = tiny_registry(
            tmp_path, workloads=("mean",), healthy=(1.0,), max_batches=None
        )
        reg.drain(registry, max_cells=3)
        baseline = read_run("baselines/perf.json")
        verdicts = reg.check_against_baseline(registry.cells(), baseline)
        assert {v.verdict for v in verdicts} == {gate.VERDICT_PARTIAL}
        assert gate.exit_code(verdicts) == 0

    def test_unmapped_experiment_reports_new(self, tmp_path):
        """variance (fig2b) has no committed baseline entry: 'new'."""
        registry = tiny_registry(
            tmp_path,
            workloads=("variance",),
            healthy=(1.0,),
            max_batches=None,
        )
        reg.drain(registry)
        baseline = read_run("baselines/perf.json")
        verdicts = reg.check_against_baseline(registry.cells(), baseline)
        assert [v.verdict for v in verdicts] == [gate.VERDICT_NEW]

    def test_truncated_grid_skips_incomparable_groups(self, tmp_path):
        registry = tiny_registry(tmp_path)  # max_batches=2 truncation
        reg.drain(registry)
        baseline = read_run("baselines/perf.json")
        assert reg.check_against_baseline(registry.cells(), baseline) == []

    def test_no_baseline_no_verdicts(self, tmp_path):
        registry = tiny_registry(tmp_path)
        assert reg.check_against_baseline(registry.cells(), None) == []


class TestSweepPoints:
    def test_points_memoized_per_key(self, tmp_path):
        registry = tiny_registry(tmp_path)
        registry.record_point("k", 1.0, 10.0)
        registry.record_point("k", 2.0, 20.0)
        registry.record_point("other", 1.0, 99.0)
        assert registry.points("k") == {1.0: 10.0, 2.0: 20.0}
        registry.record_point("k", 1.0, 11.0)  # idempotent upsert
        assert registry.points("k")[1.0] == 11.0


class TestRenderStatus:
    def test_status_text_covers_counts_failures_and_gate(
        self, tmp_path, monkeypatch
    ):
        registry = tiny_registry(
            tmp_path, workloads=("mean",), healthy=(1.0,), max_batches=None
        )
        real_run_cell = reg.run_cell

        def flaky(cell, seed=0):
            if cell["backend"] == "gpu":
                raise RuntimeError("no device")
            return real_run_cell(cell, seed=seed)

        monkeypatch.setattr(reg, "run_cell", flaky)
        reg.drain(registry, keep_going=True)
        text = reg.render_status(
            registry, read_run("baselines/perf.json")
        )
        assert "failed: 3" in text
        assert "RuntimeError: no device" in text
        assert "partial" in text  # gpu series incomplete
        assert "recorded runs" in text


class TestDriftAnnotations:
    """The PR-9 ledger stamp: top drift contributor per family."""

    def cell(self, modelled_ms, workload="vec_add", backend="pim"):
        return {
            "workload": workload,
            "backend": backend,
            "security_bits": 109,
            "healthy": 1.0,
            "batch": 4096,
            "status": reg.STATUS_DONE,
            "modelled_ms": modelled_ms,
        }

    def test_no_baseline_no_failures_is_empty(self):
        assert reg.drift_annotations([self.cell(1.0)], None) == {}

    def test_matching_totals_leave_no_perf_stamp(self, tmp_path):
        registry = tiny_registry(tmp_path, max_batches=None)
        reg.drain(registry)
        baseline = read_run("baselines/perf.json")
        stamp = reg.drift_annotations(registry.cells(), baseline)
        assert "perf" not in stamp

    def test_largest_absolute_delta_wins(self):
        baseline = {
            "experiments": {
                "fig1a": {
                    "modelled": {"series_totals": {"pim": 10.0, "cpu": 5.0}}
                }
            }
        }
        totals = {"fig1a": {"pim": 13.0, "cpu": 4.0}}
        cells = [self.cell(1.0)]

        def fake_totals(_cells):
            return totals

        original = reg.experiment_totals
        reg.experiment_totals = fake_totals
        try:
            stamp = reg.drift_annotations(cells, baseline)
        finally:
            reg.experiment_totals = original
        assert stamp["perf"] == {
            "experiment": "fig1a",
            "backend": "pim",
            "grid_ms": 13.0,
            "baseline_ms": 10.0,
            "delta_ms": 3.0,
        }

    def test_failures_stamped_with_count_and_first_header(self):
        failures = [
            {"header": "[permanent] PermanentDeviceError: fleet gave out"},
            {"header": "[transient] RetryExhausted: still down"},
        ]
        stamp = reg.drift_annotations([], None, failures)
        assert stamp["failures"]["count"] == 2
        assert "PermanentDeviceError" in stamp["failures"]["first"]

    def test_round_trips_through_the_ledger(self, tmp_path):
        registry = tiny_registry(tmp_path)
        doc = {
            "run_id": "run-1",
            "created_at": "2026-01-01T00:00:00+00:00",
            "git_sha": "abc123",
            "drift_annotations": {
                "perf": {"experiment": "fig1a", "backend": "pim",
                         "grid_ms": 2.0, "baseline_ms": 1.0, "delta_ms": 1.0}
            },
        }
        registry.record_run(doc)
        (row,) = registry.runs()
        assert row["drift_annotations"]["perf"]["experiment"] == "fig1a"

    def test_drain_stamps_the_ledger_row(self, tmp_path):
        registry = tiny_registry(tmp_path)
        reg.drain(registry)
        (row,) = registry.runs()
        assert isinstance(row["drift_annotations"], dict)

    def test_pre_column_database_is_migrated_on_open(self, tmp_path):
        import sqlite3

        registry = tiny_registry(tmp_path)
        path = registry.path
        registry.close()
        # Rebuild the runs table as PR-6 shipped it: no annotation column.
        conn = sqlite3.connect(str(path))
        conn.execute("DROP TABLE runs")
        conn.execute(
            "CREATE TABLE runs (run_id TEXT PRIMARY KEY, created_at TEXT, "
            "git_sha TEXT, schema INTEGER, command TEXT, owner TEXT, "
            "cells_done INTEGER, cells_failed INTEGER, wall_s REAL, "
            "modelled_ms REAL, rollups TEXT)"
        )
        conn.commit()
        conn.close()
        with reg.RunRegistry.open(path) as migrated:
            migrated.record_run(
                {
                    "run_id": "run-1",
                    "created_at": "t",
                    "git_sha": "s",
                    "drift_annotations": {"failures": {"count": 1,
                                                       "first": "boom"}},
                }
            )
            (row,) = migrated.runs()
        assert row["drift_annotations"]["failures"]["count"] == 1
