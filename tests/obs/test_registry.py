"""The experiment grid: enumeration, pricing every cell, the grid
document, and the bit-identical baseline cross-check."""

import dataclasses
import hashlib
import json

import pytest

from repro.errors import ParameterError
from repro.harness.cli import main
from repro.harness.runner import run_experiment
from repro.obs import gate
from repro.obs import registry as reg
from repro.obs.baseline import read_run, series_totals
from repro.pim.config import UPMEMConfig
from repro.pim.faults import plan_for_healthy_fraction, use_fault_plan
from repro.workloads.registry import EXPERIMENT_CELLS

#: One small grid most tests share: two workloads, truncated batches.
TINY = dict(
    workloads=("vec_add", "mean"),
    security_bits=(109,),
    healthy=(1.0, 0.9),
    max_batches=2,
)

#: A full fault-free group: every fig2a batch, each backend.
FIG2A = dict(workloads=("mean",), security_bits=(109,), healthy=(1.0,))

#: The columns a grid run must reproduce exactly (no run identity).
PIN_COLUMNS = (
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


def pin(rows) -> str:
    """sha256 of the rows' :data:`PIN_COLUMNS` tuples, JSON-serialised."""
    projected = [tuple(row[column] for column in PIN_COLUMNS) for row in rows]
    return hashlib.sha256(json.dumps(projected).encode()).hexdigest()


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
        text = json.dumps(spec.to_dict())
        assert reg.GridSpec.from_dict(json.loads(text)) == spec

    def test_rejects_unknown_workload(self):
        with pytest.raises(ParameterError, match="unknown grid workload"):
            reg.GridSpec(workloads=("nope",))

    def test_rejects_unknown_backend(self):
        with pytest.raises(ParameterError, match="unknown grid backend 'foo'"):
            reg.GridSpec(backends=("foo", "pim"))

    @pytest.mark.parametrize("bits", [64, 128])
    def test_rejects_unknown_security_level(self, bits):
        with pytest.raises(ParameterError, match="unknown grid security level"):
            reg.GridSpec(security_bits=(bits,))

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_rejects_bad_healthy_fraction(self, fraction):
        with pytest.raises(ParameterError, match="healthy fraction"):
            reg.GridSpec(healthy=(fraction,))

    def test_rejects_bad_max_batches(self):
        with pytest.raises(ParameterError, match="max_batches"):
            reg.GridSpec(max_batches=0)

    @pytest.mark.parametrize(
        "axis",
        [
            {"workloads": ("mean", "vec_add", "mean")},
            {"backends": ("pim", "pim")},
            {"security_bits": (109, 27, 109)},
            {"healthy": (0.9, 1.0, 0.9)},
        ],
        ids=["workloads", "backends", "security_bits", "healthy"],
    )
    def test_rejects_repeated_axis_values(self, axis):
        """A repeated value would price its cells twice."""
        (name,) = axis
        with pytest.raises(ParameterError, match=f"grid axis '{name}' repeats"):
            reg.GridSpec(**axis)


class TestPinnedCells:
    """Every cell's coordinates, status and modelled time, pinned by the
    sha256 the sqlite-backed grid's fully drained ``result_rows()`` gave
    for the same presets."""

    @pytest.mark.parametrize(
        ("preset", "count", "digest"),
        [
            (
                "paper",
                648,
                "1a43de58505939052ca28712c54e69f95ba2ac71a8b82e90cc270d0c7138320e",
            ),
            (
                "tiny",
                32,
                "5c80a35824082e7393854defdb57bec26aff95b56841ad62e6577581faa3be17",
            ),
        ],
        ids=["paper", "tiny"],
    )
    def test_rows_match_the_pin(self, preset, count, digest, tmp_path):
        spec = reg.PRESETS[preset]
        rows = reg.run_grid(spec)
        assert len(rows) == count
        assert pin(rows) == digest
        # the grid document carries the same rows back
        path = tmp_path / "grid.json"
        reg.GRIDS.write(reg.grid_document(spec, rows), path)
        assert pin(reg.read_grid(path)[1]) == digest


class TestDrain:
    def test_drain_completes_every_cell(self):
        spec = reg.GridSpec(**TINY)
        rows = reg.run_grid(spec)
        assert [
            {key: row[key] for key in cell} for row, cell in zip(rows, spec.cells())
        ] == list(spec.cells())
        assert all(
            row["status"] == reg.STATUS_DONE and row["modelled_ms"] > 0
            for row in rows
        )

    def test_drain_records_run_in_ledger(self, tmp_path):
        """The grid document: run identity, spec and every cell row,
        read back in grid order."""
        spec = reg.GridSpec(**TINY, seed=3)
        rows = reg.run_grid(spec)
        doc = reg.grid_document(spec, rows)
        path = tmp_path / "nested" / "grid.json"
        reg.GRIDS.write(doc, path)
        recorded = reg.GRIDS.read(path)
        assert recorded["kind"] == "grid"
        assert recorded["run_id"] == doc["run_id"]
        assert set(recorded["cells"]) == {reg.cell_label(c) for c in rows}
        assert reg.read_grid(path) == (spec, rows)

    def test_failure_recorded_as_failed_cell(self, tmp_path, monkeypatch, capsys):
        """``-k`` failures land in the grid with the failure record:
        type, fault class, and the one-line header."""
        from repro.errors import PermanentDeviceError

        real_run_cell = reg.run_cell

        def flaky(cell, seed=0):
            if cell["backend"] == "pim" and cell["healthy"] < 1.0:
                raise PermanentDeviceError("fleet gave out")
            return real_run_cell(cell, seed=seed)

        monkeypatch.setattr(reg, "run_cell", flaky)
        path = tmp_path / "grid.json"
        assert main(["grid", "run", "--preset", "tiny", "-k", "-o", str(path)]) == 1
        failed = [
            row
            for row in reg.read_grid(path)[1]
            if row["status"] == reg.STATUS_FAILED
        ]
        assert len(failed) == 4  # 2 workloads x 2 batches
        record = failed[0]
        assert record["modelled_ms"] is None
        assert record["error_type"] == "PermanentDeviceError"
        assert record["fault_class"] == "permanent"
        assert "[permanent] PermanentDeviceError" in record["failure_header"]
        assert record["failure_header"] in capsys.readouterr().err

    def test_without_keep_going_failure_propagates(self, tmp_path, monkeypatch):
        def broken(cell, seed=0):
            raise ValueError("boom")

        monkeypatch.setattr(reg, "run_cell", broken)
        path = tmp_path / "grid.json"
        with pytest.raises(ValueError):
            main(["grid", "run", "--preset", "tiny", "-o", str(path)])
        assert not path.exists()


class TestBaselineCrossCheck:
    def test_fault_free_cells_reproduce_baseline_bit_identically(self):
        """The acceptance gate: grid cells at 100% health, summed per
        backend in batch order, equal the committed perf.json series
        totals with float ``==`` — no tolerance."""
        cells = reg.run_grid(reg.GridSpec(**FIG2A))
        baseline = read_run("baselines/perf.json")
        totals = reg.experiment_totals(cells)
        expected = baseline["experiments"]["fig2a"]["modelled"][
            "series_totals"
        ]
        for series, value in expected.items():
            assert totals["fig2a"][series] == value
        verdicts = reg.check_against_baseline(cells, baseline)
        by_eid = {v.key: v for v in verdicts}
        assert by_eid["fig2a"].verdict == gate.VERDICT_OK
        assert gate.exit_code(verdicts) == 0

    def test_drift_detected_on_any_mismatch(self):
        cells = reg.run_grid(reg.GridSpec(**FIG2A))
        for cell in cells:
            if cell["backend"] == "pim" and cell["batch"] == 640:
                cell["modelled_ms"] *= 1.000001
        baseline = read_run("baselines/perf.json")
        verdicts = reg.check_against_baseline(cells, baseline)
        by_eid = {v.key: v for v in verdicts}
        assert by_eid["fig2a"].verdict == gate.MODEL_DRIFT
        assert gate.exit_code(verdicts) == 1

    def test_partial_while_cells_outstanding(self, monkeypatch):
        """Failed cells leave their backends' totals outstanding."""
        real_run_cell = reg.run_cell

        def flaky(cell, seed=0):
            if cell["batch"] == 640:
                raise RuntimeError("no device")
            return real_run_cell(cell, seed=seed)

        monkeypatch.setattr(reg, "run_cell", flaky)
        cells = reg.run_grid(reg.GridSpec(**FIG2A), keep_going=True)
        baseline = read_run("baselines/perf.json")
        verdicts = reg.check_against_baseline(cells, baseline)
        assert {v.verdict for v in verdicts} == {gate.VERDICT_PARTIAL}
        assert gate.exit_code(verdicts) == 0

    def test_unmapped_experiment_reports_new(self):
        """variance (fig2b) has no committed baseline entry: 'new'."""
        cells = reg.run_grid(
            reg.GridSpec(
                workloads=("variance",), security_bits=(109,), healthy=(1.0,)
            )
        )
        baseline = read_run("baselines/perf.json")
        verdicts = reg.check_against_baseline(cells, baseline)
        assert [v.verdict for v in verdicts] == [gate.VERDICT_NEW]

    def test_truncated_grid_skips_incomparable_groups(self):
        cells = reg.run_grid(reg.GridSpec(**TINY))  # max_batches=2
        baseline = read_run("baselines/perf.json")
        assert reg.check_against_baseline(cells, baseline) == []

    def test_no_baseline_no_verdicts(self):
        cells = reg.run_grid(reg.GridSpec(**TINY))
        assert reg.check_against_baseline(cells, None) == []

    def test_backend_subset_grid_checks_the_backends_it_drains(
        self, tmp_path, capsys
    ):
        """A pim-only grid is compared on pim alone: ``ok`` against the
        committed baseline, ``MODEL-DRIFT`` (exit 1) against one whose
        pim total moved — never ``partial`` for backends it does not
        enumerate."""
        grid = ["grid", "run", "--workloads", "vec_add", "--security",
                "109", "--healthy", "1.0", "--backends", "pim"]
        assert main(grid) == 0
        assert "[         ok] fig1a" in capsys.readouterr().out

        doctored = read_run("baselines/perf.json")
        doctored["experiments"]["fig1a"]["modelled"]["series_totals"][
            "pim"
        ] += 1.0
        path = tmp_path / "perf.json"
        path.write_text(json.dumps(doctored))
        assert main([*grid, "--baseline", str(path)]) == 1
        out = capsys.readouterr().out
        assert "MODEL-DRIFT] fig1a" in out
        assert "partial" not in out


@pytest.mark.parametrize("seed", [0, 1, 3, 7])
def test_degraded_grid_cells_sum_to_the_experiment(seed):
    """At every healthy fraction, fig1a's and fig2a's grid cells summed
    per backend equal the experiment runner's series totals under the
    same fault plan, with float ``==``, and the slowdown view divides
    exactly those pim totals — the grid is the degraded-fleet record."""
    eids = ("fig1a", "fig2a")
    fractions = (1.0, 0.9, 0.8)
    spec = reg.GridSpec(
        workloads=tuple(EXPERIMENT_CELLS[eid][0] for eid in eids),
        security_bits=(109,),
        healthy=fractions,
        seed=seed,
    )
    cells = reg.run_grid(spec)
    slowdowns = reg.pim_slowdowns(spec, cells)
    for eid in eids:
        for fraction, point in zip(fractions, slowdowns[eid], strict=True):
            plan = plan_for_healthy_fraction(fraction, seed, UPMEMConfig())
            with use_fault_plan(plan):
                expected = series_totals(run_experiment(eid))
            if fraction == 1.0:
                full = expected["pim"]
            assert reg.experiment_totals(cells, fraction)[eid] == expected
            assert point["pim_total"] == expected["pim"]
            assert point["slowdown"] == expected["pim"] / full


class TestPimSlowdowns:
    """The PIM slowdown-vs-health view over a degraded-fleet grid."""

    SPEC = reg.GridSpec(
        workloads=("vec_add",), security_bits=(109,),
        healthy=(0.8, 1.0, 0.9), seed=3,
    )

    @pytest.fixture(scope="class")
    def cells(self):
        return reg.run_grid(self.SPEC)

    def test_one_point_per_health_healthiest_first(self, cells):
        view = reg.pim_slowdowns(self.SPEC, cells)
        assert list(view) == ["fig1a"]
        points = view["fig1a"]
        assert [p["healthy"] for p in points] == [1.0, 0.9, 0.8]
        fleet = UPMEMConfig().n_dpus
        for point in points:
            plan = plan_for_healthy_fraction(point["healthy"], 3, UPMEMConfig())
            assert point["effective_dpus"] == plan.effective_dpus(UPMEMConfig())
            assert point["disabled_dpus"] == fleet - point["effective_dpus"]

    def test_slowdown_monotone_as_fleet_degrades(self, cells):
        slowdowns = [
            p["slowdown"] for p in reg.pim_slowdowns(self.SPEC, cells)["fig1a"]
        ]
        assert slowdowns[0] == 1.0
        assert slowdowns == sorted(slowdowns)
        assert slowdowns[-1] > 1.0

    def test_full_health_point_matches_fault_free_run(self, cells):
        """The 100% point is priced on the untouched path: equal to the
        experiment run with no plan."""
        point = reg.pim_slowdowns(self.SPEC, cells)["fig1a"][0]
        assert point["disabled_dpus"] == 0
        assert point["effective_dpus"] == UPMEMConfig().n_dpus
        fault_free = series_totals(run_experiment("fig1a"))
        assert reg.experiment_totals(cells)["fig1a"] == fault_free
        assert point["pim_total"] == fault_free["pim"]

    def test_full_health_point_matches_committed_baseline(self, cells):
        point = reg.pim_slowdowns(self.SPEC, cells)["fig1a"][0]
        committed = read_run("baselines/perf.json")["experiments"]["fig1a"][
            "modelled"
        ]["series_totals"]
        assert reg.experiment_totals(cells)["fig1a"] == committed
        assert point["pim_total"] == committed["pim"]

    def test_same_seed_is_bit_identical(self, cells):
        """Apart from its run identity, the document repeats exactly."""
        identity = ("run_id", "created_at", "git_sha")
        docs = [
            reg.grid_document(self.SPEC, rows)
            for rows in (cells, reg.run_grid(self.SPEC))
        ]
        for doc in docs:
            for key in identity:
                doc.pop(key)
        assert docs[0] == docs[1]

    def test_no_full_health_column_means_no_slowdown(self, cells):
        spec = dataclasses.replace(self.SPEC, healthy=(0.9, 0.8))
        degraded = [c for c in cells if c["healthy"] != 1.0]
        points = reg.pim_slowdowns(spec, degraded)["fig1a"]
        assert [p["slowdown"] for p in points] == [None, None]
        assert all(p["pim_total"] > 0 for p in points)

    def test_empty_without_the_pim_backend(self):
        spec = dataclasses.replace(self.SPEC, backends=("cpu",))
        assert reg.pim_slowdowns(spec, reg.run_grid(spec)) == {}


class TestRenderStatus:
    def test_status_text_covers_counts_failures_and_gate(self, monkeypatch):
        real_run_cell = reg.run_cell

        def flaky(cell, seed=0):
            if cell["backend"] == "gpu":
                raise RuntimeError("no device")
            return real_run_cell(cell, seed=seed)

        monkeypatch.setattr(reg, "run_cell", flaky)
        spec = reg.GridSpec(**FIG2A)
        cells = reg.run_grid(spec, keep_going=True)
        text = reg.render_status(
            spec, cells, read_run("baselines/perf.json")
        )
        assert "failed: 3" in text
        assert "RuntimeError: no device" in text
        assert "partial" in text  # gpu series incomplete
