"""Chaos harness: degraded-fleet sweeps, determinism, CLI contract."""

import json

import pytest

from repro.errors import ParameterError
from repro.harness import chaos
from repro.harness.cli import EXIT_DATA, main
from repro.harness.runner import run_experiment
from repro.obs.baseline import series_totals
from repro.pim.config import UPMEMConfig
from repro.pim.faults import plan_for_healthy_fraction

CFG = UPMEMConfig()

#: One small sweep most tests share: one experiment, three grid points.
SWEEP_ARGS = dict(ids=["fig1a"], grid=[1.0, 0.9, 0.8], seed=3)

#: Identity fields legitimately differing between two identical sweeps.
IDENTITY_KEYS = ("run_id", "created_at", "git_sha")


def strip_identity(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k not in IDENTITY_KEYS}


@pytest.fixture(scope="module")
def sweep():
    return chaos.sweep_degraded_fleet(**SWEEP_ARGS)


class TestPlanForHealthyFraction:
    def test_full_health_is_inactive(self):
        plan = plan_for_healthy_fraction(1.0, seed=0, config=CFG)
        assert not plan.active
        assert plan.effective_dpus(CFG) == CFG.n_dpus

    def test_fraction_maps_to_disable_count(self):
        plan = plan_for_healthy_fraction(0.9, seed=0, config=CFG)
        assert plan.disable_dpus == round(CFG.n_dpus * 0.1)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.1])
    def test_rejects_bad_fractions(self, fraction):
        with pytest.raises(ParameterError):
            plan_for_healthy_fraction(fraction, seed=0, config=CFG)


class TestSweepDocument:
    def test_shape_and_ordering(self, sweep):
        assert sweep["schema"] == chaos.SCHEMA_VERSION
        assert sweep["seed"] == 3
        assert sweep["grid"] == [1.0, 0.9, 0.8]  # healthiest first
        points = sweep["experiments"]["fig1a"]["points"]
        assert [p["healthy"] for p in points] == [1.0, 0.9, 0.8]
        for key in IDENTITY_KEYS:
            assert key in sweep

    def test_slowdown_monotone_as_fleet_degrades(self, sweep):
        slowdowns = [
            p["slowdown"] for p in sweep["experiments"]["fig1a"]["points"]
        ]
        assert slowdowns[0] == pytest.approx(1.0)
        assert slowdowns == sorted(slowdowns)
        assert slowdowns[-1] > 1.0

    def test_same_seed_is_bit_identical(self, sweep):
        again = chaos.sweep_degraded_fleet(**SWEEP_ARGS)
        assert strip_identity(again) == strip_identity(sweep)

    def test_full_health_point_matches_fault_free_run(self, sweep):
        """The 100%-healthy cell comes from the untouched pricing path:
        identical to running the experiment with no plan at all."""
        totals = series_totals(run_experiment("fig1a"))
        point = sweep["experiments"]["fig1a"]["points"][0]
        assert point["series_totals"] == totals
        assert point["disabled_dpus"] == 0
        assert point["effective_dpus"] == CFG.n_dpus

    def test_full_health_point_matches_committed_baseline(self, sweep):
        """MODEL-DRIFT extended to the chaos harness: the sweep's
        healthy point equals the committed perf baseline exactly."""
        committed = json.loads(
            open("baselines/perf.json").read()
        )["experiments"]["fig1a"]["modelled"]["series_totals"]
        point = sweep["experiments"]["fig1a"]["points"][0]
        assert point["series_totals"] == committed


class TestSweepPersistence:
    def test_round_trip(self, sweep, tmp_path):
        path = tmp_path / "sweep.json"
        chaos.SWEEPS.write(sweep, path)
        assert chaos.SWEEPS.read(path) == sweep

    def test_missing_file_names_the_remedy(self, tmp_path):
        with pytest.raises(ParameterError, match="repro faults sweep"):
            chaos.SWEEPS.read(tmp_path / "absent.json")

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 99, "experiments": {}}))
        with pytest.raises(ParameterError, match="schema"):
            chaos.SWEEPS.read(path)

    def test_text_rendering(self, sweep):
        text = chaos.render_sweep_text(sweep)
        assert "fig1a" in text
        assert "100.0%" in text
        assert "1.0000x" in text


class TestFaultsReportHTML:
    def test_renders_curve_and_table(self, sweep):
        from repro.obs.htmlreport import render_faults_report

        html = render_faults_report(sweep)
        assert "fig1a" in html
        assert "polyline" in html  # the availability-vs-slowdown curve
        assert "effective" in html
        assert "worst slowdown" in html

    def test_write_creates_parents(self, sweep, tmp_path, capsys):
        recorded = tmp_path / "sweep.json"
        chaos.SWEEPS.write(sweep, recorded)
        path = tmp_path / "nested" / "card.html"
        assert main(["faults", "html", "--sweep", str(recorded), "-o", str(path)]) == 0
        assert path.read_text().startswith("<!doctype html>")


class TestFaultsCLI:
    def test_run_prints_telemetry(self, capsys):
        status = main(
            [
                "faults",
                "run",
                "fig1a",
                "--seed",
                "3",
                "--disable-dpus",
                "36",
            ]
        )
        assert status == 0
        err = capsys.readouterr().err
        assert "fault plan: seed 3" in err
        assert "pim.effective_dpus" in err

    def test_run_is_seeded_and_reproducible(self, capsys):
        argv = ["faults", "run", "fig1a", "--seed", "7", "--disable-dpus", "100"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert first.err == second.err

    def test_sweep_writes_json_and_html(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        html = tmp_path / "sweep.html"
        status = main(
            [
                "faults",
                "sweep",
                "fig1a",
                "--healthy",
                "1.0",
                "--healthy",
                "0.9",
                "--seed",
                "3",
                "-o",
                str(out),
                "--html",
                str(html),
            ]
        )
        assert status == 0
        assert "degraded-fleet sweep" in capsys.readouterr().out
        doc = chaos.SWEEPS.read(out)
        assert [p["healthy"] for p in doc["experiments"]["fig1a"]["points"]] == [
            1.0,
            0.9,
        ]
        assert "polyline" in html.read_text()

    def test_html_from_recorded_sweep(self, tmp_path, capsys):
        sweep_path = tmp_path / "sweep.json"
        chaos.SWEEPS.write(
            chaos.sweep_degraded_fleet(ids=["fig1a"], grid=[1.0, 0.9]),
            sweep_path,
        )
        card = tmp_path / "card.html"
        status = main(
            ["faults", "html", "--sweep", str(sweep_path), "-o", str(card)]
        )
        assert status == 0
        assert "fig1a" in card.read_text()


class TestFaultsMissingDataExits:
    def test_html_without_sweep_exits_data(self, tmp_path, capsys):
        """Locked alongside the perf/noise conventions: missing input
        data is EXIT_DATA (2), never a stack trace or a bare 1."""
        status = main(
            ["faults", "html", "--sweep", str(tmp_path / "none.json")]
        )
        assert status == EXIT_DATA
        err = capsys.readouterr().err
        assert "no faults sweep" in err
        assert "repro faults sweep" in err

    def test_exit_data_distinct_from_failure(self):
        assert EXIT_DATA == 2
