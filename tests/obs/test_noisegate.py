"""The noise-calibration gate: capture, persistence, drift verdicts."""

from __future__ import annotations

import copy
import json

import pytest

from repro.errors import ParameterError
from repro.obs import gate
from repro.obs import noisegate as ng
from tests.conftest import make_tiny_params


def tiny_params_for(bits: int):
    """Tiny stand-in rings keyed by the paper level bits."""
    return make_tiny_params(degree=64 if bits < 100 else 128)


@pytest.fixture(scope="module")
def tiny_run():
    return ng.capture_noise_run(
        levels=[27, 54], seed=7, params_for=tiny_params_for
    )


class TestCapture:
    def test_document_shape(self, tiny_run):
        assert tiny_run["schema"] == ng.SCHEMA_VERSION
        assert set(tiny_run["levels"]) == {"27", "54"}
        for level in tiny_run["levels"].values():
            assert set(level["workloads"]) == set(ng.WORKLOAD_SHAPES)
            for shape in level["workloads"].values():
                trajectory = shape["trajectory"]
                assert trajectory[0]["op"] == "encrypt"
                for step in trajectory:
                    assert {
                        "op",
                        "pred_bits",
                        "meas_bits",
                        "depth",
                        "key_switches",
                    } <= set(step)

    def test_run_identity_recorded(self, tiny_run):
        """Captures carry the same identity keys as perf baselines."""
        assert len(tiny_run["run_id"]) == 32
        assert "T" in tiny_run["created_at"]
        assert "git_sha" in tiny_run
        assert tiny_run["seed"] == 7

    def test_capture_is_deterministic(self, tiny_run):
        again = ng.capture_noise_run(
            levels=[27, 54], seed=7, params_for=tiny_params_for
        )
        for bits, level in tiny_run["levels"].items():
            for name, shape in level["workloads"].items():
                assert (
                    again["levels"][bits]["workloads"][name]["trajectory"]
                    == shape["trajectory"]
                )

    def test_predictions_conservative_in_capture(self, tiny_run):
        for level in tiny_run["levels"].values():
            for shape in level["workloads"].values():
                for step in shape["trajectory"]:
                    assert (
                        step["pred_bits"]
                        <= step["meas_bits"] + ng.CONSERVATISM_MARGIN_BITS
                    )

    def test_unknown_workload_rejected(self):
        with pytest.raises(ParameterError, match="unknown workload shape"):
            ng.capture_noise_run(
                levels=[27],
                params_for=tiny_params_for,
                workloads=("bogus",),
            )


class TestPersistence:
    def test_roundtrip(self, tiny_run, tmp_path):
        path = tmp_path / "noise.json"
        ng.LEDGER.write(tiny_run, path)
        assert ng.read_noise_run(path) == json.loads(path.read_text())

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(ParameterError, match="repro noise record"):
            ng.read_noise_run(tmp_path / "absent.json")

    def test_unknown_schema_refused(self, tiny_run, tmp_path):
        doc = dict(tiny_run, schema=99)
        path = tmp_path / "future.json"
        ng.LEDGER.write(doc, path)
        with pytest.raises(ParameterError, match="unsupported noise schema"):
            ng.read_noise_run(path)

    def test_history_appends(self, tiny_run, tmp_path):
        path = tmp_path / "history.jsonl"
        assert ng.LEDGER.history(path) == []
        ng.LEDGER.append(tiny_run, path)
        ng.LEDGER.append(tiny_run, path)
        assert len(ng.LEDGER.history(path)) == 2


class TestGate:
    def test_identical_runs_pass(self, tiny_run):
        verdicts = ng.check_noise_runs(tiny_run, copy.deepcopy(tiny_run))
        assert all(v.verdict == gate.VERDICT_OK for v in verdicts)
        assert gate.exit_code(verdicts) == 0

    def test_prediction_shift_is_drift(self, tiny_run):
        current = copy.deepcopy(tiny_run)
        step = current["levels"]["27"]["workloads"]["mean"]["trajectory"][1]
        step["pred_bits"] -= 0.5  # growth model changed
        verdicts = ng.check_noise_runs(tiny_run, current)
        drifted = {v.key: v for v in verdicts}["27b/mean"]
        assert drifted.verdict == gate.NOISE_DRIFT
        assert any("growth model changed" in note for note in drifted.notes)
        assert gate.exit_code(verdicts) == 1

    def test_measurement_shift_is_drift(self, tiny_run):
        current = copy.deepcopy(tiny_run)
        step = current["levels"]["54"]["workloads"]["linreg"]["trajectory"][1]
        step["meas_bits"] += 2 * ng.MEAS_TOLERANCE_BITS
        verdicts = ng.check_noise_runs(tiny_run, current)
        drifted = {v.key: v for v in verdicts}["54b/linreg"]
        assert drifted.verdict == gate.NOISE_DRIFT
        assert any("evaluator or" in note for note in drifted.notes)

    def test_op_sequence_change_is_drift(self, tiny_run):
        current = copy.deepcopy(tiny_run)
        trajectory = current["levels"]["27"]["workloads"]["variance"][
            "trajectory"
        ]
        trajectory[1]["op"] = "multiply"
        verdicts = ng.check_noise_runs(tiny_run, current)
        drifted = {v.key: v for v in verdicts}["27b/variance"]
        assert drifted.verdict == gate.NOISE_DRIFT
        assert any("op sequence changed" in note for note in drifted.notes)

    def test_overpromising_prediction_is_drift(self, tiny_run):
        """A prediction above its own measurement fails the gate even
        when it matches the baseline exactly."""
        baseline = copy.deepcopy(tiny_run)
        current = copy.deepcopy(tiny_run)
        for doc in (baseline, current):
            step = doc["levels"]["27"]["workloads"]["mean"]["trajectory"][0]
            step["pred_bits"] = (
                step["meas_bits"] + ng.CONSERVATISM_MARGIN_BITS + 1.0
            )
        verdicts = ng.check_noise_runs(baseline, current)
        drifted = {v.key: v for v in verdicts}["27b/mean"]
        assert drifted.verdict == gate.NOISE_DRIFT
        assert any("no longer conservative" in note for note in drifted.notes)

    def test_new_trajectory_not_a_failure(self, tiny_run):
        baseline = copy.deepcopy(tiny_run)
        del baseline["levels"]["54"]
        verdicts = ng.check_noise_runs(baseline, tiny_run)
        news = [v for v in verdicts if v.verdict == gate.VERDICT_NEW]
        assert {v.key for v in news} == {
            "54b/mean",
            "54b/variance",
            "54b/linreg",
        }
        assert gate.exit_code(verdicts) == 0

    def test_render_mentions_identities_and_summary(self, tiny_run):
        verdicts = ng.check_noise_runs(tiny_run, copy.deepcopy(tiny_run))
        text = ng.GATE.render_check(verdicts, tiny_run, tiny_run)
        assert tiny_run["run_id"][:12] in text
        assert "6 ok, 0 new, 0 NOISE-DRIFT of 6 trajectories" in text


class TestHtmlReport:
    def test_report_renders_cards_and_badges(self, tiny_run):
        from repro.obs.htmlreport import render_noise_report

        verdicts = ng.check_noise_runs(tiny_run, tiny_run)
        html = render_noise_report(tiny_run, baseline=tiny_run, verdicts=verdicts)
        assert "<svg" in html
        assert "27-bit level · mean" in html
        assert "gate passes" in html
        assert tiny_run["run_id"][:12] in html

    def test_report_without_baseline_has_no_badges(self, tiny_run):
        from repro.obs.htmlreport import render_noise_report

        html = render_noise_report(tiny_run)
        assert "gate passes" not in html and "gate fails" not in html
