"""Regression policies: exact modelled times, noise-aware wall times.

The modelled-time paths never depend on wall-clock behaviour: drift is
provoked by perturbing a kernel cost constant and detected purely from
the deterministic model outputs (``--skip-wall`` where the CLI is
involved). Wall-policy edges are tested on synthetic stats documents.
"""

import pytest

from repro.harness.cli import main
from repro.obs import baseline as bl
from repro.obs import gate
from repro.obs import perf
from repro.obs.gate import MODEL_DRIFT as VERDICT_DRIFT
from repro.obs.gate import (
    VERDICT_FASTER,
    VERDICT_NEW,
    VERDICT_OK,
    VERDICT_REGRESSION,
)


def wall(median_s: float, spread: float = 0.0) -> dict:
    return {
        "repeats": 3,
        "median_s": median_s,
        "min_s": median_s,
        "max_s": median_s,
        "mean_s": median_s,
        "spread": spread,
    }


class TestWallPolicy:
    def test_within_band_is_ok(self):
        verdict, ratio = perf.classify_wall(wall(1.0), wall(1.2))
        assert verdict == VERDICT_OK
        assert ratio == pytest.approx(1.2)

    def test_beyond_min_threshold_regresses(self):
        verdict, _ = perf.classify_wall(wall(1.0), wall(1.3))
        assert verdict == VERDICT_REGRESSION

    def test_noisy_baseline_widens_the_band(self):
        # spread 0.2 -> threshold = 3 * 0.2 = 0.6: x1.3 is now in band.
        verdict, _ = perf.classify_wall(wall(1.0, spread=0.2), wall(1.3))
        assert verdict == VERDICT_OK
        verdict, _ = perf.classify_wall(wall(1.0, spread=0.2), wall(1.7))
        assert verdict == VERDICT_REGRESSION

    def test_faster_is_named_not_failed(self):
        verdict, _ = perf.classify_wall(wall(1.0), wall(0.5))
        assert verdict == VERDICT_FASTER
        assert not gate.Verdict("x", verdict).failed

    def test_zero_baseline_median_is_ok(self):
        verdict, ratio = perf.classify_wall(wall(0.0), wall(1.0))
        assert verdict == VERDICT_OK
        assert ratio is None


class TestModelledPolicy:
    def exp(self, **overrides):
        doc = {
            "modelled": {
                "series_totals": {"pim": 1.25, "gpu": 2.5},
                "n_rows": 3,
                "unit": "ms",
            },
            "wall": wall(0.01),
            "counters": {
                "kernel_launches": 4,
                "compute_bound": 1,
                "dma_bound": 3,
                "kernels": {"vec_add": 4},
                "backend_requests": {"pim": 4},
                "limb_ops": {"add": 128},
            },
            "transfer": {"host_to_dpu_s": 0.0, "dpu_to_host_s": 0.0},
            "attribution": {},
        }
        doc.update(overrides)
        return doc

    def test_identical_experiments_have_no_drift(self):
        assert perf.modelled_drift(self.exp(), self.exp()) == []

    def test_any_series_change_is_drift_even_tiny(self):
        changed = self.exp()
        changed["modelled"] = {
            "series_totals": {"pim": 1.25 + 1e-12, "gpu": 2.5},
            "n_rows": 3,
            "unit": "ms",
        }
        notes = perf.modelled_drift(self.exp(), changed)
        assert len(notes) == 1
        assert "pim" in notes[0]

    def test_counter_and_transfer_changes_are_drift(self):
        changed = self.exp(
            counters={
                "kernel_launches": 5,
                "compute_bound": 1,
                "dma_bound": 3,
                "kernels": {"vec_add": 4},
                "backend_requests": {"pim": 4},
                "limb_ops": {"add": 128},
            }
        )
        assert any(
            "kernel_launches" in n
            for n in perf.modelled_drift(self.exp(), changed)
        )
        changed = self.exp(
            transfer={"host_to_dpu_s": 0.5, "dpu_to_host_s": 0.0}
        )
        assert any(
            "host_to_dpu_s" in n
            for n in perf.modelled_drift(self.exp(), changed)
        )


def make_run(experiments: dict) -> dict:
    doc = {"schema": bl.SCHEMA_VERSION, "repeats": 3}
    doc.update(bl.run_identity())
    doc["experiments"] = experiments
    return doc


class TestCheckRuns:
    def test_drift_dominates_wall(self):
        base = TestModelledPolicy().exp()
        cur = TestModelledPolicy().exp(
            transfer={"host_to_dpu_s": 1.0, "dpu_to_host_s": 0.0},
            wall=wall(100.0),
        )
        (verdict,) = perf.check_runs(
            make_run({"e": base}), make_run({"e": cur})
        )
        assert verdict.verdict == VERDICT_DRIFT
        assert verdict.failed

    def test_new_experiment_flagged_not_failed(self):
        cur = TestModelledPolicy().exp()
        (verdict,) = perf.check_runs(
            make_run({}), make_run({"e": cur})
        )
        assert verdict.verdict == VERDICT_NEW
        assert not verdict.failed

    def test_skip_wall_ignores_wall_regressions(self):
        base = TestModelledPolicy().exp()
        cur = TestModelledPolicy().exp(wall=wall(100.0))
        (verdict,) = perf.check_runs(
            make_run({"e": base}), make_run({"e": cur}), skip_wall=True
        )
        assert verdict.verdict == VERDICT_OK

    def test_exit_code(self):
        ok = gate.Verdict("a", VERDICT_OK)
        drift = gate.Verdict("b", VERDICT_DRIFT)
        regression = gate.Verdict("c", VERDICT_REGRESSION)
        assert gate.exit_code([ok]) == 0
        assert gate.exit_code([ok, drift]) == 1
        assert gate.exit_code([ok, regression]) == 1

    def test_render_mentions_rebaseline_on_drift(self):
        base = TestModelledPolicy().exp()
        cur = TestModelledPolicy().exp(
            transfer={"host_to_dpu_s": 1.0, "dpu_to_host_s": 0.0}
        )
        baseline, current = make_run({"e": base}), make_run({"e": cur})
        verdicts = perf.check_runs(baseline, current)
        text = perf.GATE.render_check(verdicts, baseline, current)
        assert "MODEL-DRIFT" in text
        assert "--update" in text


class TestEndToEndCLI:
    """The acceptance flow: record, check (ok), perturb, check (drift)."""

    @pytest.fixture()
    def recorded(self, tmp_path):
        baseline = tmp_path / "perf.json"
        history = tmp_path / "history.jsonl"
        args = ["--baseline", str(baseline), "--history", str(history)]
        status = main(
            ["perf", "record", "abl_karatsuba", "abl_ntt", "--repeats", "1"]
            + args
        )
        assert status == 0
        return args

    def test_unchanged_tree_checks_clean(self, recorded, capsys):
        status = main(
            ["perf", "check", "--skip-wall", "--repeats", "1"] + recorded
        )
        out = capsys.readouterr().out
        assert status == 0
        assert out.count("[         ok]") == 2
        assert "0 MODEL-DRIFT" in out

    def test_perturbed_cost_constant_is_model_drift(
        self, recorded, monkeypatch, capsys
    ):
        from repro.pim.isa import DEFAULT_CYCLES_PER_OP

        monkeypatch.setitem(DEFAULT_CYCLES_PER_OP, "add", 2.0)
        status = main(
            ["perf", "check", "--skip-wall", "--repeats", "1"] + recorded
        )
        out = capsys.readouterr().out
        assert status == 1
        assert "[MODEL-DRIFT] abl_karatsuba" in out
        assert "karatsuba cycles" in out  # the drifted series is named
        assert "[         ok] abl_ntt" in out  # unaffected experiment

    def test_update_rebaselines_deliberately(
        self, recorded, monkeypatch, capsys
    ):
        from repro.pim.isa import DEFAULT_CYCLES_PER_OP

        monkeypatch.setitem(DEFAULT_CYCLES_PER_OP, "add", 2.0)
        status = main(
            ["perf", "check", "--skip-wall", "--repeats", "1", "--update"]
            + recorded
        )
        assert status == 0
        capsys.readouterr()
        # After adopting the new baseline the same tree checks clean.
        status = main(
            ["perf", "check", "--skip-wall", "--repeats", "1"] + recorded
        )
        assert status == 0
        assert "0 MODEL-DRIFT" in capsys.readouterr().out

    def test_check_without_baseline_fails_helpfully(self, tmp_path, capsys):
        from repro.harness.cli import EXIT_DATA

        status = main(
            [
                "perf",
                "check",
                "--baseline",
                str(tmp_path / "none.json"),
                "--history",
                str(tmp_path / "h.jsonl"),
            ]
        )
        assert status == EXIT_DATA  # "no data yet", not a tripped gate
        assert "repro perf record" in capsys.readouterr().err


class TestDiff:
    def run_with_attribution(self, modelled: float) -> dict:
        exp = TestModelledPolicy().exp(
            attribution={
                "backend.pim.vec_add": {
                    "count": 2,
                    "wall_s": 0.001,
                    "modelled_s": modelled,
                },
                "workload.Vec": {
                    "count": 1,
                    "wall_s": 0.002,
                    "modelled_s": modelled * 2,
                },
            }
        )
        return make_run({"fig1a": exp})

    def test_rows_sorted_by_modelled_delta(self):
        diffs = perf.diff_runs(
            self.run_with_attribution(1.0), self.run_with_attribution(1.5)
        )
        names = [row[0] for row in diffs["fig1a"]]
        assert names == ["workload.Vec", "backend.pim.vec_add"]

    def test_top_k_limits_rows(self):
        diffs = perf.diff_runs(
            self.run_with_attribution(1.0),
            self.run_with_attribution(2.0),
            top_k=1,
        )
        assert len(diffs["fig1a"]) == 1

    def test_span_present_in_only_one_run(self):
        run_a = self.run_with_attribution(1.0)
        run_b = self.run_with_attribution(1.0)
        del run_b["experiments"]["fig1a"]["attribution"]["workload.Vec"]
        rows = perf.diff_runs(run_a, run_b)["fig1a"]
        vanished = next(r for r in rows if r[0] == "workload.Vec")
        assert vanished[1] == 2.0 and vanished[2] == 0.0

    def test_render_contains_deltas(self):
        text = perf.render_diff(
            self.run_with_attribution(1.0), self.run_with_attribution(1.5)
        )
        assert "Δ modelled" in text
        assert "+1000.000" in text  # workload.Vec: 2.0 -> 3.0 s in ms

    def test_cli_diff_resolves_history_prefixes(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        run_a = self.run_with_attribution(1.0)
        run_b = self.run_with_attribution(2.0)
        bl.LEDGER.append(run_a, history)
        bl.LEDGER.append(run_b, history)
        status = main(
            [
                "perf",
                "diff",
                run_a["run_id"][:10],
                run_b["run_id"][:10],
                "--history",
                str(history),
                "--baseline",
                str(tmp_path / "unused.json"),
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "== fig1a ==" in out
        assert "backend.pim.vec_add" in out

    def test_top_k_must_be_positive(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            perf.diff_runs(
                self.run_with_attribution(1.0),
                self.run_with_attribution(1.0),
                top_k=0,
            )
