"""Drift forensics: span alignment, attribution, and change points.

Alignment and ranking are tested on synthetic path tables (exact,
deterministic); CUSUM on synthetic series with seeded run metadata so
the expected shift SHAs are known; the end-to-end attribution contract
(perturbed constant -> named leaf span) on a real fig1a capture.
"""

import json

import pytest

from repro.errors import ParameterError
from repro.obs import baseline as bl
from repro.obs import export, forensics as fx
from repro.obs import gate


def node(name, depth=0, count=1, modelled=1.0, self_modelled=None,
         wall=0.0, self_wall=None):
    return {
        "name": name,
        "depth": depth,
        "count": count,
        "modelled_s": modelled,
        "wall_s": wall,
        "self_modelled_s": modelled if self_modelled is None else self_modelled,
        "self_wall_s": wall if self_wall is None else self_wall,
    }


class TestPathTree:
    def test_fig1a_tree_shape_and_self_invariants(self):
        doc = bl.capture_experiment("fig1a", repeats=1)
        tree = doc["paths"]
        roots = [p for p in tree if ";" not in p]
        assert roots == ["workload.VectorAddWorkload"]
        leaf = (
            "workload.VectorAddWorkload;backend.pim.vec_add;"
            "pim.time_kernel.vec_add"
        )
        assert leaf in tree
        for path, entry in tree.items():
            assert entry["self_modelled_s"] >= 0.0
            assert entry["self_wall_s"] >= 0.0
            assert entry["self_modelled_s"] <= entry["modelled_s"] + 1e-15
            assert entry["depth"] == path.count(";")
        # A leaf owns all of its inclusive time.
        assert tree[leaf]["self_modelled_s"] == tree[leaf]["modelled_s"]

    def test_modelled_projection_is_byte_deterministic(self):
        a = bl.capture_experiment("fig1a", repeats=1)
        b = bl.capture_experiment("fig1a", repeats=1)
        dump = lambda doc: json.dumps(  # noqa: E731
            fx.modelled_projection(doc["paths"]), sort_keys=True
        )
        assert dump(a) == dump(b)

    def test_parent_inclusive_covers_children(self):
        doc = bl.capture_experiment("fig1a", repeats=1)
        tree = doc["paths"]
        for path, entry in tree.items():
            children = [
                t for p, t in tree.items()
                if p.startswith(path + ";") and p.count(";") == entry["depth"] + 1
            ]
            total = sum(c["modelled_s"] for c in children)
            assert entry["modelled_s"] >= total - 1e-12

    def test_collapsed_round_trips_integer_nanoseconds(self):
        doc = bl.capture_experiment("fig1a", repeats=1)
        text = export.to_collapsed(doc["paths"])
        for line in text.splitlines():
            path, value = line.rsplit(" ", 1)
            assert int(value) > 0
            assert path in doc["paths"]

    def test_collapsed_rejects_noise_metrics(self):
        with pytest.raises(ParameterError):
            export.to_collapsed({}, metric="modelled_s")


class TestAttributionFallback:
    def test_flat_table_has_self_equal_inclusive(self):
        tree = fx.tree_from_attribution(
            {"backend.pim.vec_add": {"count": 2, "wall_s": 0.1,
                                     "modelled_s": 0.5}}
        )
        entry = tree["backend.pim.vec_add"]
        assert entry["depth"] == 0
        assert entry["self_modelled_s"] == entry["modelled_s"] == 0.5

    def test_either_side_without_paths_degrades_both(self):
        with_paths = {"paths": {"a": node("a")}, "attribution": {}}
        without = {"attribution": {"a": {"modelled_s": 1.0}}}
        _, _, mode = fx.comparable_trees(with_paths, without)
        assert mode == "name"
        _, _, mode = fx.comparable_trees(with_paths, with_paths)
        assert mode == "path"


class TestAlignment:
    def test_statuses_and_zero_fill(self):
        rows = fx.align_trees(
            {"a": node("a"), "a;b": node("b", depth=1)},
            {"a": node("a", modelled=2.0), "a;c": node("c", depth=1)},
        )
        by_path = {r["path"]: r for r in rows}
        assert by_path["a"]["status"] == "both"
        assert by_path["a;b"]["status"] == "only_a"
        assert by_path["a;b"]["modelled_b"] == 0.0
        assert by_path["a;c"]["status"] == "only_b"
        assert by_path["a;c"]["count_a"] == 0

    def test_rows_sorted_by_path(self):
        rows = fx.align_trees(
            {"b": node("b"), "a": node("a")}, {"c": node("c")}
        )
        assert [r["path"] for r in rows] == ["a", "b", "c"]

    def test_rank_by_self_surfaces_the_moved_leaf(self):
        # Parent inflates by inclusive time only; the leaf owns the delta.
        rows = fx.align_trees(
            {
                "p": node("p", modelled=1.0, self_modelled=0.0),
                "p;leaf": node("leaf", depth=1, modelled=1.0),
            },
            {
                "p": node("p", modelled=2.0, self_modelled=0.0),
                "p;leaf": node("leaf", depth=1, modelled=2.0),
            },
        )
        top = fx.rank_contributors(rows, by="self")[0]
        assert top["path"] == "p;leaf"
        top = fx.rank_contributors(rows, by="total")[0]
        assert top["path"] == "p"  # inclusive ties broken by path

    def test_rank_validates_inputs(self):
        with pytest.raises(ParameterError):
            fx.rank_contributors([], top_k=0)
        with pytest.raises(ParameterError):
            fx.rank_contributors([], by="vibes")

    def test_diff_collapsed_emits_both_columns(self):
        rows = fx.align_trees(
            {"a": node("a", modelled=1e-9)}, {"a": node("a", modelled=3e-9)}
        )
        assert fx.to_diff_collapsed(rows) == "a 1 3\n"


def series(values, shas):
    return [
        (v, {"run_id": f"r{i}", "git_sha": sha, "created_at": f"t{i}"})
        for i, (v, sha) in enumerate(zip(values, shas))
    ]


class TestChangePoints:
    def shas(self, n):
        return [f"sha{i:04d}" for i in range(n)]

    def test_flat_series_has_no_change_points(self):
        assert fx.cusum_changepoints([5.0] * 8) == []

    def test_single_step_is_flagged_at_its_first_run(self):
        values = [5.0] * 4 + [8.0] * 4
        assert fx.cusum_changepoints(values) == [4]
        shifts = fx.detect_shifts(series(values, self.shas(8)))
        assert [s["git_sha"] for s in shifts] == ["sha0004"]
        assert shifts[0]["before_mean"] == pytest.approx(5.0)
        assert shifts[0]["after_mean"] == pytest.approx(8.0)

    def test_two_steps_yield_two_shift_shas(self):
        values = [5.0] * 4 + [8.0] * 4 + [2.0] * 4
        shifts = fx.detect_shifts(series(values, self.shas(12)))
        assert [s["index"] for s in shifts] == [4, 8]
        assert [s["git_sha"] for s in shifts] == ["sha0004", "sha0008"]

    def test_ramp_first_fires_at_the_ramp_start(self):
        values = [5.0] * 4 + [6.0, 7.0, 8.0, 9.0]
        cuts = fx.cusum_changepoints(values)
        assert cuts[0] == 4  # the excursion start, not the decision point

    def test_tiny_wobble_within_allowance_is_ignored(self):
        values = [5.0, 5.001, 4.999, 5.0, 5.001, 5.0]
        assert fx.cusum_changepoints(values) == []

    def test_scan_drops_shift_free_series(self):
        named = {
            "flat": series([5.0] * 8, self.shas(8)),
            "step": series([5.0] * 4 + [8.0] * 4, self.shas(8)),
        }
        found = fx.scan_shifts(named)
        assert set(found) == {"step"}

    def test_render_names_series_and_sha(self):
        named = {"step": series([5.0] * 4 + [8.0] * 4, self.shas(8))}
        text = fx.render_shifts(fx.scan_shifts(named))
        assert "step: shift at index 4" in text
        assert "sha0004" in text


class TestSeriesExtraction:
    def test_perf_series_filters_by_experiment(self):
        history = [
            {
                "run_id": "r1",
                "git_sha": "s1",
                "created_at": "t1",
                "experiments": {
                    "fig1a": {"modelled": {"series_totals": {"pim": 1.0}}},
                    "fig2": {"modelled": {"series_totals": {"pim": 9.0}}},
                },
            }
        ]
        named = fx.perf_series(history, experiment_id="fig1a")
        assert set(named) == {"perf.fig1a.pim"}
        assert named["perf.fig1a.pim"][0][0] == 1.0
        assert named["perf.fig1a.pim"][0][1]["git_sha"] == "s1"

    def test_registry_series_reads_rollups(self):
        runs = [
            {
                "run_id": "r1",
                "git_sha": "s1",
                "created_at": "t1",
                "rollups": {
                    "experiments": {"fig1a": {"pim": 128.0, "cpu": 16000.0}}
                },
            }
        ]
        named = fx.registry_series(runs)
        assert named["grid.fig1a.pim_ms"] == [
            (128.0, {"run_id": "r1", "git_sha": "s1", "created_at": "t1"})
        ]


class TestWhyReport:
    def test_unmodified_tree_reports_zero_drift(self):
        baseline = bl.capture_experiment("fig1a", repeats=1)
        run = {"run_id": "base", "experiments": {"fig1a": baseline}}
        report = fx.why_report("fig1a", run)
        assert report["families"]["spans"]["verdict"] == gate.VERDICT_OK
        assert report["families"]["spans"]["mode"] == "path"
        assert report["families"]["model"]["verdict"] == gate.VERDICT_OK
        assert fx.why_exit_code(report) == 0
        assert "no drift" in fx.render_why(report)

    def test_unknown_experiment_raises(self):
        with pytest.raises(ParameterError):
            fx.why_report("fig1a", {"experiments": {}})

    def test_perturbed_baseline_names_the_leaf_span(self):
        # Simulate a historical capture whose vec_add kernel was cheaper:
        # every ancestor inflates by the same inclusive delta, but only
        # the leaf carries it as self time.
        baseline = bl.capture_experiment("fig1a", repeats=1)
        doc = json.loads(json.dumps(baseline))
        leaf = (
            "workload.VectorAddWorkload;backend.pim.vec_add;"
            "pim.time_kernel.vec_add"
        )
        delta = 0.25
        for path in doc["paths"]:
            if leaf.startswith(path) or path == leaf:
                doc["paths"][path]["modelled_s"] -= delta
        doc["paths"][leaf]["self_modelled_s"] -= delta
        run = {"run_id": "base", "experiments": {"fig1a": doc}}
        report = fx.why_report("fig1a", run)
        spans = report["families"]["spans"]
        assert spans["verdict"] == gate.MODEL_DRIFT
        top = spans["contributors"][0]
        assert top["path"] == leaf
        assert top["self_modelled_b"] - top["self_modelled_a"] == (
            pytest.approx(delta)
        )
        assert fx.why_exit_code(report) == 1

    def test_shifts_ride_along_from_history(self):
        baseline = bl.capture_experiment("fig1a", repeats=1)
        run = {"run_id": "base", "experiments": {"fig1a": baseline}}
        totals = baseline["modelled"]["series_totals"]
        history = []
        for i in range(8):
            scale = 1.0 if i < 4 else 2.0
            history.append(
                {
                    "run_id": f"r{i}",
                    "git_sha": f"sha{i:04d}",
                    "created_at": f"t{i}",
                    "experiments": {
                        "fig1a": {
                            "modelled": {
                                "series_totals": {
                                    k: v * scale for k, v in totals.items()
                                }
                            }
                        }
                    },
                }
            )
        report = fx.why_report("fig1a", run, history=history)
        assert report["shifts"]
        assert all(
            shift["git_sha"] == "sha0004"
            for found in report["shifts"].values()
            for shift in found
        )
        assert "sha0004" in fx.render_why(report)


class TestDiffReport:
    def test_shared_experiments_only(self):
        exp = bl.capture_experiment("fig1a", repeats=1)
        run_a = {"run_id": "a", "experiments": {"fig1a": exp, "x": exp}}
        run_b = {"run_id": "b", "experiments": {"fig1a": exp, "y": exp}}
        report = fx.diff_report(run_a, run_b)
        assert set(report["experiments"]) == {"fig1a"}
        spans = report["experiments"]["fig1a"]["spans"]
        assert spans["verdict"] == gate.VERDICT_OK
