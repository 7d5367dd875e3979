"""HTML dashboard: self-contained output, badges, sparklines, escaping."""

import pytest

from repro.harness.cli import main
from repro.obs import baseline as bl
from repro.obs import htmlreport


def make_exp(wall_median=0.01, pim_total=1.25, **overrides):
    doc = {
        "modelled": {
            "series_totals": {"pim": pim_total, "gpu": 2.5},
            "n_rows": 3,
            "unit": "ms",
        },
        "wall": {
            "repeats": 3,
            "median_s": wall_median,
            "min_s": wall_median,
            "max_s": wall_median,
            "mean_s": wall_median,
            "spread": 0.05,
        },
        "counters": {
            "kernel_launches": 4,
            "compute_bound": 1,
            "dma_bound": 3,
            "kernels": {},
            "backend_requests": {},
            "limb_ops": {},
        },
        "transfer": {"host_to_dpu_s": 0.0, "dpu_to_host_s": 0.0},
        "attribution": {
            "backend.pim.vec_add": {
                "count": 2,
                "wall_s": 0.001,
                "modelled_s": 0.5,
            }
        },
    }
    doc.update(overrides)
    return doc


def make_run(experiments: dict) -> dict:
    doc = {"schema": bl.SCHEMA_VERSION, "repeats": 3}
    doc.update(bl.run_identity())
    doc["experiments"] = experiments
    return doc


@pytest.fixture()
def history():
    return [
        make_run({"fig1a": make_exp(wall_median=0.010)}),
        make_run({"fig1a": make_exp(wall_median=0.012)}),
    ]


class TestRenderDashboard:
    def test_self_contained_html(self, history):
        html = htmlreport.render_dashboard(history, baseline=history[0])
        assert html.startswith("<!doctype html>")
        assert html.endswith("</body></html>")
        assert "<style>" in html
        assert "http" not in html.split("Perfetto")[0]  # no external refs

    def test_sparkline_badge_and_tables(self, history):
        html = htmlreport.render_dashboard(history, baseline=history[0])
        assert "<svg" in html and "polyline" in html
        assert "badge" in html
        assert ">ok<" in html  # verdict badge for the unchanged run
        assert "gate passes" in html
        assert "fig1a" in html
        assert "backend.pim.vec_add" in html  # attribution table

    def test_drift_shows_failing_gate_and_notes(self, history):
        drifted = make_run({"fig1a": make_exp(pim_total=9.99)})
        html = htmlreport.render_dashboard(
            history + [drifted], baseline=history[0]
        )
        assert "MODEL-DRIFT" in html
        assert "gate fails" in html
        assert "9.99" in html

    def test_single_run_needs_no_baseline(self, history):
        html = htmlreport.render_dashboard([history[0]])
        assert "fig1a" in html
        assert "need ≥2 runs" in html  # no trend from one point

    def test_empty_history_renders_a_hint(self):
        html = htmlreport.render_dashboard([])
        assert "repro perf record" in html

    def test_experiment_names_escaped(self):
        run = make_run({"<script>alert(1)</script>": make_exp()})
        html = htmlreport.render_dashboard([run])
        assert "<script>alert" not in html
        assert "&lt;script&gt;" in html


class TestWriteAndCLI:
    def test_write_dashboard_creates_parents(self, history, tmp_path):
        out = tmp_path / "sub" / "dash.html"
        htmlreport.write_dashboard(out, history, baseline=history[0])
        assert out.read_text().startswith("<!doctype html>")

    def test_cli_html_from_history(self, history, tmp_path, capsys):
        history_path = tmp_path / "history.jsonl"
        for doc in history:
            bl.LEDGER.append(doc, history_path)
        baseline_path = tmp_path / "perf.json"
        bl.LEDGER.write(history[0], baseline_path)
        out = tmp_path / "dash.html"
        status = main(
            [
                "perf",
                "html",
                "-o",
                str(out),
                "--history",
                str(history_path),
                "--baseline",
                str(baseline_path),
            ]
        )
        assert status == 0
        assert "wrote" in capsys.readouterr().out
        html = out.read_text()
        assert "<svg" in html and "fig1a" in html

    def test_cli_html_without_baseline_still_renders(
        self, history, tmp_path, capsys
    ):
        history_path = tmp_path / "history.jsonl"
        bl.LEDGER.append(history[0], history_path)
        status = main(
            [
                "perf",
                "html",
                "--history",
                str(history_path),
                "--baseline",
                str(tmp_path / "absent.json"),
            ]
        )
        assert status == 0
        assert "fig1a" in capsys.readouterr().out


class TestProfileReport:
    @pytest.fixture()
    def profile(self):
        from repro.obs.profile import kernel_from_spec, profile_kernel

        return profile_kernel(
            kernel_from_spec("vec_mul:128"),
            n_elements=64,
            tasklets=16,
            work_units=640,
        )

    def test_standalone_report_is_complete_html(self, profile):
        html = htmlreport.render_profile_report([profile])
        assert html.startswith("<!doctype html>")
        assert html.endswith("</html>")
        assert "pipeline-bound" in html
        assert "occbar" in html  # occupancy bars rendered
        assert "load balance" in html
        assert "queue-wait histogram" in html
        # One breakdown row per tasklet.
        assert html.count("<tr><td>t") == 16

    def test_empty_profile_list_says_so(self):
        html = htmlreport.render_profile_report([])
        assert "No PIM kernel launches" in html

    def test_labels_escaped(self, profile):
        from dataclasses import replace

        hostile = replace(profile, label="<script>alert(1)</script>")
        html = htmlreport.render_profile_report([hostile])
        assert "<script>alert(1)" not in html
        assert "&lt;script&gt;" in html

    def test_dashboard_grows_profile_section(self, history, profile):
        html = htmlreport.render_dashboard(history, profiles=[profile])
        assert "Pipeline profiles" in html
        assert "occbar" in html
        # Without profiles the section is absent.
        assert "Pipeline profiles" not in htmlreport.render_dashboard(history)


class TestGridDashboard:
    @pytest.fixture
    def drained(self, tmp_path):
        from repro.obs import registry as reg

        spec = reg.GridSpec(
            workloads=("vec_add",),
            security_bits=(109,),
            healthy=(1.0, 0.9),
            max_batches=2,
        )
        registry = reg.RunRegistry.create(tmp_path / "grid.db", spec)
        reg.drain(registry)
        return registry

    def test_renders_all_panels(self, drained):
        document = htmlreport.render_grid_dashboard(
            drained.cells(), drained.runs(), drained.spec
        )
        assert document.startswith("<!doctype html")
        assert "vec_add" in document  # status heatmap card
        assert "gridcell" in document  # per-backend status squares
        assert "Modelled-time trends" in document
        assert "Verdict history" in document
        assert "grid" in document  # ledger verdicts labelled by source

    def test_trends_appear_after_multiple_runs(self, drained):
        # a second ledger entry makes the pim series trendable
        run = dict(drained.runs()[0])
        run["run_id"] = "x" * 32
        run["created_at"] = "2099-01-01T00:00:00+00:00"
        drained.record_run(run)
        document = htmlreport.render_grid_dashboard(
            drained.cells(), drained.runs(), drained.spec
        )
        assert "<svg" in document  # at least one sparkline drawn

    def test_failed_cells_carry_headers_in_tooltips(
        self, drained
    ):
        drained._conn.execute(
            "UPDATE grid SET status = 'failed', "
            "failure_header = 'cell: [permanent] Boom: x < y' "
            "WHERE backend = 'gpu'"
        )
        document = htmlreport.render_grid_dashboard(
            drained.cells(), drained.runs(), drained.spec
        )
        assert "[permanent] Boom: x &lt; y" in document

    def test_baseline_and_histories_fold_in(self, drained):
        baseline = bl.read_run("baselines/perf.json")
        history = bl.LEDGER.history("baselines/history.jsonl")
        document = htmlreport.render_grid_dashboard(
            drained.cells(),
            drained.runs(),
            drained.spec,
            baseline=baseline,
            perf_history=history,
        )
        assert "Verdict history" in document
        if history:
            assert ">perf<" in document  # perf gate rows interleaved

    def test_write_helper(self, drained, tmp_path):
        out = tmp_path / "nested" / "dash.html"
        htmlreport.write_grid_dashboard(
            out, drained.cells(), drained.runs(), drained.spec
        )
        assert out.read_text().startswith("<!doctype html")
