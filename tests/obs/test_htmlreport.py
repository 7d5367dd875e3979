"""HTML pages: self-contained output, verdict rows, charts, escaping."""

import copy
import json
from types import SimpleNamespace

import pytest

from repro.harness.cli import main
from repro.obs import baseline as bl
from repro.obs import gate, htmlreport, perf

HOSTILE = "<script>alert(1)</script>"


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


def dashboard(history, baseline=None):
    """The perf dashboard as ``repro perf html`` renders it."""
    current = history[-1]
    verdicts = None if baseline is None else perf.check_runs(baseline, current)
    return htmlreport.render_dashboard(current, baseline, history, verdicts)


@pytest.fixture()
def history():
    return [
        make_run({"fig1a": make_exp(wall_median=0.010)}),
        make_run({"fig1a": make_exp(wall_median=0.012)}),
    ]


@pytest.fixture()
def profile():
    from repro.obs.profile import kernel_from_spec, profile_kernel

    return profile_kernel(
        kernel_from_spec("vec_mul:128"),
        n_elements=64,
        tasklets=16,
        work_units=640,
    )


class TestRenderDashboard:
    def test_self_contained_html(self, history):
        html = dashboard(history, baseline=history[0])
        assert html.startswith("<!doctype html>")
        assert html.endswith("</body></html>")
        assert "<style>" in html
        assert "http" not in html.split("Perfetto")[0]  # no external refs

    def test_sparkline_badge_and_tables(self, history):
        html = dashboard(history, baseline=history[0])
        assert "<svg" in html and "polyline" in html
        assert "badge" in html
        assert ">ok<" in html  # verdict badge for the unchanged run
        assert "gate passes" in html
        assert "fig1a" in html
        assert "backend.pim.vec_add" in html  # attribution table

    def test_drift_shows_failing_gate_and_notes(self, history):
        drifted = make_run({"fig1a": make_exp(pim_total=9.99)})
        html = dashboard(history + [drifted], baseline=history[0])
        assert "MODEL-DRIFT" in html
        assert "gate fails" in html
        assert "9.99" in html

    def test_single_run_needs_no_baseline(self, history):
        html = dashboard([history[0]])
        assert "fig1a" in html
        assert "need ≥2 runs" in html  # no trend from one point
        assert "gate passes" not in html  # nothing was checked

    def test_empty_history_renders_a_hint(self, tmp_path, capsys):
        # Nothing recorded: the CLI names the record command, renders nothing.
        status = main(
            ["perf", "html", "--history", str(tmp_path / "none.jsonl"),
             "--baseline", str(tmp_path / "none.json")]
        )
        assert status == 2
        assert "repro perf record" in capsys.readouterr().err

    def test_experiment_names_escaped(self):
        run = make_run({HOSTILE: make_exp()})
        html = dashboard([run])
        assert "<script>alert" not in html
        assert "&lt;script&gt;" in html


class TestWriteAndCLI:
    @pytest.fixture()
    def recorded(self, history, tmp_path):
        history_path = tmp_path / "history.jsonl"
        for doc in history:
            bl.LEDGER.append(doc, history_path)
        baseline_path = tmp_path / "perf.json"
        bl.LEDGER.write(history[0], baseline_path)
        return ["--history", str(history_path), "--baseline", str(baseline_path)]

    def test_write_dashboard_creates_parents(self, recorded, tmp_path, capsys):
        out = tmp_path / "sub" / "dash.html"
        assert main(["perf", "html", "-o", str(out)] + recorded) == 0
        assert out.read_text().startswith("<!doctype html>")

    def test_cli_html_from_history(self, recorded, tmp_path, capsys):
        out = tmp_path / "dash.html"
        status = main(["perf", "html", "-o", str(out)] + recorded)
        assert status == 0
        assert "wrote" in capsys.readouterr().out
        html = out.read_text()
        assert "<svg" in html and "fig1a" in html
        assert "gate passes" in html  # the CLI checked against the baseline

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

        hostile = replace(profile, label=HOSTILE)
        html = htmlreport.render_profile_report([hostile])
        assert "<script>alert(1)" not in html
        assert "&lt;script&gt;" in html


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
        from repro.obs import registry as reg

        baseline = bl.read_run("baselines/perf.json")
        history = [baseline, make_run({"fig1a": make_exp(pim_total=9.99)})]
        document = htmlreport.render_grid_dashboard(
            drained.cells(),
            drained.runs(),
            drained.spec,
            verdicts=reg.check_against_baseline(drained.cells(), baseline),
            gate_runs=[
                ("perf", doc, perf.check_runs(baseline, doc, skip_wall=True))
                for doc in history
            ],
        )
        assert "Verdict history" in document
        assert ">perf<" in document  # perf gate rows interleaved
        assert "fig1a: MODEL-DRIFT" in document  # the failing row named

    def test_write_helper(self, drained, tmp_path, capsys):
        drained.close()
        out = tmp_path / "nested" / "dash.html"
        assert main(
            ["grid", "html", "--db", str(tmp_path / "grid.db"), "-o", str(out)]
        ) == 0
        assert out.read_text().startswith("<!doctype html")


# -- one structural test per page ------------------------------------------------


def _trajectory():
    return [
        {"op": HOSTILE, "pred_bits": 20.0, "meas_bits": 21.0, "depth": 0,
         "key_switches": 0},
        {"op": "mul", "pred_bits": 8.0, "meas_bits": 9.5, "depth": 1,
         "key_switches": 1},
    ]


def _flame_row(path, depth, a, b):
    return {"path": path, "name": path.rsplit(";", 1)[-1], "depth": depth,
            "modelled_a": a, "modelled_b": b, "self_modelled_a": a,
            "self_modelled_b": b, "count_a": 1, "count_b": 1, "status": "moved"}


def _page_perf(profile):
    base = make_run({HOSTILE: make_exp()})
    cur = make_run({HOSTILE: make_exp(pim_total=9.0)})
    verdicts = perf.check_runs(base, cur)
    return htmlreport.render_dashboard(cur, base, [base, cur], verdicts), len(verdicts)


def _page_noise(profile):
    doc = make_run({})
    doc["levels"] = {"27": {"workloads": {HOSTILE: {"trajectory": _trajectory()}}}}
    verdicts = [gate.Verdict(f"27b/{HOSTILE}", gate.NOISE_DRIFT, (HOSTILE,)),
                gate.Verdict("<config>", gate.VERDICT_OK)]
    return htmlreport.render_noise_report(doc, doc, [doc], verdicts), 2


def _page_energy(profile):
    doc = make_run({HOSTILE: {
        "joules": {"pim": 1.0, "cpu": 30.0}, "modelled_s": {"pim": 0.5},
        "edp_js": {"pim": 0.5}, "movement_bytes": {"wram_mram": 64, HOSTILE: 8},
        "pim_kernels": {HOSTILE: 0.25},
    }})
    doc["config"] = {"dpu_active_watts": 0.3}
    verdicts = [gate.Verdict(HOSTILE, gate.ENERGY_DRIFT, (HOSTILE,))]
    return htmlreport.render_energy_report(doc, None, [doc, doc], verdicts), 1


def _page_resilience(profile):
    with open("baselines/resilience.json") as handle:
        doc = json.load(handle)
    degraded = next(label for label in doc["points"] if ":fleet=degraded:" in label)
    doc["points"][f"{HOSTILE}:fleet=degraded:"] = copy.deepcopy(
        doc["points"][degraded]
    )
    doc["capacity"][HOSTILE] = dict(next(iter(doc["capacity"].values())))
    verdicts = [gate.Verdict(HOSTILE, gate.RESILIENCE_DRIFT, (HOSTILE,))]
    html = htmlreport.render_resilience_report(doc, doc, [], verdicts)
    return html, len(verdicts) + len(doc["baseline_check"])


def _page_faults(profile):
    points = [
        {"healthy": 1.0, "disabled_dpus": 0, "effective_dpus": 8,
         "pim_total": 1.0, "slowdown": 1.0},
        {"healthy": 0.5, "disabled_dpus": 4, "effective_dpus": 4,
         "pim_total": None, "slowdown": None},
    ]
    doc = {"seed": HOSTILE, "n_dpus": 8, "grid": [1.0, 0.5],
           "experiments": {HOSTILE: {"points": points}}}
    return htmlreport.render_faults_report(doc), 0


def _page_grid(profile):
    cells = [{"workload": HOSTILE, "backend": "pim", "status": "failed",
              "security_bits": 109, "healthy": 1.0, "batch": 1,
              "failure_header": HOSTILE, "modelled_ms": None}]
    run = {"run_id": "r" * 12, "created_at": "t", "git_sha": "s",
           "rollups": {"workloads": {HOSTILE: {"pim": 1.0}},
                       "verdicts": [{"experiment": HOSTILE, "verdict": "ok"}]},
           "drift_annotations": {"perf": {"experiment": HOSTILE, "backend": "pim",
                                          "delta_ms": 1.0}}}
    spec = SimpleNamespace(seed=HOSTILE, workloads=(HOSTILE,))
    verdicts = [gate.Verdict(HOSTILE, gate.MODEL_DRIFT, (HOSTILE,))]
    gate_runs = [("perf", run, [gate.Verdict(HOSTILE, gate.MODEL_DRIFT)])]
    html = htmlreport.render_grid_dashboard(cells, [run], spec, verdicts, gate_runs)
    return html, 1


def _page_serve(profile):
    from repro.serve import service

    doc = service.sweep_capacity(security_levels=[109], healthy_grid=[1.0],
                                 qps_grid=[500, 1000], duration_s=0.05)
    doc["workload"] = HOSTILE
    doc["baseline_check"] = [{"experiment": HOSTILE, "verdict": gate.MODEL_DRIFT}]
    return htmlreport.render_serve_report(doc), 1


def _page_forensics(profile):
    spans = {"verdict": gate.MODEL_DRIFT, "mode": "path", "moved": 1,
             "contributors": [_flame_row(f"run;{HOSTILE}", 1, 1.0, 2.0)],
             "aligned": [_flame_row("run", 0, 2.0, 3.0),
                         _flame_row(f"run;{HOSTILE}", 1, 1.0, 2.0)]}
    report = {
        "kind": "why", "experiment": HOSTILE, "baseline": {}, "current": {},
        "families": {
            "spans": spans,
            "model": {"verdict": gate.MODEL_DRIFT, "notes": [HOSTILE]},
            "energy": {"verdict": "skipped", "notes": []},
        },
        "shifts": {HOSTILE: [{"index": 1, "git_sha": HOSTILE, "created_at": "t",
                              "before_mean": 1.0, "after_mean": 2.0}]},
    }
    return htmlreport.render_forensics_report(report), 3


def _page_profile(profile):
    from dataclasses import replace

    return htmlreport.render_profile_report([replace(profile, label=HOSTILE)]), 0


PAGES = {
    "perf": _page_perf,
    "noise": _page_noise,
    "energy": _page_energy,
    "resilience": _page_resilience,
    "faults": _page_faults,
    "grid": _page_grid,
    "serve": _page_serve,
    "forensics": _page_forensics,
    "profile": _page_profile,
}


@pytest.mark.parametrize("page", sorted(PAGES))
def test_page_structure(page, profile):
    """Complete document, hostile labels escaped, one row per verdict."""
    html, verdict_rows = PAGES[page](profile)
    assert html.startswith("<!doctype html>")
    assert html.endswith("</body></html>")
    assert "<script" not in html
    assert "&lt;script&gt;alert(1)&lt;/script&gt;" in html
    # A verdict row leads with its badge; SLO and capacity tables carry
    # theirs in a later column.
    assert html.count('<tr><td><span class="badge"') == verdict_rows


# -- every HTML writer creates missing parent directories ------------------------


def _absent(tmp):
    return str(tmp / "absent.jsonl")


#: Each HTML command's argv lists: any recording steps, then the command
#: writing the page to ``out``.
HTML_COMMANDS = {
    "noise-report": lambda tmp, out: [
        ["noise", "report", "--baseline", "baselines/noise.json",
         "--history", _absent(tmp), "-o", out]],
    "energy-report": lambda tmp, out: [
        ["energy", "report", "--baseline", "baselines/energy.json",
         "--history", _absent(tmp), "-o", out]],
    "resil-html": lambda tmp, out: [
        ["resil", "html", "--baseline", "baselines/resilience.json",
         "--history", _absent(tmp), "-o", out]],
    "forensics-html": lambda tmp, out: [
        ["forensics", "html", "--run-a", "baselines/perf.json",
         "--run-b", "baselines/perf.json", "fig1a", "-o", out]],
    "why-html": lambda tmp, out: [
        ["why", "fig1a", "--history", _absent(tmp),
         "--energy-history", _absent(tmp), "--html", out]],
    "faults-sweep-html": lambda tmp, out: [
        ["faults", "sweep", "fig1a", "--healthy", "1.0", "--healthy", "0.9",
         "--html", out]],
    "faults-html": lambda tmp, out: [
        ["faults", "sweep", "fig1a", "--healthy", "1.0",
         "-o", str(tmp / "sweep.json")],
        ["faults", "html", "--sweep", str(tmp / "sweep.json"), "-o", out]],
    "serve-sweep-html": lambda tmp, out: [
        ["serve", "sweep", "--security", "109", "--qps", "500", "--healthy",
         "1.0", "--duration", "0.05", "--skip-baseline", "--html", out]],
    "serve-html": lambda tmp, out: [
        ["serve", "sweep", "--security", "109", "--qps", "500", "--healthy",
         "1.0", "--duration", "0.05", "--skip-baseline",
         "-o", str(tmp / "sweep.json")],
        ["serve", "html", "--sweep", str(tmp / "sweep.json"), "-o", out]],
    "profile-html": lambda tmp, out: [
        ["profile", "vec_add:64", "--elements", "64", "--html", out]],
}


@pytest.mark.parametrize("command", sorted(HTML_COMMANDS))
def test_html_written_under_missing_dirs(command, tmp_path, capsys):
    """``perf html`` and ``grid html`` are covered by the write tests above."""
    out = tmp_path / "nested" / "dir" / "page.html"
    for argv in HTML_COMMANDS[command](tmp_path, str(out)):
        assert main(argv) == 0
    assert out.read_text().startswith("<!doctype html>")
    assert f"{out}" in "".join(capsys.readouterr())  # the "wrote ..." line
