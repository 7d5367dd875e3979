"""End-to-end ``repro serve`` subcommands, in-process."""

import json

from repro.harness.cli import EXIT_DATA, main
from repro.obs.export import validate_chrome_trace


class TestServeRun:
    def test_point_report_prints(self, capsys):
        status = main(
            ["serve", "run", "--qps", "400", "--duration", "0.05"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "vec_add@109" in out
        assert "p50" in out and "verdict" in out

    def test_output_and_chrome_artifacts(self, tmp_path, capsys):
        doc_path = tmp_path / "point.json"
        trace_path = tmp_path / "trace.json"
        status = main(
            [
                "serve",
                "run",
                "--qps",
                "400",
                "--duration",
                "0.05",
                "-o",
                str(doc_path),
                "--chrome",
                str(trace_path),
            ]
        )
        capsys.readouterr()
        assert status == 0
        doc = json.loads(doc_path.read_text())
        assert doc["kind"] == "serve-point"
        assert doc["classes"]
        validate_chrome_trace(json.loads(trace_path.read_text()))

    def test_artifacts_under_a_missing_directory(self, tmp_path, capsys):
        doc_path = tmp_path / "new" / "point.json"
        trace_path = tmp_path / "other" / "trace.json"
        status = main(
            [
                "serve",
                "run",
                "--duration",
                "0.05",
                "-o",
                str(doc_path),
                "--chrome",
                str(trace_path),
            ]
        )
        capsys.readouterr()
        assert status == 0
        assert json.loads(doc_path.read_text())["kind"] == "serve-point"
        validate_chrome_trace(json.loads(trace_path.read_text()))


class TestServeSweep:
    _ARGV = [
        "serve",
        "sweep",
        "--security",
        "54",
        "109",
        "--qps",
        "500",
        "--healthy",
        "1.0",
        "0.9",
        "--duration",
        "0.05",
    ]

    def test_sweep_writes_every_artifact(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        html = tmp_path / "dash.html"
        trace = tmp_path / "trace.json"
        status = main(
            self._ARGV
            + ["-o", str(sweep), "--html", str(html), "--chrome", str(trace)]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "SLO verdict summary:" in out
        assert "baseline gate:" in out

        doc = json.loads(sweep.read_text())
        assert doc["kind"] == "serve-sweep"
        assert all(v["verdict"] == "ok" for v in doc["baseline_check"])

        page = html.read_text()
        assert "Sustainable QPS" in page
        validate_chrome_trace(json.loads(trace.read_text()))

    def test_skip_baseline_omits_the_gate(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        status = main(
            self._ARGV + ["--skip-baseline", "-o", str(sweep)]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "baseline gate:" not in out
        assert "baseline_check" not in json.loads(sweep.read_text())


class TestServeHtml:
    def test_html_from_recorded_sweep(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "serve",
                    "sweep",
                    "--security",
                    "109",
                    "--qps",
                    "500",
                    "--healthy",
                    "1.0",
                    "--duration",
                    "0.05",
                    "--skip-baseline",
                    "-o",
                    str(sweep),
                ]
            )
            == 0
        )
        capsys.readouterr()
        out_path = tmp_path / "dash.html"
        status = main(
            ["serve", "html", "--sweep", str(sweep), "-o", str(out_path)]
        )
        capsys.readouterr()
        assert status == 0
        assert "Sustainable QPS" in out_path.read_text()

    def test_missing_sweep_exits_data(self, tmp_path, capsys):
        status = main(
            ["serve", "html", "--sweep", str(tmp_path / "absent.json")]
        )
        err = capsys.readouterr().err
        assert status == EXIT_DATA
        assert "repro serve sweep" in err
