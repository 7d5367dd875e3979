"""``repro grid`` end to end: run (axes, presets, the baseline
cross-check, failed cells), the grid document and its dashboard."""

import json

import pytest

from repro.harness.cli import main
from repro.obs import registry as reg


class TestGridRun:
    def test_paper_preset_cross_checks_nine_experiments(self, capsys):
        assert main(["grid", "run"]) == 0
        out = capsys.readouterr().out
        assert "experiment grid — 648 cells (seed 0)" in out
        assert "done: 648  failed: 0" in out
        rows = [line for line in out.splitlines() if line.startswith("  [")]
        assert len(rows) == 9
        assert sum("[         ok]" in row for row in rows) == 8
        assert "  [        new] fig2b" in rows
        assert "PIM slowdown vs fleet health:" in out
        assert out.rstrip().endswith("gate passes")

    @pytest.mark.parametrize(
        ("axis", "message"),
        [
            (["--backends", "foo", "pim"], "unknown grid backend 'foo'"),
            (["--security", "64"], "unknown grid security level 64"),
            (["--healthy", "0.9", "0.9"], "grid axis 'healthy' repeats [0.9]"),
        ],
        ids=["backends", "security", "duplicate"],
    )
    def test_bad_axis_rejected_before_pricing(
        self, axis, message, monkeypatch, capsys
    ):
        def never(cell, seed=0):
            raise AssertionError(f"priced {reg.cell_label(cell)}")

        monkeypatch.setattr(reg, "run_cell", never)
        assert main(["grid", "run", *axis]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("ParameterError: ")
        assert message in line

    def test_prints_the_pim_slowdown_table(self, capsys):
        """Each covered experiment gets one row per fleet health: the
        disabled/effective DPUs, pim total and slowdown vs 100%."""
        argv = ["grid", "run", "--workloads", "vec_add", "--security",
                "109", "--healthy", "1", "0.8", "--seed", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        table = out[out.index("PIM slowdown vs fleet health:"):]
        lines = table.splitlines()
        assert lines[2:5] == [
            "fig1a:",
            "  healthy   disabled  effective  pim total      slowdown",
            "   100.0%         0       2524      128.1097   1.0000x",
        ]
        assert lines[5].startswith("    80.0%       505       2019  ")
        assert lines[5].endswith("x")

    def test_explicit_axes_override_preset(self, tmp_path):
        path = tmp_path / "grid.json"
        argv = ["grid", "run", "--preset", "tiny", "--workloads", "vec_mul",
                "--security", "54", "--healthy", "1.0", "--backends", "pim",
                "cpu", "--max-batches", "1", "--seed", "4", "-o", str(path)]
        assert main(argv) == 0
        spec, rows = reg.read_grid(path)
        assert spec == reg.GridSpec(
            workloads=("vec_mul",), backends=("pim", "cpu"),
            security_bits=(54,), healthy=(1.0,), max_batches=1, seed=4,
        )
        assert [row["backend"] for row in rows] == ["pim", "cpu"]


class TestGridRunResumeHtml:
    def test_full_cycle(self, tmp_path, capsys):
        """The CI shape: run the tiny preset to a document, render the
        dashboard artifact from it."""
        doc = tmp_path / "grid.json"
        assert main(["grid", "run", "--preset", "tiny", "-o", str(doc)]) == 0
        captured = capsys.readouterr()
        assert "done: 32  failed: 0" in captured.out
        assert f"wrote {doc}" in captured.err
        assert len(json.loads(doc.read_text())["cells"]) == 32

        html = tmp_path / "dash.html"
        assert main(
            ["grid", "html", "--grid", str(doc), "-o", str(html)]
        ) == 0
        document = html.read_text()
        assert "<!doctype html" in document
        assert "vec_add" in document
        assert "32 cells — done: 32" in document
        assert "Verdict history" in document

    def test_html_draws_the_slowdown_curves(self, tmp_path, capsys):
        doc = tmp_path / "grid.json"
        assert main(["grid", "run", "--workloads", "mean", "--security",
                     "109", "--healthy", "1", "0.9", "-o", str(doc)]) == 0
        html = tmp_path / "dash.html"
        assert main(["grid", "html", "--grid", str(doc), "-o", str(html)]) == 0
        document = html.read_text()
        assert "fig2a: PIM slowdown vs healthy fraction" in document
        assert "worst slowdown" in document

    def test_run_reports_failed_cells(self, capsys, monkeypatch):
        real_run_cell = reg.run_cell

        def flaky(cell, seed=0):
            if cell["backend"] == "gpu":
                raise RuntimeError("no device")
            return real_run_cell(cell, seed=seed)

        monkeypatch.setattr(reg, "run_cell", flaky)
        status = main(["grid", "run", "--preset", "tiny", "--keep-going"])
        assert status == 1
        captured = capsys.readouterr()
        assert "done: 24  failed: 8" in captured.out
        assert "cell FAILED" in captured.err
        assert "RuntimeError: no device" in captured.err
