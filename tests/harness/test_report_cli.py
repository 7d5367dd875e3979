"""Reporting and command-line interface."""

import pytest

from repro.harness.cli import build_parser, main
from repro.harness.experiments import ExperimentRow, get_experiment
from repro.harness.report import (
    format_experiment,
    format_rows,
    measured_ratio_range,
    render_markdown_report,
)


def sample_rows():
    return [
        ExperimentRow("a", 1, {"pim": 1.0, "cpu": 30.0}),
        ExperimentRow("b", 2, {"pim": 2.0, "cpu": 100.0}),
    ]


class TestMeasuredRatioRange:
    def test_range(self):
        assert measured_ratio_range(sample_rows(), "pim", "cpu") == (30.0, 50.0)

    def test_missing_series_returns_none(self):
        assert measured_ratio_range(sample_rows(), "pim", "gpu") is None

    def test_skips_rows_without_both(self):
        rows = sample_rows() + [ExperimentRow("c", 3, {"pim": 1.0})]
        assert measured_ratio_range(rows, "pim", "cpu") == (30.0, 50.0)


class TestFormatting:
    def test_format_rows_aligned_table(self):
        text = format_rows(sample_rows(), unit="ms")
        lines = text.splitlines()
        assert "pim [ms]" in lines[0]
        assert len(lines) == 4  # header + rule + 2 rows

    def test_format_experiment_includes_claims(self):
        experiment = get_experiment("fig2a")
        text = format_experiment(experiment, experiment.run())
        assert "Figure 2(a)" in text
        assert "paper" in text and "model" in text

    def test_markdown_report_subset(self):
        md = render_markdown_report(["abl_karatsuba"])
        assert "## abl_karatsuba" in md
        assert "| config |" in md

    def test_markdown_report_claim_table(self):
        md = render_markdown_report(["fig2a"])
        assert "in band?" in md
        assert "pim over cpu" in md


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1a" in out and "fig2c" in out

    def test_run(self, capsys):
        assert main(["run", "abl_karatsuba"]) == 0
        out = capsys.readouterr().out
        assert "karatsuba" in out.lower()

    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "UPMEM" in out and "A100" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "abl_ntt", "-o", str(target)]) == 0
        assert "## abl_ntt" in target.read_text()

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_unknown_experiment_raises(self, capsys):
        # The ExperimentError is reported as one line, exit status 1.
        assert main(["run", "fig99"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ExperimentError: unknown experiment 'fig99'")
        assert "fig1a" in err  # the known ids are listed
