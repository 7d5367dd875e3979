"""End-to-end ``obs`` subcommand: every export flag through the CLI.

PR 1 unit-tested the exporters; this drives the real CLI path — run an
experiment under ``obs --trace/--chrome/--metrics/--tree``, re-load
each artifact from disk, and validate the Chrome trace against the
schema validator.
"""

import json

import pytest

from repro.harness.cli import main
from repro.obs.export import read_jsonl, validate_chrome_trace


@pytest.fixture()
def artifacts(tmp_path, capsys):
    """One CLI run exporting all three artifacts plus the text tree."""
    paths = {
        "trace": tmp_path / "trace.jsonl",
        "chrome": tmp_path / "trace.json",
        "metrics": tmp_path / "metrics.json",
    }
    status = main(
        [
            "obs",
            "--trace",
            str(paths["trace"]),
            "--chrome",
            str(paths["chrome"]),
            "--metrics",
            str(paths["metrics"]),
            "--tree",
            "run",
            "fig1a",
        ]
    )
    captured = capsys.readouterr()
    assert status == 0
    return paths, captured


class TestObsCliEndToEnd:
    def test_jsonl_trace_reloads_with_expected_spans(self, artifacts):
        paths, _ = artifacts
        records = read_jsonl(paths["trace"])
        names = {r["name"] for r in records}
        assert any(n.startswith("experiment.fig1a") for n in names)
        assert any(n.startswith("workload.") for n in names)
        assert any(n.startswith("backend.pim.") for n in names)
        assert any(n.startswith("pim.time_kernel.") for n in names)
        for record in records:
            assert record["end_s"] is not None

    def test_chrome_trace_validates_against_schema(self, artifacts):
        paths, _ = artifacts
        document = json.loads(paths["chrome"].read_text())
        validate_chrome_trace(document)
        complete = [
            e for e in document["traceEvents"] if e["ph"] == "X"
        ]
        assert complete
        assert any("modelled_s" in e["args"] for e in complete)

    def test_metrics_snapshot_reloads(self, artifacts):
        paths, _ = artifacts
        snapshot = json.loads(paths["metrics"].read_text())
        assert snapshot["experiments.runs"]["value"] == 1
        assert snapshot["pim.kernel_launches"]["value"] > 0
        assert snapshot["backend.pim.requests"]["type"] == "counter"

    def test_tree_printed_and_files_reported(self, artifacts):
        _, captured = artifacts
        assert "time attribution" in captured.out
        assert "experiment.fig1a" in captured.out
        assert "wrote" in captured.err  # export confirmations on stderr

    def test_spans_nest_experiment_to_kernel(self, artifacts):
        paths, _ = artifacts
        records = read_jsonl(paths["trace"])
        by_id = {r["span_id"]: r for r in records}
        kernel = next(
            r for r in records if r["name"].startswith("pim.time_kernel.")
        )
        seen = set()
        node = kernel
        while node["parent_id"] is not None:
            assert node["span_id"] not in seen
            seen.add(node["span_id"])
            node = by_id[node["parent_id"]]
        assert node["name"] == "experiment.fig1a"


def test_exports_create_missing_directories(tmp_path, capsys):
    paths = {
        flag: tmp_path / flag / "new" / "artifact"
        for flag in ("trace", "chrome", "metrics")
    }
    status = main(
        [
            "obs",
            "--trace",
            str(paths["trace"]),
            "--chrome",
            str(paths["chrome"]),
            "--metrics",
            str(paths["metrics"]),
            "run",
            "fig1a",
        ]
    )
    capsys.readouterr()
    assert status == 0
    assert read_jsonl(paths["trace"])
    validate_chrome_trace(json.loads(paths["chrome"].read_text()))
    assert json.loads(paths["metrics"].read_text())
