"""End-to-end ``repro noise`` subcommands, in-process.

Drives record → check → report through the real CLI against the tiny
security levels, then locks the ``EXIT_DATA`` (2) convention for
*every* recorded-artifact-consuming subcommand — perf, noise, energy,
resil, grid, and serve alike — so "nothing recorded yet" can never regress
into a traceback or be confused with a tripped gate (exit 1).
"""

from __future__ import annotations

import json
import re

import pytest

from repro.harness.cli import EXIT_DATA, main


@pytest.fixture()
def noise_paths(tmp_path):
    return {
        "baseline": str(tmp_path / "noise.json"),
        "history": str(tmp_path / "noise-history.jsonl"),
        "html": str(tmp_path / "noise.html"),
    }


def _noise(command, paths, *extra):
    return main(
        [
            "noise",
            command,
            *extra,
            "--baseline",
            paths["baseline"],
            "--history",
            paths["history"],
        ]
    )


class TestNoiseCliEndToEnd:
    def test_record_check_report_cycle(
        self, noise_paths, tiny_security_levels, capsys
    ):
        assert _noise("record", noise_paths, "27", "54") == 0
        out = capsys.readouterr().out
        assert "recorded 6 noise trajectories" in out

        baseline = json.loads(open(noise_paths["baseline"]).read())
        assert set(baseline["levels"]) == {"27", "54"}
        assert baseline["run_id"] and baseline["git_sha"]

        assert _noise("check", noise_paths) == 0
        out = capsys.readouterr().out
        assert "0 NOISE-DRIFT" in out

        assert _noise("report", noise_paths, "-o", noise_paths["html"]) == 0
        html = open(noise_paths["html"]).read()
        assert "<svg" in html and "27-bit level" in html

    def test_check_update_adopts_current(
        self, noise_paths, tiny_security_levels, capsys
    ):
        assert _noise("record", noise_paths, "27") == 0
        before = json.loads(open(noise_paths["baseline"]).read())
        assert _noise("check", noise_paths, "--update") == 0
        after = json.loads(open(noise_paths["baseline"]).read())
        assert after["run_id"] != before["run_id"]
        capsys.readouterr()

    def test_drifted_baseline_fails_with_one(
        self, noise_paths, tiny_security_levels, capsys
    ):
        assert _noise("record", noise_paths, "27") == 0
        baseline = json.loads(open(noise_paths["baseline"]).read())
        step = baseline["levels"]["27"]["workloads"]["mean"]["trajectory"][0]
        step["pred_bits"] += 1.0
        with open(noise_paths["baseline"], "w") as handle:
            json.dump(baseline, handle)
        assert _noise("check", noise_paths) == 1
        out = capsys.readouterr().out
        assert "NOISE-DRIFT" in out


class TestExitDataConvention:
    """Exit 2 = "no recorded data yet", for every subcommand family."""

    def test_the_convention_itself(self):
        assert EXIT_DATA == 2  # 1 means "failed"; 2 means "no data yet"

    _RECORDED = ("--baseline", "--history")

    @pytest.mark.parametrize(
        ("argv", "flags"),
        [
            (["noise", "check"], _RECORDED),
            (["noise", "report"], _RECORDED),
            (["energy", "check"], _RECORDED),
            (["energy", "report"], _RECORDED),
            (["perf", "check"], _RECORDED),
            (["perf", "diff", "a", "b"], _RECORDED),
            (["perf", "html"], _RECORDED),
            (
                ["forensics", "shifts"],
                ("--history", "--energy-history", "--noise-history"),
            ),
            (["serve", "html"], ("--sweep",)),
            (["resil", "check"], _RECORDED),
            (["resil", "html"], _RECORDED),
            (["grid", "html"], ("--grid",)),
            (["why", "fig1a"], ("--against", "--history")),
            (["forensics", "html"], ("--run-a", "--run-b")),
        ],
        ids=lambda value: (
            "-".join(value[:2]) if isinstance(value, list) else None
        ),
    )
    def test_missing_data_exits_two(self, argv, flags, tmp_path, capsys):
        extra = []
        for index, flag in enumerate(flags):
            extra += [flag, str(tmp_path / f"absent-{index}.json")]
        status = main(argv + extra)
        captured = capsys.readouterr()
        assert status == EXIT_DATA
        # One record-it-first hint: the ledger's own, or the CLI's.
        hints = re.findall(
            r"record one with|re-record with|record a run first", captured.err
        )
        assert len(hints) == 1, captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        ("argv", "corrupt"),
        [
            (["perf", "check"], "--baseline"),
            (["perf", "diff", "a", "b"], "--history"),
            (["perf", "html"], "--history"),
            (["noise", "check"], "--baseline"),
            (["noise", "report"], "--history"),
            (["noise", "report"], "--baseline"),
            (["energy", "check"], "--baseline"),
            (["energy", "report"], "--history"),
            (["resil", "check"], "--baseline"),
            (["resil", "html"], "--history"),
        ],
        ids=lambda value: "-".join(value) if isinstance(value, list) else value,
    )
    def test_corrupt_data_exits_two(self, argv, corrupt, tmp_path, capsys):
        paths = {flag: tmp_path / f"{flag[2:]}.json" for flag in self._RECORDED}
        paths[corrupt].write_text('{"schema": 1, "experi\n')
        extra = [part for flag in self._RECORDED for part in (flag, str(paths[flag]))]
        status = main(argv + extra)
        captured = capsys.readouterr()
        assert status == EXIT_DATA
        assert f"{paths[corrupt]}" in captured.err
        assert "not valid JSON" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        ("argv", "flag", "text", "says"),
        [
            (["grid", "html"], "--grid", None, "no grid document"),
            (["grid", "html"], "--grid", '{"schema": 1, "cel\n', "not valid JSON"),
            (["grid", "html"], "--grid", '{"schema": 1, "kind": "grid", '
             '"cells": {}}', "malformed grid document"),
            (["grid", "run", "--preset", "tiny"], "--baseline",
             '{"schema": 1, "experi\n', "not valid JSON"),
        ],
        ids=["html-missing", "html-corrupt", "html-no-spec", "run-baseline-corrupt"],
    )
    def test_grid_data_exits_two_naming_the_file(
        self, argv, flag, text, says, tmp_path, capsys
    ):
        path = tmp_path / "recorded.json"
        if text is not None:
            path.write_text(text)
        status = main(argv + [flag, str(path)])
        captured = capsys.readouterr()
        assert status == EXIT_DATA
        assert f"{path}" in captured.err
        assert says in captured.err
        assert "Traceback" not in captured.err
