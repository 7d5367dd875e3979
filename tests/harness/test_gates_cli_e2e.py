"""``repro gates``: every gate's check in one process, worst exit wins."""

import dataclasses

import pytest

from repro.harness.cli import EXIT_DATA, main
from repro.obs import energy, noisegate, perf
from repro.serve import resilience

GATE_MODULES = (perf, noisegate, energy, resilience)


@pytest.fixture()
def scratch_histories(tmp_path, monkeypatch):
    """Every gate appends its check to a history under ``tmp_path``."""
    paths = {}
    for module in GATE_MODULES:
        path = tmp_path / f"{module.GATE.name}-history.jsonl"
        monkeypatch.setattr(
            module,
            "GATE",
            dataclasses.replace(module.GATE, history_path=str(path)),
        )
        paths[module.GATE.name] = path
    return paths


def test_one_row_per_gate_and_the_worst_exit(
    scratch_histories, tmp_path, monkeypatch, capsys
):
    """A missing energy baseline stops only that gate (exit 2); the
    other three still run their checks, and 2 is the worst code."""
    monkeypatch.setattr(
        energy,
        "GATE",
        dataclasses.replace(
            energy.GATE, baseline_path=str(tmp_path / "missing.json")
        ),
    )
    assert main(["gates", "--skip-wall"]) == EXIT_DATA
    out = capsys.readouterr().out
    rows = {
        line.split()[0]: line.split()[1:]
        for line in out.splitlines()[-4:]
    }
    assert rows.keys() == {"perf", "noise", "energy", "resil"}
    assert rows["energy"][:2] == ["no", "data"]
    assert rows["energy"][2] == str(EXIT_DATA)
    for name in ("perf", "noise", "resil"):
        assert rows[name][:2] == ["ok", "0"]
        assert scratch_histories[name].read_text().count("\n") == 1
    assert not scratch_histories["energy"].exists()
    assert "== repro perf check --skip-wall" in out
