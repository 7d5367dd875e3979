"""The shared gate framework: one on-disk format for every ledger."""

from __future__ import annotations

import pathlib

import pytest

from repro.errors import ParameterError
from repro.obs import energy, gate, noisegate, perf
from repro.serve import resilience

REPO = pathlib.Path(__file__).resolve().parents[2]

GATES = {g.cli.name: g for g in (perf.GATE, noisegate.GATE, energy.GATE, resilience.GATE)}


@pytest.mark.parametrize("name", sorted(GATES))
def test_committed_ledgers_round_trip_byte_identically(name, tmp_path):
    spec = GATES[name].cli
    committed = REPO / spec.baseline_path
    copy = tmp_path / committed.name
    spec.ledger.write(spec.ledger.read(committed), copy)
    assert copy.read_bytes() == committed.read_bytes()

    history = REPO / spec.history_path
    if history.exists():
        lines = [line for line in history.read_text().splitlines() if line.strip()]
        docs = spec.ledger.history(history)
        assert len(docs) == len(lines)
        for doc in docs:
            assert spec.ledger.validate(doc, str(history)) is doc


def test_history_errors_name_the_line(tmp_path):
    ledger = noisegate.LEDGER
    path = tmp_path / "history.jsonl"
    ledger.append({"schema": 1, "levels": {}}, path)
    with path.open("a") as handle:
        handle.write('{"schema": 1, "lev\n')
    with pytest.raises(ParameterError, match="history.jsonl line 2: not valid JSON"):
        ledger.history(path)


def test_kind_is_part_of_the_schema(tmp_path):
    path = tmp_path / "doc.json"
    resilience.LEDGER.write({"schema": 1, "points": {}}, path)
    with pytest.raises(ParameterError, match="kind None"):
        resilience.LEDGER.read(path)


@pytest.mark.parametrize("name", sorted(GATES))
def test_rows_pad_to_the_gates_longest_label(name):
    spec = GATES[name]
    width = max(len(label) for label in spec.order)
    row = spec.verdict("k", ("a note",))
    assert row.failed and row.verdict == spec.drift
    assert row.describe() == f"[{spec.drift:>{width}}] k\n{' ' * (width + 3)}- a note"
    assert not spec.verdict("k").failed
    assert gate.exit_code([spec.verdict("k")]) == 0
    assert gate.exit_code([spec.verdict("k"), row]) == 1
