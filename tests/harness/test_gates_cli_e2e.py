"""``repro gates``: every gate's check in one process, worst exit wins."""

import pathlib
import shutil

from repro.harness.cli import EXIT_DATA, main
from repro.obs.gate import GATE_CLIS
from repro.obs.runident import git_sha

REPO = pathlib.Path(__file__).resolve().parents[2]


def test_one_row_per_gate_and_the_worst_exit(
    tmp_path, monkeypatch, capsys, request
):
    """A missing energy baseline stops only that gate (exit 2); the
    other three still run their checks, and 2 is the worst code.

    The gates run on their default paths, inside a copy of the
    committed ``baselines/``, so each check appends to a scratch
    history."""
    shutil.copytree(REPO / "baselines", tmp_path / "baselines")
    monkeypatch.chdir(tmp_path)
    # git_sha() keeps its first answer for the process; drop the one
    # read outside the checkout.
    request.addfinalizer(git_sha.cache_clear)
    faces = {face.name: face for face in GATE_CLIS}
    pathlib.Path(faces["energy"].baseline_path).unlink()
    histories = {
        name: pathlib.Path(face.history_path) for name, face in faces.items()
    }
    before = {
        name: path.read_text().count("\n") if path.exists() else 0
        for name, path in histories.items()
    }
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
        assert histories[name].read_text().count("\n") == before[name] + 1
    assert (
        histories["energy"].read_text().count("\n") == before["energy"]
    )
    assert "== repro perf check --skip-wall" in out
