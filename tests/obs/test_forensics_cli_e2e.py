"""End-to-end ``repro why`` / ``repro forensics``, in-process.

The acceptance contract: an unmodified tree explains itself with zero
drift (exit 0); perturbing one timing constant makes ``repro why`` exit
non-zero and name the perturbed span — the ``pim.time_kernel`` leaf,
via self-time attribution — as the top contributor; a seeded history
series pinpoints the first run of a synthetic shift.

Kernel cycle costs are cached on backend instances (the lru-cached
backend table), so every perturbation here clears that cache around the
capture — exactly what a fresh process (CI, a real shell) gets for
free.
"""

from __future__ import annotations

import json

import pytest

import repro.harness.experiments as experiments
from repro.harness.cli import EXIT_DATA, main
from repro.obs import baseline as bl

LEAF = (
    "workload.VectorAddWorkload;backend.pim.vec_add;"
    "pim.time_kernel.vec_add"
)


@pytest.fixture()
def fresh_backends():
    """Backend instances built with the *current* cost table, both ways."""
    experiments._backends.cache_clear()
    yield
    experiments._backends.cache_clear()


@pytest.fixture()
def paths(tmp_path):
    return {
        "baseline": str(tmp_path / "perf.json"),
        "history": str(tmp_path / "history.jsonl"),
        "energy_baseline": str(tmp_path / "energy.json"),
        "energy_history": str(tmp_path / "energy-history.jsonl"),
        "noise_history": str(tmp_path / "noise-history.jsonl"),
        "html": str(tmp_path / "forensics.html"),
        "collapsed": str(tmp_path / "flame.collapsed"),
        "json": str(tmp_path / "shifts.json"),
    }


def record_fig1a(paths) -> None:
    status = main(
        [
            "perf",
            "record",
            "fig1a",
            "--repeats",
            "1",
            "--baseline",
            paths["baseline"],
            "--history",
            paths["history"],
        ]
    )
    assert status == 0


def why(paths, *extra) -> int:
    return main(
        [
            "why",
            "fig1a",
            "--against",
            paths["baseline"],
            "--history",
            paths["history"],
            "--energy-baseline",
            paths["energy_baseline"],
            "--energy-history",
            paths["energy_history"],
            *extra,
        ]
    )


class TestWhyCli:
    def test_unmodified_tree_reports_zero_drift(
        self, paths, fresh_backends, capsys
    ):
        record_fig1a(paths)
        assert why(paths) == 0
        out = capsys.readouterr().out
        assert "no drift" in out
        assert "[          ok] spans (path-aligned): 0 moved" in out

    def test_perturbed_constant_names_the_leaf_span(
        self, paths, fresh_backends, monkeypatch, capsys
    ):
        from repro.pim.isa import DEFAULT_CYCLES_PER_OP

        record_fig1a(paths)
        capsys.readouterr()
        monkeypatch.setitem(DEFAULT_CYCLES_PER_OP, "add", 64.0)
        experiments._backends.cache_clear()
        status = why(
            paths,
            "--html",
            paths["html"],
            "--collapsed",
            paths["collapsed"],
        )
        out = capsys.readouterr().out
        assert status == 1
        assert "MODEL-DRIFT" in out
        # The leaf is the *first* contributor: ancestors inflate by the
        # same inclusive delta but carry zero self-time delta.
        contributor_lines = [
            line for line in out.splitlines() if LEAF in line
        ]
        assert contributor_lines
        spans_block = out.split("spans (path-aligned)")[1]
        assert spans_block.splitlines()[1].strip().startswith(f"- {LEAF}")

        html = open(paths["html"]).read()
        assert LEAF.split(";")[-1] in html
        assert "flame" in html
        collapsed = open(paths["collapsed"]).read()
        leaf_lines = [
            line for line in collapsed.splitlines() if line.startswith(LEAF)
        ]
        assert len(leaf_lines) == 1
        _, a_ns, b_ns = leaf_lines[0].rsplit(" ", 2)
        assert int(b_ns) > int(a_ns) > 0

    def test_perturbed_energy_config_is_energy_drift(
        self, paths, fresh_backends, capsys
    ):
        from dataclasses import replace

        from repro.obs import energy as en

        record_fig1a(paths)
        status = main(
            [
                "energy",
                "record",
                "--baseline",
                paths["energy_baseline"],
                "--history",
                paths["energy_history"],
            ]
        )
        assert status == 0
        capsys.readouterr()
        perturbed = replace(
            en.DEFAULT_ENERGY_CONFIG,
            dpu_active_watts=en.DEFAULT_ENERGY_CONFIG.dpu_active_watts * 2,
        )
        with en.use_energy_config(perturbed):
            status = why(paths)
        out = capsys.readouterr().out
        assert status == 1
        assert "ENERGY-DRIFT" in out
        assert "dpu_active_watts" in out
        # The span tree itself did not move.
        assert "[          ok] spans" in out

    def test_missing_experiment_exits_data(self, paths, capsys):
        """A registered experiment the baseline lacks: record it first."""
        record_fig1a(paths)
        capsys.readouterr()
        status = main(
            [
                "why",
                "fig2a",
                "--against",
                paths["baseline"],
                "--history",
                paths["history"],
            ]
        )
        assert status == EXIT_DATA
        err = capsys.readouterr().err
        assert "record a run first: repro perf record fig2a" in err

    def test_unknown_experiment_is_an_error(self, paths, capsys):
        """An id no experiment has fails as 'run' does, before any data."""
        record_fig1a(paths)
        capsys.readouterr()
        status = main(
            [
                "why",
                "nope",
                "--against",
                paths["baseline"],
                "--history",
                paths["history"],
            ]
        )
        assert status == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("ExperimentError: unknown experiment 'nope'")
        assert main(["run", "nope"]) == 1
        assert capsys.readouterr().err.splitlines() == err


class TestForensicsHtmlCli:
    def test_latest_against_baseline_writes_report(
        self, paths, fresh_backends, monkeypatch, capsys
    ):
        from repro.pim.isa import DEFAULT_CYCLES_PER_OP

        record_fig1a(paths)
        monkeypatch.setitem(DEFAULT_CYCLES_PER_OP, "add", 64.0)
        experiments._backends.cache_clear()
        record_fig1a(paths)  # appended to history -> "latest"
        capsys.readouterr()
        status = main(
            [
                "forensics",
                "html",
                "--run-a",
                paths["baseline"],
                "--run-b",
                "latest",
                "--history",
                paths["history"],
                "-o",
                paths["html"],
                "--collapsed",
                paths["collapsed"],
            ]
        )
        assert status == 0
        html = open(paths["html"]).read()
        assert "fig1a" in html and "flame" in html
        collapsed = open(paths["collapsed"]).read()
        assert any(
            line.startswith(LEAF) for line in collapsed.splitlines()
        )

    def test_run_id_prefixes_resolve_from_history(
        self, paths, fresh_backends, capsys
    ):
        record_fig1a(paths)
        run = json.loads(open(paths["baseline"]).read())
        capsys.readouterr()
        status = main(
            [
                "forensics",
                "html",
                "fig1a",
                "--run-a",
                run["run_id"][:10],
                "--run-b",
                run["run_id"][:10],
                "--history",
                paths["history"],
                "-o",
                paths["html"],
            ]
        )
        assert status == 0
        assert "fig1a" in open(paths["html"]).read()


class TestForensicsShiftsCli:
    def seed_history(self, paths) -> None:
        docs = []
        for i in range(8):
            value = 5.0 if i < 4 else 8.0
            docs.append(
                {
                    "schema": bl.SCHEMA_VERSION,
                    "run_id": f"r{i}",
                    "git_sha": f"sha{i:04d}",
                    "created_at": f"2026-01-0{i + 1}T00:00:00+00:00",
                    "experiments": {
                        "fig1a": {
                            "modelled": {"series_totals": {"pim": value}}
                        }
                    },
                }
            )
        with open(paths["history"], "w") as handle:
            for doc in docs:
                handle.write(json.dumps(doc) + "\n")

    def shifts(self, paths, *extra) -> int:
        return main(
            [
                "forensics",
                "shifts",
                "--history",
                paths["history"],
                "--energy-history",
                paths["energy_history"],
                "--noise-history",
                paths["noise_history"],
                *extra,
            ]
        )

    def test_seeded_step_names_the_first_shifted_run(self, paths, capsys):
        self.seed_history(paths)
        assert self.shifts(paths, "--json", paths["json"]) == 0
        out = capsys.readouterr().out
        assert "perf.fig1a.pim: shift at index 4" in out
        assert "sha0004" in out
        shifts = json.loads(open(paths["json"]).read())
        assert shifts["perf.fig1a.pim"][0]["git_sha"] == "sha0004"

    def test_flat_history_reports_no_change_points(self, paths, capsys):
        docs = [
            {
                "schema": bl.SCHEMA_VERSION,
                "run_id": f"r{i}",
                "git_sha": f"s{i}",
                "created_at": f"t{i}",
                "experiments": {
                    "fig1a": {"modelled": {"series_totals": {"pim": 5.0}}}
                },
            }
            for i in range(6)
        ]
        with open(paths["history"], "w") as handle:
            for doc in docs:
                handle.write(json.dumps(doc) + "\n")
        assert self.shifts(paths) == 0
        assert "no change points detected" in capsys.readouterr().out
