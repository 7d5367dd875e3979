"""Tests of the wall-clock benchmark at reduced scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/wall``. Each
workload runs one traced pass over a subset of its inputs; the CLI runs
end to end on the cheapest workload.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import subprocess
import sys

import pytest

from benchmarks.wall import run
from benchmarks.wall.clock import PROBE_REF_S, Timed, reference_s
from benchmarks.wall.layers import PER_LAYER, TARGETS, merge_records, traced
from benchmarks.wall.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics computed from the timed passes, not from spans.
WORKLOAD_LEVEL = {
    "trace.overhead_frac",
    "sim_compute_minstr_per_s",
    "sim_dma_minstr_per_s",
    "serve_kreq_per_s",
    "gate_noise_s",
    "gate_resil_s",
    "gate_model_s",
}


def test_specs_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]
    } == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]
    } == PER_LAYER
    assert SPEC["paths"] == ["benchmarks/wall"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_reference_seconds():
    # The probe ran twice as slow as on the reference host (median), so
    # the region counts half.
    probes = [PROBE_REF_S, 2 * PROBE_REF_S, 3 * PROBE_REF_S]
    assert reference_s(3.0, probes) == pytest.approx(1.5)
    with Timed() as timed:
        sum(i * i for i in range(200_000))
    assert len(timed.probes) >= 2
    assert 0 < timed.seconds and 0 < timed.reference_s


def _references() -> dict:
    """Every wrap target and every module-level binding, by key."""
    refs = {}
    for module_name, cls_name, attr, _span, _hook in TARGETS:
        module = importlib.import_module(module_name)
        if cls_name is not None:
            refs[(module_name, cls_name, attr)] = vars(getattr(module, cls_name))[
                attr
            ]
    for name, module in list(sys.modules.items()):
        if name.startswith(("repro", "benchmarks")) and module is not None:
            for key, value in list(vars(module).items()):
                if callable(value):
                    refs[(name, key)] = value
    return refs


def _reduce(workload):
    """Shrink a constructed workload to a few seconds of work."""
    if workload.name == "dpu_sim":
        workload.regimes = {
            "compute": workload.regimes["compute"][:1],
            "dma": workload.regimes["dma"][:2],
        }
    elif workload.name == "serve_knee":
        workload.points = workload.points[:1]
    elif workload.name == "gates":
        workload.order = ["model"]
    return workload


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_pass(name):
    workload = _reduce(WORKLOADS[name](0))
    before = _references()
    with traced(f"workload.{name}") as session:
        result = workload.run_pass(session.tracer)
    after = _references()
    assert result.failed == 0, result.notes
    assert result.attempted > 0
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed

    records = merge_records(result.records) if result.records else session.records
    from repro.obs.export import path_tree

    selfs = [entry["self_wall_s"] for entry in path_tree(records).values()]
    roots = [r["wall_s"] for r in records if r["parent_id"] is None]
    assert min(selfs) >= 0.0
    assert sum(selfs) <= sum(roots) * (1 + 1e-9)
    assert sum(roots) <= session.wall_s

    from benchmarks.wall.layers import span_metrics

    metrics = span_metrics(records)
    assert set(metrics) == set(PER_LAYER) - WORKLOAD_LEVEL
    if name != "dpu_sim":
        assert metrics["pim.sim.run.calls"] == 0
    if name in ("dpu_sim", "serve_knee"):
        assert metrics["poly.ntt.calls"] == 0
        assert metrics["core.encrypt.calls"] == 0
    if name == "he_rings":
        assert metrics["core.multiply.p50_ms.n4096"] > 0


def _git_status():
    proc = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
    )
    if proc.returncode != 0:
        pytest.skip("not a git checkout")
    return proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_reports_every_metric(trace):
    before = _git_status()
    proc = subprocess.run(
        [
            sys.executable,
            "benchmarks/wall/run.py",
            "--workload", "dpu_sim",
            "--seconds", "0",
            "--runs", "1",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())
    assert _git_status() == before


def test_refuses_without_sources(tmp_path):
    bench = tmp_path / "benchmarks" / "wall"
    bench.mkdir(parents=True)
    for path in pathlib.Path(run.__file__).parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/wall/run.py", "--workload", "dpu_sim"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
