"""The energy model, movement ledger, and ENERGY-DRIFT gate.

Unit-tests the per-kernel pricing in :mod:`repro.obs.energy` and
drives the full record → check → perturb → re-baseline gate cycle —
both through the library API and the real ``repro energy`` CLI. The
first-order ``ext_energy`` watts are pinned in
``tests/backends/test_energy.py``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import obs
from repro.errors import ParameterError
from repro.harness.cli import main
from repro.obs import energy as en
from repro.obs import gate
from repro.pim.kernels import VecAddKernel
from repro.pim.runtime import PIMRuntime


@pytest.fixture()
def timing():
    return PIMRuntime().time_kernel(
        VecAddKernel(2), 4096, include_transfer=True
    )


class TestEnergyConfig:
    def test_backend_watts_dispatch(self):
        config = en.EnergyConfig()
        assert 0.0 < config.dpu_idle_watts < config.dpu_active_watts
        assert config.backend_watts("cpu") == config.cpu_watts
        assert config.backend_watts("cpu-seal") == config.cpu_watts
        assert config.backend_watts("gpu") == config.gpu_watts
        with pytest.raises(ParameterError, match="pim"):
            config.backend_watts("pim")

    def test_use_energy_config_scopes_the_global(self):
        tweaked = dataclasses.replace(
            en.DEFAULT_ENERGY_CONFIG, gpu_watts=400.0
        )
        assert en.get_energy_config() is en.DEFAULT_ENERGY_CONFIG
        with en.use_energy_config(tweaked) as active:
            assert active is tweaked
            assert en.get_energy_config() is tweaked
        assert en.get_energy_config() is en.DEFAULT_ENERGY_CONFIG


class TestKernelEnergy:
    def test_components_and_total(self, timing):
        config = en.EnergyConfig()
        energy = en.kernel_energy(timing, config)
        ledger = en.movement_bytes(timing)

        busy = max(timing.compute_cycles, timing.dma_cycles)
        active_s = timing.kernel_seconds * (timing.compute_cycles / busy)
        stall_s = timing.kernel_seconds - active_s
        assert energy.pipeline_j == pytest.approx(
            timing.dpus_used * active_s * config.dpu_active_watts
        )
        assert energy.idle_j == pytest.approx(
            timing.dpus_used
            * (stall_s + timing.launch_seconds)
            * config.dpu_idle_watts
        )
        assert energy.dma_j == pytest.approx(
            ledger["wram_mram"] * config.mram_dma_pj_per_byte * 1e-12
        )
        assert energy.fault_j == 0.0
        assert energy.total_j == pytest.approx(
            energy.pipeline_j
            + energy.idle_j
            + energy.dma_j
            + energy.host_to_dpu_j
            + energy.dpu_to_host_j
        )

    def test_fault_seconds_bill_standby_power(self, timing):
        config = en.EnergyConfig()
        faulted = dataclasses.replace(timing, fault_seconds=0.25)
        energy = en.kernel_energy(faulted, config)
        assert energy.fault_j == pytest.approx(
            timing.dpus_used * 0.25 * config.dpu_idle_watts
        )
        # Fault retries add joules without touching the kernel's own.
        clean = en.kernel_energy(timing, config)
        assert energy.pipeline_j == clean.pipeline_j
        assert energy.total_j == pytest.approx(
            clean.total_j + energy.fault_j
        )

    def test_as_attrs_is_flat_and_complete(self, timing):
        attrs = en.kernel_energy(timing).as_attrs()
        assert attrs["energy_total_j"] == pytest.approx(
            sum(
                attrs[key]
                for key in attrs
                if key.endswith("_j") and key != "energy_total_j"
            )
        )
        assert attrs["movement_wram_mram_bytes"] > 0
        assert all(isinstance(v, (int, float)) for v in attrs.values())

    def test_pricing_follows_the_active_config(self, timing):
        doubled = dataclasses.replace(
            en.DEFAULT_ENERGY_CONFIG,
            dpu_active_watts=en.DEFAULT_ENERGY_CONFIG.dpu_active_watts * 2,
        )
        baseline = en.kernel_energy(timing)
        with en.use_energy_config(doubled):
            perturbed = en.kernel_energy(timing)
        assert perturbed.pipeline_j == pytest.approx(
            baseline.pipeline_j * 2
        )


class TestOpEnergy:
    def test_cpu_burns_envelope_for_modelled_runtime(self):
        profile = en.op_energy("cpu", 2.0, 1024)
        assert profile["joules"] == pytest.approx(2.0 * (15.0 + 5.0))
        assert profile["watts"] == 15.0 + 5.0
        assert profile["traffic_bytes"] == 1024
        assert profile["traffic_level"] == "host_dram"

    def test_gpu_traffic_is_hbm(self):
        profile = en.op_energy("gpu", 0.5, 4096, traffic_level="hbm")
        assert profile["joules"] == pytest.approx(0.5 * 250.0)
        assert profile["traffic_level"] == "hbm"

    def test_pim_has_no_envelope(self):
        with pytest.raises(ParameterError):
            en.op_energy("pim", 1.0, 0)


class TestEnergyRollup:
    def test_parses_counter_families(self):
        registry = obs.MetricsRegistry()
        registry.counter("energy.joules.pim.vec_add").inc(1.5)
        registry.counter("energy.joules.pim.vec_mul").inc(0.5)
        registry.counter("energy.joules.cpu").inc(10.0)
        registry.counter("movement.bytes.wram_mram").inc(4096)
        registry.counter("movement.bytes.hbm").inc(128)
        registry.gauge("energy.joules.ignored_gauge").set(99.0)
        rollup = en.energy_rollup(registry.snapshot())
        assert rollup["joules"] == {"pim": 2.0, "cpu": 10.0}
        assert rollup["pim_kernels"] == {"vec_add": 1.5, "vec_mul": 0.5}
        assert rollup["movement_bytes"] == {
            "wram_mram": 4096.0,
            "hbm": 128.0,
        }

    def test_empty_snapshot(self):
        assert en.energy_rollup({}) == {
            "joules": {},
            "pim_kernels": {},
            "movement_bytes": {},
        }


class TestCaptureAndPersistence:
    def test_capture_is_deterministic(self):
        first = en.capture_energy_experiment("fig1a")
        second = en.capture_energy_experiment("fig1a")
        assert first == second
        assert first["joules"]["pim"] > 0.0
        assert set(first["edp_js"]) <= set(first["modelled_s"])

    def test_run_round_trip(self, tmp_path):
        doc = en.capture_energy_run(ids=["fig1a"])
        path = tmp_path / "energy.json"
        en.LEDGER.write(doc, path)
        assert en.read_energy_run(path) == doc
        en.LEDGER.append(doc, tmp_path / "hist.jsonl")
        en.LEDGER.append(doc, tmp_path / "hist.jsonl")
        assert en.LEDGER.history(tmp_path / "hist.jsonl") == [doc, doc]

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(ParameterError, match="repro energy record"):
            en.read_energy_run(tmp_path / "absent.json")

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 99, "experiments": {}}))
        with pytest.raises(ParameterError, match="unsupported"):
            en.read_energy_run(path)


class TestEnergyGate:
    def test_identical_runs_pass(self):
        baseline = en.capture_energy_run(ids=["fig1a"])
        current = en.capture_energy_run(ids=["fig1a"])
        verdicts = en.check_energy_runs(baseline, current)
        assert [v.verdict for v in verdicts] == [gate.VERDICT_OK] * 2
        assert gate.exit_code(verdicts) == 0

    def test_perturbed_constant_is_energy_drift(self):
        baseline = en.capture_energy_run(ids=["fig1a"])
        tweaked = dataclasses.replace(
            en.DEFAULT_ENERGY_CONFIG, mram_dma_pj_per_byte=19.0
        )
        with en.use_energy_config(tweaked):
            current = en.capture_energy_run(ids=["fig1a"])
        verdicts = en.check_energy_runs(baseline, current)
        by_name = {v.key: v for v in verdicts}
        assert by_name["<energy-config>"].verdict == gate.ENERGY_DRIFT
        assert by_name["fig1a"].verdict == gate.ENERGY_DRIFT
        assert gate.exit_code(verdicts) == 1
        report = en.GATE.render_check(verdicts, baseline, current)
        assert "ENERGY-DRIFT" in report
        assert "--update" in report

    def test_new_experiment_is_advisory(self):
        baseline = en.capture_energy_run(ids=["fig1a"])
        current = en.capture_energy_run(ids=["fig1a", "obs_tasklets"])
        verdicts = en.check_energy_runs(baseline, current)
        by_name = {v.key: v for v in verdicts}
        assert by_name["obs_tasklets"].verdict == gate.VERDICT_NEW
        assert gate.exit_code(verdicts) == 0


class TestEnergyCliEndToEnd:
    @pytest.fixture()
    def paths(self, tmp_path):
        return {
            "baseline": str(tmp_path / "energy.json"),
            "history": str(tmp_path / "energy-history.jsonl"),
            "html": str(tmp_path / "energy.html"),
        }

    def _energy(self, command, paths, *extra):
        return main(
            [
                "energy",
                command,
                *extra,
                "--baseline",
                paths["baseline"],
                "--history",
                paths["history"],
            ]
        )

    def test_record_check_report_cycle(self, paths, capsys):
        assert self._energy("record", paths, "fig1a") == 0
        out = capsys.readouterr().out
        assert "recorded modelled energy for 1 experiments" in out

        baseline = json.loads(open(paths["baseline"]).read())
        assert baseline["schema"] == en.SCHEMA_VERSION
        assert set(baseline["experiments"]) == {"fig1a"}
        assert baseline["run_id"] and baseline["git_sha"]

        assert self._energy("check", paths) == 0
        out = capsys.readouterr().out
        assert "0 ENERGY-DRIFT" in out

        assert self._energy("report", paths, "-o", paths["html"]) == 0
        html = open(paths["html"]).read()
        assert "<svg" in html and "fig1a" in html
        assert "wram" in html.lower()

    def test_perturbed_check_fails_then_update_adopts(self, paths, capsys):
        assert self._energy("record", paths, "fig1a") == 0
        capsys.readouterr()
        tweaked = dataclasses.replace(
            en.DEFAULT_ENERGY_CONFIG, host_link_pj_per_byte=61.0
        )
        try:
            en.set_energy_config(tweaked)
            assert self._energy("check", paths) == 1
            out = capsys.readouterr().out
            assert "ENERGY-DRIFT" in out
            assert self._energy("check", paths, "--update") == 0
        finally:
            en.set_energy_config(None)
        adopted = json.loads(open(paths["baseline"]).read())
        assert adopted["config"]["host_link_pj_per_byte"] == 61.0
        capsys.readouterr()
        assert self._energy("check", paths) == 1  # defaults drift now
        capsys.readouterr()
