"""The ext_energy model per backend: power envelopes, PIM proportionality.

``ext_energy`` prices each device request once and multiplies its
modelled seconds by the active power :mod:`repro.obs.energy` configures
(:func:`repro.obs.energy.envelope_joules`), summed per workload by
:func:`repro.obs.energy.workload_joules`. These tests pin the watts it
charges per backend and the platform ranking it produces.
"""

import pytest

from repro.backends import OpRequest, get_backend
from repro.obs.energy import (
    DEFAULT_ENERGY_CONFIG,
    envelope_joules,
    workload_joules,
)

CONFIG = DEFAULT_ENERGY_CONFIG


def req(n_elements=8192 * 100, units=100, op="vec_add"):
    return OpRequest(
        op=op, width_bits=128, n_elements=n_elements, work_units=units
    )


def watts(name: str, request: OpRequest) -> float:
    """The active power ``ext_energy`` charged for one request."""
    return envelope_joules(get_backend(name), request) / (
        get_backend(name).time_op(request).seconds
    )


class TestActivePower:
    def test_cpu_full_envelope(self):
        # i5-8250U TDP plus DDR4 stream power, shared with CPU-SEAL.
        assert CONFIG.cpu_watts == 15.0 + 5.0
        for name in ("cpu", "cpu-seal"):
            seconds = get_backend(name).time_op(req()).seconds
            assert envelope_joules(get_backend(name), req()) == (
                seconds * CONFIG.cpu_watts
            )

    def test_gpu_full_envelope(self):
        assert CONFIG.gpu_watts == 250.0
        seconds = get_backend("gpu").time_op(req()).seconds
        assert envelope_joules(get_backend("gpu"), req()) == (
            seconds * CONFIG.gpu_watts
        )

    def test_pim_scales_with_engaged_dpus(self):
        assert CONFIG.dpu_active_watts == 1.2 / 8
        small = watts("pim", req(units=100))
        large = watts("pim", req(n_elements=8192 * 1000, units=1000))
        assert small == pytest.approx(100 * CONFIG.dpu_active_watts)
        assert large == pytest.approx(1000 * CONFIG.dpu_active_watts)

    def test_full_system_below_gpu_envelope(self):
        """Even fully engaged, the PIM subsystem draws less board power
        than the A100."""
        full = watts("pim", req(n_elements=8192 * 4000, units=4000))
        assert full == pytest.approx(2524 * CONFIG.dpu_active_watts)
        assert full > CONFIG.gpu_watts  # ...actually above at 1.2 W/chip x 316
        # The interesting comparison is energy (power x time), below.


class TestEnergyEstimates:
    def test_joules_is_power_times_time(self):
        cpu = get_backend("cpu")
        pim = get_backend("pim")
        assert envelope_joules(cpu, req()) == (
            cpu.time_op(req()).seconds * CONFIG.cpu_watts
        )
        timing = pim.time_op(req())
        assert envelope_joules(pim, req()) == timing.seconds * (
            CONFIG.dpu_active_watts * timing.detail["dpus_used"]
        )

    def test_pim_wins_addition_energy(self):
        """For the addition workloads PIM wins time by 30-130x and the
        power gap cannot erase that — PIM is the energy winner too."""
        from repro.workloads import MeanWorkload

        workload = MeanWorkload(n_users=2560)
        pim = workload_joules(get_backend("pim"), workload)
        for name in ("cpu", "cpu-seal", "gpu"):
            assert pim < workload_joules(get_backend(name), workload), name

    def test_seal_wins_multiplication_energy(self):
        """For multiplication-heavy workloads the 20 W CPU running the
        RNS+NTT algorithm is the most energy-efficient platform — the
        algorithmic advantage compounds with the small envelope."""
        from repro.workloads import VarianceWorkload

        workload = VarianceWorkload(n_users=2560)
        seal = workload_joules(get_backend("cpu-seal"), workload)
        for name in ("cpu", "pim", "gpu"):
            assert seal < workload_joules(get_backend(name), workload), name

    def test_custom_cpu_worst_at_multiplication(self):
        from repro.workloads import VarianceWorkload

        workload = VarianceWorkload(n_users=1280)
        cpu = workload_joules(get_backend("cpu"), workload)
        for name in ("cpu-seal", "pim", "gpu"):
            assert cpu > workload_joules(get_backend(name), workload), name


class TestExperiment:
    def test_ext_energy_rows(self):
        from repro.harness.experiments import get_experiment

        rows = get_experiment("ext_energy").run()
        assert len(rows) == 3
        for row in rows:
            assert set(row.series) == {"cpu", "pim", "cpu-seal", "gpu"}
            assert all(v > 0 for v in row.series.values())

    def test_rows_are_the_workload_sums(self):
        from repro.harness.experiments import get_experiment
        from repro.workloads import MeanWorkload

        mean_row = get_experiment("ext_energy").run()[0]
        workload = MeanWorkload(n_users=2560)
        for name in ("cpu", "pim", "cpu-seal", "gpu"):
            assert mean_row.series[name] == workload_joules(
                get_backend(name), workload
            ), name

    def test_mean_row_pim_best(self):
        from repro.harness.experiments import get_experiment

        mean_row = get_experiment("ext_energy").run()[0]
        assert mean_row.series["pim"] == min(mean_row.series.values())

    def test_each_pim_request_is_priced_once(self, monkeypatch):
        """One time_op call per device request on every platform."""
        from repro.backends.base import Backend
        from repro.harness.experiments import get_experiment

        calls: dict = {}
        original = Backend.time_op

        def counting(self, request):
            calls[self.name] = calls.get(self.name, 0) + 1
            return original(self, request)

        monkeypatch.setattr(Backend, "time_op", counting)
        get_experiment("ext_energy").run()
        assert len(set(calls.values())) == 1, calls
        assert set(calls) == {"cpu", "pim", "cpu-seal", "gpu"}
