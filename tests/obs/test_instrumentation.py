"""End-to-end instrumentation: fig1a under tracing, runner spans."""

import pytest

from repro.harness.runner import run_experiment
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.metrics import MetricsRegistry, get_registry, use_registry
from repro.obs.trace import Tracer, get_tracer, use_tracer


@pytest.fixture(scope="module")
def traced_fig1a():
    """Run fig1a once under a recording tracer + registry."""
    tracer = Tracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        rows = run_experiment("fig1a")
    return tracer, registry, rows


class TestFig1aSmoke:
    def test_at_least_one_span_per_kernel_launch(self, traced_fig1a):
        tracer, registry, _rows = traced_fig1a
        kernel_spans = [
            s for s in tracer.finished if s.name.startswith("pim.time_kernel.")
        ]
        snapshot = registry.snapshot()
        timed_kernels = sum(
            entry["value"]
            for name, entry in snapshot.items()
            if name.startswith("pim.kernels.")
        )
        assert timed_kernels >= 1
        assert len(kernel_spans) == timed_kernels
        # Every launch is covered by a span (launches >= timed calls).
        assert snapshot["pim.kernel_launches"]["value"] >= timed_kernels

    def test_kernel_spans_carry_timing_breakdown(self, traced_fig1a):
        tracer, _registry, _rows = traced_fig1a
        kernel_spans = [
            s for s in tracer.finished if s.name.startswith("pim.time_kernel.")
        ]
        assert kernel_spans
        for span in kernel_spans:
            assert span.attrs["compute_cycles"] > 0
            assert span.attrs["dma_cycles"] > 0
            assert span.attrs["bound"] in ("compute", "dma")
            assert span.attrs["modelled_s"] > 0.0
            assert span.attrs["dpus_used"] >= 1

    def test_span_hierarchy_experiment_workload_backend(self, traced_fig1a):
        tracer, _registry, _rows = traced_fig1a
        by_id = {s.span_id: s for s in tracer.finished}
        experiment_spans = [
            s for s in tracer.finished if s.name.startswith("experiment.")
        ]
        assert len(experiment_spans) == 1
        workload_spans = [
            s for s in tracer.finished if s.name.startswith("workload.")
        ]
        backend_spans = [
            s for s in tracer.finished if s.name.startswith("backend.")
        ]
        assert workload_spans and backend_spans
        for span in workload_spans:
            assert by_id[span.parent_id].name.startswith("experiment.")
        for span in backend_spans:
            assert by_id[span.parent_id].name.startswith("workload.")

    def test_experiment_span_attrs(self, traced_fig1a):
        tracer, _registry, rows = traced_fig1a
        (span,) = [
            s for s in tracer.finished if s.name.startswith("experiment.")
        ]
        assert span.attrs["experiment"] == "fig1a"
        assert span.attrs["n_rows"] == len(rows)

    def test_metrics_counted_per_backend(self, traced_fig1a):
        _tracer, registry, rows = traced_fig1a
        snapshot = registry.snapshot()
        assert snapshot["backend.pim.requests"]["value"] == len(rows)
        assert snapshot["experiments.fig1a.runs"]["value"] == 1
        assert any(name.startswith("workload.") for name in snapshot)

    def test_trace_exports_as_valid_chrome_document(self, traced_fig1a):
        tracer, _registry, _rows = traced_fig1a
        validate_chrome_trace(to_chrome_trace(tracer.finished))


class TestDeviceExecutorInstrumentation:
    def test_device_add_records_limb_ops_and_span(self):
        from repro.core.params import BFVParameters
        from repro.pim.executor import DeviceEvaluator
        from repro.poly.modring import find_ntt_prime
        from repro.workloads.context import WorkloadContext

        params = BFVParameters(
            poly_degree=64,
            coeff_modulus=find_ntt_prime(60, 64),
            plain_modulus=257,
        )
        context = WorkloadContext.from_params(params, seed=17)
        device = DeviceEvaluator(params)
        a = context.encrypt_slots([1, 2, 3])
        b = context.encrypt_slots([10, 20, 30])

        tracer = Tracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_registry(registry):
            traced_sum, _run = device.add(a, b)
        plain_sum, _run = device.add(a, b)

        assert traced_sum == plain_sum  # tracing changes no values
        names = [s.name for s in tracer.finished]
        assert "device.add" in names
        snapshot = registry.snapshot()
        assert any(name.startswith("limb_ops.") for name in snapshot)
        assert any(name.startswith("device.") for name in snapshot)


class TestTracingChangesNoValues:
    def test_fig1a_rows_identical_traced_vs_untraced(self, traced_fig1a):
        _tracer, _registry, traced_rows = traced_fig1a
        untraced_rows = run_experiment("fig1a")
        assert traced_rows == untraced_rows

    def test_untraced_run_records_nothing(self):
        assert not get_tracer().enabled
        run_experiment("fig1a")
        assert get_tracer().finished == ()
        assert get_registry().snapshot() == {}
