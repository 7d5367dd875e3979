"""Budget planner: predictions versus measured reality."""

import pytest

from repro.core.params import BFVParameters
from repro.core.planner import CircuitShape, plan_budget
from repro.errors import ParameterError


class TestCircuitShape:
    def test_defaults(self):
        shape = CircuitShape()
        assert shape.multiplicative_depth == 0
        assert shape.additions_per_level == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"multiplicative_depth": -1},
            {"additions_per_level": 0},
            {"rotations": -2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            CircuitShape(**kwargs)


class TestPlanBudget:
    def test_depth_two_feasible_at_109(self):
        params = BFVParameters.security_level(109)
        plan = plan_budget(params, CircuitShape(multiplicative_depth=2))
        assert plan.feasible

    def test_variance_workload_feasible_at_109(self):
        params = BFVParameters.security_level(109)
        plan = plan_budget(
            params, CircuitShape(multiplicative_depth=1, additions_per_level=2560)
        )
        assert plan.feasible

    def test_depth_one_infeasible_at_27(self):
        params = BFVParameters.security_level(27)
        plan = plan_budget(params, CircuitShape(multiplicative_depth=1))
        assert not plan.feasible

    def test_additions_only_feasible_at_27(self):
        """The 27-bit level handles a short addition chain."""
        params = BFVParameters.security_level(27)
        plan = plan_budget(
            params, CircuitShape(additions_per_level=2), margin_bits=1.0
        )
        assert plan.feasible

    def test_keyswitch_ceiling_applies(self):
        """Rotations cap the budget even with zero multiplications."""
        params = BFVParameters.security_level(109)
        no_rot = plan_budget(params, CircuitShape())
        with_rot = plan_budget(params, CircuitShape(rotations=4))
        assert with_rot.remaining_bits < no_rot.remaining_bits

    def test_more_keyswitches_cost_logarithmically(self):
        params = BFVParameters.security_level(109)
        one = plan_budget(params, CircuitShape(rotations=1))
        four = plan_budget(params, CircuitShape(rotations=4))
        assert one.remaining_bits - four.remaining_bits == pytest.approx(2.0)

    def test_rejects_negative_margin(self):
        with pytest.raises(ParameterError):
            plan_budget(BFVParameters.security_level(54), CircuitShape(), -1)

    def test_describe_mentions_verdict(self):
        plan = plan_budget(
            BFVParameters.security_level(109), CircuitShape(1, 4)
        )
        assert "feasible" in plan.describe()


class TestPredictionsMatchReality:
    """Feasible plans must actually decrypt (the planner's contract)."""

    def test_feasible_circuit_decrypts(self, tiny_ctx):
        plan = plan_budget(
            tiny_ctx.params, CircuitShape(multiplicative_depth=1)
        )
        assert plan.feasible
        ev = tiny_ctx.evaluator
        product = ev.multiply(
            tiny_ctx.encrypt_slots([7]), tiny_ctx.encrypt_slots([8])
        )
        assert tiny_ctx.decrypt_slots(product, 1) == [56]

    def test_measured_budget_above_prediction(self, tiny_ctx):
        """The plan is conservative: measured >= predicted remaining."""
        from repro.core.noise import noise_budget

        plan = plan_budget(
            tiny_ctx.params, CircuitShape(multiplicative_depth=1)
        )
        ev = tiny_ctx.evaluator
        product = ev.multiply(
            tiny_ctx.encrypt_slots([2]), tiny_ctx.encrypt_slots([3])
        )
        measured = noise_budget(product, tiny_ctx.keys.secret_key)
        assert measured >= plan.remaining_bits - 1


class TestWorkloadCircuits:
    def test_paper_workloads_feasible_at_their_level(self):
        """Every Figure 2 configuration must be feasible at 109 bits —
        otherwise the paper's evaluation would decrypt garbage. Mean
        sums 2,560 users at depth 0, variance squares then sums 2,560,
        and linear regression multiplies then sums 640 users x 64
        ciphertexts."""
        params = BFVParameters.security_level(109)
        shapes = [
            CircuitShape(multiplicative_depth=0, additions_per_level=2560),
            CircuitShape(multiplicative_depth=1, additions_per_level=2560),
            CircuitShape(multiplicative_depth=1, additions_per_level=640 * 64),
        ]
        for shape in shapes:
            plan = plan_budget(params, shape)
            assert plan.feasible, plan.describe()


class TestHeadroomGuard:
    """The pre-op guard against noise-exhausted operations."""

    @staticmethod
    def _guarded_evaluator(ctx, margin_bits, strict):
        from repro.core.evaluator import Evaluator
        from repro.core.planner import HeadroomGuard

        guard = HeadroomGuard(margin_bits=margin_bits, strict=strict)
        return (
            Evaluator(ctx.params, ctx.keys.relin_key, guard=guard),
            guard,
        )

    def test_negative_margin_rejected(self):
        from repro.core.planner import HeadroomGuard

        with pytest.raises(ParameterError):
            HeadroomGuard(margin_bits=-1.0)

    def test_strict_guard_raises_before_the_op(self, tiny_ctx):
        from repro.errors import NoiseBudgetExhaustedError
        from repro.obs.noise import NoiseLedger, use_noise_ledger

        evaluator, guard = self._guarded_evaluator(
            tiny_ctx, margin_bits=10_000.0, strict=True
        )
        with use_noise_ledger(NoiseLedger()):
            a = tiny_ctx.encrypt_slots([2])
            b = tiny_ctx.encrypt_slots([3])
            with pytest.raises(NoiseBudgetExhaustedError, match="multiply"):
                evaluator.multiply(a, b)
        assert guard.violations == 1

    def test_lenient_guard_traces_and_counts(self, tiny_ctx):
        from repro.obs.metrics import MetricsRegistry, use_registry
        from repro.obs.noise import NoiseLedger, use_noise_ledger
        from repro.obs.trace import Tracer, use_tracer

        evaluator, guard = self._guarded_evaluator(
            tiny_ctx, margin_bits=10_000.0, strict=False
        )
        tracer, registry = Tracer(), MetricsRegistry()
        with use_noise_ledger(NoiseLedger()), use_tracer(
            tracer
        ), use_registry(registry):
            a = tiny_ctx.encrypt_slots([2])
            b = tiny_ctx.encrypt_slots([3])
            result = evaluator.multiply(a, b)  # proceeds anyway
        assert tiny_ctx.decrypt_slots(result, 1) == [6]
        assert guard.violations >= 1
        events = [s for s in tracer.finished if s.name == "noise.headroom"]
        assert events and events[0].attrs["op"] == "multiply"
        snapshot = registry.snapshot()
        assert snapshot["noise.headroom_violations"]["value"] >= 1

    def test_guard_passes_ops_with_headroom(self, tiny_ctx):
        from repro.obs.noise import NoiseLedger, use_noise_ledger

        evaluator, guard = self._guarded_evaluator(
            tiny_ctx, margin_bits=2.0, strict=True
        )
        with use_noise_ledger(NoiseLedger()):
            a = tiny_ctx.encrypt_slots([2])
            b = tiny_ctx.encrypt_slots([3])
            result = evaluator.add(a, b)
        assert guard.violations == 0
        assert tiny_ctx.decrypt_slots(result, 1) == [5]

    def test_guard_silent_without_a_recording_ledger(self, tiny_ctx):
        """With the null ledger there are no predictions to act on."""
        evaluator, guard = self._guarded_evaluator(
            tiny_ctx, margin_bits=10_000.0, strict=True
        )
        a = tiny_ctx.encrypt_slots([2])
        b = tiny_ctx.encrypt_slots([3])
        result = evaluator.multiply(a, b)  # no raise
        assert guard.violations == 0
        assert tiny_ctx.decrypt_slots(result, 1) == [6]
