"""The per-ciphertext noise ledger: stamps, cost model, lifecycle."""

from __future__ import annotations

import gc

import pytest

from repro.core.noise import noise_budget
from repro.core.planner import (
    add_noise_growth_bits,
    initial_budget_bits,
    keyswitch_floor_bits,
    multiply_noise_growth_bits,
    multiply_plain_noise_growth_bits,
)
from repro.errors import ParameterError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.noise import (
    NULL_NOISE_LEDGER,
    NoiseLedger,
    NullNoiseLedger,
    get_noise_ledger,
    use_noise_ledger,
)
from repro.obs.trace import Tracer, use_tracer


@pytest.fixture()
def ledger():
    with use_noise_ledger(NoiseLedger()) as installed:
        yield installed


class TestStamping:
    def test_fresh_encryption_stamped(self, tiny_ctx, ledger):
        ct = tiny_ctx.encrypt_slots([1, 2])
        stamp = ledger.lookup(ct)
        assert stamp is not None
        assert stamp.op == "encrypt"
        assert stamp.depth == 0 and stamp.key_switches == 0
        assert stamp.pred_bits == pytest.approx(
            initial_budget_bits(tiny_ctx.params)
        )

    def test_add_consumes_one_bit(self, tiny_ctx, ledger):
        a = tiny_ctx.encrypt_slots([1])
        b = tiny_ctx.encrypt_slots([2])
        result = tiny_ctx.evaluator.add(a, b)
        stamp = ledger.lookup(result)
        assert stamp.op == "add"
        assert stamp.pred_bits == pytest.approx(
            initial_budget_bits(tiny_ctx.params) - add_noise_growth_bits(2)
        )

    def test_negate_and_add_plain_free(self, tiny_ctx, ledger):
        ct = tiny_ctx.encrypt_slots([3])
        fresh = ledger.lookup(ct).pred_bits
        negated = tiny_ctx.evaluator.negate(ct)
        assert ledger.lookup(negated).pred_bits == pytest.approx(fresh)
        plain = tiny_ctx.batch_encoder.encode([1])
        shifted = tiny_ctx.evaluator.add_plain(ct, plain)
        assert ledger.lookup(shifted).pred_bits == pytest.approx(fresh)

    def test_multiply_costs_and_bumps_depth(self, tiny_ctx, ledger):
        a = tiny_ctx.encrypt_slots([2])
        b = tiny_ctx.encrypt_slots([3])
        product = tiny_ctx.evaluator.multiply(a, b, relinearize=False)
        stamp = ledger.lookup(product)
        assert stamp.op == "multiply"
        assert stamp.depth == 1 and stamp.key_switches == 0
        assert stamp.pred_bits == pytest.approx(
            initial_budget_bits(tiny_ctx.params)
            - multiply_noise_growth_bits(tiny_ctx.params)
        )

    def test_relinearize_caps_at_keyswitch_floor(self, tiny_ctx, ledger):
        a = tiny_ctx.encrypt_slots([2])
        b = tiny_ctx.encrypt_slots([3])
        result = tiny_ctx.evaluator.multiply(a, b)  # multiply + relin
        stamp = ledger.lookup(result)
        assert stamp.op == "relinearize"
        assert stamp.key_switches == 1
        floor = keyswitch_floor_bits(
            tiny_ctx.params
        ) - add_noise_growth_bits(1)
        assert stamp.pred_bits <= floor + 1e-9

    def test_multiply_plain_uses_operand_norm(self, tiny_ctx, ledger):
        ct = tiny_ctx.encrypt_slots([4])
        plain = tiny_ctx.batch_encoder.encode([3])
        result = tiny_ctx.evaluator.multiply_plain(ct, plain)
        stamp = ledger.lookup(result)
        assert stamp.op == "multiply_plain"
        assert stamp.pred_bits == pytest.approx(
            initial_budget_bits(tiny_ctx.params)
            - multiply_plain_noise_growth_bits(plain)
        )

    def test_rotation_records_key_switch(self, tiny_ctx, ledger):
        from repro.core.galois import rotate_rows
        from repro.core.keys import KeyGenerator

        galois = KeyGenerator(
            tiny_ctx.params, seed=5
        ).generate_galois_keys(tiny_ctx.keys.secret_key, steps=[1])
        ct = tiny_ctx.encrypt_slots([1, 2, 3])
        rotated = rotate_rows(ct, 1, galois)
        stamp = ledger.lookup(rotated)
        assert stamp.op == "rotate"
        assert stamp.key_switches == 1

    def test_mod_switch_tracked_under_new_params(self, tiny_ctx, ledger):
        from repro.core.modswitch import switch_modulus
        from repro.poly.modring import find_ntt_prime

        new_q = find_ntt_prime(45, tiny_ctx.params.poly_degree)
        ct = tiny_ctx.encrypt_slots([1])
        switched = switch_modulus(ct, new_q)
        stamp = ledger.lookup(switched)
        assert stamp.op == "mod_switch"
        assert stamp.pred_bits < ledger.lookup(ct).pred_bits

    def test_unknown_op_rejected(self, tiny_ctx, ledger):
        ct = tiny_ctx.encrypt_slots([1])
        with pytest.raises(ParameterError, match="unknown noise-ledger op"):
            ledger.predict("transmogrify", (ct,))


class TestLifecycle:
    def test_untracked_inputs_degrade_gracefully(self, tiny_ctx):
        # Encrypted while the null ledger was installed: untracked.
        a = tiny_ctx.encrypt_slots([1])
        b = tiny_ctx.encrypt_slots([2])
        with use_noise_ledger(NoiseLedger()) as ledger:
            result = tiny_ctx.evaluator.add(a, b)
            assert ledger.lookup(result) is None
            assert ledger.record_op("add", result, (a, b)) is None

    def test_entries_die_with_their_ciphertexts(self, tiny_ctx, ledger):
        ct = tiny_ctx.encrypt_slots([1])
        assert len(ledger) == 1
        del ct
        gc.collect()
        assert len(ledger) == 0

    def test_context_manager_restores_previous(self):
        assert get_noise_ledger() is NULL_NOISE_LEDGER
        with use_noise_ledger(NoiseLedger()) as inner:
            assert get_noise_ledger() is inner
        assert get_noise_ledger() is NULL_NOISE_LEDGER

    def test_null_ledger_is_inert_but_measures(self, tiny_ctx):
        null = NullNoiseLedger()
        ct = tiny_ctx.encrypt_slots([5])
        assert null.lookup(ct) is None
        assert null.record_op("add", ct, (ct, ct)) is None
        assert len(null) == 0
        measured = null.measure(ct, tiny_ctx.keys.secret_key)
        assert measured == pytest.approx(
            noise_budget(ct, tiny_ctx.keys.secret_key)
        )


class TestMeasurement:
    def test_measure_records_next_to_stamp(self, tiny_ctx, ledger):
        ct = tiny_ctx.encrypt_slots([1])
        measured = ledger.measure(ct, tiny_ctx.keys.secret_key)
        stamp = ledger.lookup(ct)
        assert stamp.meas_bits == measured
        assert stamp.as_dict()["meas_bits"] == measured

    def test_prediction_is_conservative(self, tiny_ctx, ledger):
        """The stamp never promises more budget than is measured."""
        a = tiny_ctx.encrypt_slots([2])
        b = tiny_ctx.encrypt_slots([3])
        product = tiny_ctx.evaluator.multiply(a, b)
        stamp = ledger.lookup(product)
        measured = ledger.measure(product, tiny_ctx.keys.secret_key)
        assert stamp.pred_bits <= measured + 1e-9


class TestTraceAndMetrics:
    def test_span_gains_noise_attrs(self, tiny_ctx, ledger):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("workload.step") as span:
                a = tiny_ctx.encrypt_slots([1])
                b = tiny_ctx.encrypt_slots([2])
                result = tiny_ctx.evaluator.add(a, b)
                ledger.measure(result, tiny_ctx.keys.secret_key)
        assert "noise_pred_bits" in span.attrs
        assert "noise_meas_bits" in span.attrs
        assert span.attrs["noise_pred_bits"] == pytest.approx(
            ledger.lookup(result).pred_bits
        )

    def test_counters_roll_up_per_op_class(self, tiny_ctx, ledger):
        registry = MetricsRegistry()
        with use_registry(registry):
            a = tiny_ctx.encrypt_slots([1])
            b = tiny_ctx.encrypt_slots([2])
            tiny_ctx.evaluator.add(a, b)
            tiny_ctx.evaluator.multiply(a, b)
        snapshot = registry.snapshot()
        assert snapshot["noise.ops.encrypt"]["value"] == 2
        assert snapshot["noise.ops.add"]["value"] == 1
        assert snapshot["noise.ops.multiply"]["value"] == 1
        assert snapshot["noise.ops.relinearize"]["value"] == 1
        assert snapshot["noise.bits_consumed.multiply"]["value"] > 0
