"""Noise budget: measurement, monotonic consumption, and estimates."""

import pytest

from repro.core.noise import noise_budget
from repro.core.planner import (
    add_noise_growth_bits,
    fresh_noise_bits,
    initial_budget_bits,
    multiply_noise_growth_bits,
)


class TestMeasuredBudget:
    def test_fresh_positive(self, tiny_ctx):
        ct = tiny_ctx.encrypt_slots([1, 2, 3])
        assert noise_budget(ct, tiny_ctx.keys.secret_key) > 0

    def test_fresh_near_prediction(self, tiny_ctx):
        """Measured budget within a handful of bits of the analytic
        estimate (the estimate is a worst-case bound, so measured is
        higher)."""
        ct = tiny_ctx.encrypt_slots([1])
        measured = noise_budget(ct, tiny_ctx.keys.secret_key)
        predicted = initial_budget_bits(tiny_ctx.params)
        assert predicted - 2 < measured < predicted + 12

    def test_addition_consumes_little(self, tiny_ctx):
        ev = tiny_ctx.evaluator
        a = tiny_ctx.encrypt_slots([1])
        b = tiny_ctx.encrypt_slots([2])
        before = min(
            noise_budget(a, tiny_ctx.keys.secret_key),
            noise_budget(b, tiny_ctx.keys.secret_key),
        )
        after = noise_budget(ev.add(a, b), tiny_ctx.keys.secret_key)
        assert after >= before - 2  # ~1 bit per addition

    def test_multiplication_consumes_much(self, tiny_ctx):
        ev = tiny_ctx.evaluator
        a = tiny_ctx.encrypt_slots([2])
        before = noise_budget(a, tiny_ctx.keys.secret_key)
        product = ev.multiply(a, tiny_ctx.encrypt_slots([3]))
        after = noise_budget(product, tiny_ctx.keys.secret_key)
        assert before - after > 5  # multiplication is expensive

    def test_chain_monotonically_decreasing(self, tiny_ctx):
        ev = tiny_ctx.evaluator
        ct = tiny_ctx.encrypt_slots([1])
        budgets = [noise_budget(ct, tiny_ctx.keys.secret_key)]
        for _ in range(3):
            ct = ev.add(ct, ct)
            budgets.append(noise_budget(ct, tiny_ctx.keys.secret_key))
        assert budgets == sorted(budgets, reverse=True)

    def test_positive_budget_guarantees_decryption(self, tiny_ctx):
        """Depth-2 products still have budget > 0 and decrypt exactly."""
        ev = tiny_ctx.evaluator
        ct = tiny_ctx.encrypt_slots([3])
        ct = ev.multiply(ct, tiny_ctx.encrypt_slots([2]))
        ct = ev.multiply(ct, tiny_ctx.encrypt_slots([-2]))
        assert noise_budget(ct, tiny_ctx.keys.secret_key) > 0
        assert tiny_ctx.decrypt_slots(ct, 1) == [-12]


class TestAnalyticEstimates:
    def test_fresh_noise_increases_with_t(self):
        from tests.conftest import make_tiny_params
        from repro.core.params import BFVParameters

        small_t = make_tiny_params()
        big_t = BFVParameters(
            poly_degree=small_t.poly_degree,
            coeff_modulus=small_t.coeff_modulus,
            plain_modulus=65537,
        )
        assert fresh_noise_bits(big_t) > fresh_noise_bits(small_t)

    def test_initial_budget_positive_for_paper_levels(self):
        from repro.core.params import BFVParameters

        for bits in (54, 109):
            assert initial_budget_bits(BFVParameters.security_level(bits)) > 0

    def test_109_supports_multiplication_54_default_does_not(self):
        """The paper's 109-bit level has budget for multiplication
        with t=65537; the 54-bit level's default t does not — matching
        SEAL's guidance for n=2048."""
        from repro.core.params import BFVParameters

        p54 = BFVParameters.security_level(54)
        p109 = BFVParameters.security_level(109)
        assert initial_budget_bits(p54) < multiply_noise_growth_bits(p54)
        assert initial_budget_bits(p109) > 2 * multiply_noise_growth_bits(p109)

    def test_add_growth_logarithmic(self):
        assert add_noise_growth_bits(1024) == pytest.approx(10.0)
        assert add_noise_growth_bits(1) == 0.0


class TestPredictionEnvelope:
    """Measured budgets stay inside the analytic envelope at the real
    paper levels (n = 1024/2048/4096) — the property the calibration
    gate (:mod:`repro.obs.noisegate`) assumes.

    Two directions: the estimate must be *conservative* (never promise
    more budget than is measured — the direction that turns into
    silent decryption failures) and must not be uselessly pessimistic
    (measured within a bounded distance above it).
    """

    #: Fresh measured budget sits above the worst-case estimate by at
    #: most this much (empirically ~8-10 bits across the levels).
    SLACK_BITS = 16.0

    #: The multiply growth bound is worst-case over the ring dimension
    #: (``log2 n`` of headroom for fully-aligned coefficient growth),
    #: so one multiplication may fall this much further inside it.
    MULT_SLACK_BITS = 12.0

    @staticmethod
    def _context(bits: int):
        from repro.core.encoder import IntegerEncoder
        from repro.core.encryptor import SymmetricEncryptor
        from repro.core.evaluator import Evaluator
        from repro.core.keys import KeyGenerator
        from repro.core.params import BFVParameters

        params = BFVParameters.security_level(bits)
        keys = KeyGenerator(params, seed=3).generate()
        return (
            params,
            keys,
            SymmetricEncryptor(params, keys.secret_key, seed=4),
            IntegerEncoder(params),
            Evaluator(params),
        )

    @pytest.mark.parametrize("bits", [27, 54, 109])
    def test_k_additions_within_envelope(self, bits):
        params, keys, enc, encoder, ev = self._context(bits)
        k = 4
        acc = enc.encrypt(encoder.encode(1))
        for _ in range(k):
            acc = ev.add(acc, enc.encrypt(encoder.encode(1)))
        measured = noise_budget(acc, keys.secret_key)
        predicted = initial_budget_bits(params) - add_noise_growth_bits(
            k + 1
        )
        assert measured >= predicted - 1e-9, (
            f"{bits}b: estimate no longer conservative after {k} adds"
        )
        assert measured <= predicted + self.SLACK_BITS

    @pytest.mark.parametrize("bits", [27, 54, 109])
    def test_one_multiplication_within_envelope(self, bits):
        params, keys, enc, encoder, ev = self._context(bits)
        a = enc.encrypt(encoder.encode(2))
        b = enc.encrypt(encoder.encode(3))
        product = ev.multiply(a, b, relinearize=False)
        measured = noise_budget(product, keys.secret_key)
        predicted = initial_budget_bits(params) - multiply_noise_growth_bits(
            params
        )
        assert measured >= min(predicted, 0.0) - 1e-9, (
            f"{bits}b: estimate no longer conservative after multiply"
        )
        if predicted > 0:
            assert (
                measured
                <= predicted + self.SLACK_BITS + self.MULT_SLACK_BITS
            )
