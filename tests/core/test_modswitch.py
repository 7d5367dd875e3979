"""Modulus switching: budget preservation and correctness."""

import pytest

from repro.core.decryptor import Decryptor
from repro.core.encoder import BatchEncoder
from repro.core.modswitch import (
    switch_modulus,
    switch_secret_key,
    switched_parameters,
)
from repro.core.noise import noise_budget
from repro.errors import ParameterError
from repro.poly.modring import find_ntt_prime
from tests.core import reference_bfv as oracle


@pytest.fixture(scope="module")
def q40():
    return find_ntt_prime(40, 64)


class TestSwitchedParameters:
    def test_carries_ring_and_plain(self, tiny_params, q40):
        new = switched_parameters(tiny_params, q40)
        assert new.poly_degree == tiny_params.poly_degree
        assert new.plain_modulus == tiny_params.plain_modulus
        assert new.coeff_modulus == q40

    def test_clamps_relin_base(self, tiny_params, q40):
        new = switched_parameters(tiny_params, q40)
        assert new.relin_base_bits <= q40.bit_length()

    def test_rejects_increase(self, tiny_params):
        with pytest.raises(ParameterError):
            switched_parameters(
                tiny_params, tiny_params.coeff_modulus * 2 + 1
            )

    def test_rejects_below_plain_modulus(self, tiny_params):
        with pytest.raises(ParameterError):
            switched_parameters(tiny_params, 100)


class TestSwitchModulus:
    def test_fresh_ciphertext_decrypts_after_switch(self, tiny_ctx, q40):
        ct = tiny_ctx.encrypt_slots([9, -4, 13])
        switched = switch_modulus(ct, q40)
        new_sk = switch_secret_key(tiny_ctx.keys.secret_key, switched.params)
        decryptor = Decryptor(switched.params, new_sk)
        encoder = BatchEncoder(switched.params)
        assert encoder.decode(decryptor.decrypt(switched))[:3] == [9, -4, 13]

    def test_budget_approximately_preserved(self, tiny_ctx, q40):
        """The invariant noise survives the rescale: the budget drops
        by at most the rounding term, not by the 20 dropped modulus
        bits."""
        ct = tiny_ctx.evaluator.multiply(
            tiny_ctx.encrypt_slots([6, -7]), tiny_ctx.encrypt_slots([3, 3])
        )
        before = noise_budget(ct, tiny_ctx.keys.secret_key)
        switched = switch_modulus(ct, q40)
        new_sk = switch_secret_key(tiny_ctx.keys.secret_key, switched.params)
        after = noise_budget(switched, new_sk)
        assert after == pytest.approx(before, abs=2.0)

    def test_post_switch_evaluation_works(self, tiny_ctx, q40):
        """Switched ciphertexts support further (additive) evaluation."""
        from repro.core.evaluator import Evaluator

        a = switch_modulus(tiny_ctx.encrypt_slots([5]), q40)
        b = switch_modulus(tiny_ctx.encrypt_slots([8]), q40)
        total = Evaluator(a.params).add(a, b)
        new_sk = switch_secret_key(tiny_ctx.keys.secret_key, a.params)
        decryptor = Decryptor(a.params, new_sk)
        assert BatchEncoder(a.params).decode(decryptor.decrypt(total))[0] == 13

    def test_device_cost_shrinks(self, tiny_ctx, q40):
        """The point of switching on PIM: fewer limbs per coefficient.

        60-bit coefficients need 2 limbs; 40-bit still need 2; check
        via the paper levels instead: 109-bit (4 limbs) -> 54-bit
        (2 limbs) halves container width."""
        from repro.core.params import BFVParameters

        p109 = BFVParameters.security_level(109)
        smaller = switched_parameters(
            p109, find_ntt_prime(54, p109.poly_degree)
        )
        assert smaller.limbs_per_coefficient < p109.limbs_per_coefficient

    def test_size_three_switches_too(self, tiny_ctx, q40):
        sq = tiny_ctx.evaluator.square(
            tiny_ctx.encrypt_slots([3]), relinearize=False
        )
        switched = switch_modulus(sq, q40)
        assert switched.size == 3
        new_sk = switch_secret_key(tiny_ctx.keys.secret_key, switched.params)
        decryptor = Decryptor(switched.params, new_sk)
        assert BatchEncoder(switched.params).decode(
            decryptor.decrypt(switched)
        )[0] == 9


class TestSwitchSecretKey:
    def test_same_ternary_coefficients(self, tiny_ctx, q40, tiny_params):
        new_params = switched_parameters(tiny_params, q40)
        new_sk = switch_secret_key(tiny_ctx.keys.secret_key, new_params)
        assert new_sk.poly.centered() == tiny_ctx.keys.secret_key.poly.centered()

    def test_rejects_degree_change(self, tiny_ctx, tiny128_params):
        with pytest.raises(ParameterError):
            switch_secret_key(tiny_ctx.keys.secret_key, tiny128_params)


class TestExactCoefficients:
    """Every switched coefficient equals the scalar rounding oracle."""

    def test_bfv_coefficients(self, tiny_ctx, q40):
        ct = tiny_ctx.evaluator.multiply(
            tiny_ctx.encrypt_slots([6, -7]), tiny_ctx.encrypt_slots([3, 3])
        )
        q = ct.params.coeff_modulus
        centered = [poly.centered() for poly in ct.polys]
        assert min(map(min, centered)) < 0 < max(map(max, centered))
        switched = switch_modulus(ct, q40)
        for coeffs, new in zip(centered, switched.polys):
            assert list(new.coeffs) == [
                oracle._round_scale(c, q40, q) % q40 for c in coeffs
            ]
