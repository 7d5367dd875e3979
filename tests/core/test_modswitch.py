"""Modulus switching: budget preservation and correctness."""

import pytest

from repro.core import BatchEncoder, Decryptor
from repro.core.modswitch import (
    switch_modulus,
    switch_secret_key,
    switched_parameters,
)
from repro.core.noise import noise_budget
from repro.errors import ParameterError
from repro.poly.modring import find_ntt_prime
from repro.poly.polynomial import Polynomial
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


def _bgv_congruent_params():
    """BGV modulus-switch parameters: both primes == 1 (mod t)."""
    from repro.core.params import BFVParameters

    t = 257
    q = find_ntt_prime(60, 64, also_one_mod=t)
    q_small = find_ntt_prime(40, 64, also_one_mod=t)
    return BFVParameters(poly_degree=64, coeff_modulus=q, plain_modulus=t), q_small


class TestBGVSwitchModulus:
    def test_requires_congruent_moduli(self, q40):
        """The original BGV condition q == q' == 1 (mod t) is enforced
        — NTT-only primes are rejected with a helpful error."""
        from tests.conftest import make_tiny_params
        from repro.core import BatchEncoder
        from repro.core.bgv import BGVEncryptor, BGVKeyGenerator
        from repro.core.modswitch import bgv_switch_modulus

        params = make_tiny_params()  # q is NTT-friendly but != 1 mod t
        keys = BGVKeyGenerator(params, seed=14).generate()
        ct = BGVEncryptor(params, keys.public_key, seed=14).encrypt(
            BatchEncoder(params).encode([1])
        )
        with pytest.raises(ParameterError):
            bgv_switch_modulus(ct, q40)

    def test_bgv_decrypts_after_switch(self):
        """The BGV variant preserves the plaintext's mod-t residues
        through the rescale."""
        from repro.core import BatchEncoder
        from repro.core.bgv import (
            BGVDecryptor,
            BGVEncryptor,
            BGVKeyGenerator,
            BGVSecretKey,
        )
        from repro.core.modswitch import bgv_switch_modulus

        params, q40 = _bgv_congruent_params()
        keys = BGVKeyGenerator(params, seed=15).generate()
        encryptor = BGVEncryptor(params, keys.public_key, seed=16)
        encoder = BatchEncoder(params)
        values = [11, -23, 77]
        ct = encryptor.encrypt(encoder.encode(values))

        switched = bgv_switch_modulus(ct, q40)
        new_params = switched.params
        new_sk = BGVSecretKey(
            new_params,
            Polynomial(
                keys.secret_key.poly.centered(), new_params.coeff_modulus
            ),
        )
        decryptor = BGVDecryptor(new_params, new_sk)
        decoded = BatchEncoder(new_params).decode(decryptor.decrypt(switched))
        assert decoded[:3] == values

    def test_bgv_budget_shrinks_with_modulus_but_survives(self):
        """BGV's budget is log2(q / noise): dropping 20 modulus bits
        costs ~20 budget bits (noise scales down with q, headroom
        scales down too) — unlike BFV where the budget is preserved.
        The switch must still leave a decryptable ciphertext."""
        from repro.core import BatchEncoder
        from repro.core.bgv import (
            BGVEncryptor,
            BGVKeyGenerator,
            BGVSecretKey,
            bgv_noise_budget,
        )
        from repro.core.modswitch import bgv_switch_modulus

        params, q40 = _bgv_congruent_params()
        keys = BGVKeyGenerator(params, seed=17).generate()
        encryptor = BGVEncryptor(params, keys.public_key, seed=18)
        ct = encryptor.encrypt(BatchEncoder(params).encode([1]))
        before = bgv_noise_budget(ct, keys.secret_key)

        switched = bgv_switch_modulus(ct, q40)
        new_sk = BGVSecretKey(
            switched.params,
            Polynomial(
                keys.secret_key.poly.centered(),
                switched.params.coeff_modulus,
            ),
        )
        after = bgv_noise_budget(switched, new_sk)
        assert after > 0
        assert after < before


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

    def test_bgv_coefficients_keep_their_residues(self):
        from repro.core import BatchEncoder
        from repro.core.bgv import BGVEncryptor, BGVKeyGenerator
        from repro.core.modswitch import bgv_switch_modulus

        params, q40 = _bgv_congruent_params()
        q, t = params.coeff_modulus, params.plain_modulus
        keys = BGVKeyGenerator(params, seed=19).generate()
        ct = BGVEncryptor(params, keys.public_key, seed=20).encrypt(
            BatchEncoder(params).encode([5, -9, 100])
        )
        switched = bgv_switch_modulus(ct, q40)
        for poly, new in zip(ct.polys, switched.polys):
            expected = []
            for c in poly.centered():
                scaled = oracle._round_scale(c, q40, q)
                delta = (c - scaled) % t
                if delta > t // 2:
                    delta -= t
                expected.append((scaled + delta) % q40)
            assert list(new.coeffs) == expected
