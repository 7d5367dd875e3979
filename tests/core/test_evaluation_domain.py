"""Evaluation-domain BFV against the one-product-at-a-time oracle.

The production operations transform each distinct operand once per CRT
prime, keep key transforms on the key objects, and sum products in the
evaluation domain before one inverse transform. Their results are exact
integers, so every polynomial must equal the oracle's
(``tests/core/reference_bfv.py``) bit for bit, at the paper's rings
(n = 1024/2048/4096 for the 27/54/109-bit levels).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ciphertext import Plaintext
from repro.core.decryptor import Decryptor
from repro.core.encryptor import Encryptor, SymmetricEncryptor
from repro.core.evaluator import Evaluator
from repro.core.galois import rotate_rows, rotation_elements
from repro.core.keys import KeyGenerator
from repro.core.noise import noise_budget
from repro.core.params import BFVParameters
from repro.poly.crt import crt_moduli as _crt_moduli
from repro.poly.polynomial import (
    Operand,
    Polynomial,
    negacyclic_convolve,
    negacyclic_sum,
)
from tests.core import reference_bfv as oracle

LEVELS = (27, 54, 109)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
EXAMPLES = settings(max_examples=2, deadline=None)


class Level:
    """Keys and helpers for one security level, built once per module."""

    def __init__(self, bits: int):
        self.params = BFVParameters.security_level(bits)
        generator = KeyGenerator(self.params, seed=bits)
        self.keys = generator.generate()
        self.galois = (
            generator.generate_galois_keys(self.keys.secret_key, steps=[1, 2])
            if self.params.supports_batching
            else None
        )
        self.evaluator = Evaluator(self.params, relin_key=self.keys.relin_key)
        self.decryptor = Decryptor(self.params, self.keys.secret_key)

    def plaintext(self, seed: int) -> Plaintext:
        rng = random.Random(seed)
        t = self.params.plain_modulus
        n = self.params.poly_degree
        return Plaintext.from_coefficients(
            self.params, [rng.randrange(t) for _ in range(n)]
        )

    def encrypt(self, seed: int):
        encryptor = Encryptor(self.params, self.keys.public_key, seed=seed)
        return encryptor.encrypt(self.plaintext(seed))


@pytest.fixture(scope="module", params=LEVELS, ids=lambda bits: f"q{bits}")
def level(request) -> Level:
    return Level(request.param)


class TestAgainstTheOracle:
    @EXAMPLES
    @given(seed=SEEDS)
    def test_encrypt(self, level, seed):
        params, keys = level.params, level.keys
        plain = level.plaintext(seed)
        public = Encryptor(params, keys.public_key, seed=seed).encrypt(plain)
        assert public.polys == oracle.encrypt(
            params, keys.public_key, plain, seed
        ).polys
        symmetric = SymmetricEncryptor(params, keys.secret_key, seed=seed)
        assert symmetric.encrypt(plain).polys == oracle.symmetric_encrypt(
            params, keys.secret_key, plain, seed
        ).polys

    @EXAMPLES
    @given(seed=SEEDS)
    def test_multiply(self, level, seed):
        params = level.params
        a, b = level.encrypt(seed), level.encrypt(seed + 1)
        product = level.evaluator.multiply(a, b, relinearize=False)
        expected = oracle.tensor(params, a, b)
        assert product.polys == expected.polys
        relinearized = level.evaluator.multiply(a, b)
        assert relinearized.polys == oracle.relinearize(
            params, expected, level.keys.relin_key
        ).polys

    @EXAMPLES
    @given(seed=SEEDS)
    def test_square(self, level, seed):
        params = level.params
        a = level.encrypt(seed)
        expected = oracle.tensor(params, a, a)
        assert level.evaluator.square(a, relinearize=False).polys == expected.polys
        assert level.evaluator.multiply(a, a, relinearize=False).polys == (
            expected.polys
        )
        assert level.evaluator.square(a).polys == oracle.relinearize(
            params, expected, level.keys.relin_key
        ).polys

    @EXAMPLES
    @given(seed=SEEDS)
    def test_relinearize(self, level, seed):
        params = level.params
        a, b = level.encrypt(seed), level.encrypt(seed + 1)
        size3 = level.evaluator.multiply(a, b, relinearize=False)
        assert level.evaluator.relinearize(size3).polys == oracle.relinearize(
            params, size3, level.keys.relin_key
        ).polys

    @EXAMPLES
    @given(seed=SEEDS)
    def test_decrypt_and_noise_budget(self, level, seed):
        secret = level.keys.secret_key
        a, b = level.encrypt(seed), level.encrypt(seed + 1)
        size3 = level.evaluator.multiply(a, b, relinearize=False)
        for ciphertext in (a, size3):
            assert level.decryptor.raw_decrypt_centered(
                ciphertext
            ) == oracle.raw_decrypt_centered(ciphertext, secret)
            assert noise_budget(ciphertext, secret) == oracle.noise_budget(
                ciphertext, secret
            )

    @EXAMPLES
    @given(seed=SEEDS, steps=st.sampled_from([1, 2]))
    def test_rotate_rows(self, level, seed, steps):
        if level.galois is None:
            pytest.skip("no SIMD slots at this level")
        a = level.encrypt(seed)
        assert rotate_rows(a, steps, level.galois).polys == oracle.rotate_rows(
            a, steps, level.galois
        ).polys


class TestKeyGeneration:
    def test_keys_equal_the_one_product_loop(self, level):
        """Key generation draws every mask first and multiplies in one
        pass; the keys are those of the draw-and-multiply loop."""
        params = level.params
        s, public, relin, rng = oracle.generate_keys(params, params.security_bits)
        keys = level.keys
        assert keys.secret_key.poly == s
        assert (keys.public_key.p0, keys.public_key.p1) == public
        assert keys.relin_key.pairs == relin
        if level.galois is not None:
            elements = rotation_elements(params, [1, 2])
            expected = oracle.galois_components(params, s, elements, rng)
            assert level.galois.components == expected


class TestBundleSizing:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_sum_bound_covers_every_term(self, level, sign):
        """``k`` terms of ``sign * floor(q/2)`` against digits ``T - 1``
        reach ``k * n * floor(q/2) * (T - 1)`` at coefficient ``n - 1``.

        ``k`` is the fewest terms whose sum needs more primes than one
        term does, so a bundle sized per term, not for the whole sum,
        wraps that coefficient.
        """
        params = level.params
        n, q = params.poly_degree, params.coeff_modulus
        half, digit = q // 2, (1 << params.relin_base_bits) - 1
        per_term = len(_crt_moduli(n, 2 * n * half * digit + 1))
        k = next(
            k
            for k in range(2, 1 << 12)
            if len(_crt_moduli(n, 2 * n * k * half * digit + 1)) > per_term
        )
        key = [sign * half] * n
        digits = [digit] * n
        terms = [(Operand(key), Operand(digits))] * k
        result = negacyclic_sum(terms, n)
        assert result[n - 1] == sign * k * n * half * digit
        expected = negacyclic_convolve(key, digits, n)
        assert result == [k * x for x in expected]
        reduced = Polynomial.sum_of_products(terms, q)
        assert reduced == Polynomial([k * x for x in expected], q)

    def test_key_handle_extends_to_a_longer_bundle(self, level):
        """A handle first used with a ternary partner (short bundle),
        then with a full-size one (long bundle), matches a fresh one."""
        params = level.params
        n, q = params.poly_degree, params.coeff_modulus
        rng = random.Random(params.security_bits)
        key = level.keys.public_key.p0
        wide_coeffs = [rng.randrange(-(q // 2), q // 2 + 1) for _ in range(n)]
        ternary = Operand([rng.randrange(-1, 2) for _ in range(n)])
        wide = Operand(wide_coeffs)
        reused = Operand(lambda: key)
        short = Polynomial.sum_of_products([(reused, ternary)], q)
        held = len(reused._rows)
        long = Polynomial.sum_of_products([(reused, wide)], q)
        assert len(reused._rows) > held
        fresh = Operand(lambda: key)
        assert long == Polynomial.sum_of_products([(fresh, wide)], q)
        assert long == key * Polynomial(wide_coeffs, q)
        fresh = Operand(lambda: key)
        assert short == Polynomial.sum_of_products([(fresh, ternary)], q)


class TestKeyCaches:
    """Key transforms are filled on first use and are invisible to key
    equality, hashing and pickling."""

    def test_filled_lazily_and_kept_off_the_fields(self, tiny128_params):
        import dataclasses
        import pickle

        keys = KeyGenerator(tiny128_params, seed=3).generate()
        key_objects = (keys.secret_key, keys.public_key, keys.relin_key)
        assert all("_operands" not in vars(key) for key in key_objects)

        encryptor = Encryptor(tiny128_params, keys.public_key, seed=1)
        ciphertext = encryptor.encrypt(Plaintext.from_coefficients(
            tiny128_params, [1] * tiny128_params.poly_degree
        ))
        evaluator = Evaluator(tiny128_params, relin_key=keys.relin_key)
        Decryptor(tiny128_params, keys.secret_key).decrypt(
            evaluator.multiply(ciphertext, ciphertext)
        )
        assert all(vars(key)["_operands"] for key in key_objects)

        fresh = KeyGenerator(tiny128_params, seed=3).generate()
        for used, unused in zip(key_objects, (
            fresh.secret_key, fresh.public_key, fresh.relin_key
        )):
            assert used == unused and repr(used) == repr(unused)
            assert [f.name for f in dataclasses.fields(used)] == [
                f.name for f in dataclasses.fields(unused)
            ]
            restored = pickle.loads(pickle.dumps(used))
            assert restored == used and "_operands" not in vars(restored)
        assert hash(keys.secret_key) == hash(fresh.secret_key)
