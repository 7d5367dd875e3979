"""Encryption/decryption round trips and ciphertext structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ciphertext import Ciphertext, Plaintext
from repro.core.encryptor import SymmetricEncryptor
from repro.errors import CiphertextError, ParameterError


class TestRoundTrip:
    def test_batch_roundtrip(self, tiny_ctx):
        values = [5, -7, 100, 0, -128]
        ct = tiny_ctx.encrypt_slots(values)
        assert tiny_ctx.decrypt_slots(ct, len(values)) == values

    def test_integer_roundtrip(self, tiny_ctx):
        enc = tiny_ctx.integer_encoder
        ct = tiny_ctx.encryptor.encrypt(enc.encode(-42))
        assert enc.decode(tiny_ctx.decryptor.decrypt(ct)) == -42

    @given(st.lists(st.integers(min_value=-128, max_value=128), min_size=1, max_size=16))
    @settings(max_examples=15)
    def test_roundtrip_property(self, values):
        from repro.workloads.context import WorkloadContext
        from tests.conftest import make_tiny_params

        ctx = WorkloadContext.from_params(make_tiny_params(), seed=5)
        ct = ctx.encrypt_slots(values)
        assert ctx.decrypt_slots(ct, len(values)) == values

    def test_crt_path_roundtrip(self, tiny128_ctx):
        """Degree 128 exercises the CRT-NTT convolution in keygen."""
        values = [13, -13, 99]
        ct = tiny128_ctx.encrypt_slots(values)
        assert tiny128_ctx.decrypt_slots(ct, 3) == values

    def test_fresh_ciphertext_size_two(self, tiny_ctx):
        ct = tiny_ctx.encrypt_slots([1])
        assert ct.size == 2

    def test_distinct_encryptions_differ(self, tiny_ctx):
        """Probabilistic encryption: same plaintext, different ciphertext."""
        a = tiny_ctx.encrypt_slots([1, 2, 3])
        b = tiny_ctx.encrypt_slots([1, 2, 3])
        assert a != b
        assert tiny_ctx.decrypt_slots(a, 3) == tiny_ctx.decrypt_slots(b, 3)

    def test_encrypt_zero(self, tiny_ctx):
        ct = tiny_ctx.encryptor.encrypt_zero()
        assert all(v == 0 for v in tiny_ctx.decrypt_slots(ct))


class TestSymmetricEncryption:
    def test_roundtrip(self, tiny_ctx, tiny_params):
        enc = SymmetricEncryptor(tiny_params, tiny_ctx.keys.secret_key, seed=3)
        be = tiny_ctx.batch_encoder
        ct = enc.encrypt(be.encode([9, -9]))
        assert tiny_ctx.decrypt_slots(ct, 2) == [9, -9]

    def test_lower_noise_than_public(self, tiny_ctx, tiny_params):
        from repro.core.noise import noise_budget

        be = tiny_ctx.batch_encoder
        sym = SymmetricEncryptor(tiny_params, tiny_ctx.keys.secret_key, seed=3)
        sym_budget = noise_budget(
            sym.encrypt(be.encode([1])), tiny_ctx.keys.secret_key
        )
        pub_budget = noise_budget(
            tiny_ctx.encrypt_slots([1]), tiny_ctx.keys.secret_key
        )
        assert sym_budget >= pub_budget


class TestStructureValidation:
    def test_ciphertext_needs_two_polys(self, tiny_ctx):
        ct = tiny_ctx.encrypt_slots([1])
        with pytest.raises(CiphertextError):
            Ciphertext(tiny_ctx.params, ct.polys[:1])

    def test_ciphertext_rejects_wrong_modulus(self, tiny_ctx, tiny_params):
        from repro.poly.polynomial import Polynomial

        n = tiny_params.poly_degree
        wrong = Polynomial([1] * n, 97)
        with pytest.raises(CiphertextError):
            Ciphertext(tiny_params, (wrong, wrong))

    def test_plaintext_rejects_wrong_modulus(self, tiny_params):
        from repro.poly.polynomial import Polynomial

        n = tiny_params.poly_degree
        with pytest.raises(ParameterError):
            Plaintext(tiny_params, Polynomial([0] * n, 1009))

    def test_device_bytes(self, tiny_ctx, tiny_params):
        ct = tiny_ctx.encrypt_slots([1])
        assert ct.device_bytes == 2 * tiny_params.poly_bytes

    def test_cross_params_rejected(self, tiny_ctx, tiny128_ctx):
        ct = tiny_ctx.encrypt_slots([1])
        with pytest.raises(ParameterError):
            tiny128_ctx.decryptor.decrypt(ct)

    def test_check_compatible(self, tiny_ctx, tiny128_ctx):
        a = tiny_ctx.encrypt_slots([1])
        b = tiny128_ctx.encrypt_slots([1])
        with pytest.raises(CiphertextError):
            a.check_compatible(b)


class TestEncryptionFold:
    """Encryption adds ``delta * m`` to ``c0`` inside the CRT engine, as
    part of the error addend. The ciphertext must equal the two-step
    formula it replaced, ``sum_of_products(..., addend=e) +
    m.scale(delta, 1, q)``, bit for bit, at every paper level and with
    plaintext coefficients at ``0``, ``t // 2``, ``t // 2 + 1`` and
    ``t - 1``, where ``delta * |m|`` is largest."""

    @staticmethod
    def _plaintext(params, seed: int) -> Plaintext:
        import numpy as np

        t, n = params.plain_modulus, params.poly_degree
        coeffs = np.random.default_rng(seed).integers(0, t, size=n)
        coeffs[:4] = (0, t // 2, t // 2 + 1, t - 1)
        return Plaintext.from_coefficients(params, coeffs.tolist())

    @pytest.mark.parametrize("bits", [27, 54, 109])
    def test_addend_bound_covers_delta_m(self, bits):
        """The folded addend sizes the CRT bundle for ``delta * |m|``
        plus the error: ``delta * (t // 2) + max |e|``."""
        import numpy as np

        from repro.poly.polynomial import Operand
        from repro.workloads.context import WorkloadContext

        params = WorkloadContext.create(bits).params
        error = np.zeros(params.poly_degree, dtype=np.int64)
        error[-1] = -3
        addend = Operand.scaled_sum(self._plaintext(params, 0).poly, params.delta, error)
        assert addend.bound == params.delta * (params.plain_modulus // 2) + 3

    @pytest.mark.parametrize("bits", [27, 54, 109])
    def test_public_key_encryption(self, bits):
        import numpy as np

        from repro.core.encryptor import Encryptor
        from repro.poly.polynomial import Operand, Polynomial
        from repro.poly.sampling import sample_centered_binomial, sample_ternary
        from repro.workloads.context import WorkloadContext

        ctx = WorkloadContext.create(bits)
        params, key = ctx.params, ctx.keys.public_key
        n, q = params.poly_degree, params.coeff_modulus
        plaintext = self._plaintext(params, bits)
        got = Encryptor(params, key, seed=11).encrypt(plaintext)

        rng = np.random.default_rng(11)
        u = Operand(sample_ternary(n, rng))
        e1 = Operand(sample_centered_binomial(n, rng, params.error_eta))
        e2 = Operand(sample_centered_binomial(n, rng, params.error_eta))
        p0, p1 = key.operands()
        c0 = Polynomial.sum_of_products([(p0, u)], q, addend=e1)
        c0 = c0 + plaintext.poly.scale(params.delta, 1, q)
        c1 = Polynomial.sum_of_products([(p1, u)], q, addend=e2)
        assert got.polys == (c0, c1)

    @pytest.mark.parametrize("bits", [27, 54, 109])
    def test_symmetric_encryption(self, bits):
        import numpy as np

        from repro.poly.polynomial import Operand, Polynomial
        from repro.poly.sampling import sample_centered_binomial, sample_uniform
        from repro.workloads.context import WorkloadContext

        ctx = WorkloadContext.create(bits)
        params, secret = ctx.params, ctx.keys.secret_key
        n, q = params.poly_degree, params.coeff_modulus
        plaintext = self._plaintext(params, bits + 1)
        got = SymmetricEncryptor(params, secret, seed=12).encrypt(plaintext)

        rng = np.random.default_rng(12)
        a = Polynomial.from_planes(sample_uniform(n, q, rng), q)
        minus_e = Operand(-sample_centered_binomial(n, rng, params.error_eta))
        c0 = Polynomial.sum_of_products(
            [(Operand(-a), secret.power_operand())], q, addend=minus_e
        )
        c0 = c0 + plaintext.poly.scale(params.delta, 1, q)
        assert got.polys == (c0, a)
