"""CKKS: approximate encrypted arithmetic on the shared substrates."""

import math

import numpy as np
import pytest

from repro.core.ckks import (
    CKKSCipher,
    CKKSKeyGenerator,
    CKKSParameters,
)
from repro.errors import CiphertextError, EncodingError, ParameterError


@pytest.fixture(scope="module")
def ckks():
    params = CKKSParameters(poly_degree=64, levels=2)
    keys = CKKSKeyGenerator(params, seed=1).generate()
    return CKKSCipher(params, keys, seed=2)


class TestParameters:
    def test_slot_count(self):
        assert CKKSParameters(poly_degree=64).slot_count == 32

    def test_modulus_chain(self):
        params = CKKSParameters(poly_degree=64, levels=2)
        chain = params.prime_chain
        assert len(chain) == 3
        assert params.modulus_at_level(0) == chain[0]
        assert params.modulus_at_level(2) == chain[0] * chain[1] * chain[2]

    def test_primes_distinct_and_ntt_friendly(self):
        params = CKKSParameters(poly_degree=64, levels=3)
        chain = params.prime_chain
        assert len(set(chain)) == len(chain)
        for p in chain:
            assert p % 128 == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"poly_degree": 48},
            {"levels": 0},
            {"scale_bits": 2},
            {"relin_base_bits": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            CKKSParameters(**kwargs)

    def test_level_bounds_checked(self):
        params = CKKSParameters(poly_degree=64, levels=2)
        with pytest.raises(ParameterError):
            params.modulus_at_level(3)


class TestEncoder:
    def test_roundtrip_precision(self, ckks):
        values = [3.14159, -2.71828, 0.5, 1e-3]
        decoded = ckks.encoder.decode_real(ckks.encoder.encode(values))
        for got, want in zip(decoded, values):
            assert got == pytest.approx(want, abs=1e-6)

    def test_complex_values(self, ckks):
        values = [1 + 2j, -0.5 - 0.25j]
        decoded = ckks.encoder.decode(ckks.encoder.encode(values))
        for got, want in zip(decoded, values):
            assert abs(got - want) < 1e-6

    def test_full_slot_vector(self, ckks):
        values = [math.sin(i) for i in range(32)]
        decoded = ckks.encoder.decode_real(ckks.encoder.encode(values))
        assert np.allclose(decoded, values, atol=1e-6)

    def test_rejects_too_many_values(self, ckks):
        with pytest.raises(EncodingError):
            ckks.encoder.encode([1.0] * 33)

    def test_custom_scale(self, ckks):
        pt = ckks.encoder.encode([2.0], scale=2.0**20)
        assert pt.scale == 2.0**20
        assert ckks.encoder.decode_real(pt)[0] == pytest.approx(2.0, abs=1e-4)


class TestEncryption:
    def test_encrypt_decrypt(self, ckks):
        values = [1.5, -2.25, 10.0]
        ct = ckks.encrypt(ckks.encoder.encode(values))
        got = ckks.decrypt_values(ct)
        for g, w in zip(got, values):
            assert g == pytest.approx(w, abs=1e-4)

    def test_fresh_at_top_level(self, ckks):
        ct = ckks.encrypt(ckks.encoder.encode([1.0]))
        assert ct.level == ckks.params.levels
        assert ct.size == 2

    def test_encryption_hides_plaintext(self, ckks):
        a = ckks.encrypt(ckks.encoder.encode([1.0]))
        b = ckks.encrypt(ckks.encoder.encode([1.0]))
        assert a.polys != b.polys


class TestEvaluation:
    def test_add(self, ckks):
        a = ckks.encrypt(ckks.encoder.encode([1.5, 2.5]))
        b = ckks.encrypt(ckks.encoder.encode([0.25, -1.0]))
        got = ckks.decrypt_values(ckks.add(a, b))
        assert got[0] == pytest.approx(1.75, abs=1e-4)
        assert got[1] == pytest.approx(1.5, abs=1e-4)

    def test_multiply_rescales(self, ckks):
        a = ckks.encrypt(ckks.encoder.encode([3.0, -2.0]))
        b = ckks.encrypt(ckks.encoder.encode([1.5, 4.0]))
        product = ckks.multiply(a, b)
        assert product.level == ckks.params.levels - 1
        # Scale returns near Delta after the rescale.
        assert math.log2(product.scale) == pytest.approx(
            ckks.params.scale_bits, abs=1.0
        )
        got = ckks.decrypt_values(product)
        assert got[0] == pytest.approx(4.5, rel=1e-3)
        assert got[1] == pytest.approx(-8.0, rel=1e-3)

    def test_multiply_without_rescale(self, ckks):
        a = ckks.encrypt(ckks.encoder.encode([2.0]))
        b = ckks.encrypt(ckks.encoder.encode([3.0]))
        product = ckks.multiply(a, b, rescale=False)
        assert product.level == ckks.params.levels
        assert ckks.decrypt_values(product)[0] == pytest.approx(6.0, rel=1e-3)

    def test_depth_two(self, ckks):
        a = ckks.encrypt(ckks.encoder.encode([3.14, -2.5]))
        b = ckks.encrypt(ckks.encoder.encode([1.0, 2.0]))
        p = ckks.multiply(a, b)
        target = p.scale * ckks.params.prime_chain[ckks.params.levels]
        fresh = ckks.encrypt(ckks.encoder.encode([2.0, 2.0], scale=target))
        p2 = ckks.multiply(p, ckks.rescale(fresh))
        assert p2.level == 0
        got = ckks.decrypt_values(p2)
        assert got[0] == pytest.approx(6.28, rel=1e-2)
        assert got[1] == pytest.approx(-10.0, rel=1e-2)

    def test_slotwise_semantics(self, ckks):
        """CKKS multiplies slot-wise like BFV batching — the paper's
        workloads port directly."""
        xs = [1.0, 2.0, 3.0, 4.0]
        squares = ckks.multiply(
            ckks.encrypt(ckks.encoder.encode(xs)),
            ckks.encrypt(ckks.encoder.encode(xs)),
        )
        got = ckks.decrypt_values(squares)[:4]
        assert np.allclose(got, [1.0, 4.0, 9.0, 16.0], rtol=1e-3)


class TestLevelDiscipline:
    def test_level_mismatch_rejected(self, ckks):
        a = ckks.encrypt(ckks.encoder.encode([1.0]))
        b = ckks.rescale(ckks.encrypt(ckks.encoder.encode([1.0])))
        with pytest.raises(CiphertextError):
            ckks.add(a, b)

    def test_scale_mismatch_rejected(self, ckks):
        a = ckks.encrypt(ckks.encoder.encode([1.0]))
        b = ckks.encrypt(ckks.encoder.encode([1.0], scale=2.0**20))
        with pytest.raises(CiphertextError):
            ckks.add(a, b)

    def test_rescale_at_bottom_rejected(self, ckks):
        ct = ckks.encrypt(ckks.encoder.encode([1.0]))
        for _ in range(ckks.params.levels):
            ct = ckks.rescale(ct)
        with pytest.raises(CiphertextError):
            ckks.rescale(ct)


class TestEncryptedStatistics:
    def test_encrypted_mean_of_reals(self, ckks):
        """The paper's mean workload on real-valued data — what CKKS
        exists for."""
        rng = np.random.default_rng(5)
        users = rng.uniform(0.0, 10.0, size=(6, 4))
        cts = [
            ckks.encrypt(ckks.encoder.encode([float(v) for v in row]))
            for row in users
        ]
        total = cts[0]
        for ct in cts[1:]:
            total = ckks.add(total, ct)
        means = [v / 6 for v in ckks.decrypt_values(total)[:4]]
        assert np.allclose(means, users.mean(axis=0), atol=1e-3)
