"""Key generation: structural consistency of all key material."""

import pytest

from repro.core.keys import KeyGenerator, RelinKey, SecretKey
from repro.errors import KeyError_
from repro.poly.polynomial import Polynomial


def check_relin_key(relin: RelinKey, secret: SecretKey) -> int:
    """Verify ``rk0_i + rk1_i * s == T^i * s^2 + small`` for every digit.

    Returns the largest error norm observed; raises
    :class:`~repro.errors.KeyError_` if any digit's error is larger
    than the error distribution could produce.
    """
    params = relin.params
    s = secret.poly
    s_squared = s * s
    base = 1 << relin.base_bits
    worst = 0
    power = 1
    for i, (rk0, rk1) in enumerate(relin.pairs):
        residual = rk0 + rk1 * s - s_squared.scalar_mul(power)
        norm = residual.infinity_norm()
        if norm > params.error_eta:
            raise KeyError_(
                f"relin digit {i} error norm {norm} exceeds eta "
                f"{params.error_eta}: inconsistent key material"
            )
        worst = max(worst, norm)
        power = power * base % params.coeff_modulus
    return worst


@pytest.fixture(scope="module")
def keys(request):
    from tests.conftest import make_tiny_params

    return KeyGenerator(make_tiny_params(), seed=3).generate()


@pytest.fixture(scope="module")
def params():
    from tests.conftest import make_tiny_params

    return make_tiny_params()


class TestSecretKey:
    def test_ternary_coefficients(self, keys, params):
        for c in keys.secret_key.poly.centered():
            assert c in (-1, 0, 1)


class TestPublicKey:
    def test_rlwe_relation(self, keys, params):
        """pk0 + pk1 * s must equal a small error polynomial."""
        pk = keys.public_key
        s = keys.secret_key.poly
        residual = pk.p0 + pk.p1 * s
        assert residual.infinity_norm() <= params.error_eta

    def test_p1_not_small(self, keys, params):
        """The public a polynomial is uniform, not small."""
        assert keys.public_key.p1.infinity_norm() > params.error_eta * 1000


class TestRelinKey:
    def test_component_count(self, keys, params):
        assert keys.relin_key.component_count == params.relin_components

    def test_check_passes(self, keys):
        worst = check_relin_key(keys.relin_key, keys.secret_key)
        assert worst <= keys.relin_key.params.error_eta

    def test_check_detects_corruption(self, keys, params):
        from dataclasses import replace

        q = params.coeff_modulus
        n = params.poly_degree
        bad_pair = (
            Polynomial([q // 3] * n, q),
            keys.relin_key.pairs[0][1],
        )
        corrupted = replace(
            keys.relin_key, pairs=(bad_pair,) + keys.relin_key.pairs[1:]
        )
        with pytest.raises(KeyError_):
            check_relin_key(corrupted, keys.secret_key)


class TestDeterminism:
    def test_same_seed_same_keys(self, params):
        a = KeyGenerator(params, seed=11).generate()
        b = KeyGenerator(params, seed=11).generate()
        assert a.secret_key.poly == b.secret_key.poly
        assert a.public_key.p0 == b.public_key.p0
        assert a.relin_key.pairs == b.relin_key.pairs

    def test_different_seed_different_keys(self, params):
        a = KeyGenerator(params, seed=11).generate()
        b = KeyGenerator(params, seed=12).generate()
        assert a.secret_key.poly != b.secret_key.poly
