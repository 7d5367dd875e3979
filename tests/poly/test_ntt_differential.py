"""Vectorized NTT and CRT convolution against their scalar references.

:class:`repro.poly.ntt.NTTContext` runs each butterfly stage as numpy
array operations; :class:`tests.poly.reference_ntt.ReferenceNTT` is the
scalar loop it replaced. Both must agree exactly, including on the
all-``(p - 1)`` input, which drives every butterfly product to its
largest value, and on the 31-bit primes where ``uint64`` headroom is
smallest. The CRT convolution is checked against schoolbook at signed
coefficients up to ``2^120`` and at bounds where the prime count steps.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BFVParameters
from repro.core.encoder import BatchEncoder
from repro.poly.modring import find_ntt_prime
from repro.poly.ntt import NATIVE_PRIME_LIMIT, ntt_context
from repro.poly.crt import crt_contexts as _crt_contexts
from repro.poly.crt import crt_prime as _crt_prime
from repro.poly.polynomial import (
    Polynomial,
    _crt_negacyclic,
    _schoolbook_negacyclic,
)
from tests.poly.reference_ntt import ReferenceNTT

#: Prime families by label; each maps a ring degree to a prime == 1 mod 2n.
PRIMES = {
    "17": lambda n: 17,
    "65537": lambda n: 65537,
    "30-bit": lambda n: find_ntt_prime(30, n),
    "largest 31-bit": lambda n: find_ntt_prime(31, n),
}

CASES = [
    (n, label)
    for n in (8, 64, 1024, 4096)
    for label, prime in PRIMES.items()
    if (prime(n) - 1) % (2 * n) == 0
]


def _vector(n: int, p: int, kind: str, seed: int) -> list:
    rng = random.Random(seed)
    if kind == "all p-1":
        return [p - 1] * n
    if kind == "uniform":
        return [rng.randrange(p) for _ in range(n)]
    return [rng.randrange(-(2**120), 2**120) for _ in range(n)]


def vectors(n: int, p: int):
    """Coefficient lists: uniform residues, all ``p - 1``, or signed wide."""
    return st.builds(
        _vector,
        st.just(n),
        st.just(p),
        st.sampled_from(["uniform", "all p-1", "signed wide"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )


@pytest.fixture(scope="module")
def pairs():
    """(vectorized, reference) contexts per case, built once."""
    built = {}
    for n, label in CASES:
        p = PRIMES[label](n)
        built[n, label] = (ntt_context(n, p), ReferenceNTT(n, p))
    return built


def test_case_grid_covers_every_degree_and_prime():
    assert {n for n, _ in CASES} == {8, 64, 1024, 4096}
    assert {label for _, label in CASES} == set(PRIMES)


@pytest.mark.parametrize("n,label", CASES)
class TestAgainstReference:
    @given(data=st.data())
    @settings(max_examples=8)
    def test_forward_and_inverse(self, pairs, n, label, data):
        ctx, ref = pairs[n, label]
        values = data.draw(vectors(n, ctx.p))
        assert ctx.forward(values) == ref.forward(values)
        assert ctx.inverse(values) == ref.inverse(values)

    def test_all_max_residues(self, pairs, n, label):
        """Every operand at ``p - 1``: the largest butterfly products."""
        ctx, ref = pairs[n, label]
        top = [ctx.p - 1] * n
        assert ctx.forward(top) == ref.forward(top)
        assert ctx.inverse(top) == ref.inverse(top)
        assert ctx.convolve(top, top) == ref.convolve(top, top)

    def test_pointwise_reduces_inputs(self, pairs, n, label):
        ctx, _ = pairs[n, label]
        a = _vector(n, ctx.p, "signed wide", 1)
        b = _vector(n, ctx.p, "signed wide", 2)
        expected = [(x % ctx.p) * (y % ctx.p) % ctx.p for x, y in zip(a, b)]
        assert ctx.pointwise(a, b) == expected

    def test_lists_return_python_ints(self, pairs, n, label):
        ctx, _ = pairs[n, label]
        out = ctx.inverse(ctx.forward(_vector(n, ctx.p, "uniform", 3)))
        assert all(type(x) is int for x in out)

    def test_arrays_keep_dtype(self, pairs, n, label):
        ctx, _ = pairs[n, label]
        values = np.array(_vector(n, ctx.p, "all p-1", 0), dtype=np.uint64)
        for out in (
            ctx.forward(values),
            ctx.inverse(values),
            ctx.pointwise(values, values),
            ctx.convolve(values, values),
        ):
            assert isinstance(out, np.ndarray) and out.dtype == np.uint64


class TestCrtConvolution:
    @given(data=st.data())
    @settings(max_examples=20)
    def test_matches_schoolbook_up_to_120_bits(self, data):
        n = data.draw(st.sampled_from([8, 128]))
        bits = data.draw(st.integers(min_value=1, max_value=120))
        coeff = st.integers(min_value=-(2**bits), max_value=2**bits)
        a = data.draw(st.lists(coeff, min_size=n, max_size=n))
        b = data.draw(st.lists(coeff, min_size=n, max_size=n))
        assert _crt_negacyclic(a, b, n) == _schoolbook_negacyclic(a, b, n)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_exact_where_the_prime_count_steps(self, k):
        """``|a| = (P_k - 1) / 2n`` fits ``k`` primes; one more needs k + 1.

        With ``b`` all ones, coefficient ``n - 1`` of the product reaches
        ``n * |a| = (P_k - 1) / 2``: exactly half the CRT modulus.
        """
        n = 128
        modulus = 1
        for i in range(k):
            modulus *= _crt_prime(n, i)
        edge = (modulus - 1) // (2 * n)
        assert len(_crt_contexts(n, 2 * n * edge + 1)) == k
        assert len(_crt_contexts(n, 2 * n * (edge + 1) + 1)) == k + 1
        ones = [1] * n
        for magnitude in (edge, edge + 1):
            for sign in (1, -1):
                a = [sign * magnitude] * n
                result = _crt_negacyclic(a, ones, n)
                assert result == _schoolbook_negacyclic(a, ones, n)
                assert result[n - 1] == sign * n * magnitude

    def test_square_matches_schoolbook(self):
        rng = random.Random(5)
        a = [rng.randrange(-(2**110), 2**110) for _ in range(128)]
        assert _crt_negacyclic(a, a, 128) == _schoolbook_negacyclic(a, a, 128)

    def test_crt_primes_run_on_uint64(self):
        contexts = _crt_contexts(4096, 2**400)
        assert all(ctx.p < NATIVE_PRIME_LIMIT for ctx in contexts)


class TestSharedContexts:
    def test_one_context_per_degree_and_prime(self):
        p = find_ntt_prime(31, 1024)
        assert ntt_context(1024, p) is ntt_context(1024, p)

    def test_bundles_are_prefixes(self):
        small = _crt_contexts(4096, 2**150)
        large = _crt_contexts(4096, 2**250)
        assert len(small) < len(large)
        assert all(a is b for a, b in zip(small, large))

    def test_encoder_shares_the_cache(self):
        params = BFVParameters(
            poly_degree=64,
            coeff_modulus=find_ntt_prime(60, 64),
            plain_modulus=257,
        )
        assert BatchEncoder(params)._ntt is ntt_context(64, 257)


def test_polynomial_product_ignores_representative():
    """Centered and ``[0, q)`` operands give the same product mod q."""
    n, q = 128, find_ntt_prime(109, 128)
    rng = random.Random(7)
    a = Polynomial([rng.randrange(q) for _ in range(n)], q)
    s = Polynomial([rng.randrange(-1, 2) for _ in range(n)], q)
    expected = [
        c % q for c in _schoolbook_negacyclic(list(a.coeffs), list(s.coeffs), n)
    ]
    assert list((a * s).coeffs) == expected
