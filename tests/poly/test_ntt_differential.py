"""Vectorized NTT and CRT convolution against their scalar references.

:func:`repro.poly.ntt.forward` and :func:`~repro.poly.ntt.inverse` run
each butterfly stage of every prime of a bundle as numpy array
operations, and :class:`repro.poly.ntt.NTTContext` is their one-prime
case; :class:`tests.poly.reference_ntt.ReferenceNTT` is the scalar loop
they replaced. They must agree exactly, row by row, including on the
all-``(p - 1)`` input, which drives every butterfly product to its
largest value, and on the 31-bit primes where ``uint64`` headroom is
smallest. The CRT convolution is checked against schoolbook at signed
coefficients up to ``2^120`` and at bounds where the prime count steps.
"""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoder import BatchEncoder
from repro.core.params import BFVParameters
from repro.poly.modring import find_ntt_prime
from repro.poly import ntt
from repro.poly.ntt import NATIVE_PRIME_LIMIT, Twiddles, ntt_context
from repro.poly.crt import crt_moduli as _crt_moduli
from repro.poly.crt import crt_prime as _crt_prime
from repro.poly.crt import crt_twiddles
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
        assert len(_crt_moduli(n, 2 * n * edge + 1)) == k
        assert len(_crt_moduli(n, 2 * n * (edge + 1) + 1)) == k + 1
        ones = [1] * n
        for magnitude in (edge, edge + 1):
            for sign in (1, -1):
                a = [sign * magnitude] * n
                result = _crt_negacyclic(a, ones, n)
                assert result == _schoolbook_negacyclic(a, ones, n)
                assert result[n - 1] == sign * n * magnitude

    def test_int64_minimum_sizes_the_bundle(self):
        """``-2^63`` is exact in ``int64`` but its ``np.abs`` is not."""
        a = [0] * 7 + [1]
        b = [0] * 7 + [-(2**63)]
        assert _crt_negacyclic(a, b, 8) == _schoolbook_negacyclic(a, b, 8)

    @pytest.mark.parametrize("count", [1, 4, 5, 9])
    def test_lazy_sum_of_largest_products(self, count):
        """Pointwise products are summed unreduced in groups: with every
        transform row at ``p - 1`` each product is ``(p - 1)^2``, the
        largest a group can hold, and the sum must still be ``count``
        in every lane of every prime."""
        from repro.poly.crt import MixedRadix
        from repro.poly.polynomial import Operand, exact_sum

        n = 256

        class LargestRows(Operand):
            __slots__ = ()

            def rows(self, k):
                p = np.array([_crt_prime(n, i) for i in range(k)], dtype=np.uint64)
                return np.repeat(p[:, None] - np.uint64(1), n, axis=1)

        operand = LargestRows(np.full(n, 2**62, dtype=np.int64))
        got = exact_sum([(operand, operand)] * count, n)
        twiddles = crt_twiddles(n, 0, len(got.moduli))
        sums = np.array([[count % p] * n for p in got.moduli], dtype=np.uint64)
        expected = MixedRadix(ntt.inverse(sums, twiddles), got.moduli)
        assert got.signed() == expected.signed()

    def test_square_matches_schoolbook(self):
        rng = random.Random(5)
        a = [rng.randrange(-(2**110), 2**110) for _ in range(128)]
        assert _crt_negacyclic(a, a, 128) == _schoolbook_negacyclic(a, a, 128)

    def test_crt_primes_run_on_uint64(self):
        assert all(p < NATIVE_PRIME_LIMIT for p in _crt_moduli(4096, 2**400))


class TestSharedContexts:
    def test_one_context_per_degree_and_prime(self):
        p = find_ntt_prime(31, 1024)
        assert ntt_context(1024, p) is ntt_context(1024, p)

    def test_bundles_are_prefixes(self):
        small = _crt_moduli(4096, 2**150)
        large = _crt_moduli(4096, 2**250)
        assert len(small) < len(large)
        assert large[: len(small)] == small

    def test_encoder_shares_the_cache(self):
        params = BFVParameters(
            poly_degree=64,
            coeff_modulus=find_ntt_prime(60, 64),
            plain_modulus=257,
        )
        assert BatchEncoder(params)._ntt is ntt_context(64, 257)


#: Ring degrees of the bundle tests, and the single primes they add.
#: Degrees below, at and above the twiddle block width's reach: tiled
#: blocks narrower than BLOCK_WIDTH (n/2 < 64), exactly one block
#: (n = 128), and stages past the blocks.
BUNDLE_DEGREES = (2, 4, 8, 64, 128, 256, 1024, 4096)
SINGLE_PRIMES = (17, 65537)


@lru_cache(maxsize=None)
def _reference(n: int, p: int) -> ReferenceNTT:
    return ReferenceNTT(n, p)


def _bundle_rows(primes: tuple, n: int, kind: str, seed: int) -> np.ndarray:
    """``(k, n)`` rows: uniform residues, every value at ``p - 1``, or
    (``"lazy"``) residues plus ``p`` at random, below ``2p``."""
    p = np.array(primes, dtype=np.uint64)[:, None]
    if kind == "all p-1":
        return np.repeat(p - np.uint64(1), n, axis=1)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2**62, size=(len(primes), n), dtype=np.uint64) % p
    if kind == "lazy":
        rows += p * rng.integers(0, 2, size=rows.shape, dtype=np.uint64)
    return rows


def _assert_rows_match_reference(rows: np.ndarray, twiddles: Twiddles) -> None:
    forward, inverse = ntt.forward(rows, twiddles), ntt.inverse(rows, twiddles)
    for row, p, fwd, inv in zip(rows.tolist(), twiddles.primes, forward, inverse):
        ref = _reference(twiddles.n, p)
        assert fwd.tolist() == ref.forward(row)
        assert inv.tolist() == ref.inverse(row)


@pytest.mark.parametrize("n", BUNDLE_DEGREES)
class TestBundle:
    """:func:`repro.poly.ntt.forward` and :func:`~repro.poly.ntt.inverse`
    over 1-8 CRT primes, row by row against the scalar reference."""

    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_rows_match_reference(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=8))
        twiddles = crt_twiddles(n, 0, k)
        kind = data.draw(st.sampled_from(["uniform", "all p-1"]))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rows = _bundle_rows(twiddles.primes, n, kind, seed)
        _assert_rows_match_reference(rows, twiddles)

    def test_all_max_rows_over_eight_primes(self, n):
        twiddles = crt_twiddles(n, 0, 8)
        rows = _bundle_rows(twiddles.primes, n, "all p-1", 0)
        _assert_rows_match_reference(rows, twiddles)

    def test_forward_takes_inputs_below_2p(self, n):
        """The forward transform's inputs may be lazy, below ``2p``:
        the same transform as their residues, up to all ``2p - 1``."""
        twiddles = crt_twiddles(n, 0, 8)
        p = np.array(twiddles.primes, dtype=np.uint64)[:, None]
        lazy = _bundle_rows(twiddles.primes, n, "lazy", n)
        top = np.repeat(p + p - np.uint64(1), n, axis=1)
        for rows in (lazy, top):
            reduced = rows % p
            assert np.array_equal(ntt.forward(rows, twiddles), ntt.forward(reduced, twiddles))
        _assert_rows_match_reference(lazy % p, twiddles)

    def test_every_sub_bundle_view(self, n):
        """Every ``crt_twiddles(n, start, stop)`` with ``start > 0``
        transforms its rows as the whole bundle does."""
        full = crt_twiddles(n, 0, 8)
        rows = _bundle_rows(full.primes, n, "uniform", 3 * n)
        expected = ntt.forward(rows, full), ntt.inverse(rows, full)
        for start in range(1, 8):
            for stop in range(start + 1, 9):
                part = crt_twiddles(n, start, stop)
                assert part.primes == full.primes[start:stop]
                for transform, whole in zip((ntt.forward, ntt.inverse), expected):
                    got = transform(rows[start:stop], part)
                    assert np.array_equal(got, whole[start:stop]), (start, stop)

    @pytest.mark.parametrize("start,stop", [(0, 1), (2, 5), (7, 8), (3, 3)])
    def test_slice_of_primes_matches_the_full_bundle(self, n, start, stop):
        full = crt_twiddles(n, 0, 8)
        rows = _bundle_rows(full.primes, n, "uniform", n + start)
        part = crt_twiddles(n, start, stop)
        assert part.primes == full.primes[start:stop]
        for transform in (ntt.forward, ntt.inverse):
            expected = transform(rows, full)[start:stop]
            assert np.array_equal(transform(rows[start:stop], part), expected)
            sliced = transform(rows[start:stop], full[start:stop])
            assert np.array_equal(sliced, expected)

    def test_inputs_are_not_written(self, n):
        twiddles = crt_twiddles(n, 0, 8)
        rows = _bundle_rows(twiddles.primes, n, "uniform", 9)
        before = rows.copy()
        forward = ntt.forward(rows, twiddles)
        assert np.array_equal(rows, before)
        kept = forward.copy()
        back = ntt.inverse(forward, twiddles)
        assert np.array_equal(forward, kept)
        assert np.array_equal(back, rows)
        assert not np.shares_memory(back, forward)
        assert not np.shares_memory(forward, rows)

    def test_one_prime_context_does_not_write_its_input(self, n):
        ctx = ntt.NTTContext(n, _crt_prime(n, 0))
        values = _bundle_rows((ctx.p,), n, "uniform", 4)[0]
        before = values.copy()
        ctx._inverse(ctx._forward(values))
        assert np.array_equal(values, before)


@pytest.mark.parametrize(
    "n,p",
    [(n, p) for n in BUNDLE_DEGREES for p in SINGLE_PRIMES if (p - 1) % (2 * n) == 0],
)
def test_single_small_prime_matches_reference(n, p):
    twiddles = Twiddles(n, (p,))
    for kind, seed in (("uniform", 1), ("all p-1", 0)):
        _assert_rows_match_reference(_bundle_rows((p,), n, kind, seed), twiddles)


class TestTableMemory:
    """One twiddle table per ring degree; bundles are views of it."""

    def test_sub_bundle_tables_are_views(self):
        whole = crt_twiddles(1024, 0, 6)
        part = crt_twiddles(1024, 2, 5)
        for name in ("powers", "blocks", "modulus"):
            assert np.shares_memory(getattr(part, name), getattr(whole, name))

    def test_every_view_shares_the_degree_table(self):
        whole = crt_twiddles(256, 0, 8)
        for start in range(8):
            for stop in range(start + 1, 9):
                part = crt_twiddles(256, start, stop)
                assert part is crt_twiddles(256, start, stop)
                for name in ("powers", "blocks", "modulus"):
                    assert np.shares_memory(getattr(part, name), getattr(whole, name))

    @pytest.mark.parametrize(
        "n,k,nbytes",
        # 16 k n of powers and companions, 8 k n of modulus rows and
        # 16 k (2 log2(w) + 1) w of blocks, w = min(64, n / 2).
        [(2, 1, 96), (64, 2, 14336), (1024, 2, 75776), (2048, 3, 187392), (4096, 8, 892928)],
    )
    def test_table_bytes_per_degree(self, n, k, nbytes):
        table = crt_twiddles(n, 0, k)
        assert table.nbytes == nbytes
        assert crt_twiddles(n, 1, k).nbytes == nbytes * (k - 1) // k

    def test_growing_the_bundle_keeps_one_table(self):
        n = 512
        short = crt_twiddles(n, 0, 2)
        long = crt_twiddles(n, 0, 9)
        assert long.primes[:2] == short.primes
        assert np.array_equal(long.powers[:2], short.powers)
        again = crt_twiddles(n, 0, 2)
        for name in ("powers", "blocks", "modulus"):
            assert np.shares_memory(getattr(again, name), getattr(long, name))

    def test_crt_products_build_no_ntt_context(self, monkeypatch):
        built = []
        original = ntt.NTTContext.__init__

        def counting(self, n, p):
            built.append((n, p))
            original(self, n, p)

        monkeypatch.setattr(ntt.NTTContext, "__init__", counting)
        ntt_context.cache_clear()
        rng = random.Random(3)
        a = [rng.randrange(-(2**90), 2**90) for _ in range(256)]
        assert _crt_negacyclic(a, a, 256) == _schoolbook_negacyclic(a, a, 256)
        q = find_ntt_prime(109, 256)
        poly = Polynomial(a, q)
        assert (poly * poly).scale(1, 1, q) == poly * poly
        assert built == []


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
