"""The CRT engine's limb-plane entry and exit against object-int oracles.

The entry (:func:`repro.poly.crt.residues`) must give the residues of
the centered lift of a limb-plane array; the exit
(:meth:`repro.poly.crt.MixedRadix.scale_round`) must give
``round(num * x / den) mod out`` for every ``(num, den, out)`` setting
BFV uses, and :meth:`~repro.poly.crt.MixedRadix.remainder_bound` the
noise numerator. Each is compared with the Python-int code it replaced
(:mod:`tests.poly.reference_crt`), over moduli of 1 to 7 limbs and the
paper's three levels, with the edge values that exercise every
correction: ties one unit away, the signed range's ends, all-ones
limbs and residue rows.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keys import base_digits
from repro.core.params import BFVParameters
from repro.errors import ParameterError
from repro.mpint.limbs import LIMB_BITS
from repro.poly import planes as pl
from repro.poly.crt import MixedRadix, crt_prime, residues, signed_residues
from repro.poly.modring import find_ntt_prime, inverse_mod
from repro.poly.polynomial import Polynomial
from tests.poly import reference_crt as oracle

PAPER_MODULI = tuple(
    BFVParameters.security_level(bits).coeff_modulus for bits in (27, 54, 109)
)
PLAIN = 65537
BUNDLE_N = 4096
EXAMPLES = settings(max_examples=40, deadline=None)


def bundle(k: int) -> tuple:
    return tuple(crt_prime(BUNDLE_N, i) for i in range(k))


def edge_values(q: int) -> list:
    """0, 1, q - 1, (q +- 1) / 2, and all-ones low limbs below q."""
    limbs = pl.limb_count(q)
    low = (1 << (LIMB_BITS * (limbs - 1))) - 1
    top = (q >> (LIMB_BITS * (limbs - 1))) - 1
    values = [0, 1, q - 1, (q - 1) // 2, (q + 1) // 2, q // 2, low]
    if top >= 0:
        values.append((top << (LIMB_BITS * (limbs - 1))) | low)
    return [v % q for v in values]


def near_ties(q: int, num: int, count: int) -> list:
    """Centered ``x`` with ``num * x mod q`` one unit from ``q / 2``:
    ``num * x / q`` is as close to a half integer as it gets (none when
    ``num`` is not invertible mod ``q``)."""
    if math.gcd(num, q) != 1:
        return []
    inverse = inverse_mod(num % q, q)
    xs = []
    for target in ((q - 1) // 2, (q + 1) // 2):
        for shift in range(count):
            x = (target + shift * q) * inverse % q
            xs.append(oracle.centered(x, q))
    return xs


moduli_1_to_7_limbs = st.integers(min_value=1, max_value=7).flatmap(
    lambda limbs: st.integers(
        min_value=max(2, 1 << (LIMB_BITS * (limbs - 1))),
        max_value=(1 << (LIMB_BITS * limbs)) - 1,
    )
)
odd_moduli = moduli_1_to_7_limbs.map(lambda q: q | 1).filter(lambda q: q > 2)


class TestEntry:
    @EXAMPLES
    @given(data=st.data(), q=moduli_1_to_7_limbs, k=st.integers(1, 9))
    def test_residues_of_the_centered_lift(self, data, q, k):
        values = data.draw(
            st.lists(st.integers(0, q - 1), min_size=1, max_size=24)
        ) + edge_values(q)
        primes = bundle(k)
        got = residues(pl.from_ints(values, q), q, primes)
        assert got.dtype == np.uint64
        assert got.tolist() == oracle.centered_residues(values, q, primes)

    @pytest.mark.parametrize("q", PAPER_MODULI)
    def test_paper_moduli(self, q):
        rng = random.Random(q)
        values = [rng.randrange(q) for _ in range(256)] + edge_values(q)
        primes = bundle(8)
        got = residues(pl.from_ints(values, q), q, primes)
        assert got.tolist() == oracle.centered_residues(values, q, primes)

    @pytest.mark.parametrize("q", [3, 2**31 - 1, 2**32 - 5])
    def test_one_limb_moduli(self, q):
        """One-limb moduli below, near and above the 31-bit primes: the
        last reduction may be skipped only below them."""
        values = edge_values(q) + [q // 3, 2 * q // 3]
        primes = bundle(8)
        got = residues(pl.from_ints(values, q), q, primes)
        assert got.tolist() == oracle.centered_residues(values, q, primes)

    def test_signed_residues(self):
        values = np.array([0, 1, -1, 2**62, -(2**62), 2**63 - 1], dtype=np.int64)
        primes = bundle(3)
        assert signed_residues(values, primes).tolist() == [
            [int(v) % p for v in values] for p in primes
        ]


class TestDigits:
    @EXAMPLES
    @given(data=st.data(), k=st.integers(1, 12))
    def test_compose_matches_the_object_horner(self, data, k):
        moduli = bundle(k)
        half = (math.prod(moduli) - 1) // 2
        xs = data.draw(st.lists(st.integers(-half, half), min_size=1, max_size=16))
        xs += [0, 1, -1, half, -half]
        rows = np.array([[x % p for x in xs] for p in moduli], dtype=np.uint64)
        assert MixedRadix(rows, moduli).signed() == xs
        assert oracle.crt_compose(rows, moduli).tolist() == xs

    @pytest.mark.parametrize("k", [1, 2, 5, 8, 32])
    def test_residue_rows_of_all_p_minus_1(self, k):
        moduli = bundle(k)
        rows = np.array([[p - 1] * 4 for p in moduli], dtype=np.uint64)
        assert MixedRadix(rows, moduli).signed() == [-1] * 4
        half = (math.prod(moduli) - 1) // 2
        xs = [half, -half, 0, 1]
        rows = np.array([[x % p for x in xs] for p in moduli], dtype=np.uint64)
        assert MixedRadix(rows, moduli).signed() == xs

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 32])
    def test_garner_digits_match_the_object_int_digits(self, k):
        """The digits in the float block are the mixed-radix digits of
        ``x + P // 2`` computed with Python ints, lanes at ``+-P/2``
        included; the row after them is the exits' row of ones."""
        moduli = bundle(k)
        product = math.prod(moduli)
        half = (product - 1) // 2
        rng = random.Random(k)
        xs = [rng.randint(-half, half) for _ in range(24)]
        xs += [0, 1, -1, half, -half, half - 1, -half + 1]
        # Every earlier digit at p_j - 1 and a first value of 0 for digit
        # i: the largest subtraction Garner's step makes (the primes
        # descend, so p_j - 1 may exceed p_i).
        for i in range(1, k):
            radix = math.prod(moduli[:i])
            scale = -(radix - 1) * inverse_mod(radix % moduli[i], moduli[i])
            xs.append(radix - 1 + radix * (scale % moduli[i]) - product // 2)
        rows = np.array([[x % p for x in xs] for p in moduli], dtype=np.uint64)
        block = MixedRadix(rows, moduli)._block
        expected = []
        for i, p in enumerate(moduli):
            radix = math.prod(moduli[:i])
            expected.append([(x + product // 2) // radix % p for x in xs])
        assert block[:k].astype(np.int64).tolist() == expected
        assert (block[k] == 1.0).all()

    def test_bundle_size_is_bounded(self):
        moduli = tuple(range(3, 3 + 2 * 33, 2))
        with pytest.raises(ParameterError, match="at most"):
            MixedRadix(np.zeros((33, 1), dtype=np.uint64), moduli)


def _settings(q: int) -> list:
    """Every ``(num, den, out)`` row BFV uses at modulus ``q``, plus
    ``num = q - 1``."""
    smaller = q // 3 | 1 if q > 64 else q
    rows = [(1, 1, q), (PLAIN, q, q), (PLAIN, q, PLAIN), (q - 1, q, q)]
    if q > 64:
        rows.append((smaller, q, smaller))
    return rows


def _check_exit(xs: list, moduli: tuple, num: int, den: int, out: int) -> None:
    rows = np.array([[x % p for x in xs] for p in moduli], dtype=np.uint64)
    exact = MixedRadix(rows, moduli)
    got = pl.to_ints(exact.scale_round(num, den, out))
    expected = (oracle.round_scale(xs, num, den) % out).tolist()
    assert got == expected, (num, den, out)
    if den > 1:
        rounded = oracle.round_scale(xs, num, den)
        worst = max(abs(num * x - den * r) for x, r in zip(xs, rounded.tolist()))
        assert exact.remainder_bound(num, den) == worst


def _lanes_for(q: int, num: int, moduli: tuple, data) -> list:
    half = (math.prod(moduli) - 1) // 2
    xs = data.draw(st.lists(st.integers(-half, half), min_size=1, max_size=12))
    xs += [0, 1, -1, half, -half, half - 1, -half + 1]
    xs += [x for x in near_ties(q, num, 3) if abs(x) <= half]
    xs += [oracle.centered(v, q) for v in edge_values(q) if v <= half]
    return xs


class TestExit:
    @EXAMPLES
    @given(data=st.data(), q=odd_moduli, extra=st.integers(0, 3))
    def test_every_setting_at_1_to_7_limbs(self, data, q, extra):
        for num, den, out in _settings(q):
            # Enough primes for q, plus up to three more.
            k = len(bundle_for(2 * q)) + extra
            moduli = bundle(k)
            _check_exit(_lanes_for(q, max(num, 1), moduli, data), moduli, num, den, out)

    @pytest.mark.parametrize("q", PAPER_MODULI)
    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_paper_moduli(self, q, k):
        moduli = bundle(k)
        half = (math.prod(moduli) - 1) // 2
        rng = random.Random(q * k)
        xs = [rng.randint(-half, half) for _ in range(128)]
        xs += [0, 1, -1, half, -half]
        xs += [x for x in near_ties(q, PLAIN, 8) if abs(x) <= half]
        for num, den, out in _settings(q):
            _check_exit(xs, moduli, num, den, out)

    @pytest.mark.parametrize("q", PAPER_MODULI)
    def test_tensor_sized_values_near_ties(self, q):
        """Products as wide as the BFV tensor's, each one unit from a
        tie of ``t * x / q``: the rounding carry's correction decides
        every one of them."""
        moduli = bundle(len(bundle_for(2 * 4096 * q * q)))
        half = (math.prod(moduli) - 1) // 2
        inverse = inverse_mod(PLAIN, q)
        xs = []
        for j in range(1, 64):
            base = j * (half // 64)
            for target in ((q - 1) // 2, (q + 1) // 2):
                x = base - base % q + target * inverse % q
                xs += [x, -x]
        _check_exit(xs, moduli, PLAIN, q, q)
        _check_exit(xs, moduli, PLAIN, q, PLAIN)

    @pytest.mark.parametrize("k", [1, 2, 5, 8, 16, 32])
    def test_exits_reuse_the_block_without_copies(self, k, monkeypatch):
        """Exits write their quotients into the block's spare rows: no
        ``np.stack``/``np.vstack`` copy, the digits untouched, and any
        sequence of exits on one value matches the oracle, lanes at
        ``+-P/2`` included."""
        q = PAPER_MODULI[-1]
        moduli = bundle(k)
        half = (math.prod(moduli) - 1) // 2
        rng = random.Random(k)
        xs = [rng.randint(-half, half) for _ in range(24)] + [0, 1, -1, half, -half]
        rows = np.array([[x % p for x in xs] for p in moduli], dtype=np.uint64)
        exact = MixedRadix(rows, moduli)
        digits = exact._block[: k + 1].copy()
        expected = {
            setting: (oracle.round_scale(xs, setting[0], setting[1]) % setting[2]).tolist()
            for setting in _settings(q)
        }

        def no_copies(*args, **kwargs):
            raise AssertionError("an exit copied the digit block")

        monkeypatch.setattr(np, "vstack", no_copies)
        monkeypatch.setattr(np, "stack", no_copies)
        order = [*_settings(q), *reversed(_settings(q))]
        got = [exact.scale_round(*setting) for setting in order]
        monkeypatch.undo()
        for setting, planes in zip(order, got):
            assert pl.to_ints(planes) == expected[setting], setting
        rounded = oracle.round_scale(xs, PLAIN, q).tolist()
        worst = max(abs(PLAIN * x - q * r) for x, r in zip(xs, rounded))
        assert exact.remainder_bound(PLAIN, q) == worst
        assert exact.signed() == xs
        assert np.array_equal(exact._block[: k + 1], digits)

    def test_rejects_an_even_denominator(self):
        exact = MixedRadix(np.zeros((1, 1), dtype=np.uint64), bundle(1))
        with pytest.raises(ParameterError, match="odd"):
            exact.scale_round(1, 4, 7)


def bundle_for(bound: int) -> tuple:
    moduli = []
    while math.prod(moduli) < bound or not moduli:
        moduli.append(crt_prime(BUNDLE_N, len(moduli)))
    return tuple(moduli)


class TestPolynomialScale:
    @pytest.mark.parametrize("q", PAPER_MODULI)
    def test_scale_matches_the_oracle(self, q):
        rng = random.Random(q)
        values = [rng.randrange(q) for _ in range(56)] + edge_values(q)
        values += [0] * (64 - len(values))
        poly = Polynomial(values, q)
        xs = [oracle.centered(v, q) for v in values]
        smaller = find_ntt_prime(q.bit_length() - 1, 64)
        for num, den, out in [(1, 1, q), (q - 1, 1, q), (smaller, q, smaller)]:
            got = poly.scale(num, den, out)
            assert list(got.coeffs) == (oracle.round_scale(xs, num, den) % out).tolist()


class TestBaseDigits:
    @pytest.mark.parametrize("base_bits", [1, 14, 30, 32, 40, 62])
    @pytest.mark.parametrize("q", PAPER_MODULI)
    def test_digits_of_limb_planes(self, q, base_bits):
        rng = random.Random(base_bits)
        values = [rng.randrange(q) for _ in range(32)] + edge_values(q)
        count = -(-q.bit_length() // base_bits)
        digits = base_digits(pl.from_ints(values, q), base_bits, count)
        mask = (1 << base_bits) - 1
        assert [d.tolist() for d in digits] == [
            [v >> (i * base_bits) & mask for v in values] for i in range(count)
        ]
        assert base_digits(pl.from_ints(values, q), base_bits, count - 1) is None


def tied_values(value: int, q: int, rng: random.Random) -> list:
    """Lanes equal to ``value`` on every limb above limb ``j``, for each
    ``j``, with random lower limbs (and ``value`` and its neighbours):
    the lanes a top-down comparison must settle on a lower limb."""
    limbs = pl.limb_count(q)
    out = [value, value - 1, value + 1]
    for j in range(1, limbs):
        high = value >> (LIMB_BITS * j) << (LIMB_BITS * j)
        out += [high | rng.getrandbits(LIMB_BITS * j) for _ in range(3)]
        out += [high, high | ((1 << (LIMB_BITS * j)) - 1)]
    return [v for v in out if 0 <= v < q]


class TestComparisons:
    """``above`` and ``max_magnitude`` against the borrow-chain forms
    they replaced, at 1 to 7 limbs."""

    @EXAMPLES
    @given(data=st.data(), q=moduli_1_to_7_limbs)
    def test_above_matches_the_borrow_form(self, data, q):
        rng = random.Random(q)
        value = data.draw(st.integers(0, q - 1))
        values = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=16))
        values += edge_values(q) + tied_values(value, q, rng)
        values += tied_values(q // 2, q, rng)
        planes = pl.from_ints(values, q)
        for threshold in (value, q // 2, q - 1):
            borrow = pl.subtract(pl.constant(threshold, len(planes)), planes)[1]
            got = pl.above(planes, threshold)
            assert got.tolist() == borrow.tolist()
            assert got.tolist() == [v > threshold for v in values]

    def test_above_a_value_wider_than_the_lanes(self):
        planes = pl.from_ints([0, 5, (1 << 64) - 1], (1 << 64) + 1)[:2]
        assert not pl.above(planes, 1 << 64).any()

    @EXAMPLES
    @given(data=st.data(), q=moduli_1_to_7_limbs)
    def test_max_magnitude_matches_the_magnitudes_form(self, data, q):
        rng = random.Random(q)
        values = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=16))
        values += data.draw(st.sampled_from([[], edge_values(q)]))
        values += tied_values(data.draw(st.integers(0, q - 1)), q, rng)
        planes = pl.from_ints(values, q)
        expected = max(abs(oracle.centered(v, q)) for v in values)
        assert pl.max_int(pl.magnitudes(planes, q)) == expected
        assert pl.max_magnitude(planes, q) == expected

    @pytest.mark.parametrize("limbs", range(1, 8))
    def test_max_magnitude_of_one_half_only(self, limbs):
        """Every lane in the lower half, then every lane in the upper
        half, with lanes tied on all but their lowest limb."""
        q = (1 << (LIMB_BITS * limbs)) - 1
        half = q // 2
        low = [half, half - 1, half >> 1, 0]
        high = [q - 1, half + 1, half + 2]
        for values in (low, high):
            planes = pl.from_ints(values, q)
            assert pl.max_magnitude(planes, q) == pl.max_int(pl.magnitudes(planes, q))
