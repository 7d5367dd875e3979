"""Samplers: ranges, determinism, and distribution sanity."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.poly.modring import find_ntt_prime
from repro.poly.planes import to_ints
from repro.poly.sampling import (
    DEFAULT_CBD_ETA,
    sample_centered_binomial,
    sample_ternary,
)
from repro.poly.sampling import sample_uniform as sample_uniform_planes
from tests.poly.reference_sampling import reference_centered_binomial


def sample_uniform(n, modulus, rng) -> list:
    """The sampler's draws as Python ints."""
    return to_ints(sample_uniform_planes(n, modulus, rng))


def reference_uniform(n: int, modulus: int, rng) -> list:
    """The sampler one candidate at a time: the same ``rng.bytes``
    calls, each ``n_bytes``-wide candidate parsed with
    ``int.from_bytes``, masked, and kept while below the modulus."""
    n_bytes = (modulus.bit_length() + 7) // 8
    excess_bits = 8 * n_bytes - modulus.bit_length()
    mask = (1 << (8 * n_bytes)) - 1 >> excess_bits
    out = []
    while len(out) < n:
        raw = rng.bytes(n_bytes * (n - len(out) + 8))
        for i in range(0, len(raw) - n_bytes + 1, n_bytes):
            candidate = int.from_bytes(raw[i : i + n_bytes], "little") & mask
            if candidate < modulus:
                out.append(candidate)
                if len(out) == n:
                    break
    return out


class TestUniformAgainstTheLoop:
    """Vectorized rejection sampling draws exactly what the
    per-candidate loop draws, and leaves the generator where it does."""

    @pytest.mark.parametrize(
        "modulus",
        [
            find_ntt_prime(27, 1024),
            find_ntt_prime(54, 2048),
            find_ntt_prime(109, 4096),
            7,  # one byte
            (1 << 20) + 7,  # three bytes: n_bytes not a multiple of 4
            (1 << 40) + 15,  # six bytes
            (1 << 64) - 59,  # eight bytes, top limb all ones below q
            (1 << 72) + 1,  # ten bytes, bit 72 alone in its byte
        ],
    )
    @pytest.mark.parametrize("n", [1, 37, 4096])
    def test_equal_draws(self, modulus, n):
        fast, slow = np.random.default_rng(11), np.random.default_rng(11)
        assert sample_uniform(n, modulus, fast) == reference_uniform(n, modulus, slow)
        assert fast.bytes(16) == slow.bytes(16)

    def test_returns_reduced_limb_planes(self):
        q = find_ntt_prime(109, 4096)
        planes = sample_uniform_planes(64, q, np.random.default_rng(2))
        assert planes.shape == (4, 64) and planes.dtype == np.uint64
        assert int(planes.max()) < 1 << 32


class TestUniform:
    def test_values_in_range(self, rng):
        q = 1009
        values = sample_uniform(500, q, rng)
        assert len(values) == 500
        assert all(0 <= v < q for v in values)

    def test_wide_modulus(self, rng):
        """The 109-bit modulus exceeds native words; sampling must
        still be exact."""
        q = find_ntt_prime(109, 4096)
        values = sample_uniform(64, q, rng)
        assert all(0 <= v < q for v in values)
        assert max(values).bit_length() > 64  # actually uses the range

    def test_deterministic_for_seed(self):
        a = sample_uniform(32, 997, np.random.default_rng(5))
        b = sample_uniform(32, 997, np.random.default_rng(5))
        assert a == b

    def test_different_seeds_differ(self):
        a = sample_uniform(32, 997, np.random.default_rng(5))
        b = sample_uniform(32, 997, np.random.default_rng(6))
        assert a != b

    def test_covers_range(self, rng):
        """Rejection sampling must not truncate the top of the range."""
        values = sample_uniform(2000, 7, rng)
        assert set(values) == set(range(7))

    def test_mean_near_half_modulus(self, rng):
        q = 2**20
        values = sample_uniform(4000, q, rng)
        assert abs(np.mean(values) / q - 0.5) < 0.02

    def test_rejects_bad_args(self, rng):
        with pytest.raises(ParameterError):
            sample_uniform_planes(0, 97, rng)
        with pytest.raises(ParameterError):
            sample_uniform_planes(4, 1, rng)


class TestTernary:
    def test_support(self, rng):
        values = sample_ternary(3000, rng)
        assert set(values) <= {-1, 0, 1}
        assert set(values) == {-1, 0, 1}  # all three appear at n=3000

    def test_roughly_uniform(self, rng):
        values = sample_ternary(9000, rng)
        for v in (-1, 0, 1):
            assert abs(np.count_nonzero(values == v) / 9000 - 1 / 3) < 0.03

    def test_rejects_zero_count(self, rng):
        with pytest.raises(ParameterError):
            sample_ternary(0, rng)


class TestCenteredBinomial:
    def test_support_bounded(self, rng):
        values = sample_centered_binomial(2000, rng, eta=8)
        assert all(-8 <= v <= 8 for v in values)

    def test_mean_zero_variance_eta_half(self, rng):
        eta = DEFAULT_CBD_ETA
        values = sample_centered_binomial(20000, rng, eta=eta)
        assert abs(np.mean(values)) < 0.1
        assert np.var(values) == pytest.approx(eta / 2, rel=0.1)

    def test_default_eta_matches_sigma_3_2(self, rng):
        """The default error width approximates the HE-standard
        sigma ~ 3.2."""
        sigma = (DEFAULT_CBD_ETA / 2) ** 0.5
        assert 3.0 < sigma < 3.5

    def test_rejects_bad_args(self, rng):
        with pytest.raises(ParameterError):
            sample_centered_binomial(0, rng)
        with pytest.raises(ParameterError):
            sample_centered_binomial(4, rng, eta=0)


def _later_draws(rng) -> tuple:
    """Draws that read the generator's state after a sampler call: a
    lone coin (which takes a buffered half word first), then 64-bit
    integers and floats."""
    return (
        rng.integers(0, 2, size=3).tolist(),
        rng.integers(0, 1 << 62, size=4).tolist(),
        rng.random(2).tolist(),
    )


class TestCenteredBinomialAgainstTwoDraws:
    """The raw-word sampler draws the coins of the two ``rng.integers``
    draws it replaced, and leaves the generator where they do."""

    @pytest.mark.parametrize("eta", [1, 2, 21])
    @pytest.mark.parametrize("n", [1, 3, 64, 1024, 4096])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2023, 2**40 + 3])
    def test_equal_samples_and_later_draws(self, seed, n, eta):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(
            sample_centered_binomial(n, fast, eta),
            reference_centered_binomial(n, slow, eta),
        )
        assert _later_draws(fast) == _later_draws(slow)

    @pytest.mark.parametrize("n, eta", [(1, 1), (3, 21), (1024, 21)])
    def test_buffered_half_word(self, n, eta):
        """One coin drawn first leaves half a raw word buffered; the
        sampler must start from it, as ``rng.integers`` does."""
        fast, slow = np.random.default_rng(5), np.random.default_rng(5)
        assert fast.integers(0, 2) == slow.integers(0, 2)
        assert fast.bit_generator.state["has_uint32"] == 1
        assert np.array_equal(
            sample_centered_binomial(n, fast, eta),
            reference_centered_binomial(n, slow, eta),
        )
        assert _later_draws(fast) == _later_draws(slow)

    @pytest.mark.parametrize("n, eta", [(3, 2), (1024, 21)])
    def test_other_bit_generator(self, n, eta):
        fast = np.random.Generator(np.random.Philox(9))
        slow = np.random.Generator(np.random.Philox(9))
        assert np.array_equal(
            sample_centered_binomial(n, fast, eta),
            reference_centered_binomial(n, slow, eta),
        )
        assert _later_draws(fast) == _later_draws(slow)

    def test_many_seeds(self):
        for seed in range(200):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(
                sample_centered_binomial(37, fast, 21),
                reference_centered_binomial(37, slow, 21),
            ), seed
            # ``uinteger`` keeps a stale half word once it is consumed;
            # only the PCG state and the buffered flag are observable.
            after = fast.bit_generator.state, slow.bit_generator.state
            assert [(s["state"], s["has_uint32"]) for s in after] == [
                (after[1]["state"], 0)
            ] * 2
