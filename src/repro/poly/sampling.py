"""Deterministic samplers for key generation and encryption.

BFV needs three distributions (all standard for RLWE schemes):

* **uniform** residues modulo ``q`` — the public ``a`` polynomials;
* **ternary** coefficients in ``{-1, 0, 1}`` — secret keys and the
  encryption randomness ``u``;
* a narrow **error** distribution — here a centered binomial, the
  standard sampling-friendly stand-in for the discrete Gaussian with
  ``sigma = sqrt(eta / 2)`` (``eta = 21`` gives ``sigma ≈ 3.24``,
  matching the ~3.2 used by SEAL and the HE standard).

All sampling flows through an explicit :class:`numpy.random.Generator`
so every experiment in the harness is bit-for-bit reproducible.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.errors import ParameterError
from repro.poly import planes

#: Centered-binomial parameter giving sigma = sqrt(21/2) ~ 3.24, the
#: customary RLWE error width.
DEFAULT_CBD_ETA = 21


def sample_uniform(n: int, modulus: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` independent uniform residues in ``[0, modulus)``, as an
    ``(L, n)`` limb-plane array (:mod:`repro.poly.planes`).

    Works for moduli of any width (the 109-bit security level exceeds
    64-bit words): each candidate is ``ceil(bits / 8)`` little-endian
    random bytes masked to the modulus's bit width, and candidates at
    or above the modulus are rejected, which is exact — no modulo bias.
    A batch's candidates are parsed, masked and compared as limb planes,
    accepted in order, and the rest of the batch is discarded.
    """
    if n <= 0:
        raise ParameterError(f"sample count must be positive, got {n}")
    if modulus < 2:
        raise ParameterError(f"modulus must be >= 2, got {modulus}")
    n_bytes = (modulus.bit_length() + 7) // 8
    count = planes.limb_count(modulus)
    top_mask = np.uint64(((1 << modulus.bit_length()) - 1) >> (32 * (count - 1)))
    batches = []
    drawn = 0
    while drawn < n:
        # Draw a batch; rejection rate is < 50% by the mask construction.
        raw = rng.bytes(n_bytes * (n - drawn + 8))
        candidates = np.zeros((len(raw) // n_bytes, 4 * count), dtype=np.uint8)
        candidates[:, :n_bytes] = np.frombuffer(raw, dtype=np.uint8).reshape(
            -1, n_bytes
        )
        words = candidates.view("<u4").T.astype(np.uint64)
        words[-1] &= top_mask
        accepted = words[:, ~planes.above(words, modulus - 1)][:, : n - drawn]
        batches.append(accepted)
        drawn += accepted.shape[1]
    return np.concatenate(batches, axis=1)


def sample_ternary(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` coefficients drawn uniformly from ``{-1, 0, 1}`` (``int64``)."""
    if n <= 0:
        raise ParameterError(f"sample count must be positive, got {n}")
    return rng.integers(-1, 2, size=n)


def sample_centered_binomial(
    n: int, rng: np.random.Generator, eta: int = DEFAULT_CBD_ETA
) -> np.ndarray:
    """``n`` centered-binomial samples (``int64``): sum of ``eta`` coin
    differences.

    Each sample is ``sum(b_i) - sum(b'_i)`` over ``eta`` fair coin
    pairs, giving mean 0, variance ``eta / 2``, and support
    ``[-eta, eta]`` — a bounded, easily-sampled error distribution.

    The coins are the ones two ``rng.integers(0, 2, (n, eta))`` draws
    give (the ``b_i``, then the ``b'_i``), read from one
    :func:`_coin_words` block. The difference of the two coin blocks is
    an ``int8`` array and its row sums one ``float32`` matrix-vector
    product, exact for sums this small.
    """
    if n <= 0:
        raise ParameterError(f"sample count must be positive, got {n}")
    if eta <= 0:
        raise ParameterError(f"eta must be positive, got {eta}")
    count = n * eta
    coins = _coin_words(rng, 2 * count)
    if coins is None:
        ones = rng.integers(0, 2, size=(n, eta)).sum(axis=1)
        zeros = rng.integers(0, 2, size=(n, eta)).sum(axis=1)
        return (ones - zeros).astype(np.int64)
    heads = np.less(coins, 0).view(np.int8)
    diff = (heads[:count] - heads[count:]).reshape(n, eta)
    return (diff.astype(np.float32) @ np.ones(eta, np.float32)).astype(np.int64)


def _coin_words(rng: np.random.Generator, count: int):
    """The ``count`` 32-bit words that ``count`` fair-coin draws
    ``rng.integers(0, 2)`` read, as ``int32`` (a coin is the sign bit),
    or ``None`` where that stream cannot be read directly.

    ``Generator.integers(0, 2)`` takes one 32-bit word per coin from the
    bit generator's ``next_uint32`` and keeps ``floor(2 w / 2^32)``, the
    top bit of ``w``, by Lemire's bounded method, which never rejects at
    range 2: its threshold is ``(2^32 - 2) mod 2 = 0``. ``PCG64``'s ``next_uint32``
    returns the low half of a 64-bit word, then buffers the high half
    for the next call. With no half word buffered, ``count`` coins (for
    even ``count``) are therefore the sign bits of the ``count / 2``
    raw words ``random_raw`` returns, read as 32-bit halves, low half
    first (the word order of a little-endian host), and the generator
    ends where the draws leave it: same state, nothing buffered. Any
    other bit generator, a buffered half word or a big-endian host
    returns ``None``, and the caller draws through ``rng.integers``.
    """
    bit_generator = rng.bit_generator
    if (
        type(bit_generator) is not np.random.PCG64
        or sys.byteorder != "little"
        or count % 2
        or bit_generator.state["has_uint32"]
    ):
        return None
    return bit_generator.random_raw(count // 2).view(np.int32)
