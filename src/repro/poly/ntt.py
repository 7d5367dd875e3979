"""Negacyclic Number Theoretic Transform over 31-bit primes.

The NTT is half of SEAL's advantage in the paper (Section 4.1: SEAL
"leverages the Residue Number System (RNS) and the Number Theoretic
Transform (NTT) implementations for faster operations"), and is
deliberately *not* used on the PIM device ("We do not incorporate
Number Theoretic Transform techniques to optimize multiplication. We
leave them for future work.", Section 3). Here it runs the exact
convolution's CRT bundle (:mod:`repro.poly.polynomial`) and the batch
encoder's slot transform; the CPU-SEAL backend prices SEAL's own
transforms analytically.

This implementation is the standard iterative pair used by production
HE libraries:

* forward: Cooley–Tukey butterflies in bit-reversed order, with the
  powers of the primitive ``2n``-th root ``psi`` *merged into the
  twiddles*, so the transform natively computes the negacyclic
  (x^n + 1) convolution without explicit pre-weighting;
* inverse: Gentleman–Sande butterflies, with ``n^{-1}`` and the inverse
  psi powers merged.

Each of the ``log2 n`` stages is a handful of numpy operations on an
``(m, 2, t)`` view of the coefficients: block ``i`` pairs its two
halves with twiddle ``i`` of the stage, so no Python code runs per
butterfly. Every prime is below :data:`NATIVE_PRIME_LIMIT`, so every
intermediate fits a ``uint64`` word; a wider modulus takes a CRT
bundle of such primes, not a wider prime.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ParameterError
from repro.poly.modring import inverse_mod, is_prime, root_of_unity

#: Every NTT prime is below this, so transforms run on ``uint64``: with
#: operands in ``[0, p)``, a forward product ``a * w`` stays below
#: ``2^62`` and an inverse product ``(u + p - v) * w`` below ``2^63``.
NATIVE_PRIME_LIMIT = 1 << 31


def _bit_reversed_powers(root: int, n: int, p: int) -> np.ndarray:
    """``root^bitrev(i) mod p`` for ``i < n``, as ``uint64``.

    Powers come from running products (each doubling multiplies the
    table so far by the next power of two of ``root``), and the
    bit-reversal permutation is built one index bit at a time.
    """
    powers = np.ones(1, dtype=np.uint64)
    step = root
    while len(powers) < n:
        powers = np.concatenate((powers, powers * np.uint64(step) % np.uint64(p)))
        step = step * step % p
    log_n = n.bit_length() - 1
    index = np.arange(n)
    reversed_index = np.zeros(n, dtype=index.dtype)
    for bit in range(log_n):
        reversed_index |= ((index >> bit) & 1) << (log_n - 1 - bit)
    return powers[reversed_index]


def _reduce_once(values: np.ndarray, p: np.uint64) -> np.ndarray:
    """``values mod p`` for ``uint64`` values below ``2p``.

    ``values - p`` wraps past ``2^64`` exactly when ``values < p``, so
    the elementwise minimum picks the reduced value either way.
    """
    return np.minimum(values, values - p)


class NTTContext:
    """Precomputed negacyclic NTT for ring degree ``n`` and prime ``p``.

    The context owns the bit-reversed twiddle tables; transforms are
    pure functions. Lists go in and lists of Python ints come out; a
    ``uint64`` array goes in and one comes out, so callers chaining
    transforms skip the list conversions. Every input is reduced modulo
    ``p`` once. ``p`` must be below :data:`NATIVE_PRIME_LIMIT`.

    >>> ctx = NTTContext(8, 17)  # 17 == 1 (mod 16)
    >>> a = [1, 2, 3, 4, 0, 0, 0, 0]
    >>> ctx.inverse(ctx.forward(a)) == a
    True
    """

    def __init__(self, n: int, p: int):
        if n <= 0 or n & (n - 1):
            raise ParameterError(f"ring degree must be a power of two: {n}")
        if p >= NATIVE_PRIME_LIMIT:
            raise ParameterError(
                f"NTT prime must be below 2^31 to run on uint64 words; "
                f"got a {p.bit_length()}-bit p={p}"
            )
        if not is_prime(p):
            raise ParameterError(f"NTT modulus must be prime, got {p}")
        if (p - 1) % (2 * n):
            raise ParameterError(
                f"NTT requires p == 1 (mod 2n); got p={p}, n={n}"
            )
        self.n = n
        self.p = p
        self.log_n = n.bit_length() - 1
        self._p = np.uint64(p)
        psi = root_of_unity(p, 2 * n)
        self.psi = psi
        self.n_inv = inverse_mod(n, p)
        self._n_inv = np.uint64(self.n_inv)
        # Twiddle tables in bit-reversed order, psi powers merged
        # (Longa–Naehrig layout), sliced per stage as (blocks, 1)
        # columns: forward stages have 1, 2, ..., n/2 blocks, inverse
        # stages n/2, ..., 1.
        fwd = _bit_reversed_powers(psi, n, p)
        inv = _bit_reversed_powers(inverse_mod(psi, p), n, p)
        blocks = [1 << s for s in range(self.log_n)]
        self._fwd = [fwd[m : 2 * m, None] for m in blocks]
        self._inv = [inv[h : 2 * h, None] for h in reversed(blocks)]

    def _reduce(self, values) -> np.ndarray:
        """``values mod p`` as a fresh ``uint64`` array."""
        if len(values) != self.n:
            raise ParameterError(
                f"expected {self.n} values, got {len(values)}"
            )
        if isinstance(values, np.ndarray) and values.dtype == np.uint64:
            return values % self._p
        return np.array([int(v) % self.p for v in values], dtype=np.uint64)

    @staticmethod
    def _like(template, result: np.ndarray):
        """``result`` in the container type the caller passed in."""
        return result if isinstance(template, np.ndarray) else result.tolist()

    def _forward(self, a: np.ndarray) -> np.ndarray:
        """Forward stages on an already-reduced array.

        Butterfly sums are below ``2p``, so they are reduced with one
        conditional subtraction (:func:`_reduce_once`), not a division.
        """
        p = self._p
        for w in self._fwd:
            pairs = a.reshape(len(w), 2, -1)
            u = pairs[:, 0]
            v = pairs[:, 1] * w % p
            a = _reduce_once(np.stack((u + v, u + p - v), axis=1).reshape(-1), p)
        return a

    def _inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse stages and ``n^{-1}`` scaling on a reduced array."""
        p = self._p
        for w in self._inv:
            pairs = a.reshape(len(w), 2, -1)
            u = pairs[:, 0]
            v = pairs[:, 1]
            a = np.stack(
                (_reduce_once(u + v, p), (u + p - v) * w % p), axis=1
            ).reshape(-1)
        return a * self._n_inv % p

    def forward(self, coeffs):
        """Forward negacyclic NTT (coefficient → evaluation domain)."""
        return self._like(coeffs, self._forward(self._reduce(coeffs)))

    def inverse(self, values):
        """Inverse negacyclic NTT (evaluation → coefficient domain)."""
        return self._like(values, self._inverse(self._reduce(values)))

    def pointwise(self, a, b):
        """Element-wise product in the evaluation domain."""
        return self._like(a, self._reduce(a) * self._reduce(b) % self._p)

    def convolve(self, a, b):
        """Negacyclic convolution ``a * b mod (x^n + 1, p)``.

        The textbook NTT → pointwise → INTT pipeline; cost
        ``O(n log n)`` modular multiplications, versus ``O(n^2)`` for
        the schoolbook convolution the PIM device performs. Each
        operand is reduced once.
        """
        fa = self._forward(self._reduce(a))
        fb = self._forward(self._reduce(b))
        return self._like(a, self._inverse(fa * fb % self._p))

    #: Modular multiplications performed by one forward or inverse
    #: transform — (n/2) * log2(n) butterflies, one mulmod each; kept
    #: next to the algorithm it describes.
    def butterflies_per_transform(self) -> int:
        return (self.n // 2) * self.log_n


@lru_cache(maxsize=128)
def ntt_context(n: int, p: int) -> NTTContext:
    """The shared :class:`NTTContext` for ``(n, p)``, built once."""
    return NTTContext(n, p)
