"""Negacyclic Number Theoretic Transform over bundles of 31-bit primes.

The NTT is half of SEAL's advantage in the paper (Section 4.1: SEAL
"leverages the Residue Number System (RNS) and the Number Theoretic
Transform (NTT) implementations for faster operations"), and is
deliberately *not* used on the PIM device ("We do not incorporate
Number Theoretic Transform techniques to optimize multiplication. We
leave them for future work.", Section 3). Here it runs the exact
convolution's CRT bundle (:mod:`repro.poly.polynomial`) and the batch
encoder's slot transform; the CPU-SEAL backend prices SEAL's own
transforms analytically.

The transforms are the standard pair used by production HE libraries:
Cooley–Tukey forward and Gentleman–Sande inverse butterflies, with the
powers of the primitive ``2n``-th root ``psi`` merged into bit-reversed
twiddles (and ``n^{-1}`` into the inverse's last stage), so they
compute the negacyclic (x^n + 1) convolution without pre-weighting.
The forward output is in bit-reversed order, the inverse takes it back.

One call transforms every prime of a bundle: ``(k, n)`` ``uint64``
rows, one row per prime, against a :class:`Twiddles` table of those
primes (:class:`NTTContext` is the one-prime case). Each of the
``log2 n`` stages is one constant-geometry (Pease) pass of about ten
numpy operations over the whole bundle:

* a forward stage pairs the two contiguous halves of the rows and
  writes each butterfly's outputs as an interleaved pair;
* an inverse stage reads interleaved pairs and writes the two halves.

The pairing is the same at every stage and the index bits rotate by
one per stage, so after ``log2 n`` stages the outputs sit in the
in-place transform's order. The twiddle of pair ``j`` at a stage of
``m`` blocks is ``W[m + j % m]``: a ``(k, 1, m)`` view of the table,
broadcast over the rows. The inverse needs no table of its own: for
these twiddles ``W_inv[m + r] = p - W[2m - 1 - r]``, a reversed view.
Stages write into buffers allocated once per call; the caller's rows
are never written.

Twiddle products use Shoup multiplication: with ``w' = floor(w 2^32 /
p)`` precomputed, ``x w - floor(x w' / 2^32) p`` is ``x w mod p`` or
that plus ``p`` for any ``x < 2^32``, so no butterfly divides. Forward
stages keep values below ``2p`` (Harvey's lazy reduction) and reduce
once at the end. Every prime is below :data:`NATIVE_PRIME_LIMIT`, so
every value and product fits a ``uint64`` word; a wider modulus takes
a CRT bundle of such primes, not a wider prime.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ParameterError
from repro.poly.modring import inverse_mod, is_prime, root_of_unity

#: Every NTT prime is below this, so transforms run on ``uint64``: values
#: stay below ``2p < 2^32``, the Shoup quotient ``x * w'`` below
#: ``2^64`` and the twiddle product ``x * w`` below ``2^63``.
NATIVE_PRIME_LIMIT = 1 << 31

_SHOUP_SHIFT = np.uint64(32)


def _bit_reversed_powers(roots: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """``roots^bitrev(i) mod p`` for ``i < n``: ``(k, n)`` ``uint64``.

    ``roots`` and ``p`` are ``(k, 1)`` columns. Powers come from running
    products (each doubling multiplies the table so far by the next
    power of two of the root), and the bit-reversal permutation is built
    one index bit at a time.
    """
    powers = np.ones((len(p), 1), dtype=np.uint64)
    step = roots
    while powers.shape[1] < n:
        powers = np.concatenate((powers, powers * step % p), axis=1)
        step = step * step % p
    log_n = n.bit_length() - 1
    index = np.arange(n)
    reversed_index = np.zeros(n, dtype=index.dtype)
    for bit in range(log_n):
        reversed_index |= ((index >> bit) & 1) << (log_n - 1 - bit)
    return powers[:, reversed_index]


def _shoup(values: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``floor(values * 2^32 / p)``: the Shoup companions of ``values < p``."""
    return (values << _SHOUP_SHIFT) // p


class Twiddles:
    """Stage tables of the negacyclic NTT over ``primes`` at degree ``n``.

    Every table has one row per prime: ``fwd`` holds the bit-reversed
    powers ``W`` of ``psi`` (``(k, n)``), which serve the inverse too,
    and ``scale`` holds ``n^{-1}`` and ``W[1] n^{-1}``, the inverse's
    last-stage factors (``(k, 2)``); each has its Shoup companion.
    Slicing selects primes and returns views, so the tables of a
    sub-bundle share the memory of the whole.
    """

    __slots__ = (
        "n", "primes", "roots", "p",
        "fwd", "fwd_shoup", "scale", "scale_shoup",
    )

    def __init__(self, n: int, primes: tuple):
        roots = tuple(root_of_unity(p, 2 * n) for p in primes)
        p = np.array(primes, dtype=np.uint64)[:, None]
        fwd = _bit_reversed_powers(np.array(roots, dtype=np.uint64)[:, None], n, p)
        n_inv = np.array([inverse_mod(n, q) for q in primes], dtype=np.uint64)[:, None]
        scale = np.hstack((n_inv, fwd[:, 1:2] * n_inv % p))
        self._set(
            n, tuple(primes), tuple(roots),
            (fwd, _shoup(fwd, p), scale, _shoup(scale, p)),
        )

    def _set(self, n: int, primes: tuple, roots: tuple, tables: tuple) -> None:
        self.n = n
        self.primes = primes
        self.roots = roots
        self.fwd, self.fwd_shoup, self.scale, self.scale_shoup = tables
        self.p = np.array(primes, dtype=np.uint64)[:, None]

    def __len__(self) -> int:
        return len(self.primes)

    def __getitem__(self, rows: slice) -> "Twiddles":
        """The tables of ``primes[rows]``, as views of these."""
        view = object.__new__(Twiddles)
        view._set(
            self.n, self.primes[rows], self.roots[rows],
            (self.fwd[rows], self.fwd_shoup[rows], self.scale[rows],
             self.scale_shoup[rows]),
        )
        return view


def _mul_shoup(x, w, w_shoup, p, out, quotient) -> None:
    """``out = x * w mod p + (0 or p)``, for ``x < 2^32``, ``w < p``.

    The quotient estimate ``floor(x w' / 2^32)`` is the true quotient or
    one below it, so the remainder lands in ``[0, 2p)``. ``x``, ``out``
    and the twiddles are 3-D stage views; ``quotient`` is 2-D scratch of
    the same size.
    """
    np.multiply(x, w_shoup, out=quotient.reshape(x.shape))
    np.right_shift(quotient, _SHOUP_SHIFT, out=quotient)
    np.multiply(quotient, p, out=quotient)
    np.multiply(x, w, out=out)
    np.subtract(out, quotient.reshape(x.shape), out=out)


def _reduce(values: np.ndarray, p: np.ndarray, scratch: np.ndarray) -> None:
    """``values mod p`` in place, for ``values < 2p``: ``values - p``
    wraps past ``2^64`` exactly when ``values < p``, so the minimum is
    right."""
    np.subtract(values, p, out=scratch)
    np.minimum(values, scratch, out=values)


def _check_rows(rows: np.ndarray, twiddles: Twiddles) -> tuple:
    k, n = rows.shape
    if k != len(twiddles) or n != twiddles.n:
        raise ParameterError(
            f"rows of shape {rows.shape} do not match {len(twiddles)} primes "
            f"at degree {twiddles.n}"
        )
    return k, n


def _buffers(k: int, n: int) -> tuple:
    """The result array, then one block for the other stage buffer and
    the scratch: allocated in that order, so the block freed on return
    sits above the result and does not split the heap."""
    out = np.empty((k, n), np.uint64)
    work, scratch = np.empty((2, k, n), np.uint64)
    return out, work, scratch


def forward(rows: np.ndarray, twiddles: Twiddles) -> np.ndarray:
    """Forward negacyclic NTT of every row, each below ``2p`` for its
    prime: a fresh ``(k, n)`` array in ``[0, p)``, in bit-reversed order.

    Stage of ``m`` blocks, pair ``j``: ``u = x[j]``, ``v = x[j + n/2]``,
    ``t = v W[m + j % m]``; writes ``u + t`` and ``u - t`` to positions
    ``2j`` and ``2j + 1``, each kept below ``2p``.
    """
    k, n = _check_rows(rows, twiddles)
    if n == 1:
        return rows % twiddles.p
    half = n // 2
    p = twiddles.p
    p2 = p + p
    out, work, scratch = _buffers(k, n)
    t, tmp = scratch.reshape(2, k, half)
    # Stages alternate between the buffers, the first writing
    # buffers[0]; ordered so the last of the log2(n) stages writes out.
    buffers = (out, work) if (n.bit_length() - 1) % 2 else (work, out)
    src, m = rows, 1
    while m < n:
        dst = buffers[src is buffers[0]]
        shape = (k, half // m, m)
        u = src[:, :half]
        _mul_shoup(
            src[:, half:].reshape(shape),
            twiddles.fwd[:, None, m : 2 * m],
            twiddles.fwd_shoup[:, None, m : 2 * m],
            p, t.reshape(shape), tmp,
        )
        pairs = dst.reshape(k, half, 2)
        np.add(u, t, out=pairs[..., 0])  # below 4p
        np.subtract(p2, t, out=tmp)
        np.add(u, tmp, out=pairs[..., 1])  # u - t + 2p, below 4p
        _reduce(dst, p2, scratch)
        src, m = dst, 2 * m
    _reduce(src, p, scratch)
    return src


def inverse(rows: np.ndarray, twiddles: Twiddles) -> np.ndarray:
    """Inverse negacyclic NTT of every row in ``[0, p)``, scaled by
    ``n^{-1}``: a fresh ``(k, n)`` array in ``[0, p)``.

    Stage of ``m`` blocks, pair ``j``: ``u = x[2j]``, ``v = x[2j + 1]``;
    writes ``u + v`` and ``(u - v) W_inv[m + j % m]`` to positions ``j``
    and ``j + n/2``. For the negacyclic twiddles ``W_inv[m + r] = p -
    W[2m - 1 - r]``, so that product is ``(v - u) W[2m - 1 - j % m]``: a
    reversed view of the forward table. The last stage (``m = 1``)
    multiplies both outputs by its :attr:`Twiddles.scale` factors.
    """
    k, n = _check_rows(rows, twiddles)
    if n == 1:
        return rows % twiddles.p
    half = n // 2
    p = twiddles.p
    out, work, scratch = _buffers(k, n)
    s, tmp = scratch.reshape(2, k, half)
    buffers = (out, work) if (n.bit_length() - 1) % 2 else (work, out)
    src, m = rows, half
    while m >= 1:
        dst = buffers[src is buffers[0]]
        shape = (k, half // m, m)
        pairs = src.reshape(k, half, 2)
        u, v = pairs[..., 0], pairs[..., 1]
        top, bottom = dst[:, :half], dst[:, half:].reshape(shape)
        if m > 1:
            w = twiddles.fwd[:, None, 2 * m - 1 : m - 1 : -1]
            w_shoup = twiddles.fwd_shoup[:, None, 2 * m - 1 : m - 1 : -1]
            np.add(u, v, out=top)  # below 2p
        else:
            w = twiddles.scale[:, None, 1:]
            w_shoup = twiddles.scale_shoup[:, None, 1:]
            np.add(u, v, out=s)
            _mul_shoup(
                s.reshape(shape), twiddles.scale[:, None, :1],
                twiddles.scale_shoup[:, None, :1], p, top.reshape(shape), tmp,
            )
        np.add(v, p, out=s)
        np.subtract(s, u, out=s)  # v - u + p, below 2p
        _mul_shoup(s.reshape(shape), w, w_shoup, p, bottom, tmp)
        _reduce(dst, p, scratch)
        src, m = dst, m // 2
    return src


class NTTContext:
    """Precomputed negacyclic NTT for ring degree ``n`` and prime ``p``.

    The one-prime case of :func:`forward` and :func:`inverse`, over a
    one-row :class:`Twiddles` table. Lists go in and lists of Python
    ints come out; a ``uint64`` array goes in and one comes out, so
    callers chaining transforms skip the list conversions. Every input
    is reduced modulo ``p`` once. ``p`` must be below
    :data:`NATIVE_PRIME_LIMIT`.

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
        self.twiddles = Twiddles(n, (p,))
        self.psi = self.twiddles.roots[0]
        self.n_inv = inverse_mod(n, p)

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
        """Forward transform of a reduced ``uint64`` array (not written)."""
        return forward(a[None, :], self.twiddles)[0]

    def _inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse transform of a reduced ``uint64`` array (not written)."""
        return inverse(a[None, :], self.twiddles)[0]

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
