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
primes (:class:`NTTContext` is the one-prime case). Leading batch axes
``(..., k, n)`` transform several polynomials over the same bundle in
the same call, against the same table: the exact engine transforms
every operand of one BFV operation at once, and takes every sum of it
back at once. Each of the ``log2 n`` stages is one constant-geometry
(Pease) pass of about a dozen numpy operations over the whole batch:

* a forward stage pairs the two contiguous halves of the rows and
  writes each butterfly's outputs as an interleaved pair;
* an inverse stage reads interleaved pairs and writes the two halves.

The pairing is the same at every stage and the index bits rotate by
one per stage, so after ``log2 n`` stages the outputs sit in the
in-place transform's order. The twiddle of pair ``j`` at a stage of
``m`` blocks is ``W[m + j % m]``. The inverse needs no powers of its
own: for these twiddles ``W_inv[m + r] = p - W[2m - 1 - r]``, a
reversed view of the forward powers.

numpy runs an operation on its fast path only when every operand is
one whole contiguous array of the same shape, or a 0-d scalar. A
broadcast ``(k, 1)`` column, a strided view or an inner loop a few
words long sends it through the general iterator, two to five times
slower per word. So the stage tables and buffers are laid out for the
stages, once per ring degree and set of primes (:class:`Twiddles`):

* **Modulus rows**: ``p`` and ``2p`` repeated over ``n/2`` words per
  prime, two contiguous ``(k, n/2)`` arrays, the shape of a butterfly
  half. Every conditional subtraction and every Shoup quotient times
  ``p`` runs on same-shape operands.
* **Twiddle blocks**: a stage of ``m >= BLOCK_WIDTH`` blocks reads
  ``W[m:2m]`` (forward) or its reversal (inverse) straight from the
  powers, ``m`` contiguous words broadcast over the ``n / 2m`` blocks.
  The ``log2 BLOCK_WIDTH`` stages with fewer blocks read their twiddles
  pre-tiled to ``BLOCK_WIDTH`` words, so no inner loop is shorter than
  a block. The inverse's last stage folds ``n^{-1}`` into its two
  blocks.
* **Halves-major stage buffers**: between the first and the last stage
  the two stage buffers hold every row's first half, then every
  second half, so the halves a stage computes on are contiguous
  ``(k, n/2)`` arrays. Butterflies compute into contiguous temporaries;
  only the twiddle products and the reads or writes of interleaved
  pairs take the general iterator. A batch of ``b`` polynomials runs
  on ``(b, k, n/2)`` halves against ``(1, k, n/2)`` views of the
  modulus rows: the one broadcast axis is the outermost, so every inner
  loop stays a whole contiguous row.

A table of ``k`` primes at degree ``n`` holds ``16 k n`` bytes of
powers and Shoup companions, ``8 k n`` bytes of modulus rows and
``16 k (2 log2 BLOCK_WIDTH + 1) BLOCK_WIDTH`` bytes of blocks
(:attr:`Twiddles.nbytes`): 109 KiB per prime at ``n = 4096``, 872 KiB
for the 8-prime bundle of a 109-bit tensor product. Each call
allocates its result (unless given one), and one other stage buffer
and two half-size temporaries for one slice of the batch
(:data:`BATCH_WORDS`); the caller's rows are never written, except by
a forward transform asked to run in place (``out=rows``).

Twiddle products use Shoup multiplication: with ``w' = floor(w 2^32 /
p)`` precomputed, ``x w - floor(x w' / 2^32) p`` is ``x w mod p`` or
that plus ``p`` for any ``x < 2^32``, so no butterfly divides. Forward
stages keep values below ``2p`` (Harvey's lazy reduction) and the last
one reduces below ``p``. Every prime is below
:data:`NATIVE_PRIME_LIMIT`, so every value and product fits a
``uint64`` word; a wider modulus takes a CRT bundle of such primes,
not a wider prime.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.errors import ParameterError
from repro.poly.modring import inverse_mod, is_prime, root_of_unity

#: Every NTT prime is below this, so transforms run on ``uint64``: values
#: stay below ``2p < 2^32``, the Shoup quotient ``x * w'`` below
#: ``2^64`` and the twiddle product ``x * w`` below ``2^63``.
NATIVE_PRIME_LIMIT = 1 << 31

#: Words per twiddle block: stages with fewer twiddles than this read
#: them tiled to this width (or to ``n/2``, when that is smaller).
BLOCK_WIDTH = 64

#: Most words (polynomials times primes times ``n``) one pass of stages
#: works on. A batch over more runs in slices of whole polynomials, so a
#: pass's buffers (about ``24 BATCH_WORDS`` bytes: 768 KiB) stay in one
#: core's cache: a batch of small rings runs as one pass, where the
#: per-call cost of about a dozen numpy calls per stage dominates, and
#: an ``n = 4096`` element of eight primes runs alone, where a wider
#: pass measured up to 15% slower per polynomial.
BATCH_WORDS = 1 << 15

_SHOUP_SHIFT = np.uint64(32)


def _bit_reversal(n: int) -> np.ndarray:
    """The bit-reversal permutation of ``range(n)``, built one index
    bit at a time."""
    log_n = n.bit_length() - 1
    index = np.arange(n)
    reversed_index = np.zeros(n, dtype=index.dtype)
    for bit in range(log_n):
        reversed_index |= ((index >> bit) & 1) << (log_n - 1 - bit)
    return reversed_index


def _bit_reversed_powers(root: int, p: int, order: np.ndarray) -> np.ndarray:
    """``root^order[i] mod p``, as ``uint64``, for the bit-reversal
    ``order`` of ``range(n)``.

    Powers come from running products: each doubling multiplies the
    table so far by the next power of two of the root.
    """
    n = len(order)
    p64 = np.uint64(p)
    powers = np.ones(1, dtype=np.uint64)
    step = root
    while len(powers) < n:
        powers = np.concatenate((powers, powers * np.uint64(step) % p64))
        step = step * step % p
    return powers[order]


class Twiddles:
    """Stage tables of the negacyclic NTT over ``primes`` at degree ``n``.

    Every table has one row per prime, and each value sits beside its
    Shoup companion ``floor(w 2^32 / p)`` on axis 1:

    * ``powers``: ``(k, 2, n)``, the bit-reversed powers ``W`` of
      ``psi``, read by the stages of ``BLOCK_WIDTH`` or more blocks;
    * ``blocks``: ``(k, 2, 2 s + 1, width)`` with ``width =
      min(BLOCK_WIDTH, n/2)``: row ``log2 m`` holds a forward stage's
      ``W[m:2m]`` tiled to ``width`` words, row ``s + log2 m`` an
      inverse stage's reversed ``W[m:2m]``, except that the inverse's
      last stage (``m = 1``) holds ``W[1] n^{-1}``; row ``2 s`` holds
      ``n^{-1}``, that stage's other factor;
    * ``modulus``: ``(2, k, n/2)``, ``p`` and ``2p`` repeated over a
      butterfly half: two contiguous ``(k, n/2)`` arrays.

    Slicing selects primes and returns views, so the tables of a
    sub-bundle share the memory of the whole.
    """

    __slots__ = ("n", "primes", "roots", "width", "powers", "blocks", "modulus")

    def __init__(self, n: int, primes: tuple):
        k, half = len(primes), max(n // 2, 1)
        width = min(BLOCK_WIDTH, half)
        stages = max(width.bit_length() - 1, 1)
        roots = tuple(root_of_unity(p, 2 * n) for p in primes)
        powers = np.empty((k, 2, n), dtype=np.uint64)
        blocks = np.zeros((k, 2, 2 * stages + 1, width), dtype=np.uint64)
        modulus = np.empty((2, k, half), dtype=np.uint64)
        order = _bit_reversal(n)
        for p, root, power, block, mod in zip(
            primes, roots, powers, blocks, modulus.transpose(1, 0, 2)
        ):
            w = power[0] = _bit_reversed_powers(root, p, order)
            n_inv = inverse_mod(n, p)
            for s in range(stages if n > 1 else 0):
                m = 1 << s
                block[0, s] = np.tile(w[m : 2 * m], width // m)
                block[0, stages + s] = np.tile(w[2 * m - 1 : m - 1 : -1], width // m)
            if n > 1:
                block[0, stages] = int(w[1]) * n_inv % p
            block[0, 2 * stages] = n_inv
            p64 = np.uint64(p)
            for table in (power, block):
                np.floor_divide(table[0] << _SHOUP_SHIFT, p64, out=table[1])
            mod[0], mod[1] = p, 2 * p
        self._set(n, tuple(primes), roots, width, (powers, blocks, modulus))

    def _set(self, n, primes, roots, width, tables) -> None:
        self.n = n
        self.primes = primes
        self.roots = roots
        self.width = width
        self.powers, self.blocks, self.modulus = tables

    def __len__(self) -> int:
        return len(self.primes)

    def __getitem__(self, rows: slice) -> "Twiddles":
        """The tables of ``primes[rows]``, as views of these."""
        view = object.__new__(Twiddles)
        view._set(
            self.n, self.primes[rows], self.roots[rows], self.width,
            (self.powers[rows], self.blocks[rows], self.modulus[:, rows]),
        )
        return view

    @property
    def nbytes(self) -> int:
        """Bytes held by the tables (a view reports its share)."""
        return self.powers.nbytes + self.blocks.nbytes + self.modulus.nbytes

    def forward_stage(self, m: int) -> tuple:
        """``(W, W')`` of the forward stage of ``m`` blocks: ``(k, 1,
        width)`` views, ``width`` being ``m`` or the block width."""
        if m < self.width:
            return self._block(m.bit_length() - 1)
        stage = self.powers[:, :, None, m : 2 * m]
        return stage[:, 0], stage[:, 1]

    def inverse_stage(self, m: int) -> tuple:
        """``(W, W')`` of the inverse stage of ``m`` blocks, in the
        shape :meth:`forward_stage` gives; at ``m = 1`` the bottom
        factor ``W[1] n^{-1}``."""
        stages = (self.blocks.shape[2] - 1) // 2
        if m < self.width or m == 1:
            return self._block(stages + m.bit_length() - 1)
        stage = self.powers[:, :, None, 2 * m - 1 : m - 1 : -1]
        return stage[:, 0], stage[:, 1]

    def n_inverse(self) -> tuple:
        """``(n^{-1}, n^{-1}')``: the inverse's top factor at its last
        stage, as blocks."""
        return self._block(-1)

    def _block(self, row: int) -> tuple:
        block = self.blocks[:, :, None, row]
        return block[:, 0], block[:, 1]


def _mul_shoup(x, w, w_shoup, p, out, quotient) -> None:
    """``out = x * w mod p + (0 or p)``, for ``x < 2^32``, ``w < p``.

    ``x``, ``out`` and ``quotient`` are ``(b, k, n/2)`` and the modulus
    rows ``p`` ``(1, k, n/2)``; the twiddles are ``(k, 1, width)`` stage
    views, and the two twiddle products run on ``(b, k, n/2 / width,
    width)`` views of ``x``. The quotient estimate ``floor(x w' /
    2^32)`` is the true quotient or one below it, so the remainder lands
    in ``[0, 2p)``.
    """
    *lead, half = x.shape
    shape = (*lead, half // w.shape[-1], w.shape[-1])
    np.multiply(x.reshape(shape), w_shoup, out=quotient.reshape(shape))
    np.right_shift(quotient, _SHOUP_SHIFT, out=quotient)
    np.multiply(quotient, p, out=quotient)
    np.multiply(x.reshape(shape), w, out=out.reshape(shape))
    np.subtract(out, quotient, out=out)


def _reduce(values: np.ndarray, p: np.ndarray, scratch: np.ndarray) -> None:
    """``values mod p`` in place, for ``values < 2p``: ``values - p``
    wraps past ``2^64`` exactly when ``values < p``, so the minimum is
    right. All three have the modulus rows' shape."""
    np.subtract(values, p, out=scratch)
    np.minimum(values, scratch, out=values)


def add_mod(rows: np.ndarray, other: np.ndarray, twiddles: Twiddles) -> None:
    """``rows = (rows + other) mod p`` in place, for ``(k, n)`` residues
    in ``[0, p)`` of ``twiddles``' primes."""
    _, k, n = _check_rows(rows, twiddles)
    rows += other
    p = twiddles.modulus[0][:, None]
    shape = (k, n // p.shape[-1], p.shape[-1])
    scratch = np.empty_like(rows)
    np.subtract(rows.reshape(shape), p, out=scratch.reshape(shape))
    np.minimum(rows, scratch, out=rows)


def _check_rows(rows: np.ndarray, twiddles: Twiddles) -> tuple:
    """``(b, k, n)`` of ``(..., k, n)`` rows: ``b`` polynomials (the
    product of the batch axes) over ``k`` primes at degree ``n``."""
    *batch, k, n = rows.shape
    if k != len(twiddles) or n != twiddles.n:
        raise ParameterError(
            f"rows of shape {rows.shape} do not match {len(twiddles)} primes "
            f"at degree {twiddles.n}"
        )
    return math.prod(batch), k, n


def _buffers(shape: tuple, out=None) -> tuple:
    """The ``(b, k, n)`` result array (``out`` when given), then per slice of at most
    :data:`BATCH_WORDS` words of the ``b`` polynomials its index range,
    the other stage buffer and two contiguous ``(c, k, n/2)``
    temporaries, cut to its size from one allocation each.

    Allocated in that order, so the blocks freed on return sit above
    the result and do not split the heap.
    """
    b, k, n = shape
    step = max(1, min(b, BATCH_WORDS // max(k * n, 1)))
    out = np.empty(shape, np.uint64) if out is None else out.reshape(shape)
    work = np.empty((step, k, n), np.uint64)
    temporaries = np.empty((2, step, k, n // 2), np.uint64)
    slices = []
    for start in range(0, b, step):
        size = min(step, b - start)
        slices.append((slice(start, start + size), work[:size], temporaries[:, :size]))
    return out, slices


def _stage_buffers(out: np.ndarray, work: np.ndarray, stages: int) -> list:
    """The buffer each stage writes: ``out`` at the last stage, and
    before it, alternately, ``work`` and ``out`` in halves-major layout
    (``(2, b, k, n/2)``: every row's first half, then every second
    half), so every stage reads a buffer the stage before it wrote, and
    the halves a stage computes on are contiguous."""
    b, k, n = out.shape
    halves = (out.reshape(2, b, k, n // 2), work.reshape(2, b, k, n // 2))
    return [halves[(stages - 1 - s) % 2] for s in range(stages - 1)] + [out]


def _halves(buffer: np.ndarray) -> tuple:
    """The first and second halves of a stage buffer's rows: ``(b, k,
    n/2)`` views, contiguous in halves-major layout."""
    if buffer.ndim == 4:
        return buffer[0], buffer[1]
    half = buffer.shape[-1] // 2
    return buffer[..., :half], buffer[..., half:]


def _pairs(buffer: np.ndarray) -> tuple:
    """The even and odd entries of a stage buffer's rows: views indexed
    by pair. From a ``(b, k, n)`` buffer they are ``(b, k, n/2)``; from
    a halves-major one ``(b, k, 2, n/4)``, pair ``j`` at ``[..., j //
    (n/4), j % (n/4)]``, which a contiguous ``(b, k, n/2)`` array
    reshapes to."""
    if buffer.ndim == 4:
        _, b, k, half = buffer.shape
        pairs = buffer.reshape(2, b, k, half // 2, 2).transpose(1, 2, 0, 3, 4)
    else:
        b, k, n = buffer.shape
        pairs = buffer.reshape(b, k, n // 2, 2)
    return pairs[..., 0], pairs[..., 1]


def forward(rows: np.ndarray, twiddles: Twiddles, out=None) -> np.ndarray:
    """Forward negacyclic NTT of every row of ``(..., k, n)`` rows, each
    below ``2p`` for its prime: an array of their shape in ``[0, p)``,
    in bit-reversed order. It is ``out`` when given, a contiguous array
    of that shape, which may be ``rows`` itself: the first stage reads
    every input word before it writes, so the batch is transformed in
    place, with no second copy.

    Stage of ``m`` blocks, pair ``j``: ``u = x[j]``, ``v = x[j + n/2]``,
    ``t = v W[m + j % m]``; writes ``u + t`` and ``u - t`` to positions
    ``2j`` and ``2j + 1``, each kept below ``2p``, and the last stage
    below ``p``.
    """
    b, k, n = _check_rows(rows, twiddles)
    if n == 1:
        result = rows - twiddles.modulus[0]
        np.minimum(rows, result, out=result)
        if out is None:
            return result
        out[...] = result
        return out
    batch = rows.reshape(b, k, n)
    result, slices = _buffers((b, k, n), out)
    for polys, work, temporaries in slices:
        _forward_stages(batch[polys], result[polys], work, temporaries, twiddles)
    return result.reshape(rows.shape) if out is None else out


def _forward_stages(src, out, work, temporaries, twiddles) -> None:
    """:func:`forward` of the ``(c, k, n)`` polynomials ``src`` into
    ``out``."""
    p, p2 = twiddles.modulus[:, None]
    a, t = temporaries
    stages = out.shape[-1].bit_length() - 1
    for stage, dst in enumerate(_stage_buffers(out, work, stages)):
        u, v = _halves(src)
        _mul_shoup(v, *twiddles.forward_stage(1 << stage), p, t, a)
        np.add(u, t, out=a)  # u + t, below 4p
        np.subtract(u, t, out=t)  # u - t, wrapped below zero
        # Scratch: a half of a stage buffer that nothing reads until the
        # copies below (n = 2 has no such buffer).
        e = dst[0] if dst.ndim == 4 else src[0] if src.ndim == 4 else np.empty_like(t)
        # u - t + 2p where u < t, else u - t: below 2p either way.
        np.add(t, p2, out=e)
        np.minimum(t, e, out=t)
        np.subtract(a, p2, out=e)
        np.minimum(a, e, out=a)
        if dst is out:
            _reduce(a, p, e)
            _reduce(t, p, e)
        even, odd = _pairs(dst)
        np.copyto(even, a.reshape(even.shape))
        np.copyto(odd, t.reshape(odd.shape))
        src = dst


def inverse(rows: np.ndarray, twiddles: Twiddles) -> np.ndarray:
    """Inverse negacyclic NTT of every row of ``(..., k, n)`` rows in
    ``[0, p)``, scaled by ``n^{-1}``: a fresh array of their shape in
    ``[0, p)``.

    Stage of ``m`` blocks, pair ``j``: ``u = x[2j]``, ``v = x[2j + 1]``;
    writes ``u + v`` and ``(u - v) W_inv[m + j % m]`` to positions ``j``
    and ``j + n/2``. For the negacyclic twiddles ``W_inv[m + r] = p -
    W[2m - 1 - r]``, so that product is ``(v - u) W[2m - 1 - j % m]``
    (:meth:`Twiddles.inverse_stage`). The last stage (``m = 1``)
    multiplies both outputs by their ``n^{-1}`` factors.
    """
    b, k, n = _check_rows(rows, twiddles)
    if n == 1:
        return rows.copy()  # n^{-1} = 1
    batch = rows.reshape(b, k, n)
    out, slices = _buffers((b, k, n))
    for polys, work, temporaries in slices:
        _inverse_stages(batch[polys], out[polys], work, temporaries, twiddles)
    return out.reshape(rows.shape)


def _inverse_stages(src, out, work, temporaries, twiddles) -> None:
    """:func:`inverse` of the ``(c, k, n)`` polynomials ``src`` into
    ``out``."""
    p = twiddles.modulus[0][None]
    s, q = temporaries
    n = out.shape[-1]
    stages = n.bit_length() - 1
    for stage, dst in enumerate(_stage_buffers(out, work, stages)):
        m = n >> (stage + 1)
        u, v = _pairs(src)
        top, bottom = _halves(dst)
        if m > 1:
            np.add(u, v, out=top.reshape(u.shape))  # below 2p
        else:
            np.add(u, v, out=s.reshape(u.shape))
            _mul_shoup(s, *twiddles.n_inverse(), p, top, q)
        _reduce(top, p, q)
        np.subtract(v, u, out=s.reshape(u.shape))
        np.add(s, p, out=s)  # v - u + p, in (0, 2p)
        _mul_shoup(s, *twiddles.inverse_stage(m), p, bottom, q)
        _reduce(bottom, p, q)
        src = dst


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
