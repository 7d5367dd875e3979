"""Plaintext encoders: scalar (integer) and SIMD (batch).

Two standard BFV encoders:

* :class:`IntegerEncoder` — places one integer in the constant
  coefficient. Homomorphic add/multiply then act as integer
  add/multiply modulo ``t``. Works for every parameter set.
* :class:`BatchEncoder` — packs up to ``n`` integers into the ``n``
  SIMD slots that exist when ``t`` is a prime congruent to
  ``1 (mod 2n)`` (then ``Z_t[x]/(x^n+1)`` splits into ``n`` copies of
  ``Z_t``). Homomorphic operations act **element-wise per slot**, which
  is what makes the paper's statistical workloads efficient: one
  ciphertext carries a whole vector of user values.

Both decoders return *centered* values in ``(-t/2, t/2]`` so that small
negative intermediate results survive the modular wrap.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.ciphertext import Plaintext
from repro.core.params import BFVParameters
from repro.errors import EncodingError
from repro.poly.ntt import ntt_context
from repro.poly.planes import to_ints
from repro.poly.polynomial import Polynomial


def _center(value: int, modulus: int) -> int:
    value %= modulus
    return value - modulus if value > modulus // 2 else value


class IntegerEncoder:
    """Scalar encoder: integer ↔ constant polynomial mod ``t``."""

    def __init__(self, params: BFVParameters):
        self.params = params

    def encode(self, value: int) -> Plaintext:
        """Encode one integer (must be within the centered range of t).

        Values outside ``(-t/2, t/2]`` would silently alias another
        residue, so they are rejected.
        """
        t = self.params.plain_modulus
        if not -(t // 2) <= value <= t // 2:
            raise EncodingError(
                f"value {value} outside the centered range of t={t}"
            )
        coeffs = np.zeros(self.params.poly_degree, dtype=np.int64)
        coeffs[0] = value
        return Plaintext.from_coefficients(self.params, coeffs)

    def decode(self, plaintext: Plaintext) -> int:
        """Decode the constant coefficient as a centered integer.

        Raises if any higher coefficient is nonzero — that would mean
        the value was not produced by scalar arithmetic and decoding
        only the constant term would silently discard information.
        """
        planes = plaintext.poly.planes
        if planes[:, 1:].any():
            raise EncodingError(
                "plaintext has non-constant coefficients; it was not "
                "produced by IntegerEncoder arithmetic"
            )
        return _center(to_ints(planes[:, :1])[0], self.params.plain_modulus)


class BinaryEncoder:
    """Base-2 scalar encoder: integers as signed-bit polynomials.

    SEAL's classic ``IntegerEncoder``: the value's binary digits become
    polynomial coefficients (``13 -> x^3 + x^2 + 1``, negatives negate
    every coefficient), and decoding evaluates the polynomial at
    ``x = 2`` over the *centered* coefficients. Unlike the constant-
    coefficient encoder, the representable range is not bounded by
    ``t`` — after homomorphic operations the coefficients grow (an
    addition adds digit-wise; a multiplication convolves digit
    sequences), and decoding stays correct while every coefficient
    stays inside ``(-t/2, t/2]`` and the digits fit the ring degree.

    >>> # doctest setup omitted; see tests/core/test_encoder.py
    """

    def __init__(self, params: BFVParameters):
        self.params = params

    def encode(self, value: int) -> Plaintext:
        """Encode any integer whose bit length fits the ring degree."""
        n = self.params.poly_degree
        magnitude = abs(value)
        if magnitude.bit_length() > n:
            raise EncodingError(
                f"|{value}| needs {magnitude.bit_length()} binary digits; "
                f"the ring holds {n}"
            )
        sign = -1 if value < 0 else 1
        coeffs = [
            sign * ((magnitude >> i) & 1) for i in range(n)
        ]
        return Plaintext.from_coefficients(self.params, coeffs)

    def decode(self, plaintext: Plaintext) -> int:
        """Evaluate the centered digit polynomial at ``x = 2``.

        Correct as long as no coefficient overflowed the plaintext
        modulus during evaluation (the usual base-2 encoder contract).
        """
        total = 0
        for i, digit in enumerate(plaintext.poly.centered()):
            total += digit << i
        return total


@lru_cache(maxsize=16)
def _canonical_slot_map(n: int, t: int) -> tuple:
    """Map canonical slot index -> NTT output index.

    Canonical ordering follows the standard BFV SIMD layout: the slots
    form a ``2 x (n/2)`` matrix. Row 0, column ``i`` holds the
    polynomial's evaluation at ``psi^(3^i mod 2n)``; row 1, column
    ``i`` the evaluation at ``psi^(-3^i mod 2n)`` (``psi`` the
    primitive ``2n``-th root the slot NTT uses). Under the Galois
    automorphism ``x -> x^(3^k)`` each row rotates left by ``k``; under
    ``x -> x^(2n-1)`` the rows swap — which is exactly what makes
    :func:`repro.core.galois.rotate_rows` decode as a visible rotation.

    The NTT's own output ordering is recovered empirically (and
    exactly) by transforming the polynomial ``x``, whose slot values
    *are* the evaluation points.
    """
    ntt = ntt_context(n, t)
    x_poly = [0, 1] + [0] * (n - 2)
    alphas = ntt.forward(x_poly)
    index_of = {alpha: j for j, alpha in enumerate(alphas)}
    two_n = 2 * n
    mapping = []
    for i in range(n // 2):
        mapping.append(index_of[pow(ntt.psi, pow(3, i, two_n), t)])
    for i in range(n // 2):
        exponent = (two_n - pow(3, i, two_n)) % two_n
        mapping.append(index_of[pow(ntt.psi, exponent, t)])
    return tuple(mapping)


class BatchEncoder:
    """SIMD encoder: vectors of up to ``n`` integers ↔ one plaintext.

    Encoding places values at the polynomial's evaluation points (via
    the inverse negacyclic NTT over ``Z_t``), so ring multiplication is
    element-wise multiplication of slots. ``t`` is below ``2^31``, so a
    plaintext is one limb row, which the slot transform takes and gives
    back as is. Slots are presented in the
    **canonical BFV order**: a ``2 x (n/2)`` matrix, row-major, where
    :func:`repro.core.galois.rotate_rows` cyclically rotates each row
    and :func:`repro.core.galois.rotate_columns` swaps the rows.
    """

    def __init__(self, params: BFVParameters):
        if not params.supports_batching:
            raise EncodingError(
                f"parameters do not support batching: t="
                f"{params.plain_modulus} is not a prime == 1 mod "
                f"{2 * params.poly_degree} below 2^31"
            )
        self.params = params
        self._ntt = ntt_context(params.poly_degree, params.plain_modulus)
        self._slot_map = np.array(
            _canonical_slot_map(params.poly_degree, params.plain_modulus)
        )

    @property
    def slot_count(self) -> int:
        """Number of SIMD slots (equals the ring degree)."""
        return self.params.poly_degree

    def encode(self, values) -> Plaintext:
        """Pack a list of centered integers into SIMD slots (zero-padded)."""
        values = list(values)
        n, t = self.params.poly_degree, self.params.plain_modulus
        if len(values) > n:
            raise EncodingError(
                f"{len(values)} values exceed the {n} available slots"
            )
        try:
            slots = np.array(values, dtype=np.int64)
        except OverflowError:
            slots = None
        half = t // 2
        if slots is None or ((slots < -half) | (slots > half)).any():
            bad = next(v for v in values if not -half <= v <= half)
            raise EncodingError(
                f"slot value {bad} outside the centered range of t={t}"
            )
        evaluations = np.zeros(n, dtype=np.uint64)
        evaluations[self._slot_map[: len(values)]] = slots % np.int64(t)
        coeffs = self._ntt._inverse(evaluations)
        return Plaintext(
            self.params, Polynomial.from_planes(coeffs[None, :], t)
        )

    def decode(self, plaintext: Plaintext) -> list:
        """Unpack all ``n`` slots as centered integers."""
        t = self.params.plain_modulus
        evaluations = self._ntt._forward(plaintext.poly.planes[0])
        slots = evaluations[self._slot_map].astype(np.int64)
        return np.where(slots > t // 2, slots - t, slots).tolist()
