"""Residue Number System (RNS) representation of wide-modulus rings.

The paper's strongest CPU baseline — Microsoft SEAL — avoids
multi-precision arithmetic entirely by choosing the ciphertext modulus
``Q`` as a product of word-sized NTT primes and keeping every
polynomial as a matrix of residues, one row per prime (Section 4.1;
RNS per [97], NTT per [98]). Addition and multiplication then decompose
into independent native-word operations per prime, and multiplication
additionally runs in the NTT evaluation domain at O(n log n).

This module implements that representation for real:

* :class:`RNSBasis` — a set of distinct NTT-friendly primes with CRT
  composition/decomposition;
* :class:`RNSPolynomial` — a ring element stored as per-prime residue
  rows, with add/sub/negate/scalar ops and NTT-domain multiplication.

It is used two ways: as the functional engine of the CPU-SEAL
backend, and directly in tests that check the two polynomial
representations implement the same algebra. The exact big-integer
convolution (:func:`repro.poly.polynomial.negacyclic_convolve`) uses
the same CRT technique over 31-bit primes.
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.poly.modring import find_ntt_prime, inverse_mod
from repro.poly.ntt import ntt_context

#: SEAL-style word-sized prime width. SEAL uses primes up to 60 bits so
#: that lazy Barrett accumulation fits 128-bit products; we follow suit.
SEAL_PRIME_BITS = 60


class RNSBasis:
    """An ordered set of distinct coprime moduli with CRT helpers.

    >>> basis = RNSBasis((97, 193))
    >>> basis.compose(basis.decompose(12345))
    12345
    """

    def __init__(self, moduli):
        moduli = tuple(int(m) for m in moduli)
        if not moduli:
            raise ParameterError("RNS basis needs at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise ParameterError(f"RNS moduli must be distinct: {moduli}")
        for m in moduli:
            if m < 2:
                raise ParameterError(f"RNS modulus must be >= 2, got {m}")
        self.moduli = moduli
        self.product = 1
        for m in moduli:
            self.product *= m
        self._partials = []
        for m in moduli:
            q_i = self.product // m
            try:
                q_i_inv = inverse_mod(q_i % m, m)
            except ParameterError as exc:
                raise ParameterError(
                    f"RNS moduli must be pairwise coprime: {moduli}"
                ) from exc
            self._partials.append((q_i, q_i_inv))

    @classmethod
    def for_bit_width(
        cls, total_bits: int, ring_degree: int, prime_bits: int = SEAL_PRIME_BITS
    ) -> "RNSBasis":
        """Smallest basis of NTT primes whose product has >= total_bits.

        This mirrors how SEAL assembles a coefficient modulus for a
        requested security level out of word-sized primes.
        """
        if total_bits <= 0:
            raise ParameterError(f"total bits must be positive: {total_bits}")
        count = -(-total_bits // (prime_bits - 1))
        while True:
            primes = tuple(
                find_ntt_prime(prime_bits, ring_degree, index=i)
                for i in range(count)
            )
            product = 1
            for p in primes:
                product *= p
            if product.bit_length() >= total_bits:
                return cls(primes)
            count += 1

    def __len__(self) -> int:
        return len(self.moduli)

    def __eq__(self, other) -> bool:
        return isinstance(other, RNSBasis) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        return (
            f"RNSBasis({len(self.moduli)} primes, "
            f"Q~2^{self.product.bit_length()})"
        )

    def decompose(self, value: int) -> tuple:
        """Residues of ``value`` modulo each basis prime."""
        return tuple(value % m for m in self.moduli)

    def compose(self, residues) -> int:
        """CRT reconstruction into ``[0, product)``."""
        residues = tuple(residues)
        if len(residues) != len(self.moduli):
            raise ParameterError(
                f"expected {len(self.moduli)} residues, got {len(residues)}"
            )
        acc = 0
        for r, m, (q_i, q_i_inv) in zip(residues, self.moduli, self._partials):
            acc += (r % m) * q_i_inv % m * q_i
        return acc % self.product

    def compose_centered(self, residues) -> int:
        """CRT reconstruction into the centered range ``(-Q/2, Q/2]``."""
        value = self.compose(residues)
        if value > self.product // 2:
            value -= self.product
        return value


class RNSPolynomial:
    """A ring element of ``Z_Q[x]/(x^n+1)`` stored as residue rows.

    ``rows[i][j]`` is coefficient ``j`` reduced modulo basis prime
    ``i``. Operations act row-wise — each row only ever touches
    word-sized values, which is exactly the property the SEAL baseline's
    speed (and our cost model for it) rests on.
    """

    __slots__ = ("basis", "n", "rows")

    def __init__(self, basis: RNSBasis, rows):
        rows = tuple(tuple(int(c) for c in row) for row in rows)
        if len(rows) != len(basis):
            raise ParameterError(
                f"expected {len(basis)} residue rows, got {len(rows)}"
            )
        n = len(rows[0]) if rows else 0
        if n == 0 or n & (n - 1):
            raise ParameterError(
                f"ring degree must be a nonzero power of two, got {n}"
            )
        for row, m in zip(rows, basis.moduli):
            if len(row) != n:
                raise ParameterError("residue rows have inconsistent lengths")
            if any(not 0 <= c < m for c in row):
                raise ParameterError("residue out of range for its modulus")
        self.basis = basis
        self.n = n
        self.rows = rows

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_coefficients(cls, basis: RNSBasis, coeffs) -> "RNSPolynomial":
        """Decompose integer coefficients into residue rows."""
        coeffs = [int(c) for c in coeffs]
        rows = [[c % m for c in coeffs] for m in basis.moduli]
        return cls(basis, rows)

    @classmethod
    def zero(cls, basis: RNSBasis, n: int) -> "RNSPolynomial":
        return cls(basis, [[0] * n for _ in basis.moduli])

    # -- conversions ------------------------------------------------------

    def to_coefficients(self) -> list:
        """CRT-compose back to integer coefficients in ``[0, Q)``."""
        return [
            self.basis.compose([row[j] for row in self.rows])
            for j in range(self.n)
        ]

    def to_centered(self) -> list:
        """CRT-compose to signed coefficients in ``(-Q/2, Q/2]``."""
        return [
            self.basis.compose_centered([row[j] for row in self.rows])
            for j in range(self.n)
        ]

    # -- protocol ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RNSPolynomial)
            and self.basis == other.basis
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.basis, self.rows))

    def __repr__(self) -> str:
        return f"RNSPolynomial(n={self.n}, basis={self.basis!r})"

    def _check_compatible(self, other: "RNSPolynomial") -> None:
        if not isinstance(other, RNSPolynomial):
            raise ParameterError(f"expected RNSPolynomial, got {type(other)}")
        if self.basis != other.basis:
            raise ParameterError("RNS bases differ")
        if self.n != other.n:
            raise ParameterError("ring degrees differ")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "RNSPolynomial") -> "RNSPolynomial":
        self._check_compatible(other)
        rows = [
            [(a + b) % m for a, b in zip(ra, rb)]
            for ra, rb, m in zip(self.rows, other.rows, self.basis.moduli)
        ]
        return RNSPolynomial(self.basis, rows)

    def __sub__(self, other: "RNSPolynomial") -> "RNSPolynomial":
        self._check_compatible(other)
        rows = [
            [(a - b) % m for a, b in zip(ra, rb)]
            for ra, rb, m in zip(self.rows, other.rows, self.basis.moduli)
        ]
        return RNSPolynomial(self.basis, rows)

    def __neg__(self) -> "RNSPolynomial":
        rows = [
            [(-a) % m for a in row]
            for row, m in zip(self.rows, self.basis.moduli)
        ]
        return RNSPolynomial(self.basis, rows)

    def scalar_mul(self, scalar: int) -> "RNSPolynomial":
        rows = [
            [a * (scalar % m) % m for a in row]
            for row, m in zip(self.rows, self.basis.moduli)
        ]
        return RNSPolynomial(self.basis, rows)

    def __mul__(self, other) -> "RNSPolynomial":
        if isinstance(other, int):
            return self.scalar_mul(other)
        self._check_compatible(other)
        rows = []
        for ra, rb, m in zip(self.rows, other.rows, self.basis.moduli):
            rows.append(ntt_context(self.n, m).convolve(ra, rb))
        return RNSPolynomial(self.basis, rows)

    __rmul__ = __mul__
