"""Key material and key generation for BFV.

The paper's deployment model (Section 3): "Users handle key generation,
encryption, and decryption to guarantee their data privacy" — only
evaluation keys and ciphertexts ever reach the PIM server. Accordingly
the key types here are host-side objects; the relinearization key is
the single piece of key material shipped to the device.

Key generation is textbook BFV:

* secret key ``s``: ternary polynomial;
* public key: ``(pk0, pk1) = (-(a*s + e), a)`` for uniform ``a`` and
  small error ``e``, so ``pk0 + pk1*s = -e``;
* relinearization key (base-``T`` variant): for each digit ``i``,
  ``(rk0_i, rk1_i) = (-(a_i*s + e_i) + T^i * s^2, a_i)``, so
  ``rk0_i + rk1_i*s ≈ T^i * s^2``.

Every product with a key polynomial runs in the evaluation domain of
the exact convolution's CRT bundle (:mod:`repro.poly.polynomial`), so
each key keeps its polynomials' forward transforms: one
:class:`~repro.poly.polynomial.Operand` per key polynomial, made on
first use. :func:`key_switch` is the one base-``T`` key switch shared by
relinearization and the Galois automorphisms, and
:func:`switching_pairs` the one construction of their keys.

Key generation draws every random polynomial first, in the order the
textbook construction draws them, then takes every product with ``s``
through the CRT engine in one pass
(:meth:`Polynomial.sums_of_products`): the public key's ``a*s + e``,
``s^2`` and each relinearization digit's ``a_i*s + e_i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import getitem

import numpy as np

from repro.core.params import BFVParameters
from repro.errors import CiphertextError, ParameterError
from repro.mpint.limbs import LIMB_BITS
from repro.poly.polynomial import Operand, Polynomial
from repro.poly.sampling import (
    sample_centered_binomial,
    sample_ternary,
    sample_uniform,
)


class KeyTransforms:
    """Forward transforms of a key's polynomials, filled on first use.

    The handles live in the instance ``__dict__``, not in a dataclass
    field, so key equality, hashing, ``repr`` and pickling see only the
    key material. Each handle holds residue rows and the recipe ``make``
    for its polynomial, never a copy of the coefficients.
    """

    def _operand(self, name, make) -> Operand:
        """The cached handle ``name`` of the polynomial ``make()``."""
        cache = self.__dict__.setdefault("_operands", {})
        handle = cache.get(name)
        if handle is None:
            handle = cache[name] = Operand(make)
        return handle

    def _pair_operands(self, name, pairs) -> tuple:
        """Handles of every ``(k0_i, k1_i)`` in ``pairs``, cached under
        ``(name, i, 0)`` and ``(name, i, 1)``."""
        return tuple(
            tuple(
                self._operand((name, i, side), partial(getitem, pair, side))
                for side in (0, 1)
            )
            for i, pair in enumerate(pairs)
        )

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_operands", None)
        return state


@dataclass(frozen=True)
class SecretKey(KeyTransforms):
    """The ternary secret polynomial ``s`` (never leaves the client).

    Decryption and noise measurement multiply by ``s`` (and ``s^2`` for
    size-3 ciphertexts, ``s^i`` in general) in the evaluation domain.
    Their transforms are cached on the key, not on a
    :class:`~repro.core.decryptor.Decryptor`, because
    :func:`~repro.core.noise.noise_budget` builds a fresh decryptor per
    call. The cache is lazy, is not a field and is never serialized.
    """

    params: BFVParameters
    poly: Polynomial

    def power_operand(self, exponent: int = 1) -> Operand:
        """Transform handle of ``s^exponent mod q`` (``exponent >= 1``)."""
        return self._operand(("s", exponent), lambda: self._power(exponent))

    def _power(self, exponent: int) -> Polynomial:
        """``s^exponent mod q`` by repeated multiplication."""
        power = self.poly
        for _ in range(exponent - 1):
            power = power * self.poly
        return power


@dataclass(frozen=True)
class PublicKey(KeyTransforms):
    """The RLWE public key pair ``(pk0, pk1) = (-(a*s + e), a)``.

    Encryption multiplies both by the same ``u``; the transforms of
    ``pk0`` and ``pk1`` are cached on the key on first use. The cache
    is lazy, is not a field and is never serialized.
    """

    params: BFVParameters
    p0: Polynomial
    p1: Polynomial

    def operands(self) -> tuple:
        """Transform handles of ``(pk0, pk1)``."""
        return (
            self._operand("p0", lambda: self.p0),
            self._operand("p1", lambda: self.p1),
        )


@dataclass(frozen=True)
class RelinKey(KeyTransforms):
    """Base-``T`` relinearization key: one RLWE pair per digit of q.

    ``pairs[i]`` encrypts ``T^i * s^2`` under ``s``; the evaluator uses
    them to fold the cubic component of a ciphertext product back into
    a standard two-polynomial ciphertext. The ``2k`` key transforms are
    cached on the key on first use; the cache is lazy, is not a field
    and is never serialized.
    """

    params: BFVParameters
    base_bits: int
    pairs: tuple

    @property
    def component_count(self) -> int:
        return len(self.pairs)

    def operands(self) -> tuple:
        """Transform handles of every ``(rk0_i, rk1_i)``."""
        return self._pair_operands("relin", self.pairs)


def key_switch(poly: Polynomial, operands, base_bits: int, what: str) -> tuple:
    """``(sum_i k0_i * d_i, sum_i k1_i * d_i)`` over the base-``T`` digits
    ``d_i`` of ``poly``.

    ``operands`` holds one ``(k0_i, k1_i)`` handle pair per digit; a
    pair encrypting ``T^i * s'`` under ``s`` turns ``poly``'s
    ``s'``-component into two components under ``s``. The digits are
    cut straight from the limb planes (:func:`base_digits`) and
    transformed together in one call; both sums share one bundle, one
    inverse call and one exit (:meth:`Polynomial.sums_of_products`).
    Raises :class:`~repro.errors.CiphertextError` naming ``what`` if
    the digits do not cover the coefficients.
    """
    q = poly.modulus
    digits = base_digits(poly.planes, base_bits, len(operands))
    if digits is None:
        raise CiphertextError(f"{what} digit count too small for modulus")
    digits = [Operand(digit) for digit in digits]
    return tuple(
        Polynomial.sums_of_products(
            [[(pair[side], digit) for pair, digit in zip(operands, digits)]
             for side in (0, 1)],
            q,
        )
    )


def draw_masks(params: BFVParameters, rng: np.random.Generator, count: int) -> list:
    """``count`` RLWE mask draws ``(a, e)``: a uniform polynomial mod
    ``q``, then a centered-binomial error (``int64``), draw by draw."""
    n, q = params.poly_degree, params.coeff_modulus
    return [
        (
            Polynomial.from_planes(sample_uniform(n, q, rng), q),
            sample_centered_binomial(n, rng, params.error_eta),
        )
        for _ in range(count)
    ]


def masked_products(s: Operand, draws, modulus: int, extra=()) -> list:
    """``a*s + e mod modulus`` for every draw ``(a, e)``, then each extra
    term list's sum, as one :meth:`Polynomial.sums_of_products` pass.

    ``s`` is a handle of its own, not the secret key's cached one: key
    generation leaves every key's transform cache empty.
    """
    sums = [[(Operand(a), s)] for a, _ in draws] + list(extra)
    addends = [Operand(e) for _, e in draws] + [None] * len(extra)
    return Polynomial.sums_of_products(sums, modulus, addends)


def switching_pairs(params: BFVParameters, draws, masks, target: Polynomial) -> tuple:
    """Key-switching pairs ``(-(a_j*s + e_j) + T^j * target, a_j)``, one
    per digit ``j``, from the draws and their :func:`masked_products`.

    ``rk0_j + rk1_j*s = T^j * target - e_j``: the pair encrypts
    ``T^j * target`` under ``s``.
    """
    q, base = params.coeff_modulus, 1 << params.relin_base_bits
    pairs = []
    power = 1  # T^j mod q
    for (a, _), mask in zip(draws, masks):
        pairs.append((-mask + target.scalar_mul(power), a))
        power = power * base % q
    return tuple(pairs)


def base_digits(planes: np.ndarray, base_bits: int, count: int):
    """The first ``count`` base-``2^base_bits`` digits of every lane of a
    limb-plane array, as ``int64`` rows, or ``None`` if the lanes do not
    fit ``count`` digits.

    Digit ``i`` is bits ``[i * base_bits, (i + 1) * base_bits)``, read
    from a 64-bit window of the two limbs holding its lowest bit, plus
    the next limb where the digit reaches past that window. A digit
    must fit an ``int64`` operand: ``base_bits`` is at most 62.
    """
    if not 1 <= base_bits <= 62:
        raise ParameterError(f"digit base must be 1 to 62 bits, got {base_bits}")
    limbs, n = planes.shape
    padded = np.zeros((max(limbs, count * base_bits // LIMB_BITS) + 3, n), np.uint64)
    padded[:limbs] = planes
    width = np.uint64(LIMB_BITS)
    digits = []
    for i in range(count):
        j, shift = divmod(i * base_bits, LIMB_BITS)
        digit = (padded[j] | padded[j + 1] << width) >> np.uint64(shift)
        if shift + base_bits > 2 * LIMB_BITS:
            digit |= padded[j + 2] << np.uint64(2 * LIMB_BITS - shift)
        digits.append((digit & np.uint64((1 << base_bits) - 1)).astype(np.int64))
    # Every bit from count * base_bits up must be clear.
    j, shift = divmod(count * base_bits, LIMB_BITS)
    if (padded[j] >> np.uint64(shift)).any() or padded[j + 1 :].any():
        return None
    return digits


@dataclass(frozen=True)
class KeySet:
    """All keys produced by one :class:`KeyGenerator` run."""

    secret_key: SecretKey
    public_key: PublicKey
    relin_key: RelinKey


class KeyGenerator:
    """Deterministic BFV key generation from an explicit seed.

    >>> keys = KeyGenerator(BFVParameters.security_level(54), seed=1).generate()
    >>> keys.relin_key.component_count == keys.relin_key.params.relin_components
    True
    """

    def __init__(self, params: BFVParameters, seed: int = 0):
        self.params = params
        self._rng = np.random.default_rng(seed)

    def generate(self) -> KeySet:
        """Generate a fresh, mutually consistent key set."""
        params = self.params
        n, q = params.poly_degree, params.coeff_modulus
        rng = self._rng

        secret = SecretKey(params, Polynomial(sample_ternary(n, rng), q))
        # The public key's (a, e), then one per relinearization digit.
        draws = draw_masks(params, rng, 1 + params.relin_components)
        s = Operand(secret.poly)
        *masks, s_squared = masked_products(s, draws, q, extra=[[(s, s)]])
        public = PublicKey(params, -masks[0], draws[0][0])
        relin = RelinKey(
            params,
            params.relin_base_bits,
            switching_pairs(params, draws[1:], masks[1:], s_squared),
        )
        return KeySet(secret, public, relin)

    def generate_galois_keys(self, secret: SecretKey, steps=None):
        """Rotation keys for the given row-rotation ``steps``.

        ``steps`` defaults to every power of two up to half a row —
        enough to compose any rotation in ``O(log n)`` applications —
        plus the column-swap element. Returns a
        :class:`repro.core.galois.GaloisKeys`.
        """
        from repro.core.galois import generate_galois_keys, rotation_elements

        if steps is None:
            row = self.params.poly_degree // 2
            steps = []
            step = 1
            while step <= row // 2:
                steps.append(step)
                step *= 2
            steps = steps or [0]
        elements = rotation_elements(self.params, steps)
        return generate_galois_keys(secret, elements, self._rng)
