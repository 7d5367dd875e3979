"""Galois automorphisms, rotation keys, and slot rotations.

The paper implements addition and multiplication and leaves "more
homomorphic operations" as future work (Section 6); **rotation** is the
next operation every BFV library provides, and the statistical
workloads want it (e.g. summing across SIMD slots without decrypting).
This module implements it in full:

* :func:`apply_automorphism` — the ring automorphism
  ``x -> x^g (mod x^n + 1)`` for odd ``g``;
* :class:`GaloisKeys` / :func:`generate_galois_keys` — key-switching
  keys from ``s(x^g)`` back to ``s``, same base-``T`` digit structure
  as relinearization keys;
* :func:`apply_galois` — automorphism + key switch on a ciphertext;
* :func:`rotate_rows` / :func:`rotate_columns` — the standard BFV SIMD
  rotations. The batch encoder's slots form a ``2 x (n/2)`` matrix;
  ``g = 3^k (mod 2n)`` rotates both rows left by ``k``, and
  ``g = 2n - 1`` swaps the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.ciphertext import Ciphertext
from repro.core.keys import (
    KeyTransforms,
    SecretKey,
    draw_masks,
    key_switch,
    masked_products,
    switching_pairs,
)
from repro.core.params import BFVParameters
from repro.errors import CiphertextError, KeyError_, ParameterError
from repro.obs.noise import get_noise_ledger
from repro.poly import planes as pl
from repro.poly.polynomial import Operand, Polynomial


def _check_galois_element(g: int, n: int) -> None:
    if g % 2 == 0 or not 0 < g < 2 * n:
        raise ParameterError(
            f"galois element must be odd and in (0, {2 * n}): {g}"
        )
    if math.gcd(g, 2 * n) != 1:
        raise ParameterError(f"galois element {g} not invertible mod {2 * n}")


def apply_automorphism(poly: Polynomial, g: int) -> Polynomial:
    """The ring automorphism ``p(x) -> p(x^g)`` in ``Z_q[x]/(x^n+1)``.

    Coefficient ``i`` moves to position ``i*g mod 2n``; positions at or
    beyond ``n`` wrap with a sign flip (``x^n == -1``). ``g`` must be
    odd so the map is a bijection on coefficients, applied to whole limb
    rows at once.

    >>> p = Polynomial([1, 2, 0, 0], 97)     # 1 + 2x, n = 4
    >>> apply_automorphism(p, 3).coeffs      # 1 + 2x^3
    (1, 0, 0, 2)
    """
    n = poly.degree_bound
    _check_galois_element(g, n)
    q = poly.modulus
    target = np.arange(n) * g % (2 * n)
    wraps = target >= n
    planes = np.empty_like(poly.planes)
    planes[:, target % n] = np.where(wraps, pl.neg_mod(poly.planes, q), poly.planes)
    return Polynomial.from_planes(planes, q)


@dataclass(frozen=True)
class GaloisKeys(KeyTransforms):
    """Key-switching keys for a set of Galois elements.

    ``components[g]`` is a tuple of RLWE pairs; pair ``j`` encrypts
    ``T^j * s(x^g)`` under ``s``, exactly mirroring the relinearization
    key's structure (and therefore its noise behaviour). Like the
    relinearization key, each element's key transforms are cached on
    first use; the cache is lazy, is not a field and is never
    serialized.
    """

    params: BFVParameters
    base_bits: int
    components: dict

    def elements(self) -> tuple:
        """The Galois elements these keys can apply."""
        return tuple(sorted(self.components))

    def pairs_for(self, g: int) -> tuple:
        try:
            return self.components[g]
        except KeyError:
            raise KeyError_(
                f"no galois key for element {g}; available: "
                f"{self.elements()}"
            ) from None

    def operands_for(self, g: int) -> tuple:
        """Transform handles of every ``(k0_j, k1_j)`` for element ``g``."""
        return self._pair_operands(g, self.pairs_for(g))


def rotation_elements(params: BFVParameters, steps) -> list:
    """Galois elements implementing row rotations by each of ``steps``
    (plus the column swap element ``2n - 1``)."""
    two_n = 2 * params.poly_degree
    elements = {two_n - 1}
    for step in steps:
        elements.add(galois_element_for_step(params, step))
    return sorted(elements)


def galois_element_for_step(params: BFVParameters, step: int) -> int:
    """The Galois element rotating SIMD rows left by ``step`` slots.

    Negative steps rotate right. Step 0 maps to the identity element 1
    (applying it is a no-op key switch, allowed for uniformity).
    """
    n = params.poly_degree
    row = n // 2
    step %= row
    return pow(3, step, 2 * n)


def generate_galois_keys(
    secret: SecretKey, elements, rng: np.random.Generator
) -> GaloisKeys:
    """Generate key-switching keys for the given Galois elements.

    Same construction as the relinearization key with ``s^2`` replaced
    by ``s(x^g)``: for each digit ``j``,
    ``(k0_j, k1_j) = (-(a_j*s + e_j) + T^j * s(x^g), a_j)``.
    """
    params = secret.params
    elements = list(elements)
    for g in elements:
        _check_galois_element(g, params.poly_degree)
    digits = params.relin_components
    draws = draw_masks(params, rng, digits * len(elements))
    q = params.coeff_modulus
    masks = masked_products(Operand(secret.poly), draws, q) if draws else []
    components = {}
    for index, g in enumerate(elements):
        span = slice(index * digits, (index + 1) * digits)
        components[g] = switching_pairs(
            params, draws[span], masks[span], apply_automorphism(secret.poly, g)
        )
    return GaloisKeys(params, params.relin_base_bits, components)


def apply_galois(
    ciphertext: Ciphertext, g: int, galois_keys: GaloisKeys
) -> Ciphertext:
    """Apply ``x -> x^g`` to a size-2 ciphertext homomorphically.

    Both components are transformed, then the ``c1`` component — which
    after the automorphism decrypts under ``s(x^g)`` — is switched back
    to ``s`` using the base-``T`` digit decomposition.
    """
    params = ciphertext.params
    if galois_keys.params != params:
        raise KeyError_("galois keys belong to different parameters")
    if ciphertext.size != 2:
        raise CiphertextError(
            "apply_galois expects a size-2 ciphertext; relinearize first"
        )
    operands = galois_keys.operands_for(g)
    c0 = apply_automorphism(ciphertext.polys[0], g)
    c1 = apply_automorphism(ciphertext.polys[1], g)
    d0, d1 = key_switch(c1, operands, galois_keys.base_bits, "galois")
    result = Ciphertext(params, (c0 + d0, d1))
    get_noise_ledger().record_op("rotate", result, (ciphertext,))
    return result


def rotate_rows(
    ciphertext: Ciphertext, steps: int, galois_keys: GaloisKeys
) -> Ciphertext:
    """Rotate both SIMD rows left by ``steps`` slots (negative: right).

    Requires the key for ``3^steps mod 2n``; pair with
    :meth:`repro.core.encoder.BatchEncoder` (canonical slot order) so
    the decoded vector visibly rotates.
    """
    g = galois_element_for_step(ciphertext.params, steps)
    if g == 1:
        return ciphertext
    return apply_galois(ciphertext, g, galois_keys)


def rotate_columns(
    ciphertext: Ciphertext, galois_keys: GaloisKeys
) -> Ciphertext:
    """Swap the two SIMD rows (the ``g = 2n - 1`` automorphism)."""
    g = 2 * ciphertext.params.poly_degree - 1
    return apply_galois(ciphertext, g, galois_keys)
