"""One-product-at-a-time BFV: the differential oracle for the
evaluation-domain operations in ``repro.core``.

Every ring product here is a separate ``Polynomial.__mul__`` (or, for
the exact tensor, a separate :func:`negacyclic_convolve`): each one
splits, forward-transforms, inverse-transforms and recombines on its
own, and the results are added coefficient by coefficient. This is the
textbook construction the production code reorganizes (shared operand
transforms, cached key transforms, sums accumulated before one inverse
transform). It is a test oracle only; production code never calls it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.ciphertext import Ciphertext
from repro.core.galois import apply_automorphism, galois_element_for_step
from repro.poly.polynomial import Polynomial, negacyclic_convolve
from repro.poly.sampling import (
    sample_centered_binomial,
    sample_ternary,
    sample_uniform,
)


def _round_scale(value: int, numerator: int, denominator: int) -> int:
    num = value * numerator
    if num >= 0:
        return (2 * num + denominator) // (2 * denominator)
    return -((-2 * num + denominator) // (2 * denominator))


def _switching_pairs(params, s: Polynomial, target: Polynomial, rng) -> tuple:
    """Pairs ``(-(a_j*s + e_j) + T^j * target, a_j)``, drawn and
    multiplied digit by digit."""
    n, q = params.poly_degree, params.coeff_modulus
    pairs = []
    power = 1
    for _ in range(params.relin_components):
        a_j = Polynomial.from_planes(sample_uniform(n, q, rng), q)
        e_j = Polynomial(sample_centered_binomial(n, rng, params.error_eta), q)
        pairs.append((-(a_j * s + e_j) + target.scalar_mul(power), a_j))
        power = power * (1 << params.relin_base_bits) % q
    return tuple(pairs)


def generate_keys(params, seed: int) -> tuple:
    """``KeyGenerator(params, seed)``'s keys, one product at a time:
    ``(s, (pk0, pk1), relinearization pairs, rng)``, the generator left
    where a following Galois key generation starts."""
    n, q = params.poly_degree, params.coeff_modulus
    rng = np.random.default_rng(seed)
    s = Polynomial(sample_ternary(n, rng), q)
    a = Polynomial.from_planes(sample_uniform(n, q, rng), q)
    e = Polynomial(sample_centered_binomial(n, rng, params.error_eta), q)
    relin = _switching_pairs(params, s, s * s, rng)
    return s, (-(a * s + e), a), relin, rng


def galois_components(params, s: Polynomial, elements, rng) -> dict:
    """Galois key pairs per element, one product at a time."""
    return {
        g: _switching_pairs(params, s, apply_automorphism(s, g), rng)
        for g in elements
    }


def encrypt(params, public_key, plaintext, seed: int) -> Ciphertext:
    """The first encryption of an ``Encryptor(..., seed=seed)``."""
    n, q = params.poly_degree, params.coeff_modulus
    rng = np.random.default_rng(seed)
    u = Polynomial(sample_ternary(n, rng), q)
    e1 = Polynomial(sample_centered_binomial(n, rng, params.error_eta), q)
    e2 = Polynomial(sample_centered_binomial(n, rng, params.error_eta), q)
    scaled_m = Polynomial(plaintext.poly.centered(), q).scalar_mul(params.delta)
    c0 = public_key.p0 * u + e1 + scaled_m
    c1 = public_key.p1 * u + e2
    return Ciphertext(params, (c0, c1))


def symmetric_encrypt(params, secret_key, plaintext, seed: int) -> Ciphertext:
    """The first encryption of a ``SymmetricEncryptor(..., seed=seed)``."""
    n, q = params.poly_degree, params.coeff_modulus
    rng = np.random.default_rng(seed)
    a = Polynomial.from_planes(sample_uniform(n, q, rng), q)
    e = Polynomial(sample_centered_binomial(n, rng, params.error_eta), q)
    scaled_m = Polynomial(plaintext.poly.centered(), q).scalar_mul(params.delta)
    c0 = -(a * secret_key.poly + e) + scaled_m
    return Ciphertext(params, (c0, a))


def tensor(params, a: Ciphertext, b: Ciphertext) -> Ciphertext:
    """The size-3 product: four exact convolutions, scaled by ``t/q``."""
    n, q, t = params.poly_degree, params.coeff_modulus, params.plain_modulus
    a0, a1 = (p.centered() for p in a.polys)
    b0, b1 = (p.centered() for p in b.polys)
    d0 = negacyclic_convolve(a0, b0, n)
    cross1 = negacyclic_convolve(a0, b1, n)
    cross2 = negacyclic_convolve(a1, b0, n)
    d1 = [x + y for x, y in zip(cross1, cross2)]
    d2 = negacyclic_convolve(a1, b1, n)
    return Ciphertext(
        params,
        tuple(
            Polynomial([_round_scale(x, t, q) for x in d], q)
            for d in (d0, d1, d2)
        ),
    )


def _switch(poly: Polynomial, pairs, base_bits: int, acc0, acc1) -> tuple:
    """Add ``k0_i * d_i`` and ``k1_i * d_i`` digit by digit."""
    q = poly.modulus
    mask = (1 << base_bits) - 1
    remaining = list(poly.coeffs)
    for k0, k1 in pairs:
        digit = Polynomial([r & mask for r in remaining], q)
        remaining = [r >> base_bits for r in remaining]
        acc0 = acc0 + k0 * digit
        acc1 = acc1 + k1 * digit
    assert not any(remaining)
    return acc0, acc1


def relinearize(params, ciphertext: Ciphertext, relin_key) -> Ciphertext:
    c0, c1, c2 = ciphertext.polys
    new = _switch(c2, relin_key.pairs, relin_key.base_bits, c0, c1)
    return Ciphertext(params, new)


def rotate_rows(ciphertext: Ciphertext, steps: int, galois_keys) -> Ciphertext:
    params = ciphertext.params
    g = galois_element_for_step(params, steps)
    c0 = apply_automorphism(ciphertext.polys[0], g)
    c1 = apply_automorphism(ciphertext.polys[1], g)
    zero = Polynomial.zero(params.poly_degree, params.coeff_modulus)
    new = _switch(c1, galois_keys.pairs_for(g), galois_keys.base_bits, c0, zero)
    return Ciphertext(params, new)


def raw_decrypt_centered(ciphertext: Ciphertext, secret_key) -> list:
    s = secret_key.poly
    acc = ciphertext.polys[0]
    s_power = None
    for c_i in ciphertext.polys[1:]:
        s_power = s if s_power is None else s_power * s
        acc = acc + c_i * s_power
    return acc.centered()


def noise_budget(ciphertext: Ciphertext, secret_key) -> float:
    params = ciphertext.params
    q, t = params.coeff_modulus, params.plain_modulus
    worst = 0
    for x in raw_decrypt_centered(ciphertext, secret_key):
        num = t * x
        worst = max(worst, abs(num - q * _round_scale(x, t, q)))
    if worst == 0:
        return float(q.bit_length())
    return math.log2(q) - 1.0 - math.log2(worst)
