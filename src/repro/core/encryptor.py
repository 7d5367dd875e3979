"""BFV encryption (client-side, per the paper's deployment model)."""

from __future__ import annotations

import numpy as np

from repro.core.ciphertext import Ciphertext, Plaintext
from repro.core.keys import PublicKey, SecretKey
from repro.core.params import BFVParameters
from repro.errors import ParameterError
from repro.obs.noise import get_noise_ledger
from repro.poly.polynomial import Operand, Polynomial
from repro.poly.sampling import sample_centered_binomial, sample_ternary


class Encryptor:
    """Public-key BFV encryption.

    A fresh encryption of plaintext ``m`` is::

        ct = (pk0*u + e1 + delta*m,  pk1*u + e2)

    with ternary ``u`` and small errors ``e1``, ``e2``, giving
    ``ct0 + ct1*s = delta*m + (e1 + e*u + e2*s)`` — the plaintext at
    scale ``delta`` plus small noise.

    Both components are one pass through the CRT engine
    (:meth:`~repro.poly.polynomial.Polynomial.sums_of_products`): ``u``
    is forward-transformed once for both products (the public key's
    transforms are cached on the key), both sums come back through one
    inverse call and leave through one exit. The errors join each sum in
    the coefficient domain, and ``delta*m`` joins ``e1`` there as one
    addend (:meth:`~repro.poly.polynomial.Operand.scaled_sum`).
    Encryption randomness is drawn from an explicit seeded generator so
    experiments are reproducible.
    """

    def __init__(self, params: BFVParameters, public_key: PublicKey, seed: int = 0):
        if public_key.params != params:
            raise ParameterError("public key belongs to different parameters")
        self.params = params
        self.public_key = public_key
        self._rng = np.random.default_rng(seed)

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Encrypt one plaintext into a fresh size-2 ciphertext."""
        if plaintext.params != self.params:
            raise ParameterError("plaintext belongs to different parameters")
        params = self.params
        n, q = params.poly_degree, params.coeff_modulus
        rng = self._rng

        u = Operand(sample_ternary(n, rng))
        e1 = sample_centered_binomial(n, rng, params.error_eta)
        e2 = Operand(sample_centered_binomial(n, rng, params.error_eta))
        p0, p1 = self.public_key.operands()
        scaled_m = Operand.scaled_sum(plaintext.poly, params.delta, e1)
        c0, c1 = Polynomial.sums_of_products(
            [[(p0, u)], [(p1, u)]], q, addends=[scaled_m, e2]
        )
        ciphertext = Ciphertext(params, (c0, c1))
        get_noise_ledger().stamp_fresh(ciphertext)
        return ciphertext

    def encrypt_zero(self) -> Ciphertext:
        """Encrypt the zero plaintext (useful as an accumulator seed)."""
        zero = Plaintext.from_coefficients(
            self.params, [0] * self.params.poly_degree
        )
        return self.encrypt(zero)


class SymmetricEncryptor:
    """Secret-key BFV encryption: ``ct = (-(a*s + e) + delta*m, a)``.

    Slightly lower-noise than public-key encryption; used by tests to
    separate public-key noise effects from evaluation noise.
    """

    def __init__(self, params: BFVParameters, secret_key: SecretKey, seed: int = 0):
        if secret_key.params != params:
            raise ParameterError("secret key belongs to different parameters")
        self.params = params
        self.secret_key = secret_key
        self._rng = np.random.default_rng(seed)

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        from repro.poly.sampling import sample_uniform

        if plaintext.params != self.params:
            raise ParameterError("plaintext belongs to different parameters")
        params = self.params
        n, q = params.poly_degree, params.coeff_modulus
        rng = self._rng

        a = Polynomial.from_planes(sample_uniform(n, q, rng), q)
        minus_e = -sample_centered_binomial(n, rng, params.error_eta)
        scaled_m = Operand.scaled_sum(plaintext.poly, params.delta, minus_e)
        c0 = Polynomial.sum_of_products(
            [(Operand(-a), self.secret_key.power_operand())], q, addend=scaled_m
        )
        ciphertext = Ciphertext(params, (c0, a))
        get_noise_ledger().stamp_fresh(ciphertext)
        return ciphertext
