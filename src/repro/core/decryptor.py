"""BFV decryption (client-side, per the paper's deployment model)."""

from __future__ import annotations

import numpy as np

from repro.core.ciphertext import Ciphertext, Plaintext
from repro.core.keys import SecretKey
from repro.core.params import BFVParameters
from repro.errors import ParameterError
from repro.poly.polynomial import Operand, Polynomial


def round_scale(values, numerator: int, denominator: int) -> np.ndarray:
    """``round(v * numerator / denominator)`` for each of ``values``,
    with exact integers, rounding half away from zero (sign-symmetric,
    matching the scheme's analysis). Returns an object array of ints.

    The one rounding of the scheme: decryption, the evaluator's ``t/q``
    scaling and :func:`~repro.core.noise.noise_budget` all use it.
    """
    num = np.array(values, dtype=object) * numerator
    twice = 2 * denominator
    up = (2 * num + denominator) // twice
    down = -((denominator - 2 * num) // twice)
    return np.where(num >= 0, up, down)


class Decryptor:
    """Decrypts ciphertexts of any size under the secret key.

    Decryption evaluates ``x = sum_i(c_i * s^i) mod q`` as one sum in
    the evaluation domain, with the transforms of ``s^i`` cached on the
    secret key, lifts the
    result to the centered range, and recovers each plaintext
    coefficient as ``round(t * x_k / q) mod t``. Size-3 (unrelinearized)
    ciphertexts decrypt too — the evaluator's relinearization step is an
    optimization, not a correctness requirement.
    """

    def __init__(self, params: BFVParameters, secret_key: SecretKey):
        if secret_key.params != params:
            raise ParameterError("secret key belongs to different parameters")
        self.params = params
        self.secret_key = secret_key

    def raw_decrypt_centered(self, ciphertext: Ciphertext) -> list:
        """Centered coefficients of ``sum(c_i * s^i) mod q``.

        Exposed separately because noise measurement
        (:func:`repro.core.noise.noise_budget`) needs the pre-rounding
        value.
        """
        if ciphertext.params != self.params:
            raise ParameterError("ciphertext belongs to different parameters")
        c0, *rest = ciphertext.polys
        terms = [
            (Operand(c_i.centered()), self.secret_key.power_operand(i))
            for i, c_i in enumerate(rest, start=1)
        ]
        q = self.params.coeff_modulus
        return Polynomial.sum_of_products(terms, q, addend=c0.coeffs).centered()

    def decrypt(self, ciphertext: Ciphertext) -> Plaintext:
        """Decrypt to a plaintext (correct while noise budget > 0)."""
        params = self.params
        q, t = params.coeff_modulus, params.plain_modulus
        centered = self.raw_decrypt_centered(ciphertext)
        coeffs = (round_scale(centered, t, q) % t).tolist()
        return Plaintext(params, Polynomial(coeffs, t))
