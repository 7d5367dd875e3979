"""BFV decryption (client-side, per the paper's deployment model)."""

from __future__ import annotations

from repro.core.ciphertext import Ciphertext, Plaintext
from repro.core.keys import SecretKey
from repro.core.params import BFVParameters
from repro.errors import ParameterError
from repro.poly.crt import MixedRadix
from repro.poly.polynomial import Operand, Polynomial, exact_sum


class Decryptor:
    """Decrypts ciphertexts of any size under the secret key.

    Decryption evaluates ``x = c_0 + sum_i(c_i * s^i)`` exactly, as one
    sum in the evaluation domain with the transforms of ``s^i`` cached
    on the secret key, and leaves the CRT engine once, through the exit
    ``round(t * x / q) mod t`` (:meth:`MixedRadix.scale_round`). ``x``
    is not reduced mod ``q`` first: a multiple ``k q`` of ``q`` moves
    ``t x / q`` by the integer ``t k``, which vanishes mod ``t``, so the
    result is the textbook ``round(t * [x]_q / q) mod t``. Size-3
    (unrelinearized) ciphertexts decrypt too — the evaluator's
    relinearization step is an optimization, not a correctness
    requirement.
    """

    def __init__(self, params: BFVParameters, secret_key: SecretKey):
        if secret_key.params != params:
            raise ParameterError("secret key belongs to different parameters")
        self.params = params
        self.secret_key = secret_key

    def phase(self, ciphertext: Ciphertext) -> MixedRadix:
        """The exact ``c_0 + sum(c_i * s^i)``, held in the CRT engine.

        Decryption and noise measurement
        (:func:`repro.core.noise.noise_budget`) both leave from it.
        """
        if ciphertext.params != self.params:
            raise ParameterError("ciphertext belongs to different parameters")
        c0, *rest = ciphertext.polys
        terms = [
            (Operand(c_i), self.secret_key.power_operand(i))
            for i, c_i in enumerate(rest, start=1)
        ]
        return exact_sum(terms, self.params.poly_degree, addend=Operand(c0))

    def raw_decrypt_centered(self, ciphertext: Ciphertext) -> list:
        """Centered coefficients of ``sum(c_i * s^i) mod q``."""
        q = self.params.coeff_modulus
        planes = self.phase(ciphertext).scale_round(1, 1, q)
        return Polynomial.from_planes(planes, q).centered()

    def decrypt(self, ciphertext: Ciphertext) -> Plaintext:
        """Decrypt to a plaintext (correct while noise budget > 0)."""
        params = self.params
        q, t = params.coeff_modulus, params.plain_modulus
        planes = self.phase(ciphertext).scale_round(t, q, t)
        return Plaintext(params, Polynomial.from_planes(planes, t))
