"""Modulus switching: trading modulus size for noise headroom.

The classic BFV noise-management tool the paper's future work
("more homomorphic operations and optimizations") points at: a
ciphertext under modulus ``q`` is rescaled to a smaller modulus ``q'``
by ``c' = round(q'/q * c)`` per coefficient. The *invariant* noise is
essentially preserved (the plaintext rides at scale ``q'/t`` instead of
``q/t``), at the price of a small rounding term — so a ciphertext that
has already consumed most of a large modulus can continue its life as a
smaller, cheaper ciphertext:

* smaller coefficients → fewer limbs on the device → faster kernels;
* the paper's 109-bit level could, e.g., finish a depth-1 workload at
  the 64-bit container width after switching.

Switching changes the parameter set, so the functions here return both
the new ciphertext and helpers to carry keys across.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.ciphertext import Ciphertext
from repro.core.keys import SecretKey
from repro.core.params import BFVParameters
from repro.errors import ParameterError
from repro.obs.noise import get_noise_ledger


def switched_parameters(
    params: BFVParameters, new_modulus: int
) -> BFVParameters:
    """The parameter set after switching ``coeff_modulus``.

    Ring degree, plaintext modulus, and error parameters carry over;
    the relinearization base is clamped to the new modulus width (the
    presets' rule).
    """
    if new_modulus >= params.coeff_modulus:
        raise ParameterError(
            "modulus switching must decrease the modulus "
            f"(got {new_modulus.bit_length()} bits, have "
            f"{params.security_bits})"
        )
    if new_modulus <= params.plain_modulus:
        raise ParameterError(
            f"new modulus must exceed the plaintext modulus "
            f"{params.plain_modulus}"
        )
    bits = new_modulus.bit_length()
    return replace(
        params,
        coeff_modulus=new_modulus,
        relin_base_bits=min(params.relin_base_bits, max(1, (bits + 1) // 2)),
    )


def switch_modulus(ciphertext: Ciphertext, new_modulus: int) -> Ciphertext:
    """Rescale a ciphertext to a smaller coefficient modulus.

    Each component's centered coefficients are scaled by
    ``new_q / q`` with exact rational rounding: the CRT engine's exit
    ``(new_q, q, new_q)``
    (:meth:`~repro.poly.polynomial.Polynomial.scale`). The result decrypts
    under the *same secret polynomial* reduced modulo the new modulus
    (see :func:`switch_secret_key`); its invariant noise gains only the
    rounding term ``~ t * n / (2 * new_q)`` — negligible while
    ``new_q`` comfortably exceeds ``t``.
    """
    params = ciphertext.params
    new_params = switched_parameters(params, new_modulus)
    q = params.coeff_modulus
    polys = [poly.scale(new_modulus, q, new_modulus) for poly in ciphertext.polys]
    result = Ciphertext(new_params, polys)
    get_noise_ledger().record_op(
        "mod_switch", result, (ciphertext,), params=new_params
    )
    return result


def switch_secret_key(secret: SecretKey, new_params: BFVParameters) -> SecretKey:
    """The same ternary secret under the switched parameter set.

    Modulus switching does not touch the key material — the ternary
    polynomial is simply re-reduced modulo the new modulus.
    """
    if new_params.poly_degree != secret.params.poly_degree:
        raise ParameterError("modulus switching cannot change the ring degree")
    return SecretKey(
        new_params, secret.poly.lift_centered_to(new_params.coeff_modulus)
    )
