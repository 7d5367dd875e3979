"""Invariant-noise measurement and growth estimates for BFV.

Somewhat-homomorphic schemes (the paper evaluates SHE precisely because
it "supports both addition and multiplication with constraints on
multiplicative depth", Section 2) decrypt correctly only while the
ciphertext noise stays below a threshold. This module provides:

* :func:`noise_budget` — the *measured* invariant-noise budget in bits,
  computed with the secret key exactly as SEAL's decryptor does: the
  budget is ``-log2(2 * |v|_inf)`` where ``v`` is the fractional
  distance of ``t/q * (c0 + c1*s + ...)`` from the nearest integer
  vector. Decryption is correct iff the budget is positive.
* rough analytic bounds (:func:`fresh_noise_bits`,
  :func:`multiply_noise_growth_bits`) used by examples and docs to
  predict how many operations a parameter set supports.
"""

from __future__ import annotations

import math

from repro.core.ciphertext import Ciphertext
from repro.core.keys import SecretKey
from repro.core.params import BFVParameters


def noise_budget(ciphertext: Ciphertext, secret_key: SecretKey) -> float:
    """Remaining invariant-noise budget of ``ciphertext``, in bits.

    Positive ⇒ decryption is guaranteed correct; each homomorphic
    operation consumes budget (a handful of bits per addition chain,
    tens of bits per multiplication). Requires the secret key, so this
    is a *measurement* tool for experiments, not a server-side facility.
    """
    from repro.core.decryptor import Decryptor

    params = ciphertext.params
    q, t = params.coeff_modulus, params.plain_modulus
    # v_k = (t*x_k - q*round(t*x_k/q)) / q; budget = log2(q / (2*max|num|)).
    phase = Decryptor(params, secret_key).phase(ciphertext)
    worst_numerator = phase.remainder_bound(t, q)
    if worst_numerator == 0:
        return float(q.bit_length())
    # |v|_max = worst_numerator / q, so the budget is
    # -log2(2 * |v|_max) = log2(q) - 1 - log2(worst_numerator).
    return math.log2(q) - 1.0 - math.log2(worst_numerator)


def fresh_noise_bits(params: BFVParameters) -> float:
    """Analytic estimate of a fresh encryption's noise magnitude (bits).

    Fresh invariant noise is roughly ``t/q * B * (2n + 1)`` with
    ``B = eta`` the error bound; we report ``log2`` of that estimate.
    """
    n = params.poly_degree
    estimate = (
        params.plain_modulus
        * params.error_eta
        * (2 * n + 1)
        / params.coeff_modulus
    )
    return math.log2(estimate) if estimate > 0 else float("-inf")


def initial_budget_bits(params: BFVParameters) -> float:
    """Predicted budget of a fresh encryption: ``-log2(2 * fresh_noise)``."""
    return -1.0 - fresh_noise_bits(params)


def add_noise_growth_bits(count: int) -> float:
    """Budget consumed by summing ``count`` ciphertexts: ~``log2(count)``.

    Addition adds noises linearly, so a balanced tree of ``count``
    leaves multiplies the noise by at most ``count``.
    """
    return math.log2(max(count, 1))


def keyswitch_floor_bits(params: BFVParameters) -> float:
    """Budget ceiling after any key-switching operation, in bits.

    Relinearization and Galois rotation both *add* a fresh noise term
    of magnitude ``~ eta * T * l * n`` (digit errors times digit
    magnitudes, convolved over the ring); in budget terms the resulting
    ciphertext can never sit above
    ``log2(q / (2 * t * eta * T * l * n))`` regardless of how clean its
    input was. This is a floor effect, not a per-operation subtraction:
    ``r`` successive key switches only cost a further ``log2(r)``.
    """
    estimate = (
        params.plain_modulus
        * params.error_eta
        * (1 << params.relin_base_bits)
        * params.relin_components
        * params.poly_degree
        / params.coeff_modulus
    )
    return -1.0 - math.log2(estimate) if estimate > 0 else float("inf")


def multiply_plain_noise_growth_bits(plain) -> float:
    """Budget consumed by a plaintext multiplication, in bits.

    Plaintext multiplication convolves each component with the centered
    plaintext, so the invariant noise grows by at most the plaintext's
    L1 norm; the budget cost is ``log2`` of that norm (zero for a
    monomial with a ±1 coefficient).
    """
    norm = sum(abs(c) for c in plain.poly.centered())
    return math.log2(norm) if norm > 1 else 0.0


def mod_switch_floor_bits(params: BFVParameters) -> float:
    """Budget ceiling introduced by switching *to* ``params``.

    Rescaling ``c' = round(q'/q * c)`` adds a rounding term of
    invariant magnitude ``~ t * n / (2 * q')`` (see
    :mod:`repro.core.modswitch`), so a switched ciphertext can never
    report more than ``-log2(2 * t * n / (2 * q')) =
    log2(q' / (t * n))`` bits of budget. ``params`` is the *new*
    (smaller-modulus) parameter set.
    """
    estimate = (
        params.plain_modulus
        * params.poly_degree
        / (2 * params.coeff_modulus)
    )
    return -1.0 - math.log2(estimate) if estimate > 0 else float("inf")


def multiply_noise_growth_bits(params: BFVParameters) -> float:
    """Rough budget consumed by one multiplication.

    The dominant term of the BFV multiplication noise bound is
    ``t * n * |v|`` on each operand's noise plus a relinearization term
    ``~ n * T * B * l / q``; in budget terms a multiplication costs
    about ``log2(t) + log2(n) + 1`` bits. This is the planning number
    used by examples to pick a security level for a given depth.
    """
    return (
        math.log2(params.plain_modulus)
        + math.log2(params.poly_degree)
        + 1.0
    )
