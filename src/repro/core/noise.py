"""Invariant-noise measurement for BFV.

Somewhat-homomorphic schemes (the paper evaluates SHE precisely because
it "supports both addition and multiplication with constraints on
multiplicative depth", Section 2) decrypt correctly only while the
ciphertext noise stays below a threshold. :func:`noise_budget` is the
*measured* invariant-noise budget in bits, computed with the secret key
exactly as SEAL's decryptor does: the budget is ``-log2(2 * |v|_inf)``
where ``v`` is the fractional distance of ``t/q * (c0 + c1*s + ...)``
from the nearest integer vector. Decryption is correct iff the budget
is positive.

The analytic growth estimates (:func:`~repro.core.planner.initial_budget_bits`,
:func:`~repro.core.planner.multiply_noise_growth_bits`, ...) live in
:mod:`repro.core.planner`, so predicting a budget loads no decryptor
or key type.
"""

from __future__ import annotations

import math

from repro.core.ciphertext import Ciphertext
from repro.core.decryptor import Decryptor
from repro.core.keys import SecretKey


def noise_budget(ciphertext: Ciphertext, secret_key: SecretKey) -> float:
    """Remaining invariant-noise budget of ``ciphertext``, in bits.

    Positive ⇒ decryption is guaranteed correct; each homomorphic
    operation consumes budget (a handful of bits per addition chain,
    tens of bits per multiplication). Requires the secret key, so this
    is a *measurement* tool for experiments, not a server-side facility.
    """
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
