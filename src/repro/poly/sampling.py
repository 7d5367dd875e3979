"""Deterministic samplers for key generation and encryption.

BFV needs three distributions (all standard for RLWE schemes):

* **uniform** residues modulo ``q`` — the public ``a`` polynomials;
* **ternary** coefficients in ``{-1, 0, 1}`` — secret keys and the
  encryption randomness ``u``;
* a narrow **error** distribution — here a centered binomial, the
  standard sampling-friendly stand-in for the discrete Gaussian with
  ``sigma = sqrt(eta / 2)`` (``eta = 21`` gives ``sigma ≈ 3.24``,
  matching the ~3.2 used by SEAL and the HE standard).

All sampling flows through an explicit :class:`numpy.random.Generator`
so every experiment in the harness is bit-for-bit reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError

#: Centered-binomial parameter giving sigma = sqrt(21/2) ~ 3.24, the
#: customary RLWE error width.
DEFAULT_CBD_ETA = 21


def sample_uniform(n: int, modulus: int, rng: np.random.Generator) -> list:
    """``n`` independent uniform residues in ``[0, modulus)``.

    Works for moduli of any width (the 109-bit security level exceeds
    64-bit words): residues are assembled from random bytes with
    rejection sampling, which is exact — no modulo bias.
    """
    if n <= 0:
        raise ParameterError(f"sample count must be positive, got {n}")
    if modulus < 2:
        raise ParameterError(f"modulus must be >= 2, got {modulus}")
    n_bytes = (modulus.bit_length() + 7) // 8
    excess_bits = 8 * n_bytes - modulus.bit_length()
    mask = (1 << (8 * n_bytes)) - 1 >> excess_bits
    out = []
    while len(out) < n:
        # Draw a batch; rejection rate is < 50% by the mask construction.
        raw = rng.bytes(n_bytes * (n - len(out) + 8))
        for i in range(0, len(raw) - n_bytes + 1, n_bytes):
            candidate = int.from_bytes(raw[i : i + n_bytes], "little") & mask
            if candidate < modulus:
                out.append(candidate)
                if len(out) == n:
                    break
    return out


def sample_ternary(n: int, rng: np.random.Generator) -> list:
    """``n`` coefficients drawn uniformly from ``{-1, 0, 1}``."""
    if n <= 0:
        raise ParameterError(f"sample count must be positive, got {n}")
    return rng.integers(-1, 2, size=n).tolist()


def sample_centered_binomial(
    n: int, rng: np.random.Generator, eta: int = DEFAULT_CBD_ETA
) -> list:
    """``n`` centered-binomial samples: sum of ``eta`` coin differences.

    Each sample is ``sum(b_i) - sum(b'_i)`` over ``eta`` fair coin
    pairs, giving mean 0, variance ``eta / 2``, and support
    ``[-eta, eta]`` — a bounded, easily-sampled error distribution.
    """
    if n <= 0:
        raise ParameterError(f"sample count must be positive, got {n}")
    if eta <= 0:
        raise ParameterError(f"eta must be positive, got {eta}")
    ones = rng.integers(0, 2, size=(n, eta)).sum(axis=1)
    zeros = rng.integers(0, 2, size=(n, eta)).sum(axis=1)
    return (ones - zeros).tolist()
