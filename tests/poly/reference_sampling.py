"""The centered-binomial sampler as two ``rng.integers`` draws.

The form :func:`repro.poly.sampling.sample_centered_binomial` had
before it read its coins from ``PCG64``'s raw words, kept as the oracle
that the fast sampler draws the same coins and leaves the generator in
the same state. Production code never calls it.
"""

from __future__ import annotations

import numpy as np


def reference_centered_binomial(n: int, rng: np.random.Generator, eta: int) -> np.ndarray:
    """``n`` samples ``sum(b_i) - sum(b'_i)``: ``eta`` coins per sample
    from one ``(n, eta)`` draw for the ``b_i``, then one for the
    ``b'_i``."""
    ones = rng.integers(0, 2, size=(n, eta)).sum(axis=1)
    zeros = rng.integers(0, 2, size=(n, eta)).sum(axis=1)
    return (ones - zeros).astype(np.int64)
