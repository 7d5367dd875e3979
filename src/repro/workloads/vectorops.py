"""Ciphertext vector addition / multiplication microbenchmarks (Fig. 1).

The paper's Section 4.2 microbenchmarks operate on batches of
ciphertexts: vector addition adds corresponding ciphertexts of two
batches element-wise; vector multiplication multiplies them. On the
device these are element-wise jobs over the ciphertexts' coefficient
containers:

* addition touches every coefficient of both component polynomials —
  ``2 * n`` modular additions per ciphertext pair;
* multiplication (in the element-wise evaluation-representation
  convention documented in DESIGN.md) performs one wide multiply per
  coefficient of both components — ``2 * n`` products per pair.

``run_functional`` executes the real BFV operations on a small batch
and checks every decrypted result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.backends.base import Backend, OpRequest
from repro.core.params import BFVParameters
from repro.errors import ParameterError
from repro.obs.instrument import traced_time_on

if TYPE_CHECKING:
    from repro.workloads.context import WorkloadContext

#: Ciphertext batch sizes of Figure 1(a) (vector addition).
FIG1A_SIZES = (20480, 40960, 81920, 163840, 327680)

#: Ciphertext batch sizes of Figure 1(b) (vector multiplication).
FIG1B_SIZES = (5120, 10240, 20480, 40960, 81920)


def _check_positive(n_ciphertexts: int) -> None:
    if n_ciphertexts <= 0:
        raise ParameterError(
            f"n_ciphertexts must be positive: {n_ciphertexts}"
        )


@dataclass(frozen=True)
class VectorAddWorkload:
    """Add two batches of ``n_ciphertexts`` ciphertexts element-wise."""

    security_bits: int = 109
    n_ciphertexts: int = 20480

    def __post_init__(self):
        _check_positive(self.n_ciphertexts)

    @property
    def params(self) -> BFVParameters:
        return BFVParameters.security_level(self.security_bits)

    def device_requests(self) -> list:
        params = self.params
        return [
            OpRequest(
                op="vec_add",
                width_bits=params.coefficient_width_bits,
                n_elements=self.n_ciphertexts * 2 * params.poly_degree,
                work_units=self.n_ciphertexts,
            )
        ]

    def time_on(self, backend: Backend) -> float:
        """Modelled seconds on a backend."""
        return traced_time_on(self, backend)

    def run_functional(
        self, context: WorkloadContext, batch: int = 4, seed: int = 11
    ) -> list:
        """Real BFV execution of a small batch; returns decrypted sums.

        Raises ``AssertionError`` on any mismatch against the plaintext
        reference, so callers can treat completion as verification.
        """
        rng = np.random.default_rng(seed)
        ev = context.evaluator
        results = []
        for _ in range(batch):
            a = [int(v) for v in rng.integers(-50, 50, size=8)]
            b = [int(v) for v in rng.integers(-50, 50, size=8)]
            ct = ev.add(context.encrypt_slots(a), context.encrypt_slots(b))
            got = context.decrypt_slots(ct, len(a))
            expected = [x + y for x, y in zip(a, b)]
            assert got == expected, (got, expected)
            results.append(got)
        return results


@dataclass(frozen=True)
class VectorMulWorkload:
    """Multiply two batches of ``n_ciphertexts`` ciphertexts element-wise."""

    security_bits: int = 109
    n_ciphertexts: int = 5120

    def __post_init__(self):
        _check_positive(self.n_ciphertexts)

    @property
    def params(self) -> BFVParameters:
        return BFVParameters.security_level(self.security_bits)

    def device_requests(self) -> list:
        params = self.params
        return [
            OpRequest(
                op="vec_mul",
                width_bits=params.coefficient_width_bits,
                n_elements=self.n_ciphertexts * 2 * params.poly_degree,
                work_units=self.n_ciphertexts,
            )
        ]

    def time_on(self, backend: Backend) -> float:
        """Modelled seconds on a backend."""
        return traced_time_on(self, backend)

    def run_functional(
        self, context: WorkloadContext, batch: int = 2, seed: int = 13
    ) -> list:
        """Real BFV multiplications on a small batch, verified."""
        rng = np.random.default_rng(seed)
        ev = context.evaluator
        # Slot products must stay inside the centered plaintext range.
        bound = min(20, math.isqrt(context.params.plain_modulus // 2))
        results = []
        for _ in range(batch):
            a = [int(v) for v in rng.integers(-bound, bound + 1, size=8)]
            b = [int(v) for v in rng.integers(-bound, bound + 1, size=8)]
            ct = ev.multiply(
                context.encrypt_slots(a), context.encrypt_slots(b)
            )
            got = context.decrypt_slots(ct, len(a))
            expected = [x * y for x, y in zip(a, b)]
            assert got == expected, (got, expected)
            results.append(got)
        return results
