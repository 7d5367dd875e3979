"""Linear-regression workload (paper Figure 2(c)).

Scenario (Section 3): samples with 3 features; the server computes the
normal-equation terms ``X^T X`` and ``X^T y`` homomorphically ("both
polynomial addition and multiplication to perform the vector-matrix
multiplication [...] on the UPMEM PIM cores"); the client decrypts the
small matrix and solves the 3x3 system on the host.

The paper evaluates 640 users with 32 and 64 ciphertexts per user.
Each ciphertext carries a bundle of encrypted samples; forming the
normal-equation terms costs, per ciphertext, the pairwise feature
products — ``f*(f+1)/2 + f`` ciphertext multiplications' worth of
tensor slots for ``f`` features — plus the accumulations. Like
variance, the workload is multiplication-bound, so PIM keeps only its
custom-CPU win (paper Observation 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.base import Backend, OpRequest
from repro.core.params import BFVParameters
from repro.errors import ParameterError
from repro.obs.instrument import traced_time_on
from repro.workloads.context import WorkloadContext
from repro.workloads.dataset import RegressionDataset

#: Figure 2(c): users, and the ciphertexts per user it sweeps.
FIG2C_USERS = 640
FIG2C_CIPHERTEXTS = (32, 64)


@dataclass(frozen=True)
class LinearRegressionWorkload:
    """Normal-equation linear regression over encrypted samples."""

    security_bits: int = 109
    n_users: int = 640
    ciphertexts_per_user: int = 32
    n_features: int = 3

    def __post_init__(self):
        if self.n_users <= 0:
            raise ParameterError(f"n_users must be positive: {self.n_users}")
        if self.ciphertexts_per_user <= 0:
            raise ParameterError(
                "ciphertexts_per_user must be positive: "
                f"{self.ciphertexts_per_user}"
            )
        if self.n_features <= 0:
            raise ParameterError(
                f"n_features must be positive: {self.n_features}"
            )

    @property
    def params(self) -> BFVParameters:
        return BFVParameters.security_level(self.security_bits)

    @property
    def products_per_ciphertext(self) -> int:
        """Distinct normal-equation products: upper-triangular
        ``X^T X`` entries plus the ``X^T y`` vector."""
        f = self.n_features
        return f * (f + 1) // 2 + f

    def device_requests(self) -> list:
        params = self.params
        n = params.poly_degree
        width = params.coefficient_width_bits
        total_cts = self.n_users * self.ciphertexts_per_user
        # Each user's ciphertexts are organized by feature column; the
        # f*(f+1)/2 + f normal-equation products each consume one
        # column's share (1/f) of the user's ciphertexts, so the total
        # ciphertext multiplications are total_cts * products / f.
        ct_mults = total_cts * self.products_per_ciphertext // self.n_features
        return [
            # Feature-pair tensor products for every ciphertext bundle.
            OpRequest(
                op="tensor_mul",
                width_bits=width,
                n_elements=ct_mults * n,
                work_units=self.n_users,
                # Baselines run one evaluator multiply per product.
                op_dispatches=ct_mults,
            ),
            # Accumulate every product ciphertext into its
            # normal-equation entry — fused into the per-product pass
            # on every platform (one running sum per entry).
            OpRequest(
                op="reduce_sum",
                width_bits=width,
                n_elements=ct_mults * n,
                work_units=self.n_users,
            ),
        ]

    def time_on(self, backend: Backend) -> float:
        """Modelled seconds of the device portion on a backend."""
        return traced_time_on(self, backend)

    def run_functional(
        self,
        context: WorkloadContext,
        n_samples: int = 8,
        seed: int = 27,
        feature_high: int = 20,
        noise: int = 2,
    ) -> list:
        """End-to-end encrypted regression at a reduced scale, verified.

        Features and targets are encrypted column-wise (one ciphertext
        per feature, samples in slots); the server computes every
        normal-equation product homomorphically and sums over the slot
        dimension client-side after decryption; the host solves the
        system. Returns the recovered coefficients.
        """
        data = RegressionDataset.generate(
            n_samples,
            self.n_features,
            seed=seed,
            feature_high=feature_high,
            noise=noise,
        )
        ev = context.evaluator
        f = self.n_features

        feature_cols = [
            [row[i] for row in data.x] for i in range(f)
        ]
        enc_features = [context.encrypt_slots(col) for col in feature_cols]
        enc_target = context.encrypt_slots(list(data.y))

        xtx = [[0] * f for _ in range(f)]
        xty = [0] * f
        for i in range(f):
            for j in range(i, f):
                product = ev.multiply(enc_features[i], enc_features[j])
                slots = context.decrypt_slots(product, n_samples)
                xtx[i][j] = xtx[j][i] = sum(slots)
            product = ev.multiply(enc_features[i], enc_target)
            xty[i] = sum(context.decrypt_slots(product, n_samples))

        ref_xtx, ref_xty = data.normal_equation_terms()
        assert tuple(tuple(r) for r in xtx) == ref_xtx, (xtx, ref_xtx)
        assert tuple(xty) == ref_xty, (xty, ref_xty)

        solution = np.linalg.solve(
            np.array(xtx, dtype=float), np.array(xty, dtype=float)
        )
        reference = data.solve_reference()
        assert np.allclose(solution, reference), (solution, reference)
        return [float(c) for c in solution]
