"""Covariance workload — an extension beyond the paper's three.

Natural next statistical workload after mean and variance: the
covariance of two encrypted series, ``Cov(x, y) = E[xy] - E[x]E[y]``.
Device-side it is structurally a variance whose square is replaced by a
*cross* product — same tensor kernel, same accumulations — so it
inherits the paper's multiplication story unchanged. Useful both as a
library feature and as a check that the workload framework generalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.backends.base import Backend, OpRequest
from repro.core.params import BFVParameters
from repro.errors import ParameterError
from repro.obs.instrument import traced_time_on

if TYPE_CHECKING:
    from repro.workloads.context import WorkloadContext


@dataclass(frozen=True)
class CovarianceWorkload:
    """Covariance of two encrypted value-vectors per user."""

    security_bits: int = 109
    n_users: int = 640

    def __post_init__(self):
        if self.n_users <= 1:
            raise ParameterError(
                f"covariance needs at least two users: {self.n_users}"
            )

    @property
    def params(self) -> BFVParameters:
        return BFVParameters.security_level(self.security_bits)

    def device_requests(self) -> list:
        params = self.params
        n = params.poly_degree
        width = params.coefficient_width_bits
        users = self.n_users
        return [
            # One cross tensor product per user: x_u * y_u.
            OpRequest(
                op="tensor_mul",
                width_bits=width,
                n_elements=users * n,
                work_units=users,
                op_dispatches=users,
            ),
            # Fused accumulation of the size-3 products.
            OpRequest(
                op="reduce_sum",
                width_bits=width,
                n_elements=users * 3 * n,
                work_units=users,
            ),
            # Accumulations of both raw series for E[x] and E[y].
            OpRequest(
                op="reduce_sum",
                width_bits=width,
                n_elements=users * 2 * 2 * n,
                work_units=users,
            ),
        ]

    def time_on(self, backend: Backend) -> float:
        """Modelled seconds of the device portion on a backend."""
        return traced_time_on(self, backend)

    def run_functional(
        self,
        context: WorkloadContext,
        n_users: int = 8,
        samples_per_user: int = 4,
        seed: int = 29,
        high: int = 10,
    ) -> list:
        """End-to-end encrypted covariance at a reduced scale, verified.

        Each user holds two private series ``x`` and ``y``; the server
        computes ``sum(x*y)``, ``sum(x)``, ``sum(y)`` homomorphically;
        the client finishes with three scalar divisions.
        """
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, high, size=(n_users, samples_per_user))
        ys = rng.integers(0, high, size=(n_users, samples_per_user))
        ev = context.evaluator

        enc_x = [context.encrypt_slots([int(v) for v in row]) for row in xs]
        enc_y = [context.encrypt_slots([int(v) for v in row]) for row in ys]
        cross = [ev.multiply(cx, cy) for cx, cy in zip(enc_x, enc_y)]

        sum_xy = context.decrypt_slots(ev.add_many(cross), samples_per_user)
        sum_x = context.decrypt_slots(ev.add_many(enc_x), samples_per_user)
        sum_y = context.decrypt_slots(ev.add_many(enc_y), samples_per_user)

        expected_xy = [int(v) for v in (xs * ys).sum(axis=0)]
        assert sum_xy == expected_xy, (sum_xy, expected_xy)
        assert sum_x == [int(v) for v in xs.sum(axis=0)]
        assert sum_y == [int(v) for v in ys.sum(axis=0)]

        u = n_users
        covariances = [
            xy / u - (x / u) * (y / u)
            for xy, x, y in zip(sum_xy, sum_x, sum_y)
        ]
        reference = [
            float(np.mean(xs[:, j] * ys[:, j]) - xs[:, j].mean() * ys[:, j].mean())
            for j in range(samples_per_user)
        ]
        assert np.allclose(covariances, reference), (covariances, reference)
        return covariances
