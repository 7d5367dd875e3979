"""Variance workload (paper Figure 2(b)).

Scenario (Section 3): the server squares each user's encrypted values
(homomorphic multiplication of a ciphertext with itself), sums squares
and raw values across users, and the client computes
``Var = E[x^2] - E[x]^2`` with two scalar divisions after decryption.

Because each user's contribution requires a homomorphic **square**, the
device time is dominated by wide multiplication — the operation the
first-generation PIM system performs in software — which is why the
paper finds PIM losing to both CPU-SEAL and the GPU here (it still
beats the custom CPU).

Device cost per user: one ciphertext tensor product (``n`` tensor
slots, 4 wide multiplies each), optionally a relinearization pass
(``2 * l`` digit-polynomial products, i.e. ``2 * l * n`` wide
multiplies), and the two accumulation streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.backends.base import Backend, OpRequest
from repro.core.params import BFVParameters
from repro.errors import ParameterError
from repro.obs.instrument import traced_time_on
from repro.workloads.dataset import UserDataset

if TYPE_CHECKING:
    from repro.workloads.context import WorkloadContext

#: User counts evaluated in Figure 2(b).
FIG2B_USERS = (640, 1280, 2560)


@dataclass(frozen=True)
class VarianceWorkload:
    """Variance of one encrypted value-vector per user."""

    security_bits: int = 109
    n_users: int = 640
    #: Whether the device relinearizes each square (the paper's host
    #: handles only scalar division, so size-3 sums decrypt host-side;
    #: with relinearization enabled the extra digit products are
    #: charged to the device).
    relinearize: bool = False

    def __post_init__(self):
        if self.n_users <= 1:
            raise ParameterError(
                f"variance needs at least two users: {self.n_users}"
            )

    @property
    def params(self) -> BFVParameters:
        return BFVParameters.security_level(self.security_bits)

    def device_requests(self) -> list:
        params = self.params
        n = params.poly_degree
        width = params.coefficient_width_bits
        users = self.n_users
        requests = [
            # One tensor product per user (the square).
            OpRequest(
                op="tensor_mul",
                width_bits=width,
                n_elements=users * n,
                work_units=users,
                # Baselines square each user's ciphertext separately.
                op_dispatches=users,
            ),
            # Accumulate the squared ciphertexts (size 3) across users.
            # Every implementation fuses this into the per-user pass
            # (square, then add into the running sum in the same loop),
            # so it is a single dispatched stream on all platforms. The
            # E[x] term reuses the mean workload's result; the paper
            # attributes only "polynomial multiplication ... and a
            # final scalar division" to variance (Section 3).
            OpRequest(
                op="reduce_sum",
                width_bits=width,
                n_elements=users * 3 * n,
                work_units=users,
            ),
        ]
        if self.relinearize:
            l = params.relin_components
            requests.insert(
                1,
                OpRequest(
                    op="vec_mul",
                    width_bits=width,
                    n_elements=users * 2 * l * n,
                    work_units=users,
                    op_dispatches=users,
                ),
            )
        return requests

    def time_on(self, backend: Backend) -> float:
        """Modelled seconds of the device portion on a backend."""
        return traced_time_on(self, backend)

    def run_functional(
        self,
        context: WorkloadContext,
        n_users: int = 8,
        samples_per_user: int = 4,
        seed: int = 23,
        high: int = 100,
    ) -> list:
        """End-to-end encrypted variance at a reduced scale, verified.

        ``high`` bounds the user values; the sum of squares across
        users must fit the plaintext modulus's centered range.
        """
        data = UserDataset.generate(
            n_users, samples_per_user, seed=seed, high=high
        )
        ev = context.evaluator
        encrypted = [
            context.encrypt_slots(list(user)) for user in data.values
        ]
        squares = [
            ev.square(ct, relinearize=self.relinearize) for ct in encrypted
        ]
        sum_squares = ev.add_many(squares)
        sum_values = ev.add_many(encrypted)

        sq = context.decrypt_slots(sum_squares, samples_per_user)
        s = context.decrypt_slots(sum_values, samples_per_user)
        assert sq == data.column_square_sums(), (sq, data.column_square_sums())
        assert s == data.column_sums(), (s, data.column_sums())

        variances = [
            q / n_users - (v / n_users) ** 2 for q, v in zip(sq, s)
        ]
        expected = data.column_variances()
        assert variances == expected, (variances, expected)
        return variances
