"""Arithmetic-mean workload (paper Figure 2(a)).

Scenario (Section 3): each user encrypts their data and uploads it; the
server sums all users' ciphertexts **homomorphically** (polynomial
addition on the PIM cores) and the client — after decryption — performs
the single scalar division by the user count on the host. Only
homomorphic *addition* is involved, which is why this is the workload
where PIM beats every baseline (Key Takeaway 1).

Device cost: a many-to-one modular accumulation over every coefficient
of every user's ciphertext — ``users * 2 * n`` element folds arriving
in ``users`` indivisible bundles.
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

#: User counts evaluated in Figure 2(a).
FIG2A_USERS = (640, 1280, 2560)


@dataclass(frozen=True)
class MeanWorkload:
    """Mean of one encrypted value-vector per user across ``n_users``."""

    security_bits: int = 109
    n_users: int = 640

    def __post_init__(self):
        if self.n_users <= 1:
            raise ParameterError(
                f"mean needs at least two users: {self.n_users}"
            )

    @property
    def params(self) -> BFVParameters:
        return BFVParameters.security_level(self.security_bits)

    def device_requests(self) -> list:
        params = self.params
        return [
            OpRequest(
                op="reduce_sum",
                width_bits=params.coefficient_width_bits,
                n_elements=self.n_users * 2 * params.poly_degree,
                work_units=self.n_users,
                # Baselines perform one evaluator addition per user.
                op_dispatches=self.n_users - 1,
            )
        ]

    def time_on(self, backend: Backend) -> float:
        """Modelled seconds of the device portion on a backend."""
        return traced_time_on(self, backend)

    def run_functional(
        self,
        context: WorkloadContext,
        n_users: int = 12,
        samples_per_user: int = 6,
        seed: int = 21,
        high: int = 100,
    ) -> list:
        """End-to-end encrypted mean at a reduced scale, verified.

        Each user's samples occupy SIMD slots; the server sums all
        users' ciphertexts; the client decrypts and divides by the user
        count. Returns the per-slot means. ``high`` bounds the user
        values — the *sum* across users must stay inside the plaintext
        modulus's centered range, so small rings need small values.
        """
        data = UserDataset.generate(
            n_users, samples_per_user, seed=seed, high=high
        )
        ev = context.evaluator
        encrypted = [
            context.encrypt_slots(list(user)) for user in data.values
        ]
        total = ev.add_many(encrypted)
        sums = context.decrypt_slots(total, samples_per_user)
        assert sums == data.column_sums(), (sums, data.column_sums())
        means = [s / n_users for s in sums]
        expected = data.column_means()
        assert means == expected, (means, expected)
        return means
