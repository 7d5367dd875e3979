"""The paper's workload cells, one table for every layer that reads them.

:data:`PAPER_WORKLOADS` is the one table of the paper's cells: per
workload, how to build it at a (security level, batch) cell, the
figure's batches and row label, and the noise-circuit shape of one
serving request. :data:`EXPERIMENT_CELLS` names the cells of each
figure experiment. The fig1/fig2 experiments, the experiment grid and
the serving layer all read them.
"""

from dataclasses import dataclass
from typing import Callable

from repro.core.planner import CircuitShape
from repro.workloads.linreg import (
    FIG2C_CIPHERTEXTS,
    FIG2C_USERS,
    LinearRegressionWorkload,
)
from repro.workloads.mean import FIG2A_USERS, MeanWorkload
from repro.workloads.variance import FIG2B_USERS, VarianceWorkload
from repro.workloads.vectorops import (
    FIG1A_SIZES,
    FIG1B_SIZES,
    VectorAddWorkload,
    VectorMulWorkload,
)


@dataclass(frozen=True)
class PaperWorkload:
    """One workload of the paper's figures and its cells.

    ``factory(security_bits, batch)`` builds the workload at one cell;
    ``batches`` are the figure's batches in plot order, and ``label``
    formats one as the figure's row label. What "batch" counts is the
    factory's business: ciphertexts for the fig1 microbenchmarks, users
    for the fig2 statistics, ciphertexts per user for linear
    regression. ``depth`` is a request's multiplicative depth; a
    request that ``accumulates`` sums its ops in one addition level.
    """

    factory: Callable
    batches: tuple
    label: str
    depth: int = 0
    accumulates: bool = False

    def circuit(self, ops: int) -> CircuitShape:
        """The noise-circuit shape of one request of ``ops`` ops."""
        fan_in = max(1, ops) if self.accumulates else 1
        return CircuitShape(
            multiplicative_depth=self.depth, additions_per_level=fan_in
        )


#: The paper's workloads, keyed by the name the grid and the serving
#: layer use.
PAPER_WORKLOADS = {
    "vec_add": PaperWorkload(
        factory=lambda bits, batch: VectorAddWorkload(
            security_bits=bits, n_ciphertexts=batch
        ),
        batches=FIG1A_SIZES,
        label="{} ciphertexts",
    ),
    "vec_mul": PaperWorkload(
        factory=lambda bits, batch: VectorMulWorkload(
            security_bits=bits, n_ciphertexts=batch
        ),
        batches=FIG1B_SIZES,
        label="{} ciphertexts",
        depth=1,
    ),
    "mean": PaperWorkload(
        factory=lambda bits, batch: MeanWorkload(
            security_bits=bits, n_users=batch
        ),
        batches=FIG2A_USERS,
        label="{} users",
        accumulates=True,
    ),
    "variance": PaperWorkload(
        factory=lambda bits, batch: VarianceWorkload(
            security_bits=bits, n_users=batch
        ),
        batches=FIG2B_USERS,
        label="{} users",
        depth=1,
        accumulates=True,
    ),
    "linreg": PaperWorkload(
        factory=lambda bits, batch: LinearRegressionWorkload(
            security_bits=bits,
            n_users=FIG2C_USERS,
            ciphertexts_per_user=batch,
        ),
        batches=FIG2C_CIPHERTEXTS,
        label=f"{FIG2C_USERS} users x {{}} cts",
        depth=1,
        accumulates=True,
    ),
}

#: Experiment id -> (workload, security_bits): the experiment's rows are
#: the workload's cells at that level, one per batch in batch order, on
#: every backend.
EXPERIMENT_CELLS = {
    "fig1a": ("vec_add", 109),
    "fig1a_64bit": ("vec_add", 54),
    "fig1a_32bit": ("vec_add", 27),
    "fig1b": ("vec_mul", 109),
    "fig1b_64bit": ("vec_mul", 54),
    "fig1b_32bit": ("vec_mul", 27),
    "fig2a": ("mean", 109),
    "fig2b": ("variance", 109),
    "fig2c": ("linreg", 109),
}
