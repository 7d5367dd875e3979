"""Byte-conservation property: timing, transfer model, and ledger agree.

The data-movement ledger (:func:`repro.obs.energy.movement_bytes`) is
derived purely from the :class:`~repro.pim.runtime.KernelTiming`
fields. These tests pin the conservation law that makes that exact:
for every kernel spec and security level, the byte counts stored in
the timing record, the totals the :class:`~repro.pim.transfer
.TransferModel` was priced on, and the ledger must agree bit-for-bit.
"""

import pytest

from repro.backends.pim import modulus_for_width
from repro.obs.energy import kernel_energy, movement_bytes
from repro.pim.kernels import (
    ReduceSumKernel,
    TensorMulKernel,
    VecAddKernel,
    VecMulKernel,
)
from repro.pim.kernels.base import result_bytes
from repro.pim.kernels.nttkernel import NTTButterflyKernel
from repro.pim.runtime import PIMRuntime
from repro.poly.modring import find_ntt_prime

#: The paper's security levels as container widths -> 32-bit limbs.
WIDTHS = {32: 1, 64: 2, 128: 4}


def _kernels():
    for width, limbs in WIDTHS.items():
        modulus = modulus_for_width(width)
        yield f"vec_add/{width}b", VecAddKernel(limbs, modulus)
        yield f"vec_mul/{width}b", VecMulKernel(limbs)
        yield f"tensor_mul/{width}b", TensorMulKernel(limbs)
        yield f"reduce_sum/{width}b", ReduceSumKernel(limbs, modulus)
    yield "ntt_butterfly", NTTButterflyKernel(find_ntt_prime(30, 4096))


KERNELS = dict(_kernels())


@pytest.fixture(scope="module")
def runtime():
    return PIMRuntime()


@pytest.mark.parametrize("label", sorted(KERNELS))
@pytest.mark.parametrize("n_elements", [1, 640, 4096])
def test_ledger_matches_timing_and_transfer_model(
    runtime, label, n_elements
):
    kernel = KERNELS[label]
    timing = runtime.time_kernel(kernel, n_elements, include_transfer=True)

    # The timing record stores exactly the kernel's byte geometry.
    assert timing.mram_bytes_per_element == kernel.mram_bytes_per_element()
    assert timing.output_bytes_per_element == result_bytes(kernel)

    ledger = movement_bytes(timing)
    output_bytes = timing.n_elements * timing.output_bytes_per_element
    input_bytes = (
        timing.n_elements * timing.mram_bytes_per_element - output_bytes
    )

    # Host-link ledger entries are the transfer model's own inputs...
    assert ledger["host_to_dpu"] == input_bytes
    assert ledger["dpu_to_host"] == output_bytes
    # ...and re-pricing those byte counts through the transfer model
    # reproduces the recorded seconds bit-for-bit.
    assert timing.host_to_dpu_seconds == runtime.transfer.host_to_dpu_seconds(
        input_bytes, timing.dpus_used
    )
    assert timing.dpu_to_host_seconds == runtime.transfer.dpu_to_host_seconds(
        output_bytes, timing.dpus_used
    )

    # Every engaged DPU streams its resident share once over the
    # WRAM<->MRAM DMA engine — the bytes the DMA cycle model priced.
    assert ledger["wram_mram"] == (
        timing.elements_per_dpu
        * timing.mram_bytes_per_element
        * timing.dpus_used
    )
    # The fleet never moves fewer bytes than the workload holds.
    assert (
        ledger["wram_mram"]
        >= timing.n_elements * timing.mram_bytes_per_element
    )


@pytest.mark.parametrize("label", sorted(KERNELS))
def test_resident_deployment_moves_no_host_bytes(runtime, label):
    # include_transfer=False is the paper's PIM-resident deployment:
    # zero transfer seconds must mean zero ledger bytes, exactly.
    timing = runtime.time_kernel(
        KERNELS[label], 2048, include_transfer=False
    )
    ledger = movement_bytes(timing)
    assert timing.host_to_dpu_seconds == 0.0
    assert timing.dpu_to_host_seconds == 0.0
    assert ledger["host_to_dpu"] == 0
    assert ledger["dpu_to_host"] == 0
    assert ledger["wram_mram"] > 0


@pytest.mark.parametrize("label", sorted(KERNELS))
def test_energy_components_sum_and_follow_the_ledger(runtime, label):
    timing = runtime.time_kernel(KERNELS[label], 4096, include_transfer=True)
    energy = kernel_energy(timing)
    ledger = movement_bytes(timing)
    assert energy.wram_mram_bytes == ledger["wram_mram"]
    assert energy.host_to_dpu_bytes == ledger["host_to_dpu"]
    assert energy.dpu_to_host_bytes == ledger["dpu_to_host"]
    assert energy.total_bytes == sum(ledger.values())
    assert energy.total_j == (
        energy.pipeline_j
        + energy.idle_j
        + energy.dma_j
        + energy.host_to_dpu_j
        + energy.dpu_to_host_j
        + energy.fault_j
    )
    assert energy.fault_j == 0.0  # no fault plan active
    assert energy.total_j > 0.0
