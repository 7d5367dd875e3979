"""Ablation: Karatsuba vs schoolbook limb multiplication (Section 3).

The paper chooses Karatsuba for 64-/128-bit products because it
'requires less operations than the traditional multiplication
algorithm'. This bench validates that both in derived DPU cycles (the
regenerated table) and in real Python wall time.
"""

import numpy as np
import pytest

from repro.mpint.cost import OpTally
from repro.mpint.limbs import to_planes
from repro.mpint.mul import karatsuba_multiply, schoolbook_multiply


def test_abl_karatsuba_regenerate(benchmark, regenerate):
    rows = benchmark.pedantic(
        regenerate, args=("abl_karatsuba",), iterations=1, rounds=3
    )
    savings = {row.x: row.series["savings %"] for row in rows}
    # Savings grow with operand width: ~24% at 64-bit, ~42% at 128-bit.
    assert 15 < savings[2] < 35
    assert 35 < savings[4] < 50
    assert savings[8] > savings[4] > savings[2]


def _random_operands(limbs, count, seed):
    """Two limb-plane operands of ``count`` random elements each."""
    rng = np.random.default_rng(seed)
    values = [
        int.from_bytes(rng.bytes(4 * limbs), "little") for _ in range(2 * count)
    ]
    return to_planes(values[0::2], limbs), to_planes(values[1::2], limbs)


@pytest.mark.parametrize("limbs", [2, 4, 8])
def test_bench_karatsuba(benchmark, limbs):
    a, b = _random_operands(limbs, 64, seed=limbs)
    benchmark(lambda: karatsuba_multiply(a, b, OpTally()))


@pytest.mark.parametrize("limbs", [2, 4, 8])
def test_bench_schoolbook(benchmark, limbs):
    a, b = _random_operands(limbs, 64, seed=limbs)
    benchmark(lambda: schoolbook_multiply(a, b, OpTally()))
