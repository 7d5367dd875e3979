"""Element-parallel kernels against per-element execution.

For every kernel configuration the paper model samples, the seeded cost
sample run as one element-parallel call must produce the same outputs
and the same tally as the per-element oracle
(:mod:`tests.pim.reference_kernels`) running the same elements one at a
time. So must the Karatsuba ablation's one-lane multiplies and the
device evaluator's accumulation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.pim import modulus_for_width
from repro.harness.experiments import _run_karatsuba_ablation
from repro.mpint.cost import OpTally
from repro.mpint.limbs import to_limbs, to_planes
from repro.mpint.mul import karatsuba_multiply, schoolbook_multiply
from repro.pim.isa import cycles_for_tally
from repro.pim.kernels import (
    ReduceSumKernel,
    TensorMulKernel,
    VecAddKernel,
    VecMulKernel,
)
from repro.pim.kernels.base import COST_SAMPLE_SEED, COST_SAMPLE_SIZE
from repro.pim.kernels.nttkernel import NTTButterflyKernel
from repro.poly.modring import find_ntt_prime
from tests.mpint import reference_limbs as ref
from tests.mpint.reference_limbs import assert_same_tally
from tests.pim.reference_kernels import reference_execute

Q27, Q54, Q109 = (modulus_for_width(w) for w in (32, 64, 128))

#: Every configuration the paper model samples.
PAPER_CONFIGS = [
    pytest.param(lambda: VecAddKernel(1, Q27), id="vec_add-1-q27"),
    pytest.param(lambda: VecAddKernel(2, Q54), id="vec_add-2-q54"),
    pytest.param(lambda: VecAddKernel(4, Q109), id="vec_add-4-q109"),
    pytest.param(lambda: ReduceSumKernel(4, Q109), id="reduce_sum-4-q109"),
    pytest.param(lambda: VecMulKernel(1), id="vec_mul-1"),
    pytest.param(lambda: VecMulKernel(2), id="vec_mul-2"),
    pytest.param(lambda: VecMulKernel(4), id="vec_mul-4"),
    pytest.param(lambda: TensorMulKernel(1), id="tensor_mul-1"),
    pytest.param(lambda: TensorMulKernel(2), id="tensor_mul-2"),
    pytest.param(lambda: TensorMulKernel(4), id="tensor_mul-4"),
    pytest.param(
        lambda: NTTButterflyKernel(find_ntt_prime(30, 4096)),
        id="ntt_butterfly-p30",
    ),
]


def seeded_sample(kernel):
    """The cost sample's elements, drawn exactly as ``cost_sample`` does."""
    rng = np.random.default_rng(COST_SAMPLE_SEED)
    return [kernel.random_element(rng) for _ in range(COST_SAMPLE_SIZE)]


@pytest.mark.parametrize("make", PAPER_CONFIGS)
def test_cost_sample_matches_per_element_oracle(make):
    kernel = make()
    elements = seeded_sample(kernel)
    outputs, tally = kernel.execute(elements)
    expected_outputs, expected_tally = reference_execute(make(), elements)
    assert outputs == expected_outputs
    assert_same_tally(tally, expected_tally)
    assert kernel.cost_sample().as_dict() == expected_tally.as_dict()


def _single_draws(kernel, rng):
    """One ``rng.bytes`` call per value, as the samples were first drawn."""

    def value():
        return int.from_bytes(rng.bytes(4 * kernel.limbs), "little")

    if isinstance(kernel, ReduceSumKernel):
        return value() % kernel.modulus
    count = 4 if isinstance(kernel, TensorMulKernel) else 2
    values = tuple(value() for _ in range(count))
    if getattr(kernel, "modulus", None) is not None:
        values = tuple(v % kernel.modulus for v in values)
    return values


@pytest.mark.parametrize("make", PAPER_CONFIGS[:-1])
def test_sample_inputs_equal_single_value_draws(make):
    """Drawing an element's values in one call leaves the sample as is."""
    kernel = make()
    rng = np.random.default_rng(COST_SAMPLE_SEED)
    expected = [_single_draws(kernel, rng) for _ in range(COST_SAMPLE_SIZE)]
    assert seeded_sample(kernel) == expected


@pytest.mark.parametrize("limbs", [2, 4, 8])
@pytest.mark.parametrize(
    "fast, slow",
    [
        (schoolbook_multiply, ref.schoolbook_multiply),
        (karatsuba_multiply, ref.karatsuba_multiply),
    ],
    ids=["schoolbook", "karatsuba"],
)
def test_ablation_multiplies_match_oracle(limbs, fast, slow):
    dense = (1 << (32 * limbs)) - 1
    fast_tally, slow_tally = OpTally(), OpTally()
    fast(to_planes([dense], limbs), to_planes([dense], limbs), fast_tally)
    slow(to_limbs(dense, limbs), to_limbs(dense, limbs), slow_tally)
    assert_same_tally(fast_tally, slow_tally)


def test_ablation_rows_price_the_oracle_tallies():
    for row in _run_karatsuba_ablation():
        dense = to_limbs((1 << (32 * row.x)) - 1, row.x)
        tk, ts = OpTally(), OpTally()
        ref.karatsuba_multiply(dense, dense, tk)
        ref.schoolbook_multiply(dense, dense, ts)
        assert row.series["karatsuba cycles"] == cycles_for_tally(tk)
        assert row.series["schoolbook cycles"] == cycles_for_tally(ts)


@pytest.mark.parametrize("limbs, modulus", [(1, 2**32 - 5), (2, Q54)])
@settings(max_examples=25)
@given(data=st.data())
def test_vec_add_adversarial_residues(limbs, modulus, data):
    """Residues at q - 1 and 0, with carry-out lanes at full width."""
    value = st.one_of(
        st.integers(min_value=0, max_value=modulus - 1),
        st.just(modulus - 1),
        st.just(0),
    )
    elements = data.draw(st.lists(st.tuples(value, value), min_size=1))
    kernel = VecAddKernel(limbs, modulus)
    outputs, tally = kernel.execute(elements)
    expected_outputs, expected_tally = reference_execute(kernel, elements)
    assert outputs == expected_outputs == [(a + b) % modulus for a, b in elements]
    assert_same_tally(tally, expected_tally)


class TestReduceSum:
    def test_running_accumulator_continues_across_calls(self):
        elements = seeded_sample(ReduceSumKernel(4, Q109))
        kernel = ReduceSumKernel(4, Q109)
        first, t1 = kernel.execute(elements[:40])
        second, t2 = kernel.execute(elements[40:])
        t1.merge(t2)
        expected_outputs, expected_tally = reference_execute(kernel, elements)
        assert first + second == expected_outputs
        assert kernel.accumulator == expected_outputs[-1]
        assert_same_tally(t1, expected_tally)

    def test_accumulate_one_accumulator_per_lane(self):
        q = 2**32 - 5
        rows = [[q - 1, 0, 7], [q - 1, q - 1, 0], [2, q - 1, 9]]
        kernel = ReduceSumKernel(1, q)
        tally = OpTally()
        sums = kernel.accumulate(rows, tally)
        expected_tally = OpTally()
        for lane in range(3):
            outputs, lane_tally = reference_execute(
                kernel, [row[lane] for row in rows]
            )
            assert sums[lane] == outputs[-1]
            expected_tally.merge(lane_tally)
        assert_same_tally(tally, expected_tally)
        assert kernel.accumulator == 0

    def test_rejects_non_residue(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            ReduceSumKernel(1, 97).execute([97])
