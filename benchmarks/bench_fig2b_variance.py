"""Figure 2(b): encrypted variance across user counts.

The squaring step drags PIM behind SEAL and the GPU (the paper's
multiplication story at application level); only the custom CPU still
loses to PIM. Regenerates the series and benchmarks a real encrypted
variance.
"""

from repro.harness.report import measured_ratio_range
from repro.workloads.variance import VarianceWorkload


def test_fig2b_regenerate_table(benchmark, regenerate):
    rows = benchmark.pedantic(
        regenerate, args=("fig2b",), iterations=1, rounds=3
    )
    assert [row.x for row in rows] == [640, 1280, 2560]
    # Paper Section 4.3: PIM over CPU 6-25x; SEAL 2-10x faster; GPU
    # 13-50x faster (model band 9-50, deviation documented).
    lo, hi = measured_ratio_range(rows, "pim", "cpu")
    assert 6 <= lo and hi <= 25
    lo, hi = measured_ratio_range(rows, "cpu-seal", "pim")
    assert 2 <= lo and hi <= 10
    lo, hi = measured_ratio_range(rows, "gpu", "pim")
    assert 9 <= lo and hi <= 50


def test_fig2b_ordering_every_row(benchmark, regenerate):
    rows = benchmark.pedantic(
        regenerate, args=("fig2b",), iterations=1, rounds=1
    )
    for row in rows:
        assert (
            row.series["gpu"]
            < row.series["cpu-seal"]
            < row.series["pim"]
            < row.series["cpu"]
        )


def test_bench_encrypted_variance_end_to_end(benchmark, tiny_crypto):
    """Real BFV: per-user squares, homomorphic sums, host finish."""

    def run():
        return VarianceWorkload().run_functional(
            tiny_crypto, n_users=5, samples_per_user=3, high=5
        )

    variances = benchmark(run)
    assert len(variances) == 3


def test_bench_relinearized_variance(benchmark, tiny_crypto):
    """Same workload with device-side relinearization charged."""

    def run():
        return VarianceWorkload(relinearize=True).run_functional(
            tiny_crypto, n_users=4, samples_per_user=2, high=5
        )

    benchmark(run)
