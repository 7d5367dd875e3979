"""Figure 2(c): encrypted linear regression (3 features).

Regenerates the paper's regression rows (640 users x 32/64 ciphertexts)
and benchmarks a real encrypted normal-equations solve.
"""

from repro.harness.report import measured_ratio_range
from repro.workloads.linreg import LinearRegressionWorkload


def test_fig2c_regenerate_table(benchmark, regenerate):
    rows = benchmark.pedantic(
        regenerate, args=("fig2c",), iterations=1, rounds=3
    )
    assert [row.x for row in rows] == [32, 64]
    # Paper Section 4.3: PIM beats only the custom CPU (7.5x at 32
    # cts); SEAL and GPU are 11.4x / 54.9x faster at 64 cts. Model
    # bands per repro.harness.paper (same direction, factor <=2.3).
    lo, hi = measured_ratio_range(rows, "pim", "cpu")
    assert 6 <= lo and hi <= 16
    lo, _ = measured_ratio_range(rows, "cpu-seal", "pim")
    assert lo >= 4
    lo, _ = measured_ratio_range(rows, "gpu", "pim")
    assert lo >= 18


def test_fig2c_doubling_ciphertexts_doubles_device_time(
    benchmark, regenerate
):
    rows = benchmark.pedantic(
        regenerate, args=("fig2c",), iterations=1, rounds=1
    )
    by_cts = {row.x: row.series for row in rows}
    for backend in ("pim", "cpu"):
        ratio = by_cts[64][backend] / by_cts[32][backend]
        assert 1.8 < ratio < 2.2


def test_bench_encrypted_linreg_end_to_end(benchmark, tiny_crypto):
    """Real BFV: encrypted X^T X / X^T y, host-side 3x3 solve."""

    def run():
        return LinearRegressionWorkload().run_functional(
            tiny_crypto, n_samples=8, seed=5, feature_high=3, noise=1
        )

    coeffs = benchmark(run)
    assert len(coeffs) == 3
