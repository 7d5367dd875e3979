"""Extension experiments: energy, NTT-on-PIM, covariance, simulation, rotations.

These go beyond the paper's figures (provenance in each experiment's
registry entry); the benchmarks regenerate their tables and time the
new real primitives (rotation, binary encoding).
"""

import pytest

from repro.core.encoder import BinaryEncoder
from repro.core.galois import rotate_rows
from repro.core.keys import KeyGenerator


def test_ext_energy_regenerate(benchmark, regenerate):
    rows = benchmark.pedantic(
        regenerate, args=("ext_energy",), iterations=1, rounds=3
    )
    mean_row, variance_row, linreg_row = rows
    # PIM is the energy winner for the addition-only workload...
    assert mean_row.series["pim"] == min(mean_row.series.values())
    # ...and SEAL for the multiplication-heavy ones.
    assert variance_row.series["cpu-seal"] == min(variance_row.series.values())
    assert linreg_row.series["cpu-seal"] == min(linreg_row.series.values())


def test_ext_ntt_pim_regenerate(benchmark, regenerate):
    rows = benchmark.pedantic(
        regenerate, args=("ext_ntt_pim",), iterations=1, rounds=3
    )
    speedups = [row.series["ntt speedup x"] for row in rows]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 100  # n = 4096


def test_ext_covariance_regenerate(benchmark, regenerate):
    rows = benchmark.pedantic(
        regenerate, args=("ext_covariance",), iterations=1, rounds=3
    )
    for row in rows:
        assert row.series["pim"] < row.series["cpu"]
        assert row.series["pim"] > row.series["cpu-seal"]


def test_ext_sim_validation_regenerate(benchmark, regenerate):
    rows = benchmark.pedantic(
        regenerate, args=("ext_sim_validation",), iterations=1, rounds=3
    )
    errors = {row.label: row.series["error %"] for row in rows}
    # The analytic bound tracks the cycle-level simulation everywhere,
    # and within 1% for the compute-bound multiply at saturation.
    assert all(abs(error) < 20.0 for error in errors.values())
    assert abs(errors["vec_mul 128-bit, 16 tasklets"]) < 1.0


@pytest.fixture(scope="module")
def rotation_setup(tiny_crypto):
    keygen = KeyGenerator(tiny_crypto.params, seed=3)
    keys = keygen.generate_galois_keys(
        tiny_crypto.keys.secret_key, steps=[1]
    )
    ct = tiny_crypto.encrypt_slots(list(range(16)))
    return tiny_crypto, keys, ct


def test_bench_rotation(benchmark, rotation_setup):
    ctx, keys, ct = rotation_setup
    rotated = benchmark(lambda: rotate_rows(ct, 1, keys))
    assert rotated.size == 2


def test_bench_galois_keygen(benchmark, tiny_crypto):
    keygen = KeyGenerator(tiny_crypto.params, seed=4)
    keys = benchmark.pedantic(
        lambda: keygen.generate_galois_keys(
            tiny_crypto.keys.secret_key, steps=[1]
        ),
        iterations=1,
        rounds=3,
    )
    assert len(keys.elements()) == 2  # step 1 + column swap


def test_bench_binary_encoder(benchmark, tiny_crypto):
    encoder = BinaryEncoder(tiny_crypto.params)

    def roundtrip():
        return encoder.decode(encoder.encode(123_456_789))

    assert benchmark(roundtrip) == 123_456_789


def test_bench_device_functional_add(benchmark, tiny_crypto):
    """Homomorphic addition executed through the modelled DPU kernel."""
    from repro.pim.executor import DeviceEvaluator

    device = DeviceEvaluator(tiny_crypto.params)
    a = tiny_crypto.encrypt_slots([1, 2])
    b = tiny_crypto.encrypt_slots([3, 4])

    def run():
        result, _ = device.add(a, b)
        return result

    result = benchmark(run)
    assert tiny_crypto.decrypt_slots(result, 2) == [4, 6]


def test_kt3_capacity_regenerate(benchmark, regenerate):
    rows = benchmark.pedantic(
        regenerate, args=("kt3_capacity",), iterations=1, rounds=3
    )
    throughputs = [row.series["throughput users/s"] for row in rows]
    assert throughputs == sorted(throughputs)


def test_ext_end_to_end_regenerate(benchmark, regenerate):
    rows = benchmark.pedantic(
        regenerate, args=("ext_end_to_end",), iterations=1, rounds=3
    )
    mean_row = rows[0]
    assert mean_row.series["pim"] == min(mean_row.series.values())


def test_ext_crossover_regenerate(benchmark, regenerate):
    rows = benchmark.pedantic(
        regenerate, args=("ext_seal_crossover",), iterations=1, rounds=3
    )
    by_width = {r.x: r.series for r in rows if "pim/seal" in r.series}
    assert by_width[32]["pim/seal"] < 1.0 < by_width[64]["pim/seal"]


def test_bench_scorecard(benchmark):
    """Full scorecard construction: every claim's experiment, run and
    classified."""
    from repro.harness.scorecard import build_scorecard

    verdicts = benchmark.pedantic(build_scorecard, iterations=1, rounds=1)
    assert all(v.verdict != "FAIL" for v in verdicts)
