"""Ablation: hypothetical native 32-bit multiplier (Key Takeaway 2).

'Future PIM systems with native 32-bit multiplication hardware could
potentially outperform CPUs and GPUs.' — this bench regenerates the
what-if table and checks that a native multiplier would flip the
Figure 1(b) outcome against the GPU.
"""

from repro.backends.registry import get_backend
from repro.backends.base import OpRequest


def test_abl_native_mul_regenerate(benchmark, regenerate):
    rows = benchmark.pedantic(
        regenerate, args=("abl_native_mul",), iterations=1, rounds=3
    )
    by_width = {row.x: row.series for row in rows}
    # Order-of-magnitude speedups at every width.
    for width in (32, 64, 128):
        assert by_width[width]["speedup x"] > 10
    # The native kernel's per-element cost is tiny compared to the
    # software loop at 128-bit (3709 -> ~107 cycles).
    assert by_width[128]["native cycles/elt"] < 200


def test_native_mul_would_beat_gpu(regenerate):
    """With native multiply, the fig1b PIM bar drops below the GPU's —
    the paper's 'could potentially outperform' made concrete."""
    rows = regenerate("abl_native_mul")
    native_ms = {row.x: row.series["native ms"] for row in rows}
    gpu = get_backend("gpu")
    request = OpRequest(
        op="vec_mul",
        width_bits=128,
        n_elements=20480 * 2 * 4096,
        work_units=20480,
    )
    gpu_ms = gpu.time_op(request).ms
    assert native_ms[128] < gpu_ms


def test_abl_residency_regenerate(benchmark, regenerate):
    """Data-movement ablation: host streaming erases the PIM win."""
    rows = benchmark.pedantic(
        regenerate, args=("abl_residency",), iterations=1, rounds=3
    )
    for row in rows:
        resident = row.series["pim (data resident)"]
        streaming = row.series["pim (with host transfers)"]
        assert streaming > 20 * resident
