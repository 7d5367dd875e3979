"""Ablation: NTT vs schoolbook polynomial multiplication.

Quantifies why the SEAL baseline wins multiplication-heavy workloads
and why the paper lists NTT-on-PIM as future work: three NTTs plus a
pointwise pass replace O(n^2) coefficient products. The regenerated
table counts modular multiplications; the real benchmarks time both
algorithms in this implementation.
"""

import numpy as np
import pytest

from repro.poly.modring import find_ntt_prime
from repro.poly.ntt import NTTContext
from repro.poly.polynomial import _schoolbook_negacyclic


def test_abl_ntt_regenerate(benchmark, regenerate):
    rows = benchmark.pedantic(
        regenerate, args=("abl_ntt",), iterations=1, rounds=3
    )
    by_n = {row.x: row.series for row in rows}
    # At the paper's largest ring the asymptotic gap is ~2 orders.
    assert by_n[4096]["ntt advantage x"] > 100
    # Formula check: schoolbook n^2, NTT 3*(n/2)log n + n.
    assert by_n[1024]["schoolbook mulmods"] == 1024 * 1024
    assert by_n[1024]["ntt mulmods"] == 3 * 512 * 10 + 1024


@pytest.fixture(scope="module")
def ring256():
    p = find_ntt_prime(31, 256)
    ctx = NTTContext(256, p)
    rng = np.random.default_rng(11)
    a = [int(v) for v in rng.integers(0, p, size=256)]
    b = [int(v) for v in rng.integers(0, p, size=256)]
    return ctx, a, b


def test_bench_ntt_convolution(benchmark, ring256):
    ctx, a, b = ring256
    result = benchmark(lambda: ctx.convolve(a, b))
    assert len(result) == 256


def test_bench_schoolbook_convolution(benchmark, ring256):
    ctx, a, b = ring256
    p = ctx.p
    result = benchmark(
        lambda: [c % p for c in _schoolbook_negacyclic(a, b, 256)]
    )
    assert len(result) == 256


def test_ntt_faster_in_wall_time(ring256):
    """Even in pure Python at n=256, the NTT wins outright."""
    import time

    ctx, a, b = ring256
    t0 = time.perf_counter()
    ntt_result = ctx.convolve(a, b)
    t_ntt = time.perf_counter() - t0
    t0 = time.perf_counter()
    school = [c % ctx.p for c in _schoolbook_negacyclic(a, b, 256)]
    t_school = time.perf_counter() - t0
    assert ntt_result == school
    assert t_ntt < t_school
