"""Real wall-clock latencies of the BFV primitives in this library.

Not a paper figure — the paper measures hardware, this measures the
Python implementation — but the numbers make the library's functional
performance visible and catch regressions in the hot paths (exact
convolution, NTT bundles, relinearization).
"""

import numpy as np
import pytest

from repro.poly import ntt
from repro.poly.crt import crt_moduli, crt_twiddles
from repro.poly.polynomial import Operand, Polynomial, exact_sum


def test_bench_encrypt(benchmark, tiny_crypto):
    pt = tiny_crypto.batch_encoder.encode([1, 2, 3])
    ct = benchmark(lambda: tiny_crypto.encryptor.encrypt(pt))
    assert ct.size == 2


def test_bench_decrypt(benchmark, tiny_crypto):
    ct = tiny_crypto.encrypt_slots([4, 5, 6])
    pt = benchmark(lambda: tiny_crypto.decryptor.decrypt(ct))
    assert tiny_crypto.batch_encoder.decode(pt)[:3] == [4, 5, 6]


def test_bench_homomorphic_add(benchmark, tiny_crypto):
    a = tiny_crypto.encrypt_slots([1, 2])
    b = tiny_crypto.encrypt_slots([3, 4])
    total = benchmark(lambda: tiny_crypto.evaluator.add(a, b))
    assert tiny_crypto.decrypt_slots(total, 2) == [4, 6]


def test_bench_homomorphic_multiply(benchmark, tiny_crypto):
    a = tiny_crypto.encrypt_slots([3, -2])
    b = tiny_crypto.encrypt_slots([5, 7])
    product = benchmark(lambda: tiny_crypto.evaluator.multiply(a, b))
    assert tiny_crypto.decrypt_slots(product, 2) == [15, -14]


def test_bench_square(benchmark, tiny_crypto):
    a = tiny_crypto.encrypt_slots([9])
    sq = benchmark(lambda: tiny_crypto.evaluator.square(a))
    assert tiny_crypto.decrypt_slots(sq, 1) == [81]


def test_bench_relinearize(benchmark, tiny_crypto):
    ev = tiny_crypto.evaluator
    product = ev.multiply(
        tiny_crypto.encrypt_slots([2]),
        tiny_crypto.encrypt_slots([3]),
        relinearize=False,
    )
    relined = benchmark(lambda: ev.relinearize(product))
    assert relined.size == 2


def test_bench_batch_encode_decode(benchmark, tiny_crypto):
    encoder = tiny_crypto.batch_encoder
    values = list(range(-32, 32))

    def roundtrip():
        return encoder.decode(encoder.encode(values))

    assert benchmark(roundtrip)[:64] == values


def test_bench_noise_budget(benchmark, tiny_crypto):
    from repro.core.noise import noise_budget

    ct = tiny_crypto.encrypt_slots([1, 2, 3])
    budget = benchmark(
        lambda: noise_budget(ct, tiny_crypto.keys.secret_key)
    )
    assert budget > 0


# -- the CRT engine, layer by layer -------------------------------------------

#: ``(n, k)``: ring degree and CRT primes of the bundles the paper's
#: rings use: sums at 27/54 bits, 109-bit sums and the 109-bit tensor.
BUNDLES = [(1024, 2), (2048, 3), (4096, 4), (4096, 8)]


def _per_butterfly(benchmark, n: int, k: int) -> None:
    """Record the median time per butterfly (``k n/2 log2 n`` of them)."""
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        butterflies = k * n // 2 * (n.bit_length() - 1)
        benchmark.extra_info["ns_per_butterfly"] = stats.stats.median * 1e9 / butterflies


def _bundle(n: int, k: int):
    twiddles = crt_twiddles(n, 0, k)
    p = np.array(twiddles.primes, dtype=np.uint64)[:, None]
    rows = np.random.default_rng(n + k).integers(0, 2**62, size=(k, n), dtype=np.uint64)
    return rows % p, twiddles


@pytest.mark.parametrize("n,k", BUNDLES)
def test_bench_bundle_forward(benchmark, n, k):
    rows, twiddles = _bundle(n, k)
    out = benchmark(lambda: ntt.forward(rows, twiddles))
    assert out.shape == (k, n)
    _per_butterfly(benchmark, n, k)


@pytest.mark.parametrize("n,k", BUNDLES)
def test_bench_bundle_inverse(benchmark, n, k):
    rows, twiddles = _bundle(n, k)
    out = benchmark(lambda: ntt.inverse(rows, twiddles))
    assert out.shape == (k, n)
    _per_butterfly(benchmark, n, k)


def _operands_for(n: int, k: int) -> list:
    """Two terms of :class:`~repro.poly.polynomial.Operand` pairs whose
    exact sum takes a ``k``-prime bundle: centered coefficients up to
    ``q // 2`` for the widest odd ``q`` that keeps the bundle at ``k``."""
    bits = 31 * k
    while True:
        q = (1 << bits) + 1
        if len(crt_moduli(n, 2 * (n * 2 * (q // 2) ** 2) + 1)) == k:
            break
        bits -= 1
    rng = np.random.default_rng(bits)
    operands = []
    for _ in range(4):
        coeffs = [int(v) for v in rng.integers(0, 2**62, size=n)]
        coeffs[0] = q // 2
        operands.append(Operand(Polynomial([c % q for c in coeffs], q)))
    return [(operands[0], operands[1]), (operands[2], operands[3])]


@pytest.mark.parametrize("n,k", BUNDLES)
def test_bench_exact_sum(benchmark, n, k):
    """Pointwise products, one inverse bundle transform and the Garner
    digits; the operands' forward transforms are cached after the
    first call."""
    terms = _operands_for(n, k)
    exact = benchmark(lambda: exact_sum(terms, n))
    assert len(exact.moduli) == k
