"""Security-level sweep (Sections 3 / 4.1-4.2).

The paper's three 'bit-key security levels' trade ring size and
container width against cost. Regenerates the add/mul latency table
across 27/54/109 bits and benchmarks real BFV primitive latencies.
"""

import pytest

from repro.core.decryptor import Decryptor
from repro.core.encoder import IntegerEncoder
from repro.core.encryptor import Encryptor
from repro.core.evaluator import Evaluator
from repro.core.keys import KeyGenerator
from repro.core.params import BFVParameters


def test_tab_security_regenerate(benchmark, regenerate):
    rows = benchmark.pedantic(
        regenerate, args=("tab_security",), iterations=1, rounds=3
    )
    adds = {r.x: r.series["pim"] for r in rows if r.extra["op"] == "add"}
    muls = {r.x: r.series["pim"] for r in rows if r.extra["op"] == "mul"}
    # Higher security -> strictly more device time for both ops.
    assert adds[27] < adds[54] < adds[109]
    assert muls[27] < muls[54] < muls[109]
    # Multiplication degrades superlinearly versus addition (software
    # Karatsuba vs native add/addc chains).
    assert muls[109] / muls[27] > 2 * (adds[109] / adds[27])


@pytest.fixture(scope="module")
def level27():
    """The real 27-bit paper level (n=1024) — small enough to run
    genuine keygen/encrypt/decrypt under the benchmark clock."""
    params = BFVParameters.security_level(27)
    keys = KeyGenerator(params, seed=1).generate()
    return params, keys


def test_bench_keygen_27bit(benchmark):
    params = BFVParameters.security_level(27)
    result = benchmark.pedantic(
        lambda: KeyGenerator(params, seed=2).generate(),
        iterations=1,
        rounds=3,
    )
    assert result.relin_key.component_count == params.relin_components


def test_bench_encrypt_27bit(benchmark, level27):
    params, keys = level27
    encryptor = Encryptor(params, keys.public_key, seed=3)
    encoder = IntegerEncoder(params)
    pt = encoder.encode(42)
    ct = benchmark(lambda: encryptor.encrypt(pt))
    assert ct.size == 2


def test_bench_decrypt_27bit(benchmark, level27):
    params, keys = level27
    encryptor = Encryptor(params, keys.public_key, seed=4)
    decryptor = Decryptor(params, keys.secret_key)
    encoder = IntegerEncoder(params)
    ct = encryptor.encrypt(encoder.encode(-7))
    pt = benchmark(lambda: decryptor.decrypt(ct))
    assert encoder.decode(pt) == -7


def test_bench_homomorphic_add_27bit(benchmark, level27):
    params, keys = level27
    encryptor = Encryptor(params, keys.public_key, seed=5)
    evaluator = Evaluator(params)
    encoder = IntegerEncoder(params)
    a = encryptor.encrypt(encoder.encode(30))
    b = encryptor.encrypt(encoder.encode(12))
    total = benchmark(lambda: evaluator.add(a, b))
    decryptor = Decryptor(params, keys.secret_key)
    assert encoder.decode(decryptor.decrypt(total)) == 42
