"""Real wall-clock latencies of the BFV primitives in this library.

Not a paper figure — the paper measures hardware, this measures the
Python implementation — but the numbers make the library's functional
performance visible and catch regressions in the hot paths (exact
convolution, NTT bundles, relinearization).
"""


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
