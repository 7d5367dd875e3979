"""Functional BFV at the paper's rings: n = 1024, 2048 and 4096.

The rest of the functional suite runs on tiny rings. These tests run
the real pipeline at each of the paper's three security levels, built
by ``WorkloadContext.create``, and assert exact agreement with the
plaintext computation. They are affordable because every ring product
goes through the vectorized CRT-NTT convolution.
"""

import random

from repro.workloads import MeanWorkload, VectorAddWorkload, VectorMulWorkload
from repro.workloads.context import WorkloadContext


def test_integer_sum_at_27_bits():
    ctx = WorkloadContext.create(27)
    assert ctx.params.poly_degree == 1024
    users = [random.Random(27).randint(-15, 15) for _ in range(8)]
    encoder = ctx.integer_encoder
    total = ctx.evaluator.add_many(
        ctx.encryptor.encrypt(encoder.encode(v)) for v in users
    )
    assert encoder.decode(ctx.decryptor.decrypt(total)) == sum(users)


def test_batched_add_and_mean_at_54_bits():
    ctx = WorkloadContext.create(54)
    assert ctx.params.poly_degree == 2048
    sums = VectorAddWorkload(54).run_functional(ctx, batch=2, seed=54)
    assert len(sums) == 2
    means = MeanWorkload(54).run_functional(ctx, n_users=6, seed=54)
    assert len(means) == 6


def test_relinearized_multiply_at_109_bits():
    ctx = WorkloadContext.create(109)
    assert ctx.params.poly_degree == 4096
    products = VectorMulWorkload(109).run_functional(ctx, batch=1, seed=109)
    assert len(products) == 1


def test_full_slot_batch_at_109_bits():
    """All 4096 slots survive encode/decode, and an encrypted multiply."""
    ctx = WorkloadContext.create(109)
    encoder = ctx.batch_encoder
    assert encoder.slot_count == 4096
    half = ctx.params.plain_modulus // 2
    rng = random.Random(4096)
    a = [rng.randint(-half, half) for _ in range(4096)]
    assert encoder.decode(encoder.encode(a)) == a
    # Products of values below sqrt(t / 2) stay in the centered range.
    small = [rng.randint(-181, 181) for _ in range(4096)]
    other = [rng.randint(-181, 181) for _ in range(4096)]
    product = ctx.evaluator.multiply(
        ctx.encrypt_slots(small), ctx.encrypt_slots(other)
    )
    assert product.size == 2
    assert ctx.decrypt_slots(product) == [x * y for x, y in zip(small, other)]
