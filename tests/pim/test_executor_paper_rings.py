"""Device-functional BFV at the paper's rings (n = 1024/2048/4096).

The limb kernels the timing model prices must compute real ciphertext
operations at the paper's 27/54/109-bit levels, not only on tiny
rings: device addition and accumulation equal the host evaluator bit
for bit, and the device tensor product equals the element-wise
reference.
"""

from __future__ import annotations

import random

import pytest

from repro.core import BFVParameters, Encryptor, Evaluator, KeyGenerator
from repro.core.ciphertext import Plaintext
from repro.pim.executor import DeviceEvaluator
from tests.pim.test_executor import elementwise_tensor

LEVELS = (27, 54, 109)


class Level:
    """Three fresh ciphertexts and both evaluators for one level."""

    def __init__(self, bits: int):
        self.params = BFVParameters.security_level(bits)
        keys = KeyGenerator(self.params, seed=bits).generate()
        encryptor = Encryptor(self.params, keys.public_key, seed=bits)
        rng = random.Random(bits)
        t, n = self.params.plain_modulus, self.params.poly_degree
        self.cts = [
            encryptor.encrypt(
                Plaintext.from_coefficients(
                    self.params, [rng.randrange(t) for _ in range(n)]
                )
            )
            for _ in range(3)
        ]
        self.host = Evaluator(self.params)
        self.device = DeviceEvaluator(self.params)


@pytest.fixture(scope="module", params=LEVELS, ids=lambda bits: f"q{bits}")
def level(request) -> Level:
    return Level(request.param)


def test_add_matches_host(level):
    a, b = level.cts[:2]
    result, run = level.device.add(a, b)
    assert result == level.host.add(a, b)
    assert run.n_elements == 2 * level.params.poly_degree


def test_sum_many_matches_host(level):
    result, run = level.device.sum_many(level.cts)
    assert result == level.host.add_many(level.cts)
    assert run.n_elements == 3 * 2 * level.params.poly_degree


def test_tensor_matches_elementwise_reference(level):
    a, b = level.cts[:2]
    products, run = level.device.tensor(a, b)
    assert products == elementwise_tensor(a, b)
    assert run.n_elements == level.params.poly_degree
