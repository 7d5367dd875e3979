"""Every sum of one operation in one CRT pass, against one pass per sum.

:func:`repro.poly.polynomial.exact_sums` sizes one bundle for all of an
operation's sums, forward-transforms every operand in one call, brings
every sum back in one inverse call and leaves through one exit over all
their lanes. Digits and exits work lane by lane, so each sum must come
out exactly as it does alone (:func:`tests.poly.reference_crt.per_sum`,
the per-sum path it replaced), for mixed bounds, with and without
addends, and for the plain ``(1, 1, q)`` and the tensor's ``(t, q, q)``
exits, at the paper's three rings. The batched transforms are checked
against one polynomial per call, and each BFV operation against its
count of transform and exit calls.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ciphertext import Plaintext
from repro.core.encryptor import Encryptor
from repro.core.evaluator import Evaluator
from repro.core.keys import KeyGenerator
from repro.core.params import BFVParameters
from repro.errors import ParameterError
from repro.poly import crt, ntt
from repro.poly.crt import crt_twiddles
from repro.poly.polynomial import Operand, Polynomial, exact_sums
from repro.poly.sampling import sample_centered_binomial, sample_uniform
from tests.poly.reference_crt import per_sum

LEVELS = {27: 1024, 54: 2048, 109: 4096}


def _operands(params, seed: int) -> dict:
    """Operands of every bound an operation mixes: full-size residues,
    ternary, small errors, relinearization-size digits, and a scaled
    plaintext plus error."""
    n, q, t = params.poly_degree, params.coeff_modulus, params.plain_modulus
    rng = np.random.default_rng(seed)
    wide = [Polynomial.from_planes(sample_uniform(n, q, rng), q) for _ in range(3)]
    plain = Polynomial(rng.integers(0, t, n), t)
    return {
        "wide": [Operand(p) for p in wide],
        "ternary": Operand(rng.integers(-1, 2, n)),
        "error": Operand(sample_centered_binomial(n, rng)),
        "digit": Operand(rng.integers(0, 1 << params.relin_base_bits, n)),
        "scaled": Operand.scaled_sum(
            plain, params.delta, sample_centered_binomial(n, rng)
        ),
    }


def _operation(ops) -> tuple:
    """Four sums of mixed bounds and their addends."""
    w0, w1, w2 = ops["wide"]
    sums = [
        [(w0, ops["ternary"])],
        [(w0, w1), (w1, w2), (w2, w0)],
        [(w2, ops["digit"]), (w1, ops["digit"])],
        [(ops["ternary"], ops["error"])],
    ]
    addends = [ops["scaled"], None, ops["error"], ops["wide"][1]]
    return sums, addends


@pytest.fixture(scope="module", params=sorted(LEVELS), ids=lambda b: f"q{b}")
def params(request):
    return BFVParameters.security_level(request.param)


class TestSumsOfProducts:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("scaled", [False, True], ids=["plain", "t_over_q"])
    def test_equals_one_pass_per_sum(self, params, seed, scaled):
        n, q, t = params.poly_degree, params.coeff_modulus, params.plain_modulus
        num, den = (t, q) if scaled else (1, 1)
        sums, addends = _operation(_operands(params, seed))
        got = Polynomial.sums_of_products(sums, q, addends, scale=(num, den))
        expected = [
            Polynomial.from_planes(
                per_sum(terms, n, addend).scale_round(num, den, q), q
            )
            for terms, addend in zip(sums, addends)
        ]
        assert got == expected
        alone = [
            Polynomial.sum_of_products(terms, q, addend, scale=(num, den))
            for terms, addend in zip(sums, addends)
        ]
        assert got == alone

    def test_exact_lanes_are_each_sums_integers(self, params):
        """The shared bundle holds every sum's exact signed integers, in
        sum order, though it is sized for the largest."""
        n = params.poly_degree
        sums, addends = _operation(_operands(params, 7))
        exact = exact_sums(sums, n, addends)
        expected = []
        for terms, addend in zip(sums, addends):
            expected += per_sum(terms, n, addend).signed()
        assert exact.signed() == expected

    def test_one_sum_is_sum_of_products(self, params):
        q = params.coeff_modulus
        ops = _operands(params, 3)
        terms = [(ops["wide"][0], ops["ternary"])]
        (got,) = Polynomial.sums_of_products([terms], q, [ops["error"]])
        assert got == Polynomial.sum_of_products(terms, q, addend=ops["error"])

    def test_rejects_empty_sums_and_mismatched_addends(self, params):
        q, n = params.coeff_modulus, params.poly_degree
        term = [(Operand(np.ones(n, np.int64)), Operand(np.ones(n, np.int64)))]
        with pytest.raises(ParameterError):
            Polynomial.sums_of_products([], q)
        with pytest.raises(ParameterError):
            Polynomial.sums_of_products([term, []], q)
        with pytest.raises(ParameterError):
            exact_sums([term, term], n, [None])


class TestBatchedTransforms:
    @pytest.mark.parametrize("n, k", [(2, 1), (64, 3), (1024, 2), (4096, 8)])
    @pytest.mark.parametrize("batch", [(1,), (3,), (2, 3)])
    def test_batch_equals_one_polynomial_per_call(self, n, k, batch):
        """Leading axes transform each polynomial as a call of its own
        would, also where the batch runs in several slices."""
        twiddles = crt_twiddles(n, 0, k)
        primes = np.array(twiddles.primes, dtype=np.uint64)[:, None]
        rng = np.random.default_rng(n + k)
        rows = rng.integers(0, 1 << 31, (*batch, k, n)).astype(np.uint64) % primes
        forward = ntt.forward(rows, twiddles)
        inverse = ntt.inverse(rows, twiddles)
        assert forward.shape == inverse.shape == rows.shape
        for index in np.ndindex(*batch):
            assert np.array_equal(forward[index], ntt.forward(rows[index], twiddles))
            assert np.array_equal(inverse[index], ntt.inverse(rows[index], twiddles))

    @pytest.mark.parametrize("n, k, b", [(2, 2, 3), (2048, 3, 4), (4096, 8, 3)])
    def test_forward_in_place(self, n, k, b):
        """``out=rows`` transforms the batch in its own memory (odd and
        even stage counts, one slice and several)."""
        twiddles = crt_twiddles(n, 0, k)
        primes = np.array(twiddles.primes, dtype=np.uint64)[:, None]
        rng = np.random.default_rng(b)
        rows = rng.integers(0, 1 << 31, (b, k, n)).astype(np.uint64) % primes
        expected = ntt.forward(rows, twiddles)
        assert ntt.forward(rows, twiddles, out=rows) is rows
        assert np.array_equal(rows, expected)


class TestCallsPerOperation:
    """Each BFV operation makes one forward call, one inverse call and
    one exit, however many sums it has."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"forward": 0, "inverse": 0, "exit": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(ntt, "forward", counting("forward", ntt.forward))
        monkeypatch.setattr(ntt, "inverse", counting("inverse", ntt.inverse))
        monkeypatch.setattr(
            crt.MixedRadix,
            "scale_round",
            counting("exit", crt.MixedRadix.scale_round),
        )
        return calls

    def test_encrypt_multiply_relinearize(self, params, counted):
        keys = KeyGenerator(params, seed=5).generate()
        encryptor = Encryptor(params, keys.public_key, seed=5)
        evaluator = Evaluator(params, relin_key=keys.relin_key)
        plain = Plaintext.from_coefficients(params, [1] * params.poly_degree)
        a, b = encryptor.encrypt(plain), encryptor.encrypt(plain)
        product = evaluator.multiply(a, b, relinearize=False)
        evaluator.relinearize(product)  # fills the relinearization key's rows
        for operation in (
            lambda: encryptor.encrypt(plain),
            lambda: evaluator.multiply(a, b, relinearize=False),
            lambda: evaluator.relinearize(product),
        ):
            for name in counted:
                counted[name] = 0
            operation()
            assert counted == {"forward": 1, "inverse": 1, "exit": 1}
