"""Encoders: scalar and SIMD round trips, range checks, semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoder import BatchEncoder, IntegerEncoder
from repro.errors import EncodingError


class TestIntegerEncoder:
    def test_roundtrip_positive(self, tiny_params):
        enc = IntegerEncoder(tiny_params)
        assert enc.decode(enc.encode(57)) == 57

    def test_roundtrip_negative(self, tiny_params):
        enc = IntegerEncoder(tiny_params)
        assert enc.decode(enc.encode(-100)) == -100

    def test_zero(self, tiny_params):
        enc = IntegerEncoder(tiny_params)
        assert enc.decode(enc.encode(0)) == 0

    @given(st.integers(min_value=-128, max_value=128))
    @settings(max_examples=30)
    def test_roundtrip_property(self, value):
        from tests.conftest import make_tiny_params

        enc = IntegerEncoder(make_tiny_params())
        assert enc.decode(enc.encode(value)) == value

    def test_rejects_out_of_range(self, tiny_params):
        enc = IntegerEncoder(tiny_params)
        t = tiny_params.plain_modulus
        with pytest.raises(EncodingError):
            enc.encode(t // 2 + 1)
        with pytest.raises(EncodingError):
            enc.encode(-(t // 2) - 1)

    def test_rejects_non_constant_plaintext(self, tiny_params):
        from repro.core.ciphertext import Plaintext

        enc = IntegerEncoder(tiny_params)
        pt = Plaintext.from_coefficients(
            tiny_params, [1, 1] + [0] * (tiny_params.poly_degree - 2)
        )
        with pytest.raises(EncodingError):
            enc.decode(pt)


class TestBatchEncoder:
    def test_roundtrip(self, tiny_params):
        enc = BatchEncoder(tiny_params)
        values = [1, -2, 3, 0, 127, -128]
        decoded = enc.decode(enc.encode(values))
        assert decoded[: len(values)] == values
        assert all(v == 0 for v in decoded[len(values):])

    def test_slot_count_equals_degree(self, tiny_params):
        assert BatchEncoder(tiny_params).slot_count == tiny_params.poly_degree

    def test_full_vector(self, tiny_params):
        n = tiny_params.poly_degree
        t = tiny_params.plain_modulus
        values = [(i * 37) % (t // 2) for i in range(n)]
        enc = BatchEncoder(tiny_params)
        assert enc.decode(enc.encode(values)) == values

    def test_rejects_too_many_values(self, tiny_params):
        enc = BatchEncoder(tiny_params)
        with pytest.raises(EncodingError):
            enc.encode([0] * (tiny_params.poly_degree + 1))

    def test_rejects_out_of_range_slot(self, tiny_params):
        enc = BatchEncoder(tiny_params)
        with pytest.raises(EncodingError):
            enc.encode([tiny_params.plain_modulus])

    def test_rejects_non_batching_params(self):
        from repro.core.params import BFVParameters

        params = BFVParameters.security_level(27)
        with pytest.raises(EncodingError):
            BatchEncoder(params)

    def test_rejects_batching_prime_wider_than_31_bits(self):
        """A 40-bit t == 1 (mod 2n) splits into slots, but the slot NTT
        runs on uint64 words: the encoder refuses it up front."""
        from repro.core.params import BFVParameters
        from repro.poly.modring import find_ntt_prime

        t = find_ntt_prime(40, 64)
        params = BFVParameters(
            poly_degree=64,
            coeff_modulus=find_ntt_prime(109, 64),
            plain_modulus=t,
        )
        assert not params.supports_batching
        with pytest.raises(EncodingError, match="below 2\\^31"):
            BatchEncoder(params)

    def test_plaintext_multiplication_is_slotwise(self, tiny_params):
        """The SIMD property: ring multiplication == slot products."""
        enc = BatchEncoder(tiny_params)
        a = [2, 3, -4, 5]
        b = [7, -1, 2, 10]
        pa, pb = enc.encode(a), enc.encode(b)
        product = pa.poly * pb.poly
        from repro.core.ciphertext import Plaintext

        decoded = enc.decode(Plaintext(tiny_params, product))
        assert decoded[:4] == [x * y for x, y in zip(a, b)]

    def test_plaintext_addition_is_slotwise(self, tiny_params):
        enc = BatchEncoder(tiny_params)
        a = [2, 3, -4, 5]
        b = [7, -1, 2, 10]
        total = enc.encode(a).poly + enc.encode(b).poly
        from repro.core.ciphertext import Plaintext

        decoded = enc.decode(Plaintext(tiny_params, total))
        assert decoded[:4] == [x + y for x, y in zip(a, b)]
