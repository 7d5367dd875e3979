"""The base-2 binary encoder under homomorphic evaluation."""

import pytest


class TestBinaryEncoder:
    def test_roundtrip_beyond_plain_modulus(self, tiny_ctx):
        """The base-2 encoder represents values far beyond t = 257."""
        from repro.core import BinaryEncoder

        be = BinaryEncoder(tiny_ctx.params)
        for value in (0, 1, -1, 255, 256, 100_000, -99_999, 2**40):
            assert be.decode(be.encode(value)) == value

    def test_homomorphic_add_beyond_t(self, tiny_ctx):
        from repro.core import BinaryEncoder

        be = BinaryEncoder(tiny_ctx.params)
        ev = tiny_ctx.evaluator
        ca = tiny_ctx.encryptor.encrypt(be.encode(70_000))
        cb = tiny_ctx.encryptor.encrypt(be.encode(-12_345))
        total = ev.add(ca, cb)
        assert be.decode(tiny_ctx.decryptor.decrypt(total)) == 57_655

    def test_homomorphic_multiply(self, tiny_ctx):
        from repro.core import BinaryEncoder

        be = BinaryEncoder(tiny_ctx.params)
        ev = tiny_ctx.evaluator
        product = ev.multiply(
            tiny_ctx.encryptor.encrypt(be.encode(300)),
            tiny_ctx.encryptor.encrypt(be.encode(-21)),
        )
        assert be.decode(tiny_ctx.decryptor.decrypt(product)) == -6300

    def test_rejects_too_many_digits(self, tiny_ctx):
        from repro.core import BinaryEncoder
        from repro.errors import EncodingError

        be = BinaryEncoder(tiny_ctx.params)
        with pytest.raises(EncodingError):
            be.encode(1 << tiny_ctx.params.poly_degree)

    def test_digit_coefficients_are_signed_bits(self, tiny_ctx):
        from repro.core import BinaryEncoder

        be = BinaryEncoder(tiny_ctx.params)
        pt = be.encode(-13)  # -(x^3 + x^2 + 1)
        centered = pt.poly.centered()
        assert centered[:4] == [-1, 0, -1, -1]
        assert all(c == 0 for c in centered[4:])
