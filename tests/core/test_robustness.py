"""Robustness: tampering, wrong keys, statistical sanity.

These tests pin down *failure* behaviour: corrupted ciphertexts must
decrypt to garbage (never silently to the right value with a broken
scheme), and wrong keys must not decrypt.
"""

import numpy as np

from repro.core.ciphertext import Ciphertext
from repro.core.decryptor import Decryptor
from repro.core.keys import KeyGenerator
from repro.core.noise import noise_budget
from repro.poly.polynomial import Polynomial


class TestTampering:
    def test_corrupted_coefficient_breaks_decryption(self, tiny_ctx):
        """Flipping one ciphertext coefficient destroys the plaintext —
        RLWE ciphertexts have no malleability structure beyond the
        homomorphisms."""
        ct = tiny_ctx.encrypt_slots([42] * 8)
        q = tiny_ctx.params.coeff_modulus
        coeffs = list(ct.polys[0].coeffs)
        coeffs[0] = (coeffs[0] + q // 2) % q
        tampered = Ciphertext(
            tiny_ctx.params,
            (Polynomial(coeffs, q), ct.polys[1]),
        )
        decoded = tiny_ctx.decrypt_slots(tampered, 8)
        assert decoded != [42] * 8

    def test_budget_cannot_authenticate(self, tiny_ctx):
        """The invariant-noise budget measures distance to the
        *nearest* plaintext — a tamper that lands near a different
        plaintext keeps a positive budget while decrypting wrongly.
        Noise budgets are correctness predictors, not MACs; this test
        pins that (documented) limitation down."""
        ct = tiny_ctx.encrypt_slots([1])
        q = tiny_ctx.params.coeff_modulus
        t = tiny_ctx.params.plain_modulus
        coeffs = list(ct.polys[0].coeffs)
        # Shift by exactly one plaintext step: lands on another integer.
        coeffs[0] = (coeffs[0] + q // t) % q
        tampered = Ciphertext(
            tiny_ctx.params, (Polynomial(coeffs, q), ct.polys[1])
        )
        assert noise_budget(tampered, tiny_ctx.keys.secret_key) > 0
        assert tiny_ctx.decrypt_slots(tampered) != tiny_ctx.decrypt_slots(ct)

    def test_wrong_secret_key_decrypts_garbage(self, tiny_ctx, tiny_params):
        other = KeyGenerator(tiny_params, seed=999).generate()
        ct = tiny_ctx.encrypt_slots([7, 8, 9])
        wrong = Decryptor(tiny_params, other.secret_key)
        decoded = tiny_ctx.batch_encoder.decode(wrong.decrypt(ct))
        assert decoded[:3] != [7, 8, 9]

    def test_swapped_components_break_decryption(self, tiny_ctx):
        ct = tiny_ctx.encrypt_slots([5])
        swapped = Ciphertext(tiny_ctx.params, (ct.polys[1], ct.polys[0]))
        assert tiny_ctx.decrypt_slots(swapped, 1) != [5]


class TestStatisticalSanity:
    def test_ciphertext_coefficients_look_uniform(self, tiny_ctx):
        """Fresh ciphertext components should be indistinguishable from
        uniform mod q at the crude-statistics level."""
        ct = tiny_ctx.encrypt_slots([0] * 8)
        q = tiny_ctx.params.coeff_modulus
        coeffs = np.array(
            [c / q for c in ct.polys[0].coeffs], dtype=float
        )
        assert 0.35 < coeffs.mean() < 0.65
        assert coeffs.std() > 0.2  # not concentrated

    def test_same_plaintext_many_encryptions_all_distinct(self, tiny_ctx):
        cts = [tiny_ctx.encrypt_slots([1]) for _ in range(6)]
        assert len({ct.polys[0].coeffs for ct in cts}) == 6
