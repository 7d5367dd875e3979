"""Galois automorphisms, rotation keys, and SIMD rotations."""

import pytest

from repro.core.ciphertext import Plaintext
from repro.core.galois import (
    apply_automorphism,
    apply_galois,
    galois_element_for_step,
    rotate_columns,
    rotate_rows,
    rotation_elements,
)
from repro.core.keys import KeyGenerator
from repro.errors import CiphertextError, KeyError_, ParameterError
from repro.poly.polynomial import Polynomial


@pytest.fixture(scope="module")
def galois_setup():
    from tests.conftest import make_tiny_params
    from repro.workloads.context import WorkloadContext

    params = make_tiny_params()
    ctx = WorkloadContext.from_params(params, seed=21)
    keygen = KeyGenerator(params, seed=22)
    keys = keygen.generate_galois_keys(ctx.keys.secret_key, steps=[1, 2, 4])
    return ctx, keys


class TestAutomorphism:
    def test_simple_shift(self):
        p = Polynomial([1, 2, 0, 0], 97)  # 1 + 2x
        assert apply_automorphism(p, 3).coeffs == (1, 0, 0, 2)

    def test_no_sign_wrap_after_full_period(self):
        # x^3 under g=3 -> x^9; 9 mod 8 = 1 and x^8 = (x^4)^2 = +1,
        # so the result is +x (two negacyclic wraps cancel).
        p = Polynomial([0, 0, 0, 1], 97)  # x^3, n = 4
        assert apply_automorphism(p, 3).coeffs == (0, 1, 0, 0)

    def test_sign_wrap(self):
        # x^2 under g=3 -> x^6; 6 >= 4, so x^6 = -x^2.
        p = Polynomial([0, 0, 1, 0], 97)  # x^2, n = 4
        assert apply_automorphism(p, 3).coeffs == (0, 0, 96, 0)

    def test_identity_element(self):
        p = Polynomial(list(range(8)), 97)
        assert apply_automorphism(p, 1) == p

    def test_is_ring_homomorphism(self):
        q = 1009
        a = Polynomial([3, 1, 4, 1, 5, 9, 2, 6], q)
        b = Polynomial([2, 7, 1, 8, 2, 8, 1, 8], q)
        g = 3
        assert apply_automorphism(a + b, g) == (
            apply_automorphism(a, g) + apply_automorphism(b, g)
        )
        assert apply_automorphism(a * b, g) == apply_automorphism(
            a, g
        ) * apply_automorphism(b, g)

    def test_inverse_composes_to_identity(self):
        q = 1009
        n = 8
        p = Polynomial(list(range(1, 9)), q)
        g = 3
        g_inv = pow(g, -1, 2 * n)
        assert apply_automorphism(apply_automorphism(p, g), g_inv) == p

    def test_rejects_even_element(self):
        p = Polynomial([1, 0], 97)
        with pytest.raises(ParameterError):
            apply_automorphism(p, 2)

    def test_rejects_out_of_range(self):
        p = Polynomial([1, 0, 0, 0], 97)
        with pytest.raises(ParameterError):
            apply_automorphism(p, 9)  # >= 2n


class TestGaloisKeys:
    def test_elements_present(self, galois_setup):
        ctx, keys = galois_setup
        two_n = 2 * ctx.params.poly_degree
        assert two_n - 1 in keys.elements()  # column swap always included
        assert galois_element_for_step(ctx.params, 1) in keys.elements()

    def test_missing_element_rejected(self, galois_setup):
        ctx, keys = galois_setup
        with pytest.raises(KeyError_):
            keys.pairs_for(5)

    def test_rotation_elements_dedupe(self, tiny_params):
        elements = rotation_elements(tiny_params, [1, 1, 1])
        assert len(elements) == len(set(elements))

    def test_default_keygen_covers_powers_of_two(self, tiny_ctx):
        keygen = KeyGenerator(tiny_ctx.params, seed=5)
        keys = keygen.generate_galois_keys(tiny_ctx.keys.secret_key)
        row = tiny_ctx.params.poly_degree // 2
        step = 1
        while step <= row // 2:
            assert galois_element_for_step(tiny_ctx.params, step) in keys.elements()
            step *= 2


class TestApplyGalois:
    def test_matches_plaintext_automorphism(self, galois_setup):
        """Ciphertext-side automorphism == plaintext-side automorphism.

        This is the strong correctness property: for any valid g,
        decrypting phi_g(ct) must equal phi_g applied to the decoded
        plaintext polynomial.
        """
        ctx, keys = galois_setup
        params = ctx.params
        values = list(range(-20, 20))
        pt = ctx.batch_encoder.encode(values)
        ct = ctx.encryptor.encrypt(pt)
        for g in keys.elements():
            rotated_ct = apply_galois(ct, g, keys)
            decrypted = ctx.decryptor.decrypt(rotated_ct)
            expected = Plaintext(
                params,
                apply_automorphism(
                    Polynomial(pt.poly.coeffs, params.plain_modulus), g
                ),
            )
            assert decrypted == expected, g

    def test_rejects_size_three(self, galois_setup):
        ctx, keys = galois_setup
        sq = ctx.evaluator.square(ctx.encrypt_slots([2]), relinearize=False)
        with pytest.raises(CiphertextError):
            apply_galois(sq, keys.elements()[0], keys)

    def test_rejects_foreign_keys(self, galois_setup, tiny128_ctx):
        ctx, keys = galois_setup
        ct = tiny128_ctx.encrypt_slots([1])
        with pytest.raises(KeyError_):
            apply_galois(ct, keys.elements()[0], keys)


class TestRotations:
    def test_rotate_rows_by_one(self, galois_setup):
        ctx, keys = galois_setup
        row = ctx.params.poly_degree // 2
        values = list(range(row)) + [60 + i for i in range(row)]
        ct = ctx.encrypt_slots(values)
        rotated = rotate_rows(ct, 1, keys)
        decoded = ctx.decrypt_slots(rotated)
        expected = (
            values[1:row] + [values[0]]
            + values[row + 1:] + [values[row]]
        )
        assert decoded == expected

    def test_rotate_rows_composes(self, galois_setup):
        ctx, keys = galois_setup
        values = list(range(-10, 10))
        ct = ctx.encrypt_slots(values)
        once_twice = rotate_rows(rotate_rows(ct, 1, keys), 2, keys)
        direct = rotate_rows(ct, 1, keys)
        direct = rotate_rows(direct, 2, keys)
        assert ctx.decrypt_slots(once_twice) == ctx.decrypt_slots(direct)

    def test_rotate_by_zero_is_identity(self, galois_setup):
        ctx, keys = galois_setup
        ct = ctx.encrypt_slots([1, 2, 3])
        assert rotate_rows(ct, 0, keys) is ct

    def test_full_cycle_restores(self, galois_setup):
        """Rotating by the row size (in power-of-two steps) restores
        the original slots."""
        ctx, keys = galois_setup
        row = ctx.params.poly_degree // 2
        values = list(range(row)) * 2
        ct = ctx.encrypt_slots(values)
        rotated = ct
        steps_taken = 0
        for step in (4, 4, 4, 4, 4, 4, 4, 4):  # 8 x 4 = 32 = row size
            rotated = rotate_rows(rotated, step, keys)
            steps_taken += step
        assert steps_taken == row
        assert ctx.decrypt_slots(rotated) == values

    def test_rotate_columns_swaps_rows(self, galois_setup):
        ctx, keys = galois_setup
        row = ctx.params.poly_degree // 2
        values = list(range(row)) + [60 + i for i in range(row)]
        ct = ctx.encrypt_slots(values)
        swapped = rotate_columns(ct, keys)
        decoded = ctx.decrypt_slots(swapped)
        assert decoded == values[row:] + values[:row]

    def test_rotate_columns_involution(self, galois_setup):
        ctx, keys = galois_setup
        values = [3, 1, 4, 1, 5]
        ct = ctx.encrypt_slots(values)
        twice = rotate_columns(rotate_columns(ct, keys), keys)
        assert ctx.decrypt_slots(twice, 5) == values

    def test_rotation_lands_at_keyswitch_floor(self, galois_setup):
        """A rotation's budget cost is the key-switch noise floor —
        the same term relinearization pays — and decryption still
        works above it."""
        from repro.core.noise import noise_budget
        from repro.core.planner import keyswitch_floor_bits

        ctx, keys = galois_setup
        ct = ctx.encrypt_slots([1, 2, 3])
        after = noise_budget(rotate_rows(ct, 1, keys), ctx.keys.secret_key)
        floor = keyswitch_floor_bits(ctx.params)
        # Measured budget sits at or above the analytic floor (the
        # floor is a worst-case bound) and stays positive.
        assert after > 0
        assert after >= floor - 1


class TestSlotSumViaRotations:
    def test_sum_across_slots(self, galois_setup):
        """The classic rotate-and-add reduction: log2(row) rotations
        leave every slot of a row holding the row's sum — the operation
        the mean workload would use to avoid decrypt-side summation."""
        ctx, keys = galois_setup
        ev = ctx.evaluator
        row = ctx.params.poly_degree // 2
        values = [1] * 8 + [0] * (row - 8)  # one row, sum = 8
        ct = ctx.encrypt_slots(values + [0] * row)
        acc = ct
        # Compose power-of-two rotations: 16 = 4+4+4+4, 8 = 4+4, etc.
        def rotate_by(ct_in, k):
            out = ct_in
            remaining = k
            for s in (4, 2, 1):
                while remaining >= s:
                    out = rotate_rows(out, s, keys)
                    remaining -= s
            return out

        shift = row // 2
        while shift >= 1:
            acc = ev.add(acc, rotate_by(acc, shift))
            shift //= 2
        decoded = ctx.decrypt_slots(acc)
        assert decoded[0] == 8  # every slot of row 0 holds the sum
        assert all(v == 8 for v in decoded[:row])
