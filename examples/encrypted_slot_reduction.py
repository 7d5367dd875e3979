#!/usr/bin/env python3
"""Slot rotations: summing inside a ciphertext without decrypting.

The paper leaves "more homomorphic operations" as future work
(Section 6); rotation is the first one every BFV deployment needs. With
it, the mean workload can finish *entirely on the server*: after
summing the users' ciphertexts, log2(row) rotate-and-add steps leave
every slot holding the total across slots — no per-slot decryption.

This example demonstrates the full rotate-and-add reduction plus the
row/column structure of the SIMD layout.

Run:  python examples/encrypted_slot_reduction.py
"""

from repro.core.galois import rotate_columns, rotate_rows
from repro.core.keys import KeyGenerator
from repro.core.noise import noise_budget
from repro.core.params import BFVParameters
from repro.poly.modring import find_ntt_prime
from repro.workloads.context import WorkloadContext


def main() -> None:
    params = BFVParameters(
        poly_degree=64,
        coeff_modulus=find_ntt_prime(60, 64),
        plain_modulus=257,
    )
    context = WorkloadContext.from_params(params, seed=99)
    keygen = KeyGenerator(params, seed=99)
    galois_keys = keygen.generate_galois_keys(
        context.keys.secret_key, steps=[1, 2, 3, 4, 8, 16]
    )
    row = params.poly_degree // 2
    print(f"Ring: {params.describe()}")
    print(f"SIMD layout: 2 rows x {row} slots\n")

    # --- rotation basics ------------------------------------------------
    values = list(range(1, 9)) + [0] * (row - 8)  # one row of data
    ct = context.encrypt_slots(values + [0] * row)
    print(f"slots (row 0, first 8): {context.decrypt_slots(ct)[:8]}")

    rotated = rotate_rows(ct, 3, galois_keys)
    print(f"after rotate_rows(3):   {context.decrypt_slots(rotated)[:8]}")

    swapped = rotate_columns(ct, galois_keys)
    print(f"after rotate_columns, row 1 holds the data: "
          f"{context.decrypt_slots(swapped)[row:row + 8]}\n")

    # --- rotate-and-add reduction ----------------------------------------
    print("Rotate-and-add: after log2(row) steps every slot holds the "
          "row total…")
    acc = ct
    shift = row // 2
    while shift >= 1:
        acc = context.evaluator.add(acc, rotate_rows(acc, shift, galois_keys))
        shift //= 2
    decoded = context.decrypt_slots(acc)
    total = sum(values)
    print(f"expected total: {total}; slots now: {decoded[:8]} ...")
    assert all(v == total for v in decoded[:row])
    print("every slot of the row holds the encrypted sum. ✓")
    print(f"noise budget remaining: "
          f"{noise_budget(acc, context.keys.secret_key):.1f} bits")

    print("\nWith rotations, the paper's mean workload needs only ONE "
          "slot decrypted\ninstead of one per sample — the entire "
          "reduction ran on encrypted data.")


if __name__ == "__main__":
    main()
