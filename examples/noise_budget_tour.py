#!/usr/bin/env python3
"""Noise-budget tour: why SHE 'supports multiplication with constraints'.

The paper evaluates *somewhat* homomorphic encryption (Section 2): each
operation consumes invariant-noise budget, and multiplication consumes
orders of magnitude more than addition. This example measures budgets
live across the paper's three security levels and shows the allowed
multiplicative depth growing with the modulus.

Run:  python examples/noise_budget_tour.py   (takes ~30 s: real keygen
and multiplications at n = 4096)
"""

from repro.core.decryptor import Decryptor
from repro.core.encoder import IntegerEncoder
from repro.core.encryptor import Encryptor
from repro.core.evaluator import Evaluator
from repro.core.keys import KeyGenerator
from repro.core.noise import noise_budget
from repro.core.params import BFVParameters
from repro.core.planner import initial_budget_bits, multiply_noise_growth_bits


def tour_level(bits: int, depth: int) -> None:
    params = BFVParameters.security_level(bits)
    print(f"\n=== {bits}-bit level: {params.describe()} ===")
    print(f"predicted fresh budget ~{initial_budget_bits(params):.0f} bits; "
          f"one multiplication costs ~"
          f"{multiply_noise_growth_bits(params):.0f} bits")

    keys = KeyGenerator(params, seed=1).generate()
    encryptor = Encryptor(params, keys.public_key, seed=2)
    decryptor = Decryptor(params, keys.secret_key)
    evaluator = Evaluator(params, relin_key=keys.relin_key)
    encoder = IntegerEncoder(params)

    ct = encryptor.encrypt(encoder.encode(2))
    value = 2
    print(f"fresh encryption of {value}: "
          f"{noise_budget(ct, keys.secret_key):.1f} bits of budget")

    for step in range(depth):
        ct = evaluator.multiply(ct, encryptor.encrypt(encoder.encode(2)))
        value *= 2
        budget = noise_budget(ct, keys.secret_key)
        decrypted = encoder.decode(decryptor.decrypt(ct))
        status = "✓" if decrypted == value else "✗ (budget exhausted!)"
        print(f"after multiply #{step + 1}: budget {budget:6.1f} bits, "
              f"decrypts to {decrypted} (expect {value}) {status}")


def main() -> None:
    print("Additions are nearly free; multiplications are the budget "
          "eaters.\nThe paper's variance and regression workloads use "
          "exactly one multiplicative level —\nwithin reach of the "
          "109-bit parameter set, as shown below.")

    # 27-bit: tiny budget, additions only (the paper's lowest level).
    tour_level(27, depth=0)
    # 54-bit with the default t: depth 0 (matches SEAL's guidance).
    tour_level(54, depth=1)
    # 109-bit: two full multiplicative levels.
    tour_level(109, depth=2)

    print("\nThe 109-bit level (the one Figure 2's workloads use) "
          "sustains the squaring\nthe variance workload needs, with "
          "budget to spare.")


if __name__ == "__main__":
    main()
