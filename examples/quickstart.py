#!/usr/bin/env python3
"""Quickstart: encrypt, compute homomorphically, decrypt.

Walks the full BFV round trip at the paper's 54-bit security level
(n = 2048, 64-bit coefficient containers): key generation, SIMD batch
encoding, encryption, homomorphic addition, and decryption — the
operations the paper offloads to the PIM system.

Run:  python examples/quickstart.py
"""

from repro.core.decryptor import Decryptor
from repro.core.encoder import BatchEncoder
from repro.core.encryptor import Encryptor
from repro.core.evaluator import Evaluator
from repro.core.keys import KeyGenerator
from repro.core.noise import noise_budget
from repro.core.params import BFVParameters


def main() -> None:
    # 1. Pick a parameter set. The paper evaluates 27-, 54-, and
    #    109-bit levels; 54-bit gives SIMD batching and fast keygen.
    params = BFVParameters.security_level(54)
    print(f"Parameters: {params.describe()}")

    # 2. The *client* generates keys (the server never sees the secret).
    keys = KeyGenerator(params, seed=2024).generate()

    encoder = BatchEncoder(params)
    encryptor = Encryptor(params, keys.public_key, seed=7)
    decryptor = Decryptor(params, keys.secret_key)
    evaluator = Evaluator(params, relin_key=keys.relin_key)

    # 3. Encode vectors into SIMD slots and encrypt.
    alice = [120, -45, 7, 2200]
    bob = [80, 45, -3, -200]
    ct_alice = encryptor.encrypt(encoder.encode(alice))
    ct_bob = encryptor.encrypt(encoder.encode(bob))
    print(f"Encrypted two vectors of {len(alice)} values "
          f"({ct_alice.device_bytes // 1024} KiB per ciphertext on device)")
    print(f"Fresh noise budget: "
          f"{noise_budget(ct_alice, keys.secret_key):.1f} bits")

    # 4. The *server* computes on ciphertexts without decrypting.
    ct_sum = evaluator.add(ct_alice, ct_bob)
    ct_diff = evaluator.sub(ct_alice, ct_bob)

    # 5. The client decrypts the results.
    total = encoder.decode(decryptor.decrypt(ct_sum))[: len(alice)]
    diff = encoder.decode(decryptor.decrypt(ct_diff))[: len(alice)]
    print(f"alice + bob = {total}")
    print(f"alice - bob = {diff}")

    assert total == [a + b for a, b in zip(alice, bob)]
    assert diff == [a - b for a, b in zip(alice, bob)]
    print("Homomorphic results match plaintext arithmetic. ✓")
    print(f"Budget after addition: "
          f"{noise_budget(ct_sum, keys.secret_key):.1f} bits "
          f"(addition is nearly free; multiplication costs tens of bits "
          f"— see examples/noise_budget_tour.py)")


if __name__ == "__main__":
    main()
