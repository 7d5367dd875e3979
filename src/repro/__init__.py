"""repro — reproduction of *Evaluating Homomorphic Operations on a
Real-World Processing-In-Memory System* (Gupta, Kabra, Gómez-Luna,
Kanellopoulos, Mutlu — IISWC 2023).

The library has four layers (see DESIGN.md for the full inventory):

* :mod:`repro.core` — a working BFV somewhat-homomorphic encryption
  scheme (key generation, encryption, homomorphic add/multiply with
  relinearization, decryption, noise budgets) over the paper's three
  security levels, built on :mod:`repro.poly` (polynomial rings, NTT,
  RNS) and :mod:`repro.mpint` (32-bit-limb arithmetic);
* :mod:`repro.pim` — a mechanistic model of the UPMEM PIM system the
  paper evaluates, with functional device kernels whose cycle counts
  are derived from execution;
* :mod:`repro.backends` — uniform cost models for the paper's four
  platforms (PIM, custom CPU, CPU-SEAL, GPU);
* :mod:`repro.workloads` / :mod:`repro.harness` — the paper's
  microbenchmarks and statistical workloads, and one registered
  experiment per figure/table.

Quick start::

    from repro.core.decryptor import Decryptor
    from repro.core.encoder import BatchEncoder
    from repro.core.encryptor import Encryptor
    from repro.core.evaluator import Evaluator
    from repro.core.keys import KeyGenerator
    from repro.core.params import BFVParameters

    params = BFVParameters.security_level(109)
    keys = KeyGenerator(params, seed=1).generate()
    encoder = BatchEncoder(params)
    ct = Encryptor(params, keys.public_key).encrypt(encoder.encode([1, 2]))
    ct2 = Evaluator(params, keys.relin_key).add(ct, ct)
    print(encoder.decode(Decryptor(params, keys.secret_key).decrypt(ct2))[:2])
"""

__version__ = "1.0.0"
