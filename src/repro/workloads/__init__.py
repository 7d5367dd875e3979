"""The paper's workloads: microbenchmarks and statistical applications.

Section 3/4 of the paper evaluates:

* ciphertext **vector addition** and **vector multiplication**
  microbenchmarks (Figure 1), and
* three SHE statistical workloads — **arithmetic mean**, **variance**,
  and **linear regression** — built from homomorphic addition and
  multiplication (Figure 2).

Each workload here is one object with two faces:

* ``device_requests()`` — the element-wise operation descriptors the
  workload issues to a backend, at any scale (used by the benchmark
  harness at the paper's sizes);
* ``run_functional(...)`` — a real end-to-end execution on the BFV
  core at a configurable scale: encrypt, evaluate homomorphically,
  decrypt, and verify against the plaintext reference computation.

The two faces are generated from the same workload parameters, so the
timed op counts are the op counts of the verified computation.

The table of the paper's cells is :mod:`repro.workloads.registry`.
"""
