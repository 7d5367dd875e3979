#!/usr/bin/env python3
"""Private statistics: the paper's mean and variance workloads, live.

Scenario (paper Section 3): users encrypt their data and upload it; the
server computes statistics homomorphically and returns encrypted
results; only the clients can decrypt. This example runs the real
pipeline end to end for the arithmetic-mean and variance workloads and
checks the results against plaintext references.

A small ring (n = 256) keeps the demo snappy — the algebra and code
paths are identical to the paper's 4096-degree level, only smaller.

Run:  python examples/private_statistics.py
"""

from repro.core import BFVParameters
from repro.poly.modring import find_ntt_prime
from repro.workloads.context import WorkloadContext
from repro.workloads.mean import MeanWorkload
from repro.workloads.variance import VarianceWorkload
from repro.workloads.dataset import UserDataset


def main() -> None:
    # A demo-sized ring: the 60-bit modulus leaves noise budget for the
    # variance workload's squarings, and t = 65537 == 1 (mod 512) both
    # enables SIMD batching at n = 256 and is large enough to hold the
    # sums of squares (12 users x 29^2 < t/2).
    params = BFVParameters(
        poly_degree=256,
        coeff_modulus=find_ntt_prime(60, 256),
        plain_modulus=65537,
    )
    print(f"Demo ring: {params.describe()}")
    context = WorkloadContext.from_params(params, seed=42)

    n_users, samples = 12, 6
    data = UserDataset.generate(n_users, samples, seed=3, high=30)
    print(f"\n{n_users} users, {samples} private samples each "
          f"(values 0-29, e.g. user 0 holds {list(data.values[0])})")

    # --- Arithmetic mean: homomorphic addition only ------------------
    print("\n[mean] server sums every user's ciphertext homomorphically…")
    means = MeanWorkload().run_functional(
        context, n_users=n_users, samples_per_user=samples, seed=3, high=30
    )
    print(f"[mean] decrypted per-sample means: "
          f"{[round(m, 2) for m in means]}")
    assert means == data.column_means()

    # --- Variance: homomorphic squaring + addition -------------------
    print("[variance] server squares each ciphertext (homomorphic "
          "multiplication) and sums…")
    variances = VarianceWorkload().run_functional(
        context, n_users=n_users, samples_per_user=samples, seed=3, high=30
    )
    print(f"[variance] decrypted per-sample variances: "
          f"{[round(v, 2) for v in variances]}")
    assert variances == data.column_variances()

    print("\nBoth statistics match the plaintext references — computed "
          "entirely on encrypted data. ✓")
    print("The paper's Figure 2 measures exactly these two pipelines on "
          "UPMEM hardware;\nrun `repro-experiments run fig2a fig2b` for "
          "the modelled platform comparison.")


if __name__ == "__main__":
    main()
