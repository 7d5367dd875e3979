#!/usr/bin/env python3
"""Encrypted linear regression: the paper's third workload, live.

The server computes the normal-equation terms X^T X and X^T y from
*encrypted* feature and target vectors (paper Section 3: "linear
regression [...] uses both polynomial addition and multiplication to
perform the vector-matrix multiplication"); the client decrypts the
tiny 3x3 system and solves it on the host.

Run:  python examples/encrypted_linear_regression.py
"""

import numpy as np

from repro.core.params import BFVParameters
from repro.poly.modring import find_ntt_prime
from repro.workloads.context import WorkloadContext
from repro.workloads.linreg import LinearRegressionWorkload
from repro.workloads.dataset import RegressionDataset


def main() -> None:
    # t = 65537 == 1 (mod 512) batches at n = 256 and leaves room for
    # the feature-product magnitudes.
    params = BFVParameters(
        poly_degree=256,
        coeff_modulus=find_ntt_prime(60, 256),
        plain_modulus=65537,
    )
    print(f"Demo ring: {params.describe()}")
    context = WorkloadContext.from_params(params, seed=11)

    n_samples = 24
    data = RegressionDataset.generate(n_samples, 3, seed=8, feature_high=12)
    print(f"\n{n_samples} samples, 3 features; hidden model "
          f"y ~ {data.true_coefficients} · x + noise")
    print("Clients encrypt feature columns and targets; the server "
          "never sees them.")

    workload = LinearRegressionWorkload()
    coeffs = workload.run_functional(
        context, n_samples=n_samples, seed=8, feature_high=12
    )
    print(f"\nRecovered coefficients (from encrypted normal equations): "
          f"{[round(c, 3) for c in coeffs]}")
    reference = data.solve_reference()
    assert np.allclose(coeffs, reference)
    print(f"Plaintext least-squares reference:                        "
          f"{[round(c, 3) for c in reference]}")
    print("Exact match — the encrypted pipeline loses no precision. ✓")

    print("\nDevice work this would issue at paper scale "
          "(640 users x 32 ciphertexts):")
    for request in workload.device_requests():
        print(f"  {request.op}: {request.n_elements:,} x "
              f"{request.width_bits}-bit elements")
    print("Run `repro-experiments run fig2c` for the modelled platform "
          "comparison.")


if __name__ == "__main__":
    main()
