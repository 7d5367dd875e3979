"""Experiment harness: one entry per paper table/figure, plus ablations.

The harness ties workloads and backends into the experiments of the
paper's evaluation (Section 4):

* ``fig1a`` / ``fig1b`` — ciphertext vector addition / multiplication
  microbenchmarks across batch sizes and widths;
* ``fig2a`` / ``fig2b`` / ``fig2c`` — arithmetic mean, variance, and
  linear regression across user counts;
* ``tab_security`` — the security-level sweep of Section 3/4.1;
* ``obs_tasklets`` — the tasklet-saturation observation;
* ablations (``abl_karatsuba``, ``abl_ntt``, ``abl_native_mul``,
  ``abl_residency``) quantifying the design choices the paper calls
  out.

Each experiment produces rows of modelled per-backend times; the
reporter renders them as the tables/series the paper plots, annotated
with the paper's reported bands (:mod:`repro.harness.paper`).
"""
