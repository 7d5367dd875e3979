"""Execution backends: PIM, custom CPU, CPU-SEAL, and GPU cost models.

The paper compares four platforms (Section 4.1): the UPMEM PIM system,
a custom CPU implementation on a 4-core Intel i5-8250U, the Microsoft
SEAL library on the same CPU, and a custom implementation on an NVIDIA
A100 GPU. This package provides one :class:`~repro.backends.base.Backend`
per platform, each pricing the same element-wise operation requests
(:class:`~repro.backends.base.OpRequest`) under its platform's
mechanisms.

Functional results are computed once by the verified BFV core
(:mod:`repro.core`); backends answer the question *"how long would this
platform take"*, so that every platform is timed on identical work.
"""
