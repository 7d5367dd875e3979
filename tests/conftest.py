"""Shared fixtures: fast parameter sets and cached crypto contexts.

Most of the functional test suite runs on *tiny rings* — same algebra,
same code paths, degrees 64 and 128 — so hypothesis can draw many
examples cheaply. Degree 64 exercises the schoolbook convolution path,
degree 128 the CRT-NTT path. The paper's security levels (n = 1024-4096)
are covered by ``tests/workloads/test_paper_rings.py`` and a handful of
other integration tests, which the vectorized CRT-NTT convolution keeps
affordable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import BFVParameters
from repro.poly.modring import find_ntt_prime
from repro.workloads.context import WorkloadContext

#: Hypothesis profile: keep example counts moderate — the arithmetic
#: under test is exact, so failures reproduce immediately.
from hypothesis import settings

settings.register_profile("repro", max_examples=50, deadline=None)
settings.load_profile("repro")


def make_tiny_params(degree: int = 64, q_bits: int = 60) -> BFVParameters:
    """A fast, mult-capable parameter set on a tiny ring.

    ``t = 257`` is prime with ``257 == 1 (mod 2 * degree)`` for degrees
    up to 128, so batching works; a 60-bit modulus leaves ~40 bits of
    noise budget — enough for depth-2 multiplication in tests.
    """
    return BFVParameters(
        poly_degree=degree,
        coeff_modulus=find_ntt_prime(q_bits, degree),
        plain_modulus=257,
    )


@pytest.fixture(scope="session")
def tiny_params() -> BFVParameters:
    """Degree-64 parameters (schoolbook convolution path)."""
    return make_tiny_params(64)


@pytest.fixture(scope="session")
def tiny128_params() -> BFVParameters:
    """Degree-128 parameters (CRT-NTT convolution path)."""
    return make_tiny_params(128)


@pytest.fixture(scope="session")
def tiny_ctx(tiny_params) -> WorkloadContext:
    """Full crypto context on the degree-64 ring (session-cached)."""
    return WorkloadContext.from_params(tiny_params, seed=7)


@pytest.fixture(scope="session")
def tiny128_ctx(tiny128_params) -> WorkloadContext:
    """Full crypto context on the degree-128 ring (session-cached)."""
    return WorkloadContext.from_params(tiny128_params, seed=9)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(0xC0FFEE)


#: Tiny stand-ins for the paper security levels: the same modulus
#: widths (so budget arithmetic stays representative) on small rings.
#: t = 65537 == 1 (mod 2n) still batches at n = 64/128.
TINY_LEVELS = {27: (64, 257), 54: (64, 65537), 109: (128, 65537)}


@pytest.fixture()
def tiny_security_levels(monkeypatch):
    """Patch the paper levels onto tiny rings for fast end-to-end runs.

    Both ``BFVParameters.security_level`` and the workload-context
    factory cache on the level table, so the caches are cleared going
    in and out.
    """
    from repro.core import params as params_mod
    from repro.workloads import context as context_mod

    params_mod._level_params.cache_clear()
    context_mod._cached_context.cache_clear()
    monkeypatch.setattr(params_mod, "_LEVELS", TINY_LEVELS)
    yield TINY_LEVELS
    params_mod._level_params.cache_clear()
    context_mod._cached_context.cache_clear()
