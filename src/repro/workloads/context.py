"""Shared cryptographic context for functional workload runs.

Building a 109-bit BFV context (prime search, key generation,
relinearization keys) takes seconds, so functional workload runs share
one cached context per (security level, seed). The context bundles
everything a client+server round trip needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.core.decryptor import Decryptor
from repro.core.encoder import BatchEncoder, IntegerEncoder
from repro.core.encryptor import Encryptor
from repro.core.evaluator import Evaluator
from repro.core.keys import KeyGenerator, KeySet
from repro.core.params import BFVParameters
from repro.errors import ParameterError


@dataclass(frozen=True)
class WorkloadContext:
    """Everything needed to run a workload end to end."""

    params: BFVParameters
    keys: KeySet
    encryptor: Encryptor
    decryptor: Decryptor
    evaluator: Evaluator

    @cached_property
    def batch_encoder(self) -> BatchEncoder:
        """The context's one batch encoder, built on first use."""
        return BatchEncoder(self.params)

    @property
    def integer_encoder(self) -> IntegerEncoder:
        return IntegerEncoder(self.params)

    @classmethod
    def create(
        cls,
        security_bits: int = 109,
        seed: int = 0,
        **param_overrides,
    ) -> "WorkloadContext":
        """Build (or fetch a cached) context for a security level."""
        return _cached_context(
            security_bits, seed, tuple(sorted(param_overrides.items()))
        )

    @classmethod
    def from_params(
        cls, params: BFVParameters, seed: int = 0
    ) -> "WorkloadContext":
        """Build a context for an arbitrary parameter set.

        Used by tests and examples that want small, fast rings rather
        than the paper's full-size security levels.
        """
        keys = KeyGenerator(params, seed=seed).generate()
        return cls(
            params=params,
            keys=keys,
            encryptor=Encryptor(params, keys.public_key, seed=seed + 1),
            decryptor=Decryptor(params, keys.secret_key),
            evaluator=Evaluator(params, relin_key=keys.relin_key),
        )

    def encrypt_slots(self, values):
        """Encrypt a list of slot values (requires batching support)."""
        if not self.params.supports_batching:
            raise ParameterError(
                f"security level {self.params.security_bits} does not "
                f"support batching; use integer encoding"
            )
        return self.encryptor.encrypt(self.batch_encoder.encode(values))

    def decrypt_slots(self, ciphertext, count: int | None = None):
        """Decrypt and decode slot values (optionally the first ``count``)."""
        slots = self.batch_encoder.decode(self.decryptor.decrypt(ciphertext))
        return slots if count is None else slots[:count]


@lru_cache(maxsize=8)
def _cached_context(
    security_bits: int, seed: int, overrides: tuple
) -> WorkloadContext:
    params = BFVParameters.security_level(security_bits, **dict(overrides))
    keys = KeyGenerator(params, seed=seed).generate()
    return WorkloadContext(
        params=params,
        keys=keys,
        encryptor=Encryptor(params, keys.public_key, seed=seed + 1),
        decryptor=Decryptor(params, keys.secret_key),
        evaluator=Evaluator(params, relin_key=keys.relin_key),
    )
