"""Per-ciphertext noise ledger: predicted budget as an observable.

The paper evaluates BFV as a *somewhat*-homomorphic scheme precisely
because noise growth bounds the usable multiplicative depth
(Section 2); PRs 1-3 made the *performance* axis observable, this
module does the same for the *correctness* axis. A
:class:`NoiseLedger` stamps every fresh encryption with the analytic
budget estimate from :mod:`repro.core.noise` and updates the stamp on
every evaluator operation — additions, plaintext operands,
multiplications, relinearizations, Galois rotations, and modulus
switches — so any ciphertext's predicted headroom can be read at any
time *without* the secret key. When a secret key *is* available,
:meth:`NoiseLedger.measure` records the measured invariant-noise
budget next to the prediction, which is what the calibration gate
(:mod:`repro.obs.noisegate`) compares.

Like tracing and metrics, the ledger is **off by default**: the global
ledger is a :class:`NullNoiseLedger` whose methods are no-ops, so the
hooks in :mod:`repro.core.evaluator` cost one dynamic dispatch when
disabled and never change computed values. Enable it with
:func:`set_noise_ledger` / :func:`use_noise_ledger`.

Trace/metrics integration: while a recording tracer is installed, each
tracked operation attaches ``noise_pred_bits`` (and, after
:meth:`~NoiseLedger.measure`, ``noise_meas_bits``) to the innermost
open span, and the metrics registry accumulates
``noise.ops.<op>`` / ``noise.bits_consumed.<op>`` counters rolling up
budget consumption per operation class.
"""

from __future__ import annotations

import threading
import weakref

from repro.errors import ParameterError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

__all__ = [
    "NoiseStamp",
    "NoiseLedger",
    "NullNoiseLedger",
    "NULL_NOISE_LEDGER",
    "get_noise_ledger",
    "set_noise_ledger",
    "use_noise_ledger",
    "OP_CLASSES",
]

#: Operation classes the ledger understands (and rolls counters up by).
OP_CLASSES = (
    "encrypt",
    "add",
    "add_plain",
    "negate",
    "multiply",
    "multiply_plain",
    "square",
    "relinearize",
    "rotate",
    "mod_switch",
)

#: Ops that key-switch (add a fresh noise term capped by the floor).
_KEY_SWITCH_OPS = frozenset({"relinearize", "rotate"})


class NoiseStamp:
    """The ledger's record for one ciphertext.

    Attributes:
        pred_bits: predicted remaining invariant-noise budget (bits).
        depth: multiplicative depth accumulated along the worst path.
        key_switches: key-switching operations folded into this
            ciphertext's noise (relinearizations + rotations).
        op: the operation class that produced this ciphertext.
        meas_bits: last *measured* budget (None until
            :meth:`NoiseLedger.measure` is called on the ciphertext).
    """

    __slots__ = ("pred_bits", "depth", "key_switches", "op", "meas_bits")

    def __init__(
        self,
        pred_bits: float,
        depth: int = 0,
        key_switches: int = 0,
        op: str = "encrypt",
        meas_bits: float | None = None,
    ):
        self.pred_bits = pred_bits
        self.depth = depth
        self.key_switches = key_switches
        self.op = op
        self.meas_bits = meas_bits

    def as_dict(self) -> dict:
        entry = {
            "pred_bits": self.pred_bits,
            "depth": self.depth,
            "key_switches": self.key_switches,
            "op": self.op,
        }
        if self.meas_bits is not None:
            entry["meas_bits"] = self.meas_bits
        return entry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        meas = (
            f", meas={self.meas_bits:.1f}" if self.meas_bits is not None else ""
        )
        return (
            f"NoiseStamp({self.op}: pred={self.pred_bits:.1f} bits, "
            f"depth={self.depth}, ks={self.key_switches}{meas})"
        )


def _core_noise():
    """The analytic growth model, imported lazily.

    Deferred to break the cycle ``repro.core`` -> ``core.encryptor`` ->
    this module -> ``repro.core.noise``: the package init of
    ``repro.core`` imports the evaluator hooks, so the reverse import
    must wait until the first tracked operation.
    """
    import repro.core.noise as core_noise

    return core_noise


class NoiseLedger:
    """Recording ledger: predicted (and measured) budgets per ciphertext.

    Entries are keyed by ciphertext identity and removed automatically
    when the ciphertext is garbage-collected, so long-running sessions
    do not accumulate stamps for dead intermediates.
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict = {}

    # -- bookkeeping ---------------------------------------------------------

    def _store(self, ciphertext, stamp: NoiseStamp) -> NoiseStamp:
        key = id(ciphertext)
        entries = self._entries

        def _drop(_ref, key=key):
            entries.pop(key, None)

        with self._lock:
            entries[key] = (weakref.ref(ciphertext, _drop), stamp)
        return stamp

    def lookup(self, ciphertext) -> NoiseStamp | None:
        """The stamp for ``ciphertext``, or None when untracked."""
        entry = self._entries.get(id(ciphertext))
        if entry is None or entry[0]() is not ciphertext:
            return None
        return entry[1]

    def __len__(self) -> int:
        return len(self._entries)

    # -- stamping ------------------------------------------------------------

    def stamp_fresh(self, ciphertext) -> NoiseStamp:
        """Stamp a fresh encryption with the analytic initial budget."""
        pred = _core_noise().initial_budget_bits(ciphertext.params)
        stamp = NoiseStamp(pred, depth=0, key_switches=0, op="encrypt")
        self._store(ciphertext, stamp)
        self._emit("encrypt", stamp, consumed=0.0)
        return stamp

    def predict(
        self, op: str, inputs=(), params=None, plain=None
    ) -> NoiseStamp | None:
        """Predicted post-op stamp, or None when any input is untracked.

        ``params`` defaults to the first input's parameter set; pass
        the *new* parameter set for ``mod_switch``. ``plain`` is the
        plaintext operand for ``multiply_plain``.
        """
        stamps = [self.lookup(ct) for ct in inputs]
        if not stamps or any(s is None for s in stamps):
            return None
        noise = _core_noise()
        if params is None:
            params = inputs[0].params
        pred = min(s.pred_bits for s in stamps)
        depth = max(s.depth for s in stamps)
        key_switches = sum(s.key_switches for s in stamps)

        if op == "add":
            pred -= noise.add_noise_growth_bits(2)
        elif op in ("add_plain", "negate"):
            pass
        elif op in ("multiply", "square"):
            pred -= noise.multiply_noise_growth_bits(params)
            depth += 1
        elif op == "multiply_plain":
            if plain is not None:
                pred -= noise.multiply_plain_noise_growth_bits(plain)
        elif op in _KEY_SWITCH_OPS:
            key_switches += 1
            pred = min(
                pred,
                noise.keyswitch_floor_bits(params)
                - noise.add_noise_growth_bits(key_switches),
            )
        elif op == "mod_switch":
            pred = min(pred, noise.mod_switch_floor_bits(params)) - 1.0
        else:
            raise ParameterError(
                f"unknown noise-ledger op {op!r}; known: {OP_CLASSES}"
            )
        return NoiseStamp(pred, depth=depth, key_switches=key_switches, op=op)

    def commit(self, result, stamp: NoiseStamp, consumed_from=None) -> None:
        """Attach a predicted stamp to an operation's result.

        ``consumed_from`` is the minimum input prediction, used for the
        bits-consumed counter rollup.
        """
        self._store(result, stamp)
        consumed = (
            max(0.0, consumed_from - stamp.pred_bits)
            if consumed_from is not None
            else 0.0
        )
        self._emit(stamp.op, stamp, consumed=consumed)

    def record_op(self, op: str, result, inputs=(), params=None, plain=None):
        """Predict-and-commit in one call — the evaluator hook.

        A no-op (returning None) when any input is untracked, so mixed
        tracked/untracked pipelines degrade gracefully instead of
        reporting bogus budgets.
        """
        stamp = self.predict(op, inputs, params=params, plain=plain)
        if stamp is None:
            return None
        consumed_from = min(self.lookup(ct).pred_bits for ct in inputs)
        self.commit(result, stamp, consumed_from=consumed_from)
        return stamp

    # -- measurement ---------------------------------------------------------

    def measure(self, ciphertext, secret_key) -> float:
        """Measured invariant-noise budget, recorded next to the stamp.

        Requires the secret key (a measurement tool for experiments and
        the calibration gate, not a server-side facility). Untracked
        ciphertexts are measured but not stored.
        """
        measured = _core_noise().noise_budget(ciphertext, secret_key)
        stamp = self.lookup(ciphertext)
        if stamp is not None:
            stamp.meas_bits = measured
        span = get_tracer().current_span
        if span is not None:
            span.set_attr("noise_meas_bits", measured)
        return measured

    # -- trace / metrics fan-out ---------------------------------------------

    def _emit(self, op: str, stamp: NoiseStamp, consumed: float) -> None:
        span = get_tracer().current_span
        if span is not None:
            span.set_attr("noise_pred_bits", stamp.pred_bits)
        registry = get_registry()
        registry.counter(
            f"noise.ops.{op}",
            help="noise-ledger operations by class",
        ).inc()
        if consumed > 0.0:
            registry.counter(
                f"noise.bits_consumed.{op}",
                help="predicted budget bits consumed by class",
            ).inc(consumed)


class NullNoiseLedger:
    """The disabled ledger: every method is a no-op returning None."""

    enabled = False

    def lookup(self, ciphertext):
        return None

    def stamp_fresh(self, ciphertext):
        return None

    def predict(self, op, inputs=(), params=None, plain=None):
        return None

    def commit(self, result, stamp, consumed_from=None):
        return None

    def record_op(self, op, result, inputs=(), params=None, plain=None):
        return None

    def measure(self, ciphertext, secret_key):
        return _core_noise().noise_budget(ciphertext, secret_key)

    def __len__(self) -> int:
        return 0


#: The process-wide disabled ledger (also the default).
NULL_NOISE_LEDGER = NullNoiseLedger()

_default_ledger = NULL_NOISE_LEDGER
_default_lock = threading.Lock()


def get_noise_ledger():
    """The process-global ledger (a :class:`NullNoiseLedger` default)."""
    return _default_ledger


def set_noise_ledger(ledger) -> None:
    """Install ``ledger`` (or the null default) as the global ledger."""
    global _default_ledger
    with _default_lock:
        _default_ledger = (
            ledger if ledger is not None else NULL_NOISE_LEDGER
        )


class use_noise_ledger:
    """Context manager installing a ledger for a scoped region.

    >>> from repro.obs.noise import NoiseLedger, use_noise_ledger
    >>> with use_noise_ledger(NoiseLedger()) as ledger:
    ...     pass
    """

    def __init__(self, ledger):
        self.ledger = ledger
        self._previous = None

    def __enter__(self):
        self._previous = get_noise_ledger()
        set_noise_ledger(self.ledger)
        return self.ledger

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_noise_ledger(self._previous)
        return False
