"""Noise-budget planning: will this circuit decrypt?

Somewhat-homomorphic encryption supports "addition and multiplication
with constraints on multiplicative depth" (paper Section 2). Users of
the library need to answer, *before* encrypting anything: does my
parameter set support my circuit? This module holds the analytic
noise-growth estimates (fresh budget, per-operation growth, key-switch
and modulus-switch floors) and does the planning arithmetic with them
under a configurable safety margin; it can pick the smallest paper
security level for a given circuit. The measured budget, which needs
the secret key, is :func:`repro.core.noise.noise_budget`.

The estimates are intentionally conservative; the tests check them
against *measured* budgets on real ciphertexts (predicted-feasible
circuits must actually decrypt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.params import BFVParameters
from repro.errors import NoiseBudgetExhaustedError, ParameterError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer


# -- analytic growth estimates ------------------------------------------------


def fresh_noise_bits(params: BFVParameters) -> float:
    """Analytic estimate of a fresh encryption's noise magnitude (bits).

    Fresh invariant noise is roughly ``t/q * B * (2n + 1)`` with
    ``B = eta`` the error bound; we report ``log2`` of that estimate.
    """
    n = params.poly_degree
    estimate = (
        params.plain_modulus
        * params.error_eta
        * (2 * n + 1)
        / params.coeff_modulus
    )
    return math.log2(estimate) if estimate > 0 else float("-inf")


def initial_budget_bits(params: BFVParameters) -> float:
    """Predicted budget of a fresh encryption: ``-log2(2 * fresh_noise)``."""
    return -1.0 - fresh_noise_bits(params)


def add_noise_growth_bits(count: int) -> float:
    """Budget consumed by summing ``count`` ciphertexts: ~``log2(count)``.

    Addition adds noises linearly, so a balanced tree of ``count``
    leaves multiplies the noise by at most ``count``.
    """
    return math.log2(max(count, 1))


def keyswitch_floor_bits(params: BFVParameters) -> float:
    """Budget ceiling after any key-switching operation, in bits.

    Relinearization and Galois rotation both *add* a fresh noise term
    of magnitude ``~ eta * T * l * n`` (digit errors times digit
    magnitudes, convolved over the ring); in budget terms the resulting
    ciphertext can never sit above
    ``log2(q / (2 * t * eta * T * l * n))`` regardless of how clean its
    input was. This is a floor effect, not a per-operation subtraction:
    ``r`` successive key switches only cost a further ``log2(r)``.
    """
    estimate = (
        params.plain_modulus
        * params.error_eta
        * (1 << params.relin_base_bits)
        * params.relin_components
        * params.poly_degree
        / params.coeff_modulus
    )
    return -1.0 - math.log2(estimate) if estimate > 0 else float("inf")


def multiply_plain_noise_growth_bits(plain) -> float:
    """Budget consumed by a plaintext multiplication, in bits.

    Plaintext multiplication convolves each component with the centered
    plaintext, so the invariant noise grows by at most the plaintext's
    L1 norm; the budget cost is ``log2`` of that norm (zero for a
    monomial with a ±1 coefficient).
    """
    norm = sum(abs(c) for c in plain.poly.centered())
    return math.log2(norm) if norm > 1 else 0.0


def mod_switch_floor_bits(params: BFVParameters) -> float:
    """Budget ceiling introduced by switching *to* ``params``.

    Rescaling ``c' = round(q'/q * c)`` adds a rounding term of
    invariant magnitude ``~ t * n / (2 * q')`` (see
    :mod:`repro.core.modswitch`), so a switched ciphertext can never
    report more than ``-log2(2 * t * n / (2 * q')) =
    log2(q' / (t * n))`` bits of budget. ``params`` is the *new*
    (smaller-modulus) parameter set.
    """
    estimate = (
        params.plain_modulus
        * params.poly_degree
        / (2 * params.coeff_modulus)
    )
    return -1.0 - math.log2(estimate) if estimate > 0 else float("inf")


def multiply_noise_growth_bits(params: BFVParameters) -> float:
    """Rough budget consumed by one multiplication.

    The dominant term of the BFV multiplication noise bound is
    ``t * n * |v|`` on each operand's noise plus a relinearization term
    ``~ n * T * B * l / q``; in budget terms a multiplication costs
    about ``log2(t) + log2(n) + 1`` bits. This is the planning number
    used by examples to pick a security level for a given depth.
    """
    return (
        math.log2(params.plain_modulus)
        + math.log2(params.poly_degree)
        + 1.0
    )


# -- planning -----------------------------------------------------------------


@dataclass(frozen=True)
class CircuitShape:
    """Abstract shape of a homomorphic computation.

    Attributes:
        multiplicative_depth: longest chain of ciphertext-ciphertext
            multiplications (squarings count).
        additions_per_level: fan-in of the widest balanced addition at
            any level (the mean workload over ``u`` users has depth 0
            and ``additions_per_level = u``).
        rotations: number of Galois rotations applied along the
            longest path (each adds a key-switch noise term, capping
            the budget at the parameter set's key-switch floor).
    """

    multiplicative_depth: int = 0
    additions_per_level: int = 1
    rotations: int = 0

    def __post_init__(self):
        if self.multiplicative_depth < 0:
            raise ParameterError(
                f"depth must be non-negative: {self.multiplicative_depth}"
            )
        if self.additions_per_level < 1:
            raise ParameterError(
                f"additions_per_level must be >= 1: {self.additions_per_level}"
            )
        if self.rotations < 0:
            raise ParameterError(
                f"rotations must be non-negative: {self.rotations}"
            )


@dataclass(frozen=True)
class BudgetPlan:
    """Predicted budget arithmetic for one (params, circuit) pair."""

    params: BFVParameters
    circuit: CircuitShape
    initial_bits: float
    consumed_bits: float
    keyswitch_ceiling_bits: float
    margin_bits: float

    @property
    def remaining_bits(self) -> float:
        """Predicted budget left: linear consumption capped by the
        key-switch ceiling when the circuit key-switches at all."""
        linear = self.initial_bits - self.consumed_bits
        return min(linear, self.keyswitch_ceiling_bits)

    @property
    def feasible(self) -> bool:
        """True when the circuit decrypts with the safety margin."""
        return self.remaining_bits >= self.margin_bits

    def describe(self) -> str:
        verdict = "feasible" if self.feasible else "INFEASIBLE"
        return (
            f"{self.params.security_bits}-bit level: "
            f"{self.initial_bits:.0f} bits fresh - "
            f"{self.consumed_bits:.0f} consumed, key-switch ceiling "
            f"{self.keyswitch_ceiling_bits:.0f} -> "
            f"{self.remaining_bits:.0f} remaining "
            f"(margin {self.margin_bits:.0f}) -> {verdict}"
        )


def plan_budget(
    params: BFVParameters,
    circuit: CircuitShape,
    margin_bits: float = 2.0,
) -> BudgetPlan:
    """Predict whether ``circuit`` decrypts under ``params``.

    Consumption model: every multiplicative level costs
    :func:`multiply_noise_growth_bits`; the addition fan-in at each
    level (including level zero) costs ``log2(fan_in)``. Key-switching
    operations (relinearizations — one per multiplicative level — and
    rotations) add fresh noise terms, which *cap* the remaining budget
    at :func:`keyswitch_floor_bits` minus ``log2`` of how many were
    performed (noise adds, so successive switches cost only
    logarithmically).
    """
    if margin_bits < 0:
        raise ParameterError(f"margin must be non-negative: {margin_bits}")
    levels = circuit.multiplicative_depth
    consumed = levels * multiply_noise_growth_bits(params) + (
        levels + 1
    ) * add_noise_growth_bits(circuit.additions_per_level)
    key_switches = levels + circuit.rotations
    if key_switches > 0:
        ceiling = keyswitch_floor_bits(params) - math.log2(key_switches)
    else:
        ceiling = float("inf")
    return BudgetPlan(
        params=params,
        circuit=circuit,
        initial_bits=initial_budget_bits(params),
        consumed_bits=consumed,
        keyswitch_ceiling_bits=ceiling,
        margin_bits=margin_bits,
    )


class HeadroomGuard:
    """Pre-op guard against decryption-failure by noise exhaustion.

    Attach to an :class:`~repro.core.evaluator.Evaluator` (its
    ``guard`` argument). Before each budget-consuming operation the
    evaluator asks the process-global noise ledger
    (:mod:`repro.obs.noise`) for the *predicted post-op* stamp and
    passes it here. When the predicted remaining budget would fall
    below ``margin_bits``, the guard:

    * emits a ``noise.headroom`` trace event carrying the operation
      and the offending prediction,
    * increments the ``noise.headroom_violations`` counter, and
    * (when ``strict``) raises
      :class:`~repro.errors.NoiseBudgetExhaustedError` *before* the
      operation runs — turning a silent wrong-answer decryption into
      an attributable failure at the op that caused it.

    The guard needs a recording ledger to see any predictions; with
    the null ledger (or untracked inputs) ``stamp`` is None and the
    guard stays silent by design.
    """

    def __init__(self, margin_bits: float = 0.0, strict: bool = False):
        if margin_bits < 0:
            raise ParameterError(
                f"margin must be non-negative: {margin_bits}"
            )
        self.margin_bits = margin_bits
        self.strict = strict
        self.violations = 0

    def check(self, op: str, stamp, params: BFVParameters) -> None:
        """Check one predicted post-op stamp; None stamps pass."""
        if stamp is None or stamp.pred_bits >= self.margin_bits:
            return
        self.violations += 1
        with get_tracer().span(
            "noise.headroom",
            attrs={
                "op": op,
                "pred_bits": stamp.pred_bits,
                "margin_bits": self.margin_bits,
                "security_bits": params.security_bits,
            },
        ):
            pass
        get_registry().counter(
            "noise.headroom_violations",
            help="operations predicted to exhaust the noise budget",
        ).inc()
        if self.strict:
            raise NoiseBudgetExhaustedError(
                f"{op} would drive the predicted noise budget to "
                f"{stamp.pred_bits:.1f} bits (margin "
                f"{self.margin_bits:.1f}) at the "
                f"{params.security_bits}-bit level; the result would "
                "likely not decrypt. Use larger parameters, reduce the "
                "circuit depth, or relax the guard."
            )
