"""Homomorphic evaluation: the operations the paper accelerates.

The paper implements exactly two homomorphic primitives on the PIM
device — **addition** and **multiplication** (Section 3) — and builds
the statistical workloads from them. This evaluator provides those,
plus the standard supporting operations (subtraction, negation,
plaintext operands, relinearization, squaring).

Multiplication follows the textbook BFV construction: the ciphertexts'
centered lifts are tensored **exactly over the integers** (no modular
wrap — this is why :func:`repro.poly.polynomial.negacyclic_sum` works
over Z), each tensor component is scaled by ``t/q`` with rounding, and
the resulting size-3 ciphertext is folded back to size 2 with the
relinearization key's base-``T`` digits.

Both steps run in the evaluation domain of the exact CRT bundle. A
multiply forward-transforms its four input polynomials once per prime
(a square, two), sums the cross terms pointwise, and takes three
inverse transforms. Relinearization transforms its ``k`` digits once,
multiplies them against the relinearization key's cached transforms
and takes two inverse transforms (:func:`repro.core.keys.key_switch`).
Every result is the exact integer of the one-product-at-a-time
construction, so outputs are bit-identical to it.
"""

from __future__ import annotations

from repro.core.ciphertext import Ciphertext, Plaintext
from repro.core.decryptor import round_scale
from repro.core.keys import RelinKey, key_switch
from repro.core.params import BFVParameters
from repro.errors import CiphertextError, ParameterError
from repro.obs.noise import get_noise_ledger
from repro.poly.polynomial import Operand, Polynomial, negacyclic_sum


class Evaluator:
    """Server-side homomorphic operations over one parameter set.

    The evaluator never sees secret material: it holds at most the
    relinearization key, which is public evaluation key material.

    Every operation reports itself to the process-global noise ledger
    (:mod:`repro.obs.noise`) — a no-op unless a recording ledger is
    installed. An optional ``guard``
    (:class:`repro.core.planner.HeadroomGuard`) is consulted *before*
    each budget-consuming operation with the ledger's predicted
    post-op budget; a strict guard raises
    :class:`~repro.errors.NoiseBudgetExhaustedError` instead of letting
    an operation silently push a ciphertext past decryption failure.
    """

    def __init__(
        self,
        params: BFVParameters,
        relin_key: RelinKey | None = None,
        guard=None,
    ):
        if relin_key is not None and relin_key.params != params:
            raise ParameterError("relin key belongs to different parameters")
        self.params = params
        self.relin_key = relin_key
        self.guard = guard

    def _guard_check(self, op: str, inputs, plain=None, params=None) -> None:
        """Consult the headroom guard with the pre-op prediction.

        Needs an active noise ledger to know the inputs' budgets; with
        the null ledger (or untracked inputs) the prediction is None
        and the guard stays silent.
        """
        if self.guard is None:
            return
        stamp = get_noise_ledger().predict(
            op, inputs, params=params or self.params, plain=plain
        )
        self.guard.check(op, stamp, self.params)

    # -- additive operations ------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Homomorphic addition: slot-wise / coefficient-wise sum.

        Ciphertexts of different sizes are aligned by treating missing
        components as zero.
        """
        self._check(a)
        a.check_compatible(b)
        self._guard_check("add", (a, b))
        short, long = sorted((a.polys, b.polys), key=len)
        polys = [x + y for x, y in zip(short, long)] + list(long[len(short):])
        result = Ciphertext(self.params, polys)
        get_noise_ledger().record_op("add", result, (a, b))
        return result

    def add_many(self, ciphertexts) -> Ciphertext:
        """Sum an iterable of ciphertexts (balanced-tree order).

        The tree order matters for fairness of the platform comparison:
        it is also the reduction order the device kernels use.
        """
        items = list(ciphertexts)
        if not items:
            raise CiphertextError("add_many needs at least one ciphertext")
        while len(items) > 1:
            paired = []
            for i in range(0, len(items) - 1, 2):
                paired.append(self.add(items[i], items[i + 1]))
            if len(items) % 2:
                paired.append(items[-1])
            items = paired
        return items[0]

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Homomorphic subtraction ``a - b``."""
        return self.add(a, self.negate(b))

    def negate(self, a: Ciphertext) -> Ciphertext:
        """Homomorphic negation."""
        self._check(a)
        result = Ciphertext(self.params, tuple(-p for p in a.polys))
        get_noise_ledger().record_op("negate", result, (a,))
        return result

    def add_plain(self, a: Ciphertext, plain: Plaintext) -> Ciphertext:
        """Add an unencrypted plaintext to a ciphertext (noise-free)."""
        self._check(a)
        if plain.params != self.params:
            raise ParameterError("plaintext belongs to different parameters")
        scaled = Polynomial(
            plain.poly.centered(), self.params.coeff_modulus
        ).scalar_mul(self.params.delta)
        polys = list(a.polys)
        polys[0] = polys[0] + scaled
        result = Ciphertext(self.params, polys)
        get_noise_ledger().record_op("add_plain", result, (a,))
        return result

    # -- multiplicative operations -------------------------------------------

    def multiply_plain(self, a: Ciphertext, plain: Plaintext) -> Ciphertext:
        """Multiply a ciphertext by an unencrypted plaintext.

        No rescaling is needed: each component is convolved with the
        centered plaintext directly, and the noise grows only by the
        plaintext's norm.
        """
        self._check(a)
        if plain.params != self.params:
            raise ParameterError("plaintext belongs to different parameters")
        lifted = Polynomial(plain.poly.centered(), self.params.coeff_modulus)
        if not any(plain.poly.coeffs):
            raise CiphertextError(
                "multiply_plain by zero produces a transparent ciphertext"
            )
        self._guard_check("multiply_plain", (a,), plain=plain)
        result = Ciphertext(
            self.params, tuple(p * lifted for p in a.polys)
        )
        get_noise_ledger().record_op(
            "multiply_plain", result, (a,), plain=plain
        )
        return result

    def multiply(
        self, a: Ciphertext, b: Ciphertext, relinearize: bool = True
    ) -> Ciphertext:
        """Homomorphic multiplication (paper Section 3).

        Computes the exact integer tensor product of the two size-2
        ciphertexts, scales by ``t/q`` with rounding, and (by default)
        relinearizes the size-3 result back to size 2.
        """
        self._check(a)
        a.check_compatible(b)
        if a.size != 2 or b.size != 2:
            raise CiphertextError(
                "multiply expects size-2 operands; relinearize first "
                f"(got sizes {a.size} and {b.size})"
            )
        self._guard_check("multiply", (a, b))
        product = Ciphertext(self.params, self._tensor(a, b))
        get_noise_ledger().record_op("multiply", product, (a, b))
        if relinearize and self.relin_key is not None:
            return self.relinearize(product)
        return product

    def square(self, a: Ciphertext, relinearize: bool = True) -> Ciphertext:
        """Homomorphic squaring — the variance workload's inner step.

        Same construction as :meth:`multiply` with both operands the
        same ciphertext, so each prime takes two forward transforms,
        not four.
        """
        self._check(a)
        if a.size != 2:
            raise CiphertextError("square expects a size-2 ciphertext")
        self._guard_check("square", (a,))
        product = Ciphertext(self.params, self._tensor(a, a))
        get_noise_ledger().record_op("square", product, (a,))
        if relinearize and self.relin_key is not None:
            return self.relinearize(product)
        return product

    def relinearize(self, a: Ciphertext) -> Ciphertext:
        """Fold a size-3 ciphertext back to size 2 using the relin key.

        The cubic component ``c2`` is split into base-``T`` digits
        ``c2 = sum_i T^i * u_i``; each digit is multiplied by the key
        pair encrypting ``T^i * s^2``, keeping the digit norms (and so
        the added noise) bounded by ``T``.
        """
        self._check(a)
        if self.relin_key is None:
            raise CiphertextError("no relinearization key configured")
        if a.size == 2:
            return a
        if a.size != 3:
            raise CiphertextError(
                f"relinearize supports size-3 ciphertexts, got size {a.size}"
            )
        self._guard_check("relinearize", (a,))
        c0, c1, c2 = a.polys
        key = self.relin_key
        d0, d1 = key_switch(c2, key.operands(), key.base_bits, "relinearization")
        result = Ciphertext(self.params, (c0 + d0, c1 + d1))
        get_noise_ledger().record_op("relinearize", result, (a,))
        return result

    # -- helpers ---------------------------------------------------------------

    def _tensor(self, a: Ciphertext, b: Ciphertext) -> tuple:
        """``round(t/q * (a0*b0, a0*b1 + a1*b0, a1*b1))`` mod q, exactly.

        Each distinct component is forward-transformed once per prime
        (a square shares its operands), and the cross terms are summed
        in the evaluation domain before their one inverse transform.
        """
        params = self.params
        n, q, t = params.poly_degree, params.coeff_modulus, params.plain_modulus
        a0, a1 = (Operand(p.centered()) for p in a.polys)
        b0, b1 = (a0, a1) if b is a else (Operand(p.centered()) for p in b.polys)
        tensor = ([(a0, b0)], [(a0, b1), (a1, b0)], [(a1, b1)])
        return tuple(
            Polynomial(round_scale(negacyclic_sum(terms, n), t, q).tolist(), q)
            for terms in tensor
        )

    def _check(self, a: Ciphertext) -> None:
        if a.params != self.params:
            raise CiphertextError("ciphertext belongs to different parameters")
