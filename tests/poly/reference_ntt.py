"""Scalar negacyclic NTT: the differential oracle for ``repro.poly.ntt``.

One Python-int butterfly per inner-loop iteration, with twiddles from
``pow`` over a bit-reversed index: the textbook in-place Cooley–Tukey /
Gentleman–Sande pair that :func:`repro.poly.ntt.forward` and
:func:`repro.poly.ntt.inverse` vectorize stage by stage over a bundle
of primes, in constant geometry. It is a test oracle only; production
code never calls it.
"""

from __future__ import annotations

from repro.poly.modring import inverse_mod, root_of_unity


def _bit_reverse(value: int, bits: int) -> int:
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


class ReferenceNTT:
    """Scalar negacyclic NTT for ring degree ``n`` and prime ``p``."""

    def __init__(self, n: int, p: int):
        self.n = n
        self.p = p
        self.log_n = n.bit_length() - 1
        psi = root_of_unity(p, 2 * n)
        psi_inv = inverse_mod(psi, p)
        self._fwd = [
            pow(psi, _bit_reverse(i, self.log_n), p) for i in range(n)
        ]
        self._inv = [
            pow(psi_inv, _bit_reverse(i, self.log_n), p) for i in range(n)
        ]
        self.n_inv = inverse_mod(n, p)

    def forward(self, coeffs: list) -> list:
        p = self.p
        a = [c % p for c in coeffs]
        t = self.n
        m = 1
        while m < self.n:
            t //= 2
            for i in range(m):
                w = self._fwd[m + i]
                j1 = 2 * i * t
                for j in range(j1, j1 + t):
                    u = a[j]
                    v = a[j + t] * w % p
                    a[j] = (u + v) % p
                    a[j + t] = (u - v) % p
            m *= 2
        return a

    def inverse(self, values: list) -> list:
        p = self.p
        a = [v % p for v in values]
        t = 1
        m = self.n
        while m > 1:
            j1 = 0
            h = m // 2
            for i in range(h):
                w = self._inv[h + i]
                for j in range(j1, j1 + t):
                    u = a[j]
                    v = a[j + t]
                    a[j] = (u + v) % p
                    a[j + t] = (u - v) * w % p
                j1 += 2 * t
            t *= 2
            m = h
        return [x * self.n_inv % p for x in a]

    def convolve(self, a: list, b: list) -> list:
        fa, fb = self.forward(a), self.forward(b)
        p = self.p
        return self.inverse([x * y % p for x, y in zip(fa, fb)])
