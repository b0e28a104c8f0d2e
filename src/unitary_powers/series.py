"""Truncated formal power series over exact rationals, plus the orders of the
finite unitary and general linear groups that appear as centraliser sizes.

A `Series` holds coefficients of z^0 .. z^T as `fractions.Fraction`; ring
operations never extend past T and never touch floating point.  Infinite
products are handled by the callers: a factor 1 + O(z^(T+1)) contributes
nothing below the truncation, so only finitely many factors matter and the
truncated result is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

__all__ = [
    "Series",
    "one",
    "binom_factor",
    "euler_factor",
    "group_order_U",
    "group_order_GL",
]

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class Series:
    """Power series truncated at z^truncation, exact rational coefficients."""

    truncation: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError("truncation must be non-negative")
        if len(self.coeffs) != self.truncation + 1:
            raise ValueError("coefficient vector does not match the truncation")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.truncation:
            raise IndexError(f"coefficient index {n} beyond truncation {self.truncation}")
        return self.coeffs[n]

    def _match(self, other: "Series"):
        if self.truncation != other.truncation:
            raise ValueError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other: "Series") -> "Series":
        self._match(other)
        return Series(self.truncation, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Series":
        return Series(self.truncation, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "Series") -> "Series":
        self._match(other)
        return Series(self.truncation, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "Series") -> "Series":
        self._match(other)
        T = self.truncation
        out = [Fraction(0)] * (T + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(T + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return Series(T, tuple(out))

    def __pow__(self, e: int) -> "Series":
        """self ** e by J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7).

        Write self = z^s h with h_0 != 0.  Then g = h^e satisfies
        k h_0 g_k = sum over j = 1..k of ((e + 1) j - k) h_j g_(k-j), and
        self ** e = z^(s e) g.  Negative e needs s = 0.
        """
        T = self.truncation
        if e == 0:
            return one(T)
        s = next((i for i, c in enumerate(self.coeffs) if c), T + 1)
        if e < 0 and s:
            raise ValueError("a series with zero constant term has no negative powers")
        shift = s * e
        out = [Fraction(0)] * (T + 1)
        if shift <= T:
            h = self.coeffs[s:]
            terms = [(j, c) for j, c in enumerate(h[1 : T + 1 - shift], 1) if c]
            g = [h[0] ** e]
            for k in range(1, T + 1 - shift):
                # terms with g_(k-j) = 0 add nothing (for a factor in z^D, g
                # vanishes off the multiples of D), so they are not formed
                acc = sum(((e + 1) * j - k) * c * g[k - j]
                          for j, c in terms if j <= k and g[k - j])
                g.append(acc / (k * h[0]))
            out[shift:] = g
        return Series(T, tuple(out))

    def __str__(self):
        return " + ".join(f"({c})z^{n}" for n, c in enumerate(self.coeffs) if c) or "0"


def one(T: int) -> Series:
    return Series(T, (Fraction(1),) + (Fraction(0),) * T)


def binom_factor(d: int, c: Rational, e: int, T: int) -> Series:
    """(1 + c z^d)^e for e >= 0, and (1 - c z^d)^e for e < 0, truncated at T."""
    if d < 1:
        raise ValueError("d must be positive")
    out = [Fraction(0)] * (T + 1)
    out[0] = Fraction(1)
    if d <= T:
        out[d] = Fraction(c) if e >= 0 else -Fraction(c)
    return Series(T, tuple(out)) ** e


def euler_factor(d: int, denoms: Callable[[int], Rational], step: int, T: int) -> Series:
    """1 + sum over m >= 1 with d*m*step <= T of z^(d*m*step) / denoms(m)."""
    if d < 1 or step < 1:
        raise ValueError("d and step must be positive")
    out = [Fraction(0)] * (T + 1)
    out[0] = Fraction(1)
    m = 1
    while d * m * step <= T:
        den = Fraction(denoms(m))
        if den == 0:
            raise ZeroDivisionError(f"euler_factor denominator vanishes at m={m}")
        out[d * m * step] = 1 / den
        m += 1
    return Series(T, tuple(out))


def group_order_U(n: int, q: int) -> int:
    """|U(n, q^2)| = q^(n(n-1)/2) * prod for i = 1..n of (q^i - (-1)^i)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    order = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        order *= q**i - (-1) ** i
    return order


def group_order_GL(m: int, Q: int) -> int:
    """|GL(m, Q)| = prod for i = 0..m-1 of (Q^m - Q^i)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    order = 1
    for i in range(m):
        order *= Q**m - Q**i
    return order
