"""Truncated formal power series with exact rational coefficients, plus the
orders of the finite unitary and general linear groups that appear as
centraliser sizes.

A `Series` holds the coefficients of z^0 .. z^T as integer numerators over
one common denominator: `num` is a tuple of T + 1 ints and `den` a positive
int, reduced so that gcd(den, *num) = 1.  That form is unique, so two series
are equal exactly when their (truncation, num, den) are.  `coeff(n)` and
`coeffs` give the values as `fractions.Fraction`.  A product convolves the
numerators, multiplies the denominators and reduces once, where a
`Fraction` per coefficient would reduce every partial product.  Ring
operations never extend past T and never touch floating point.

A power runs Miller's recurrence on integers.  Write self = z^s h / D with
h_0 != 0, and u = h / h_0 = 1 + w with w_j = wn_j / wd_j in lowest terms.
For every integer e, u^e = sum over m of C(e, m) w^m with integer C(e, m),
and the z^k coefficient of w^m is a sum of products w_(j_1) ... w_(j_m)
with j_1 + ... + j_m = k.  By induction on k, the denominators of those
products divide B_k, where B_0 = 1 and B_k is the lcm over the terms j <= k
of wd_j B_(k-j).  So g = u^e has g_k = G_k / B_k with integer G_k, and
Miller's k g_k = sum ((e + 1) j - k) w_j g_(k-j) becomes

    k G_k = sum over j of ((e + 1) j - k) wn_j G_(k-j) B_k / (wd_j B_(k-j)),

whose quotients are integers and whose division by k is exact.  B_k grows
like the true denominators: for an Euler factor with w_j = 1 / |U(j, q)| it
divides |U(k, q)| (a block-diagonal subgroup's order divides the group's),
where the cruder bound h_0^k would be |U(T, q)|^k; at T = 100 that is the
difference between about a second and a minute.
The scale (h_0 / D)^e is reduced before it is raised: e reaches about 10^5
here, and the unreduced powers would be integers of megabits.

Infinite products are handled by the callers: a factor 1 + O(z^(T+1))
contributes nothing below the truncation, so only finitely many factors
matter and the truncated result is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


class Series:
    """Power series truncated at z^truncation: integer numerators `num` over
    one positive denominator `den`, in lowest terms.  Immutable by
    convention; the ring operations build new series."""

    __slots__ = ("truncation", "num", "den")

    def __init__(self, truncation: int, coeffs):
        """The series with coefficients `coeffs` (ints or Fractions) of
        z^0 .. z^truncation."""
        if truncation < 0:
            raise ValueError("truncation must be non-negative")
        if len(coeffs) != truncation + 1:
            raise ValueError("coefficient vector does not match the truncation")
        values = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in values))
        self.truncation = truncation
        self.num = tuple(c.numerator * (den // c.denominator) for c in values)
        self.den = den

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.truncation:
            raise IndexError(f"coefficient index {n} beyond truncation {self.truncation}")
        return Fraction(self.num[n], self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.truncation, self.num, self.den) == (other.truncation, other.num, other.den)

    def __hash__(self):
        return hash((self.truncation, self.num, self.den))

    def _match(self, other: "Series"):
        if self.truncation != other.truncation:
            raise ValueError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other: "Series") -> "Series":
        self._match(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return _reduced(self.truncation, [a * x + b * y for x, y in zip(self.num, other.num)], den)

    def __neg__(self) -> "Series":
        return _reduced(self.truncation, [-x for x in self.num], self.den)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        self._match(other)
        T = self.truncation
        terms = [(j, y) for j, y in enumerate(other.num) if y]
        out = [0] * (T + 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in terms:
                    if i + j > T:
                        break
                    out[i + j] += x * y
        return _reduced(T, out, self.den * other.den)

    def __pow__(self, e: int) -> "Series":
        """self ** e by J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7),
        on integers as the module docstring sets out.  Negative e needs a
        nonzero constant term."""
        T = self.truncation
        if e == 0:
            return one(T)
        s = next((i for i, c in enumerate(self.num) if c), T + 1)
        if e < 0 and s:
            raise ValueError("a series with zero constant term has no negative powers")
        shift = s * e
        out = [0] * (T + 1)
        if shift > T:
            return _reduced(T, out, 1)
        K = T - shift
        h = self.num[s : s + K + 1]
        h0 = h[0]
        # u = h / h_0 = 1 + sum of w_j z^j, w_j = wn_j / wd_j in lowest terms
        terms = []
        for j in range(1, K + 1):
            if h[j]:
                r = gcd(h[j], h0)
                wn, wd = h[j] // r, h0 // r
                terms.append((j, wn, wd) if wd > 0 else (j, -wn, -wd))
        # g = u^e has g_k = G_k / B_k with integer G_k; B_k = 0 marks a k that
        # no sum of term degrees reaches, where g_k = 0
        B, G = [1] + [0] * K, [1] + [0] * K
        for k in range(1, K + 1):
            bk = 0
            for j, _, wd in terms:
                if j > k:
                    break
                if B[k - j]:
                    bk = lcm(bk, wd * B[k - j]) if bk else wd * B[k - j]
            if not bk:
                continue
            B[k] = bk
            acc = 0
            for j, wn, wd in terms:
                if j > k:
                    break
                # terms with g_(k-j) = 0 add nothing (for a factor in z^D, g
                # vanishes off the multiples of D), so they are not formed
                if G[k - j]:
                    acc += ((e + 1) * j - k) * wn * G[k - j] * (bk // (wd * B[k - j]))
            G[k], r = divmod(acc, k)
            if r:
                raise ArithmeticError(f"Miller step {k} of a power does not divide exactly")
        # self ** e = z^shift (a / b)^e g, with a / b = h_0 / D in lowest terms
        g0 = gcd(h0, self.den)
        a, b = h0 // g0, self.den // g0
        if e < 0:
            a, b, e = b, a, -e
        scale, L = a**e, lcm(*(x for x in B if x))
        for k in range(K + 1):
            if G[k]:
                out[shift + k] = scale * G[k] * (L // B[k])
        return _reduced(T, out, b**e * L)

    def __repr__(self):
        return f"Series(truncation={self.truncation}, num={self.num}, den={self.den})"

    def __str__(self):
        return " + ".join(f"({c})z^{n}" for n, c in enumerate(self.coeffs) if c) or "0"


def _reduced(T: int, num: list, den: int) -> Series:
    """Internal constructor: the series num / den (den != 0) in lowest terms,
    without the conversions of `Series.__init__`."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    s = object.__new__(Series)
    s.truncation = T
    s.num = tuple(x // g for x in num) if g != 1 else tuple(num)
    s.den = den // g
    return s


def one(T: int) -> Series:
    return _reduced(T, [1] + [0] * T, 1)


def binom_factor(d: int, c: Rational, e: int, T: int) -> Series:
    """(1 + c z^d)^e for e >= 0, and (1 - c z^d)^e for e < 0, truncated at T."""
    if d < 1:
        raise ValueError("d must be positive")
    den = c.denominator
    out = [0] * (T + 1)
    out[0] = den
    if d <= T:
        out[d] = c.numerator if e >= 0 else -c.numerator
    return _reduced(T, out, den) ** e


def euler_factor(d: int, denoms: Callable[[int], Rational], step: int, T: int) -> Series:
    """1 + sum over m >= 1 with d*m*step <= T of z^(d*m*step) / denoms(m)."""
    if d < 1 or step < 1:
        raise ValueError("d and step must be positive")
    values = []
    m = 1
    while d * m * step <= T:
        v = denoms(m)
        if v == 0:
            raise ZeroDivisionError(f"euler_factor denominator vanishes at m={m}")
        values.append(v)
        m += 1
    # 1 / v = v.denominator / v.numerator, over the lcm of the numerators
    den = lcm(*(v.numerator for v in values))
    out = [0] * (T + 1)
    out[0] = den
    for m, v in enumerate(values, 1):
        out[d * m * step] = v.denominator * (den // v.numerator)
    return _reduced(T, out, den)


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
