"""Truncated formal power series in count form, plus the orders of the
finite unitary and general linear groups that appear as centraliser sizes.

A `Series` holds integers N_0 .. N_T with N_0 = 1, and the weights `q` it is
read with.  A class series (q = None) has N_n as its z^n coefficient.  An
element series has N_n / |U(n, q)|: its coefficient is a sum of 1 / |C_U|
over classes of U(n, q), so N_n, the sum of those class sizes, is the
number of elements of U(n, q) in the tally.  `coeff(n)` and `coeffs` give
the coefficients as `fractions.Fraction`; no operation touches floating
point or extends past T.

A product is the weighted convolution H_n = sum over i of c(n, i) A_i B_(n-i),
with c = 1 for classes and, for elements, the U-binomial

    c(n, i) = |U(n, q)| / (|U(i, q)| |U(n-i, q)|) = (-q)^(i(n-i)) [n choose i]_(-q).

It is an integer: |U(n, q)| = q^(n(n-1)/2) prod over j <= n of (q^j - (-1)^j)
and q^j - (-1)^j = (-1)^j ((-q)^j - 1), so the quotient is a Gaussian
binomial at -q times a power of -q.  Pascal's rule [n, i] = [n-1, i-1] +
x^i [n-1, i] at x = -q gives c(n, i) = x^(n-i) c(n-1, i-1) + x^(2i) c(n-1, i),
which builds the table with no division.

A power runs J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7).  For
g = f^e with f_0 = 1, k g_k = sum over j of ((e + 1) j - k) f_j g_(k-j); times
|U(k, q)| it reads

    k G_k = sum over j of ((e + 1) j - k) c(k, j) F_j G_(k-j).

The division by k is exact for every integer e: G_k is an integer, since a
product of count-form series is one and so is an inverse (F_0 = 1 gives
H_n = -sum over i >= 1 of c(n, i) F_i H_(n-i)).  A remainder can only mean
a broken table and raises `SeriesInvariantError`.

Infinite products are handled by the callers: a factor 1 + O(z^(T+1))
contributes nothing below the truncation, so only finitely many factors
matter and the truncated result is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import index
from typing import Callable, Optional

__all__ = [
    "Series",
    "SeriesInvariantError",
    "one",
    "binom_factor",
    "euler_factor",
    "group_order_U",
    "group_order_GL",
]


class SeriesInvariantError(RuntimeError):
    """A division that the count form makes exact left a remainder: a Miller
    step of a power, or a class size |U(n, q)| / |C_U|."""


@lru_cache(maxsize=16)
def _weights(q: Optional[int], T: int) -> tuple[tuple[int, ...], ...]:
    """Rows n = 0..T of c(n, i), i = 0..n: all 1 for q = None, else the
    U-binomials at q by Pascal's rule (module docstring)."""
    if q is None:
        return tuple((1,) * (n + 1) for n in range(T + 1))
    x = [(-q) ** k for k in range(2 * T + 1)]
    rows = [(1,)]
    for n in range(1, T + 1):
        prev = rows[-1] + (0,)
        rows.append(tuple(
            (x[n - i] * prev[i - 1] if i else 0) + x[2 * i] * prev[i] for i in range(n + 1)
        ))
    return tuple(rows)


class Series:
    """Power series truncated at z^truncation in count form: integers
    `counts` with counts[0] = 1, read with the weights of `q` (None for a
    class series).  Immutable by convention; the ring operations build new
    series."""

    __slots__ = ("truncation", "counts", "q")

    def __init__(self, truncation: int, counts, q: Optional[int] = None):
        if truncation < 0:
            raise ValueError("truncation must be non-negative")
        if len(counts) != truncation + 1:
            raise ValueError("count vector does not match the truncation")
        if counts[0] != 1:
            raise ValueError(f"constant term must be 1, got {counts[0]}")
        self.truncation = truncation
        self.counts = tuple(index(n) for n in counts)
        self.q = q

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.truncation:
            raise IndexError(f"coefficient index {n} beyond truncation {self.truncation}")
        return Fraction(self.counts[n], 1 if self.q is None else group_order_U(n, self.q))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(self.coeff(n) for n in range(self.truncation + 1))

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.truncation, self.q, self.counts) == (other.truncation, other.q, other.counts)

    def __hash__(self):
        return hash((self.truncation, self.q, self.counts))

    def __mul__(self, other: "Series") -> "Series":
        T = self.truncation
        if (T, self.q) != (other.truncation, other.q):
            raise ValueError(
                f"truncation or weights differ: (T, q) = {(T, self.q)} vs "
                f"{(other.truncation, other.q)}"
            )
        c = _weights(self.q, T)
        terms = [(j, y) for j, y in enumerate(other.counts) if y]
        out = [0] * (T + 1)
        for i, x in enumerate(self.counts):
            if x:
                for j, y in terms:
                    if i + j > T:
                        break
                    out[i + j] += c[i + j][i] * x * y
        return _series(T, out, self.q)

    def __pow__(self, e: int) -> "Series":
        """self ** e for any integer e, by Miller's recurrence on integers as
        the module docstring sets out."""
        T = self.truncation
        c = _weights(self.q, T)
        terms = [(j, f) for j, f in enumerate(self.counts) if j and f]
        G = [1] + [0] * T
        for k in range(1, T + 1):
            ck, acc = c[k], 0
            for j, f in terms:
                if j > k:
                    break
                # for a factor in z^D, G vanishes off the multiples of D
                if G[k - j]:
                    acc += ((e + 1) * j - k) * ck[j] * f * G[k - j]
            G[k], r = divmod(acc, k)
            if r:
                raise SeriesInvariantError(f"Miller step {k} of a power does not divide exactly")
        return _series(T, G, self.q)

    def __repr__(self):
        return f"Series(truncation={self.truncation}, counts={self.counts}, q={self.q})"

    def __str__(self):
        return " + ".join(f"({c})z^{n}" for n, c in enumerate(self.coeffs) if c)


def _series(T: int, counts: list, q: Optional[int]) -> Series:
    """Internal constructor for the results of the ring operations, whose
    counts are ints with counts[0] = 1, without the checks of `__init__`."""
    s = object.__new__(Series)
    s.truncation, s.counts, s.q = T, tuple(counts), q
    return s


def one(T: int, q: Optional[int] = None) -> Series:
    return Series(T, [1] + [0] * T, q)


def binom_factor(d: int, count: int, e: int, T: int, q: Optional[int] = None) -> Series:
    """(1 + count z^d)^e for e >= 0, and (1 - count z^d)^e for e < 0, in
    count form under the weights of q, truncated at T."""
    if d < 1:
        raise ValueError("d must be positive")
    out = [1] + [0] * T
    if d <= T:
        out[d] = count if e >= 0 else -count
    return Series(T, out, q) ** e


def euler_factor(
    d: int, sizes: Callable[[int], int], step: int, T: int, q: Optional[int] = None
) -> Series:
    """1 + sum over m >= 1 with d*m*step <= T of sizes(m) z^(d*m*step), in
    count form under the weights of q."""
    if d < 1 or step < 1:
        raise ValueError("d and step must be positive")
    out = [1] + [0] * T
    for n in range(d * step, T + 1, d * step):
        out[n] = sizes(n // (d * step))
    return Series(T, out, q)


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
