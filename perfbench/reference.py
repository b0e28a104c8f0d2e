"""Reference values for the benchmark's output checks.

Written from the formulas alone, with no import from `unitary_powers`, so
that a fault in the package cannot hide itself by also corrupting the value
it is checked against.  Everything is exact integer or `Fraction` arithmetic.

  group_order(n, q)        |GU(n, q)| = q^(n(n-1)/2) prod_i (q^i - (-1)^i)
  wall_class_number(n, q)  z^n coefficient of prod_{i>=1} (1+z^i)/(1-q z^i)
                           (G. E. Wall, 1963)
  necklace(Q, d)           monic irreducibles of degree d over F_Q
  scim_count(q, d)         N~: self-conjugate irreducible monics of degree d
  mtilde_scim_count        N~_M by the paper's Moebius formula
  pair_count(q, d)         R~: pairs {g, g~} of non-self-conjugate irreducibles
  mpower_pair_count        R~_M by a gcd closed form (see its docstring)
  class_series_m1          M = 1 class series (integer coefficients)
  elem_series_m1           M = 1 element-proportion series
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def mobius(n: int) -> int:
    exps = factorize(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def group_order(n: int, q: int) -> int:
    """|GU(n, q)|."""
    order = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        order *= q**i - (-1) ** i
    return order


def gl_order(m: int, Q: int) -> int:
    """|GL(m, Q)|."""
    order = 1
    for i in range(m):
        order *= Q**m - Q**i
    return order


def _mul(a: list, b: list, T: int) -> list:
    out = [0] * (T + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(T + 1 - i):
                out[i + j] += x * b[j]
    return out


def wall_class_number(n: int, q: int) -> int:
    """Number of conjugacy classes of GU(n, q)."""
    prod = [1] + [0] * n
    for i in range(1, n + 1):
        plus = [0] * (n + 1)  # 1 + z^i
        plus[0] = plus[i] = 1
        geo = [0] * (n + 1)  # 1 / (1 - q z^i)
        for j in range(0, n // i + 1):
            geo[i * j] = q**j
        prod = _mul(_mul(prod, plus, n), geo, n)
    return prod[n]


def necklace(Q: int, d: int) -> int:
    total = sum(mobius(l) * Q ** (d // l) for l in divisors(d))
    return total // d


def scim_count(q: int, d: int) -> int:
    """N~(q, d): zero for even d, else (1/d) sum_{l|d} mu(l) (q^(d/l) + 1)."""
    if d % 2 == 0:
        return 0
    return sum(mobius(l) * (q ** (d // l) + 1) for l in divisors(d)) // d


def mtilde_scim_count(q: int, d: int, M: int) -> int:
    """N~_M(q, d) = (1 / (d (M, q^d+1))) sum_{l|d} mu(l) (M (q^(2d/l) - 1), q^d + 1)
    for odd d, else 0."""
    if d % 2 == 0:
        return 0
    total = sum(mobius(l) * gcd(M * (q ** (2 * d // l) - 1), q**d + 1) for l in divisors(d))
    return total // (d * gcd(M, q**d + 1))


def pair_count(q: int, d: int) -> int:
    """R~(q, d): irreducibles of degree d over F_q2 other than t and the
    SCIMs, taken in tilde pairs."""
    return (necklace(q * q, d) - (d == 1) - scim_count(q, d)) // 2


def mpower_pair_count(q: int, d: int, M: int) -> int:
    """R~_M(q, d) with Q = q^2, n = Q^d - 1 and P = n / (M, n):

      (1/2d) [ sum_{l|d} mu(l) (Q^(d/l) - 1, P)
               - [d odd] sum_{l|d} mu(l) (q^d + 1, Q^(d/l) - 1, P) ].

    The first sum counts the degree-d elements of F_(Q^d)^* that are M-th
    powers (the M-th powers form the subgroup of order P); the second
    removes those whose minimal polynomial is self-conjugate, which for odd
    d are the norm-one ones.  Each pair accounts for 2d elements.
    """
    Q = q * q
    n = Q**d - 1
    P = n // gcd(M, n)
    total = sum(mobius(l) * gcd(Q ** (d // l) - 1, P) for l in divisors(d))
    if d % 2:
        total -= sum(
            mobius(l) * gcd(gcd(q**d + 1, Q ** (d // l) - 1), P) for l in divisors(d)
        )
    return total // (2 * d)


def count_row(q: int, d: int, M: int) -> dict:
    """One row of the `counts` table, keyed like the CLI's columns."""
    n, n_M = scim_count(q, d), mtilde_scim_count(q, d, M)
    r, r_M = pair_count(q, d), mpower_pair_count(q, d, M)
    return {
        "q": q, "d": d, "M": M, "N_tilde": n, "N_tilde_M": n_M,
        "R_tilde": r, "R_tilde_M": r_M, "S_tilde_prime": n - n_M, "S_prime": r - r_M,
    }


def _power(factor: list, e: int, T: int) -> list:
    """factor^e for a truncated series with factor[0] == 1, by J. C. P.
    Miller's recurrence g_k = (1/k) sum_{j=1..k} ((e+1) j - k) f_j g_(k-j)."""
    g = [Fraction(0)] * (T + 1)
    g[0] = Fraction(1)
    for k in range(1, T + 1):
        acc = sum(((e + 1) * j - k) * factor[j] * g[k - j] for j in range(1, k + 1) if factor[j])
        g[k] = Fraction(acc) / k
    return g


def _product(q: int, T: int, scim_terms, pair_terms) -> list:
    """prod over SCIM degrees d of F_d(z)^N~ and pair degrees d of G_d(z)^R~,
    where F_d and G_d have the coefficient term(m) at z^(d m), resp. z^(2 d m)."""
    out = [Fraction(1)] + [Fraction(0)] * T
    for d in range(1, T + 1):
        factors = ((d, scim_terms, scim_count(q, d)), (2 * d, pair_terms, pair_count(q, d)))
        for step, terms, e in factors:
            if step > T or not e:
                continue
            f = [Fraction(0)] * (T + 1)
            f[0] = Fraction(1)
            for m in range(1, T // step + 1):
                f[step * m] = Fraction(terms(d, m))
            out = _mul(out, _power(f, e, T), T)
    return out


def class_series_m1(q: int, T: int, family: str) -> list[int]:
    """z^0..z^T coefficients: separable ("sep") or cyclic ("cyc") classes of
    GU(n, q).  Semisimple classes are as many as cyclic ones (both biject
    with the self-conjugate characteristic polynomials), so "ss" gives the
    cyclic series."""
    if family == "sep":
        coeffs = _product(q, T, lambda d, m: int(m == 1), lambda d, m: int(m == 1))
    else:
        coeffs = _product(q, T, lambda d, m: 1, lambda d, m: 1)
    return [int(c) for c in coeffs]


def elem_series_m1(q: int, T: int, family: str) -> list[Fraction]:
    """z^0..z^T coefficients: proportion of GU(n, q) that is separable,
    cyclic or semisimple, as sums of reciprocal centraliser orders."""
    if family == "sep":
        scim = lambda d, m: Fraction(1, q**d + 1) if m == 1 else 0
        pair = lambda d, m: Fraction(1, q ** (2 * d) - 1) if m == 1 else 0
    elif family == "cyc":
        scim = lambda d, m: Fraction(1, q ** (d * (m - 1)) * (q**d + 1))
        pair = lambda d, m: Fraction(1, q ** (2 * d * (m - 1)) * (q ** (2 * d) - 1))
    else:
        scim = lambda d, m: Fraction(1, group_order(m, q**d))
        pair = lambda d, m: Fraction(1, gl_order(m, q ** (2 * d)))
    return _product(q, T, scim, pair)
