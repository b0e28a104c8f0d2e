"""Counts of the polynomial families that drive the generating functions.

Let q be a prime power, Q = q^2 and F_Q = F_q2.  A monic irreducible of
degree d over F_Q, t aside, is the minimal polynomial of one Frobenius
orbit of d elements a of F_{Q^d}^* with F_Q(a) = F_{Q^d}.  The cyclic group
F_{Q^d}^* has one subgroup of order h for each h | Q^d - 1, and it meets
the subfield F_{Q^(d/l)} in the subgroup of order (Q^(d/l) - 1, h).
Moebius inversion over the subfields gives the number of its elements of
degree exactly d over F_Q:

    E(Q, d, h) = sum over l | d of mu(l) * (Q^(d/l) - 1, h)   (`_exact_degree`).

Every count is E over an orbit length.  With n = q^d + 1, N = Q^d - 1 and
P = N / (M, N):

    count                subgroup, of order h                   orbit length
    I(Q, d) irreducible  F_{Q^d}^* (N), plus t when d = 1       d
    N~(q, d) SCIM        the norm-one circle (n), d odd         d
    N~_M(q, d)           M-th powers in the circle (n/(M, n))   d
    R~_M(q, d) pairs     M-th powers (P), less (n, P) if d odd  2d

An irreducible g equals its conjugate reciprocal g~ iff a^(-1) = a^(q^k)
for some odd k; then the length 2d of the q-Frobenius orbit of a divides
2k but not k, which forces d odd and a^n = 1.  So the SCIMs (self-conjugate
irreducible monics) of degree d are the orbits in the circle, and even d
has none.  A SCIM is an M~-power, and a pair member an M-power polynomial,
iff a is an M-th power in the circle, resp. in F_{Q^d}^*.  A pair {g, g~}
holds two orbits.  R~(q, d), all pairs with g(0) != 0, is
(I(Q, d) - [d = 1] - N~(q, d)) / 2, which checks the necklace count against
the SCIM count.  Each sum equals the paper's form term by term:
(M x, n) = (M, n) (x, n / (M, n)) by p-adic valuations,
(q^(2j) - 1, n) = q^j + 1 when d / j is odd, and sum of mu(l) = [d = 1].
S~'_M = N~ - N~_M and S'_M = R~ - R~_M are the non-power leftovers.

All counts are exact integers; internal divisibility, the even number of
non-SCIM irreducibles and the non-negative leftovers are checked, raising
`CountInvariantError`, so a misread formula fails loudly rather than
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, prod

from ._numth import InvariantError, prime_factors, prime_power

__all__ = [
    "CountInvariantError",
    "count_scim",
    "count_mtilde_scim",
    "count_irreducible",
    "count_pairs",
    "count_mpower_pairs",
    "s_tilde_prime",
    "s_prime",
    "CountRecord",
    "count_record",
]


class CountInvariantError(InvariantError):
    """A sum that must divide exactly did not, or a count exceeded the total
    it is part of; the count it guards cannot be trusted."""


def _exact_quotient(total: int, d: int, what: str) -> int:
    count, rem = divmod(total, d)
    if rem:
        raise CountInvariantError(f"{what}: {total} is not divisible by {d}")
    return count


def _exact_degree(Q: int, d: int, h: int) -> int:
    """E(Q, d, h): elements of degree exactly d over F_Q in the subgroup of
    order h of F_{Q^d}^*, for h | Q^d - 1 (see the module docstring)."""
    # mu(l) vanishes off the squarefree l, the products of subsets of the
    # primes of d, and is (-1)^(subset size) on them
    primes, total = prime_factors(d), 0
    for r in range(len(primes) + 1):
        for subset in combinations(primes, r):
            total += (-1) ** r * gcd(Q ** (d // prod(subset)) - 1, h)
    return total


def count_scim(q: int, d: int) -> int:
    """N~(q, d): SCIM polynomials of degree d over F_q2, on the norm-one
    circle; it is N~_1(q, d).  The memoir's form: (1/d) * sum over l | d of
    mu(l) * (q^(d/l) + 1) for odd d, else 0."""
    return count_mtilde_scim(q, d, 1)


def count_mtilde_scim(q: int, d: int, M: int) -> int:
    """N~_M(q, d): M~-power SCIM polynomials of degree d, on the M-th powers
    in the norm-one circle.  The paper's form: (1 / (d * (M, q^d + 1))) *
    sum over l | d of mu(l) * (M * (q^(2d/l) - 1), q^d + 1) for odd d, else 0."""
    _validate(q, d, M)
    if d % 2 == 0:
        return 0
    n = q**d + 1
    total = _exact_degree(q * q, d, n // gcd(M, n))
    return _exact_quotient(total, d, "M~-power SCIM count must be integral")


def count_irreducible(Q: int, d: int) -> int:
    """Monic irreducibles of degree d over F_Q, on all of F_{Q^d}^*, plus t
    in degree 1.  The necklace form: (1/d) * sum over l | d of mu(l) * Q^(d/l)."""
    if Q < 2 or d < 1:
        raise ValueError("need a field size Q >= 2 and degree d >= 1")
    total = _exact_degree(Q, d, Q**d - 1) + (1 if d == 1 else 0)
    return _exact_quotient(total, d, "irreducible count must be integral")


def count_pairs(q: int, d: int) -> int:
    """R~(q, d): unordered pairs {g, g~} with g irreducible of degree d,
    g(0) != 0 and g != g~.  The polynomial t is removed in degree 1."""
    _validate(q, d)
    loose = count_irreducible(q * q, d) - (1 if d == 1 else 0) - count_scim(q, d)
    count, rem = divmod(loose, 2)
    if rem:
        raise CountInvariantError(f"non-SCIM irreducible count {loose} is odd")
    return count


def count_mpower_pairs(q: int, d: int, M: int) -> int:
    """R~_M(q, d): pairs {g, g~} whose members are M-power polynomials, on
    the M-th powers of F_{Q^d}^* less, for odd d, their norm-one part.  With
    Q = q^2, N = Q^d - 1 and P = N / (M, N), the paper's form:

      (1/2d) [ sum over l | d of mu(l) (Q^(d/l) - 1, P)
               - [d odd] sum over l | d of mu(l) (q^d + 1, Q^(d/l) - 1, P) ].
    """
    _validate(q, d, M)
    Q = q * q
    N = Q**d - 1
    P = N // gcd(M, N)
    total = _exact_degree(Q, d, P)
    if d % 2:
        total -= _exact_degree(Q, d, gcd(q**d + 1, P))
    return _exact_quotient(
        total, 2 * d, "pair-member element count must split into pairs of orbits"
    )


def _leftover(total: int, powers: int) -> int:
    if powers > total:
        raise CountInvariantError(f"power count {powers} exceeds the total {total}")
    return total - powers


def s_tilde_prime(q: int, d: int, M: int) -> int:
    """S~'_M(d, q) = N~(q, d) - N~_M(q, d): SCIM but not M~-power."""
    return _leftover(count_scim(q, d), count_mtilde_scim(q, d, M))


def s_prime(q: int, d: int, M: int) -> int:
    """S'_M(d, q) = R~(q, d) - R~_M(q, d): pairs that are not M-power."""
    return _leftover(count_pairs(q, d), count_mpower_pairs(q, d, M))


@dataclass(frozen=True)
class CountRecord:
    """One row of the count table for fixed (q, d, M): the counted fields in
    column order, then the leftovers S~'_M and S'_M, read through
    `_leftover`."""

    q: int
    d: int
    M: int
    n_tilde: int
    n_tilde_M: int
    r_tilde: int
    r_tilde_M: int

    @property
    def s_tilde_prime(self) -> int:
        return _leftover(self.n_tilde, self.n_tilde_M)

    @property
    def s_prime(self) -> int:
        return _leftover(self.r_tilde, self.r_tilde_M)


def count_record(q: int, d: int, M: int) -> CountRecord:
    return CountRecord(q, d, M, count_scim(q, d), count_mtilde_scim(q, d, M),
                       count_pairs(q, d), count_mpower_pairs(q, d, M))


def _validate(q: int, d: int, M: int = 1):
    prime_power(q)  # raises for non-prime-powers
    if d < 1:
        raise ValueError(f"degree d = {d} must be positive")
    if M < 1:
        raise ValueError(f"M = {M} must be a positive integer")
