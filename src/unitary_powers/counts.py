"""Counts of the polynomial families that drive the generating functions.

For q a prime power and the coefficient field F_q2:

  * N~(q, d)    -- SCIM polynomials of degree d (zero for even d; for odd d
                   they correspond to Frobenius orbits of norm-one elements
                   generating F_{q^(2d)});
  * N~_M(q, d)  -- the M~-power SCIM polynomials among them, by the closed
                   form (1 / (d * (M, q^d + 1))) * sum over l | d of
                   mu(l) * (M * (q^(2d/l) - 1), q^d + 1);
  * R~(q, d)    -- unordered pairs {g, g~} of non-self-conjugate irreducibles
                   of degree d with g(0) != 0;
  * R~_M(q, d)  -- the pairs whose members are M-power polynomials, by the
                   gcd closed form derived in `count_mpower_pairs`; the tests
                   pin it to a walk over the element orders of F_{q^(2d)}
                   and to factoring f(x^M) for every pair member;
  * S~'_M(d,q) = N~ - N~_M and S'_M(d,q) = R~ - R~_M, the non-power leftovers.

All counts are exact integers; internal divisibility, the even number of
non-SCIM irreducibles and the non-negative leftovers are checked, raising
`CountInvariantError`, so a misread formula fails loudly rather than
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from ._numth import EnumerationBoundError, divisors, mobius, prime_power

__all__ = [
    "CountInvariantError",
    "mobius",
    "count_scim",
    "count_mtilde_scim",
    "count_irreducible",
    "count_pairs",
    "count_mpower_pairs",
    "s_tilde_prime",
    "s_prime",
    "CountRecord",
    "count_record",
    "check_pair_field",
    "PAIR_FIELD_BOUND",
]

PAIR_FIELD_BOUND = 1 << 20


class CountInvariantError(RuntimeError):
    """A sum that must divide exactly did not, or a count exceeded the total
    it is part of; the count it guards cannot be trusted."""


def _exact_quotient(total: int, d: int, what: str) -> int:
    count, rem = divmod(total, d)
    if rem:
        raise CountInvariantError(f"{what}: {total} is not divisible by {d}")
    return count


def count_scim(q: int, d: int) -> int:
    """N~(q, d): SCIM polynomials of degree d over F_q2.

    (1/d) * sum over l | d of mu(l) * (q^(d/l) + 1) for odd d, else 0.
    """
    _validate(q, d)
    if d % 2 == 0:
        return 0
    total = sum(mobius(l) * (q ** (d // l) + 1) for l in divisors(d))
    return _exact_quotient(total, d, "SCIM count must be integral")


def count_mtilde_scim(q: int, d: int, M: int) -> int:
    """N~_M(q, d): M~-power SCIM polynomials of degree d.

    (1 / (d * (M, q^d + 1))) * sum over l | d of
    mu(l) * (M * (q^(2d/l) - 1), q^d + 1) for odd d, else 0.

    The Moebius sum counts norm-one elements b with b^M still generating
    F_{q^(2d)}; the power map on the norm-one circle is (M, q^d + 1)-to-one
    onto its image, whence the denominator.  M = 1 reproduces N~(q, d)
    (every polynomial is a first power), which the series builders use as
    the unrestricted baseline.
    """
    _validate(q, d, M)
    if d % 2 == 0:
        return 0
    total = sum(
        mobius(l) * gcd(M * (q ** (2 * d // l) - 1), q**d + 1) for l in divisors(d)
    )
    return _exact_quotient(
        total, d * gcd(M, q**d + 1), "M~-power SCIM count must be integral"
    )


def count_irreducible(Q: int, d: int) -> int:
    """Monic irreducibles of degree d over F_Q (necklace formula)."""
    if Q < 2 or d < 1:
        raise ValueError("need a field size Q >= 2 and degree d >= 1")
    total = sum(mobius(l) * Q ** (d // l) for l in divisors(d))
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
    """R~_M(q, d): pairs {g, g~} whose members are M-power polynomials.

    With Q = q^2, n = Q^d - 1 and P = n / (M, n):

      R~_M = (1/2d) [ sum over l | d of mu(l) (Q^(d/l) - 1, P)
                      - [d odd] sum over l | d of mu(l) (q^d + 1, Q^(d/l) - 1, P) ].

    A member g of degree d is the minimal polynomial over F_Q of d elements
    a of F_{Q^d}^* with F_Q(a) = F_{Q^d}, and g is an M-power polynomial iff
    a is an M-th power, i.e. lies in the subgroup of order P of the cyclic
    group F_{Q^d}^*.  That subgroup meets the subfield F_{Q^(d/l)} in its
    subgroup of order (Q^(d/l) - 1, P), so the first Moebius sum counts the
    M-th powers of degree exactly d.  Among them, g = g~ iff a^(-q) is a
    Frobenius conjugate a^(q^k); then k is odd and the q-Frobenius orbit of
    a, of length 2d, divides 2k but not k, which forces d odd and
    a^(q^d + 1) = 1.  The norm-one elements form the subgroup of order
    q^d + 1, and the second sum removes them in the same way.  What remains
    are the pair members, 2d elements per pair.
    """
    _validate(q, d, M)
    Q = q * q
    n = Q**d - 1
    P = n // gcd(M, n)
    total = 0
    for l in divisors(d):
        in_subfield = gcd(Q ** (d // l) - 1, P)
        if d % 2:
            in_subfield -= gcd(q**d + 1, in_subfield)
        total += mobius(l) * in_subfield
    return _exact_quotient(
        total, 2 * d, "pair-member element count must split into pairs of orbits"
    )


def check_pair_field(q: int, d: int):
    """Refuse pair degree d when q^(2d) exceeds `PAIR_FIELD_BOUND`.

    Count tables stop at d = 10, 6, 5, 4, 3 and series at T = 21, 13, 11, 9,
    7 for q = 2, 3, 4, 5 and 7-9.  The closed form above costs little at any
    d; the bound keeps the accepted inputs where the former enumeration put
    them until the series cost is modelled.
    """
    if q ** (2 * d) > PAIR_FIELD_BOUND:
        raise EnumerationBoundError(
            f"pair degree d={d} at q={q}: q^(2d) exceeds the bound {PAIR_FIELD_BOUND}"
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
    """One row of the count table for fixed (q, d, M)."""

    q: int
    d: int
    M: int
    n_tilde: int
    n_tilde_M: int
    r_tilde: int
    r_tilde_M: int
    s_tilde_prime: int
    s_prime: int

    def __post_init__(self):
        ok = (
            0 <= self.n_tilde_M <= self.n_tilde
            and 0 <= self.r_tilde_M <= self.r_tilde
            and self.s_tilde_prime == self.n_tilde - self.n_tilde_M
            and self.s_prime == self.r_tilde - self.r_tilde_M
        )
        if not ok:
            raise ValueError(f"inconsistent count record {self}")


def count_record(q: int, d: int, M: int) -> CountRecord:
    n = count_scim(q, d)
    n_M = count_mtilde_scim(q, d, M)
    r = count_pairs(q, d)
    check_pair_field(q, d)
    r_M = count_mpower_pairs(q, d, M)
    return CountRecord(q, d, M, n, n_M, r, r_M, _leftover(n, n_M), _leftover(r, r_M))


def _validate(q: int, d: int, M: int = 1):
    prime_power(q)  # raises for non-prime-powers
    if d < 1:
        raise ValueError(f"degree d = {d} must be positive")
    if M < 1:
        raise ValueError(f"M = {M} must be a positive integer")
