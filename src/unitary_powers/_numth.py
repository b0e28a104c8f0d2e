"""Small integer number-theory helpers shared across the package.

Everything here is exact integer arithmetic.  `factorint` is trial division,
plenty fast for the degrees and orders it is given; `is_prime` (Miller-Rabin,
exact below 3.3 * 10^24) and `prime_power`, which see q and M as given, take
time polynomial in log n.
Two helpers are generic in the element type, so each job has one loop:
`power(x, e, mul)` is the package's square-and-multiply (matrices,
polynomials modulo f, field codes), and `order_dividing(t, is_one)` is its
order loop (`mult_order`, `polyalg.root_order`, the oracle's unipotent
seeds).  The two error bases that every layer shares live here too:
`EnumerationBoundError` for refused sizes and `InvariantError` for failed
result checks.
"""

from __future__ import annotations

import math
from functools import lru_cache


class EnumerationBoundError(RuntimeError):
    """An exhaustive computation was refused because it exceeds its size bound."""


class InvariantError(RuntimeError):
    """A check that guards a result failed; the base of every layer's
    invariant error (field, factorisation, count, series, oracle)."""


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin over the prime bases 2..41, exact below
    `_PRIME_TEST_BOUND` (Sorenson and Webster, 2015); above it a number
    with no factor among the bases raises `EnumerationBoundError`."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    if n >= _PRIME_TEST_BOUND:
        raise EnumerationBoundError(f"{n} is beyond the exact primality bound")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    for b in _PRIME_BASES:  # b^d = 1 or b^(2^k d) = -1 for some k < s, d = (n-1)/2^s
        x = pow(b, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 1 << k, n) for k in range(s)):
            return False
    return True


def factorint(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_factors(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorint(n)))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    out = n
    for p in factorint(n):
        out -= out // p
    return out


def power(x, e: int, mul):
    """x^e for e >= 1, by square-and-multiply with the product `mul`.

    The walk starts at the lowest set bit of e, so the identity is never a
    factor and no product is spent on it."""
    if e < 1:
        raise ValueError(f"exponent {e} must be positive")
    while not e & 1:
        x = mul(x, x)
        e >>= 1
    result = x
    e >>= 1
    while e:
        x = mul(x, x)
        if e & 1:
            result = mul(result, x)
        e >>= 1
    return result


def order_dividing(t: int, is_one) -> int:
    """The order of an element whose t-th power is 1 (t >= 1), where
    `is_one(k)` says whether its k-th power is 1: each prime is stripped
    from t while the power stays 1."""
    for p in prime_factors(t):
        while t % p == 0 and is_one(t // p):
            t //= p
    return t


def mult_order(a: int, n: int) -> int:
    """Multiplicative order of a modulo n (order of a in (Z/n)^*).

    n = 1 is allowed and gives 1.
    """
    if n < 1:
        raise ValueError(f"invalid modulus {n}")
    if n == 1:
        return 1
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not invertible modulo {n}")
    return order_dividing(euler_phi(n), lambda k: pow(a, k, n) == 1)


@lru_cache(maxsize=256)
def prime_power(n: int) -> tuple[int, int]:
    """Write n = p^l with p prime, or raise ValueError.  A composite p^l has
    l as its largest exponent with an exact integer root, and p as that root.
    Memoised (bounded), since every count validates its q; a refusal is an
    exception, which the cache does not keep, so it is raised on every call."""
    if is_prime(n):
        return n, 1
    for l in range(n.bit_length() - 1, 1, -1):
        p = 0  # the integer l-th root of n, bit by bit
        for b in reversed(range(n.bit_length() // l + 1)):
            if (p | 1 << b) ** l <= n:
                p |= 1 << b
        if p**l == n:
            if is_prime(p):
                return p, l
            break
    raise ValueError(f"{n} is not a prime power")
