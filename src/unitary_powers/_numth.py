"""Small integer number-theory helpers shared across the package.

Everything here is exact integer arithmetic on desk-scale inputs (trial
division is plenty fast for the field and group sizes this library handles).
Two helpers are generic in the element type, so each job has one loop:
`power(x, e, mul)` is the package's square-and-multiply (matrices,
polynomials modulo f, field codes), and `order_dividing(t, is_one)` is its
order loop (`mult_order`, `polyalg.root_order`).
"""

from __future__ import annotations

import math


class EnumerationBoundError(RuntimeError):
    """An exhaustive computation was refused because it exceeds its size bound."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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


def mobius(n: int) -> int:
    """Moebius function: (-1)^k on squarefree n with k prime factors, else 0."""
    if n < 1:
        raise ValueError(f"mobius undefined for {n}")
    out = 1
    for _, e in factorint(n).items():
        if e > 1:
            return 0
        out = -out
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


def prime_power(n: int) -> tuple[int, int]:
    """Write n = p^l with p prime, or raise ValueError."""
    if n < 2:
        raise ValueError(f"{n} is not a prime power")
    fac = factorint(n)
    if len(fac) != 1:
        raise ValueError(f"{n} is not a prime power")
    ((p, l),) = fac.items()
    return p, l
