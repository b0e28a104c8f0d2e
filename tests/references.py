"""Test-side references: the functions that only the tests call, stated on
the package's own primitives, so that the package ships only what its
commands run."""

import itertools
from math import gcd, prod

from unitary_powers import genfun
from unitary_powers._numth import factorint, order_dividing
from unitary_powers.oracle import (
    MatrixClassKind,
    _kind_of_partitions,
    block_matrix,
    char_poly,
    companion,
    gl_class_data,
)
from unitary_powers.polyalg import FactorisationError, Poly, is_irreducible, pow_mod, tilde


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


def mult_order(a: int, n: int) -> int:
    """Multiplicative order of a modulo n (order of a in (Z/n)^*); n = 1
    gives 1."""
    if n < 1:
        raise ValueError(f"invalid modulus {n}")
    if n == 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not invertible modulo {n}")
    return order_dividing(euler_phi(n), lambda k: pow(a, k, n) == 1)


def order_by_walk(x, mul, one) -> int:
    """The order of x under mul, by repeated multiplication."""
    k, y = 1, x
    while y != one:
        y, k = mul(y, x), k + 1
    return k


def elem_of_order(desc, k: int) -> int:
    """The least field code of multiplicative order k."""
    return next(a for a in range(1, desc.order) if order_by_walk(a, desc.mul_c, 1) == k)


def monic_polys(desc, degree: int):
    """All monic polynomials of the given degree, in lexicographic order
    on the constant-first coefficient vector."""
    for tail in itertools.product(range(desc.order), repeat=degree):
        yield Poly(desc, tail + (1,))


def root_order(f: Poly) -> int:
    """Multiplicative order of the roots of an irreducible f != t
    (the order of t in the field F_Q[t]/(f))."""
    if not is_irreducible(f) or f.codes[0] == 0:
        raise ValueError("root order needs an irreducible polynomial with f(0) != 0")
    f = f.monic()
    one, x = Poly.one(f.desc), Poly.t(f.desc)
    return order_dividing(f.desc.order**f.degree - 1, lambda k: pow_mod(x, k, f) == one)


def butler_pattern(d: int, t: int, m: int, Q: int) -> tuple[tuple[int, int], ...]:
    """Predicted factor degrees of f(x^m) for an irreducible f of degree d
    over F_Q whose roots have multiplicative order t.

    Split m = m1*m2 with gcd(m1, t) = 1 and every prime of m2 dividing t.
    For each divisor e of m1 there are d*m2*phi(e)/ord_Q(e*m2*t) irreducible
    factors, each of degree ord_Q(e*m2*t) (ord_Q(s) = multiplicative order of
    Q modulo s).  Returned as ((degree, count), ...) with one entry per
    divisor, sorted.
    """
    if d < 1 or t < 1 or m < 1:
        raise ValueError("d, t, m must be positive")
    if gcd(m, Q) != 1:
        raise ValueError(f"butler_pattern requires gcd(m, Q) = 1, got m={m}, Q={Q}")
    m1, m2 = 1, 1
    for p, e in factorint(m).items():
        if t % p == 0:
            m2 *= p**e
        else:
            m1 *= p**e
    out = []
    for e in divisors(m1):
        deg = mult_order(Q, e * m2 * t)
        count, rem = divmod(d * m2 * euler_phi(e), deg)
        if rem:
            raise FactorisationError(f"factor count {d * m2 * euler_phi(e)}/{deg} is not integral")
        out.append((deg, count))
    return tuple(sorted(out))


def classify_matrix(A) -> MatrixClassKind:
    """Separable / cyclic / semisimple flags of an invertible matrix.

    Separable means squarefree characteristic polynomial (all partitions
    [1]); semisimple means squarefree minimal polynomial (all-ones
    partitions); cyclic means minimal = characteristic (single-part
    partitions)."""
    return _kind_of_partitions(lam for _, lam in gl_class_data(A))


def check_block_power(f: Poly, m: int, M: int) -> bool:
    """Does U(f, m)^M land in the GL-class of U(g, m), for g the
    characteristic polynomial of C_f^M?

    Needs gcd(M, q) = 1 and irreducible f with f(0) != 0.  When C_f^M is not
    cyclic (the powered eigenvalues drop degree), no companion matrix is
    similar to it, there is no such g to compare against, and the statement
    holds vacuously."""
    desc = f.desc
    if gcd(M, desc.q) != 1:
        raise ValueError(f"block power check requires gcd(M, q) = 1, got M={M}, q={desc.q}")
    if not is_irreducible(f) or f.codes[0] == 0:
        raise ValueError("block power check requires an irreducible f with f(0) != 0")
    B = companion(f) ** M
    if not classify_matrix(B).cyclic:
        return True
    g = char_poly(B)
    return gl_class_data(block_matrix(f, m) ** M) == gl_class_data(block_matrix(g, m))


def centralizer_order(datum, q: int) -> int:
    """|C_U(A)| for a conjugacy datum whose partitions are each [m] or [1^m]:
    the product over the stored polynomials (SCIM, or the canonical member
    of a pair) of `genfun._block_centraliser`, which refuses any other
    partition."""
    items = datum.items()
    if any(p.desc.q != q for p, _ in items):
        raise ValueError("conjugacy datum does not live over F_q2 for this q")
    return prod(genfun._block_centraliser(q, phi.degree, tilde(phi) != phi, lam)
                for phi, lam in items)
