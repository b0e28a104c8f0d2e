"""Exact arithmetic in F_q2, the field that U(n, q) is defined over.

F_q2 (q = p^l) is modelled as F_p[x]/(m) for a fixed monic irreducible m of
degree 2l.  To make every downstream count reproducible, m is the
lexicographically least monic irreducible of that degree, comparing
coefficient vectors from the constant term upward; trial division finds it,
as the least candidate with m(0) != 0 and no monic divisor of degree 1 .. l.

Elements are stored as integer codes in [0, q^2): the base-p digits of a code
are the coordinates over F_p, constant coordinate first.  `FieldDesc(p, l)`
checks its arguments before it builds anything: p must be prime
(`ValueError`), l positive (`ValueError`), and the field at most
`FIELD_BOUND` = 2^20 elements (`EnumerationBoundError`).  It then builds
three discrete-log tables, and all arithmetic reads them: multiplication
adds logarithms, addition is XOR in characteristic 2 and uses Zech
logarithms otherwise.  Polynomial arithmetic over F_p only finds the modulus
(trial division) and the generator g (`_pow_raw`, the package's
square-and-multiply on products modulo m); the powers of g are then walked
through the precomputed columns g * x^i mod m of the F_p-linear map a -> g a.

The tables are public, for kernels that inline the arithmetic (the
polynomial kernels of `polyalg`).  With Q = q^2 and n = Q - 1:

  * `log_table[a]` is the discrete log of a nonzero code a, in [0, n);
    `log_table[0]` is -1.
  * `exp_table[i]` is g^i, over two periods (length 2n), so the sum of two
    logs indexes it without reduction.
  * `zech_table[t]` is log(1 + g^t), or -1 where 1 + g^t = 0; it also runs
    over two periods, so a difference t in (-n, 2n) of logs indexes it
    directly (negative t through Python's negative indices).  Then
    g^a + g^b = g^(a + zech_table[b - a]), or 0 where that entry is -1.
    It is None in characteristic 2, where addition is XOR.

Negation and conjugation read the same tables, with 0 mapped to 0: for odd
p, -1 = g^(n / 2), so -a = `exp_table[log_table[a] + n // 2]`; in
characteristic 2, -a = a.  The conjugation a -> a^q is
`exp_table[log_table[a] * q % n]`; it is the involution of F_q2 with fixed
field F_q.  The norm-one circle {a : a^(q + 1) = 1} is U(1, q), a cyclic
group of q + 1 elements.

A model that breaks a finite-field invariant while it is set up (no
irreducible modulus, no primitive element, a power walk that does not close)
raises `FieldInvariantError`, which survives `python -O`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import mul

from ._numth import EnumerationBoundError, is_prime, power, prime_factors

__all__ = [
    "FIELD_BOUND",
    "FieldInvariantError",
    "FieldDesc",
    "FieldElem",
    "make_field",
]

FIELD_BOUND = 1 << 20  # largest field `FieldDesc` builds, tables included


class FieldInvariantError(RuntimeError):
    """The field model broke an invariant of finite fields (no irreducible
    modulus, no primitive element, or a power walk that does not close); its
    arithmetic cannot be trusted."""


# ----------------------------------------------------------------------
# dense polynomial arithmetic over F_p: coefficient tuples, constant first
# ----------------------------------------------------------------------

def _ptrim(c):
    i = len(c)
    while i and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, b, p):
    a = list(a)
    db = len(b) - 1
    inv_lb = pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            f = (c * inv_lb) % p
            for j, bj in enumerate(b):
                a[i - db + j] = (a[i - db + j] - f * bj) % p
    return _ptrim(a[:db])


def _least_irreducible(p, degree):
    """Lexicographically least monic irreducible of the given degree over F_p.

    Coefficient vectors (c0, c1, ...) are compared from the constant term
    upward.  By definition, the modulus is the first candidate with c0 != 0
    (else x divides it) that no monic polynomial of degree 1 .. degree // 2
    divides: a reducible polynomial has a factor of at most half its degree.
    Divisors g with g(0) = 0 are skipped: they cannot divide an f with f(0) != 0.
    """
    divisors = [
        tail + (1,)
        for k in range(1, degree // 2 + 1)
        for tail in itertools.product(range(p), repeat=k)
        if tail[0]
    ]
    for tail in itertools.product(range(p), repeat=degree):
        if tail[0] == 0:
            continue
        f = tail + (1,)
        if all(_pmod(f, g, p) for g in divisors):
            return f
    raise FieldInvariantError(f"no monic irreducible of degree {degree} over F_{p}")


# ----------------------------------------------------------------------
# field descriptors and elements
# ----------------------------------------------------------------------

class FieldDesc:
    """Concrete model of F_q2 as F_p[x]/(modulus), elements as int codes.

    All arithmetic is exposed at code level (`add_c`, `mul_c`, ...) so hot
    loops can bind the methods locally, and the tables behind it are public
    (`log_table`, `exp_table`, `zech_table`; layout in the module docstring)
    for kernels that inline it; `FieldElem` wraps a code for the value-level
    API.
    """

    def __init__(self, p: int, l: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if l < 1:
            raise ValueError(f"exponent l = {l} must be positive")
        if p ** (2 * l) > FIELD_BOUND:
            raise EnumerationBoundError(
                f"field with {p}^{2 * l} elements exceeds the bound {FIELD_BOUND}"
            )
        self.p = p
        self.l = l
        self.q = p**l
        self.degree = 2 * l
        self.order = p**self.degree
        self.modulus = _least_irreducible(self.p, self.degree)
        self._ensure_tables()

    # -- code <-> coordinate conversions ---------------------------------

    def coords_of(self, code: int) -> tuple[int, ...]:
        p, out = self.p, []
        for _ in range(self.degree):
            out.append(code % p)
            code //= p
        return tuple(out)

    def code_of(self, coords) -> int:
        coords = tuple(coords)
        if len(coords) > self.degree:
            raise ValueError("coordinate vector too long")
        code = 0
        for c in reversed(coords):
            code = code * self.p + c % self.p
        return code

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def elements(self):
        return (FieldElem(self, c) for c in range(self.order))

    # -- polynomial arithmetic modulo the modulus (table bootstrap) -------

    def _mul_raw(self, a: int, b: int) -> int:
        prod = _pmul(_ptrim(self.coords_of(a)), _ptrim(self.coords_of(b)), self.p)
        return self.code_of(_pmod(prod, self.modulus, self.p))

    def _pow_raw(self, a: int, e: int) -> int:
        return power(a, e, self._mul_raw) if e else 1

    # -- discrete-log tables ----------------------------------------------

    def _ensure_tables(self):
        """Build the discrete-log tables from the modulus (layout in the
        module docstring); a second call builds them again, with every check.

        Multiplying by the generator is the F_p-linear map whose columns are
        gen * x^i mod m, so no step of the power walk reduces a polynomial:
        a step costs degree^2 small products.
        """
        n = self.order - 1
        gen = None
        for cand in range(2, self.order):
            if all(self._pow_raw(cand, n // r) != 1 for r in prime_factors(n)):
                gen = cand
                break
        if gen is None:
            raise FieldInvariantError(
                f"no primitive element modulo {self.modulus}; the multiplicative "
                "group of a finite field is cyclic"
            )
        p, degree = self.p, self.degree
        columns = [self._mul_raw(gen, p**i) for i in range(degree)]  # gen * x^i
        v, exp, log = 1, [0] * n, [-1] * self.order
        # rows[k][i]: coordinate k of gen * x^i
        rows = list(zip(*map(self.coords_of, columns)))
        place = [p**i for i in range(degree)]
        coords = [1] + [0] * (degree - 1)
        for i in range(n):
            exp[i], log[v] = v, i
            coords = [sum(map(mul, coords, row)) % p for row in rows]
            v = sum(map(mul, coords, place))
        if v != 1:
            raise FieldInvariantError(
                f"the powers of the primitive element {gen} modulo {self.modulus} "
                f"do not return to 1 after {n} steps"
            )
        self.log_table, self.zech_table = log, None
        if p > 2:
            self.zech_table = [log[self._incr_const(v)] for v in exp]
            self.zech_table *= 2
        exp *= 2
        self.exp_table = exp

    def _incr_const(self, code: int) -> int:
        c0 = code % self.p
        return code - c0 + (c0 + 1) % self.p

    # -- code-level field operations --------------------------------------

    def add_c(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        la = self.log_table[a]
        t = self.zech_table[self.log_table[b] - la]
        return self.exp_table[la + t] if t >= 0 else 0

    def neg_c(self, a: int) -> int:
        if self.p == 2 or a == 0:
            return a
        return self.exp_table[self.log_table[a] + (self.order - 1) // 2]  # -1 = g^(n / 2)

    def sub_c(self, a: int, b: int) -> int:
        return self.add_c(a, self.neg_c(b))

    def mul_c(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp_table[self.log_table[a] + self.log_table[b]]

    def inv_c(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.exp_table[self.order - 1 - self.log_table[a]]

    def pow_c(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero field element")
            return 0 if e else 1
        return self.exp_table[self.log_table[a] * e % (self.order - 1)]

    def conj_c(self, a: int) -> int:
        if a == 0:
            return 0
        return self.exp_table[self.log_table[a] * self.q % (self.order - 1)]

    def __repr__(self):
        return f"FieldDesc(GF({self.order}) = GF({self.q}^2))"


class FieldElem:
    """An element of a `FieldDesc` field, wrapping its integer code.

    Integers mix in as codes (codes below p are the prime-field elements,
    so small literals mean what they look like).
    """

    __slots__ = ("desc", "code")

    def __init__(self, desc: FieldDesc, code: int):
        self.desc = desc
        self.code = code

    @property
    def coords(self) -> tuple[int, ...]:
        return self.desc.coords_of(self.code)

    def _code(self, other) -> int:
        if isinstance(other, FieldElem):
            if other.desc is not self.desc:
                raise ValueError("field elements from different fields")
            return other.code
        if isinstance(other, int):
            if not 0 <= other < self.desc.order:
                raise ValueError(f"code {other} out of range")
            return other
        return NotImplemented

    def __add__(self, other):
        c = self._code(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElem(self.desc, self.desc.add_c(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._code(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElem(self.desc, self.desc.sub_c(self.code, c))

    def __rsub__(self, other):
        c = self._code(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElem(self.desc, self.desc.sub_c(c, self.code))

    def __mul__(self, other):
        c = self._code(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElem(self.desc, self.desc.mul_c(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._code(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElem(self.desc, self.desc.mul_c(self.code, self.desc.inv_c(c)))

    def __neg__(self):
        return FieldElem(self.desc, self.desc.neg_c(self.code))

    def __pow__(self, e: int):
        return FieldElem(self.desc, self.desc.pow_c(self.code, e))

    def inverse(self):
        return FieldElem(self.desc, self.desc.inv_c(self.code))

    def conj(self):
        return FieldElem(self.desc, self.desc.conj_c(self.code))

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.desc is other.desc and self.code == other.code
        if isinstance(other, int):
            return self.code == other
        return NotImplemented

    def __hash__(self):
        return hash((id(self.desc), self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return f"FieldElem(GF({self.desc.order}), {self.code})"


# ----------------------------------------------------------------------
# the cached constructor
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _field(p: int, l: int) -> FieldDesc:
    """The cached descriptor of F_q2.  Unbounded on purpose: elements and
    polynomials compare their descriptors by identity, so evicting one would
    make a later `make_field` return a second, incompatible copy."""
    return FieldDesc(p, l)


def make_field(p: int, l: int, k: int) -> FieldDesc:
    """The deterministic descriptor of F_q2 for q = p^l.

    `k`, the degree of the field over F_q2, must be 1: only F_q2 is modelled.
    Repeated calls with equal arguments return the identical (cached) object,
    so element descriptors can be compared by identity.  `FieldDesc` checks
    p and l, and refuses fields above `FIELD_BOUND` elements.
    """
    if k != 1:
        raise ValueError(f"only F_q2 is modelled (k = 1), not k = {k}")
    return _field(p, l)
