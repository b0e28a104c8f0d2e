"""Exact arithmetic in F_q2, the field that U(n, q) is defined over.

F_q2 (q = p^l) is modelled as F_p[x]/(m) for a fixed monic irreducible m of
degree 2l.  To make every downstream count reproducible, m is the
lexicographically least monic irreducible of that degree, comparing
coefficient vectors from the constant term upward.

Elements are stored as integer codes in [0, q^2): the base-p digits of a code
are the coordinates over F_p, constant coordinate first.  Every field that
`make_field` admits (at most `FIELD_BOUND` = 2^20 elements) builds its
discrete-log tables when it is constructed, and all arithmetic runs on them:
multiplication adds logarithms, addition is XOR in characteristic 2 and uses
Zech logarithms otherwise.  Polynomial arithmetic modulo m only finds the
modulus and the generator g; the powers of g are then walked through the
precomputed columns g * x^i mod m of the F_p-linear map a -> g a.

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
    It is None in characteristic 2, where addition is XOR; for odd p,
    -1 = g^(n / 2).

The conjugation a -> a^q is the involution of F_q2 with fixed field F_q.  The
norm-one circle {a : a^(q + 1) = 1} is U(1, q), a cyclic group of q + 1
elements.

A model that breaks a finite-field invariant while it is set up (no
irreducible modulus, no primitive element, a power walk that does not close)
raises `FieldInvariantError`, which survives `python -O`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from ._numth import EnumerationBoundError, is_prime, prime_factors

__all__ = [
    "FIELD_BOUND",
    "FieldInvariantError",
    "PrimePower",
    "FieldDesc",
    "FieldElem",
    "make_field",
    "conj",
    "power_map",
]

FIELD_BOUND = 1 << 20  # largest field `make_field` builds, tables included


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


def _psub(a, b, p):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)]
    return _ptrim(out)


def _ppowmod(a, e, m, p):
    r = (1,)
    a = _pmod(a, m, p)
    while e:
        if e & 1:
            r = _pmod(_pmul(r, a, p), m, p)
        a = _pmod(_pmul(a, a, p), m, p)
        e >>= 1
    return r


def _pgcd(a, b, p):
    while b:
        a, b = b, _pmod(a, b, p)
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = tuple((c * inv) % p for c in a)
    return a


def _p_irreducible(f, p):
    """Rabin irreducibility test for monic f over F_p, deg f >= 1."""
    d = len(f) - 1
    if d == 1:
        return True
    x = (0, 1)
    if _ppowmod(x, p**d, f, p) != _pmod(x, f, p):
        return False
    for r in prime_factors(d):
        h = _psub(_ppowmod(x, p ** (d // r), f, p), x, p)
        if len(_pgcd(h, f, p)) > 1:
            return False
    return True


def _least_irreducible(p, degree):
    """Lexicographically least monic irreducible of the given degree over F_p.

    Coefficient vectors (c0, c1, ...) are compared from the constant term
    upward; candidates with c0 = 0 are divisible by x and skipped.
    """
    for tail in itertools.product(range(p), repeat=degree):
        if tail[0] == 0:
            continue
        f = tail + (1,)
        if _p_irreducible(f, p):
            return f
    raise FieldInvariantError(f"no monic irreducible of degree {degree} over F_{p}")


# ----------------------------------------------------------------------
# field descriptors and elements
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PrimePower:
    """q = p^l with p prime."""

    p: int
    l: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.l < 1:
            raise ValueError(f"exponent l = {self.l} must be positive")

    @property
    def q(self) -> int:
        return self.p**self.l


class FieldDesc:
    """Concrete model of F_q2 as F_p[x]/(modulus), elements as int codes.

    All arithmetic is exposed at code level (`add_c`, `mul_c`, ...) so hot
    loops can bind the methods locally, and the tables behind it are public
    (`log_table`, `exp_table`, `zech_table`; layout in the module docstring)
    for kernels that inline it; `FieldElem` wraps a code for the value-level
    API.
    """

    def __init__(self, base: PrimePower):
        self.base = base
        self.p = base.p
        self.l = base.l
        self.q = base.q
        self.degree = 2 * base.l
        self.order = self.p**self.degree
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

    def elem(self, value) -> "FieldElem":
        """Coerce an int code, a FieldElem, or a coordinate sequence."""
        if isinstance(value, FieldElem):
            if value.desc is not self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            if not 0 <= value < self.order:
                raise ValueError(f"code {value} out of range for GF({self.order})")
            return FieldElem(self, value)
        return FieldElem(self, self.code_of(value))

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
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

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
            self._neg = [exp[(i + n // 2) % n] for i in log]  # -1 = g^(n / 2)
            self._neg[0] = 0
            self.zech_table = [log[self._incr_const(v)] for v in exp]
            self.zech_table *= 2
        self._conjtab = [exp[i * self.q % n] for i in log]
        self._conjtab[0] = 0
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
        return a if self.p == 2 else self._neg[a]

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
        return self._conjtab[a]

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
# public constructors and maps
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _field(p: int, l: int) -> FieldDesc:
    """The cached descriptor of F_q2.  Unbounded on purpose: elements and
    polynomials compare their descriptors by identity, so evicting one would
    make a later `make_field` return a second, incompatible copy."""
    return FieldDesc(PrimePower(p, l))


def make_field(p: int, l: int, k: int) -> FieldDesc:
    """The deterministic descriptor of F_q2 for q = p^l.

    `k`, the degree of the field over F_q2, must be 1: only F_q2 is modelled.
    Repeated calls with equal arguments return the identical (cached) object,
    so element descriptors can be compared by identity.  Fields above
    `FIELD_BOUND` elements are refused.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if l < 1:
        raise ValueError(f"exponent l = {l} must be positive")
    if k != 1:
        raise ValueError(f"only F_q2 is modelled (k = 1), not k = {k}")
    if p ** (2 * l) > FIELD_BOUND:
        raise EnumerationBoundError(
            f"field with {p}^{2 * l} elements exceeds the bound {FIELD_BOUND}"
        )
    return _field(p, l)


def conj(a: FieldElem) -> FieldElem:
    """The conjugation a -> a^q, the involution of F_q2 fixing F_q."""
    return a.conj()


def power_map(a: FieldElem, M: int) -> FieldElem:
    """a -> a^M for a positive integer M."""
    if M < 1:
        raise ValueError(f"M = {M} must be a positive integer")
    return a**M
