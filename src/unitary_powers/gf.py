"""Exact arithmetic in the finite field tower F_p <= F_q <= F_q2 <= F_{q^(2k)}.

A level-k field F_{q^(2k)} (q = p^l) is modelled as F_p[x]/(m) for a fixed
monic irreducible m of degree 2kl.  To make every downstream count
reproducible, m is the lexicographically least monic irreducible of that
degree, comparing coefficient vectors from the constant term upward.

Elements are stored as integer codes in [0, q^(2k)): the base-p digits of a
code are the coordinates over F_p, constant coordinate first.  For fields of
desk scale, multiplication runs on discrete-log tables and addition uses XOR
in characteristic 2 or Zech logarithms otherwise; larger fields fall back to
direct polynomial arithmetic modulo m.

The conjugation map is a -> a^q throughout the tower.  Its restriction to the
subfield F_q2 is the involution with fixed field F_q.  The norm-one circle at
level d is {a in F_{q^(2d)} : a^(q^d + 1) = 1}, a cyclic group of q^d + 1
elements.

A model that breaks a finite-field invariant while it is set up (no
irreducible modulus, no primitive element, a power walk that does not close)
raises `FieldInvariantError`, which survives `python -O`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from ._numth import EnumerationBoundError, is_prime, prime_factors

__all__ = [
    "DEFAULT_FIELD_BOUND",
    "FieldInvariantError",
    "PrimePower",
    "FieldDesc",
    "FieldElem",
    "make_field",
    "conj",
    "is_norm_one",
    "power_map",
    "embed",
]

DEFAULT_FIELD_BOUND = 1 << 20
_TABLE_BOUND = 1 << 16  # build exp/log tables only up to this field size


class FieldInvariantError(RuntimeError):
    """The field model broke an invariant of finite fields (no irreducible
    modulus, no primitive element, a power walk that does not close, or a
    subfield modulus without a root); its arithmetic cannot be trusted."""


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
    """Concrete model of F_{q^(2k)} as F_p[x]/(modulus), elements as int codes.

    All arithmetic is exposed at code level (`add_c`, `mul_c`, ...) so hot
    loops can bind the methods locally; `FieldElem` wraps a code for the
    value-level API.
    """

    def __init__(self, base: PrimePower, k: int):
        if k < 1:
            raise ValueError(f"tower level k = {k} must be positive")
        self.base = base
        self.p = base.p
        self.l = base.l
        self.k = k
        self.q = base.q
        self.degree = 2 * k * base.l
        self.order = self.p**self.degree
        self.modulus = _least_irreducible(self.p, self.degree)
        self._small = self.order <= _TABLE_BOUND
        self._exp = None
        self._log = None
        self._zech = None
        self._neg = None
        self._conjtab = None

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

    # -- raw polynomial arithmetic (bootstrap / large fields) ------------

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

    def _add_raw(self, a: int, b: int) -> int:
        p, out, w = self.p, 0, 1
        while a or b:
            out += ((a + b) % p) * w
            a //= p
            b //= p
            w *= p
        return out

    # -- discrete-log tables ----------------------------------------------

    def _ensure_tables(self):
        if self._exp is not None:
            return
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
        exp = [0] * n
        log = [-1] * self.order
        v = 1
        for i in range(n):
            exp[i] = v
            log[v] = i
            v = self._mul_raw(v, gen)
        if v != 1:
            raise FieldInvariantError(
                f"the powers of the primitive element {gen} modulo {self.modulus} "
                f"do not return to 1 after {n} steps"
            )
        self._exp, self._log = exp, log
        if self.p > 2:
            self._neg = [self._negate_digits(c) for c in range(self.order)]
            zech = [0] * n
            for t in range(n):
                e1 = self._incr_const(exp[t])
                zech[t] = log[e1] if e1 else -1
            self._zech = zech
        q = self.q
        self._conjtab = [0] * self.order
        for c in range(1, self.order):
            self._conjtab[c] = exp[(log[c] * q) % n]

    def _negate_digits(self, code: int) -> int:
        p, out, w = self.p, 0, 1
        while code:
            out += (-code % p) * w
            code //= p
            w *= p
        return out

    def _incr_const(self, code: int) -> int:
        c0 = code % self.p
        return code - c0 + (c0 + 1) % self.p

    # -- code-level field operations --------------------------------------

    def add_c(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not self._small:
            return self._add_raw(a, b)
        if self._exp is None:
            self._ensure_tables()
        if a == 0:
            return b
        if b == 0:
            return a
        n = self.order - 1
        la = self._log[a]
        t = self._zech[(self._log[b] - la) % n]
        if t < 0:
            return 0
        return self._exp[(la + t) % n]

    def neg_c(self, a: int) -> int:
        if self.p == 2:
            return a
        if not self._small:
            return self._negate_digits(a)
        if self._exp is None:
            self._ensure_tables()
        return self._neg[a]

    def sub_c(self, a: int, b: int) -> int:
        return self.add_c(a, self.neg_c(b))

    def mul_c(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if not self._small:
            return self._mul_raw(a, b)
        if self._exp is None:
            self._ensure_tables()
        n = self.order - 1
        return self._exp[(self._log[a] + self._log[b]) % n]

    def inv_c(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if not self._small:
            return self._pow_raw(a, self.order - 2)
        if self._exp is None:
            self._ensure_tables()
        n = self.order - 1
        return self._exp[-self._log[a] % n]

    def pow_c(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero field element")
            return 0 if e else 1
        if not self._small:
            if e < 0:
                a, e = self.inv_c(a), -e
            return self._pow_raw(a, e)
        if self._exp is None:
            self._ensure_tables()
        n = self.order - 1
        return self._exp[(self._log[a] * e) % n]

    def conj_c(self, a: int) -> int:
        if not self._small:
            return self._pow_raw(a, self.q)
        if self._exp is None:
            self._ensure_tables()
        return self._conjtab[a]

    def __repr__(self):
        return f"FieldDesc(GF({self.order}) = GF({self.q}^{2 * self.k}))"


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
def _field(p: int, l: int, k: int) -> FieldDesc:
    return FieldDesc(PrimePower(p, l), k)


def make_field(p: int, l: int, k: int, *, size_bound: int = DEFAULT_FIELD_BOUND) -> FieldDesc:
    """The deterministic descriptor of F_{q^(2k)} for q = p^l.

    Repeated calls with equal arguments return the identical (cached) object,
    so element descriptors can be compared by identity.  Fields above
    `size_bound` elements are refused.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if l < 1 or k < 1:
        raise ValueError("l and k must be positive")
    if p ** (2 * l * k) > size_bound:
        raise EnumerationBoundError(
            f"field with {p}^{2 * l * k} elements exceeds the bound {size_bound}"
        )
    return _field(p, l, k)


def conj(a: FieldElem) -> FieldElem:
    """The conjugation a -> a^q; an involution on the F_q2 subfield."""
    return a.conj()


def power_map(a: FieldElem, M: int) -> FieldElem:
    """a -> a^M for a positive integer M."""
    if M < 1:
        raise ValueError(f"M = {M} must be a positive integer")
    return a**M


def is_norm_one(a: FieldElem, d: int) -> bool:
    """Whether a lies on the level-d norm-one circle: a^(q^d + 1) = 1.

    `a` must lie in the F_{q^(2d)} subfield of its field; zero is never
    norm-one.
    """
    desc = a.desc
    if d < 1 or desc.k % d != 0:
        raise ValueError(f"level d = {d} does not give a subfield of GF({desc.order})")
    if desc.pow_c(a.code, desc.q ** (2 * d)) != a.code:
        raise ValueError("element does not lie in the requested subfield")
    if a.code == 0:
        return False
    return desc.pow_c(a.code, desc.q**d + 1) == 1


@lru_cache(maxsize=None)
def _embedding_root(src: FieldDesc, dst: FieldDesc) -> int:
    """Least code in dst that is a root of src's modulus (fixes the embedding)."""
    if src.base != dst.base or dst.k % src.k != 0:
        raise ValueError(f"{src!r} is not a subfield of {dst!r}")
    coeffs = src.modulus
    for code in range(dst.order):
        acc = 0
        for c in reversed(coeffs):
            acc = dst.add_c(dst.mul_c(acc, code), c)
        if acc == 0:
            return code
    raise FieldInvariantError(f"the modulus of {src!r} has no root in {dst!r}")


def embed(a: FieldElem, target: FieldDesc) -> FieldElem:
    """Embed a into a larger field of the same tower (same p and l)."""
    if a.desc is target:
        return a
    root = _embedding_root(a.desc, target)
    acc = 0
    for c in reversed(a.coords):
        acc = target.add_c(target.mul_c(acc, root), c)
    return FieldElem(target, acc)
