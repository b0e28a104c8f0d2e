"""Monic polynomial algebra over F_q2.

Provides the tilde conjugation f~(t) = conj(f(0))^-1 t^deg(f) fbar(1/t) (whose
roots are the inverse conjugates of the roots of f), irreducibility testing,
complete deterministic factorisation, and the classification of monic
irreducibles into

  * SCIM        -- self-conjugate irreducible monic, f = f~;
  * PAIR_MEMBER -- irreducible with f(0) != 0 and f != f~ (one half of an
                   unordered pair {f, f~});
  * LINEAR_T    -- the polynomial t itself (excluded from conjugacy data,
                   which ranges over invertible classes);
  * REDUCIBLE   -- everything else.

On top of that sit the power-map classifications: a SCIM f of degree d is an
M~-power polynomial when f(x^M) has a SCIM factor of degree d, and a pair
member f is an M-power polynomial when f(x^M) has an irreducible factor of
degree d (equivalently, the companion matrix of f has an M-th root in
GL(d, q^2)).  `butler_pattern` predicts the full factor-degree multiset of
f(x^m) from the multiplicative order of the roots of f.

Coefficients are the field's integer codes (`gf`), as everywhere in the
package: `Poly` is built from codes and keeps them as `codes`, `Poly.linear`
takes the code of its root, and evaluation returns a code.  The ring
operations of `Poly` (sums, negation, scaling, derivative, products,
divisions) and `tilde` read the field's log tables inline rather than
calling its per-element operations: the logs of one operand's nonzero
coefficients are taken once, each term costs one `exp_table` lookup, and
terms are summed by XOR in characteristic 2 and by an inline Zech step
otherwise.

`is_irreducible` is Ben-Or's test (1981), read off the distinct-degree
split that factorisation uses: a monic f of degree d is irreducible iff
gcd(f, x^(Q^i) - x) = 1 for every i <= d/2, since a reducible f has an
irreducible factor of degree i <= d/2, which divides x^(Q^i) - x.  So the
split of f is [(f, d)] exactly when f is irreducible, whether or not f is
squarefree.

`irreducible_polys` is a product sieve, so its output is irreducible by
construction; it is of a private `Poly` subclass, for which `classify` skips
the test.  Every other polynomial gets the full test.

Factorisation is squarefree decomposition, then distinct-degree splitting,
then Cantor-Zassenhaus equal-degree splitting with random splitters (Cantor &
Zassenhaus 1981; von zur Gathen & Gerhard, Modern Computer Algebra, ch. 14).
Each random splitter separates two of the factors with probability >= 1/2,
so a split needs about two tries; the tries are capped at `_EDF_MAX_TRIES`,
and reaching the cap raises `FactorisationError`, since it means the input
was not a product of >= 2 distinct irreducibles of one degree.  The splitters
come from a `random.Random` seeded in code from (deg h, e), so every run
makes the same tries; and because factorisation is unique and `factor` sorts
its output, the result would not depend on the splitters in any case.

Invariants that guard results (multiply-back, p-th roots, integral factor
counts, splitter exhaustion) raise `FactorisationError`, which survives
`python -O`.
"""

from __future__ import annotations

import itertools
import random
from enum import Enum
from functools import lru_cache
from math import gcd

from ._numth import InvariantError, divisors, euler_phi, factorint, mult_order, order_dividing, power
from .gf import FieldDesc

__all__ = [
    "FactorisationError",
    "Poly",
    "PolyClass",
    "tilde",
    "is_irreducible",
    "factor",
    "classify",
    "compose_power",
    "is_mtilde_power",
    "is_m_power_pair",
    "butler_pattern",
    "root_order",
    "monic_polys",
    "irreducible_polys",
]


class FactorisationError(InvariantError):
    """An invariant of factorisation failed; the results it guards cannot be
    trusted."""


class PolyClass(Enum):
    SCIM = "scim"
    PAIR_MEMBER = "pair_member"
    LINEAR_T = "linear_t"
    REDUCIBLE = "reducible"


class Poly:
    """Dense polynomial over a `FieldDesc` field, coefficients constant-first.

    The coefficients are the field's integer codes, given and stored as a
    tuple `codes` with no trailing zeros; the zero polynomial has an empty
    tuple and degree -1.  Polynomials are immutable, hashable, and totally
    ordered by (degree, coefficient codes), which fixes the ordering of
    factorisations.
    """

    __slots__ = ("desc", "codes")

    def __init__(self, desc: FieldDesc, codes=()):
        codes = list(map(int, codes))
        while codes and codes[-1] == 0:
            codes.pop()
        for c in codes:
            if not 0 <= c < desc.order:
                raise ValueError(f"coefficient code {c} out of range")
        self.desc = desc
        self.codes = tuple(codes)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, desc):
        return cls(desc)

    @classmethod
    def one(cls, desc):
        return cls(desc, (1,))

    @classmethod
    def t(cls, desc):
        return cls(desc, (0, 1))

    @classmethod
    def linear(cls, desc: FieldDesc, root: int) -> "Poly":
        """t - root, for the code of a root in [0, Q)."""
        if not 0 <= root < desc.order:
            raise ValueError(f"root code {root} out of range")
        return cls(desc, (desc.neg_c(root), 1))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.codes) - 1

    def is_zero(self) -> bool:
        return not self.codes

    def is_monic(self) -> bool:
        return bool(self.codes) and self.codes[-1] == 1

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b, desc = self.codes, other.codes, self.desc
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        zech = desc.zech_table
        if zech is None:
            for i, c in enumerate(b):
                out[i] ^= c
            return _poly(desc, out)
        log, exp = desc.log_table, desc.exp_table
        for i, c in enumerate(b):  # out[i] += c
            if not c:
                continue
            o = out[i]
            if o:
                t = zech[log[c] - log[o]]
                out[i] = exp[log[o] + t] if t >= 0 else 0
            else:
                out[i] = c
        return _poly(desc, out)

    def __neg__(self) -> "Poly":
        desc = self.desc
        if desc.zech_table is None:  # characteristic 2: -a = a
            return self
        log, exp, half = desc.log_table, desc.exp_table, (desc.order - 1) // 2
        return _poly(desc, [exp[log[c] + half] if c else 0 for c in self.codes])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b, desc = self.codes, other.codes, self.desc
        if not a or not b:
            return _poly(desc, [])
        log, exp, zech = desc.log_table, desc.exp_table, desc.zech_table
        terms = [(j, log[c]) for j, c in enumerate(b) if c]
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if not c:
                continue
            la = log[c]
            if zech is None:
                for j, lb in terms:
                    out[i + j] ^= exp[la + lb]
                continue
            for j, lb in terms:  # out[i + j] += g^(la + lb)
                o = out[i + j]
                if o:
                    t = zech[la + lb - log[o]]  # g^lo + g^l = g^(lo + zech[l - lo])
                    out[i + j] = exp[log[o] + t] if t >= 0 else 0
                else:
                    out[i + j] = exp[la + lb]
        return _poly(desc, out)

    def scale(self, code: int) -> "Poly":
        desc = self.desc
        if not code:
            return _poly(desc, [])
        log, exp = desc.log_table, desc.exp_table
        lc = log[code]
        return _poly(desc, [exp[log[c] + lc] if c else 0 for c in self.codes])

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        desc, rem, b = self.desc, list(self.codes), other.codes
        db, n = len(b) - 1, desc.order - 1
        log, exp, zech = desc.log_table, desc.exp_table, desc.zech_table
        lead = log[b[-1]]
        neg = 0 if zech is None else n // 2  # -1 = g^neg
        # logs of -b_j below the lead; rem[i] is not read after its step
        terms = [(j, (log[c] + neg) % n) for j, c in enumerate(b[:db]) if c]
        quot = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            if not rem[i]:
                continue
            lf = (log[rem[i]] - lead) % n
            s = i - db
            quot[s] = exp[lf]
            if zech is None:
                for j, lb in terms:
                    rem[s + j] ^= exp[lf + lb]
                continue
            for j, lb in terms:  # rem[s + j] -= g^lf * b_j
                o = rem[s + j]
                if o:
                    t = zech[lf + lb - log[o]]
                    rem[s + j] = exp[log[o] + t] if t >= 0 else 0
                else:
                    rem[s + j] = exp[lf + lb]
        return _poly(desc, quot), _poly(desc, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.desc.inv_c(self.codes[-1]))

    def derivative(self) -> "Poly":
        desc = self.desc
        log, exp, p = desc.log_table, desc.exp_table, desc.p
        # i * c_i, with i mod p the code of a prime-field element
        return _poly(desc, [exp[log[c] + log[i % p]] if c and i % p else 0
                            for i, c in enumerate(self.codes[1:], 1)])

    def __call__(self, a: int) -> int:
        """The value at the code a, as a code (Horner's rule)."""
        desc = self.desc
        acc = 0
        for c in reversed(self.codes):
            acc = desc.add_c(desc.mul_c(acc, a), c)
        return acc

    # -- comparisons -------------------------------------------------------

    def sort_key(self):
        return (self.degree, self.codes)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.desc is other.desc and self.codes == other.codes
        return NotImplemented

    def __hash__(self):
        return hash((id(self.desc), self.codes))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __str__(self):
        if not self.codes:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.codes[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                coeff = "" if c == 1 else str(c)
                terms.append(f"{coeff}t" if i == 1 else f"{coeff}t^{i}")
        return "+".join(terms)

    def __repr__(self):
        return f"Poly(GF({self.desc.order}): {self})"


def _poly(desc: FieldDesc, codes: list, cls=Poly) -> Poly:
    """Internal constructor for ring operations whose codes lie in [0, Q) by
    construction: trims trailing zeros of `codes` (in place) and skips the
    per-coefficient validation of `Poly.__init__`."""
    while codes and codes[-1] == 0:
        codes.pop()
    f = object.__new__(cls)
    f.desc = desc
    f.codes = tuple(codes)
    return f


# ----------------------------------------------------------------------
# gcd and modular exponentiation
# ----------------------------------------------------------------------

def gcd_poly(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def pow_mod(base: Poly, e: int, modulus: Poly) -> Poly:
    if e == 0:
        return Poly.one(base.desc)
    return power(base % modulus, e, lambda a, b: (a * b) % modulus)


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def monic_polys(desc: FieldDesc, degree: int):
    """All monic polynomials of the given degree, in lexicographic order
    on the constant-first coefficient vector."""
    for tail in itertools.product(range(desc.order), repeat=degree):
        yield Poly(desc, tail + (1,))


class _Sieved(Poly):
    """A monic irreducible listed by `irreducible_polys`; `classify` trusts
    the sieve and skips the irreducibility test for it."""

    __slots__ = ()


@lru_cache(maxsize=256)
def irreducible_polys(desc: FieldDesc, degree: int) -> tuple[Poly, ...]:
    """All monic irreducibles of the given degree (includes t in degree 1),
    in the order of `monic_polys`.

    Every product g*h, g a cached irreducible of degree e <= degree/2 and h
    monic of degree degree - e, is struck from a bytearray indexed like
    `monic_polys` (c0 the most significant base-Q digit).  The 256 most
    recently used (field, degree) lists are kept.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    Q = desc.order
    keep = bytearray(b"\x01") * Q**degree
    for e in range(1, degree // 2 + 1):
        hs = [_poly(desc, [*tail, 1]) for tail in itertools.product(range(Q), repeat=degree - e)]
        for g in irreducible_polys(desc, e):
            for h in hs:
                k = 0
                for c in (g * h).codes[:degree]:
                    k = k * Q + c
                keep[k] = 0
    tails = itertools.compress(itertools.product(range(Q), repeat=degree), keep)
    return tuple(_poly(desc, [*tail, 1], _Sieved) for tail in tails)


# ----------------------------------------------------------------------
# tilde conjugation and classification
# ----------------------------------------------------------------------

def tilde(f: Poly) -> Poly:
    """f~(t) = conj(f(0))^-1 t^d fbar(1/t): the monic polynomial whose roots
    are the inverse conjugates a^(-q) of the roots of f.  An involution."""
    if not f.is_monic():
        raise ValueError("tilde conjugation requires a monic polynomial")
    if f.codes[0] == 0:
        raise ValueError("tilde conjugation requires a nonzero constant term")
    desc = f.desc
    log, exp, q, n = desc.log_table, desc.exp_table, desc.q, desc.order - 1
    linv = n - log[f.codes[0]] * q % n  # log of conj(f(0))^-1
    # coefficient j is conj(f_(d-j)) conj(f(0))^-1, with conj(a) = g^(q log a)
    return _poly(desc, [exp[log[c] * q % n + linv] if c else 0 for c in reversed(f.codes)])


def is_irreducible(f: Poly) -> bool:
    """Ben-Or's test over the coefficient field: f is irreducible iff the
    distinct-degree split finds no factor of degree <= deg f / 2."""
    if f.degree < 1:
        raise ValueError("irreducibility is about polynomials of degree >= 1")
    f = f.monic()
    return _distinct_degree(f) == [(f, f.degree)]


@lru_cache(maxsize=4096)
def classify(f: Poly) -> PolyClass:
    """Class of monic f; memoised (bounded), since the power tests classify
    again a polynomial their caller has just classified.  Polynomials from
    `irreducible_polys` skip the irreducibility test."""
    if f.degree < 1:
        raise ValueError("classification is about polynomials of degree >= 1")
    if not f.is_monic():
        raise ValueError("classification requires a monic polynomial")
    if f == Poly.t(f.desc):
        return PolyClass.LINEAR_T
    if type(f) is not _Sieved and not is_irreducible(f):
        return PolyClass.REDUCIBLE
    return PolyClass.SCIM if tilde(f) == f else PolyClass.PAIR_MEMBER


def compose_power(f: Poly, M: int) -> Poly:
    """f(x^M)."""
    if M < 1:
        raise ValueError(f"M = {M} must be a positive integer")
    out = [0] * (M * f.degree + 1) if not f.is_zero() else []
    for i, c in enumerate(f.codes):
        out[i * M] = c
    return Poly(f.desc, out)


def is_mtilde_power(f: Poly, M: int) -> bool:
    """SCIM f of degree d: does f(x^M) have a SCIM factor of degree d?"""
    if classify(f) is not PolyClass.SCIM:
        raise ValueError("M~-power classification applies to SCIM polynomials")
    d = f.degree
    return any(g.degree == d and tilde(g) == g for g, _ in factor(compose_power(f, M)))


def is_m_power_pair(f: Poly, M: int) -> bool:
    """Pair member f of degree d: does f(x^M) have an irreducible factor of
    degree d?  (Equivalently C_f has an M-th root in GL(d, q^2).)"""
    if classify(f) is not PolyClass.PAIR_MEMBER:
        raise ValueError("M-power classification applies to pair members")
    d = f.degree
    return any(g.degree == d for g, _ in factor(compose_power(f, M)))


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


# ----------------------------------------------------------------------
# factorisation: squarefree -> distinct degree -> equal degree
# ----------------------------------------------------------------------

def _pth_root(f: Poly) -> Poly:
    """g with g^p = f, for f whose exponents are all divisible by p."""
    desc = f.desc
    e = desc.order // desc.p
    if any(c for i, c in enumerate(f.codes) if i % desc.p):
        raise FactorisationError("polynomial is not a p-th power")
    codes = f.codes[:: desc.p]
    return Poly(desc, [desc.pow_c(c, e) for c in codes])


def _squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """f = prod g_i^e_i with the g_i squarefree and pairwise coprime."""
    out = []
    base = 1
    p = f.desc.p
    while f.degree > 0:
        df = f.derivative()
        if df.is_zero():
            f = _pth_root(f)
            base *= p
            continue
        c = gcd_poly(f, df)
        w = f // c
        j = 1
        while w.degree > 0:
            y = gcd_poly(w, c)
            z = w // y
            if z.degree > 0:
                out.append((z, base * j))
            w = y
            c = c // y
            j += 1
        if c.degree > 0:
            f = _pth_root(c)
            base *= p
        else:
            break
    return out


def _distinct_degree(g: Poly) -> list[tuple[Poly, int]]:
    """Split squarefree monic g into (product of degree-i irreducibles, i).
    For any monic g, squarefree or not, it is [(g, deg g)] iff g is irreducible."""
    desc = g.desc
    Q = desc.order
    x = Poly.t(desc)
    parts = []
    h = x % g
    i = 1
    while g.degree >= 2 * i:
        h = pow_mod(h, Q, g)
        d = gcd_poly(g, h - x)
        if d.degree > 0:
            parts.append((d, i))
            g = g // d
            h = h % g
        i += 1
    if g.degree > 0:
        parts.append((g, g.degree))
    return parts


_EDF_SEED = 1981  # fixed: every run draws the same splitters
_EDF_MAX_TRIES = 256  # each try splits with probability >= 1/2


def _edf_split(h: Poly, e: int) -> Poly:
    """A proper monic factor of h, a product of >= 2 irreducibles of degree e.

    Cantor-Zassenhaus: draw a random r of degree < deg h and take
    gcd(h, T(r)), with T the trace r + r^2 + ... + r^(Q^e / 2) for p = 2;
    for odd p try gcd(h, r), then gcd(h, r^((Q^e - 1)/2) - 1).  By the CRT
    each irreducible factor sees an independent uniform residue of r, so a
    try separates two of the factors with probability >= 1/2.  The
    generator is seeded from (deg h, e), so the tries are the same on every
    run; `factor` sorts its output, so the result does not depend on them.
    Failing `_EDF_MAX_TRIES` times in a row (chance <= 2^-256 on valid
    input) means h was not such a product, and raises `FactorisationError`.
    """
    desc = h.desc
    Q, n = desc.order, h.degree
    rng = random.Random((_EDF_SEED << 32) | (n << 16) | e)
    one = Poly.one(desc)
    bits = e * desc.degree  # for p = 2: Q^e = 2^bits
    exp = (Q**e - 1) // 2
    for _ in range(_EDF_MAX_TRIES):
        r = _poly(desc, [rng.randrange(Q) for _ in range(n)])
        if desc.p == 2:
            cur = acc = r
            for _ in range(bits - 1):
                cur = (cur * cur) % h
                acc = acc + cur
            tests = (acc,)
        else:
            # an r sharing a factor with h splits it too; counting that
            # case is what lifts the success chance to >= 1/2
            tests = (r, pow_mod(r, exp, h) - one)
        for s in tests:
            g = gcd_poly(h, s)
            if 0 < g.degree < n:
                return g
    raise FactorisationError(
        f"no split of a degree-{n} polynomial into degree-{e} factors in "
        f"{_EDF_MAX_TRIES} random tries: not a product of >= 2 such irreducibles"
    )


def _equal_degree(h: Poly, e: int) -> list[Poly]:
    stack, out = [h], []
    while stack:
        g = stack.pop()
        if g.degree == e:
            out.append(g)
            continue
        d = _edf_split(g, e)
        stack.append(d)
        stack.append(g // d)
    return out


@lru_cache(maxsize=4096)
def factor(f: Poly) -> tuple[tuple[Poly, int], ...]:
    """Complete factorisation of monic f (degree >= 1) into monic
    irreducibles, as ((factor, multiplicity), ...) sorted by
    (degree, coefficient codes); the 4096 most recently used are kept."""
    if f.degree < 1:
        raise ValueError("factorisation is about polynomials of degree >= 1")
    if not f.is_monic():
        raise ValueError("factorisation requires a monic polynomial")
    found: dict[Poly, int] = {}
    for g, e in _squarefree_decomposition(f):
        for part, d in _distinct_degree(g):
            for h in _equal_degree(part, d):
                found[h] = found.get(h, 0) + e
    out = tuple(sorted(found.items(), key=lambda pair: pair[0].sort_key()))
    check = Poly.one(f.desc)
    for g, e in out:
        for _ in range(e):
            check = check * g
    if check != f:
        raise FactorisationError("factorisation does not multiply back")
    return out
