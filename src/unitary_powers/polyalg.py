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
GL(d, q^2)).  Neither test builds f(x^M): each is one `pow_mod` modulo f,
asking whether x^(E / (E, M)) = 1 modulo f, with E = Q^d - 1 for a pair
member (Q = q^2) and E = q^d + 1 for a SCIM.  The work is that of
arithmetic modulo a polynomial of degree d, and M enters only through
gcd(E, M), so an M of any size is decided at once, and the answer is cached
(bounded) by f and E / (E, M), which the M sharing gcd(E, M) share.

Why one power of x modulo f.  The roots of f lie in the cyclic group C_E:
in F_(Q^d)^* for a pair member, and in its subgroup of order q^d + 1 for
a SCIM (by the argument below, applied to f itself).  By the next
paragraph, the test asks whether F = f(x^M) has a root b in C_E.  Such a b
has b^M = a for a root a of f; conversely, if a = b^M with b in C_E, then
b is a root of F.  So the test asks whether a lies in the image of the
M-th power map on C_E, which for a cyclic group is its subgroup
C_(E / (E, M)), the elements a with a^(E / (E, M)) = 1.  The roots of f
are conjugate, so one root passes exactly when all do, and that is
x^(E / (E, M)) = 1 in F_Q[x]/(f).  Nothing here needs gcd(M, p) = 1 or M
prime.

Why these exponents.  Every root b of F has b^M a root of f, which has
degree d over F_Q, so d divides the degree of b; and b != 0, as f(0) != 0.
So F has an irreducible factor of degree d exactly when some root b lies
in F_(Q^d), that is when b^(Q^d - 1) = 1.  For a SCIM the factor must also
be self-conjugate, and a monic irreducible g of odd degree d with g(0) != 0
is a SCIM exactly when its roots b satisfy b^(q^d + 1) = 1.  Proof: write
phi(x) = x^q; the roots of g are phi^(2i)(b) for integers i, and
phi^(2i)(b) = b iff d | i.  g~ is irreducible with the root phi(b)^-1, so
g = g~ iff b^-1 = phi^j(b) for some odd j.  If b^(q^d + 1) = 1, take j = d.
Conversely, if b^-1 = phi^j(b) with j odd, then phi^(2j)(b) = b, so d | j;
as j/d is odd and phi^(2d) fixes b, b^-1 = phi^j(b) = phi^d(b).  (The same
argument shows that a SCIM has odd degree.)  A root b of F with
b^(q^d + 1) = 1 lies in F_(Q^d), since q^d + 1 divides Q^d - 1, so its
minimal polynomial is a degree-d factor of F, and a SCIM by the above.

Coefficients are the field's integer codes (`gf`), as everywhere in the
package: `Poly` is built from codes and keeps them as `codes`, `Poly.linear`
takes the code of its root, and evaluation returns a code.  `Poly` accepts
only integer codes (`operator.index`) in [0, Q); the ring operations build
their results unchecked.  The ring operations of `Poly` (sums, negation,
scaling, products, divisions) and `tilde` read the field's log tables
inline rather than calling its per-element operations: each term costs one
`exp_table` lookup, and terms are summed by XOR in characteristic 2 and by
an inline Zech step otherwise.  Every product and every remainder of the
layer runs in one of two kernels on code lists: `_product`, which takes
the logs of one operand's nonzero coefficients once, and `_remainder`,
which takes the logs of a modulus's terms once and returns a function that
reduces any code list modulo it in place.  `Poly.__mul__`, `__divmod__`
and `__mod__` wrap them; `pow_mod` and the characteristic-2 trace of
`_edf_split` call them on plain lists, so a square-and-multiply builds one
`Poly`, for its result, and the sieve calls `_product` on half cofactors.

`is_irreducible` is Ben-Or's test (1981), read off the distinct-degree
split that factorisation uses: a monic f of degree d is irreducible iff
gcd(f, x^(Q^i) - x) = 1 for every i <= d/2, since a reducible f has an
irreducible factor of degree i <= d/2, which divides x^(Q^i) - x.  So the
split of f is [(f, d)] exactly when f is irreducible, whether or not f is
squarefree.

`irreducible_polys` is a product sieve whose strikes run in `map` passes over
half cofactors, so its output is irreducible by construction; it is of a
private `Poly` subclass, for which `classify` skips the test.  Every other
polynomial gets the full test.

Factorisation is distinct-degree splitting, then Cantor-Zassenhaus
equal-degree splitting with random splitters (Cantor & Zassenhaus 1981;
von zur Gathen & Gerhard, Modern Computer Algebra, ch. 14).  No squarefree
stage comes first: an irreducible of multiplicity e lies in e layers of the
distinct-degree split (`_distinct_degree`), and `factor` counts them.  The
splitters are seeded in code and their tries capped (`_edf_split`), so every
run makes the same tries; as factorisation is unique and `factor` sorts its
output, the result does not depend on them.

Invariants that guard results (multiply-back, integral factor counts,
splitter exhaustion) raise `FactorisationError`, which survives
`python -O`.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections import deque
from enum import Enum
from functools import lru_cache
from math import gcd

from ._numth import InvariantError, power
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
        codes = list(map(operator.index, codes))
        while codes and codes[-1] == 0:
            codes.pop()
        for c in codes:
            if not 0 <= c < desc.order:
                raise ValueError(f"coefficient code {c} out of range")
        self.desc = desc
        self.codes = tuple(codes)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, desc):
        return _poly(desc, [1])

    @classmethod
    def t(cls, desc):
        return _poly(desc, [0, 1])

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
        return _poly(self.desc, _product(self.desc, self.codes, other.codes))

    def scale(self, code: int) -> "Poly":
        desc = self.desc
        if not code:
            return _poly(desc, [])
        log, exp = desc.log_table, desc.exp_table
        lc = log[code]
        return _poly(desc, [exp[log[c] + lc] if c else 0 for c in self.codes])

    def __divmod__(self, other: "Poly"):
        quot = [0] * max(len(self.codes) - other.degree, 0)
        rem = _remainder(self.desc, other.codes)(list(self.codes), quot)
        return _poly(self.desc, quot), _poly(self.desc, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return _poly(self.desc, _remainder(self.desc, other.codes)(list(self.codes)))

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.desc.inv_c(self.codes[-1]))

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
# list kernels: the one product and the one remainder of the layer
# ----------------------------------------------------------------------

def _product(desc: FieldDesc, a, b) -> list:
    """The codes of the product of the code sequences a and b."""
    if not a or not b:
        return []
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
    return out


def _remainder(desc: FieldDesc, modulus):
    """The remainder modulo the code sequence `modulus` (nonzero, else
    `ZeroDivisionError`), as a function `reduce(codes, quot=None)`: it
    reduces the list `codes` in place, writes the quotient into `quot` when
    one is given (of length >= len(codes) - deg modulus), and returns
    `codes` cut below deg modulus, without trailing zeros.  The logs of the
    modulus's lead and of its other terms, negated, are taken once here."""
    if not modulus:
        raise ZeroDivisionError("polynomial division by zero")
    db, n = len(modulus) - 1, desc.order - 1
    log, exp, zech = desc.log_table, desc.exp_table, desc.zech_table
    lead = log[modulus[-1]]
    neg = 0 if zech is None else n // 2  # -1 = g^neg
    # logs of -b_j below the lead; codes[i] is not read after its step
    terms = [(j, (log[c] + neg) % n) for j, c in enumerate(modulus[:db]) if c]

    def reduce(codes: list, quot=None) -> list:
        for i in range(len(codes) - 1, db - 1, -1):
            if not codes[i]:
                continue
            lf = (log[codes[i]] - lead) % n
            s = i - db
            if quot is not None:
                quot[s] = exp[lf]
            if zech is None:
                for j, lb in terms:
                    codes[s + j] ^= exp[lf + lb]
                continue
            for j, lb in terms:  # codes[s + j] -= g^lf * b_j
                o = codes[s + j]
                if o:
                    t = zech[lf + lb - log[o]]
                    codes[s + j] = exp[log[o] + t] if t >= 0 else 0
                else:
                    codes[s + j] = exp[lf + lb]
        del codes[db:]
        while codes and codes[-1] == 0:
            codes.pop()
        return codes

    return reduce


# ----------------------------------------------------------------------
# gcd and modular exponentiation
# ----------------------------------------------------------------------

def gcd_poly(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def pow_mod(base: Poly, e: int, modulus: Poly) -> Poly:
    """base^e modulo a nonzero modulus, for e >= 0: square-and-multiply on
    code lists, with one remainder function for the modulus."""
    desc = base.desc
    reduce = _remainder(desc, modulus.codes)
    if e == 0:
        return Poly.one(desc)
    x = reduce(list(base.codes))
    return _poly(desc, power(x, e, lambda a, b: reduce(_product(desc, a, b))))


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

class _Sieved(Poly):
    """A monic irreducible listed by `irreducible_polys`; `classify` trusts
    the sieve and skips the irreducibility test for it."""

    __slots__ = ()


@lru_cache(maxsize=256)
def irreducible_polys(desc: FieldDesc, degree: int) -> tuple[Poly, ...]:
    """All monic irreducibles of the given degree (includes t in degree 1),
    in lexicographic order on their constant-first coefficient tails.

    Every product g*h, g a cached irreducible of degree e <= degree/2 and h
    monic of degree m = degree - e, is struck from a bytearray indexed by
    those tails in that order (c0 the most significant base-Q digit).  With
    h = L + t^k H, L of degree < k = ceil(m/2), the slot numbers of the g*L
    are folded once per g, and each H strikes all Q^k slots of g*L + t^k g*H
    in one pass of `map`: slot numbers add by XOR in characteristic 2;
    otherwise the e coefficients where g*L and t^k g*H overlap are added by
    rows of the field's addition table, built as needed.  The 256 most
    recently used (field, degree) lists are kept.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    Q, log, exp, zech = desc.order, desc.log_table, desc.exp_table, desc.zech_table
    keep = bytearray(b"\x01") * Q**degree
    place = [Q ** (degree - 1 - i) for i in range(degree)]  # slot weight of coefficient i
    rows = {0: range(Q)}  # odd p: rows[u][v] = u + v, built as needed
    for e in range(1, degree // 2 + 1):
        k = (degree - e + 1) // 2
        ov = e if zech else 0  # coefficients where g*L and t^k g*H meet, added by rows
        highs = [(*tail, 1) for tail in itertools.product(range(Q), repeat=degree - e - k)]
        for g in irreducible_polys(desc, e):
            gl = [_product(desc, g.codes, L) for L in itertools.product(range(Q), repeat=k)]
            low = [sum(map(operator.mul, c[:k + e - ov], place)) for c in gl]
            cols = list(zip(*(c[k + e - ov:] for c in gl)))  # each g*L has k + e codes
            for H in highs:
                gh = _product(desc, g.codes, H)  # coefficients k .. degree
                base = sum(map(operator.mul, gh[ov:], place[k + ov:]))
                if zech is None:  # characteristic 2: slot numbers add by XOR
                    slots = map(base.__xor__, low)
                else:
                    for u in gh[:e]:
                        if u not in rows:  # u + v = g^(log u + zech[log v - log u])
                            rows[u] = [u] + [exp[log[u] + t] if (t := zech[log[v] - log[u]]) >= 0
                                             else 0 for v in range(1, Q)]
                    slots = map(sum, zip(low, itertools.repeat(base), *(
                        map([w * s for s in rows[u]].__getitem__, col)
                        for w, u, col in zip(place[k:], gh, cols))))
                deque(map(keep.__setitem__, slots, itertools.repeat(0)), maxlen=0)
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
    if f.codes == (0, 1):
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


def _roots_are_mth_powers(f: Poly, M: int, E: int) -> bool:
    """For irreducible f whose roots lie in the cyclic group C_E: are they
    M-th powers there?  Exactly when a^(E / (E, M)) = 1 for a root a, that is
    when x^(E / (E, M)) = 1 modulo f."""
    if M < 1:
        raise ValueError(f"M = {M} must be a positive integer")
    return _x_power_is_one(f, E // gcd(E, M))


@lru_cache(maxsize=4096)
def _x_power_is_one(f: Poly, k: int) -> bool:
    """x^k = 1 modulo f, memoised (bounded) by (f, k)."""
    return pow_mod(Poly.t(f.desc), k, f).codes == (1,)


def is_mtilde_power(f: Poly, M: int) -> bool:
    """SCIM f of degree d: does f(x^M) have a SCIM factor of degree d?
    Exactly when the roots of f are M-th powers in the norm-one group of
    order q^d + 1 (module docstring)."""
    if classify(f) is not PolyClass.SCIM:
        raise ValueError("M~-power classification applies to SCIM polynomials")
    return _roots_are_mth_powers(f, M, f.desc.q ** f.degree + 1)


def is_m_power_pair(f: Poly, M: int) -> bool:
    """Pair member f of degree d: does f(x^M) have an irreducible factor of
    degree d?  (Equivalently C_f has an M-th root in GL(d, q^2).)  Exactly
    when the roots of f are M-th powers in F_(Q^d)^* (module docstring)."""
    if classify(f) is not PolyClass.PAIR_MEMBER:
        raise ValueError("M-power classification applies to pair members")
    return _roots_are_mth_powers(f, M, f.desc.order ** f.degree - 1)


# ----------------------------------------------------------------------
# factorisation: distinct degree -> equal degree
# ----------------------------------------------------------------------

def _distinct_degree(g: Poly) -> list[tuple[Poly, int]]:
    """Split monic g into layers (d, i), each d a squarefree product of
    degree-i irreducibles, whose product is g.

    At step i, g has no factor of degree < i left, so d = gcd(g, x^(Q^i) - x)
    is the product of its distinct degree-i irreducibles; `g //= d;
    d = gcd(g, d)` then peels the next layer, those of multiplicity >= 2,
    and so on until d = 1.  An irreducible of multiplicity e thus lies in
    exactly e layers.  The loop stops once deg g < 2i: a repeated factor or
    a product of two factors of degree >= i would need degree >= 2i, so
    what is left is 1 or irreducible.  Hence the split is [(g, deg g)]
    exactly when g is irreducible.
    """
    desc = g.desc
    Q = desc.order
    x = Poly.t(desc)
    parts = []
    h = x % g
    i = 1
    while g.degree >= 2 * i:
        h = pow_mod(h, Q, g)
        d = gcd_poly(g, h - x)
        while d.degree > 0:
            parts.append((d, i))
            g = g // d
            d = gcd_poly(g, d)
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
    one, reduce = Poly.one(desc), _remainder(desc, h.codes)
    bits = e * desc.degree  # for p = 2: Q^e = 2^bits
    exp = (Q**e - 1) // 2
    for _ in range(_EDF_MAX_TRIES):
        r = _poly(desc, [rng.randrange(Q) for _ in range(n)])
        if desc.p == 2:
            cur, acc = list(r.codes), [0] * n
            for k in range(bits):  # acc = r + r^2 + ... + r^(2^(bits - 1))
                if k:
                    cur = reduce(_product(desc, cur, cur))
                for i, c in enumerate(cur):
                    acc[i] ^= c
            tests = (_poly(desc, acc),)
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
    (degree, coefficient codes); the 4096 most recently used are kept.

    Each layer of `_distinct_degree` is squarefree and an irreducible of
    multiplicity e lies in e layers, so the multiplicity of a factor is the
    number of times `_equal_degree` returns it."""
    if f.degree < 1:
        raise ValueError("factorisation is about polynomials of degree >= 1")
    if not f.is_monic():
        raise ValueError("factorisation requires a monic polynomial")
    found: dict[Poly, int] = {}
    for part, d in _distinct_degree(f):
        for h in _equal_degree(part, d):
            found[h] = found.get(h, 0) + 1
    out = tuple(sorted(found.items(), key=lambda pair: pair[0].sort_key()))
    check = Poly.one(f.desc)
    for g, e in out:
        for _ in range(e):
            check = check * g
    if check != f:
        raise FactorisationError("factorisation does not multiply back")
    return out
