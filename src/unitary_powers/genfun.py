"""The six generating functions for M-th powers in the unitary groups U(n, q).

For each matrix family (separable / cyclic / semisimple) there is a CLASSES
series, whose z^n coefficient is the number of U(n, q)-conjugacy classes of
that family lying in the image of the M-th power map, and an ELEMENTS series,
whose z^n coefficient is the corresponding number of group elements divided
by |U(n, q)|.  The element coefficients are sums of reciprocal centraliser
orders over the qualifying classes, which is why they come out as proportions.
An element series is built in the count form of `series`: each factor's
z^n coefficient is stored as a class size, |U(n, q)| divided by the block
centraliser, and that division must be exact (`SeriesInvariantError`).

Every series is a product, over the polynomial families in `_FACTOR_TABLE`,
of one factor per degree d raised to the family's count in that degree.  A
table row is (count, pair?, steps by M?):

  count_mtilde_scim   SCIMs of degree d that are M~-powers, N~_M
  count_mpower_pairs  pairs {g, g~} of degree d that are M-powers, R~_M
  s_tilde_prime       SCIMs that are not M~-powers, S~'_M   (semisimple only)
  s_prime             pairs that are not M-powers, S'_M     (semisimple only)

A SCIM of degree d gives blocks of degree d, a pair blocks of degree 2d,
and multiplicity m contributes z^(block degree * m).  The non-power rows
occur only with multiplicities in M*Z.  A row's factor sums over the
multiplicities the family allows, each with weight 1 (classes) or the
reciprocal centraliser order of the block (elements, `_block_centraliser`):

  separable   m <= 1: (1 + z^d)^N~_M, (1 + z^d / (q^d + 1))^N~_M, ...
  cyclic      partition [m]: (1 - z^d)^-N~_M for classes; centraliser
              q^(d(m-1)) (q^d + 1) for a SCIM, q^(2d(m-1)) (q^(2d) - 1)
              for a pair
  semisimple  partition [1^m]: (1 - z^d)^-N~_M, ..., (1 - z^(dM))^-S~'_M
              for classes; centraliser |U(m, q^d)| for a SCIM,
              |GL(m, q^(2d))| for a pair

Hypotheses: each family's series hold for the (q, M) that its entry in
`_HYPOTHESES` admits, the one statement of them.  M = 1 is admitted
everywhere and yields the unrestricted all-matrices series, used as a
sanity baseline.

`centralizer_order` gives |C_U(A)| for classes whose partitions are each
[m] or [1^m], by the same block centralisers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd, prod
from typing import TYPE_CHECKING

from . import counts, polyalg, series
from ._numth import is_prime
from .series import Series, SeriesInvariantError, group_order_GL, group_order_U

if TYPE_CHECKING:
    from .oracle import ConjugacyDatum

__all__ = [
    "Family",
    "Kind",
    "SeriesRequest",
    "applicable_families",
    "series_for",
    "sep_class_series",
    "sep_elem_series",
    "cyc_class_series",
    "cyc_elem_series",
    "ss_class_series",
    "ss_elem_series",
    "centralizer_order",
]


class Family(str, Enum):
    SEPARABLE = "sep"
    CYCLIC = "cyc"
    SEMISIMPLE = "ss"


class Kind(str, Enum):
    CLASSES = "classes"
    ELEMENTS = "elements"


# family -> (wording, predicate on (q, M)).  The cyclic series need
# gcd(M, q) = 1: an M-th power of a unipotent block collapses when the
# characteristic divides M.  The semisimple series also need M prime: the
# degree dichotomy for f(x^M) holds factor by factor only for prime M.
_HYPOTHESES = {
    Family.SEPARABLE: ("any M", lambda q, M: True),
    Family.CYCLIC: ("gcd(M, q) = 1", lambda q, M: gcd(M, q) == 1),
    Family.SEMISIMPLE: (
        "prime M with gcd(M, q) = 1",
        lambda q, M: gcd(M, q) == 1 and (M == 1 or is_prime(M)),
    ),
}


def applicable_families(q: int, M: int) -> tuple[Family, ...]:
    """The families whose series hypotheses hold for (q, M), in `Family` order."""
    return tuple(f for f in Family if _HYPOTHESES[f][1](q, M))


@dataclass(frozen=True)
class SeriesRequest:
    q: int
    M: int
    T: int
    family: Family
    kind: Kind

    def __post_init__(self):
        counts._validate(self.q, 1, self.M)
        if self.T < 0:
            raise ValueError("truncation must be non-negative")
        wording, holds = _HYPOTHESES[self.family]
        if not holds(self.q, self.M):
            raise ValueError(
                f"{self.family.name.lower()} series require {wording}, "
                f"got M={self.M}, q={self.q}"
            )


# ----------------------------------------------------------------------
# series assembly
# ----------------------------------------------------------------------

# (count of the family in degree d, pair?, multiplicities step by M?)
_FACTOR_TABLE = (
    (counts.count_mtilde_scim, False, False),
    (counts.count_mpower_pairs, True, False),
    (counts.s_tilde_prime, False, True),
    (counts.s_prime, True, True),
)


def series_for(request: SeriesRequest) -> Series:
    """The series of `request`, truncated at z^T."""
    q, M, T, family, kind = request.q, request.M, request.T, request.family, request.kind
    rows = _FACTOR_TABLE if family is Family.SEMISIMPLE else _FACTOR_TABLE[:2]
    s = series.one(T, None if kind is Kind.CLASSES else q)
    for count, pair, by_M in rows:
        step = M if by_M else 1
        # SCIMs have odd degree; pairs have every degree and blocks of twice it
        for d in range(1, T // ((2 if pair else 1) * step) + 1, 1 if pair else 2):
            e = count(q, d, M)
            if e:
                s = s * _factor_power(q, d, pair, step, family, kind, e, T)
    return s


def _factor_power(
    q: int, d: int, pair: bool, step: int, family: Family, kind: Kind, e: int, T: int
) -> Series:
    """The degree-d factor of one table row, raised to the family count e; an
    element factor's coefficients are the class sizes of its blocks."""
    block = 2 * d if pair else d
    if kind is Kind.CLASSES:
        if family is Family.SEPARABLE:
            return series.binom_factor(block, 1, e, T)
        return series.binom_factor(block * step, 1, -e, T)
    if family is Family.SEPARABLE:
        size = _class_size(q, block, _block_centraliser(q, d, pair, (1,)))
        return series.binom_factor(block, size, e, T, q)

    def size(m):  # the class of the block with multiplicity k = m * step
        k = m * step
        lam = (k,) if family is Family.CYCLIC else (1,) * k
        return _class_size(q, block * k, _block_centraliser(q, d, pair, lam))

    return series.euler_factor(block, size, step, T, q) ** e


def sep_class_series(q: int, M: int, T: int) -> Series:
    """Conjugacy classes of separable matrices that are M-th powers."""
    return series_for(SeriesRequest(q, M, T, Family.SEPARABLE, Kind.CLASSES))


def sep_elem_series(q: int, M: int, T: int) -> Series:
    """Proportion of U(n, q) that is separable and an M-th power."""
    return series_for(SeriesRequest(q, M, T, Family.SEPARABLE, Kind.ELEMENTS))


def cyc_class_series(q: int, M: int, T: int) -> Series:
    """Conjugacy classes of cyclic matrices that are M-th powers."""
    return series_for(SeriesRequest(q, M, T, Family.CYCLIC, Kind.CLASSES))


def cyc_elem_series(q: int, M: int, T: int) -> Series:
    """Proportion of U(n, q) that is cyclic and an M-th power."""
    return series_for(SeriesRequest(q, M, T, Family.CYCLIC, Kind.ELEMENTS))


def ss_class_series(q: int, M: int, T: int) -> Series:
    """Conjugacy classes of semisimple matrices that are M-th powers."""
    return series_for(SeriesRequest(q, M, T, Family.SEMISIMPLE, Kind.CLASSES))


def ss_elem_series(q: int, M: int, T: int) -> Series:
    """Proportion of U(n, q) that is semisimple and an M-th power."""
    return series_for(SeriesRequest(q, M, T, Family.SEMISIMPLE, Kind.ELEMENTS))


# ----------------------------------------------------------------------
# centraliser orders
# ----------------------------------------------------------------------

def _block_centraliser(q: int, d: int, pair: bool, lam: tuple[int, ...]) -> int:
    """|C_U| of the primary part of one polynomial of degree d (a SCIM, or
    the member of a pair) with partition lam of m: [m] (cyclic) or [1^m]
    (semisimple); any other shape raises `ValueError`.  At m = 1 the two
    shapes agree."""
    m, cyclic = sum(lam), len(lam) == 1
    if not (cyclic or max(lam) == 1):
        raise ValueError(f"block centralisers are only provided for [m] and [1^m], got {lam}")
    if pair:
        Q = q ** (2 * d)
        return Q ** (m - 1) * (Q - 1) if cyclic else group_order_GL(m, Q)
    r = q**d
    return r ** (m - 1) * (r + 1) if cyclic else group_order_U(m, r)


def _class_size(q: int, n: int, centraliser: int) -> int:
    """|U(n, q)| / centraliser, which must divide exactly."""
    size, rem = divmod(group_order_U(n, q), centraliser)
    if rem:
        raise SeriesInvariantError(
            f"centraliser order {centraliser} does not divide |U({n}, {q})|"
        )
    return size


def centralizer_order(datum: "ConjugacyDatum", q: int) -> int:
    """|C_U(A)| for a conjugacy datum whose partitions are each [m] or [1^m]:
    the product over the stored polynomials (SCIM, or the canonical member
    of a pair) of `_block_centraliser`, which refuses any other partition."""
    items = datum.items()
    if any(p.desc.q != q for p, _ in items):
        raise ValueError("conjugacy datum does not live over F_q2 for this q")
    return prod(_block_centraliser(q, phi.degree, polyalg.tilde(phi) != phi, lam)
                for phi, lam in items)
