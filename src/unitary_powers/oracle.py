"""Ground-truth brute force for small unitary groups.

U(n, q) is realised concretely as the invertible n x n matrices A over F_q2
with A L conj(A)^t = L, where L is the anti-diagonal Hermitian form
(L[i][j] = 1 iff i + j = n - 1, so L^2 = I).  Groups
are built as the multiplicative closure of a small generating set S.  S is
chosen greedily from structured seed elements (diagonal, unipotent
upper-triangular and monomial unitary matrices, which generate), trying
seeds of larger element order first: a seed joins S only when it lies
outside the subgroup S generates so far, so each one at least doubles that
subgroup and |S| <= log2 |G|.  Every seed passes `is_unitary` and products
of unitary matrices are unitary, so the closure is a subgroup of U(n, q);
its element count is checked against |U(n, q)|, which makes it the whole
group.

Every invertible matrix gets a conjugacy datum: the map from the irreducible
factors of its characteristic polynomial to partitions, read off the kernel
dimensions of powers of phi(A), with tilde-conjugate pairs stored once under
the smaller member.  By Wall (1963) the datum determines the U-conjugacy
class, and Wall gives both the centraliser order of every datum and the
number of classes of U(n, q).

U-conjugacy classes are the orbits of X -> s^(-1) X s for s in S, each
closed from its smallest member.  The closure keeps its right Cayley table
(the index of X s for every element X and generator s), so an orbit step
inv(R_s(inv(R_s(X)))) is four index lookups and no matrix product.  The
datum is computed once per orbit, on that member, and three checks make the
orbits trustworthy, each raising `OracleInvariantError`:

  * the representatives' data are pairwise distinct;
  * every orbit has |G| / |C_U(datum)| elements, Wall's class size;
  * the number of orbits is Wall's class number.

Each orbit lies inside one U-class, and the datum is a class invariant.  If
S generated a proper subgroup, some U-class would split into two or more
orbits: their representatives would share a datum, and each would be
smaller than Wall's class size.  (Comparing every orbit with the full fibre
of its datum, `datum_of` on every element, is kept as a test-side
reference.)

`power_image_counts` pushes the whole group through g -> g^M, checks that
the image is a union of classes (each hit by all its members or by none)
and tabulates it per matrix family and per class.  `check_block_power`
verifies that powering a cyclic block U(f, m) lands on the cyclic block of
the powered companion polynomial, whenever that companion exists.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from . import polyalg
from ._numth import power, prime_power
from .gf import FieldDesc, make_field
from .polyalg import Poly
from .series import group_order_U

__all__ = [
    "OracleInvariantError",
    "MatrixRep",
    "is_unitary",
    "GroupTable",
    "ConjClass",
    "ConjugacyDatum",
    "MatrixClassKind",
    "build_group",
    "group_table",
    "classify_matrix",
    "datum_of",
    "gl_class_data",
    "char_poly",
    "power_image_counts",
    "PowerImageCounts",
    "companion",
    "block_matrix",
    "check_block_power",
]

class OracleInvariantError(RuntimeError):
    """An invariant of the oracle's construction failed; the results it
    guards cannot be trusted."""


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------

class MatrixRep:
    """Immutable n x n matrix over a `FieldDesc` field, stored as a flat
    row-major tuple of coefficient codes (which also serves as its hash key).
    """

    __slots__ = ("desc", "n", "codes")

    def __init__(self, desc: FieldDesc, n: int, codes):
        codes = tuple(codes)
        if len(codes) != n * n:
            raise ValueError("entry vector does not match the dimension")
        self.desc = desc
        self.n = n
        self.codes = codes

    @classmethod
    def identity(cls, desc: FieldDesc, n: int) -> "MatrixRep":
        return cls(desc, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def rows(self) -> list[list[int]]:
        n = self.n
        return [list(self.codes[i * n : (i + 1) * n]) for i in range(n)]

    def __mul__(self, other: "MatrixRep") -> "MatrixRep":
        if self.desc is not other.desc or self.n != other.n:
            raise ValueError("matrix shapes or fields do not match")
        n = self.n
        add, mul = self.desc.add_c, self.desc.mul_c
        a, b = self.codes, other.codes
        out = []
        for i in range(n):
            row = a[i * n : (i + 1) * n]
            for j in range(n):
                s = 0
                for k in range(n):
                    aik = row[k]
                    if aik:
                        s = add(s, mul(aik, b[k * n + j]))
                out.append(s)
        return MatrixRep(self.desc, n, out)

    def __pow__(self, e: int) -> "MatrixRep":
        if e < 0:
            raise ValueError("negative matrix powers are not needed here")
        if e == 0:
            return MatrixRep.identity(self.desc, self.n)
        return power(self, e, operator.mul)  # a * b: each product is a __mul__ call

    def conj_transpose(self) -> "MatrixRep":
        n, cj = self.n, self.desc.conj_c
        return MatrixRep(
            self.desc, n, tuple(cj(self.codes[j * n + i]) for i in range(n) for j in range(n))
        )

    def __eq__(self, other):
        if isinstance(other, MatrixRep):
            return self.desc is other.desc and self.n == other.n and self.codes == other.codes
        return NotImplemented

    def __hash__(self):
        return hash((id(self.desc), self.codes))

    def __repr__(self):
        return f"MatrixRep({self.n}x{self.n} over GF({self.desc.order}), {self.codes})"


def is_unitary(A: MatrixRep) -> bool:
    """A L conj(A)^t = L for the anti-diagonal form L of A's dimension:
    row i of A L is row i of A reversed, so entry (i, j) of the product is
    sum_k A[i][n-1-k] conj(A[j][k]), which must be 1 iff i + j = n - 1."""
    n = A.n
    desc = A.desc
    add, mul, cj = desc.add_c, desc.mul_c, desc.conj_c
    a = A.codes
    for i in range(n):
        for j in range(n):
            s = 0
            for k in range(n):
                aik = a[i * n + (n - 1 - k)]
                if aik:
                    s = add(s, mul(aik, cj(a[j * n + k])))
            if s != (1 if i + j == n - 1 else 0):
                return False
    return True


def _unitary_inverse(A: MatrixRep) -> MatrixRep:
    # from A L conj(A)^t = L and L^2 = I: A^(-1) = L conj(A)^t L, whose
    # (i, j) entry is conj(A[n-1-j][n-1-i]), flat index n^2 - 1 - (j n + i)
    n, cj, a = A.n, A.desc.conj_c, A.codes
    last = n * n - 1
    return MatrixRep(
        A.desc, n, tuple(cj(a[last - j * n - i]) for i in range(n) for j in range(n))
    )


# ----------------------------------------------------------------------
# linear algebra over the coefficient field
# ----------------------------------------------------------------------

def _rank(desc: FieldDesc, rows: list[list[int]]) -> int:
    if not rows:
        return 0
    sub, mul, inv = desc.sub_c, desc.mul_c, desc.inv_c
    n_rows, n_cols = len(rows), len(rows[0])
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        piv_inv = inv(rows[r][col])
        rows[r] = [mul(piv_inv, c) for c in rows[r]]
        for i in range(r + 1, n_rows):
            f = rows[i][col]
            if f:
                rows[i] = [sub(c, mul(f, d)) for c, d in zip(rows[i], rows[r])]
        r += 1
        if r == n_rows:
            break
    return r


def char_poly(A: MatrixRep) -> Poly:
    """det(tI - A), computed by cofactor expansion on the polynomial matrix."""
    desc = A.desc
    n = A.n
    entries = [
        [
            Poly(desc, (desc.neg_c(A.codes[i * n + j]), 1) if i == j
                 else (desc.neg_c(A.codes[i * n + j]),))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return _poly_det(desc, entries)


def _poly_det(desc: FieldDesc, m: list[list[Poly]]) -> Poly:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Poly.zero(desc)
    for j in range(n):
        if m[0][j].is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        term = m[0][j] * _poly_det(desc, minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _poly_at_matrix(f: Poly, A: MatrixRep) -> MatrixRep:
    desc, n = A.desc, A.n
    result = MatrixRep(desc, n, (0,) * (n * n))
    for c in reversed(f.codes):
        result = result * A
        if c:
            codes = list(result.codes)
            for i in range(n):
                codes[i * n + i] = desc.add_c(codes[i * n + i], c)
            result = MatrixRep(desc, n, codes)
    return result


# ----------------------------------------------------------------------
# conjugacy data
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugacyDatum:
    """Class label: polynomial -> partition, pairs stored once.

    `assignments` maps each SCIM factor, or the smaller member of each
    tilde-conjugate pair, to a non-empty partition (a non-increasing tuple).
    The total sum of |partition| * degree, counting pairs twice, is n, and t
    never appears (the data label invertible classes only).
    """

    n: int
    assignments: tuple[tuple[Poly, tuple[int, ...]], ...]

    def __post_init__(self):
        total = 0
        for phi, lam in self.assignments:
            if not lam or list(lam) != sorted(lam, reverse=True):
                raise ValueError(f"invalid partition {lam}")
            if phi.codes[:1] == (0,):
                raise ValueError("the polynomial t cannot label an invertible class")
            weight = 1 if polyalg.tilde(phi) == phi else 2
            total += weight * sum(lam) * phi.degree
        if total != self.n:
            raise ValueError(f"partition sizes sum to {total}, expected {self.n}")

    def items(self) -> tuple[tuple[Poly, tuple[int, ...]], ...]:
        return self.assignments

    def __str__(self):
        return ";".join(f"{phi}:{'+'.join(map(str, lam))}" for phi, lam in self.assignments)


@dataclass(frozen=True)
class MatrixClassKind:
    """Family flags; separable implies cyclic and semisimple, and a matrix
    that is both cyclic and semisimple is separable."""

    separable: bool
    cyclic: bool
    semisimple: bool

    def __post_init__(self):
        if self.separable and not (self.cyclic and self.semisimple):
            raise ValueError("separable must imply cyclic and semisimple")
        if self.cyclic and self.semisimple and not self.separable:
            raise ValueError("cyclic + semisimple must imply separable")


def _kind_of_partitions(lams) -> MatrixClassKind:
    """Family flags from the partitions of the factors: separable means all
    partitions are [1], semisimple all-ones partitions, cyclic single-part
    partitions."""
    lams = list(lams)
    cyclic = all(len(lam) == 1 for lam in lams)
    semisimple = all(set(lam) == {1} for lam in lams)
    return MatrixClassKind(cyclic and semisimple, cyclic, semisimple)


def kind_of_datum(datum: ConjugacyDatum) -> MatrixClassKind:
    return _kind_of_partitions(lam for _, lam in datum.items())


def _conjugate_partition(cs: list[int]) -> tuple[int, ...]:
    if not cs:
        return ()
    if any(cs[i] < cs[i + 1] for i in range(len(cs) - 1)):
        raise OracleInvariantError("kernel steps must decrease")
    return tuple(sum(1 for c in cs if c >= i) for i in range(1, cs[0] + 1))


def gl_class_data(A: MatrixRep) -> tuple[tuple[Poly, tuple[int, ...]], ...]:
    """Rational canonical data of an invertible matrix over F_q2: every
    irreducible factor of the characteristic polynomial with its partition,
    sorted.  A complete GL(n, q^2)-conjugacy invariant.

    The partition of a factor phi with multiplicity m comes from the kernel
    dimensions of phi(A)^j: the increments divided by deg(phi) form the
    conjugate partition.
    """
    desc, n = A.desc, A.n
    ch = char_poly(A)
    if ch.codes[0] == 0:
        raise ValueError("conjugacy data are defined for invertible matrices only")
    out = []
    for phi, mult in polyalg.factor(ch):
        d = phi.degree
        target = mult * d
        B = _poly_at_matrix(phi, A)
        Bj = B
        cs: list[int] = []
        prev = 0
        while prev < target:
            k = n - _rank(desc, Bj.rows())
            step, rem = divmod(k - prev, d)
            if rem:
                raise OracleInvariantError(
                    "kernel growth must be a multiple of the factor degree"
                )
            cs.append(step)
            prev = k
            if prev < target:
                Bj = Bj * B
        lam = _conjugate_partition(cs)
        if sum(lam) != mult:
            raise OracleInvariantError(
                f"partition {lam} does not match the multiplicity {mult} of {phi}"
            )
        out.append((phi, lam))
    return tuple(out)


def datum_of(A: MatrixRep) -> ConjugacyDatum:
    """Conjugacy datum of a unitary-type invertible matrix over F_q2: the
    GL class data with each tilde-conjugate pair {phi, phi~} merged into one
    entry under the smaller member.

    Matrices whose factors are not tilde-symmetric (possible for general
    GL matrices, never for members of a unitary group) are rejected.
    """
    data = dict(gl_class_data(A))
    assignments: dict[Poly, tuple[int, ...]] = {}
    for phi, lam in data.items():
        phit = polyalg.tilde(phi)
        if phit != phi and data.get(phit) != lam:
            raise ValueError(
                "factor partitions are not tilde-symmetric; the matrix has no "
                "unitary conjugacy datum"
            )
        key = phi if phit == phi else min(phi, phit)
        assignments[key] = lam
    ordered = tuple(sorted(assignments.items(), key=lambda kv: kv[0].sort_key()))
    return ConjugacyDatum(A.n, ordered)


def classify_matrix(A: MatrixRep) -> MatrixClassKind:
    """Separable / cyclic / semisimple flags of an invertible matrix.

    Separable means squarefree characteristic polynomial (all partitions
    [1]); semisimple means squarefree minimal polynomial (all-ones
    partitions); cyclic means minimal = characteristic (single-part
    partitions)."""
    return _kind_of_partitions(lam for _, lam in gl_class_data(A))


# ----------------------------------------------------------------------
# group construction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConjClass:
    rep: MatrixRep
    size: int
    member_codes: frozenset
    datum: ConjugacyDatum
    kind: MatrixClassKind


def _remap(row, pos) -> list[int]:
    """The Cayley row carried through the index map pos; raises
    `OracleInvariantError` unless it is a permutation."""
    order = len(pos)
    out = [-1] * order
    hit = bytearray(order)
    if len(row) == order:
        for i, j in enumerate(row):
            if not 0 <= j < order or hit[j]:
                break
            hit[j] = 1
            out[pos[i]] = pos[j]
        else:
            return out
    raise OracleInvariantError("a Cayley table row is not a permutation")


class GroupTable:
    """Explicit element list of U(n, q), sorted by codes, the generating set
    it was built with, lazily computed classes, and the right Cayley table:
    right[k][i] indexes elements[i] * generators[k].  The table comes over
    the given element order; each row must be a permutation (else
    `OracleInvariantError`) and is remapped to the sorted order."""

    def __init__(self, n: int, q: int, desc: FieldDesc, elements, generators, right):
        self.n = n
        self.q = q
        self.desc = desc
        self.generators = tuple(generators)
        if len(right) != len(self.generators):
            raise OracleInvariantError("need one Cayley table row per generator")
        elements = list(elements)
        self.elements = sorted(elements, key=lambda A: A.codes)
        self.index = {A.codes: i for i, A in enumerate(self.elements)}
        pos = [self.index[A.codes] for A in elements]
        self.right = tuple(_remap(row, pos) for row in right)
        self.order = len(pos)
        self._classes = None

    def __len__(self):
        return self.order

    def __contains__(self, A: MatrixRep):
        return A.codes in self.index

    @property
    def classes(self) -> tuple[ConjClass, ...]:
        if self._classes is None:
            self._classes = self._compute_classes()
        return self._classes

    def _compute_classes(self) -> tuple[ConjClass, ...]:
        """Orbits of X -> s^(-1) X s = inv(R_s(inv(R_s(X)))) for the rows R_s
        of the Cayley table, with inv the unitary inverse as a permutation.
        Each orbit is closed from its smallest member, its representative and
        the only element whose datum is computed.

        Raises `OracleInvariantError` when two representatives share a
        datum, when an orbit's size is not |G| / |C_U(datum)| by Wall's
        centraliser order, or when the number of orbits is not Wall's class
        number.  An orbit lies inside one U-class, so a generating set that
        left a class split into several orbits fails the first two checks.
        """
        inv = [self.index.get(_unitary_inverse(A).codes) for A in self.elements]
        if None in inv:
            raise OracleInvariantError("an element's unitary inverse is not in the group")
        rows = self.right
        seen = bytearray(self.order)
        data: set = set()
        out = []
        for a, A in enumerate(self.elements):
            if seen[a]:
                continue
            seen[a] = 1
            orbit = [a]
            for x in orbit:  # grows while it is walked
                for r in rows:
                    y = inv[r[inv[r[x]]]]
                    if not seen[y]:
                        seen[y] = 1
                        orbit.append(y)
            dm = datum_of(A)
            if dm in data:
                raise OracleInvariantError(f"two conjugation orbits share the datum {dm}")
            data.add(dm)
            centraliser = _wall_centraliser_order(dm, self.q)
            if len(orbit) * centraliser != self.order:
                raise OracleInvariantError(
                    f"the orbit of datum {dm} has {len(orbit)} elements, but Wall's "
                    f"class size is {self.order}/{centraliser}"
                )
            members = frozenset(self.elements[x].codes for x in orbit)
            out.append(ConjClass(A, len(orbit), members, dm, kind_of_datum(dm)))
        if sum(c.size for c in out) != self.order:
            raise OracleInvariantError("class sizes do not sum to the group order")
        expected = _wall_class_number(self.n, self.q)
        if len(out) != expected:
            raise OracleInvariantError(
                f"{len(out)} conjugation orbits in U({self.n},{self.q}), but Wall's "
                f"class number is {expected}"
            )
        return tuple(out)


def _wall_centraliser_order(datum: ConjugacyDatum, q: int) -> int:
    """|C_U(A)| for a unitary matrix A with this datum (Wall 1963).

    A SCIM phi of degree d with partition lambda contributes
    q^(d sum_i lambda'_i^2) prod_i prod_{k=1..m_i(lambda)} (1 - (-q^d)^(-k)),
    where m_i(lambda) is the number of parts equal to i; a pair {phi, phi~}
    contributes the GL analogue over F_{q^(2d)}, with -q^d replaced by
    q^(2d).  With x = q^d, s = -1 for a SCIM and x = q^(2d), s = 1 for a
    pair, each factor 1 - (s x)^(-k) is (x^k - s^k) / x^k, so the
    contribution is the integer
    x^(sum_i lambda'_i^2 - sum_i m_i (m_i + 1) / 2) prod_i prod_k (x^k - s^k).
    """
    total = 1
    for phi, lam in datum.items():
        if polyalg.tilde(phi) == phi:
            x, s = q**phi.degree, -1
        else:
            x, s = q ** (2 * phi.degree), 1
        mults = Counter(lam).values()
        exponent = sum(c * c for c in _conjugate_partition(list(lam)))
        exponent -= sum(m * (m + 1) // 2 for m in mults)
        total *= x**exponent
        for m in mults:
            for k in range(1, m + 1):
                total *= x**k - s**k
    return total


def _wall_class_number(n: int, q: int) -> int:
    """Number of conjugacy classes of U(n, q): the z^n coefficient of
    prod_{i >= 1} (1 + z^i) / (1 - q z^i) (Wall 1963)."""
    c = [1] + [0] * n
    for i in range(1, n + 1):
        for k in range(n, i - 1, -1):  # times 1 + z^i
            c[k] += c[k - i]
        for k in range(i, n + 1):  # divided by 1 - q z^i
            c[k] += q * c[k - i]
    return c[n]


def _seed_elements(desc: FieldDesc, n: int):
    """Structured unitary matrices that generate U(n, q): the unipotent
    upper-triangular radical and the unitary monomials (the diagonal torus
    among them).  A monomial with v_i at (i, pi(i)) is unitary iff pi
    commutes with i -> n-1-i and v_(n-1-i) = conj(v_i)^(-1), so only those
    are made; each must still pass `is_unitary` (else
    `OracleInvariantError`).

    They come in the order they are tried as generators: larger element
    order first, which keeps the generating set small, ties by codes."""
    Q = desc.order
    seeds = []
    upper_slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for vals in itertools.product(range(Q), repeat=len(upper_slots)):
        codes = [0] * (n * n)
        for i in range(n):
            codes[i * n + i] = 1
        for (i, j), v in zip(upper_slots, vals):
            codes[i * n + j] = v
        A = MatrixRep(desc, n, tuple(codes))
        if is_unitary(A):
            seeds.append(A)
    mul, inv, cj = desc.mul_c, desc.inv_c, desc.conj_c
    half = n // 2
    choices = [range(1, Q)] * half
    if n % 2:
        choices.append([v for v in range(1, Q) if mul(v, cj(v)) == 1])
    entries = [
        vals + tuple(inv(cj(a)) for a in reversed(vals[:half]))
        for vals in itertools.product(*choices)
    ]
    for perm in itertools.permutations(range(n)):
        if any(perm[n - 1 - i] != n - 1 - perm[i] for i in range(n)):
            continue
        for v in entries:
            codes = [0] * (n * n)
            for i in range(n):
                codes[i * n + perm[i]] = v[i]
            A = MatrixRep(desc, n, tuple(codes))
            if not is_unitary(A):
                raise OracleInvariantError(f"the monomial seed {A.codes} is not unitary")
            seeds.append(A)
    unique = {A.codes: A for A in seeds}
    return sorted(unique.values(), key=lambda A: (-_element_order(A), A.codes))


def _element_order(A: MatrixRep) -> int:
    ident = MatrixRep.identity(A.desc, A.n)
    B, k = A, 1
    while B != ident:
        B, k = B * A, k + 1
    return k


def _greedy_generators(desc: FieldDesc, n: int, expected: int):
    """A generating set chosen greedily from the seeds, in their order, the
    subgroup it generates, and its right Cayley table (see `GroupTable`).

    A seed joins the set only when it lies outside the subgroup generated so
    far; the subgroup is then extended by closing under right
    multiplication, the old elements by the new generator and the new
    elements by all of them, so every element meets every generator exactly
    once.  The choice stops once the subgroup reaches the expected order.
    """
    ident = MatrixRep.identity(desc, n)
    elements = [ident]
    index = {ident.codes: 0}
    gens: list[MatrixRep] = []
    right: list[list[int]] = []
    for seed in _seed_elements(desc, n):
        if len(elements) >= expected:
            break
        if seed.codes in index:
            continue
        gens.append(seed)
        right.append([])
        frontier = range(len(elements))
        step = [len(gens) - 1]
        while frontier:
            for row in right:
                row.extend([-1] * (len(elements) - len(row)))
            fresh = []
            for i in frontier:
                A = elements[i]
                for k in step:
                    B = A * gens[k]
                    j = index.get(B.codes)
                    if j is None:
                        j = index[B.codes] = len(elements)
                        elements.append(B)
                        fresh.append(j)
                    right[k][i] = j
            frontier, step = fresh, range(len(gens))
    return gens, elements, right


def build_group(n: int, q: int) -> GroupTable:
    """Construct U(n, q) explicitly as the closure of a generating set
    chosen greedily from structured seed elements.

    Every seed passes `is_unitary` and a product of unitary matrices is
    unitary, so the closure is a subgroup of U(n, q); its element count must
    equal the predicted group order, which makes it the whole group.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    p, l = prime_power(q)
    desc = make_field(p, l, 1)
    expected = group_order_U(n, q)
    generators, elements, right = _greedy_generators(desc, n, expected)
    if len(elements) != expected:
        raise OracleInvariantError(
            f"constructed {len(elements)} elements of U({n},{q}), expected {expected}"
        )
    return GroupTable(n, q, desc, elements, generators, right)


@lru_cache(maxsize=16)
def group_table(n: int, q: int) -> GroupTable:
    """Cached `build_group` (groups are reused heavily); the 16 most
    recently used groups are kept."""
    return build_group(n, q)


# ----------------------------------------------------------------------
# power images
# ----------------------------------------------------------------------

_FAMILIES = ("all", "separable", "cyclic", "semisimple")


@dataclass(frozen=True)
class PowerImageCounts:
    """Element and class counts of {g^M : g in G}, per matrix family, and
    whether each of `G.classes` lies in it."""

    n: int
    q: int
    M: int
    elements: dict
    classes: dict
    in_image: tuple


def power_image_counts(G: GroupTable, M: int) -> PowerImageCounts:
    """Tabulate the image of g -> g^M by family (M = 1 tabulates all of G).

    Raises `OracleInvariantError` unless the image is a union of classes:
    each class hit by all of its members or by none, and nothing else hit.
    """
    if M < 1:
        raise ValueError(f"M = {M} must be a positive integer")
    image = {(A**M).codes for A in G.elements}
    elements = dict.fromkeys(_FAMILIES, 0)
    classes = dict.fromkeys(_FAMILIES, 0)
    in_image = []
    for c in G.classes:
        inside = not image.isdisjoint(c.member_codes)
        if inside and not image.issuperset(c.member_codes):
            raise OracleInvariantError("the power image must be a union of classes")
        in_image.append(inside)
        if inside:
            for tag in _FAMILIES:
                if tag == "all" or getattr(c.kind, tag):
                    elements[tag] += c.size
                    classes[tag] += 1
    if elements["all"] != len(image):
        raise OracleInvariantError("the power image must lie in the group")
    return PowerImageCounts(G.n, G.q, M, elements, classes, tuple(in_image))


# ----------------------------------------------------------------------
# companion blocks
# ----------------------------------------------------------------------

def companion(f: Poly) -> MatrixRep:
    """Standard companion matrix of a monic f: ones on the subdiagonal,
    -coefficients in the last column."""
    if not f.is_monic() or f.degree < 1:
        raise ValueError("companion matrices are about monic polynomials of degree >= 1")
    desc = f.desc
    d = f.degree
    codes = [0] * (d * d)
    for i in range(1, d):
        codes[i * d + (i - 1)] = 1
    for i in range(d):
        codes[i * d + (d - 1)] = desc.neg_c(f.codes[i])
    return MatrixRep(desc, d, codes)


def block_matrix(f: Poly, m: int) -> MatrixRep:
    """U(f, m): m companion blocks of f on the diagonal, identity blocks on
    the superdiagonal.  Its characteristic polynomial is f^m."""
    if m < 1:
        raise ValueError("multiplicity must be positive")
    C = companion(f)
    d = f.degree
    n = d * m
    codes = [0] * (n * n)
    for b in range(m):
        off = b * d
        for i in range(d):
            for j in range(d):
                codes[(off + i) * n + (off + j)] = C.codes[i * d + j]
        if b + 1 < m:
            for i in range(d):
                codes[(off + i) * n + (off + d + i)] = 1
    return MatrixRep(f.desc, n, codes)


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
    if not polyalg.is_irreducible(f) or f.codes[0] == 0:
        raise ValueError("block power check requires an irreducible f with f(0) != 0")
    B = companion(f) ** M
    if not classify_matrix(B).cyclic:
        return True
    g = char_poly(B)
    return gl_class_data(block_matrix(f, m) ** M) == gl_class_data(block_matrix(g, m))
