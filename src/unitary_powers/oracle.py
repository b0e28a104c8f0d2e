"""Ground-truth brute force for small unitary groups.

U(n, q) is realised as the invertible n x n matrices A over F_q2 with
A L conj(A)^t = L, L the anti-diagonal Hermitian form (L[i][j] = 1 iff
i + j = n - 1, so L^2 = I).  A group is the closure of a generating set S,
chosen greedily from structured unitary seeds (unipotent upper-triangular
and monomial), larger element order first: a seed joins S only when it lies
outside the subgroup S generates so far, so |S| <= log2 |G|.  Products of
unitary matrices are unitary, so the closure is a subgroup of U(n, q); its
order is checked against |U(n, q)|, which makes it the whole group.

The closure runs on packed rows.  With Q = q^2 a row is one base-Q integer
and a matrix the tuple of its n row codes.  Row i of A s is (row i of A) s,
so each generator s gets a table row -> row s, filled as rows are met (at
most Q^n), and a product is n lookups; the tables are dropped when the
closure ends.  The group stays packed: only class representatives become
`MatrixRep`, and the full element list is built on request.

The conjugacy datum of an invertible matrix maps the irreducible factors of
its characteristic polynomial (by Bareiss elimination on tI - A) to
partitions, read off the kernel dimensions of powers of phi(A), with
tilde-conjugate pairs stored once.  By Wall (1963)
it determines the U-conjugacy class, and Wall gives the centraliser order of
every datum and the number of classes of U(n, q).

Classes are the orbits of X -> s^(-1) X s for s in S, each closed from its
smallest member through the right Cayley table (the index of X s for every
X and s) and the unitary inverse as an index permutation, so an orbit step
is four index lookups.  The datum is computed once per orbit, on that
member, and three checks guard the orbits, each raising
`OracleInvariantError`: the representatives' data are pairwise distinct,
every orbit has Wall's class size |G| / |C_U(datum)|, and the number of
orbits is Wall's class number.  Each orbit lies inside one U-class, so if S
generated a proper subgroup some class would split into orbits that share
a datum and are each smaller than Wall's class size.  A `ValueError` from
`datum_of` on a group element is raised as `OracleInvariantError` too.

`power_image_counts` powers only the class representatives.  If
g = h^(-1) r h, then g^M = h^(-1) r^M h: the M-th powers of the class of r
are exactly the class of r^M, so the image of g -> g^M is the union of the
classes of the representatives' powers, each class in it wholly or not at
all.  Two checks guard each power P = r^M, each raising
`OracleInvariantError`: P lies in G (an index lookup), and the class that
holds P is the class whose datum is datum_of(P).  That holds by
construction when P is the representative of the class that holds it, so
datum_of(P) is skipped there (at M = 1, for every P).  The power map over
every element is kept as a test-side reference.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter, namedtuple
from functools import cached_property, lru_cache, reduce
from math import gcd, lcm

from . import polyalg
from ._numth import InvariantError, order_dividing, power, prime_power
from .gf import FieldDesc, make_field
from .polyalg import Poly
from .series import group_order_U

__all__ = [
    "OracleInvariantError", "MatrixRep", "is_unitary", "GroupTable", "ConjClass",
    "ConjugacyDatum", "MatrixClassKind", "build_group", "group_table", "datum_of",
    "gl_class_data", "char_poly", "power_image_counts", "PowerImageCounts", "companion",
    "block_matrix",
]

class OracleInvariantError(InvariantError):
    """An invariant of the oracle's construction failed; the results it
    guards cannot be trusted."""


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------

class MatrixRep:
    """Immutable n x n matrix over a `FieldDesc` field, stored as a flat
    row-major tuple of coefficient codes (which also serves as its hash key).
    The entries must be integer codes (`operator.index`) in [0, Q); products
    build their results unchecked.
    """

    __slots__ = ("desc", "n", "codes")

    def __init__(self, desc: FieldDesc, n: int, codes):
        codes = tuple(map(operator.index, codes))
        if len(codes) != n * n:
            raise ValueError("entry vector does not match the dimension")
        if codes and not (0 <= min(codes) and max(codes) < desc.order):
            raise ValueError(f"entry codes must lie in [0, {desc.order})")
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
        return _matrix(self.desc, n, out)

    def __pow__(self, e: int) -> "MatrixRep":
        if e < 0:
            raise ValueError("negative matrix powers are not needed here")
        if e == 0:
            return MatrixRep.identity(self.desc, self.n)
        return power(self, e, operator.mul)  # a * b: each product is a __mul__ call

    def __eq__(self, other):
        if isinstance(other, MatrixRep):
            return self.desc is other.desc and self.n == other.n and self.codes == other.codes
        return NotImplemented

    def __hash__(self):
        return hash((id(self.desc), self.codes))

    def __repr__(self):
        return f"MatrixRep({self.n}x{self.n} over GF({self.desc.order}), {self.codes})"


def _matrix(desc: FieldDesc, n: int, codes) -> MatrixRep:
    """Internal constructor for results whose codes lie in [0, Q) by
    construction: skips the validation of `MatrixRep.__init__`."""
    A = object.__new__(MatrixRep)
    A.desc, A.n, A.codes = desc, n, tuple(codes)
    return A


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
    """det(tI - A), by Bareiss's fraction-free elimination (1968) on the
    polynomial matrix tI - A over F_q2[t], in O(n^3) polynomial operations.

    After step k, entry (i, j) with i, j > k is the minor of tI - A on rows
    0..k, i and columns 0..k, j (Sylvester's identity), so each division by
    the previous pivot is exact.  The pivot of step k is the leading
    principal minor of order k + 1, the characteristic polynomial of the
    leading (k + 1) x (k + 1) block of A: monic of degree k + 1, so no pivot
    vanishes and no pivoting is needed.  A nonzero remainder raises
    `OracleInvariantError`.
    """
    desc, n, a = A.desc, A.n, A.codes
    m = [[Poly(desc, (desc.neg_c(a[i * n + j]), 1) if i == j else (desc.neg_c(a[i * n + j]),))
          for j in range(n)] for i in range(n)]
    prev = Poly.one(desc)
    for k in range(n - 1):
        pivot, row_k = m[k][k], m[k]
        for row in m[k + 1:]:
            for j in range(k + 1, n):
                quot, rem = divmod(row[j] * pivot - row[k] * row_k[j], prev)
                if not rem.is_zero():
                    raise OracleInvariantError("a Bareiss step left a remainder")
                row[j] = quot
        prev = pivot
    return m[-1][-1]


def _poly_at_matrix(f: Poly, A: MatrixRep) -> MatrixRep:
    desc, n = A.desc, A.n
    result = _matrix(desc, n, (0,) * (n * n))
    for c in reversed(f.codes):
        result = result * A
        if c:
            codes = list(result.codes)
            for i in range(n):
                codes[i * n + i] = desc.add_c(codes[i * n + i], c)
            result = _matrix(desc, n, codes)
    return result


# ----------------------------------------------------------------------
# conjugacy data
# ----------------------------------------------------------------------

class ConjugacyDatum(namedtuple("ConjugacyDatum", "n assignments")):
    """Class label: polynomial -> partition, pairs stored once.

    `assignments` maps each SCIM factor, or the smaller member of each
    tilde-conjugate pair, to a non-empty partition (a non-increasing tuple).
    The total sum of |partition| * degree, counting pairs twice, is n, and t
    never appears (the data label invertible classes only); a datum that
    breaks this is refused when it is made (`ValueError`).
    """

    __slots__ = ()

    def __new__(cls, n: int, assignments: tuple[tuple[Poly, tuple[int, ...]], ...]):
        total = 0
        for phi, lam in assignments:
            if not lam or list(lam) != sorted(lam, reverse=True):
                raise ValueError(f"invalid partition {lam}")
            if phi.codes[:1] == (0,):
                raise ValueError("the polynomial t cannot label an invertible class")
            weight = 1 if polyalg.tilde(phi) == phi else 2
            total += weight * sum(lam) * phi.degree
        if total != n:
            raise ValueError(f"partition sizes sum to {total}, expected {n}")
        return super().__new__(cls, n, assignments)

    @classmethod
    def _make(cls, iterable):  # so that `_replace` checks too
        return cls(*iterable)

    def items(self) -> tuple[tuple[Poly, tuple[int, ...]], ...]:
        return self.assignments

    def __str__(self):
        return ";".join(f"{phi}:{'+'.join(map(str, lam))}" for phi, lam in self.assignments)


class MatrixClassKind(namedtuple("MatrixClassKind", "cyclic semisimple")):
    """Family flags; a class is separable iff it is cyclic and semisimple."""

    __slots__ = ()

    @property
    def separable(self) -> bool:
        return self.cyclic and self.semisimple


def _kind_of_partitions(lams) -> MatrixClassKind:
    """Family flags from the partitions of the factors: cyclic means
    single-part partitions, semisimple all-ones partitions."""
    lams = list(lams)
    cyclic = all(len(lam) == 1 for lam in lams)
    semisimple = all(set(lam) == {1} for lam in lams)
    return MatrixClassKind(cyclic, semisimple)


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
                raise OracleInvariantError("kernel growth must be a multiple of the factor degree")
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
            raise ValueError("factor partitions are not tilde-symmetric; the matrix "
                             "has no unitary conjugacy datum")
        key = phi if phit == phi else min(phi, phit)
        assignments[key] = lam
    ordered = tuple(sorted(assignments.items(), key=lambda kv: kv[0].sort_key()))
    return ConjugacyDatum(A.n, ordered)


def _element_datum(A: MatrixRep) -> ConjugacyDatum:
    """`datum_of` on a group element, which always has a datum: a
    `ValueError` there is an oracle fault."""
    try:
        return datum_of(A)
    except ValueError as exc:
        raise OracleInvariantError(f"a group element has no conjugacy datum: {exc}") from exc


# ----------------------------------------------------------------------
# group construction
# ----------------------------------------------------------------------

def _row_code(entries, Q: int) -> int:
    """A row of field codes as one base-Q integer, first entry most
    significant, so packed matrices sort as their flat codes do."""
    code = 0
    for x in entries:
        code = code * Q + x
    return code


def _pack(A: MatrixRep) -> tuple[int, ...]:
    n, Q = A.n, A.desc.order
    return tuple(_row_code(A.codes[i * n : (i + 1) * n], Q) for i in range(n))


def _unpack(desc: FieldDesc, n: int, rows) -> MatrixRep:
    Q = desc.order
    return _matrix(desc, n, [r // Q ** (n - 1 - j) % Q for r in rows for j in range(n)])


class _Memo(dict):
    """f as a table that fills itself: a missing key k gets f(k)."""

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, k):
        self[k] = v = self.f(k)
        return v


def _row_table(S: MatrixRep) -> _Memo:
    """Row code r -> the code of (row r) S, for the rows met (at most Q^n)."""
    add, mul, Q, n = S.desc.add_c, S.desc.mul_c, S.desc.order, S.n
    cols = [S.codes[j::n] for j in range(n)]

    def times(r):
        row = [r // Q ** (n - 1 - k) % Q for k in range(n)]
        return _row_code([reduce(add, map(mul, row, col)) for col in cols], Q)

    return _Memo(times)


class ConjClass(namedtuple("ConjClass", "rep size datum kind group number")):
    """The `number`-th of `group.classes`; `member_codes` is built on first use."""

    __slots__ = ()

    @property
    def member_codes(self) -> frozenset:
        return self.group._member_codes[self.number]


def _remap(row, pos) -> list[int]:
    """The Cayley row carried through the index map pos; raises
    `OracleInvariantError` unless it is a permutation."""
    if sorted(row) != list(range(len(pos))):
        raise OracleInvariantError("a Cayley table row is not a permutation")
    out = [-1] * len(pos)
    for i, j in enumerate(row):
        out[pos[i]] = pos[j]
    return out


class GroupTable:
    """U(n, q) as its packed elements, sorted as their flat codes; its
    generators; lazy classes, with class_of[i] the class of packed[i]; and
    the right Cayley table, right[k][i] the index of packed[i] generators[k],
    given over the input order and remapped (each row must be a permutation,
    else `OracleInvariantError`).  `elements` (as `MatrixRep`) is built on
    first use."""

    def __init__(self, n: int, q: int, desc: FieldDesc, packed, generators, right):
        self.n, self.q, self.desc = n, q, desc
        self.generators = tuple(generators)
        if len(right) != len(self.generators):
            raise OracleInvariantError("need one Cayley table row per generator")
        packed = list(packed)
        self.packed = sorted(packed)
        self._pos = {A: i for i, A in enumerate(self.packed)}
        pos = [self._pos[A] for A in packed]
        self.right = tuple(_remap(row, pos) for row in right)
        self.order = len(pos)
        self._classes = self._class_of = None

    def __len__(self):
        return self.order

    def __contains__(self, A: MatrixRep):
        return _pack(A) in self._pos

    @cached_property
    def elements(self) -> list[MatrixRep]:
        return [_unpack(self.desc, self.n, A) for A in self.packed]

    @cached_property
    def _member_codes(self) -> list[frozenset]:
        members = [[] for _ in self.classes]
        for A, k in zip(self.elements, self._class_of):
            members[k].append(A.codes)
        return [frozenset(m) for m in members]

    @property
    def classes(self) -> tuple[ConjClass, ...]:
        if self._classes is None:
            self._classes, self._class_of = self._compute_classes()
        return self._classes

    def _inverses(self) -> list[int]:
        """inv[i] indexes packed[i]^(-1) = L conj(packed[i])^t L, read off columns."""
        cj, n, Q = self.desc.conj_c, self.n, self.desc.order
        flip = _Memo(lambda r: [cj(r // Q**j % Q) for j in range(n)]).__getitem__
        inv = [self._pos.get(tuple(_row_code(c, Q) for c in zip(*map(flip, A[::-1]))))
               for A in self.packed]
        if None in inv:
            raise OracleInvariantError("an element's unitary inverse is not in the group")
        return inv

    def _compute_classes(self) -> tuple[tuple[ConjClass, ...], list[int]]:
        """The classes (see the module docstring) and class_of: orbits of
        X -> inv(R_s(inv(R_s(X)))) for the rows R_s of the Cayley table.  Only
        representatives are unpacked and given a datum."""
        inv = self._inverses()
        rows = self.right
        class_of = [-1] * self.order
        data: set = set()
        out = []
        for a in range(self.order):
            if class_of[a] >= 0:
                continue
            class_of[a] = k = len(out)
            orbit = [a]
            for x in orbit:  # grows while it is walked
                for r in rows:
                    y = inv[r[inv[r[x]]]]
                    if class_of[y] < 0:
                        class_of[y] = k
                        orbit.append(y)
            rep = _unpack(self.desc, self.n, self.packed[a])
            dm = _element_datum(rep)
            if dm in data:
                raise OracleInvariantError(f"two conjugation orbits share the datum {dm}")
            data.add(dm)
            centraliser = _wall_centraliser_order(dm, self.q)
            if len(orbit) * centraliser != self.order:
                raise OracleInvariantError(
                    f"the orbit of datum {dm} has {len(orbit)} elements, but Wall's "
                    f"class size is {self.order}/{centraliser}"
                )
            kind = _kind_of_partitions(lam for _, lam in dm.items())
            out.append(ConjClass(rep, len(orbit), dm, kind, self, k))
        if sum(c.size for c in out) != self.order:
            raise OracleInvariantError("class sizes do not sum to the group order")
        expected = _wall_class_number(self.n, self.q)
        if len(out) != expected:
            raise OracleInvariantError(
                f"{len(out)} conjugation orbits in U({self.n},{self.q}), but Wall's "
                f"class number is {expected}"
            )
        return tuple(out), class_of


def _wall_centraliser_order(datum: ConjugacyDatum, q: int) -> int:
    """|C_U(A)| for a unitary matrix A with this datum (Wall 1963).

    With x = q^d, s = -1 for a SCIM phi of degree d and x = q^(2d), s = 1
    for a pair {phi, phi~} (the GL analogue over F_{q^(2d)}), partition
    lambda contributes x^(sum_i lambda'_i^2) prod_i prod_{k=1..m_i}
    (1 - (s x)^(-k)), m_i the number of parts equal to i; that is the integer
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


def _seed_elements(desc: FieldDesc, n: int) -> dict:
    """Structured unitary matrices that generate U(n, q), each mapped to its
    order, in the order they are tried as generators (larger order first,
    ties by codes): the unipotent upper-triangular radical and the unitary
    monomials.  A monomial with v_i at (i, pi(i)) is unitary iff pi commutes
    with i -> n-1-i and v_(n-1-i) = conj(v_i)^(-1), so only those are made;
    each must still pass `is_unitary` (else `OracleInvariantError`).

    The orders are read off the seeds' form.  A unipotent seed I + N has
    N^n = 0, so its p^(n-1)-th power is I and `order_dividing` finds its
    order.  A monomial seed's |C|-th power is, on each cycle C of pi, the
    scalar prod of v_i over C; its order is the lcm over the cycles of |C|
    times that scalar's order (Q - 1) / gcd(sum of log v_i, Q - 1)."""
    Q = desc.order
    ident = MatrixRep.identity(desc, n)
    seeds = {}
    upper_slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for vals in itertools.product(range(Q), repeat=len(upper_slots)):
        codes = list(ident.codes)
        for (i, j), v in zip(upper_slots, vals):
            codes[i * n + j] = v
        A = MatrixRep(desc, n, tuple(codes))
        if is_unitary(A):
            seeds[A] = order_dividing(desc.p ** (n - 1),
                                      lambda k: power(A, k, operator.mul) == ident)
    inv, cj, log, q = desc.inv_c, desc.conj_c, desc.log_table, desc.q
    half = n // 2
    choices = [range(1, Q)] * half
    if n % 2:  # the norm-one circle v^(q+1) = 1: g^(k(q-1)), k = 0..q, ascending
        choices.append(sorted(desc.exp_table[k * (q - 1)] for k in range(q + 1)))
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
            order = 1
            for i in range(n):  # the cycle of i: its length and its scalar's log
                size, s, j = 1, log[v[i]], perm[i]
                while j != i:
                    size, s, j = size + 1, s + log[v[j]], perm[j]
                order = lcm(order, size * (Q - 1) // gcd(s, Q - 1))
            seeds[A] = order
    return dict(sorted(seeds.items(), key=lambda s: (-s[1], s[0].codes)))


def _greedy_generators(desc: FieldDesc, n: int, expected: int):
    """A generating set chosen greedily from the seeds, in their order, the
    packed subgroup it generates, and its right Cayley table.  A seed joins
    the set only when it lies outside the subgroup so far, which is then
    closed under right multiplication: the old elements by the new
    generator, the new elements by all of them, so every element meets
    every generator once.  A product is n lookups in the generator's
    `_row_table`.  The choice stops at the expected order."""
    ident = tuple(desc.order ** (n - 1 - i) for i in range(n))
    elements = [ident]
    index = {ident: 0}
    gens, times, right = [], [], []  # times[k]: row code -> code of row * gens[k]
    for seed in _seed_elements(desc, n):
        if len(elements) >= expected:
            break
        if _pack(seed) in index:
            continue
        gens.append(seed)
        times.append(_row_table(seed).__getitem__)
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
                    B = tuple(map(times[k], A))
                    j = index.get(B)
                    if j is None:
                        j = index[B] = len(elements)
                        elements.append(B)
                        fresh.append(j)
                    right[k][i] = j
            frontier, step = fresh, range(len(gens))
    return gens, elements, right


def build_group(n: int, q: int) -> GroupTable:
    """U(n, q) as the closure of greedily chosen seeds; its order must be
    |U(n, q)| (else `OracleInvariantError`)."""
    if n < 1:
        raise ValueError("dimension must be positive")
    desc = make_field(*prime_power(q), 1)
    expected = group_order_U(n, q)
    generators, elements, right = _greedy_generators(desc, n, expected)
    if len(elements) != expected:
        raise OracleInvariantError(f"constructed {len(elements)} elements of "
                                   f"U({n},{q}), expected {expected}")
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


class PowerImageCounts(namedtuple("PowerImageCounts", "n q M elements classes in_image")):
    """Element and class counts of {g^M : g in G}, per matrix family (dicts
    keyed by family), and whether each of `G.classes` lies in it."""

    __slots__ = ()


def power_image_counts(G: GroupTable, M: int) -> PowerImageCounts:
    """Tabulate the image of g -> g^M by family (M = 1 tabulates all of G),
    from the powers of the class representatives; see the module docstring
    for why that suffices and for the checks."""
    if M < 1:
        raise ValueError(f"M = {M} must be a positive integer")
    classes = G.classes
    hit = set()
    for c in classes:
        P = c.rep**M
        j = G._pos.get(_pack(P))
        if j is None:
            raise OracleInvariantError("the power image must lie in the group")
        image = classes[G._class_of[j]]
        if P != image.rep:  # else P's datum is the class datum
            dm = _element_datum(P)
            if image.datum != dm:
                raise OracleInvariantError(
                    f"the {M}-th power of the class of {c.datum} has the datum {dm}, "
                    f"but lies in the class of {image.datum}"
                )
        hit.add(image.number)
    image = [c for c in classes if c.number in hit]
    tally = {tag: [c for c in image if tag == "all" or getattr(c.kind, tag)] for tag in _FAMILIES}
    elements = {tag: sum(c.size for c in cs) for tag, cs in tally.items()}
    counts = {tag: len(cs) for tag, cs in tally.items()}
    in_image = tuple(c.number in hit for c in classes)
    return PowerImageCounts(G.n, G.q, M, elements, counts, in_image)


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
    for b in range(0, n, d):
        for i in range(d):
            codes[(b + i) * n + b : (b + i) * n + b + d] = C.codes[i * d : (i + 1) * d]
            if b + d < n:
                codes[(b + i) * n + b + d + i] = 1
    return MatrixRep(f.desc, n, codes)
