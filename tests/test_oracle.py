"""Brute-force oracle: group construction, class data, power images, blocks."""

import hashlib
import itertools
import operator
import os
import random
import time
import subprocess
import sys
from math import ceil, gcd, log2
from pathlib import Path

import pytest

import unitary_powers
from test_acceptance import ORACLE_PAIRS
from test_numth import order_by_walk
from unitary_powers import oracle
from unitary_powers._numth import prime_power
from unitary_powers.genfun import centralizer_order
from unitary_powers.gf import _field, make_field
from unitary_powers.oracle import (
    ConjugacyDatum,
    GroupTable,
    MatrixClassKind,
    MatrixRep,
    OracleInvariantError,
    PowerImageCounts,
    _wall_centraliser_order,
    _wall_class_number,
    block_matrix,
    build_group,
    char_poly,
    check_block_power,
    classify_matrix,
    companion,
    datum_of,
    gl_class_data,
    group_table,
    is_unitary,
    power_image_counts,
)
from unitary_powers.polyalg import (
    Poly,
    factor,
    irreducible_polys,
    is_m_power_pair,
    is_mtilde_power,
    root_order,
)
from unitary_powers.series import group_order_U

F4 = make_field(2, 1, 1)
F9 = make_field(3, 1, 1)


def elem_of_order(desc, k):
    # the least code of multiplicative order k, by repeated multiplication
    for a in range(1, desc.order):
        b, j = a, 1
        while b != 1:
            b = desc.mul_c(b, a)
            j += 1
        if j == k:
            return a
    raise AssertionError


@pytest.mark.parametrize("n,q,size", [(1, 2, 3), (2, 2, 18), (1, 3, 4), (2, 3, 96)])
def test_build_group_by_scan(n, q, size):
    G = group_table(n, q)
    assert len(G) == size == group_order_U(n, q)
    for A in G.elements[:6]:
        assert is_unitary(A)


def test_group_is_closed_under_products():
    G = group_table(2, 2)
    sample = G.elements[:5]
    for A in sample:
        for B in sample:
            assert (A * B) in G


def closure(gens, desc, n):
    """Right-multiplication closure of gens from the identity."""
    ident = MatrixRep.identity(desc, n)
    seen = {ident.codes}
    frontier = [ident]
    while frontier:
        fresh = []
        for A in frontier:
            for s in gens:
                B = A * s
                if B.codes not in seen:
                    seen.add(B.codes)
                    fresh.append(B)
        frontier = fresh
    return seen


def unitary_inverse(A):
    """L conj(A)^t L, by matrix products."""
    n, cj = A.n, A.desc.conj_c
    lam = MatrixRep(A.desc, n, [1 if i + j == n - 1 else 0 for i in range(n) for j in range(n)])
    conj_t = MatrixRep(A.desc, n, [cj(A.codes[j * n + i]) for i in range(n) for j in range(n)])
    return lam * conj_t * lam


def reference_classes(G):
    """Classes by conjugating each smallest unseen element by every element."""
    inverses = {B.codes: unitary_inverse(B) for B in G.elements}
    seen = set()
    out = []
    for A in G.elements:
        if A.codes in seen:
            continue
        orbit = frozenset((B * A * inverses[B.codes]).codes for B in G.elements)
        seen |= orbit
        out.append((A.codes, len(orbit), orbit))
    return out


def scan_elements(desc, n):
    """Codes of every n x n matrix over desc with A L conj(A)^t = L, found by
    testing all Q^(n^2) candidates in lexicographic order."""
    Q = desc.order
    add, mul = desc.add_c, desc.mul_c
    conj_tab = [desc.conj_c(c) for c in range(Q)]
    target = [[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)]
    out = []
    for codes in itertools.product(range(Q), repeat=n * n):
        ok = True
        for i in range(n):
            base_i = i * n
            for j in range(n):
                base_j = j * n
                s = 0
                for k in range(n):
                    aik = codes[base_i + n - 1 - k]
                    if aik:
                        s = add(s, mul(aik, conj_tab[codes[base_j + k]]))
                if s != target[i][j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(codes)
    return out


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3), (2, 4), (2, 5)])
def test_closure_fallback_matches_the_scan(n, q):
    G = build_group(n, q)
    assert [A.codes for A in G.elements] == scan_elements(G.desc, n)


def filtered_seeds(desc, n):
    """Codes of the seed set found by filtering with `is_unitary`: every
    diagonal, unipotent upper-triangular and monomial candidate."""
    Q = desc.order
    candidates = []
    for diag in itertools.product(range(1, Q), repeat=n):
        candidates.append(tuple(diag[i] if i == j else 0 for i in range(n) for j in range(n)))
    upper_slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for vals in itertools.product(range(Q), repeat=len(upper_slots)):
        codes = [0] * (n * n)
        for i in range(n):
            codes[i * n + i] = 1
        for (i, j), v in zip(upper_slots, vals):
            codes[i * n + j] = v
        candidates.append(tuple(codes))
    for perm in itertools.permutations(range(n)):
        for vals in itertools.product(range(1, Q), repeat=n):
            codes = [0] * (n * n)
            for i in range(n):
                codes[i * n + perm[i]] = vals[i]
            candidates.append(tuple(codes))
    return {c for c in candidates if is_unitary(MatrixRep(desc, n, c))}


# U(1, q) is the norm-one circle, which the seeds read off the exp table
@pytest.mark.parametrize("n,q", ORACLE_PAIRS + [(3, 3), (4, 2), (1, 257)]
                         + [(1, q) for q in (4, 5, 7, 8, 9, 16, 17)])
def test_seed_elements_match_the_unitary_filter(n, q):
    desc = make_field(*prime_power(q), 1)
    seeds = oracle._seed_elements(desc, n)
    assert len(seeds) == len({A.codes for A in seeds})
    assert {A.codes for A in seeds} == filtered_seeds(desc, n)


@pytest.mark.parametrize("n,q", ORACLE_PAIRS + [(3, 3), (4, 2), (1, 257), (2, 17)])
def test_seed_orders_equal_the_power_walk(n, q):
    # the orders read off the seeds' form, against multiplying until I
    desc = make_field(*prime_power(q), 1)
    ident = MatrixRep.identity(desc, n)
    for A, k in oracle._seed_elements(desc, n).items():
        assert k == order_by_walk(A, operator.mul, ident), A.codes


def test_non_unitary_monomial_seed_raises(monkeypatch):
    # with inversion broken, v_(n-1-i) = conj(v_i)^(-1) gives non-unitary
    # monomials; the descriptor is built outside the make_field cache
    desc = _field.__wrapped__(3, 1)
    monkeypatch.setattr(desc, "inv_c", lambda a: a)
    with pytest.raises(OracleInvariantError, match="not unitary"):
        oracle._seed_elements(desc, 2)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2)])
def test_unitary_inverse_inverts_every_element(n, q):
    # the packed-row inverse permutation that the class orbits walk
    G = group_table(n, q)
    ident = MatrixRep.identity(G.desc, n)
    for A, i in zip(G.elements, G._inverses()):
        assert A * G.elements[i] == ident


def test_group_table_cache_is_bounded():
    # 16 covers every group one test run asks for, U(3,3) included
    maxsize = group_table.cache_info().maxsize
    assert maxsize is not None and maxsize >= 16


# |S| of the seeds in their order (decreasing element order, ties by codes);
# ordering them by codes alone gives 2, 3, 5, 5, 7, 5 for U(1,3), U(2,2), U(2,3),
# U(2,5), U(2,7), U(3,2)
GENERATOR_COUNTS = {(1, 2): 1, (2, 2): 2, (3, 2): 3, (1, 3): 1, (2, 3): 3, (2, 4): 3,
                    (2, 5): 3, (2, 7): 3}


@pytest.mark.parametrize("n,q", list(GENERATOR_COUNTS))
def test_generators_generate_and_are_few(n, q):
    G = group_table(n, q)
    assert closure(G.generators, G.desc, n) == {A.codes for A in G.elements}
    assert 1 <= len(G.generators) <= ceil(log2(len(G)))
    assert len(G.generators) == GENERATOR_COUNTS[n, q]


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3), (2, 4)])
def test_generator_orbits_match_all_element_conjugation(n, q):
    G = group_table(n, q)
    got = [(c.rep.codes, c.size, c.member_codes) for c in G.classes]
    assert got == reference_classes(G)


def product_orbits(G):
    """Classes by matrix products: each smallest unseen element closed under
    X -> s X s^(-1) for the generators s."""
    pairs = [(s, unitary_inverse(s)) for s in G.generators]
    seen = set()
    out = []
    for A in G.elements:
        if A.codes in seen:
            continue
        orbit = {A.codes}
        frontier = [A]
        while frontier:
            fresh = []
            for X in frontier:
                for s, s_inv in pairs:
                    Y = s * X * s_inv
                    if Y.codes not in orbit:
                        orbit.add(Y.codes)
                        fresh.append(Y)
            frontier = fresh
        seen |= orbit
        out.append((A.codes, len(orbit), frozenset(orbit)))
    return out


@pytest.mark.parametrize("n,q", ORACLE_PAIRS + [(2, 7)])
def test_table_orbits_match_product_orbits(n, q):
    G = group_table(n, q)
    got = [(c.rep.codes, c.size, c.member_codes) for c in G.classes]
    assert got == product_orbits(G)


@pytest.mark.parametrize("n,q", ORACLE_PAIRS + [(2, 7)])
def test_classes_equal_their_datum_fibres(n, q):
    # the per-element reference: every class is exactly the set of elements
    # sharing its representative's datum
    G = group_table(n, q)
    fibres = {}
    for A in G.elements:
        fibres.setdefault(datum_of(A), set()).add(A.codes)
    assert len(fibres) == len(G.classes)
    for c in G.classes:
        assert c.member_codes == fibres[c.datum]


@pytest.mark.parametrize("q,numbers", [(2, [3, 9, 24, 60]), (3, [4, 16, 56])])
def test_wall_class_number(q, numbers):
    assert [_wall_class_number(n, q) for n in range(1, len(numbers) + 1)] == numbers


# classes whose partitions are each [m] or [1^m]; "mixed" ones have both
# shapes, so they are neither cyclic nor semisimple
BLOCK_SHAPED = {(1, 2): (3, 0), (2, 2): (9, 0), (3, 2): (21, 0), (1, 3): (4, 0),
                (2, 3): (16, 0), (2, 4): (25, 0), (2, 5): (36, 0), (3, 3): (52, 0),
                (4, 2): (45, 6)}


@pytest.mark.parametrize("n,q", ORACLE_PAIRS + [(3, 3), (4, 2)])
def test_wall_centraliser_matches_genfun_on_family_classes(n, q):
    checked = mixed = 0
    for c in group_table(n, q).classes:
        if all(len(lam) == 1 or set(lam) == {1} for _, lam in c.datum.items()):
            assert _wall_centraliser_order(c.datum, q) == centralizer_order(c.datum, q)
            checked += 1
            mixed += not (c.kind.cyclic or c.kind.semisimple)
        else:
            with pytest.raises(ValueError):
                centralizer_order(c.datum, q)
    assert (checked, mixed) == BLOCK_SHAPED[(n, q)]


def fresh_classes(n, q):
    """Classes of a new table over the cached group's elements and
    generators, computed afresh rather than taken from the cache."""
    G = group_table(n, q)
    return GroupTable(G.n, G.q, G.desc, G.packed, G.generators, G.right).classes


def test_shared_datum_raises(monkeypatch):
    # every representative gets the first one's datum, which is right for
    # the first orbit and repeats at the second
    real = oracle.datum_of
    first = group_table(2, 2).elements[0]
    monkeypatch.setattr(oracle, "datum_of", lambda A: real(first))
    with pytest.raises(OracleInvariantError, match="share the datum"):
        fresh_classes(2, 2)


def test_wrong_centraliser_order_raises(monkeypatch):
    real = oracle._wall_centraliser_order
    monkeypatch.setattr(oracle, "_wall_centraliser_order", lambda dm, q: 2 * real(dm, q))
    with pytest.raises(OracleInvariantError, match="class size"):
        fresh_classes(2, 2)


def test_wrong_class_number_raises(monkeypatch):
    real = oracle._wall_class_number
    monkeypatch.setattr(oracle, "_wall_class_number", lambda n, q: real(n, q) + 1)
    with pytest.raises(OracleInvariantError, match="class number"):
        fresh_classes(2, 2)


def test_classes_under_a_proper_subgroup_raise():
    G = group_table(2, 2)
    sub = G.generators[:1]
    assert len(closure(sub, G.desc, 2)) < len(G)
    with pytest.raises(OracleInvariantError):
        GroupTable(G.n, G.q, G.desc, G.packed, sub, G.right[:1]).classes


def test_proper_subgroup_check_survives_python_O():
    code = (
        "import sys\n"
        "from unitary_powers import GroupTable, OracleInvariantError, group_table\n"
        "G = group_table(2, 2)\n"
        "try:\n"
        "    GroupTable(G.n, G.q, G.desc, G.packed, G.generators[:1], G.right[:1]).classes\n"
        "except OracleInvariantError:\n"
        "    sys.exit(0 if sys.flags.optimize else 4)\n"
        "sys.exit(1)\n"
    )
    src = str(Path(unitary_powers.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()


# sha256 of the element codes, generator codes and right Cayley table, as the
# closure by whole-matrix products built them before the packed-row closure
CLOSURE_DIGESTS = {
    (3, 2): "7ce39ea38fecffa59d5b636cd1687085ea0a54b75f49345302a6a85cdf0a4583",
    (2, 8): "06032c6d0ffa9edab764c248af152fbb6591f7b9059c7d609006b6a554957e41",
    (3, 3): "9d4430f8811b759ef9bd09f7c12b006aab213da110094a6c7bee4cad579214c2",
    (4, 2): "46dd7d42f210fc7c977bd19638154b80544f9031b3b7cfe6c2f35767f36e41bd",
}


@pytest.mark.parametrize("n,q", list(CLOSURE_DIGESTS))
def test_closure_matches_the_matrix_product_closure(n, q):
    G = group_table(n, q)
    payload = repr((
        tuple(A.codes for A in G.elements),
        tuple(s.codes for s in G.generators),
        tuple(tuple(row) for row in G.right),
    ))
    assert hashlib.sha256(payload.encode()).hexdigest() == CLOSURE_DIGESTS[n, q]


@pytest.mark.parametrize("n,q", ORACLE_PAIRS)
def test_cayley_table_rows_are_the_generator_products(n, q):
    G = group_table(n, q)
    index = {A.codes: i for i, A in enumerate(G.elements)}
    assert len(G.right) == len(G.generators)
    for s, row in zip(G.generators, G.right):
        assert row == [index[(A * s).codes] for A in G.elements]


def with_row(G, row):
    return GroupTable(G.n, G.q, G.desc, G.packed, G.generators, (row,) + G.right[1:])


def test_cayley_row_with_a_repeated_entry_raises():
    G = group_table(2, 2)
    row = list(G.right[0])
    row[1] = row[0]
    with pytest.raises(OracleInvariantError, match="not a permutation"):
        with_row(G, row)


def test_swapped_cayley_entries_fail_a_wall_check():
    G = group_table(2, 2)
    row = list(G.right[0])
    row[0], row[1] = row[1], row[0]
    with pytest.raises(OracleInvariantError, match="class size|class number|share the datum"):
        with_row(G, row).classes


def test_every_swapped_cayley_pair_is_caught_or_harmless():
    # a swap that the Wall checks let through leaves every class as it was
    G = group_table(2, 2)
    want = [(c.rep.codes, c.member_codes) for c in G.classes]
    caught = 0
    for a, b in itertools.combinations(range(len(G)), 2):
        row = list(G.right[0])
        row[a], row[b] = row[b], row[a]
        try:
            classes = with_row(G, row).classes
        except OracleInvariantError:
            caught += 1
            continue
        assert [(c.rep.codes, c.member_codes) for c in classes] == want
    assert caught > 0


def test_matrix_power_equals_repeated_products():
    G = group_table(2, 5)
    ident = MatrixRep.identity(G.desc, 2)
    for A in list(G.generators) + G.elements[::97]:
        assert A**0 == ident
        B = ident
        for e in range(41):
            assert A**e == B
            B = B * A
        with pytest.raises(ValueError):
            A ** -1


def test_classify_matrix_examples():
    ident = MatrixRep.identity(F4, 2)
    kind = classify_matrix(ident)
    assert kind.semisimple and not kind.cyclic and not kind.separable
    for A in group_table(1, 2).elements:
        kind = classify_matrix(A)
        assert kind.separable and kind.cyclic and kind.semisimple
    unipotent = next(
        A
        for A in group_table(2, 2).elements
        if A.codes != MatrixRep.identity(F4, 2).codes
        and char_poly(A) == Poly(F4, (1, 0, 1))  # (t - 1)^2
        and classify_matrix(A).cyclic
    )
    kind = classify_matrix(unipotent)
    assert kind.cyclic and not kind.semisimple


def test_datum_of_examples():
    for n in (1, 2, 3):
        ident = MatrixRep.identity(F4, n)
        ((phi, lam),) = datum_of(ident).items()
        assert phi == Poly.linear(F4, 1)
        assert lam == (1,) * n
    jordan = MatrixRep(F4, 2, (1, 1, 0, 1))
    ((phi, lam),) = datum_of(jordan).items()
    assert (phi, lam) == (Poly.linear(F4, 1), (2,))
    for A in group_table(2, 2).elements:
        if classify_matrix(A).separable:
            assert all(lam == (1,) for _, lam in datum_of(A).items())


def test_datum_of_rejects_singular_matrices():
    with pytest.raises(ValueError):
        datum_of(MatrixRep(F4, 2, (0, 0, 0, 0)))


def test_datum_of_rejects_non_unitary_shapes():
    # a single pair member without its tilde partner has GL data only
    g = Poly.linear(F9, elem_of_order(F9, 8))
    C = companion(g)
    assert gl_class_data(C) == ((g, (1,)),)
    with pytest.raises(ValueError):
        datum_of(C)


def test_class_decomposition_is_consistent():
    for n, q in ((2, 2), (2, 3)):
        G = group_table(n, q)
        classes = G.classes
        assert sum(c.size for c in classes) == len(G)
        assert all(len(G) % c.size == 0 for c in classes)
        assert len({c.datum for c in classes}) == len(classes)
    assert len(group_table(2, 2).classes) == 9


def test_class_kinds_agree_with_classify_matrix():
    for c in group_table(2, 3).classes:
        assert classify_matrix(c.rep) == c.kind


def test_power_image_counts_u12():
    G = group_table(1, 2)
    pic = power_image_counts(G, 3)
    assert pic.elements["all"] == 1 and pic.classes["all"] == 1
    pic = power_image_counts(G, 2)
    assert pic.elements["all"] == 3 and pic.classes["all"] == 3


def test_power_image_counts_u22_frozen_goldens():
    # golden values fixed from the exhaustive power map over the 18 elements
    G = group_table(2, 2)
    pic = power_image_counts(G, 2)
    assert pic.classes == {"all": 6, "separable": 3, "cyclic": 3, "semisimple": 6}
    assert pic.elements == {"all": 9, "separable": 6, "cyclic": 6, "semisimple": 9}
    pic = power_image_counts(G, 3)
    assert pic.classes == {"all": 2, "separable": 0, "cyclic": 1, "semisimple": 1}
    assert pic.elements == {"all": 4, "separable": 0, "cyclic": 3, "semisimple": 1}
    cubes = {(A**3).codes for A in G.elements}
    assert pic.in_image == tuple(c.rep.codes in cubes for c in G.classes)


def test_power_image_outside_the_group_raises(monkeypatch):
    # a representative's cube becomes the zero matrix, which is not in G
    G = group_table(2, 2)
    real, rep = MatrixRep.__pow__, G.classes[-1].rep
    zero = MatrixRep(G.desc, 2, (0,) * 4)
    monkeypatch.setattr(MatrixRep, "__pow__",
                        lambda A, e: zero if A == rep else real(A, e))
    with pytest.raises(OracleInvariantError, match="lie in the group"):
        power_image_counts(G, 3)


def test_power_in_a_class_its_datum_does_not_name_raises(monkeypatch):
    # the class table moves a representative's cube into the next class
    G = group_table(2, 2)
    j = G._pos[oracle._pack(G.classes[-1].rep ** 3)]
    class_of = list(G._class_of)
    class_of[j] = (class_of[j] + 1) % len(G.classes)
    monkeypatch.setattr(G, "_class_of", class_of)
    with pytest.raises(OracleInvariantError, match="lies in the class of"):
        power_image_counts(G, 3)


@pytest.mark.parametrize("M,calls", [(3, 61), (1, 0)])
def test_power_pass_skips_the_datum_of_a_representative(monkeypatch, M, calls):
    # U(2,8) has 81 classes; at M = 3 the cubes of 20 representatives are
    # representatives themselves, whose data the classes already hold, and
    # at M = 1 every power is its own representative
    G = group_table(2, 8)
    assert len(G.classes) == 81
    real, seen = oracle.datum_of, []
    monkeypatch.setattr(oracle, "datum_of", lambda A: seen.append(A) or real(A))
    power_image_counts(G, M)
    assert len(seen) == calls


def no_datum(A):
    raise ValueError("factor partitions are not tilde-symmetric")


def test_datum_fault_on_a_group_element_raises(monkeypatch):
    # every group element has a datum: a ValueError from `datum_of` on one,
    # in the class orbits or in the power pass, is an oracle fault
    G = group_table(2, 2)
    assert G.classes  # built before the fault
    monkeypatch.setattr(oracle, "datum_of", no_datum)
    with pytest.raises(OracleInvariantError, match="no conjugacy datum"):
        fresh_classes(2, 2)
    with pytest.raises(OracleInvariantError, match="no conjugacy datum"):
        power_image_counts(G, 2)


FAMILIES = ("all", "separable", "cyclic", "semisimple")


def _whole_group_image(G, M):
    """The power map over every element, as a reference: the image must be
    a union of classes (each hit by all of its members or by none) and lie
    in G; tallied per family and per class like `power_image_counts`."""
    image = {(A**M).codes for A in G.elements}
    elements = dict.fromkeys(FAMILIES, 0)
    classes = dict.fromkeys(FAMILIES, 0)
    in_image = []
    for c in G.classes:
        inside = not image.isdisjoint(c.member_codes)
        assert not inside or image.issuperset(c.member_codes), "the image splits a class"
        in_image.append(inside)
        if inside:
            for tag in FAMILIES:
                if tag == "all" or getattr(c.kind, tag):
                    elements[tag] += c.size
                    classes[tag] += 1
    assert elements["all"] == len(image), "the image leaves the group"
    return PowerImageCounts(G.n, G.q, M, elements, classes, tuple(in_image))


@pytest.mark.parametrize("n,q,Ms", [(n, q, range(1, 7)) for n, q in ORACLE_PAIRS]
                         + [(3, 3, (2, 3))])
def test_power_image_counts_equal_the_whole_group_image(n, q, Ms):
    G = group_table(n, q)
    for M in Ms:
        assert power_image_counts(G, M) == _whole_group_image(G, M), M


def test_coprime_power_map_is_a_bijection():
    G = group_table(2, 2)
    assert gcd(5, len(G)) == 1
    fifth, full = power_image_counts(G, 5), power_image_counts(G, 1)
    assert fifth.classes == full.classes and fifth.elements == full.elements
    assert fifth.classes["all"] == 9


def test_power_image_counts_compare_every_field():
    # equal (n, q, M) with different tallies are different results
    assert PowerImageCounts(2, 2, 2, {"all": 1}, {"all": 1}, (True,)) != PowerImageCounts(
        2, 2, 2, {"all": 9}, {"all": 9}, (False,)
    )
    G = group_table(2, 2)
    assert power_image_counts(G, 2) == power_image_counts(G, 2)


def test_oracle_records_are_immutable_values_checked_when_made():
    G, twin = build_group(1, 2), build_group(1, 2)
    c = G.classes[0]
    assert type(c)._fields == ("rep", "size", "datum", "kind", "group", "number")
    assert c.group is G and c.number == 0 and c.member_codes == G._member_codes[0]
    # equal fields but another group object: a different class
    assert twin.classes[0][:4] == c[:4] and twin.classes[0] != c
    dm, kind = c.datum, c.kind
    assert type(dm)._fields == ("n", "assignments") and dm == (1, dm.assignments)
    assert kind == (True, True) and kind.separable
    assert not MatrixClassKind(True, False).separable
    for record, field in ((c, "size"), (dm, "n"), (kind, "cyclic"),
                          (power_image_counts(G, 1), "M")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0  # no instance dict
    one, t = Poly.one(G.desc), Poly.t(G.desc)
    assert hash(ConjugacyDatum(*dm)) == hash(dm)
    for bad in ((1, ((one + t, (1, 2)),)),  # not a non-increasing partition
                (1, ((t, (1,)),)),  # t labels no invertible class
                (2, dm.assignments)):  # sizes sum to 1
        with pytest.raises(ValueError):
            ConjugacyDatum(*bad)
    with pytest.raises(ValueError):
        dm._replace(n=2)


def test_u13_total_class_structure():
    G = group_table(1, 3)
    pic = power_image_counts(G, 1)
    assert pic.classes["all"] == 4 and pic.elements["all"] == 4


def test_total_separable_classes_match_the_unrestricted_series():
    from unitary_powers.genfun import sep_class_series

    for n, q in ((1, 2), (2, 2), (1, 3), (2, 3)):
        pic = power_image_counts(group_table(n, q), 1)
        assert sep_class_series(q, 1, n).coeff(n) == pic.classes["separable"]


def test_block_matrix_examples():
    one_lin = Poly.linear(F4, 1)
    assert block_matrix(one_lin, 1) == MatrixRep.identity(F4, 1)
    assert block_matrix(one_lin, 2) == MatrixRep(F4, 2, (1, 1, 0, 1))
    for f in irreducible_polys(F9, 2)[:4]:
        for m in (1, 2, 3):
            fac = factor(char_poly(block_matrix(f, m)))
            assert fac == ((f, m),)


def _cofactor_char_poly(A):
    """Reference det(tI - A): cofactor expansion along the first row."""
    desc, n = A.desc, A.n

    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = Poly(desc)
        for j, entry in enumerate(m[0]):
            if entry.is_zero():
                continue
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = entry * det(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    t = Poly.t(desc)
    return det([[(t if i == j else Poly(desc)) - Poly(desc, (A.codes[i * n + j],))
                 for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("n,q", ORACLE_PAIRS + [(3, 3)])
def test_char_poly_matches_cofactor_expansion_on_group_elements(n, q):
    for A in group_table(n, q).elements:
        assert char_poly(A) == _cofactor_char_poly(A)


@pytest.mark.parametrize("p,l", [(2, 1), (3, 1), (2, 2), (5, 1)], ids=["GF4", "GF9", "GF16", "GF25"])
def test_char_poly_matches_cofactor_expansion_on_random_matrices(p, l):
    desc = make_field(p, l, 1)
    rng = random.Random(1968)
    for n in range(1, 8):
        for _ in range(24 if n < 5 else 3):
            codes = [rng.randrange(desc.order) for _ in range(n * n)]
            if rng.random() < 0.5:  # sparse: zero entries and zero minors
                codes = [c if rng.random() < 0.3 else 0 for c in codes]
            A = MatrixRep(desc, n, codes)
            assert char_poly(A) == _cofactor_char_poly(A)


def test_char_poly_remainder_raises(monkeypatch):
    exact = Poly.__divmod__
    monkeypatch.setattr(Poly, "__divmod__", lambda a, b: (exact(a, b)[0], Poly.one(a.desc)))
    with pytest.raises(OracleInvariantError):
        char_poly(MatrixRep(F9, 2, (1, 2, 0, 1)))


def test_char_poly_is_polynomial_time():
    # cofactor expansion would take 10! products per matrix
    rng = random.Random(10)
    start = time.perf_counter()
    for _ in range(10):
        A = MatrixRep(F9, 10, [rng.randrange(9) for _ in range(100)])
        assert char_poly(A).degree == 10
    assert time.perf_counter() - start < 2.0


def test_matrices_are_built_from_codes_in_range():
    for bad in (-1, 4, 7):
        with pytest.raises(ValueError):
            MatrixRep(F4, 1, [bad])
    for bad in (1.5, 1.0, "3"):
        with pytest.raises(TypeError):
            MatrixRep(F4, 1, [bad])
    with pytest.raises(ValueError):
        MatrixRep(F4, 2, [1, 0, 0])
    assert MatrixRep(F4, 1, [3]).codes == (3,)


def test_companion_char_poly_roundtrip():
    for desc in (F4, F9):
        for d in (1, 2, 3):
            for f in irreducible_polys(desc, d)[:5]:
                assert char_poly(companion(f)) == f


def test_check_block_power_unipotent_and_m1():
    one_lin = Poly.linear(F4, 1)
    for m in (1, 2, 3):
        for M in (3, 5):
            assert check_block_power(one_lin, m, M)
    f = irreducible_polys(F4, 2)[0]
    assert check_block_power(f, 1, 3)


def test_check_block_power_order_eight_linear_over_f9():
    g = elem_of_order(F9, 8)
    f = Poly.linear(F9, g)
    B = companion(f) ** 5
    assert char_poly(B) == Poly.linear(F9, F9.pow_c(g, 5))
    assert check_block_power(f, 2, 5)


def test_check_block_power_handles_degree_collapse_vacuously():
    # order-5 roots over F9 land in F9 after the 5th power: C_f^5 is scalar,
    # no companion matrix is similar to it, the claim is vacuous
    f = next(h for h in irreducible_polys(F9, 2) if root_order(h) == 5)
    B = companion(f) ** 5
    assert not classify_matrix(B).cyclic
    assert check_block_power(f, 2, 5)


def test_check_block_power_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_block_power(Poly.linear(F4, 1), 2, 2)  # gcd(M, q) != 1
    with pytest.raises(ValueError):
        check_block_power(Poly(F4, (1, 0, 0, 1)), 1, 3)  # reducible


def test_unitary_root_existence_matches_is_mtilde_power():
    # the definition: t - a is an M~-power iff a = b^M for some b on the
    # norm-one circle b^(q+1) = 1, and an M-power pair member iff a = b^M
    # for some b in F_Q^*; q = 2, 3, 4, 5, 7, 8, 9 and M = 1..12, so p | M
    # is included
    for p, l in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        desc, q = make_field(p, l, 1), p**l
        units = range(1, desc.order)
        circle = {b for b in units if desc.pow_c(b, q + 1) == 1}
        for M in range(1, 13):
            circle_powers = {desc.pow_c(b, M) for b in circle}
            unit_powers = {desc.pow_c(b, M) for b in units}
            for a in units:
                f = Poly.linear(desc, a)
                if a in circle:
                    assert is_mtilde_power(f, M) == (a in circle_powers), (q, a, M)
                else:
                    assert is_m_power_pair(f, M) == (a in unit_powers), (q, a, M)
