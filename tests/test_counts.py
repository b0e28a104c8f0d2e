"""Counting formulas versus exhaustive polynomial enumeration."""

import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import unitary_powers
from references import divisors, euler_phi, mult_order
from unitary_powers import cli, counts
from unitary_powers.counts import (
    CountInvariantError,
    CountRecord,
    _exact_degree,
    count_irreducible,
    count_mpower_pairs,
    count_mtilde_scim,
    count_pairs,
    count_record,
    count_scim,
    s_prime,
    s_tilde_prime,
)
from unitary_powers.genfun import Family, Kind, SeriesRequest, series_for
from unitary_powers.gf import make_field
from unitary_powers.polyalg import (
    PolyClass,
    classify,
    irreducible_polys,
    is_m_power_pair,
    is_mtilde_power,
)

F4 = make_field(2, 1, 1)
F9 = make_field(3, 1, 1)
DESCS = {2: F4, 3: F9}
MS = (2, 3, 4, 5, 6)


def brute_mobius(n):
    fac = []
    m, f = n, 2
    while f * f <= m:
        while m % f == 0:
            fac.append(f)
            m //= f
        f += 1
    if m > 1:
        fac.append(m)
    return 0 if len(fac) != len(set(fac)) else (-1) ** len(fac)


def scims(q, d):
    return [f for f in irreducible_polys(DESCS[q], d) if classify(f) is PolyClass.SCIM]


def pair_members(q, d):
    return [
        f for f in irreducible_polys(DESCS[q], d) if classify(f) is PolyClass.PAIR_MEMBER
    ]


def test_count_scim_examples():
    assert count_scim(2, 1) == 3
    assert count_scim(2, 3) == 2
    assert count_scim(3, 1) == 4


@pytest.mark.parametrize("q,dmax", [(2, 4), (3, 3)])
def test_count_scim_matches_enumeration(q, dmax):
    for d in range(1, dmax + 1):
        assert count_scim(q, d) == len(scims(q, d))


def test_count_mtilde_scim_examples():
    assert count_mtilde_scim(2, 1, 2) == 3
    assert count_mtilde_scim(2, 1, 3) == 1
    assert count_mtilde_scim(2, 3, 3) == 0


@pytest.mark.parametrize("q,ds", [(2, (1, 2, 3)), (3, (1, 2))])
def test_count_mtilde_scim_matches_enumeration(q, ds):
    for d in ds:
        for M in MS:
            brute = sum(is_mtilde_power(f, M) for f in scims(q, d))
            assert count_mtilde_scim(q, d, M) == brute, (q, d, M)


@pytest.mark.parametrize("q", [2, 3])
def test_coprime_power_map_keeps_all_scims(q):
    for d in (1, 3, 5):
        for M in range(2, 8):
            if gcd(M, q ** (2 * d) - 1) == 1:
                assert count_mtilde_scim(q, d, M) == count_scim(q, d)


def test_count_mtilde_scim_divides_by_the_circle_fiber():
    # the power-map fibers on the norm-one circle have size (M, q^d + 1), not
    # (M, q^(2d) - 1); these cells separate the two and are enumeration-pinned
    F16 = make_field(2, 2, 1)
    mu5 = [f for f in irreducible_polys(F16, 1)
           if classify(f) is PolyClass.SCIM]
    assert len(mu5) == count_scim(4, 1) == 5
    for M in (3, 6, 9):
        assert sum(is_mtilde_power(f, M) for f in mu5) == 5
        assert count_mtilde_scim(4, 1, M) == 5  # gcd(M, q+1) = 1: a bijection
    scim_cubics = [f for f in irreducible_polys(DESCS[3], 3)
                   if classify(f) is PolyClass.SCIM]
    assert sum(is_mtilde_power(f, 8) for f in scim_cubics) == 2
    assert count_mtilde_scim(3, 3, 8) == 2
    assert count_mtilde_scim(2, 3, 7) == count_scim(2, 3) == 2


def test_count_irreducible_examples():
    assert count_irreducible(4, 1) == 4
    assert count_irreducible(4, 2) == 6
    assert count_irreducible(9, 1) == 9
    for Q, desc in ((4, F4), (9, F9)):
        for d in (1, 2, 3):
            assert count_irreducible(Q, d) == len(irreducible_polys(desc, d))


def test_count_pairs_examples():
    assert count_pairs(2, 1) == 0
    assert count_pairs(3, 1) == 2
    assert count_pairs(2, 2) == 3


@pytest.mark.parametrize("q,dmax", [(2, 3), (3, 2)])
def test_count_pairs_matches_enumeration(q, dmax):
    for d in range(1, dmax + 1):
        members = pair_members(q, d)
        assert len(members) % 2 == 0
        assert count_pairs(q, d) == len(members) // 2


def test_count_mpower_pairs_examples():
    assert count_mpower_pairs(3, 1, 2) == 0
    assert count_mpower_pairs(3, 1, 5) == 2
    for M in MS:
        assert count_mpower_pairs(2, 1, M) == 0  # there are no pairs at all


@pytest.mark.parametrize("q,ds", [(2, (1, 2, 3, 4)), (3, (1, 2, 3))])
def test_count_mpower_pairs_matches_polynomial_enumeration(q, ds):
    # the order-weighted enumeration must agree with factoring f(x^M) for
    # every pair member
    for d in ds:
        for M in MS:
            brute = sum(is_m_power_pair(f, M) for f in pair_members(q, d))
            assert brute % 2 == 0
            assert count_mpower_pairs(q, d, M) == brute // 2, (q, d, M)


def test_count_mpower_pairs_even_degree_four_cell():
    # the series validate pair counts only at low degree; pin one deeper cell
    members = pair_members(2, 4)
    assert len(members) == 2 * count_pairs(2, 4) == 60
    for M in (3, 5):
        brute = sum(is_m_power_pair(f, M) for f in members)
        assert count_mpower_pairs(2, 4, M) == brute // 2


def walk_mpower_pairs(q, d, M):
    """R~_M(q, d) by walking the element orders D | q^(2d) - 1: an order-D
    element has degree d over F_q2 iff q^2 has order d mod D, its minimal
    polynomial is self-conjugate iff D | q^(2j-1) + 1 for some 1 <= j <= d,
    and it is an M-th power iff D | n / (M, n); phi(D) elements each."""
    Q = q * q
    n = Q**d - 1
    total = 0
    for D in divisors(n):
        if mult_order(Q, D) != d:
            continue
        if any((q ** (2 * j - 1) + 1) % D == 0 for j in range(1, d + 1)):
            continue
        if (n // gcd(M, n)) % D == 0:
            total += euler_phi(D)
    assert total % (2 * d) == 0
    return total // (2 * d)


def test_pair_field_bound_refuses_in_the_cli_only():
    # q^(2d) = 3^14 is over the CLI's pair-field bound; the library computes
    # the row, and the CLI refuses it and the series one step past its cap
    rec = count_record(3, 7, 2)
    assert (rec.n_tilde, rec.n_tilde_M) == (memoir_scim(3, 7), paper_mtilde_scim(3, 7, 2))
    assert (rec.r_tilde, rec.r_tilde_M) == (walk_mpower_pairs(3, 7, 1), walk_mpower_pairs(3, 7, 2))
    assert (rec.s_tilde_prime, rec.s_prime) == (
        rec.n_tilde - rec.n_tilde_M, rec.r_tilde - rec.r_tilde_M)
    assert series_for(SeriesRequest(2, 3, 22, Family.SEPARABLE, Kind.CLASSES)).truncation == 22
    assert cli.main(["counts", "--q", "3", "--M", "2", "--d-max", "7"]) == 3
    assert cli.main(["series", "--q", "2", "--M", "3", "--family", "sep", "--kind",
                     "classes", "--T", "22"]) == 3


def test_leftover_counts():
    assert s_tilde_prime(2, 1, 3) == 2
    assert s_tilde_prime(2, 1, 2) == 0
    assert s_prime(3, 1, 2) == 2


def test_count_record_table():
    rec = count_record(2, 1, 3)
    assert (rec.n_tilde, rec.n_tilde_M, rec.r_tilde, rec.r_tilde_M) == (3, 1, 0, 0)
    assert (rec.s_tilde_prime, rec.s_prime) == (2, 0)
    rec = count_record(3, 1, 5)
    assert (rec.n_tilde, rec.n_tilde_M, rec.r_tilde, rec.r_tilde_M) == (4, 4, 2, 2)
    for q in (2, 3):
        for d in (1, 2, 3):
            for M in (2, 3, 5):
                rec = count_record(q, d, M)
                assert 0 <= rec.n_tilde_M <= rec.n_tilde
                assert 0 <= rec.r_tilde_M <= rec.r_tilde


def test_count_record_rejects_inconsistency():
    # a leftover is read through `_leftover`, whatever built the record
    rec = CountRecord(2, 1, 3, n_tilde=1, n_tilde_M=3, r_tilde=0, r_tilde_M=0)
    with pytest.raises(CountInvariantError):
        rec.s_tilde_prime
    assert rec.s_prime == 0
    with pytest.raises(CountInvariantError):
        CountRecord(3, 1, 2, n_tilde=4, n_tilde_M=4, r_tilde=2, r_tilde_M=3).s_prime


def test_count_record_is_an_immutable_value():
    rec = count_record(3, 1, 2)
    assert CountRecord._fields == ("q", "d", "M", "n_tilde", "n_tilde_M", "r_tilde", "r_tilde_M")
    assert tuple(rec) == (3, 1, 2, 4, 2, 2, 0)  # the CLI's row for q = 3, M = 2, d = 1
    assert (rec.s_tilde_prime, rec.s_prime) == (2, 2)
    for field in ("q", "n_tilde", "s_prime"):
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)
    with pytest.raises(AttributeError):
        rec.extra = 0  # no instance dict
    twin = CountRecord(3, 1, 2, 4, 2, 2, 0)
    assert twin == rec and hash(twin) == hash(rec)
    assert len({rec, twin, count_record(3, 1, 3)}) == 2


def only_the_first_mobius_term(d):
    # no primes of d leaves only the l = 1 term: N~(2, 5) then sums to
    # 2^5 + 1 = 33, not a multiple of 5
    return ()


def test_non_integral_count_raises(monkeypatch):
    monkeypatch.setattr(counts, "prime_factors", only_the_first_mobius_term)
    with pytest.raises(CountInvariantError):
        count_scim(2, 5)


def test_non_integral_count_check_survives_python_O():
    code = (
        "import sys\n"
        "from unitary_powers import CountInvariantError, counts\n"
        "counts.prime_factors = lambda d: ()\n"
        "try:\n"
        "    counts.count_scim(2, 5)\n"
        "except CountInvariantError:\n"
        "    sys.exit(0 if sys.flags.optimize else 4)\n"
        "sys.exit(1)\n"
    )
    src = str(Path(unitary_powers.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_odd_pair_leftover_raises(monkeypatch):
    # one SCIM too many leaves an odd number of non-SCIM irreducibles
    real = counts.count_scim
    monkeypatch.setattr(counts, "count_scim", lambda q, d: real(q, d) + 1)
    with pytest.raises(CountInvariantError):
        count_pairs(2, 1)


def test_power_count_above_the_scim_count_raises(monkeypatch):
    # N~_M := N~ + 1 for M != 1; N~ itself is N~_1, which stays exact
    real = counts.count_mtilde_scim
    monkeypatch.setattr(counts, "count_mtilde_scim", lambda q, d, M: real(q, d, 1) + (M != 1))
    with pytest.raises(CountInvariantError):
        s_tilde_prime(2, 1, 3)


def test_power_count_above_the_pair_count_raises(monkeypatch):
    real = counts.count_pairs
    monkeypatch.setattr(counts, "count_mpower_pairs", lambda q, d, M: real(q, d) + 1)
    with pytest.raises(CountInvariantError):
        s_prime(3, 1, 2)


def test_validation_of_arguments():
    with pytest.raises(ValueError):
        count_scim(6, 1)  # not a prime power
    with pytest.raises(ValueError):
        count_mtilde_scim(2, 0, 2)
    with pytest.raises(ValueError):
        count_mtilde_scim(2, 1, 0)


@st.composite
def count_cell(draw):
    """(q, d, M) with q^(2d) <= 2^16 and M <= 12."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    d_max = max(d for d in range(1, 17) if q ** (2 * d) <= 1 << 16)
    return q, draw(st.integers(1, d_max)), draw(st.integers(1, 12))


@settings(deadline=None)
@given(count_cell())
@example((2, 3, 1))
@example((9, 2, 1))
def test_power_counts_are_bounded_by_the_totals(cell):
    q, d, M = cell
    n, n_M = count_scim(q, d), count_mtilde_scim(q, d, M)
    r, r_M = count_pairs(q, d), count_mpower_pairs(q, d, M)
    assert 0 <= n_M <= n
    assert 0 <= r_M <= r
    if M == 1:
        assert (n_M, r_M) == (n, r)



@settings(deadline=None)
@given(count_cell())
@example((2, 6, 3))
@example((3, 5, 4))
def test_mpower_pair_closed_form_equals_the_order_walk(cell):
    q, d, M = cell
    assert count_mpower_pairs(q, d, M) == walk_mpower_pairs(q, d, M)


# the paper's and the memoir's own forms of each count, written out here
# independently of `counts._exact_degree`

def memoir_scim(q, d):
    if d % 2 == 0:
        return 0
    total = sum(brute_mobius(l) * (q ** (d // l) + 1) for l in divisors(d))
    assert total % d == 0
    return total // d


def paper_mtilde_scim(q, d, M):
    if d % 2 == 0:
        return 0
    n = q**d + 1
    total = sum(
        brute_mobius(l) * gcd(M * (q ** (2 * d // l) - 1), n) for l in divisors(d)
    )
    assert total % (d * gcd(M, n)) == 0
    return total // (d * gcd(M, n))


def necklace(Q, d):
    total = sum(brute_mobius(l) * Q ** (d // l) for l in divisors(d))
    assert total % d == 0
    return total // d


def paper_mpower_pairs(q, d, M):
    Q = q * q
    N = Q**d - 1
    P = N // gcd(M, N)
    total = sum(brute_mobius(l) * gcd(Q ** (d // l) - 1, P) for l in divisors(d))
    if d % 2:
        total -= sum(
            brute_mobius(l) * gcd(q**d + 1, Q ** (d // l) - 1, P) for l in divisors(d)
        )
    assert total % (2 * d) == 0
    return total // (2 * d)


PAPER_GRID_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)


def test_counts_equal_the_paper_forms_on_a_grid():
    cells = 0
    for q in PAPER_GRID_Q:
        for d in range(1, 13):
            if q ** (2 * d) > 10**40:
                break
            assert count_scim(q, d) == memoir_scim(q, d), (q, d)
            assert count_irreducible(q * q, d) == necklace(q * q, d), (q, d)
            assert count_pairs(q, d) == paper_mpower_pairs(q, d, 1), (q, d)
            for M in range(1, 25):
                assert count_mtilde_scim(q, d, M) == paper_mtilde_scim(q, d, M), (q, d, M)
                assert count_mpower_pairs(q, d, M) == paper_mpower_pairs(q, d, M), (q, d, M)
                cells += 1
    assert cells == 3456


def walk_exact_degree(Q, d, h):
    """Elements of degree d in the subgroup of order h of Z/(Q^d - 1), the
    exponents of a generator: k has degree j over F_Q for the least j with
    k * (Q^j - 1) = 0 mod Q^d - 1."""
    N = Q**d - 1
    found = 0
    for k in range(0, N, N // h):
        j = next(j for j in range(1, d + 1) if k * (Q**j - 1) % N == 0)
        found += j == d
    return found


def test_exact_degree_equals_the_subgroup_walk():
    cases = 0
    for Q in (2, 3, 4, 5, 7, 8, 9):
        d = 1
        while Q**d <= 1 << 12:
            for h in divisors(Q**d - 1):
                assert _exact_degree(Q, d, h) == walk_exact_degree(Q, d, h), (Q, d, h)
                cases += 1
            d += 1
    assert cases == 342
