"""Generating functions: pinned coefficients, hypothesis gates, structural laws."""

import hashlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import centralizer_order
from unitary_powers import genfun
from unitary_powers.cli import PAIR_FIELD_BOUND
from unitary_powers.genfun import (
    Family,
    Kind,
    SeriesRequest,
    applicable_families,
    cyc_class_series,
    cyc_elem_series,
    sep_class_series,
    sep_elem_series,
    series_for,
    ss_class_series,
    ss_elem_series,
)
from unitary_powers.gf import make_field
from unitary_powers.oracle import ConjugacyDatum, MatrixRep, datum_of
from unitary_powers.polyalg import Poly
from unitary_powers.series import SeriesInvariantError, binom_factor, group_order_U

F4 = make_field(2, 1, 1)

ALL_SERIES = [
    sep_class_series,
    sep_elem_series,
    cyc_class_series,
    cyc_elem_series,
    ss_class_series,
    ss_elem_series,
]


def test_constant_terms_are_one():
    for fn in ALL_SERIES:
        assert fn(2, 3, 6).coeff(0) == 1


def test_separable_first_coefficients():
    assert sep_class_series(2, 2, 4).coeff(1) == 3
    assert sep_class_series(2, 3, 4).coeff(1) == 1
    assert sep_elem_series(2, 3, 4).coeff(1) == Fraction(1, 3)
    assert sep_elem_series(2, 2, 4).coeff(1) == 1


def test_cyclic_first_coefficients():
    assert cyc_class_series(2, 3, 4).coeff(1) == 1
    assert cyc_elem_series(2, 3, 4).coeff(1) == Fraction(1, 3)
    # the non-trivial degree-2 cyclic element coefficient over F4
    assert cyc_elem_series(2, 3, 4).coeff(2) == Fraction(1, 6)


def test_semisimple_first_coefficients():
    assert ss_class_series(2, 3, 4).coeff(1) == 1
    assert ss_elem_series(2, 3, 4).coeff(1) == Fraction(1, 3)
    assert ss_elem_series(2, 5, 4).coeff(1) == 1


def test_semisimple_class_series_carries_the_leftover_factor():
    # independent assembly at T = 3: (1 - z)^-1 * (1 - z^3)^-2 for q=2, M=3
    expected = binom_factor(1, 1, -1, 3) * binom_factor(3, 1, -2, 3)
    assert ss_class_series(2, 3, 3) == expected
    assert ss_class_series(2, 3, 3).coeff(3) == 3


def test_hypothesis_gates():
    with pytest.raises(ValueError):
        cyc_class_series(2, 2, 4)  # gcd(M, q) != 1
    with pytest.raises(ValueError):
        ss_class_series(2, 2, 4)
    with pytest.raises(ValueError):
        ss_elem_series(2, 4, 4)  # M not prime
    with pytest.raises(ValueError):
        ss_class_series(3, 3, 4)
    # M = 1 is the unrestricted baseline and passes every gate
    for fn in ALL_SERIES:
        assert fn(2, 1, 3).coeff(0) == 1


def test_series_request_dispatch():
    req = SeriesRequest(2, 3, 4, Family.SEPARABLE, Kind.ELEMENTS)
    assert series_for(req) == sep_elem_series(2, 3, 4)
    with pytest.raises(ValueError):
        SeriesRequest(2, 2, 4, Family.SEMISIMPLE, Kind.CLASSES)


def test_series_request_is_an_immutable_value_checked_when_made():
    req = SeriesRequest(3, 2, 5, Family.CYCLIC, Kind.ELEMENTS)
    assert SeriesRequest._fields == ("q", "M", "T", "family", "kind")
    assert tuple(req) == (3, 2, 5, Family.CYCLIC, Kind.ELEMENTS)
    for field in SeriesRequest._fields:
        with pytest.raises(AttributeError):
            setattr(req, field, 1)
    with pytest.raises(AttributeError):
        req.extra = 0  # no instance dict
    twin = SeriesRequest(3, 2, 5, Family.CYCLIC, Kind.ELEMENTS)
    assert twin == req and hash(twin) == hash(req)
    assert twin != SeriesRequest(3, 2, 6, Family.CYCLIC, Kind.ELEMENTS)
    with pytest.raises(ValueError, match="truncation must be non-negative"):
        SeriesRequest(3, 2, -1, Family.CYCLIC, Kind.ELEMENTS)
    with pytest.raises(ValueError, match="cyclic series require gcd"):
        SeriesRequest(3, 3, 5, Family.CYCLIC, Kind.ELEMENTS)
    with pytest.raises(ValueError, match="semisimple series require prime M"):
        SeriesRequest(3, 4, 5, Family.SEMISIMPLE, Kind.CLASSES)
    with pytest.raises(ValueError, match="not a prime power"):
        SeriesRequest(6, 5, 5, Family.SEPARABLE, Kind.CLASSES)
    # a copy with a changed field is checked like a new request
    assert req._replace(T=7) == SeriesRequest(3, 2, 7, Family.CYCLIC, Kind.ELEMENTS)
    with pytest.raises(ValueError, match="truncation"):
        req._replace(T=-1)
    with pytest.raises(ValueError, match="cyclic series require"):
        req._replace(M=6)


@pytest.mark.parametrize("q,M", [(2, 3), (2, 5), (3, 2), (3, 5)])
def test_separable_classes_nest_in_cyclic_and_semisimple(q, M):
    T = 10
    sep = sep_class_series(q, M, T)
    cyc = cyc_class_series(q, M, T)
    ss = ss_class_series(q, M, T)
    for n in range(T + 1):
        assert sep.coeff(n) <= cyc.coeff(n)
        assert sep.coeff(n) <= ss.coeff(n)


@pytest.mark.parametrize("q,M", [(2, 19), (3, 17)])
def test_globally_coprime_M_reproduces_the_unrestricted_series(q, M):
    T = 6
    assert all(gcd(M, q ** (2 * d) - 1) == 1 for d in range(1, T + 1))
    for fn in ALL_SERIES:
        assert fn(q, M, T) == fn(q, 1, T)


def test_element_series_are_exact_rationals():
    s = ss_elem_series(2, 3, 8)
    assert all(isinstance(c, Fraction) for c in s.coeffs)


def test_class_series_coefficients_are_integers():
    for fn in (sep_class_series, cyc_class_series, ss_class_series):
        s = fn(3, 5, 10)
        assert all(c.denominator == 1 for c in s.coeffs)


@pytest.mark.parametrize("q,d", [(2, 1), (2, 3), (3, 1), (3, 2)])
def test_cyclic_factor_equals_its_rational_closed_form(q, d):
    # a cyclic block of degree b whose centraliser at multiplicity m is
    # r^(m-1) s has the factor 1 + z^b / (s (1 - z^b / r)); expanded here in
    # Fractions, it must equal the factor built from class sizes.  A SCIM
    # (odd d only) has b = d, r = q^d, s = q^d + 1; a pair has b = 2d,
    # r = q^(2d), s = q^(2d) - 1.
    T = 9
    blocks = [(True, 2 * d, q ** (2 * d), q ** (2 * d) - 1)]
    if d % 2:
        blocks.append((False, d, q**d, q**d + 1))
    for pair, b, r, s in blocks:
        closed = [Fraction(1)] + [Fraction(0)] * T
        for m in range(1, T // b + 1):
            closed[b * m] = Fraction(1, s * r ** (m - 1))
        factor = genfun._factor_power(q, d, pair, 1, Family.CYCLIC, Kind.ELEMENTS, 1, T)
        assert factor.coeffs == tuple(closed), pair


def test_class_size_must_divide_exactly():
    assert genfun._class_size(2, 2, 6) == 3
    with pytest.raises(SeriesInvariantError):
        genfun._class_size(2, 1, 2)  # 2 does not divide |U(1, 2)| = 3


# ----------------------------------------------------------------------
# centraliser orders
# ----------------------------------------------------------------------

def test_centralizer_order_examples():
    t_minus_1 = Poly.linear(F4, 1)
    sep = ConjugacyDatum(1, ((t_minus_1, (1,)),))
    assert centralizer_order(sep, 2) == 3
    cyc = ConjugacyDatum(2, ((t_minus_1, (2,)),))
    assert centralizer_order(cyc, 2) == 6
    ss = ConjugacyDatum(2, ((t_minus_1, (1, 1)),))
    assert centralizer_order(ss, 2) == 18


def test_centralizer_order_from_actual_matrices():
    ident = MatrixRep.identity(F4, 2)
    assert centralizer_order(datum_of(ident), 2) == 18  # scalar class: whole group
    jordan = MatrixRep(F4, 2, (1, 1, 0, 1))
    assert centralizer_order(datum_of(jordan), 2) == 6


def test_centralizer_order_rejects_unsupported_shapes():
    t_minus_1 = Poly.linear(F4, 1)
    hook = ConjugacyDatum(3, ((t_minus_1, (2, 1)),))  # neither [m] nor [1^m]
    with pytest.raises(ValueError):
        centralizer_order(hook, 2)
    with pytest.raises(ValueError):
        centralizer_order(ConjugacyDatum(1, ((t_minus_1, (1,)),)), 3)  # wrong q


@st.composite
def class_series_cell(draw):
    """(q, M, T): prime M coprime to q, and T <= 8 within the pair field
    bound (q^(2d) for pair degrees d <= T/2)."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    M = draw(st.sampled_from([p for p in (2, 3, 5, 7, 11, 13) if q % p]))
    T_max = max(T for T in range(9) if q ** (2 * (T // 2)) <= PAIR_FIELD_BOUND)
    return q, M, draw(st.integers(0, T_max))


@settings(deadline=None)
@given(class_series_cell())
def test_separable_class_series_is_below_cyclic_and_semisimple(cell):
    # a separable class is both cyclic and semisimple
    q, M, T = cell
    sep = sep_class_series(q, M, T).coeffs
    for other in (cyc_class_series(q, M, T), ss_class_series(q, M, T)):
        assert all(a <= b for a, b in zip(sep, other.coeffs))


# ----------------------------------------------------------------------
# identities at the largest truncation each q accepts
# ----------------------------------------------------------------------

CAP_T = {2: 21, 3: 13, 4: 11, 5: 9, 7: 7, 8: 7, 9: 7}


@pytest.mark.parametrize("q,T", CAP_T.items())
def test_all_cyclic_and_all_semisimple_classes_number_q_n_plus_q_n_minus_1(q, T):
    # at M = 1 every class is counted: U(n, q) has q^n + q^(n-1) cyclic
    # classes and as many semisimple ones
    for family in (Family.CYCLIC, Family.SEMISIMPLE):
        s = series_for(SeriesRequest(q, 1, T, family, Kind.CLASSES))
        assert [s.coeff(n) for n in range(1, T + 1)] == [
            q**n + q ** (n - 1) for n in range(1, T + 1)
        ], family


@pytest.mark.parametrize("q,T", CAP_T.items())
def test_M_coprime_to_the_group_order_changes_no_coefficient(q, T):
    # if gcd(M, |U(n, q)|) = 1, x -> x^M is a bijection of U(n, q), so every
    # class and every element is an M-th power
    compared = 0
    for M in range(2, 8):
        coprime = [n for n in range(1, T + 1) if gcd(M, group_order_U(n, q)) == 1]
        for family in applicable_families(q, M):
            for kind in Kind:
                at_M = series_for(SeriesRequest(q, M, T, family, kind))
                at_1 = series_for(SeriesRequest(q, 1, T, family, kind))
                assert [at_M.coeff(n) for n in coprime] == [at_1.coeff(n) for n in coprime], (
                    M, family, kind)
                compared += len(coprime)
    assert compared


# sha256 over the counts of every applicable series, both kinds, at each q of
# CAP_T with its T and M = 1..12: 348 series.  A change to the assembly, the
# hypotheses or the block centralisers that keeps the paper's series leaves
# this digest as it is.
SERIES_COUNTS_SHA256 = "6a0882781b4af67fcca14df7d4be6ad766254f721640a6a402939812e4c1a5da"


def test_series_counts_are_pinned():
    digest, built = hashlib.sha256(), 0
    for q, T in CAP_T.items():
        for M in range(1, 13):
            for family in applicable_families(q, M):
                for kind in Kind:
                    s = series_for(SeriesRequest(q, M, T, family, kind))
                    digest.update(f"{q} {M} {family.value} {kind.value} {s.counts}\n".encode())
                    built += 1
    assert built == 348
    assert digest.hexdigest() == SERIES_COUNTS_SHA256
