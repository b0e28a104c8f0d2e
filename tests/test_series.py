"""Truncated series ring and group orders."""

import time
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitary_powers.series import (
    Series,
    binom_factor,
    euler_factor,
    group_order_GL,
    group_order_U,
    one,
)


def coeffs(*values):
    return tuple(Fraction(v) for v in values)


def test_one_is_multiplicative_identity():
    s = Series(5, coeffs(1, 2, 3, 4, 5, 6))
    assert one(5) * s == s
    assert s * one(5) == s


def test_basic_ring_identities():
    T = 5
    a = Series(T, coeffs(1, 1, 0, 0, 0, 0))   # 1 + z
    b = Series(T, coeffs(1, -1, 0, 0, 0, 0))  # 1 - z
    assert a * b == Series(T, coeffs(1, 0, -1, 0, 0, 0))
    s = Series(T, coeffs(0, 3, 0, Fraction(1, 7), 0, 2))
    assert s + -s == Series(T, coeffs(0, 0, 0, 0, 0, 0))


def test_truncation_mismatch_is_an_error():
    with pytest.raises(ValueError):
        one(3) + one(4)
    with pytest.raises(ValueError):
        one(3) * one(4)


def test_coeff_bounds():
    s = one(3)
    assert s.coeff(0) == 1
    with pytest.raises(IndexError):
        s.coeff(4)


def test_binom_factor_examples():
    assert binom_factor(1, 1, 2, 3) == Series(3, coeffs(1, 2, 1, 0))
    assert binom_factor(2, 1, -1, 6) == Series(6, coeffs(1, 0, 1, 0, 1, 0, 1))
    assert binom_factor(1, Fraction(1, 3), 1, 2) == Series(2, coeffs(1, Fraction(1, 3), 0))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("c", [1, 2, Fraction(1, 3), Fraction(-2, 5)])
@pytest.mark.parametrize("e", [1, 2, 5])
def test_binom_factor_inverse_pairs(d, c, e):
    # (1 + c z^d)^e * (1 - (-c) z^d)^(-e) = 1 up to the truncation
    T = 8
    assert binom_factor(d, c, e, T) * binom_factor(d, -c, -e, T) == one(T)


def test_euler_factor_with_unitary_orders():
    got = euler_factor(1, lambda m: group_order_U(m, 2), 1, 2)
    assert got == Series(2, coeffs(1, Fraction(1, 3), Fraction(1, 18)))
    assert euler_factor(2, lambda m: 7, 3, 5) == one(5)  # T < d * step
    got = euler_factor(1, lambda m: group_order_U(3 * m, 2), 3, 3)
    assert got == Series(3, coeffs(1, 0, 0, Fraction(1, 648)))


def test_euler_factor_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        euler_factor(1, lambda m: 0, 1, 3)


def test_group_order_U_values():
    assert group_order_U(0, 2) == 1
    assert group_order_U(1, 2) == 3
    assert group_order_U(2, 2) == 18
    assert group_order_U(3, 2) == 648
    assert group_order_U(1, 3) == 4
    assert group_order_U(2, 3) == 96


def test_group_order_GL_values():
    assert group_order_GL(0, 4) == 1
    assert group_order_GL(1, 4) == 3
    assert group_order_GL(2, 4) == (16 - 1) * (16 - 4) == 180


def test_group_order_GL_matches_brute_force_over_f4():
    # count invertible 2x2 matrices over F4 directly
    from itertools import product

    from unitary_powers.gf import make_field
    from unitary_powers.oracle import MatrixRep, _rank

    F4 = make_field(2, 1, 1)
    count = 0
    for codes in product(range(4), repeat=4):
        if _rank(F4, MatrixRep(F4, 2, codes).rows()) == 2:
            count += 1
    assert count == group_order_GL(2, 4)


def test_series_coefficients_are_exact_fractions():
    s = euler_factor(1, lambda m: group_order_U(m, 2), 1, 6)
    assert all(isinstance(c, Fraction) for c in s.coeffs)
    t = binom_factor(1, Fraction(1, 3), 3, 6)
    assert all(isinstance(c, Fraction) for c in (s * t).coeffs)


@st.composite
def power_case(draw):
    """(F, e): a random series whose constant term is 0, 1 or another nonzero
    rational, and an exponent 0..8."""
    T = draw(st.integers(0, 7))
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    f0 = draw(st.sampled_from((Fraction(0), Fraction(1), None)))
    if f0 is None:
        f0 = draw(rationals.filter(lambda c: c not in (0, 1)))
    tail = draw(st.lists(rationals, min_size=T, max_size=T))
    return Series(T, (f0, *tail)), draw(st.integers(0, 8))


@settings(deadline=None)
@given(power_case())
def test_power_is_repeated_multiplication(case):
    F, e = case
    product = one(F.truncation)
    for _ in range(e):
        product = product * F
    assert F**e == product
    if F.coeff(0):
        assert F**e * F ** (-e) == one(F.truncation)


def test_negative_power_needs_a_nonzero_constant_term():
    F = Series(3, coeffs(0, 1, 2, 0))
    with pytest.raises(ValueError):
        F ** (-1)
    with pytest.raises(ValueError):
        Series(3, coeffs(0, 0, 0, 0)) ** (-2)
    assert F**2 == Series(3, coeffs(0, 0, 1, 4))


# ----------------------------------------------------------------------
# ring operations against a schoolbook Fraction reference
# ----------------------------------------------------------------------

def _ref_mul(a, b):
    T = len(a) - 1
    out = [Fraction(0)] * (T + 1)
    for i, x in enumerate(a):
        for j in range(T + 1 - i):
            out[i + j] += x * b[j]
    return out


def _ref_inverse(a):
    # a * inv = 1, solved coefficient by coefficient; needs a_0 != 0
    inv = [1 / a[0]]
    for k in range(1, len(a)):
        inv.append(-sum(a[j] * inv[k - j] for j in range(1, k + 1)) / a[0])
    return inv


def _ref_pow(a, e):
    base = a if e >= 0 else _ref_inverse(a)
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for _ in range(abs(e)):
        out = _ref_mul(out, base)
    return out


@st.composite
def ring_case(draw):
    """(a, b, e): coefficient lists of one length T + 1 <= 8 whose constant
    terms are 0, 1 or a rational other than 0 and +-1, and an exponent
    -8..8."""
    T = draw(st.integers(0, 7))
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    non_unit = rationals.filter(lambda c: c not in (0, 1, -1))
    constant = st.one_of(st.just(Fraction(0)), st.just(Fraction(1)), non_unit)
    a, b = ([draw(constant)] + draw(st.lists(rationals, min_size=T, max_size=T))
            for _ in range(2))
    return a, b, draw(st.integers(-8, 8))


def _in_lowest_terms(s):
    return s.den > 0 and gcd(s.den, *s.num) == 1


@settings(deadline=None)
@given(ring_case())
def test_ring_operations_match_the_schoolbook_reference(case):
    a, b, e = case
    T = len(a) - 1
    A, B = Series(T, a), Series(T, b)
    results = {
        "+": (A + B, [x + y for x, y in zip(a, b)]),
        "-": (A - B, [x - y for x, y in zip(a, b)]),
        "neg": (-A, [-x for x in a]),
        "*": (A * B, _ref_mul(a, b)),
    }
    if e >= 0 or a[0]:
        results["**"] = (A**e, _ref_pow(a, e))
    else:
        with pytest.raises(ValueError):
            A**e
    for op, (got, want) in results.items():
        assert got.coeffs == tuple(want), op
        assert got == Series(T, want), op
        assert _in_lowest_terms(got), op


@pytest.mark.parametrize("x", [3, 2**20 - 1])
@pytest.mark.parametrize("e", [10**5, -(10**5)])
def test_huge_exponent_is_scaled_after_reduction(x, e):
    # (1 + z/x)^e and (1 - z/x)^e at |e| = 10^5: the scale (x/x)^e must be
    # reduced before it is raised, or the power builds integers of megabits
    T = 21
    t0 = time.perf_counter()
    got = binom_factor(1, Fraction(1, x), e, T)
    elapsed = time.perf_counter() - t0
    # (1 - c z)^-n = sum of C(n + k - 1, k) c^k z^k
    binomial = (lambda k: comb(e, k)) if e > 0 else (lambda k: comb(-e + k - 1, k))
    assert got == Series(T, [Fraction(binomial(k), x**k) for k in range(T + 1)])
    assert elapsed < 0.1


def test_power_of_an_euler_factor_keeps_to_the_true_denominators():
    # the z^k coefficient of a power of sum z^m / |U(m, 2)| has a denominator
    # dividing |U(k, 2)|; the bound h_0^k = |U(T, 2)|^k would take seconds
    T = 60
    f = euler_factor(1, lambda m: group_order_U(m, 2), 1, T)
    t0 = time.perf_counter()
    cube = f**3
    elapsed = time.perf_counter() - t0
    assert cube == f * f * f
    assert elapsed < 1.0
