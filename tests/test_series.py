"""Truncated series in count form, the U-binomial weights, and group orders."""

import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitary_powers import series
from unitary_powers.series import (
    Series,
    SeriesInvariantError,
    binom_factor,
    euler_factor,
    group_order_GL,
    group_order_U,
    one,
)

WEIGHTS = (None, 2, 3, 4, 9)  # class weights, then the element weights of q


def _count(c, n, q):
    """The count of a z^n coefficient c under the weights of q."""
    count = Fraction(c) * (1 if q is None else group_order_U(n, q))
    assert count.denominator == 1
    return int(count)


def test_one_is_multiplicative_identity():
    for q in WEIGHTS:
        s = Series(5, (1, 2, 3, 4, 5, 6), q)
        assert one(5, q) * s == s
        assert s * one(5, q) == s


def test_basic_ring_identities():
    T = 5
    a = Series(T, (1, 1, 0, 0, 0, 0))   # 1 + z
    b = Series(T, (1, -1, 0, 0, 0, 0))  # 1 - z
    assert a * b == Series(T, (1, 0, -1, 0, 0, 0))
    # the same under the weights of q = 2: (1 + z/3)(1 - z/3) = 1 - z^2/9,
    # and z^2/9 = 2 z^2 / |U(2, 2)|
    a, b = Series(T, a.counts, 2), Series(T, b.counts, 2)
    assert a * b == Series(T, (1, 0, -2, 0, 0, 0), 2)
    assert (a * b).coeffs == (1, 0, Fraction(-1, 9), 0, 0, 0)


def test_truncation_mismatch_is_an_error():
    with pytest.raises(ValueError):
        one(3) * one(4)
    with pytest.raises(ValueError):
        one(3) * one(3, 2)  # class weights against element weights
    with pytest.raises(ValueError):
        one(3, 2) * one(3, 3)


def test_coeff_bounds():
    s = one(3)
    assert s.coeff(0) == 1
    with pytest.raises(IndexError):
        s.coeff(4)


def test_binom_factor_examples():
    assert binom_factor(1, 1, 2, 3) == Series(3, (1, 2, 1, 0))
    assert binom_factor(2, 1, -1, 6) == Series(6, (1, 0, 1, 0, 1, 0, 1))
    assert binom_factor(1, 1, 1, 2, 2).coeffs == (1, Fraction(1, 3), 0)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("c", [1, 2, Fraction(1, 3), Fraction(-2, 5)])
@pytest.mark.parametrize("e", [1, 2, 5])
def test_binom_factor_inverse_pairs(d, c, e):
    # (1 + c z^d)^e * (1 - (-c) z^d)^(-e) = 1 up to the truncation; a
    # fractional c is read under the weights of q = its denominator - 1,
    # which divides |U(d, q)| as the factor q + 1
    T = 8
    q = None if Fraction(c).denominator == 1 else Fraction(c).denominator - 1
    n = _count(c, d, q)
    power = binom_factor(d, n, e, T, q)
    assert power * binom_factor(d, -n, -e, T, q) == one(T, q)
    want = [Fraction(0)] * (T + 1)
    for k in range(T // d + 1):
        want[d * k] = comb(e, k) * Fraction(c) ** k
    assert power.coeffs == tuple(want)


def test_euler_factor_with_unitary_orders():
    # sum of z^m / |U(m, 2)|: every class size |U(m, 2)| / |U(m, 2)| is 1
    got = euler_factor(1, lambda m: 1, 1, 2, 2)
    assert got.coeffs == (1, Fraction(1, 3), Fraction(1, 18))
    assert euler_factor(2, lambda m: 7, 3, 5) == one(5)  # T < d * step
    got = euler_factor(1, lambda m: 1, 3, 3, 2)
    assert got.coeffs == (1, 0, 0, Fraction(1, 648))


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
    s = euler_factor(1, lambda m: 1, 1, 6, 2)
    assert all(isinstance(c, Fraction) for c in s.coeffs)
    t = binom_factor(1, 1, 3, 6, 2)
    assert all(isinstance(c, Fraction) for c in (s * t).coeffs)
    assert all(isinstance(c, Fraction) for c in binom_factor(1, 1, -3, 6).coeffs)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_weights_are_the_U_binomials(q):
    # c(n, i) |U(i, q)| |U(n - i, q)| = |U(n, q)| for the Pascal-built table
    T = 100
    orders = [group_order_U(n, q) for n in range(T + 1)]
    for n, row in enumerate(series._weights(q, T)):
        assert len(row) == n + 1
        assert all(c * orders[i] * orders[n - i] == orders[n] for i, c in enumerate(row)), n
    assert series._weights(None, 4) == tuple((1,) * (n + 1) for n in range(5))


def count_series(T, q):
    """Random count-form series: constant term 1, counts in -50..50."""
    tail = st.lists(st.integers(-50, 50), min_size=T, max_size=T)
    return tail.map(lambda counts: Series(T, (1, *counts), q))


@st.composite
def power_case(draw):
    """(F, e): a random count-form series and an exponent 0..8."""
    T, q = draw(st.integers(0, 7)), draw(st.sampled_from(WEIGHTS))
    return draw(count_series(T, q)), draw(st.integers(0, 8))


@settings(deadline=None)
@given(power_case())
def test_power_is_repeated_multiplication(case):
    F, e = case
    product = one(F.truncation, F.q)
    for _ in range(e):
        product = product * F
    assert F**e == product
    assert F**e * F ** (-e) == one(F.truncation, F.q)


def test_negative_power_needs_a_nonzero_constant_term():
    # every series has constant term 1, so every series has negative powers:
    # a constant term of 0, or any other than 1, is refused when it is built
    for constant in (0, 2, -1, Fraction(1, 2)):
        for q in (None, 2):
            with pytest.raises(ValueError):
                Series(3, (constant, 1, 2, 0), q)
    with pytest.raises(TypeError):
        Series(1, (1, Fraction(1, 3)))  # counts are integers
    assert Series(3, (1, 0, 0, 0)) ** (-2) == one(3)


def test_an_inexact_miller_step_raises(monkeypatch):
    # a weight table that is not the U-binomials leaves a remainder
    # (c(3, 1) is 13, not 12, at q = 2)
    broken = ((1,), (1, 1), (1, 2, 1), (1, 13, 12, 1))
    monkeypatch.setattr(series, "_weights", lambda q, T: broken)
    with pytest.raises(SeriesInvariantError):
        Series(3, (1, 1, 1, 0), 2) ** 4


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
    """(A, B, e): random count-form series of one length T + 1 <= 8 under
    one weight table, and an exponent -8..8."""
    T, q = draw(st.integers(0, 7)), draw(st.sampled_from(WEIGHTS))
    return draw(count_series(T, q)), draw(count_series(T, q)), draw(st.integers(-8, 8))


@settings(deadline=None)
@given(ring_case())
def test_ring_operations_match_the_schoolbook_reference(case):
    A, B, e = case
    a, b = list(A.coeffs), list(B.coeffs)
    assert (A * B).coeffs == tuple(_ref_mul(a, b))
    assert (A**e).coeffs == tuple(_ref_pow(a, e))


@pytest.mark.parametrize("x", [3, 2**20 - 1])
@pytest.mark.parametrize("e", [10**5, -(10**5)])
def test_huge_exponent_is_scaled_after_reduction(x, e):
    # (1 + z/x)^e and (1 - z/x)^e at |e| = 10^5, with z/x the count 1 under
    # the weights of q = x - 1 (|U(1, q)| = x): the counts stay the size of
    # the coefficients times |U(k, q)|, so no step builds integers of megabits
    T = 21
    t0 = time.perf_counter()
    got = binom_factor(1, 1, e, T, x - 1)
    elapsed = time.perf_counter() - t0
    # (1 - c z)^-n = sum of C(n + k - 1, k) c^k z^k
    binomial = (lambda k: comb(e, k)) if e > 0 else (lambda k: comb(-e + k - 1, k))
    assert got.coeffs == tuple(Fraction(binomial(k), x**k) for k in range(T + 1))
    assert elapsed < 0.1


def test_power_of_an_euler_factor_keeps_to_the_true_denominators():
    # the z^k coefficient of a power of sum z^m / |U(m, 2)| has a denominator
    # dividing |U(k, 2)|, which the count form holds as it is
    T = 60
    f = euler_factor(1, lambda m: 1, 1, T, 2)
    t0 = time.perf_counter()
    cube = f**3
    elapsed = time.perf_counter() - t0
    assert cube == f * f * f
    assert elapsed < 1.0
