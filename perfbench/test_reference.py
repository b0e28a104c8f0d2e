"""Tests of the benchmark's reference module against hand values and against
brute force in the exponent group of F_(q^(2d))^*.

Run from the repository root: python3 -m pytest -q perfbench
"""

from fractions import Fraction

import pytest

import reference as ref


def test_group_orders():
    assert [ref.group_order(n, 2) for n in (1, 2, 3)] == [3, 18, 648]
    assert [ref.group_order(n, 3) for n in (1, 2)] == [4, 96]
    assert ref.group_order(4, 2) == 77760
    assert ref.group_order(3, 3) == 24192


def test_wall_class_numbers():
    assert [ref.wall_class_number(n, 2) for n in (1, 2, 3)] == [3, 9, 24]
    for q in (2, 3, 4, 5, 7, 8, 9):
        assert ref.wall_class_number(1, q) == q + 1
        assert ref.wall_class_number(2, q) == (q + 1) ** 2


def test_necklace_counts_fill_the_field():
    for Q in (4, 9, 16):
        for n in range(1, 7):
            assert sum(d * ref.necklace(Q, d) for d in ref.divisors(n)) == Q**n


def _orbit(k, Q, n):
    out, x = {k}, k * Q % n
    while x != k:
        out.add(x)
        x = x * Q % n
    return out


def _brute(q, d, M):
    """(N~, N~_M, R~, R~_M) by listing exponents k of g^k in F_(Q^d)^*.

    Frobenius over F_Q is k -> kQ, so the degree of g^k is its orbit size;
    its minimal polynomial is self-conjugate when -qk lies in that orbit.
    A SCIM root is an M~-power when some M-th root of it is again a
    degree-d SCIM root; a pair member's root is an M-th power in F_(Q^d)."""
    Q = q * q
    n = Q**d - 1
    orbits = {k: _orbit(k, Q, n) for k in range(n)}
    scim = lambda k: len(orbits[k]) == d and (-q * k) % n in orbits[k]
    counts = [0, 0, 0, 0]
    for k in range(n):
        if len(orbits[k]) != d:
            continue
        roots = [r for r in range(n) if (M * r - k) % n == 0]
        if scim(k):
            counts[0] += 1
            counts[1] += any(scim(r) for r in roots)
        else:
            counts[2] += 1
            counts[3] += bool(roots)
    return counts[0] // d, counts[1] // d, counts[2] // (2 * d), counts[3] // (2 * d)


@pytest.mark.parametrize("q,d_max", [(2, 4), (3, 3), (4, 2), (5, 2)])
def test_polynomial_counts_match_brute_force(q, d_max):
    for d in range(1, d_max + 1):
        for M in range(1, 13):
            expected = _brute(q, d, M)
            got = (
                ref.scim_count(q, d),
                ref.mtilde_scim_count(q, d, M),
                ref.pair_count(q, d),
                ref.mpower_pair_count(q, d, M),
            )
            assert got == expected, (q, d, M)


def test_count_row_hand_values():
    row = ref.count_row(2, 1, 3)
    assert (row["N_tilde"], row["N_tilde_M"], row["R_tilde"], row["R_tilde_M"]) == (3, 1, 0, 0)
    row = ref.count_row(3, 1, 5)
    assert (row["N_tilde"], row["N_tilde_M"], row["R_tilde"], row["R_tilde_M"]) == (4, 4, 2, 2)
    assert ref.pair_count(2, 4) == 30


def test_m1_class_series_on_gu2():
    # GU(2, q) has (q+1)^2 classes: q+1 scalar, q+1 non-semisimple, and the
    # rest regular semisimple; cyclic = all but scalar, separable = neither.
    for q in (2, 3, 4, 5):
        sep = ref.class_series_m1(q, 2, "sep")
        cyc = ref.class_series_m1(q, 2, "cyc")
        assert sep[:3] == [1, q + 1, q * q - 1]
        assert cyc[:3] == [1, q + 1, q * q + q]


def test_m1_element_series_bounds():
    for q, T in ((2, 8), (3, 5), (5, 3)):
        sep = ref.elem_series_m1(q, T, "sep")
        for fam in ("cyc", "ss"):
            other = ref.elem_series_m1(q, T, fam)
            for n in range(T + 1):
                assert 0 <= sep[n] <= other[n] <= 1
                assert (other[n] * ref.group_order(n, q)).denominator == 1
        # every element of the torus GU(1, q) is separable
        assert sep[1] == 1
    # GU(2, 2): the separable elements are the 3 regular classes of the
    # diagonal norm-one torus, of size 18/9 = 2 each, so 6 of 18 elements
    assert ref.elem_series_m1(2, 2, "sep")[2] == Fraction(1, 3)
