"""The package's one square-and-multiply (`power`) and one order loop
(`order_dividing`), against repeated multiplication on each element type
that uses them: integers mod n, matrices, and polynomials mod f; and the
primality test and prime-power split, against a sieve and `factorint`."""

import math
import operator

import pytest

from unitary_powers._numth import (
    EnumerationBoundError,
    euler_phi,
    factorint,
    is_prime,
    order_dividing,
    power,
    prime_power,
)
from unitary_powers.gf import make_field
from unitary_powers.oracle import MatrixRep
from unitary_powers.polyalg import Poly, irreducible_polys

F9 = make_field(3, 1, 1)
BIG = 2**200 + 1


def repeated(x, e, mul, one):
    out = one
    for _ in range(e):
        out = mul(out, x)
    return out


def order_by_walk(x, mul, one):
    k, y = 1, x
    while y != one:
        y, k = mul(y, x), k + 1
    return k


def check_power(x, mul, one):
    # e = 1..64 step by step; e = 2^200 + 1 reduced by the order of x
    for e in range(1, 65):
        assert power(x, e, mul) == repeated(x, e, mul, one)
    assert power(x, BIG, mul) == repeated(x, BIG % order_by_walk(x, mul, one), mul, one)


@pytest.mark.parametrize("a, n", [(3, 7), (2, 257), (10, 1021), (6, 35)])
def test_power_on_integers_mod_n(a, n):
    mul = lambda x, y: x * y % n
    check_power(a, mul, 1)
    assert power(a, BIG, mul) == pow(a, BIG, n)


def test_power_on_matrices():
    # the companion matrix of an irreducible cubic over F_9, and a Jordan block
    f = irreducible_polys(F9, 3)[0]
    companion = MatrixRep(F9, 3, (0, 0, F9.neg_c(f.codes[0]),
                                  1, 0, F9.neg_c(f.codes[1]),
                                  0, 1, F9.neg_c(f.codes[2])))
    jordan = MatrixRep(F9, 3, (4, 1, 0, 0, 4, 1, 0, 0, 4))
    for A in (companion, jordan):
        check_power(A, operator.mul, MatrixRep.identity(F9, 3))


def test_power_on_polynomials_mod_f():
    # modulo an irreducible g, where t is a unit of finite order
    g = irreducible_polys(F9, 3)[1]
    check_power(Poly.t(F9), lambda a, b: (a * b) % g, Poly.one(F9))
    # modulo f = t^4 + t^3 + t + 2, whose residues need not be units
    f, base = Poly(F9, (2, 1, 0, 1, 1)), Poly(F9, (5, 7, 1))
    mul = lambda a, b: (a * b) % f
    for e in range(1, 65):
        assert power(base, e, mul) == repeated(base, e, mul, Poly.one(F9))


@pytest.mark.parametrize("e", [1, 2, 3, 8, 13, 64, BIG])
def test_power_never_multiplies_by_the_identity(e):
    # floor(log2 e) squarings and popcount(e) - 1 further products
    calls = []
    power(5, e, lambda x, y: calls.append((x, y)) or 0)
    assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1


@pytest.mark.parametrize("e", [0, -1, -8])
def test_power_refuses_exponents_below_one(e):
    with pytest.raises(ValueError):
        power(3, e, operator.mul)


def test_order_dividing_matches_brute_force_orders():
    for n in range(2, 301):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            brute = order_by_walk(a, lambda x, y: x * y % n, 1)
            assert order_dividing(euler_phi(n), lambda k: pow(a, k, n) == 1) == brute


def test_is_prime_matches_a_sieve():
    sieve = [False, False] + [True] * (2 * 10**5 - 1)
    for p in range(2, 448):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    assert [is_prime(n) for n in range(len(sieve))] == sieve


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # strong pseudoprimes to the bases 2, 3, 5, 7, resp. 2..23
    assert not is_prime(n)


def test_is_prime_refuses_beyond_its_exact_bound():
    assert is_prime(10**18 + 3)
    assert not is_prime(2**100)  # a factor among the bases decides at any size
    with pytest.raises(EnumerationBoundError):
        is_prime(2**89 - 1)


def test_prime_power_matches_factorisation():
    for n in range(5000):
        fac = factorint(n) if n else {}
        try:
            split = prime_power(n)
        except ValueError:
            split = None
        assert split == (next(iter(fac.items())) if len(fac) == 1 else None), n
    assert prime_power((10**6 + 3) ** 3) == (10**6 + 3, 3)
    assert prime_power(10**18 + 3) == (10**18 + 3, 1)
    assert prime_power(2**200) == (2, 200)
    with pytest.raises(ValueError):
        prime_power(10**30)


def test_prime_power_cache_is_bounded_and_keeps_no_refusal():
    assert prime_power.cache_info().maxsize is not None
    for _ in range(2):
        with pytest.raises(ValueError, match="not a prime power"):
            prime_power(6)
