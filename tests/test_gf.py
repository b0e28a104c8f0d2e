"""F_q2: construction, table arithmetic, conjugation, norm-one circles, power maps."""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import unitary_powers
from unitary_powers import EnumerationBoundError, gf
from unitary_powers._numth import is_prime, prime_factors
from unitary_powers.gf import FieldDesc, FieldInvariantError, make_field

F4 = make_field(2, 1, 1)
F9 = make_field(3, 1, 1)
F16 = make_field(2, 2, 1)
F25 = make_field(5, 1, 1)
F64 = make_field(2, 3, 1)

SMALL_FIELDS = [F4, F9, F16, F25, F64]


def is_norm_one(a):
    # a^(q+1) = 1, by repeated multiplication
    b = a.desc.one
    for _ in range(a.desc.q + 1):
        b = b * a
    return b == 1


def mul_order(a):
    # independent order computation by repeated multiplication
    assert a.code != 0
    k, b = 1, a
    while b.code != 1:
        b = b * a
        k += 1
    return k


def test_field_sizes():
    assert F4.order == 4
    assert F9.order == 9
    assert F64.order == 64


def test_modulus_deterministic():
    assert make_field(2, 1, 1) is F4
    # lexicographically least monic irreducibles, constant term first
    assert F4.modulus == (1, 1, 1)       # x^2 + x + 1
    assert F9.modulus == (1, 0, 1)       # x^2 + 1
    assert make_field(3, 1, 1).modulus == F9.modulus


def test_make_field_rejects_bad_args():
    with pytest.raises(ValueError):
        make_field(4, 1, 1)
    with pytest.raises(ValueError):
        make_field(2, 0, 1)
    with pytest.raises(EnumerationBoundError):
        make_field(2, 11, 1)  # 2^22 elements
    with pytest.raises(ValueError):
        make_field(2, 1, 2)  # only F_q2 is modelled


def test_field_desc_checks_its_arguments():
    # the constructor itself refuses, before it builds a table
    with pytest.raises(ValueError):
        FieldDesc(4, 1)
    with pytest.raises(ValueError):
        FieldDesc(2, 0)
    with pytest.raises(EnumerationBoundError):
        FieldDesc(2, 11)  # 2^22 elements


def test_conj_fixes_zero_and_one():
    for desc in SMALL_FIELDS:
        assert desc.zero.conj() == desc.zero
        assert desc.one.conj() == desc.one


def test_conj_on_f9_generator():
    gens = [a for a in F9.elements() if a.code and mul_order(a) == 8]
    assert len(gens) == 4
    for g in gens:
        assert g.conj() == g**3
        assert g.conj().conj() == g


@pytest.mark.parametrize("desc", SMALL_FIELDS, ids=lambda d: f"GF{d.order}")
def test_frobenius_is_a_field_automorphism(desc):
    elems = list(desc.elements())
    for a in elems:
        for b in elems:
            assert (a * b).conj() == a.conj() * b.conj()
            assert (a + b).conj() == a.conj() + b.conj()


@pytest.mark.parametrize("desc", [F4, F9, F16], ids=lambda d: f"GF{d.order}")
def test_conj_fixed_set_is_the_q_subfield(desc):
    fixed = [a for a in desc.elements() if a.conj() == a]
    assert len(fixed) == desc.q
    codes = {a.code for a in fixed}
    for a in fixed:
        for b in fixed:
            assert (a + b).code in codes
            assert (a * b).code in codes


@pytest.mark.parametrize("q,p,l", [(2, 2, 1), (3, 3, 1)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_norm_one_circle_size(q, p, l, d):
    # the circle of F_Q2 for Q = q^d: F4, F16, F64 and F9, F81, F729
    desc = make_field(p, l * d, 1)
    count = sum(is_norm_one(a) for a in desc.elements())
    assert count == q**d + 1


def test_norm_one_conventions():
    assert is_norm_one(F4.one)
    assert not is_norm_one(F4.zero)
    for desc in (F4, F9, F16, F25):
        assert sum(is_norm_one(a) for a in desc.elements()) == desc.q + 1


def test_power_map_identity_exponent():
    for a in F9.elements():
        assert a**1 == a


def test_power_map_on_the_norm_one_circle_of_f4():
    mu3 = [a for a in F4.elements() if is_norm_one(a)]
    assert {(a**3).code for a in mu3} == {1}
    assert {(a**2).code for a in mu3} == {a.code for a in mu3}


@pytest.mark.parametrize("desc", [F4, F9, F16], ids=lambda d: f"GF{d.order}")
def test_power_map_composes(desc):
    for a in desc.elements():
        for M in (2, 3, 5):
            for N in (2, 3, 5):
                assert (a**M) ** N == a ** (M * N)


def broken_modulus(p, degree):
    # t^2 + 1 = (t + 1)^2 over F_2: the residue of t passes the generator
    # test but has order 2 in the quotient ring, so t^3 = t, not 1
    return (1, 0, 1)


def no_prime_factors_of_three(real):
    # with every prime factor of |F_4^*| = 3 replaced by 1, every candidate
    # looks like a non-generator; the modulus search, by trial division,
    # factors nothing
    return lambda n: [1] if n == 3 else real(n)


def test_field_without_a_primitive_element_raises(monkeypatch):
    monkeypatch.setattr(gf, "prime_factors", no_prime_factors_of_three(gf.prime_factors))
    with pytest.raises(FieldInvariantError, match="no primitive element"):
        FieldDesc(2, 1)


def test_power_walk_that_does_not_close_raises(monkeypatch):
    monkeypatch.setattr(gf, "_least_irreducible", broken_modulus)
    with pytest.raises(FieldInvariantError, match="do not return to 1"):
        FieldDesc(2, 1)


def test_rebuilding_the_tables_checks_again():
    desc = FieldDesc(2, 1)
    desc._ensure_tables()  # no early return: a second build passes again
    assert desc.mul_c(2, 3) == desc._mul_raw(2, 3)
    desc.modulus = (1, 0, 1)
    with pytest.raises(FieldInvariantError, match="do not return to 1"):
        desc._ensure_tables()


def test_field_invariant_checks_survive_python_O():
    code = (
        "import sys\n"
        "from unitary_powers import FieldInvariantError, gf\n"
        "from unitary_powers.gf import FieldDesc\n"
        "caught = 0\n"
        "real_modulus, real_factors = gf._least_irreducible, gf.prime_factors\n"
        "gf._least_irreducible = lambda p, degree: (1, 0, 1)\n"
        "try:\n"
        "    FieldDesc(2, 1)\n"
        "except FieldInvariantError as exc:\n"
        "    caught += 'do not return to 1' in str(exc)\n"
        "gf._least_irreducible = real_modulus\n"
        "gf.prime_factors = lambda n: [1] if n == 3 else real_factors(n)\n"
        "try:\n"
        "    FieldDesc(2, 1)\n"
        "except FieldInvariantError as exc:\n"
        "    caught += 'no primitive element' in str(exc)\n"
        "sys.exit(0 if caught == 2 and sys.flags.optimize else 1)\n"
    )
    src = str(Path(unitary_powers.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_tables_match_polynomial_arithmetic_on_f_257_squared():
    # 66049 elements, the largest field the suite builds, on sampled pairs;
    # then every element, 0 included, of each small field as the first operand
    big = make_field(257, 1, 1)
    rng = random.Random(2027)
    pairs = [(rng.randrange(big.order), rng.randrange(big.order)) for _ in range(400)]
    pairs += [(0, 0), (0, 5), (1, big.p - 1), (big.p, big.neg_c(big.p))]
    cases = [(big, pairs)]
    for desc in SMALL_FIELDS:
        cases.append((desc, [(a, rng.randrange(desc.order)) for a in range(desc.order)]))

    def digitwise(desc, a, b, sign):
        return desc.code_of(x + sign * y for x, y in zip(desc.coords_of(a), desc.coords_of(b)))

    for desc, pairs in cases:
        q, n = desc.q, desc.order - 1
        for a, b in pairs:
            assert desc.mul_c(a, b) == desc._mul_raw(a, b)
            assert desc.add_c(a, b) == digitwise(desc, a, b, 1)
            assert desc.sub_c(a, b) == digitwise(desc, a, b, -1)
            assert desc.neg_c(a) == digitwise(desc, 0, a, -1)
            assert desc.conj_c(a) == desc._pow_raw(a, q)
            e = rng.randrange(-2 * n, 2 * n)
            if a == 0:
                continue
            inv = desc._pow_raw(a, n - 1)
            assert desc.inv_c(a) == inv
            assert desc.pow_c(a, e) == (desc._pow_raw(a, e) if e >= 0 else desc._pow_raw(inv, -e))


@pytest.mark.parametrize(
    "desc", SMALL_FIELDS + [make_field(257, 1, 1)], ids=lambda d: f"GF{d.order}"
)
def test_power_walk_matches_polynomial_powers(desc):
    # the power walk builds exp_table; each sampled entry is the
    # generator's power computed by polynomial arithmetic modulo m
    n = desc.order - 1
    exp, log = desc.exp_table, desc.log_table
    gen = exp[1]
    rng = random.Random(desc.order)
    for i in sorted({0, 1, 2, n - 1, *(rng.randrange(n) for _ in range(60))}):
        assert exp[i] == exp[i + n] == desc._pow_raw(gen, i)
        assert log[exp[i]] == i
    assert len(exp) == 2 * n and log[0] == -1
    assert sorted(exp[:n]) == list(range(1, desc.order))


@pytest.mark.parametrize("desc", [F9, F25, make_field(257, 1, 1)], ids=lambda d: f"GF{d.order}")
def test_zech_table_over_two_periods(desc):
    # zech[t] = log(1 + g^t), -1 where that sum is 0, for t in (-n, 2n);
    # 1 + a is computed on coordinates, not by the tables under test
    n = desc.order - 1
    exp, zech = desc.exp_table, desc.zech_table
    assert len(zech) == 2 * n
    rng = random.Random(desc.order)
    samples = {-n + 1, -1, 0, n // 2, n - 1, n, 2 * n - 1}
    for t in samples | {rng.randrange(-n + 1, 2 * n) for _ in range(60)}:
        s = desc.code_of(c + (i == 0) for i, c in enumerate(desc.coords_of(exp[t % n])))
        assert (zech[t] == -1) if s == 0 else (exp[zech[t]] == s)


def test_characteristic_two_has_no_zech_table():
    assert F4.zech_table is None and F64.zech_table is None


# Reference for the modulus search: Rabin's irreducibility test over F_p, on
# its own dense arithmetic (coefficient lists, constant first), as gf used it
# before it found the modulus by trial division.

def _rtrim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _rmod(a, f, p):
    a = list(a)
    for i in range(len(a) - 1, len(f) - 2, -1):
        c = a[i] * pow(f[-1], -1, p) % p
        for j, fj in enumerate(f):
            a[i - len(f) + 1 + j] = (a[i - len(f) + 1 + j] - c * fj) % p
    return _rtrim(a[: len(f) - 1])


def _rmulmod(a, b, f, p):
    out = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _rmod(out, f, p)


def _rpowmod(a, e, f, p):
    r = [1]
    while e:
        if e & 1:
            r = _rmulmod(r, a, f, p)
        a = _rmulmod(a, a, f, p)
        e //= 2
    return r


def _rgcd(a, b, p):
    while b:
        a, b = b, _rmod(a, b, p)
    return a


def rabin_irreducible(f, p):
    d = len(f) - 1
    x = [0, 1]
    if _rpowmod(x, p**d, f, p) != _rmod(x, f, p):
        return False
    for r in prime_factors(d):
        h = _rpowmod(x, p ** (d // r), f, p) + [0, 0]
        h[1] = (h[1] - 1) % p  # x^(p^(d/r)) - x
        if len(_rgcd(f, _rtrim(h), p)) > 1:
            return False
    return True


def rabin_least_irreducible(p, degree):
    for tail in itertools.product(range(p), repeat=degree):
        if tail[0] and rabin_irreducible(list(tail) + [1], p):
            return tail + (1,)


FIELDS_TO_2_16 = [
    (p, l) for p in range(2, 257) if is_prime(p)
    for l in range(1, 9) if p ** (2 * l) <= 1 << 16
]


def test_modulus_search_matches_rabin_reference():
    assert len(FIELDS_TO_2_16) == 70
    for p, l in FIELDS_TO_2_16:
        assert gf._least_irreducible(p, 2 * l) == rabin_least_irreducible(p, 2 * l), (p, l)


def test_modulus_of_the_largest_characteristic_two_field():
    # F_2^20: the most trial divisors per candidate of any field (1,023,
    # the monic ones of degree 1 .. 10 with g(0) != 0)
    start = time.perf_counter()
    assert gf._least_irreducible(2, 20) == (1,) + (0,) * 16 + (1, 0, 0, 1)
    assert time.perf_counter() - start < 1
