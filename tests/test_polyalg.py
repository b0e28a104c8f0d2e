"""Polynomial algebra: tilde conjugation, factorisation, power classifications."""

import itertools
import os
import random
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitary_powers
from references import (butler_pattern, elem_of_order, field_pow, monic_polys, product_sieve,
                        root_order)
from unitary_powers import polyalg
from unitary_powers._numth import power
from unitary_powers.counts import count_irreducible
from unitary_powers.gf import make_field
from unitary_powers.polyalg import (
    FactorisationError,
    Poly,
    PolyClass,
    classify,
    compose_power,
    factor,
    irreducible_polys,
    is_irreducible,
    is_m_power_pair,
    is_mtilde_power,
    tilde,
)

F4 = make_field(2, 1, 1)
F9 = make_field(3, 1, 1)


# ----------------------------------------------------------------------
# tilde
# ----------------------------------------------------------------------

def test_tilde_fixes_t_minus_one():
    for desc in (F4, F9):
        f = Poly.linear(desc, 1)
        assert tilde(f) == f


def test_tilde_fixes_norm_one_linear_over_f4():
    g = elem_of_order(F4, 3)  # norm-one generator, g^3 = 1
    f = Poly.linear(F4, g)
    assert tilde(f) == f
    # root of the tilde conjugate is the inverse conjugate of the root
    assert tilde(f) == Poly.linear(F4, F4.inv_c(F4.conj_c(g)))


def test_tilde_moves_order_eight_linear_over_f9():
    g = elem_of_order(F9, 8)
    f = Poly.linear(F9, g)
    assert tilde(f) == Poly.linear(F9, field_pow(F9, g, -3))
    assert tilde(f) != f


@pytest.mark.parametrize("desc", [F4, F9], ids=lambda d: f"GF{d.order}")
def test_tilde_is_an_involution(desc):
    for d in (1, 2, 3):
        for f in monic_polys(desc, d):
            if f.codes[0] == 0:
                continue
            assert tilde(tilde(f)) == f


@pytest.mark.parametrize("desc", [F4, F9], ids=lambda d: f"GF{d.order}")
def test_tilde_preserves_irreducibility(desc):
    for d in (1, 2, 3):
        for f in irreducible_polys(desc, d):
            if f.codes[0] == 0:
                continue
            assert is_irreducible(tilde(f))


def test_polynomials_are_built_from_codes_and_evaluate_to_codes():
    for desc in (F4, F9):
        for a in range(desc.order):
            f = Poly.linear(desc, a)
            assert f.codes == (desc.neg_c(a), 1)
            assert f(a) == 0 and type(f(a)) is int
        for bad in (-1, desc.order):
            with pytest.raises(ValueError, match="out of range"):
                Poly.linear(desc, bad)
            with pytest.raises(ValueError, match="out of range"):
                Poly(desc, (bad, 1))


def test_poly_rejects_codes_that_are_not_integers():
    # a float or a string is no code: it is neither truncated nor parsed
    for bad in (1.5, 1.0, "3"):
        with pytest.raises(TypeError):
            Poly(F4, (bad, 1))
        with pytest.raises(TypeError):
            Poly(F4, (1, bad))


def test_tilde_rejects_zero_constant_term():
    with pytest.raises(ValueError):
        tilde(Poly.t(F4))


# ----------------------------------------------------------------------
# irreducibility and factorisation
# ----------------------------------------------------------------------

def test_linear_is_irreducible():
    for c in range(4):
        assert is_irreducible(Poly(F4, (c, 1)))


def test_irreducible_quadratics_over_f4_match_necklace_count():
    # independent oracle for quadratics: irreducible iff no root
    brute = [
        f
        for f in monic_polys(F4, 2)
        if all(f(a) != 0 for a in range(F4.order))
    ]
    assert len(brute) == (4**2 - 4) // 2 == 6
    assert set(brute) == set(irreducible_polys(F4, 2))
    for f in monic_polys(F4, 2):
        assert is_irreducible(f) == (f in brute)


@pytest.mark.parametrize("desc,max_deg", [(F4, 4), (F9, 3)], ids=["GF4", "GF9"])
def test_ben_or_agrees_with_the_sieve_on_every_monic(desc, max_deg):
    # every monic of each degree, so squares g^2, products t*g and f(0) = 0
    # are all among the inputs
    for d in range(1, max_deg + 1):
        sieved = set(irreducible_polys(desc, d))
        for f in monic_polys(desc, d):
            assert is_irreducible(f) == (f in sieved)


def test_factor_and_sieve_caches_are_bounded():
    # `verify --q 8 --M 3 --n-max 2` keeps 81 factorisations and one
    # `enumerate` benchmark round 9 sieved lists; the bounds hold such runs
    # without evicting
    factor_max = factor.cache_info().maxsize
    sieve_max = irreducible_polys.cache_info().maxsize
    assert factor_max is not None and factor_max >= 1024
    assert sieve_max is not None and sieve_max >= 64
    # one `enumerate` round makes 735 power tests on 448 distinct (f, k)
    power_max = polyalg._x_power_is_one.cache_info().maxsize
    assert power_max is not None and power_max >= 448


# the product sieve: the nine cells of the `enumerate` benchmark workload,
# then F_16 and F_25 up to degree 3
SIEVE_CELLS = (
    [(F4, d) for d in range(1, 7)] + [(F9, d) for d in range(1, 4)]
    + [(make_field(2, 2, 1), d) for d in range(1, 4)]
    + [(make_field(5, 1, 1), d) for d in range(1, 4)]
)


def _trial_division(desc, d, smaller):
    # the monic f of degree d with no monic irreducible factor of degree
    # <= d/2, in the order of `monic_polys`
    divisors = [g for e in range(1, d // 2 + 1) for g in smaller[e]]
    return [f for f in monic_polys(desc, d) if all((f % g).codes for g in divisors)]


@pytest.mark.parametrize(
    "desc,d", SIEVE_CELLS, ids=[f"GF{desc.order}-d{d}" for desc, d in SIEVE_CELLS]
)
def test_sieve_matches_trial_division_and_the_necklace_count(desc, d):
    smaller = {}
    for e in range(1, d // 2 + 1):
        smaller[e] = _trial_division(desc, e, smaller)
    sieved = irreducible_polys(desc, d)
    assert list(sieved) == _trial_division(desc, d, smaller)
    assert len(sieved) == count_irreducible(desc.order, d)
    assert all(is_irreducible(f) for f in sieved)


# every (Q, d) with Q^d <= 2^16 over F_4, F_9, F_16, F_25 and F_49
REFERENCE_SIEVE_CELLS = [(desc, d) for desc in (F4, F9, make_field(2, 2, 1), make_field(5, 1, 1),
                                                 make_field(7, 1, 1))
                         for d in range(1, 9) if desc.order**d <= 2**16]


@pytest.mark.parametrize("desc,d", REFERENCE_SIEVE_CELLS,
                         ids=[f"GF{desc.order}-d{d}" for desc, d in REFERENCE_SIEVE_CELLS])
def test_sieve_matches_the_product_sieve_reference(desc, d):
    # the strikes in `map` passes list the same codes, in the same order and
    # of the same type, as one `_product` and one fold per pair (g, h)
    sieved, want = irreducible_polys(desc, d), product_sieve(desc, d)
    assert [f.codes for f in sieved] == [f.codes for f in want]
    assert {type(f) for f in sieved} == {type(f) for f in want} == {polyalg._Sieved}


@pytest.mark.parametrize("desc,d", [(F4, 3), (F4, 4), (F9, 3)], ids=["q2-d3", "q2-d4", "q3-d3"])
def test_classify_agrees_on_sieved_and_hand_built_polynomials(desc, d):
    # `classify` skips the Rabin test only for the sieve's own polynomials;
    # a hand-built equal polynomial gets it, and the class is the same in
    # either call order
    for f in irreducible_polys(desc, d):
        twin = Poly(desc, f.codes)
        assert twin == f and type(twin) is not type(f)
        classify.cache_clear()
        first = classify(f)
        classify.cache_clear()
        assert classify(twin) is first
        classify.cache_clear()
        assert classify(twin) is first and classify(f) is first
    classify.cache_clear()


# ----------------------------------------------------------------------
# ring kernels against schoolbook arithmetic on the field's code operations
# ----------------------------------------------------------------------

KERNEL_FIELDS = [F4, F9, make_field(2, 2, 1), make_field(5, 1, 1), make_field(257, 1, 1)]


def _school_mul(a, b):
    desc = a.desc
    out = [0] * (len(a.codes) + len(b.codes) - 1)
    for i, x in enumerate(a.codes):
        for j, y in enumerate(b.codes):
            out[i + j] = desc.add_c(out[i + j], desc.mul_c(x, y))
    return Poly(desc, out)


def _school_add(a, b):
    n = max(len(a.codes), len(b.codes))
    x, y = (list(f.codes) + [0] * (n - len(f.codes)) for f in (a, b))
    return Poly(a.desc, [a.desc.add_c(u, v) for u, v in zip(x, y)])


@st.composite
def kernel_operands(draw):
    # coefficients are drawn by their logs, so the shrinker reaches the
    # ends of the log range, where sums of logs wrap around q^2 - 1
    desc = draw(st.sampled_from(KERNEL_FIELDS))
    n = desc.order - 1
    coeff = st.one_of(st.just(0), st.integers(0, n - 1).map(desc.exp_table.__getitem__))
    a = draw(st.lists(coeff, max_size=9))
    b = draw(st.lists(coeff, min_size=1, max_size=6))
    b.append(draw(coeff.filter(bool)))  # nonzero, and not always monic
    return Poly(desc, a), Poly(desc, b)


@settings(deadline=None, max_examples=60)
@given(kernel_operands())
def test_product_matches_the_schoolbook_reference(operands):
    a, b = operands
    if a.is_zero():
        assert (a * b).is_zero() and (b * a).is_zero()
        return
    assert a * b == _school_mul(a, b) == b * a


@settings(deadline=None, max_examples=60)
@given(kernel_operands())
def test_division_satisfies_a_equals_qb_plus_r(operands):
    a, b = operands
    quot, rem = divmod(a, b)
    assert rem.degree < b.degree
    back = rem if quot.is_zero() else _school_add(_school_mul(quot, b), rem)
    assert back == a


@settings(deadline=None, max_examples=60)
@given(kernel_operands())
def test_linear_kernels_and_tilde_match_the_schoolbook_reference(operands):
    a, b = operands
    desc = a.desc
    mul, conj = desc.mul_c, desc.conj_c
    neg_b = Poly(desc, [desc.neg_c(x) for x in b.codes])
    assert a + b == _school_add(a, b) == b + a
    assert -b == neg_b
    assert a - b == _school_add(a, neg_b)
    lead = b.codes[-1]
    assert a.scale(lead) == Poly(desc, [mul(x, lead) for x in a.codes])
    assert a.scale(0).is_zero()
    f = Poly(desc, [mul(x, desc.inv_c(lead)) for x in b.codes])
    assert b.monic() == f
    if f.codes[0]:
        inv0 = desc.inv_c(conj(f.codes[0]))
        assert tilde(f) == Poly(desc, [mul(conj(x), inv0) for x in reversed(f.codes)])


def _school_divmod(a, b):
    # long division by the field's code operations
    desc, db = a.desc, b.degree
    rem, inv = list(a.codes), desc.inv_c(b.codes[-1])
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = quot[i - db] = desc.mul_c(rem[i], inv)
        for j, y in enumerate(b.codes):
            rem[i - db + j] = desc.add_c(rem[i - db + j], desc.neg_c(desc.mul_c(c, y)))
    return Poly(desc, quot), Poly(desc, rem[:db])


@pytest.mark.parametrize("desc", KERNEL_FIELDS, ids=lambda d: f"GF{d.order}")
def test_list_kernels_match_schoolbook_product_and_division(desc):
    rng = random.Random(desc.order)
    codes = lambda k: [rng.choice((0, rng.randrange(desc.order))) for _ in range(k)]
    for _ in range(30):
        b = codes(rng.randrange(0, 6)) + [rng.randrange(1, desc.order)]
        reduce = polyalg._remainder(desc, b)  # reused: its modulus terms are fixed
        for _ in range(4):
            a = codes(rng.randrange(0, 14))
            assert Poly(desc, polyalg._product(desc, a, b)) == _school_mul(Poly(desc, a),
                                                                           Poly(desc, b))
            quot = [0] * max(len(a) - len(b) + 1, 0)
            rem = reduce(list(a), quot)
            assert (Poly(desc, quot), Poly(desc, rem)) == _school_divmod(Poly(desc, a),
                                                                         Poly(desc, b))
            assert rem == reduce(list(a)) and (not rem or rem[-1])
    assert polyalg._product(desc, [], [1, 2]) == polyalg._product(desc, [3], []) == []


def _reference_pow_mod(base, e, f):
    # square-and-multiply on `Poly` objects, one product and one division a step
    if e == 0:
        return Poly.one(base.desc)
    return power(base % f, e, lambda a, b: (a * b) % f)


# F_4, F_16, F_64 add by XOR; F_9, F_25, F_49 by the Zech table
POW_FIELDS = [F4, make_field(2, 2, 1), make_field(2, 3, 1), F9, make_field(5, 1, 1),
              make_field(7, 1, 1)]


@pytest.mark.parametrize("desc", POW_FIELDS, ids=lambda d: f"GF{d.order}")
def test_pow_mod_matches_the_poly_object_reference(desc):
    rng = random.Random(1000 + desc.order)
    Q = desc.order
    poly = lambda d, lead: Poly(desc, [rng.randrange(Q) for _ in range(d)] + [lead])
    exponents = [0, 1, 2, rng.randrange(10**29, 10**30)] + [rng.randrange(10**6)
                                                            for _ in range(3)]
    for d in range(1, 7):
        for f in (poly(d, 1), poly(d, rng.randrange(2, Q))):  # monic, non-monic
            bases = [Poly(desc, ()), Poly.t(desc), poly(rng.randrange(d), rng.randrange(1, Q)),
                     poly(rng.randrange(d, 2 * d + 4), rng.randrange(1, Q))]
            for base, e in itertools.product(bases, exponents):
                assert polyalg.pow_mod(base, e, f) == _reference_pow_mod(base, e, f), (f, base, e)


def test_pow_mod_refuses_a_zero_modulus_and_a_negative_exponent():
    f, x = Poly(F9, (2, 1, 0, 1, 1)), Poly.t(F9)
    for e in (0, 1, 5):
        with pytest.raises(ZeroDivisionError):
            polyalg.pow_mod(x, e, Poly(F9, ()))
    with pytest.raises(ValueError):
        polyalg.pow_mod(x, -1, f)


def test_t_cubed_minus_one_over_f4():
    f = Poly(F4, (1, 0, 0, 1))  # t^3 - 1 = t^3 + 1 in characteristic 2
    assert not is_irreducible(f)
    fs = factor(f)
    assert [g.degree for g, _ in fs] == [1, 1, 1]
    assert all(m == 1 for _, m in fs)
    # roots are exactly the norm-one circle of F4
    roots = {a for a in range(F4.order) if f(a) == 0}
    assert roots == {a for a in range(1, F4.order) if field_pow(F4, a, 3) == 1}


def test_factor_of_irreducible_and_of_a_square():
    f = irreducible_polys(F4, 2)[0]
    assert factor(f) == ((f, 1),)
    lin = Poly.linear(F4, 1)
    assert factor(lin * lin) == ((lin, 2),)


@pytest.mark.parametrize(
    "desc,max_deg", [(F4, 3), (F9, 2)], ids=["GF4-deg3", "GF9-deg2"]
)
def test_factor_multiplies_back_and_is_sorted(desc, max_deg):
    for d in range(1, max_deg + 1):
        for f in monic_polys(desc, d):
            fs = factor(f)
            prod = Poly.one(desc)
            for g, m in fs:
                assert is_irreducible(g)
                for _ in range(m):
                    prod = prod * g
            assert prod == f
            assert list(fs) == sorted(fs, key=lambda pair: pair[0].sort_key())


def _lex_edf_split(h, e):
    """Reference equal-degree split: scan splitter candidates in lexicographic
    order (degree, then constant-first codes, then leading code) and return
    the first proper factor.  Slow but independent of any random choice."""
    desc = h.desc
    one = Poly.one(desc)
    exp = (desc.order**e - 1) // 2
    for deg in range(1, h.degree):
        for tail in itertools.product(range(desc.order), repeat=deg):
            for lead in range(1, desc.order):
                r = Poly(desc, tail + (lead,))
                if desc.p == 2:
                    cur = acc = r % h
                    for _ in range(e * desc.degree - 1):
                        cur = (cur * cur) % h
                        acc = acc + cur
                else:
                    acc = polyalg.pow_mod(r, exp, h) - one
                g = polyalg.gcd_poly(h, acc)
                if 0 < g.degree < h.degree:
                    return g
    raise AssertionError("lexicographic splitter search exhausted")


# (q, d) cells of the exhaustive cross-check whose f(x^M) are compared
REFERENCE_CELLS = [(F4, 3), (F9, 2)]


@pytest.mark.parametrize("desc,d", REFERENCE_CELLS, ids=["q2-d3", "q3-d2"])
def test_factor_matches_the_lexicographic_splitter(desc, d, monkeypatch):
    composed = [compose_power(f, M) for f in irreducible_polys(desc, d) for M in range(2, 7)]
    got = [factor(h) for h in composed]
    monkeypatch.setattr(polyalg, "_edf_split", _lex_edf_split)
    want = [factor.__wrapped__(h) for h in composed]
    assert got == want


@st.composite
def monic_poly(draw):
    desc = draw(st.sampled_from([F4, F9]))
    degree = draw(st.integers(1, 10))
    tail = draw(st.lists(st.integers(0, desc.order - 1), min_size=degree, max_size=degree))
    return Poly(desc, tail + [1])


@settings(deadline=None)
@given(monic_poly())
def test_factor_property(f):
    fs = factor(f)
    prod = Poly.one(f.desc)
    for g, m in fs:
        assert g.is_monic() and is_irreducible(g)
        assert m >= 1
        for _ in range(m):
            prod = prod * g
    assert prod == f
    keys = [g.sort_key() for g, _ in fs]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


@settings(deadline=None)
@given(monic_poly())
def test_irreducible_exactly_when_the_factorisation_is_itself(f):
    assert is_irreducible(f) == (factor(f) == ((f, 1),))


@pytest.mark.parametrize("desc", [F4, F9], ids=["GF4", "GF9"])
def test_edf_split_of_an_irreducible_raises(desc):
    # an irreducible quartic is no product of quadratics: every try fails
    h = next(f for f in monic_polys(desc, 4) if is_irreducible(f))
    start = time.perf_counter()
    with pytest.raises(FactorisationError):
        polyalg._edf_split(h, 2)
    assert time.perf_counter() - start < 1.0


def test_edf_split_check_survives_python_O():
    code = (
        "import sys, time\n"
        "from unitary_powers import FactorisationError, polyalg\n"
        "from unitary_powers.gf import make_field\n"
        "F4 = make_field(2, 1, 1)\n"
        "h = next(f for f in polyalg.irreducible_polys(F4, 4) if f.codes[0] != 0)\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    polyalg._edf_split(h, 2)\n"
        "except FactorisationError:\n"
        "    fast = time.perf_counter() - start < 1.0\n"
        "    sys.exit(0 if sys.flags.optimize and fast else 4)\n"
        "sys.exit(1)\n"
    )
    src = str(Path(unitary_powers.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_factor_handles_pth_power_shapes():
    # f(x^2) is a square in characteristic 2
    f = irreducible_polys(F4, 2)[0]
    h = compose_power(f, 2)
    fs = factor(h)
    assert sum(g.degree * m for g, m in fs) == 4


F16 = make_field(2, 2, 1)
F25 = make_field(5, 1, 1)


@pytest.mark.parametrize("desc", [F4, F16, F9, F25], ids=lambda d: f"GF{d.order}")
def test_factor_returns_multiplicities_at_and_above_p(desc):
    # prod g_i^e_i of distinct sieved irreducibles of degrees 1, 1, 2, 2, 3,
    # the exponents {1, p, p + 1, 2p, p^2} rotated over them: two factors of
    # one degree with different multiplicities share the layers of the
    # distinct-degree split, and every exponent meets every degree
    p = desc.p
    exps = [1, p, p + 1, 2 * p, p * p]
    irr1, irr2, irr3 = (irreducible_polys(desc, d) for d in (1, 2, 3))
    gs = [irr1[1], irr1[2], irr2[0], irr2[1], irr3[0]]
    for r in range(len(exps)):
        es = exps[r:] + exps[:r]
        f = Poly.one(desc)
        for g, e in zip(gs, es):
            for _ in range(e):
                f = f * g
        want = tuple(sorted(zip(gs, es), key=lambda pair: pair[0].sort_key()))
        assert factor.__wrapped__(f) == want


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def test_classify_examples():
    assert classify(Poly.linear(F4, 1)) is PolyClass.SCIM
    assert classify(Poly.linear(F9, elem_of_order(F9, 8))) is PolyClass.PAIR_MEMBER
    assert classify(Poly.t(F9)) is PolyClass.LINEAR_T
    assert classify(Poly(F4, (1, 0, 0, 1))) is PolyClass.REDUCIBLE


@pytest.mark.parametrize("desc", [F4, F9], ids=["GF4", "GF9"])
def test_scim_polynomials_have_odd_degree(desc):
    for d in (1, 2, 3, 4):
        scims = [
            f for f in irreducible_polys(desc, d)
            if f.codes[0] != 0 and tilde(f) == f
        ]
        if d % 2 == 0:
            assert not scims
        else:
            assert len(scims) > 0


def test_compose_power():
    assert compose_power(Poly(F4, (1, 1)), 3) == Poly(F4, (1, 0, 0, 1))
    for c in range(1, 4):
        assert compose_power(Poly(F4, (c, 1)), 2) == Poly(F4, (c, 0, 1))
    for d in (1, 2):
        for f in itertools.islice(monic_polys(F9, d), 10):
            for M in (2, 3, 5):
                assert compose_power(f, M).degree == M * f.degree


# ----------------------------------------------------------------------
# power classifications
# ----------------------------------------------------------------------

def test_mtilde_power_examples_q2():
    one_lin = Poly.linear(F4, 1)
    assert is_mtilde_power(one_lin, 2)  # t^2 - 1 = (t - 1)^2
    # the two non-identity norm-one linears
    others = [Poly.linear(F4, a) for a in range(2, F4.order)]
    assert all(classify(f) is PolyClass.SCIM for f in others)
    assert [is_mtilde_power(f, 3) for f in others] == [False, False]
    scim_cubics = [f for f in irreducible_polys(F4, 3) if classify(f) is PolyClass.SCIM]
    assert len(scim_cubics) == 2
    assert not any(is_mtilde_power(f, 3) for f in scim_cubics)


def test_mtilde_power_rejects_non_scim():
    with pytest.raises(ValueError):
        is_mtilde_power(Poly.linear(F9, elem_of_order(F9, 8)), 2)


def test_m_power_pair_examples_q3():
    f = Poly.linear(F9, elem_of_order(F9, 8))
    assert is_m_power_pair(f, 5)
    assert not is_m_power_pair(f, 2)
    with pytest.raises(ValueError):
        is_m_power_pair(Poly.linear(F9, 1), 2)


@pytest.mark.parametrize("desc", [F4, F9], ids=["GF4", "GF9"])
def test_m_power_pair_is_constant_on_pairs(desc):
    for d in (1, 2):
        for f in irreducible_polys(desc, d):
            if f.codes[0] == 0 or classify(f) is not PolyClass.PAIR_MEMBER:
                continue
            for M in (2, 3, 5):
                assert is_m_power_pair(f, M) == is_m_power_pair(tilde(f), M)


# the pow_mod power tests against factor-based references: every SCIM and pair
# member of the listed degrees, M = 1..8 (so p | M included); 24,912 pairs
POWER_GRID = [((2, 1), 6), ((3, 1), 3), ((2, 2), 3), ((5, 1), 2), ((7, 1), 1)]


@pytest.mark.parametrize("pl,d_max", POWER_GRID, ids=[f"q{p**l}-d{d}" for (p, l), d in POWER_GRID])
def test_power_tests_match_factor_references(pl, d_max):
    desc = make_field(*pl, 1)
    mismatches = []
    for d in range(1, d_max + 1):
        for f in irreducible_polys(desc, d):
            kind = classify(f)
            if kind is PolyClass.LINEAR_T:
                continue
            for M in range(1, 9):
                fs = factor(compose_power(f, M))
                if kind is PolyClass.SCIM:
                    ref = any(g.degree == d and tilde(g) == g for g, _ in fs)
                    got = is_mtilde_power(f, M)
                else:
                    ref = any(g.degree == d for g, _ in fs)
                    got = is_m_power_pair(f, M)
                if got != ref:
                    mismatches.append((str(f), M))
    assert not mismatches, f"{len(mismatches)} mismatches, first {mismatches[:3]}"


HUGE_M = (10**18 + 3, 10**30 + 57)


@pytest.mark.parametrize("desc,d_max", [(F4, 3), (F9, 2)], ids=["GF4", "GF9"])
def test_power_tests_depend_on_M_only_through_its_gcd_with_E(desc, d_max):
    # the roots lie in a cyclic group of order E, whose M-th powers are its
    # (E, M)-th powers; a huge M costs no more than a small one
    q, Q = desc.q, desc.order
    huge_times = []
    for d in range(1, d_max + 1):
        for f in irreducible_polys(desc, d):
            kind = classify(f)
            if kind is PolyClass.LINEAR_T:
                continue
            if kind is PolyClass.SCIM:
                test, E = is_mtilde_power, q**d + 1
            else:
                test, E = is_m_power_pair, Q**d - 1
            for M in (*range(1, 13), *HUGE_M, E, desc.p**5 * E):
                start = time.perf_counter()
                got = test(f, M)
                if M in HUGE_M:
                    huge_times.append(time.perf_counter() - start)
                assert got == test(f, gcd(M, E)), (str(f), M)
    assert max(huge_times) < 0.5, f"a huge M took {max(huge_times):.3f} s"


@pytest.mark.parametrize("desc,d_max", [(F4, 4), (F9, 3)], ids=["GF4", "GF9"])
def test_power_tests_equal_an_uncached_pow_mod_on_a_miss_and_a_hit(desc, d_max):
    # the power tests cache x^k = 1 mod f by (f, k), k = E / (E, M); each
    # M is asked twice, and the second answer comes from the cache
    cached = polyalg._x_power_is_one
    cached.cache_clear()
    x, one = Poly.t(desc), Poly.one(desc)
    for d in range(1, d_max + 1):
        for f in irreducible_polys(desc, d):
            kind = classify(f)
            if kind is PolyClass.LINEAR_T:
                continue
            if kind is PolyClass.SCIM:
                test, E = is_mtilde_power, desc.q**d + 1
            else:
                test, E = is_m_power_pair, desc.order**d - 1
            for M in range(1, 13):
                want = polyalg.pow_mod(x, E // gcd(E, M), f) == one
                assert test(f, M) == want, (str(f), M)
                hits = cached.cache_info().hits
                assert test(f, M) == want, (str(f), M)
                assert cached.cache_info().hits == hits + 1


# ----------------------------------------------------------------------
# root orders and factor-degree patterns
# ----------------------------------------------------------------------

def test_root_order_examples():
    assert root_order(Poly.linear(F4, 1)) == 1
    assert root_order(Poly.linear(F4, elem_of_order(F4, 3))) == 3
    assert root_order(Poly.linear(F9, elem_of_order(F9, 8))) == 8
    assert {root_order(f) for f in irreducible_polys(F4, 2)} == {5, 15}


def test_butler_pattern_examples():
    assert butler_pattern(1, 1, 3, 4) == ((1, 1), (1, 2))
    assert butler_pattern(1, 3, 3, 4) == ((3, 1),)
    assert butler_pattern(1, 1, 1, 4) == ((1, 1),)
    with pytest.raises(ValueError):
        butler_pattern(1, 1, 2, 4)  # gcd(m, Q) != 1


@pytest.mark.parametrize("desc,Q", [(F4, 4), (F9, 9)], ids=["GF4", "GF9"])
def test_butler_pattern_matches_actual_factorisations(desc, Q):
    for d in (1, 2):
        for f in irreducible_polys(desc, d):
            if f.codes[0] == 0:
                continue
            t = root_order(f)
            for m in (2, 3, 5, 6):
                if gcd(m, Q) != 1:
                    continue
                predicted: dict[int, int] = {}
                for deg, count in butler_pattern(d, t, m, Q):
                    predicted[deg] = predicted.get(deg, 0) + count
                actual: dict[int, int] = {}
                for g, e in factor(compose_power(f, m)):
                    actual[g.degree] = actual.get(g.degree, 0) + e
                assert predicted == actual, (str(f), m)


@pytest.mark.parametrize("M", [3, 5])
def test_prime_power_composition_dichotomy_over_f4(M):
    # for prime M coprime to q, f(x^M) either keeps a degree-d factor or is
    # irreducible
    for d in (1, 2, 3):
        for f in irreducible_polys(F4, d):
            h = compose_power(f, M)
            fs = factor(h)
            has_same_degree = any(g.degree == d for g, _ in fs)
            assert has_same_degree or (len(fs) == 1 and fs[0] == (h, 1)), str(f)
