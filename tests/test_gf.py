"""Field tower: construction, conjugation, norm-one circles, power maps."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unitary_powers
from unitary_powers import EnumerationBoundError, gf
from unitary_powers.gf import (
    FieldDesc,
    FieldInvariantError,
    PrimePower,
    conj,
    embed,
    is_norm_one,
    make_field,
    power_map,
)

F4 = make_field(2, 1, 1)
F9 = make_field(3, 1, 1)
F16_Q4 = make_field(2, 2, 1)   # q = 4, k = 1
F16_D2 = make_field(2, 1, 2)   # q = 2, k = 2
F25 = make_field(5, 1, 1)
F64 = make_field(2, 1, 3)

SMALL_FIELDS = [F4, F9, F16_Q4, F16_D2, F25, F64]


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
        make_field(2, 1, 12)  # 2^24 elements


def test_subfield_embedding_f4_into_f64():
    images = [embed(a, F64) for a in F4.elements()]
    assert len({b.code for b in images}) == 4
    for b in images:
        assert b**4 == b  # lands in the 4-element subfield
    for a, b in itertools.product(F4.elements(), repeat=2):
        assert embed(a + b, F64) == embed(a, F64) + embed(b, F64)
        assert embed(a * b, F64) == embed(a, F64) * embed(b, F64)


def test_conj_fixes_zero_and_one():
    for desc in SMALL_FIELDS:
        assert conj(desc.zero) == desc.zero
        assert conj(desc.one) == desc.one


def test_conj_on_f9_generator():
    gens = [a for a in F9.elements() if a.code and mul_order(a) == 8]
    assert len(gens) == 4
    for g in gens:
        assert conj(g) == g**3
        assert conj(conj(g)) == g


@pytest.mark.parametrize("desc", SMALL_FIELDS, ids=lambda d: f"GF{d.order}")
def test_frobenius_is_a_field_automorphism(desc):
    elems = list(desc.elements())
    for a in elems:
        for b in elems:
            assert conj(a * b) == conj(a) * conj(b)
            assert conj(a + b) == conj(a) + conj(b)


@pytest.mark.parametrize("desc", [F4, F9, F16_Q4], ids=lambda d: f"GF{d.order}")
def test_conj_fixed_set_is_the_q_subfield(desc):
    fixed = [a for a in desc.elements() if conj(a) == a]
    assert len(fixed) == desc.q
    codes = {a.code for a in fixed}
    for a in fixed:
        for b in fixed:
            assert (a + b).code in codes
            assert (a * b).code in codes


@pytest.mark.parametrize("q,p,l", [(2, 2, 1), (3, 3, 1)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_norm_one_circle_size(q, p, l, d):
    desc = make_field(p, l, d)
    count = sum(is_norm_one(a, d) for a in desc.elements())
    assert count == q**d + 1


def test_norm_one_conventions():
    assert is_norm_one(F4.one, 1)
    assert not is_norm_one(F4.zero, 1)
    assert sum(is_norm_one(a, 1) for a in F4.elements()) == 3
    assert sum(is_norm_one(a, 1) for a in F9.elements()) == 4


def test_norm_one_requires_subfield_membership():
    deg6 = next(a for a in F64.elements() if a.code > 1 and mul_order(a) == 63)
    with pytest.raises(ValueError):
        is_norm_one(deg6, 1)
    # d must cut out a subfield of the ambient tower level
    with pytest.raises(ValueError):
        is_norm_one(F64.one, 2)


def test_power_map_identity_exponent():
    for a in F9.elements():
        assert power_map(a, 1) == a
    with pytest.raises(ValueError):
        power_map(F9.one, 0)


def test_power_map_on_the_norm_one_circle_of_f4():
    mu3 = [a for a in F4.elements() if is_norm_one(a, 1)]
    assert {power_map(a, 3).code for a in mu3} == {1}
    assert {power_map(a, 2).code for a in mu3} == {a.code for a in mu3}


@pytest.mark.parametrize("desc", [F4, F9, F16_D2], ids=lambda d: f"GF{d.order}")
def test_power_map_composes(desc):
    for a in desc.elements():
        for M in (2, 3, 5):
            for N in (2, 3, 5):
                assert power_map(power_map(a, M), N) == power_map(a, M * N)


def fresh_f4():
    # a new descriptor of F_4, outside the make_field cache, tables not built
    return FieldDesc(PrimePower(2, 1), 1)


def test_field_without_a_primitive_element_raises(monkeypatch):
    desc = fresh_f4()
    # with every prime factor of |F_4^*| = 3 replaced by 1, every candidate
    # looks like a non-generator
    monkeypatch.setattr(gf, "prime_factors", lambda n: [1])
    with pytest.raises(FieldInvariantError, match="no primitive element"):
        desc._ensure_tables()


def test_power_walk_that_does_not_close_raises():
    desc = fresh_f4()
    # t^2 + 1 = (t + 1)^2 over F_2: the residue of t passes the generator
    # test but has order 2 in the quotient ring, so t^3 = t, not 1
    desc.modulus = (1, 0, 1)
    with pytest.raises(FieldInvariantError, match="do not return to 1"):
        desc._ensure_tables()


def test_field_invariant_checks_survive_python_O():
    code = (
        "import sys\n"
        "from unitary_powers import FieldInvariantError, gf\n"
        "from unitary_powers.gf import FieldDesc, PrimePower\n"
        "caught = 0\n"
        "desc = FieldDesc(PrimePower(2, 1), 1)\n"
        "desc.modulus = (1, 0, 1)\n"
        "try:\n"
        "    desc._ensure_tables()\n"
        "except FieldInvariantError:\n"
        "    caught += 1\n"
        "desc = FieldDesc(PrimePower(2, 1), 1)\n"
        "gf.prime_factors = lambda n: [1]\n"
        "try:\n"
        "    desc._ensure_tables()\n"
        "except FieldInvariantError:\n"
        "    caught += 1\n"
        "sys.exit(0 if caught == 2 and sys.flags.optimize else 1)\n"
    )
    src = str(Path(unitary_powers.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
