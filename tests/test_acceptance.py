"""Acceptance suite: every release criterion, one printed line per criterion.

All comparisons are exact (integers or `Fraction`); there are no numeric
tolerances anywhere.  Run with `pytest -s tests/test_acceptance.py` to see
the PASS lines.
"""

from fractions import Fraction
from math import gcd

from unitary_powers import (
    centralizer_order,
    check_block_power,
    count_mtilde_scim,
    count_scim,
    cyc_class_series,
    cyc_elem_series,
    group_table,
    power_image_counts,
    sep_class_series,
    sep_elem_series,
    group_order_U,
    ss_class_series,
    ss_elem_series,
)
from unitary_powers.gf import make_field
from unitary_powers.polyalg import (
    PolyClass,
    butler_pattern,
    classify,
    compose_power,
    factor,
    irreducible_polys,
    is_mtilde_power,
    root_order,
)
from unitary_powers._numth import is_prime

F4 = make_field(2, 1, 1)
F9 = make_field(3, 1, 1)
DESCS = {2: F4, 3: F9}

ORACLE_PAIRS = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (2, 4), (2, 5)]
FAMILY_TAG = {"sep": "separable", "cyc": "cyclic", "ss": "semisimple"}


def report(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def oracle_counts(n, q, M):
    G = group_table(n, q)
    return power_image_counts(G, M), group_order_U(n, q)


def test_criterion_1_mtilde_count_formula_vs_enumeration():
    checked = 0
    for q in (2, 3):
        d = 1
        while q ** (2 * d) <= 4096:
            scims = [
                f for f in irreducible_polys(DESCS[q], d)
                if classify(f) is PolyClass.SCIM
            ]
            assert count_scim(q, d) == len(scims), (q, d)
            for M in (2, 3, 4, 5, 6):
                brute = sum(is_mtilde_power(f, M) for f in scims)
                assert count_mtilde_scim(q, d, M) == brute, (q, d, M)
                checked += 1
            d += 1
    report("1 closed form vs enumeration", f"{checked} (q,d,M) cells")


def test_criterion_2_group_orders():
    sizes = {}
    for n, q in ORACLE_PAIRS:
        G = group_table(n, q)
        assert len(G) == group_order_U(n, q)
        sizes[(n, q)] = len(G)
    assert [sizes[p] for p in ORACLE_PAIRS] == [3, 18, 648, 4, 96, 300, 720]
    report("2 group orders", "3, 18, 648, 4, 96, 300, 720")


def test_criterion_3_separable_series_vs_oracle():
    cells = 0
    for n, q in ORACLE_PAIRS:
        for M in (2, 3, 5):
            pic, order = oracle_counts(n, q, M)
            assert sep_class_series(q, M, n).coeff(n) == pic.classes["separable"]
            assert sep_elem_series(q, M, n).coeff(n) == Fraction(
                pic.elements["separable"], order
            )
            cells += 1
    report("3 separable series vs oracle", f"{cells} (n,q,M) cells")


def test_criterion_4_cyclic_series_vs_oracle():
    cells = 0
    for n, q in ORACLE_PAIRS:
        for M in (2, 3, 5):
            if gcd(M, q) != 1:
                continue
            pic, order = oracle_counts(n, q, M)
            assert cyc_class_series(q, M, n).coeff(n) == pic.classes["cyclic"]
            assert cyc_elem_series(q, M, n).coeff(n) == Fraction(
                pic.elements["cyclic"], order
            )
            cells += 1
    report("4 cyclic series vs oracle", f"{cells} (n,q,M) cells")


def test_criterion_5_semisimple_series_vs_oracle():
    cells = 0
    for n, q in ORACLE_PAIRS:
        for M in (2, 3, 5):
            if not (is_prime(M) and gcd(M, q) == 1):
                continue
            pic, order = oracle_counts(n, q, M)
            assert ss_class_series(q, M, n).coeff(n) == pic.classes["semisimple"]
            assert ss_elem_series(q, M, n).coeff(n) == Fraction(
                pic.elements["semisimple"], order
            )
            cells += 1
    report("5 semisimple series vs oracle", f"{cells} (n,q,M) cells")


def test_criterion_6_factor_pattern_and_dichotomy():
    pattern_cells = 0
    for q, Q in ((2, 4), (3, 9)):
        for d in (1, 2):
            for f in irreducible_polys(DESCS[q], d):
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
                    assert predicted == actual, (q, str(f), m)
                    pattern_cells += 1
    dichotomy_cells = 0
    for d in (1, 2, 3):
        for f in irreducible_polys(F4, d):
            for M in (3, 5):
                h = compose_power(f, M)
                fs = factor(h)
                assert any(g.degree == d for g, _ in fs) or fs == ((h, 1),), (str(f), M)
                dichotomy_cells += 1
    report(
        "6 factor patterns + prime dichotomy",
        f"{pattern_cells} pattern cells, {dichotomy_cells} dichotomy cells",
    )


def test_criterion_7_centralizer_identities():
    checked = 0
    for n, q in ORACLE_PAIRS:
        G = group_table(n, q)
        order = group_order_U(n, q)
        for c in G.classes:
            if c.kind.separable or c.kind.cyclic or c.kind.semisimple:
                assert c.size * centralizer_order(c.datum, q) == order, (n, q)
                checked += 1
    report("7 centralizer identities", f"{checked} classes")


def test_criterion_8_unrestricted_class_totals():
    for n in (1, 2, 3):
        pic, _ = oracle_counts(n, 2, 1)
        assert sep_class_series(2, 1, n).coeff(n) == pic.classes["separable"]
        assert cyc_class_series(2, 1, n).coeff(n) == pic.classes["cyclic"]
        assert ss_class_series(2, 1, n).coeff(n) == pic.classes["semisimple"]
    report("8 unrestricted totals", "q=2, n <= 3, all three families")


def test_criterion_9_block_power_conjugacy():
    checked = 0
    for q in (2, 3):
        for d in (1, 2):
            for f in irreducible_polys(DESCS[q], d):
                if f.codes[0] == 0:
                    continue
                for M in (3, 5):
                    if gcd(M, q) != 1:
                        continue
                    for m in (1, 2):
                        assert check_block_power(f, m, M), (q, str(f), m, M)
                        checked += 1
    report("9 block power conjugacy", f"{checked} (f,m,M) cells")


def test_criterion_10_u33_classes_centralizers_and_squares():
    G = group_table(3, 3)
    order = group_order_U(3, 3)
    assert len(G.classes) == 56
    assert sum(c.size for c in G.classes) == order == 24192
    checked = 0
    for c in G.classes:
        if c.kind.separable or c.kind.cyclic or c.kind.semisimple:
            assert c.size * centralizer_order(c.datum, 3) == order, str(c.datum)
            checked += 1
    pic = power_image_counts(G, 2)
    for tag, class_series, elem_series in (
        ("separable", sep_class_series, sep_elem_series),
        ("cyclic", cyc_class_series, cyc_elem_series),
        ("semisimple", ss_class_series, ss_elem_series),
    ):
        assert class_series(3, 2, 3).coeff(3) == pic.classes[tag], tag
        assert elem_series(3, 2, 3).coeff(3) == Fraction(pic.elements[tag], order), tag
    report("10 U(3,3)", f"56 classes, {checked} centralizer identities, M = 2 series")


def test_criterion_11_u42_series_vs_oracle():
    cells = 0
    for M in (3, 5):
        pic, order = oracle_counts(4, 2, M)
        assert order == 77760 and sum(pic.in_image) == pic.classes["all"]
        for tag, class_series, elem_series in (
            ("separable", sep_class_series, sep_elem_series),
            ("cyclic", cyc_class_series, cyc_elem_series),
            ("semisimple", ss_class_series, ss_elem_series),
        ):
            assert class_series(2, M, 4).coeff(4) == pic.classes[tag], (tag, M)
            assert elem_series(2, M, 4).coeff(4) == Fraction(pic.elements[tag], order), (tag, M)
            cells += 1
    assert len(group_table(4, 2).classes) == 60
    report("11 U(4,2)", f"77760 elements, 60 classes, {cells} (family, M) cells, both kinds")
