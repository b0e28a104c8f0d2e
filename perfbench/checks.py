"""Checks of a round's outputs, run after the round has been measured.

Every check compares with `reference` (computed apart from the package) or
with a property the method must have; none compares with stored output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

import reference as ref
from workloads import ENUM_M, KINDS, SERIES_T, families


def check_round(workload: str, case_list, results) -> dict:
    """Check every (outcome, output) of a round in place: a wrong output
    marks its outcome failed and wrong.  Returns extra facts for the
    round's record."""
    if workload == "oracle":
        check, checker = check_oracle, None
    elif workload == "series":
        checker = SeriesChecker()
        check = checker.check
    else:
        from unitary_powers import polyalg

        check, checker = (lambda args, tally: check_enumerate(args, tally, polyalg)), None
    for case, (outcome, output) in zip(case_list, results):
        if output is None:
            continue
        errors = checked(check, case.args, output)
        if errors:
            outcome.failure, outcome.wrong = "; ".join(errors[:5]), True
    if checker is None:
        return {}
    by_args = {case.args: outcome for case, (outcome, _) in zip(case_list, results)}
    for (q, M, kind), errors in checker.cross_check().items():
        outcome = by_args[("series", q, M, "sep", kind, SERIES_T[q])]
        if outcome.failure is None:
            outcome.failure, outcome.wrong = "; ".join(errors), True
    return {"bijective_cells": checker.bijective_cells}


def checked(check, args, output) -> list[str]:
    """Errors of `check(args, output)`; output that cannot be parsed or
    lacks the expected fields, or a package call of the check that raises,
    is itself a wrong output."""
    try:
        return check(args, output)
    except Exception as exc:
        return [f"check raised {exc!r}"]


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------

def check_oracle(args: tuple, output: tuple) -> list[str]:
    cmd, q, M, n_max = args
    rc, stdout = output
    rows = json.loads(stdout)["rows"]
    errors = []
    if cmd == "verify":
        want = {(n, f, k) for n in range(1, n_max + 1) for f in families(q, M) for k in KINDS}
        got = {(r["n"], r["family"], r["kind"]) for r in rows}
        if got != want or len(rows) != len(want):
            errors.append(f"verify rows cover {sorted(got)}, expected {sorted(want)}")
        for r in rows:
            tag = f"n={r['n']} {r['family']} {r['kind']}"
            if r["status"] != "PASS":
                errors.append(f"{tag}: {r['status']} (series {r['expected']}, oracle {r['actual']})")
            order = ref.group_order(r["n"], q)
            for key in ("expected", "actual"):
                v = Fraction(r[key])
                count = v * order if r["kind"] == "elements" else v
                if count.denominator != 1 or not 0 <= count <= order:
                    errors.append(f"{tag}: {key} {v} is not a count of elements of |GU|={order}")
                if r["kind"] == "classes" and v > ref.wall_class_number(r["n"], q):
                    errors.append(f"{tag}: {v} classes exceed Wall's number")
        if rc == 2 and not errors:  # exit 2 means a row is FAIL
            errors.append("exit 2 although every row is PASS")
    else:
        for n in range(1, n_max + 1):
            sizes = [r["size"] for r in rows if r["n"] == n]
            order = ref.group_order(n, q)
            if sum(sizes) != order:
                errors.append(f"U({n},{q}): class sizes sum to {sum(sizes)}, not {order}")
            if len(sizes) != ref.wall_class_number(n, q):
                errors.append(f"U({n},{q}): {len(sizes)} classes, Wall's number is "
                              f"{ref.wall_class_number(n, q)}")
            if any(order % s for s in sizes):
                errors.append(f"U({n},{q}): a class size does not divide {order}")
        if {r["n"] for r in rows} != set(range(1, n_max + 1)):
            errors.append("table rows do not cover n = 1..n_max")
    return errors


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------

class SeriesChecker:
    """Checks of single series against the reference, then across families."""

    def __init__(self):
        self._m1: dict = {}
        self.results: dict = {}  # (q, M, family, kind) -> coefficients
        self.bijective_cells = 0

    def _m1_series(self, q, T, fam, kind):
        key = (q, T, fam, kind)
        if key not in self._m1:
            build = ref.class_series_m1 if kind == "classes" else ref.elem_series_m1
            self._m1[key] = build(q, T, fam)
        return self._m1[key]

    def check(self, args: tuple, output: str) -> list[str]:
        rows = json.loads(output)["rows"]
        if args[0] == "counts":
            _, q, M, d_max = args
            want = [ref.count_row(q, d, M) for d in range(1, d_max + 1)]
            if len(rows) != len(want):
                return [f"{len(rows)} count rows, expected {len(want)}"]
            return [f"count row {got} differs from reference {row}"
                    for got, row in zip(rows, want) if got != row][:3]
        _, q, M, fam, kind, T = args
        errors = []
        if [r["n"] for r in rows] != list(range(T + 1)):
            return [f"rows are not n = 0..{T}"]
        coeffs = [Fraction(r["coefficient"]) for r in rows]
        self.results[(q, M, fam, kind)] = coeffs
        base = self._m1_series(q, T, fam, kind)
        for n, (c, r) in enumerate(zip(coeffs, rows)):
            order = ref.group_order(n, q)
            if float(r["decimal"]) != float(c):
                errors.append(f"n={n}: decimal {r['decimal']} is not {c}")
            if kind == "elements" and not (0 <= c <= 1 and (c * order).denominator == 1):
                errors.append(f"n={n}: proportion {c} is not a share of |GU|={order}")
            if kind == "classes" and c.denominator != 1:
                errors.append(f"n={n}: class count {c} is not an integer")
            if not 0 <= c <= base[n]:
                errors.append(f"n={n}: {c} exceeds the M=1 coefficient {base[n]}")
            if n and gcd(M, order) == 1:
                # g -> g^M is then a family-preserving bijection of GU(n, q)
                self.bijective_cells += 1
                if c != base[n]:
                    errors.append(f"n={n}: gcd(M,|GU|)=1 but {c} != M=1 coefficient {base[n]}")
        return errors

    def cross_check(self) -> dict[tuple, list[str]]:
        """separable <= cyclic and separable <= semisimple, coefficientwise;
        errors keyed by the separable series' (q, M, kind)."""
        errors: dict = {}
        for (q, M, fam, kind), sep in self.results.items():
            if fam != "sep":
                continue
            for other in ("cyc", "ss"):
                coeffs = self.results.get((q, M, other, kind))
                if coeffs is None:
                    continue
                bad = [n for n, (a, b) in enumerate(zip(sep, coeffs)) if a > b]
                if bad:
                    errors.setdefault((q, M, kind), []).append(
                        f"separable exceeds {other} at n={bad[:5]}")
        return errors


# ----------------------------------------------------------------------
# enumerate
# ----------------------------------------------------------------------

def check_enumerate(args: tuple, tally: dict, polyalg) -> list[str]:
    """Enumerated tallies and package counts, both against the reference;
    and the factor degrees of every tested f(x^M), from the package's
    `factor`, sum to M * d."""
    q, d, pairs = args
    want = {
        "irreducible": ref.necklace(q * q, d),
        "scim": ref.scim_count(q, d),
        **{f"mtilde M={M}": ref.mtilde_scim_count(q, d, M) for M in ENUM_M},
    }
    if pairs:
        want["pair"] = ref.pair_count(q, d)
        want.update({f"mpair M={M}": ref.mpower_pair_count(q, d, M) for M in ENUM_M})
    errors = []
    for key, expected in want.items():
        got = tally[key]
        values = got if isinstance(got, list) else [got]
        if any(v != expected for v in values):
            errors.append(f"{key}: enumerated/package {got}, reference {expected}")
    for polys in tally["tested"]:
        for f in polys:
            for M in ENUM_M:
                fM = polyalg.compose_power(f, M)
                degree = sum(g.degree * e for g, e in polyalg.factor(fM))
                if degree != M * d:
                    errors.append(f"{f} M={M}: factor degrees sum to {degree}")
    return errors
