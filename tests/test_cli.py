"""Command-line interface: formats, exit codes, determinism."""

import csv
import json
from collections import Counter
from fractions import Fraction

import pytest

from unitary_powers import counts, gf, oracle, polyalg
from unitary_powers.cli import main


def run(tmp_path, args, name="out.txt"):
    path = tmp_path / name
    rc = main(args + ["--out", str(path)])
    return rc, path.read_text(encoding="utf-8")


def parse_csv(text):
    rows = list(csv.DictReader(text.splitlines()))
    return rows


def test_counts_rows_q2_m3(tmp_path):
    rc, text = run(tmp_path, ["counts", "--q", "2", "--M", "3", "--d-max", "3"])
    assert rc == 0
    rows = parse_csv(text)
    assert text.splitlines()[0] == (
        "q,d,M,N_tilde,N_tilde_M,R_tilde,R_tilde_M,S_tilde_prime,S_prime"
    )
    d1 = rows[0]
    assert [d1[k] for k in ("N_tilde", "N_tilde_M", "R_tilde", "R_tilde_M",
                            "S_tilde_prime", "S_prime")] == ["3", "1", "0", "0", "2", "0"]
    d3 = rows[2]
    assert (d3["d"], d3["N_tilde"], d3["N_tilde_M"]) == ("3", "2", "0")


def test_counts_row_q3_m5(tmp_path):
    rc, text = run(tmp_path, ["counts", "--q", "3", "--M", "5", "--d-max", "1"])
    assert rc == 0
    (row,) = parse_csv(text)
    assert [row[k] for k in ("N_tilde", "N_tilde_M", "R_tilde", "R_tilde_M",
                             "S_tilde_prime", "S_prime")] == ["4", "4", "2", "2", "0", "0"]


def test_counts_empty_range_gives_header_only(tmp_path):
    rc, text = run(tmp_path, ["counts", "--q", "2", "--M", "3", "--d-max", "0"])
    assert rc == 0
    assert text.splitlines() == [
        "q,d,M,N_tilde,N_tilde_M,R_tilde,R_tilde_M,S_tilde_prime,S_prime"
    ]


def test_series_rows(tmp_path):
    rc, text = run(tmp_path, ["series", "--q", "2", "--M", "3", "--T", "3",
                              "--family", "sep", "--kind", "elements"])
    assert rc == 0
    rows = parse_csv(text)
    assert rows[0]["coefficient"] == "1"
    assert rows[1]["coefficient"] == "1/3"
    rc, text = run(tmp_path, ["series", "--q", "2", "--M", "2", "--T", "2",
                              "--family", "sep", "--kind", "classes"])
    rows = parse_csv(text)
    assert rows[1]["coefficient"] == "3"


def test_series_decimal_column_rerenders_from_the_rational(tmp_path):
    rc, text = run(tmp_path, ["series", "--q", "3", "--M", "2", "--T", "6",
                              "--family", "cyc", "--kind", "elements"])
    assert rc == 0
    for row in parse_csv(text):
        assert row["decimal"] == repr(float(Fraction(row["coefficient"])))


def test_output_is_deterministic(tmp_path):
    args = ["series", "--q", "2", "--M", "3", "--T", "8",
            "--family", "ss", "--kind", "elements"]
    _, first = run(tmp_path, args, "a.txt")
    _, second = run(tmp_path, args, "b.txt")
    assert first == second


def test_json_schema(tmp_path):
    rc, text = run(tmp_path, ["series", "--q", "2", "--M", "3", "--T", "2",
                              "--family", "sep", "--kind", "classes",
                              "--format", "json"], "out.json")
    assert rc == 0
    payload = json.loads(text)
    assert set(payload) == {"meta", "rows"}
    meta = payload["meta"]
    for key in ("q", "M", "T", "family", "kind", "version"):
        assert key in meta
    assert meta["family"] == "sep" and meta["kind"] == "classes"
    assert payload["rows"][0]["coefficient"] == "1"


def test_meta_reports_T_only_for_series(tmp_path):
    # counts, verify and table take no --T, so their meta has T = null
    rc, text = run(tmp_path, ["counts", "--q", "2", "--M", "3", "--format", "json"])
    assert rc == 0
    assert json.loads(text)["meta"]["T"] is None
    rc, text = run(tmp_path, ["series", "--q", "2", "--M", "3", "--family", "sep",
                              "--kind", "classes", "--format", "json"], "series.json")
    assert rc == 0
    payload = json.loads(text)
    assert payload["meta"]["T"] == 12
    assert len(payload["rows"]) == 13


def test_verify_passes_on_small_groups(tmp_path):
    rc, text = run(tmp_path, ["verify", "--q", "2", "--M", "2", "--n-max", "2"])
    assert rc == 0
    rows = parse_csv(text)
    assert rows and all(row["status"] == "PASS" for row in rows)
    # gcd(2, 2) != 1: only the separable family is applicable by default
    assert {row["family"] for row in rows} == {"sep"}


def test_verify_passes_on_a_large_field(tmp_path):
    # F_{257^2} has 66049 elements; U(1, 257) is its norm-one circle
    rc, text = run(tmp_path, ["verify", "--q", "257", "--M", "2", "--n-max", "1"])
    assert rc == 0
    rows = parse_csv(text)
    assert rows and all(row["status"] == "PASS" for row in rows)


def test_verify_semisimple_n1(tmp_path):
    rc, text = run(tmp_path, ["verify", "--q", "2", "--M", "3", "--n-max", "1",
                              "--family", "ss"])
    assert rc == 0
    rows = parse_csv(text)
    elem = next(r for r in rows if r["kind"] == "elements")
    assert elem["expected"] == elem["actual"] == "1/3"


def test_verify_rejects_invalid_hypotheses(tmp_path):
    rc = main(["verify", "--q", "2", "--M", "2", "--family", "ss",
               "--out", str(tmp_path / "x.txt")])
    assert rc == 1


def test_usage_errors_exit_one(tmp_path):
    assert main(["counts", "--q", "2", "--M", "1"]) == 1
    assert main(["series", "--q", "2", "--M", "3", "--family", "nope",
                 "--kind", "classes"]) == 1
    assert main(["bogus"]) == 1


def test_oracle_bound_exceeded_exits_three(tmp_path):
    rc = main(["verify", "--q", "3", "--M", "2", "--n-max", "4",
               "--out", str(tmp_path / "x.txt")])
    assert rc == 3


def test_pair_enumeration_bound_exceeded_exits_three(tmp_path):
    rc = main(["counts", "--q", "3", "--M", "2", "--d-max", "7",
               "--out", str(tmp_path / "x.txt")])
    assert rc == 3


def test_series_pair_field_bound_exits_three(tmp_path):
    args = ["series", "--q", "2", "--M", "3", "--family", "sep", "--kind", "classes",
            "--out", str(tmp_path / "x.txt")]
    assert main(args + ["--T", "21"]) == 0
    assert main(args + ["--T", "22"]) == 3


def test_table_command(tmp_path):
    rc, text = run(tmp_path, ["table", "--q", "2", "--n-max", "2", "--M", "2"])
    assert rc == 0
    rows = parse_csv(text)
    assert len(rows) == 3 + 9  # classes of U(1,2) and U(2,2)
    assert {row["n"] for row in rows} == {"1", "2"}
    sizes = [int(row["size"]) for row in rows if row["n"] == "2"]
    assert sum(sizes) == 18
    _, again = run(tmp_path, ["table", "--q", "2", "--n-max", "2", "--M", "2"], "c.txt")
    assert text == again
    rc, text = run(tmp_path, ["table", "--q", "2", "--n-max", "2"], "d.txt")
    assert rc == 0 and {row["is_m_power"] for row in parse_csv(text)} == {""}


@pytest.mark.parametrize("M", ["0", "-3"])
def test_table_refuses_M_below_one_before_building(monkeypatch, M):
    def no_group(n, q):
        raise AssertionError("no group may be built for a refused M")

    monkeypatch.setattr(oracle, "group_table", no_group)
    assert main(["table", "--q", "2", "--n-max", "2", "--M", M]) == 1


def test_repeated_family_counts_once_in_the_given_order(tmp_path):
    args = ["verify", "--q", "2", "--M", "3", "--n-max", "2"]
    rc, text = run(tmp_path, args + ["--family", "ss", "--family", "sep", "--family", "ss"])
    assert rc == 0
    _, expected = run(tmp_path, args + ["--family", "ss", "--family", "sep"], "b.txt")
    assert text == expected
    assert [row["family"] for row in parse_csv(text)] == ["ss", "ss", "sep", "sep"] * 2


@pytest.mark.parametrize("q,M,n_max", [(2, 3, 2), (3, 2, 2)])
def test_table_marks_agree_with_verify_class_counts(tmp_path, q, M, n_max):
    common = ["--q", str(q), "--M", str(M), "--n-max", str(n_max)]
    rc, text = run(tmp_path, ["table", *common])
    assert rc == 0
    marked = Counter()
    for row in parse_csv(text):
        if row["is_m_power"] == "True":
            for family, column in (("sep", "separable"), ("cyc", "cyclic"), ("ss", "semisimple")):
                if row[column] == "True":
                    marked[(row["n"], family)] += 1
    rc, text = run(tmp_path, ["verify", *common, "--kind", "classes"], "v.txt")
    assert rc == 0
    rows = parse_csv(text)
    assert rows
    for row in rows:
        assert int(row["actual"]) == marked[(row["n"], row["family"])]


def _cube_moved_outside_the_image(monkeypatch, onto_rep):
    """Patch the power map so that the last element of U(2,2) cubes onto a
    class outside the cube image: onto its representative, or onto another
    of its members.  Either way one class is hit by part of its members."""
    G = oracle.group_table(2, 2)
    real = oracle.MatrixRep.__pow__
    cubes = {real(A, 3).codes for A in G.elements}
    c = next(c for c in G.classes if c.size > 1 and c.rep.codes not in cubes)
    target = c.rep.codes if onto_rep else min(c.member_codes - {c.rep.codes})
    last = G.elements[-1]

    def power(A, e):
        if e == 3 and A == last:
            return oracle.MatrixRep(A.desc, A.n, target)
        return real(A, e)

    monkeypatch.setattr(oracle.MatrixRep, "__pow__", power)


@pytest.mark.parametrize("onto_rep", [True, False], ids=["rep", "member"])
@pytest.mark.parametrize("command", [
    ["verify", "--q", "2", "--M", "3", "--n-max", "2"],
    ["table", "--q", "2", "--n-max", "2", "--M", "3"],
], ids=["verify", "table"])
def test_power_map_that_splits_a_class_exits_four(monkeypatch, tmp_path, command, onto_rep):
    _cube_moved_outside_the_image(monkeypatch, onto_rep)
    assert main(command + ["--out", str(tmp_path / "x.txt")]) == 4


# Internal invariant failures exit 4, one injected failure per layer.  The
# oracle tests build their group afresh instead of taking the cached one.

def test_count_invariant_failure_exits_four(monkeypatch, tmp_path):
    real = counts.count_pairs
    monkeypatch.setattr(counts, "count_mpower_pairs",
                        lambda q, d, M, **kw: real(q, d) + 1)
    rc = main(["counts", "--q", "3", "--M", "2", "--d-max", "1",
               "--out", str(tmp_path / "x.txt")])
    assert rc == 4


def test_oracle_invariant_failure_exits_four(monkeypatch, tmp_path):
    real = oracle._wall_class_number
    monkeypatch.setattr(oracle, "group_table", oracle.build_group)
    monkeypatch.setattr(oracle, "_wall_class_number", lambda n, q: real(n, q) + 1)
    rc = main(["table", "--q", "2", "--n-max", "1", "--out", str(tmp_path / "x.txt")])
    assert rc == 4


def test_factorisation_failure_exits_four(monkeypatch, tmp_path):
    # an equal-degree step that loses every factor fails the multiply-back check
    monkeypatch.setattr(oracle, "group_table", oracle.build_group)
    monkeypatch.setattr(polyalg, "factor", polyalg.factor.__wrapped__)
    monkeypatch.setattr(polyalg, "_equal_degree", lambda h, e: [])
    rc = main(["table", "--q", "2", "--n-max", "1", "--out", str(tmp_path / "x.txt")])
    assert rc == 4


def test_field_invariant_failure_exits_four(monkeypatch, tmp_path):
    # F_4 modulo (t + 1)^2, which is not a field, built outside the cache
    monkeypatch.setattr(oracle, "group_table", oracle.build_group)
    monkeypatch.setattr(gf, "_field", gf._field.__wrapped__)
    monkeypatch.setattr(gf, "_least_irreducible", lambda p, degree: (1, 0, 1))
    rc = main(["table", "--q", "2", "--n-max", "1", "--out", str(tmp_path / "x.txt")])
    assert rc == 4
