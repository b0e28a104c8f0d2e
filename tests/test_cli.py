"""Command-line interface: formats, exit codes, determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import unitary_powers
from unitary_powers import cli, counts, genfun, gf, oracle, polyalg, series
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


def test_counts_checks_q_before_any_row(capsys):
    assert main(["counts", "--q", "6", "--M", "2", "--d-max", "0"]) == 1
    assert capsys.readouterr() == ("", "error: 6 is not a prime power\n")


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


# sha256 of the stdout of `series --format csv` for every applicable family
# and kind at each q's largest accepted T; a changed digit or decimal fails it
SERIES_CSV_SHA256 = {
    (2, 5, "sep", "classes", 21): "d4ba400f6e405bcbd24e8bee7516741c6fba103fe4458d677f6c034652fd27d6",
    (2, 5, "sep", "elements", 21): "bdb3c4e1ee5eab618672c2ddc784aa43e2721dcc6271065ed15cf9182cdd3c36",
    (2, 5, "cyc", "classes", 21): "f6abfbfbe50c66f9c5275592bc8621397bde4d6cb1ba1f21eb75a946fdd06d4e",
    (2, 5, "cyc", "elements", 21): "4359833c4986018766223b91c0df71aa374f3aae26f6b2a129c27d9193b5c987",
    (2, 5, "ss", "classes", 21): "bca72ff38c9d5726601059816dfb5847e5063d5d3b75f9959147f31d9616ebdf",
    (2, 5, "ss", "elements", 21): "caec9656b2d255a29f605a465c4ca026a818e8168f555582cd90e6233c37c995",
    (3, 2, "sep", "classes", 13): "040d03337611adaa0c297553328363aba022cfffe120763398256b3231c8d1cc",
    (3, 2, "sep", "elements", 13): "5aada2fb934c31a5e1a895dea6472b3048f6e86a5a5572f63ff9df5357fb5478",
    (3, 2, "cyc", "classes", 13): "15770fc30c87c1d71ae1f989787410afca347b3cc00da5bdceb051ff41089700",
    (3, 2, "cyc", "elements", 13): "3c2b442a60cac77f2d581c692bbeaf93da04b79f9a06533107129b38cbc1a742",
    (3, 2, "ss", "classes", 13): "e95ed244c6086b1618dfad79369edc7f1587ed1cd5ecff1cde919cf329910022",
    (3, 2, "ss", "elements", 13): "3aee81c9ab9a91f65592e9be7d26365f484038fe160d84429fd7ee2c137d0119",
    (5, 2, "sep", "classes", 9): "37471ebab551bb13da4aae35563a02048371cbaec7b54a89f12719c673e94a34",
    (5, 2, "sep", "elements", 9): "a3faf28a90f206b1c6b6828144265d746c29c66d09da1d3f3ed03df0a0f8a735",
    (5, 2, "cyc", "classes", 9): "6c84532e381daa591daad2db1dcfcb20d85e57e3b3e64a086ad584222b98c8d9",
    (5, 2, "cyc", "elements", 9): "0e760ed4a72f5d0356c043482d4a719239ff32ac3a5c140741ccba380350ce78",
    (5, 2, "ss", "classes", 9): "f8611a5e5dcbacb67170fe1e8b7c4dee9fa4a68d4805359c830b2465a83c179a",
    (5, 2, "ss", "elements", 9): "58fa6f30e8ac9c1d7a96e8722abb4ae3b98f9e949898bdd1fb9417a0aeb077f0",
    (9, 2, "sep", "classes", 7): "667b282aa206e0b9b57efbc2b8d22da6dbf0b02d3c1095cc10a97c51d825dd0c",
    (9, 2, "sep", "elements", 7): "80d7bf3c3c5c3d187232d7c5954464ab68507b59a45c0d8e111fc4aed344492a",
    (9, 2, "cyc", "classes", 7): "b46712368f7dae72c8e53e830e26d521c0f39d4cf014dd59e6331c17f7016173",
    (9, 2, "cyc", "elements", 7): "af48d7dd1c5225f0394d2a21579132d463c9519946700a617405044d192a4f57",
    (9, 2, "ss", "classes", 7): "e308469c943deb5aa5c0c27c7d682500255286093ae3fcdef2c48437f380d5fe",
    (9, 2, "ss", "elements", 7): "bac50c92a313a233c9c9e78c112402050fa47dd906689c28514523ad48e883c6",
}


@pytest.mark.parametrize("q,M,family,kind,T", SERIES_CSV_SHA256)
def test_series_csv_output_is_pinned(capsys, q, M, family, kind, T):
    rc = main(["series", "--q", str(q), "--M", str(M), "--family", family,
               "--kind", kind, "--T", str(T), "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == T + 2  # header and z^0 .. z^T
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_CSV_SHA256[(q, M, family, kind, T)]


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


@pytest.mark.parametrize("args, columns", [
    (["counts", "--q", "2", "--M", "3", "--d-max", "2"], cli._COUNT_COLUMNS),
    (["series", "--q", "2", "--M", "3", "--T", "2", "--family", "sep", "--kind", "classes"],
     cli._SERIES_COLUMNS),
    (["verify", "--q", "2", "--M", "3", "--n-max", "2"], cli._VERIFY_COLUMNS),
    (["table", "--q", "2", "--M", "3", "--n-max", "2"], cli._TABLE_COLUMNS),
])
def test_json_rows_follow_the_columns_and_the_csv(tmp_path, args, columns):
    rc, text = run(tmp_path, args + ["--format", "json"], "out.json")
    assert rc == 0
    rows = json.loads(text)["rows"]
    assert rows and all(tuple(row) == columns for row in rows)
    rc, text = run(tmp_path, args)
    assert rc == 0
    header, *cells = csv.reader(text.splitlines())
    assert tuple(header) == columns
    assert cells == [[str(v) for v in row.values()] for row in rows]


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


def test_oracle_bound_refuses_u225_before_building_any_group(monkeypatch, tmp_path):
    # |U(2,25)| = 405,600 is the smallest U(2, q) over the bound
    def no_group(n, q):
        raise AssertionError("no group may be built for a refused order")

    monkeypatch.setattr(oracle, "group_table", no_group)
    rc = main(["verify", "--q", "25", "--M", "2", "--n-max", "2",
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


def _cube_off_its_class(monkeypatch, fault):
    """Break the cube of a class representative of U(2,2): with "outside" it
    becomes the zero matrix, which is not in the group; with "other-class"
    the class table puts it in a class other than the one its datum names."""
    G = oracle.group_table(2, 2)
    rep = G.classes[-1].rep
    if fault == "outside":
        real = oracle.MatrixRep.__pow__
        zero = oracle.MatrixRep(G.desc, 2, (0,) * 4)
        monkeypatch.setattr(oracle.MatrixRep, "__pow__",
                            lambda A, e: zero if e == 3 and A == rep else real(A, e))
    else:
        j = G._pos[oracle._pack(rep**3)]
        class_of = list(G._class_of)
        class_of[j] = (class_of[j] + 1) % len(G.classes)
        monkeypatch.setattr(G, "_class_of", class_of)


@pytest.mark.parametrize("fault", ["outside", "other-class"])
@pytest.mark.parametrize("command", [
    ["verify", "--q", "2", "--M", "3", "--n-max", "2"],
    ["table", "--q", "2", "--n-max", "2", "--M", "3"],
], ids=["verify", "table"])
def test_power_map_off_its_class_exits_four(monkeypatch, tmp_path, command, fault):
    _cube_off_its_class(monkeypatch, fault)
    assert main(command + ["--out", str(tmp_path / "x.txt")]) == 4


def _without_a_tilde_partner(real):
    """GL class data with the first pair member dropped, so that its partner
    is left alone: the rest is not tilde-symmetric, as no unitary datum is."""
    def broken(A):
        data = real(A)
        pairs = [i for i, (phi, _) in enumerate(data) if polyalg.tilde(phi) != phi]
        return data[:pairs[0]] + data[pairs[0] + 1:] if pairs else data
    return broken


@pytest.mark.parametrize("command", [
    ["verify", "--q", "3", "--M", "2", "--n-max", "2"],
    ["table", "--q", "3", "--n-max", "2"],
], ids=["verify", "table"])
def test_datum_fault_on_a_group_element_exits_four(monkeypatch, capsys, command):
    # `datum_of` raises ValueError for such data; on a group element that is
    # an oracle fault (exit 4), not a usage error (exit 1)
    monkeypatch.setattr(oracle, "group_table", oracle.build_group)
    monkeypatch.setattr(oracle, "gl_class_data", _without_a_tilde_partner(oracle.gl_class_data))
    assert main(command) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "OracleInvariantError" in err and "not tilde-symmetric" in err


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


def _weights_one_off(real):
    # c(n, 1) one too large for n >= 3: no longer the U-binomials
    def broken(q, T):
        return tuple(row if len(row) < 4 else (row[0], row[1] + 1, *row[2:])
                     for row in real(q, T))
    return broken


@pytest.mark.parametrize("target, fake", [
    (genfun, ("_block_centraliser", lambda *args: 2)),  # 2 does not divide |U(1, 2)|
    (series, ("_weights", _weights_one_off(series._weights))),  # an inexact Miller step
])
def test_series_invariant_failure_exits_four(monkeypatch, capsys, target, fake):
    monkeypatch.setattr(target, *fake)
    rc = main(["series", "--q", "2", "--M", "3", "--family", "cyc", "--kind", "elements",
               "--T", "6"])
    out, err = capsys.readouterr()
    assert rc == 4
    assert out == ""
    assert "SeriesInvariantError" in err


@pytest.mark.parametrize("args, option", [
    (["counts", "--q", "2", "--M", "3", "--d-max", "-2"], "--d-max"),
    (["series", "--q", "2", "--M", "3", "--T", "-1", "--family", "sep",
      "--kind", "classes"], "--T"),
    (["verify", "--q", "2", "--M", "3", "--n-max", "0"], "--n-max"),
    (["verify", "--q", "2", "--M", "3", "--n-max", "-1"], "--n-max"),
    (["table", "--q", "2", "--n-max", "-1"], "--n-max"),
    (["table", "--q", "2", "--n-max", "0"], "--n-max"),
    (["table", "--q", "2", "--n-max", "two"], "--n-max"),
])
def test_bad_row_counts_exit_one_naming_the_option(capsys, args, option):
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: argument {option}: must be an integer >= ")
    assert len(err.splitlines()) == 1


def test_zero_truncation_is_accepted(tmp_path):
    rc, text = run(tmp_path, ["series", "--q", "2", "--M", "3", "--T", "0",
                              "--family", "sep", "--kind", "classes"])
    assert rc == 0 and [row["n"] for row in parse_csv(text)] == ["0"]


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    assert main(["table", "--q", "2", "--n-max", "1", "--out", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: cannot write {path}: No such file or directory\n"
    assert not path.parent.exists()


def test_failed_run_leaves_no_output_file(monkeypatch, tmp_path):
    real = counts.count_pairs
    monkeypatch.setattr(counts, "count_mpower_pairs",
                        lambda q, d, M, **kw: real(q, d) + 1)
    path = tmp_path / "x.txt"
    assert main(["counts", "--q", "3", "--M", "2", "--d-max", "1", "--out", str(path)]) == 4
    assert not path.exists()


BIG_PRIME = str(10**18 + 3)


def cli_process(args, python_args=()):
    """The exit code and stderr of the CLI in a fresh process, which must end
    within 10 s; `python_args` go to the interpreter."""
    proc = subprocess.run([sys.executable, *python_args, "-m", "unitary_powers.cli", *args],
                          env=_fresh_env(), capture_output=True, timeout=10)
    return proc.returncode, proc.stderr.decode()


def _fresh_env():
    src = str(Path(unitary_powers.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("args, code", [
    (["verify", "--q", "2", "--M", BIG_PRIME, "--n-max", "1"], 0),
    (["series", "--q", "2", "--M", BIG_PRIME, "--family", "sep", "--kind", "classes",
      "--T", "3"], 0),
    (["counts", "--q", BIG_PRIME, "--M", "2", "--d-max", "1"], 3),  # the pair-field bound
    (["series", "--q", BIG_PRIME, "--M", "2", "--family", "sep", "--kind", "classes",
      "--T", "1"], 0),
])
def test_an_eighteen_digit_prime_q_or_M_is_decided_at_once(args, code):
    # primality is Miller-Rabin, not trial division up to the square root
    rc, err = cli_process(args)
    assert rc == code, err


@pytest.mark.parametrize("args", [
    ["series", "--q", "2", "--M", "3", "--family", "sep", "--kind", "classes",
     "--T", str(10**12)],
    ["counts", "--q", "2", "--M", "3", "--d-max", str(10**12)],
])
def test_a_huge_pair_degree_is_refused_at_once(args):
    # 2d > 20 is over the bound at every q >= 2, so q^(2d) is never formed
    rc, err = cli_process(args)
    assert rc == 3, err
    assert "exceeds the bound" in err


# Above the exact primality bound, with no factor among the test's bases:
# only the semisimple hypothesis asks whether M is prime.
HUGE_M = str(10**30 + 57)


@pytest.mark.parametrize("family", ["sep", "cyc"])
def test_a_huge_M_runs_every_family_that_needs_no_primality(tmp_path, family):
    q, T = 3, 13
    rc, text = run(tmp_path, ["series", "--q", str(q), "--M", HUGE_M, "--family", family,
                              "--kind", "elements", "--T", str(T)])
    assert rc == 0
    at_M = [Fraction(row["coefficient"]) for row in parse_csv(text)]
    at_1 = genfun.series_for(genfun.SeriesRequest(q, 1, T, genfun.Family(family),
                                                  genfun.Kind.ELEMENTS)).coeffs
    coprime = [n for n in range(T + 1) if gcd(int(HUGE_M), series.group_order_U(n, q)) == 1]
    assert coprime and [at_M[n] for n in coprime] == [at_1[n] for n in coprime]


def test_a_huge_M_verifies_and_refuses_only_the_semisimple_family(tmp_path):
    rc, text = run(tmp_path, ["verify", "--q", "3", "--M", HUGE_M, "--n-max", "2",
                              "--family", "sep", "--family", "cyc"])
    assert rc == 0
    rows = parse_csv(text)
    assert len(rows) == 8 and all(row["status"] == "PASS" for row in rows)
    assert main(["series", "--q", "3", "--M", HUGE_M, "--family", "ss", "--kind", "classes",
                 "--T", "3"]) == 3
    assert main(["verify", "--q", "3", "--M", HUGE_M, "--n-max", "2"]) == 3


def _imported(importtime_text):
    # the module column of `python -X importtime` lines
    return {line.rsplit("|", 1)[1].strip() for line in importtime_text.splitlines()
            if line.startswith("import time:")}


def modules_loaded(args):
    """The modules a fresh CLI process on args loads beyond those of a bare
    interpreter, as `python -X importtime` reports them."""
    rc, err = cli_process(args, ("-X", "importtime"))
    assert rc == 0, err
    bare = subprocess.run([sys.executable, "-X", "importtime", "-c", ""], env=_fresh_env(),
                          capture_output=True, timeout=10)
    return _imported(err) - _imported(bare.stderr.decode())


COLD_ONLY = {"unitary_powers.oracle", "unitary_powers.polyalg", "unitary_powers.gf",
             "dataclasses", "inspect"}


@pytest.mark.parametrize("args", [
    ["counts", "--q", "2", "--M", "2", "--d-max", "0"],
    ["series", "--q", "2", "--M", "5", "--family", "ss", "--kind", "elements", "--T", "21"],
])
def test_counts_and_series_never_load_the_oracle_layer(args):
    # the package resolves its exports lazily and the CLI loads the oracle
    # only for verify and table, so a cold start compiles none of it
    added = modules_loaded(args)
    assert {"unitary_powers.counts", "unitary_powers.genfun"} <= added
    assert added & COLD_ONLY == set()


def test_verify_loads_the_oracle_layer():
    # the oracle's records are named tuples, so not even verify loads
    # dataclasses (and with it inspect)
    added = modules_loaded(["verify", "--q", "2", "--M", "3", "--n-max", "2"])
    assert {"unitary_powers.oracle", "unitary_powers.polyalg", "unitary_powers.gf"} <= added
    assert added & {"dataclasses", "inspect"} == set()


# sha256 over the CSV and the JSON `counts` output for each q of the series
# benchmark at its d_max and M = 2..7: 84 outputs, byte for byte.
COUNTS_D = {2: 10, 3: 6, 4: 5, 5: 4, 7: 3, 8: 3, 9: 3}
COUNTS_OUTPUT_SHA256 = "3b29a1816eb8e51aebfe9b24eb8be028771853b41a1fa19b04cb2f274cc5f1c2"


def test_counts_output_is_pinned(tmp_path):
    digest, written = hashlib.sha256(), 0
    for q, d_max in COUNTS_D.items():
        for M in range(2, 8):
            for fmt in ("csv", "json"):
                rc, text = run(tmp_path, ["counts", "--q", str(q), "--M", str(M),
                                          "--d-max", str(d_max), "--format", fmt])
                assert rc == 0
                digest.update(text.encode())
                written += 1
    assert written == 84
    assert digest.hexdigest() == COUNTS_OUTPUT_SHA256
