"""The three workloads: their case lists and how one case runs.

A case is one operation: one CLI invocation, one series or count table, or
one enumeration cell.  Running a case returns its outcome (time, and the
reason if it failed to run) and its raw output; the outputs are checked by
`checks.py` only after the round has been measured, so that the checks add
nothing to the times, the peak memory or the traced metrics.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass
from math import gcd
from time import perf_counter

WORKLOADS = ("oracle", "series", "enumerate")

# oracle: `verify` as (q, M, n_max) and `table` as (q, n_max, M).  U(3,2),
# U(2,3), U(2,4) and U(2,5) are built by element scan; U(2,7) and U(2,8) by
# generator closure, since their q^(2 n^2) candidates exceed the scan bound.
# `table` repeats the group build and classes of `verify`, so it runs on the
# scan groups only, where that costs least.
VERIFY = ((2, 3, 3), (3, 2, 2), (4, 3, 2), (5, 2, 2), (7, 2, 2), (8, 3, 2))
TABLE = ((2, 3, 2), (3, 2, 2), (4, 2, 3), (5, 2, 2))

# series: for each q the largest truncation T and count-table degree that the
# pair-count enumeration bound accepts (q^(2d) <= 2^20 for pair degree d).
SERIES_T = {2: 21, 3: 13, 4: 11, 5: 9, 7: 7, 8: 7, 9: 7}
COUNTS_D = {2: 10, 3: 6, 4: 5, 5: 4, 7: 3, 8: 3, 9: 3}
SERIES_M = range(2, 8)
KINDS = ("classes", "elements")

# enumerate: (q, d, list pair members too).  The q = 2, d <= 4 cells list
# both SCIMs and pair members; (2,5), (2,6) and (3,3) are the SCIM-only
# cells of the acceptance suite's criterion 1.
CELLS = (
    (2, 1, True), (2, 2, True), (2, 3, True), (2, 4, True), (2, 5, False),
    (2, 6, False), (3, 1, True), (3, 2, True), (3, 3, False),
)
ENUM_M = range(2, 7)
FIELD = {2: (2, 1), 3: (3, 1)}  # q -> (p, l)

LARGEST = {
    "oracle": "verify q=8 M=3 n<=2",
    "series": "series q=2 M=5 ss elements T=21",
    "enumerate": "cell q=2 d=4",
}

CLI_TIMEOUT = 150.0


@dataclass
class Case:
    id: str
    args: tuple


@dataclass
class Outcome:
    id: str
    seconds: float
    failure: str | None = None  # reason, when the case failed
    wrong: bool = False  # the failure is a wrong output


def families(q: int, M: int) -> list[str]:
    """Families the series are defined for: cyclic needs gcd(M, q) = 1,
    semisimple also needs M prime."""
    out = ["sep"]
    if gcd(M, q) == 1:
        out.append("cyc")
        if M > 1 and all(M % p for p in range(2, M)):
            out.append("ss")
    return out


def cases(workload: str, seed: int) -> list[Case]:
    """The workload's fixed case list, in an order drawn from `seed`."""
    out = []
    if workload == "oracle":
        for q, M, n in VERIFY:
            out.append(Case(f"verify q={q} M={M} n<={n}", ("verify", q, M, n)))
        for q, n, M in TABLE:
            out.append(Case(f"table q={q} n<={n} M={M}", ("table", q, M, n)))
    elif workload == "series":
        for q, T in SERIES_T.items():
            for M in SERIES_M:
                for fam in families(q, M):
                    for kind in KINDS:
                        out.append(Case(f"series q={q} M={M} {fam} {kind} T={T}",
                                        ("series", q, M, fam, kind, T)))
                out.append(Case(f"counts q={q} M={M} d<={COUNTS_D[q]}",
                                ("counts", q, M, COUNTS_D[q])))
    elif workload == "enumerate":
        for q, d, pairs in CELLS:
            out.append(Case(f"cell q={q} d={d}", (q, d, pairs)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(out)
    return out


def cli_argv(args: tuple) -> list[str]:
    """The `unitary-powers` command line of an oracle or series case."""
    cmd = args[0]
    if cmd == "verify":
        _, q, M, n = args
        argv = ["verify", "--q", q, "--M", M, "--n-max", n]
    elif cmd == "table":
        _, q, M, n = args
        argv = ["table", "--q", q, "--n-max", n, "--M", M]
    elif cmd == "series":
        _, q, M, fam, kind, T = args
        argv = ["series", "--q", q, "--M", M, "--family", fam, "--kind", kind, "--T", T]
    else:
        _, q, M, d = args
        argv = ["counts", "--q", q, "--M", M, "--d-max", d]
    return [str(a) for a in argv] + ["--format", "json"]


def run_process(cmd, env, timeout):
    """Run cmd in its own session; on timeout kill the whole session and
    reap it.  Returns (exit code or None on timeout, stdout, stderr)."""
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err


def run_oracle_case(case: Case, env, trace_files=None, timeout=CLI_TIMEOUT):
    """One CLI invocation in a fresh process, as a user runs it.  With
    `trace_files` = (report path, spans path) the command runs under the
    tracer instead.  Returns the outcome and (exit code, stdout), or None
    when the command did not finish with a checkable output."""
    argv = cli_argv(case.args)
    if trace_files:
        here = os.path.dirname(os.path.abspath(__file__))
        cmd = [sys.executable, os.path.join(here, "trace_cli.py"), *trace_files, *argv]
    else:
        cmd = [sys.executable, "-m", "unitary_powers.cli", *argv]
    t0 = perf_counter()
    rc, out, err = run_process(cmd, env, timeout)
    outcome = Outcome(case.id, perf_counter() - t0)
    mismatch = rc == 2 and case.args[0] == "verify"  # exit 2: a row is FAIL
    if rc is None:
        outcome.failure = f"timeout after {timeout:.0f} s"
    elif rc != 0 and not mismatch:
        outcome.failure = f"exit {rc}: {err.strip()[-300:]}"
    else:
        return outcome, (rc, out)
    return outcome, None


def run_series_case(case: Case, cli):
    """One `series` or `counts` command through `cli.main`, in this process.
    Returns the outcome and the command's output (None if it failed)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(cli_argv(case.args))
    except Exception as exc:  # an exception escaping the CLI is a failed case
        return Outcome(case.id, perf_counter() - t0, f"exception: {exc!r}"), None
    outcome = Outcome(case.id, perf_counter() - t0)
    if rc != 0:
        outcome.failure = f"exit {rc}: {err.getvalue().strip()[-300:]}"
        return outcome, None
    return outcome, out.getvalue()


def run_enumerate_case(case: Case, up):
    """One (q, d) cell through library calls: list the SCIMs (and pair
    members) of degree d, run the package's power tests for each M, and
    take the package's counts for the same cell.  `up` holds the package
    modules.  Returns the outcome and the cell's tallies (None on an
    exception)."""
    q, d, pairs = case.args
    t0 = perf_counter()
    try:
        tally = _enumerate_cell(up, q, d, pairs)
    except Exception as exc:  # an exception from the package is a failed case
        return Outcome(case.id, perf_counter() - t0, f"exception: {exc!r}"), None
    return Outcome(case.id, perf_counter() - t0), tally


def _enumerate_cell(up, q, d, pairs) -> dict:
    gf, polyalg, counts = up.gf, up.polyalg, up.counts
    field = gf.make_field(*FIELD[q], 1)
    irreducibles = polyalg.irreducible_polys(field, d)
    scims, members = [], []
    for f in irreducibles:
        kind = polyalg.classify(f)
        if kind is polyalg.PolyClass.SCIM:
            scims.append(f)
        elif kind is polyalg.PolyClass.PAIR_MEMBER:
            members.append(f)
    tally = {
        "irreducible": len(irreducibles),
        "scim": [len(scims), counts.count_scim(q, d)],
        "tested": [scims],  # the polynomials whose f(x^M) the check factors
    }
    tested = {"mtilde": (scims, polyalg.is_mtilde_power, counts.count_mtilde_scim)}
    if pairs:
        # each pair {g, g~} has both members M-power or neither
        tally["pair"] = [len(members) / 2, counts.count_pairs(q, d)]
        tally["tested"].append(members)
        tested["mpair"] = (members, polyalg.is_m_power_pair, counts.count_mpower_pairs)
    for M in ENUM_M:
        for key, (polys, is_power, count) in tested.items():
            hits = sum(bool(is_power(f, M)) for f in polys)
            if key == "mpair":
                hits /= 2
            tally[f"{key} M={M}"] = [hits, count(q, d, M)]
    return tally
