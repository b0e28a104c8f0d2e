"""Batch command-line interface.

Four subcommands, all emitting CSV or JSON with deterministic row order:

  counts   count-table rows (one per degree d) for fixed q and M
  series   coefficients of one generating function, exact and as decimals
  verify   compare series coefficients against the brute-force oracle and
           exit nonzero on any mismatch
  table    dump the conjugacy-class table of the oracle groups

Exit codes: 0 success / all checks pass, 1 usage error (including violated
series hypotheses), 2 verification failure, 3 resource bound exceeded,
4 internal invariant failure (a field, factorisation, count, series or oracle
check failed; no result is printed, since none can be trusted).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import __version__, counts, genfun, oracle
from ._numth import EnumerationBoundError, InvariantError
from .genfun import Family, Kind
from .series import group_order_U

__all__ = ["run_counts", "run_series", "run_verify", "run_table", "main"]

# Largest group order `verify` and `table` build.  It admits U(3,4) (312,000
# elements), U(2,19) (136,800) and U(2,23) (291,456), and refuses U(2,25)
# (405,600), U(3,5) and U(4,3).  End to end, median of three runs on a shared
# 2-vCPU VM with Python 3.11: `verify --q 4 --M 3 --n-max 3` 4.3 s and
# 111 MB peak RSS, `verify --q 19 --M 2 --n-max 2` 2.4 s and 58 MB,
# `verify --q 23 --M 2 --n-max 2` 5.6 s and 102 MB.
VERIFY_ORDER_BOUND = 400_000

# Largest pair field F_(q^(2d)) that `counts` and `series` reach: count rows
# stop at d = 10, 6, 5, 4, 3 and series at T = 21, 13, 11, 9, 7 for q = 2, 3,
# 4, 5 and 7-9.  The counts cost little at any d; the bound stands for the
# series cost, which is not modelled yet.  `verify` needs no such check:
# every U(n, q) within its order bound has q^(2 floor(n/2)) <= 529.
PAIR_FIELD_BOUND = 1 << 20

_COUNT_COLUMNS = (
    "q", "d", "M",
    "N_tilde", "N_tilde_M", "R_tilde", "R_tilde_M", "S_tilde_prime", "S_prime",
)
_SERIES_COLUMNS = ("n", "coefficient", "decimal")
_VERIFY_COLUMNS = ("n", "family", "kind", "expected", "actual", "status")
_TABLE_COLUMNS = (
    "n", "class_index", "size", "separable", "cyclic", "semisimple", "datum", "is_m_power",
)


class UsageError(Exception):
    pass


@dataclass
class Report:
    meta: dict
    columns: tuple[str, ...]
    rows: list[tuple]  # one value per column, in column order
    failed: bool = False


def _meta(args: argparse.Namespace, **extra) -> dict:
    meta = {
        "q": args.q,
        "M": args.M,
        "T": getattr(args, "T", None),
        "family": extra.pop("family", None),
        "kind": extra.pop("kind", None),
        "version": __version__,
    }
    meta.update(extra)
    return meta


def check_pair_field(q: int, d: int):
    """Refuse pair degree d when q^(2d) exceeds `PAIR_FIELD_BOUND`.  Since
    q >= 2, a d with 2^(2d) over the bound is refused before q^(2d) is
    formed, so a huge d costs nothing."""
    if 2 * d >= PAIR_FIELD_BOUND.bit_length() or q ** (2 * d) > PAIR_FIELD_BOUND:
        raise EnumerationBoundError(
            f"pair degree d={d} at q={q}: q^(2d) exceeds the bound {PAIR_FIELD_BOUND}"
        )


def run_counts(args: argparse.Namespace) -> Report:
    counts._validate(args.q, 1, args.M)  # also when d_max = 0
    check_pair_field(args.q, args.d_max)
    records = (counts.count_record(args.q, d, args.M) for d in range(1, args.d_max + 1))
    rows = [(*vars(r).values(), r.s_tilde_prime, r.s_prime) for r in records]
    return Report(_meta(args, d_max=args.d_max), _COUNT_COLUMNS, rows)


def run_series(args: argparse.Namespace) -> Report:
    request = genfun.SeriesRequest(args.q, args.M, args.T, args.family, args.kind)
    check_pair_field(args.q, args.T // 2)  # the largest pair degree
    s = genfun.series_for(request)
    rows = [(n, str(c), repr(float(c))) for n, c in enumerate(s.coeffs)]
    return Report(_meta(args, family=args.family.value, kind=args.kind.value), _SERIES_COLUMNS, rows)


def _oracle_counts(pic: oracle.PowerImageCounts, family: Family, kind: Kind, order: int) -> Fraction:
    tag = family.name.lower()  # its key in PowerImageCounts
    if kind is Kind.CLASSES:
        return Fraction(pic.classes[tag])
    return Fraction(pic.elements[tag], order)


def _oracle_pass(q: int, M: int, n_max: int):
    """(G, power_image_counts(G, M)) for G = U(n, q), n = 1..n_max, the one
    power-map pass of `verify` and `table`.  The order bound is checked at
    once; each group is built, or taken from the cache, when iterated."""
    for n in range(1, n_max + 1):
        order = group_order_U(n, q)
        if order > VERIFY_ORDER_BOUND:
            raise EnumerationBoundError(
                f"U({n},{q}) has order {order}, beyond the oracle bound {VERIFY_ORDER_BOUND}"
            )
    groups = (oracle.group_table(n, q) for n in range(1, n_max + 1))
    return ((G, oracle.power_image_counts(G, M)) for G in groups)


def run_verify(args: argparse.Namespace) -> Report:
    # a repeated --family counts once, in the order given
    families = (tuple(dict.fromkeys(args.family)) if args.family
                else genfun.applicable_families(args.q, args.M))
    kinds = (args.kind,) if args.kind else (Kind.CLASSES, Kind.ELEMENTS)
    passes = _oracle_pass(args.q, args.M, args.n_max)  # order bound before any series
    built = [
        (family, kind, genfun.series_for(
            genfun.SeriesRequest(args.q, args.M, args.n_max, family, kind)))
        for family in families for kind in kinds
    ]
    rows = []
    failed = False
    for G, pic in passes:
        for family, kind, s in built:
            expected = s.coeff(G.n)
            actual = _oracle_counts(pic, family, kind, G.order)
            ok = expected == actual
            failed = failed or not ok
            rows.append((G.n, family.value, kind.value, str(expected), str(actual),
                         "PASS" if ok else "FAIL"))
    return Report(_meta(args, n_max=args.n_max), _VERIFY_COLUMNS, rows, failed=failed)


def run_table(args: argparse.Namespace) -> Report:
    rows = []
    for G, pic in _oracle_pass(args.q, args.M, args.n_max):
        for idx, (c, inside) in enumerate(zip(G.classes, pic.in_image)):
            rows.append((G.n, idx, c.size, c.kind.separable, c.kind.cyclic,
                         c.kind.semisimple, str(c.datum), inside if args.M > 1 else ""))
    return Report(_meta(args, n_max=args.n_max), _TABLE_COLUMNS, rows)


# ----------------------------------------------------------------------
# emission and entry point
# ----------------------------------------------------------------------

def _render(report: Report, fmt: str) -> str:
    if fmt == "json":
        rows = [dict(zip(report.columns, row)) for row in report.rows]
        payload = {"meta": report.meta, "rows": rows}
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(map(_csv_cell, row)))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _emit(report: Report, args: argparse.Namespace):
    """Write the finished report; a run that fails before this leaves no file."""
    text = _render(report, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_from(low: int):
    """An argparse type: an integer >= low."""
    def parse(text: str) -> int:
        wrong = argparse.ArgumentTypeError(f"must be an integer >= {low}")
        try:
            value = int(text)
        except ValueError:
            raise wrong from None
        if value < low:
            raise wrong
        return value
    return parse


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each subcommand's runner is its
    `run` default."""
    parser = _Parser(prog="unitary-powers", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, run, help, *, with_M=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--q", type=_int_from(2), required=True, help="prime power q")
        if with_M:
            p.add_argument("--M", type=_int_from(2), required=True,
                           help="power-map exponent M >= 2")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    families = [f.value for f in Family]
    kinds = [k.value for k in Kind]

    p = common("counts", run_counts, "count-table rows for d = 1..d_max")
    p.add_argument("--d-max", type=_int_from(0), default=4)

    p = common("series", run_series, "coefficients of one generating function")
    p.add_argument("--T", type=_int_from(0), default=12, help="truncation order")
    p.add_argument("--family", type=Family, choices=families, required=True)
    p.add_argument("--kind", type=Kind, choices=kinds, required=True)

    p = common("verify", run_verify, "series vs oracle, exit 2 on mismatch")
    p.add_argument("--n-max", type=_int_from(1), default=2)
    p.add_argument("--family", type=Family, choices=families, action="append",
                   help="repeatable; default: all families valid for (q, M)")
    p.add_argument("--kind", type=Kind, choices=kinds, default=None)

    p = common("table", run_table, "conjugacy-class table of the oracle groups",
               with_M=False)
    p.add_argument("--M", type=_int_from(1), default=1,
                   help="optionally mark classes in the M-th power image")
    p.add_argument("--n-max", type=_int_from(1), default=2)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = args.run(args)
        _emit(report, args)
        return 2 if report.failed else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EnumerationBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
