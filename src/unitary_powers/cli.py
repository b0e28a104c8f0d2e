"""Batch command-line interface.

Four subcommands, all emitting CSV or JSON with deterministic row order:

  counts   count-table rows (one per degree d) for fixed q and M
  series   coefficients of one generating function, exact and as decimals
  verify   compare series coefficients against the brute-force oracle and
           exit nonzero on any mismatch
  table    dump the conjugacy-class table of the oracle groups

Exit codes: 0 success / all checks pass, 1 usage error (including violated
series hypotheses), 2 verification failure, 3 resource bound exceeded,
4 internal invariant failure (a field, factorisation, count or oracle check
failed; no result is printed, since none can be trusted).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__, counts, genfun, oracle
from ._numth import EnumerationBoundError
from .counts import CountInvariantError
from .genfun import Family, Kind
from .gf import FieldInvariantError
from .oracle import OracleInvariantError
from .polyalg import FactorisationError
from .series import group_order_U

__all__ = ["RunConfig", "run_counts", "run_series", "run_verify", "run_table", "main"]

VERIFY_ORDER_BOUND = 100_000

_INVARIANT_ERRORS = (
    FieldInvariantError, FactorisationError, CountInvariantError, OracleInvariantError,
)

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
class RunConfig:
    command: str
    q: int = 0
    M: int = 2
    T: int = 12
    n_max: int = 2
    d_max: int = 4
    families: tuple[Family, ...] = ()
    kind: Kind | None = None
    format: str = "csv"
    out: str | None = None


@dataclass
class Report:
    meta: dict
    columns: tuple[str, ...]
    rows: list[dict]
    failed: bool = False


def _meta(cfg: RunConfig, **extra) -> dict:
    meta = {
        "q": cfg.q,
        "M": cfg.M,
        "T": cfg.T,
        "family": extra.pop("family", None),
        "kind": extra.pop("kind", None),
        "version": __version__,
    }
    meta.update(extra)
    return meta


def run_counts(cfg: RunConfig) -> Report:
    rows = []
    for d in range(1, cfg.d_max + 1):
        rec = counts.count_record(cfg.q, d, cfg.M)
        rows.append({
            "q": rec.q, "d": rec.d, "M": rec.M,
            "N_tilde": rec.n_tilde, "N_tilde_M": rec.n_tilde_M,
            "R_tilde": rec.r_tilde, "R_tilde_M": rec.r_tilde_M,
            "S_tilde_prime": rec.s_tilde_prime, "S_prime": rec.s_prime,
        })
    return Report(_meta(cfg, d_max=cfg.d_max), _COUNT_COLUMNS, rows)


def run_series(cfg: RunConfig) -> Report:
    if len(cfg.families) != 1 or cfg.kind is None:
        raise UsageError("series needs exactly one --family and a --kind")
    family = cfg.families[0]
    request = genfun.SeriesRequest(cfg.q, cfg.M, cfg.T, family, cfg.kind)
    s = genfun.series_for(request)
    rows = [
        {"n": n, "coefficient": str(s.coeff(n)), "decimal": repr(float(s.coeff(n)))}
        for n in range(cfg.T + 1)
    ]
    return Report(_meta(cfg, family=family.value, kind=cfg.kind.value), _SERIES_COLUMNS, rows)


def _oracle_counts(pic: oracle.PowerImageCounts, family: Family, kind: Kind, order: int) -> Fraction:
    tag = {Family.SEPARABLE: "separable", Family.CYCLIC: "cyclic", Family.SEMISIMPLE: "semisimple"}[family]
    if kind is Kind.CLASSES:
        return Fraction(pic.classes[tag])
    return Fraction(pic.elements[tag], order)


def _check_oracle_range(q: int, n_max: int):
    for n in range(1, n_max + 1):
        order = group_order_U(n, q)
        if order > VERIFY_ORDER_BOUND:
            raise EnumerationBoundError(
                f"U({n},{q}) has order {order}, beyond the oracle bound {VERIFY_ORDER_BOUND}"
            )


def run_verify(cfg: RunConfig) -> Report:
    families = cfg.families or genfun.applicable_families(cfg.q, cfg.M)
    kinds = (cfg.kind,) if cfg.kind else (Kind.CLASSES, Kind.ELEMENTS)
    _check_oracle_range(cfg.q, cfg.n_max)
    T = cfg.n_max
    built = {}
    for family in families:
        for kind in kinds:
            request = genfun.SeriesRequest(cfg.q, cfg.M, T, family, kind)
            built[(family, kind)] = genfun.series_for(request)
    rows = []
    failed = False
    for n in range(1, cfg.n_max + 1):
        order = group_order_U(n, cfg.q)
        G = oracle.group_table(n, cfg.q)
        pic = oracle.power_image_counts(G, cfg.M)
        for family in families:
            for kind in kinds:
                expected = built[(family, kind)].coeff(n)
                actual = _oracle_counts(pic, family, kind, order)
                ok = expected == actual
                failed = failed or not ok
                rows.append({
                    "n": n, "family": family.value, "kind": kind.value,
                    "expected": str(expected), "actual": str(actual),
                    "status": "PASS" if ok else "FAIL",
                })
    return Report(_meta(cfg, n_max=cfg.n_max), _VERIFY_COLUMNS, rows, failed=failed)


def run_table(cfg: RunConfig) -> Report:
    _check_oracle_range(cfg.q, cfg.n_max)
    rows = []
    for n in range(1, cfg.n_max + 1):
        G = oracle.group_table(n, cfg.q)
        image = oracle.power_image(G, cfg.M) if cfg.M > 1 else None
        for idx, c in enumerate(G.classes):
            row = {
                "n": n, "class_index": idx, "size": c.size,
                "separable": c.kind.separable, "cyclic": c.kind.cyclic,
                "semisimple": c.kind.semisimple, "datum": str(c.datum),
                "is_m_power": (c.rep.codes in image) if image is not None else "",
            }
            rows.append(row)
    return Report(_meta(cfg, n_max=cfg.n_max), _TABLE_COLUMNS, rows)


# ----------------------------------------------------------------------
# emission and entry point
# ----------------------------------------------------------------------

def _render(report: Report, fmt: str) -> str:
    if fmt == "json":
        payload = {"meta": report.meta, "rows": report.rows}
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(_csv_cell(row[c]) for c in report.columns))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _emit(report: Report, cfg: RunConfig):
    text = _render(report, cfg.format)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="unitary-powers", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, with_M=True):
        p.add_argument("--q", type=int, required=True, help="prime power q")
        if with_M:
            p.add_argument("--M", type=int, required=True, help="power-map exponent M >= 2")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("counts", help="count-table rows for d = 1..d_max")
    common(p)
    p.add_argument("--d-max", type=int, default=4)

    p = sub.add_parser("series", help="coefficients of one generating function")
    common(p)
    p.add_argument("--T", type=int, default=12, help="truncation order")
    p.add_argument("--family", choices=[f.value for f in Family], required=True)
    p.add_argument("--kind", choices=[k.value for k in Kind], required=True)

    p = sub.add_parser("verify", help="series vs oracle, exit 2 on mismatch")
    common(p)
    p.add_argument("--n-max", type=int, default=2)
    p.add_argument("--family", choices=[f.value for f in Family], action="append",
                   help="repeatable; default: all families valid for (q, M)")
    p.add_argument("--kind", choices=[k.value for k in Kind], default=None)

    p = sub.add_parser("table", help="conjugacy-class table of the oracle groups")
    common(p, with_M=False)
    p.add_argument("--M", type=int, default=1,
                   help="optionally mark classes in the M-th power image")
    p.add_argument("--n-max", type=int, default=2)

    return parser


def _config_from(args) -> RunConfig:
    families: tuple[Family, ...] = ()
    raw = getattr(args, "family", None)
    if raw:
        names = raw if isinstance(raw, list) else [raw]
        families = tuple(Family(name) for name in names)
    kind = Kind(args.kind) if getattr(args, "kind", None) else None
    cfg = RunConfig(
        command=args.command,
        q=args.q,
        M=getattr(args, "M", 1),
        T=getattr(args, "T", 12),
        n_max=getattr(args, "n_max", 2),
        d_max=getattr(args, "d_max", 4),
        families=families,
        kind=kind,
        format=args.format,
        out=args.out,
    )
    if cfg.command != "table" and cfg.M < 2:
        raise UsageError("M must be an integer >= 2")
    if cfg.q < 2:
        raise UsageError("q must be a prime power >= 2")
    return cfg


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from(args)
        runner = {
            "counts": run_counts,
            "series": run_series,
            "verify": run_verify,
            "table": run_table,
        }[cfg.command]
        report = runner(cfg)
        _emit(report, cfg)
        return 2 if report.failed else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EnumerationBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _INVARIANT_ERRORS as exc:
        print(f"internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
