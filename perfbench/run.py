"""Benchmark of `unitary_powers`: end-to-end and per-layer metrics of three
workloads, with every output checked.

    python3 perfbench/run.py --workload oracle|series|enumerate \
        --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from `src/`.  Each
round runs the workload's whole case list once, in a fresh worker process
(perfbench/worker.py), in an order drawn from the seed; rounds repeat while
another fits in S seconds, and at least one runs.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics; with --trace 1
it holds the per-layer metrics of traced rounds, which alternate with
untraced ones so the tracing overhead is measured in the same run.  Details
of every round go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from time import perf_counter

import workloads as wl
from tracer import merge_reports

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

RUN_LIMIT_S = 170.0  # no round starts that could end past this
# set-up starts: at least SETUP_MIN and at most SETUP_MAX per run, spread
# between the rounds so that they sample the whole run
SETUP_FIRST, SETUP_PER_GAP, SETUP_MIN, SETUP_MAX = 5, 2, 9, 15
SETUP_CMD = ("-m", "unitary_powers.cli", "counts", "--q", "2", "--M", "2",
             "--d-max", "0", "--format", "json")


class SetupTimer:
    """Times a CLI call that does no work: a fresh interpreter imports the
    package, builds the parser and prints an empty count table."""

    def __init__(self, env):
        self.env = env
        self.times: list[float] = []
        self.errors: list[str] = []
        self._start()  # warms the file cache and the bytecode cache; not kept

    def _start(self) -> float:
        t0 = perf_counter()
        rc, out, err = wl.run_process([sys.executable, *SETUP_CMD], self.env, 60)
        elapsed = perf_counter() - t0
        if rc != 0:
            self.errors.append(f"set-up start exited {rc}: {err.strip()[-300:]}")
            return elapsed
        try:
            empty = json.loads(out)["rows"] == []
        except (ValueError, KeyError, TypeError):
            empty = False
        if not empty:
            self.errors.append(f"set-up start: not an empty count table: {out[:200]!r}")
        return elapsed

    def take(self, k: int):
        for _ in range(max(0, min(k, SETUP_MAX - len(self.times)))):
            self.times.append(self._start())


def run_round(workload, seed, trace, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", OUT,
           "--deadline", f"{deadline:.1f}"]
    rc, out, err = wl.run_process(cmd, env, deadline + 5)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        reason = "timeout" if rc is None else f"worker exit {rc}: {err.strip()[-300:]}"
        ops = [{"id": c.id, "seconds": 0.0, "failure": reason, "wrong": False}
               for c in wl.cases(workload, seed)]
        return {"seed": seed, "ops": ops, "wall_s": None, "failed_round": True}
    return json.loads(lines[-1])


# per-layer metric: (name, unit, source, key); the source is a tracer
# report field: self time or call count per span name, or a counter
LAYER_METRICS = (
    ("cli.self_s", "s", "self_s", "cli"),
    ("oracle.build_s", "s", "self_s", "oracle.build"),
    ("oracle.classes_s", "s", "self_s", "oracle.classes"),
    ("oracle.matmul_calls", "count", "counts", "oracle.matmul_calls"),
    ("oracle.datum_s", "s", "self_s", "oracle.datum"),
    ("oracle.datum_calls", "count", "calls", "oracle.datum"),
    ("oracle.power_map_s", "s", "self_s", "oracle.power_map"),
    ("oracle.class_member_codes", "count", "counts", "oracle.class_member_codes"),
    ("polyalg.factor_s", "s", "self_s", "polyalg.factor"),
    ("polyalg.sieve_s", "s", "self_s", "polyalg.sieve"),
    ("polyalg.classify_s", "s", "self_s", "polyalg.classify"),
    ("polyalg.power_test_s", "s", "self_s", "polyalg.power_test"),
    ("polyalg.poly_inits", "count", "counts", "polyalg.poly_inits"),
    ("gf.field_build_s", "s", "self_s", "gf.field_build"),
    ("gf.mul_ops", "count", "counts", "gf.mul_ops"),
    ("gf.add_ops", "count", "counts", "gf.add_ops"),
    ("counts.self_s", "s", "self_s", "counts"),
    ("counts.calls", "count", "calls", "counts"),
    ("numth.factorint_calls", "count", "counts", "numth.factorint_calls"),
    ("series.mul_s", "s", "self_s", "series.mul"),
    ("series.mul_calls", "count", "calls", "series.mul"),
    ("series.pow_s", "s", "self_s", "series.pow"),
    ("series.factor_build_s", "s", "self_s", "series.factor_build"),
    ("genfun.self_s", "s", "self_s", "genfun"),
)


def layer_metrics(layers: list[dict]) -> tuple[dict[str, tuple[float, str]], list]:
    """Per-layer metrics, per traced round: self times summed over spans,
    call counts, counters and cache statistics.  Also returns the targets
    the tracer could not wrap; the metrics built on them are left out."""
    n = len(layers)
    tot = merge_reports(layers)
    missing = [tuple(m) for m in tot["missing"]]
    lost = {name for _, name in missing}
    out = {name: (tot[source].get(key, 0) / n, unit)
           for name, unit, source, key in LAYER_METRICS if key not in lost}
    for key, size_metric in (("polyalg.factor_cache", "polyalg.factor_cache_size"),
                             ("polyalg.sieve_cache", "polyalg.sieve_cache_size")):
        if key not in lost:
            out[size_metric] = (tot["caches"].get(key, {}).get("size", 0) / n, "count")
    if "polyalg.factor_cache" not in lost:
        info = tot["caches"].get("polyalg.factor_cache", {})
        hits, calls = info.get("hits", 0), info.get("hits", 0) + info.get("misses", 0)
        out["polyalg.factor_calls"] = (calls / n, "count")
        out["polyalg.factor_hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    out["trace.spans"] = (tot["spans"] / n, "count")
    return out, missing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = perf_counter()

    if not os.path.isfile(os.path.join(SRC, "unitary_powers", "__init__.py")):
        print(f"error: no package source at {SRC}/unitary_powers; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    os.makedirs(OUT, exist_ok=True)

    setup = None
    if not args.trace:
        setup = SetupTimer(env)
        setup.take(SETUP_FIRST)

    # Traced runs alternate untraced and traced rounds, starting untraced.
    rounds, longest = [], 0.0
    need = 2 if args.trace else 1
    t_rounds = perf_counter()
    while True:
        elapsed = perf_counter() - t_rounds
        if len(rounds) >= need and elapsed + longest > args.seconds:
            break
        if len(rounds) >= need and perf_counter() - start + longest > RUN_LIMIT_S:
            break
        traced = args.trace and len(rounds) % 2 == 1
        seed = args.seed * 1000 + len(rounds)
        t0 = perf_counter()
        deadline = max(10.0, RUN_LIMIT_S - (t0 - start))
        result = run_round(args.workload, seed, int(traced), env, deadline)
        result["traced"] = bool(traced)
        rounds.append(result)
        longest = max(longest, perf_counter() - t0)
        if result.get("failed_round"):
            break
        if setup:
            t_setup = perf_counter()
            setup.take(SETUP_PER_GAP)
            t_rounds += perf_counter() - t_setup  # set-up starts are not round time
    errors = []
    if setup:
        setup.take(SETUP_MIN - len(setup.times))
        errors = setup.errors

    ops = [op for r in rounds for op in r["ops"]]
    failures = [op for op in ops if op["failure"]]
    correct = not errors and not any(op["wrong"] for op in ops)
    plain = [r for r in rounds if not r["traced"] and r["wall_s"] is not None]
    traced = [r for r in rounds if r["traced"] and r["wall_s"] is not None]

    metrics: dict[str, dict] = {}
    missing = []
    if args.trace:
        if traced and plain:
            layers, missing = layer_metrics([r["layers"] for r in traced])
            overhead = (statistics.median(r["wall_s"] for r in traced)
                        - statistics.median(r["wall_s"] for r in plain))
            layers["trace.overhead_s"] = (overhead, "s")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
    elif plain:
        metrics = {
            "setup_s": {"value": statistics.median(setup.times), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
            "largest_case_s": {"value": statistics.median(r["largest_case_s"] for r in plain),
                               "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_kb"] for r in plain) / 1024,
                            "unit": "MB"},
        }

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0], "setup_errors": errors,
        "trace_missing": missing, "rounds": rounds, "metrics": metrics,
    }
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"(traced {len(traced)}) ops={len(ops)} failed={len(failures)} details={path}")
    for msg in errors[:5]:
        print(f"SETUP FAIL {msg}")
    for target, name in missing:
        print(f"TRACE FAIL {target} not found: metrics of {name} left out")
    for op in failures[:10]:
        print(f"FAIL {op['id']}: {op['failure']}")
    if "bijective_cells" in rounds[0]:
        print(f"series coefficients checked at gcd(M, |GU(n,q)|) = 1: "
              f"{rounds[0]['bijective_cells']} per round")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct and metrics and not missing else 1


if __name__ == "__main__":
    sys.exit(main())
