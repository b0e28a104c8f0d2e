"""One round of a workload, in a process of its own: run every case once,
then check the outputs, and print a JSON summary as the last line of stdout.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 --out DIR --deadline S

`--seed` sets the case order.  `oracle` starts one CLI process per case;
`series` and `enumerate` call the package in this process.  The peak
memory and the tracer's report are taken before the checks run, and the
checking modules are imported only then.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import resource
import sys
import types
from time import perf_counter

import workloads as wl
from tracer import Tracer, merge_reports


def _oracle_round(case_list, args):
    results, reports = [], []
    env = dict(os.environ)
    end = perf_counter() + args.deadline
    for case in case_list:
        files = None
        if args.trace:
            slug = re.sub(r"[^A-Za-z0-9]+", "_", case.id)
            files = tuple(os.path.join(args.out, f"{kind}-oracle-{slug}.json")
                          for kind in ("report", "spans"))
        timeout = min(wl.CLI_TIMEOUT, end - perf_counter())
        if timeout <= 0:
            results.append((wl.Outcome(case.id, 0.0, "not run: round deadline passed"), None))
            continue
        results.append(wl.run_oracle_case(case, env, files, timeout))
        if files and os.path.exists(files[0]):
            with open(files[0], encoding="utf-8") as fh:
                reports.append(json.load(fh))
            os.remove(files[0])
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return results, reports, peak_kb


def _in_process_round(case_list, args):
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    from unitary_powers import cli, counts, gf, polyalg

    up = types.SimpleNamespace(gf=gf, polyalg=polyalg, counts=counts)
    results = []
    for case in case_list:
        if tracer:
            tracer.case = case.id
        if args.workload == "series":
            results.append(wl.run_series_case(case, cli))
        else:
            results.append(wl.run_enumerate_case(case, up))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reports = []
    if tracer:
        reports.append(tracer.report())
        tracer.write_spans(os.path.join(args.out, f"spans-{args.workload}.json"))
    return results, reports, peak_kb


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--deadline", type=float, default=170.0)
    args = parser.parse_args()
    case_list = wl.cases(args.workload, args.seed)
    run = _oracle_round if args.workload == "oracle" else _in_process_round
    results, reports, peak_kb = run(case_list, args)

    import checks

    extra = checks.check_round(args.workload, case_list, results)
    outcomes = [outcome for outcome, _ in results]
    largest = [o.seconds for o in outcomes if o.id == wl.LARGEST[args.workload]]
    summary = {
        "seed": args.seed,
        "order": [case.id for case in case_list],
        "ops": [dataclasses.asdict(o) for o in outcomes],
        "wall_s": sum(o.seconds for o in outcomes),
        "largest_case_s": largest[0] if largest else None,
        "peak_rss_kb": peak_kb,
        "layers": merge_reports(reports) if args.trace else None,
        **extra,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
