"""Run the benchmark once per seed and summarise each end-to-end metric: its
median, quartiles, and the interquartile spread as a share of the median,
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py

It runs every workload of BENCHMARK.json with seeds 1-10 and its
run_seconds.

This is the command behind the reference figures in perfbench/README.md.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in SEEDS:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add((result["failed"] / result["attempted"], result["correct"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed={seed} exit={proc.returncode} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "bound": bounds.get(name), "values": vals}
            flag = "" if rows[name]["spread"] < bounds.get(name, 1) / 3 else "  > bound/3"
            print(f"  {workload} {name}: median {med:.5g} [q1 {q1:.5g}, q3 {q3:.5g}] "
                  f"spread {rows[name]['spread']:.2%} bound {bounds.get(name)}{flag}")
        print(f"  {workload} failed share / correct: {sorted(shares)}")
        summary[workload] = rows
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "spread.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
