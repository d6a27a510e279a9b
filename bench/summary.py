#!/usr/bin/env python3
"""Run the benchmark on every workload and print every metric.

    python3 bench/summary.py [--runs N] [--workloads ...]

For each workload: N end-to-end runs with seeds 1..N, each checked
for correctness, reported per metric as median and quartiles, with the
spread (interquartile range over median) beside the metric's bound from
BENCHMARK.json; failed_ops_frac is printed beside ok_ops_frac.  Then two
traced runs with seed 1, whose exact counters must repeat, and
their per-layer metrics.  Each run is its own process, one at a time.
Exits 1 if a run is incorrect, a counter does not repeat, or a layer
breakdown does not add up.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    return json.loads(out[-2])["detail"], json.loads(out[-1])


def spread(values) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("nan")


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=names)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    ok = True

    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units, failed_frac = {}, []
        for seed in range(1, args.runs + 1):
            detail, result = run_once(workload, seed, config["run_seconds"], 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT output", detail)
                ok = False
            failed_frac.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            env = detail["env"]
        print(f"\n== {workload}: {args.runs} runs, seeds 1..{args.runs}, "
              f"python {env['python']}, "
              f"nproc {env['nproc']}, loadavg at end {' '.join(env['loadavg_end'])}")
        print(f"   {'metric':16} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) > 1:
                q1, med, q3, rel = spread(vals)
            else:
                q1 = med = q3 = vals[0]
                rel = 0.0
            print(f"   {name:16} {units[name]:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rel:7.3f} {bounds.get(name, float('nan')):6.2f}")
        print(f"   {'failed_ops_frac':16} {'frac':6} {statistics.median(failed_frac):12.6g}")
        if workload in ("census10", "census12"):
            d = workload[-2:]
            base = detail["roadmap_baseline"]
            seconds, rows = base[f"census_d{d}_s"], base[f"census_d{d}_rows"]
            print(f"   recorded by hand before the benchmark: census d={d} "
                  f"{seconds} s for {rows} rows = {rows / seconds:.1f} rows/s")

        traces = [run_once(workload, 1, config["run_seconds"], 1) for _ in range(2)]
        (d1, r1), (d2, r2) = traces
        repeat = d1["counters"] == d2["counters"]
        adds_up = d1["balance"]["adds_up"] and d2["balance"]["adds_up"]
        ok = ok and repeat and adds_up and r1["correct"] and r2["correct"]
        print(f"   traced seed 1: counters repeat exactly: {repeat}; "
              f"layer self times + unattributed = traced op time: {adds_up}; "
              f"{d1['counters']['fractions']} Fractions per pass")
        for name, m in r1["metrics"].items():
            print(f"   {name:34} {m['unit']:9} {m['value']:12.6g} {r2['metrics'][name]['value']:12.6g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
