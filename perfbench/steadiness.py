#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how much each metric spreads.

    python3 perfbench/steadiness.py --workloads power-windows word-sweep \\
        --seeds 1-10 --seconds 30 [--out steady.json]

For every workload and end-to-end metric it prints the median of the runs
and their spread: (third quartile - first quartile) / median, with the
quartiles of ``statistics.quantiles(values, n=4)``.  A benchmark is steady
enough when each spread stays well inside the metric's bound in
BENCHMARK.json.  ``--out`` writes the figures, with the error counts, as
JSON in the shape of a point of trajectory.json.  Runs go one after the
other, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=180)
    return json.loads(proc.stdout.decode("utf-8").splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    seeds = seed_list(args.seeds)
    point = {"seeds": seeds, "run_seconds": args.seconds, "end_to_end": {}, "error_rate": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = first["unit"]
            print(f"  {workload:14} {name:14} median {metrics[name]['median']:12.6g}"
                  f"  spread {metrics[name]['spread']:.3f}", flush=True)
        point["end_to_end"][workload] = metrics
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        point["error_rate"][workload] = {"failed": failed, "attempted": attempted,
                                         "all_correct": all(r["correct"] for r in runs)}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(point, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
