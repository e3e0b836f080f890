#!/usr/bin/env python3
"""The binorms benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload power-windows --seed 1 --seconds 30 --trace 0

Run from the repository root.  Every measurement happens in a fresh
worker interpreter (worker.py) and every task's exact result is checked
(checks.py).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of an untraced run.  Times
are rescaled to a machine of fixed speed, measured by a reference block
timed between tasks (see calibrate.py); the raw figures are in the
details line.

* ``tasks_per_s``   tasks completed per second the loop spent in tasks;
* ``task_p50_ms``   median task latency;
* ``task_tail_ms``  latency at the highest percentile with >= 10 samples
                    beyond it (capped per workload, see workloads.TAIL_CAP);
* ``peak_rss_mb``   peak resident memory of the worker;
* ``setup_s``       median over several fresh interpreters of importing
                    binorms (numpy is already loaded) and building the
                    workload's contexts, each rescaled by reference
                    samples taken right after.

The error rate (failed / attempted tasks) is the ``failed`` and
``attempted`` pair of the result line.

``--trace 1`` runs a fixed number of rounds twice, untraced and traced,
and reports the per-layer metrics of the traced twin, the tracing
overhead, and the kernel micro-benchmark.  Spans are written to
``.perfbench_out/<workload>.spans``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import micro  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from provenance import collect  # noqa: E402

SETUP_PROBES = 8
RUN_TIMEOUT_S = 170  # all workers of one run together

END_TO_END = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "kernels.calls": "count",
    "kernels.distinct": "count",
    "kernels.unique_frac": "frac",
    "kernels.self_s": "s",
    "kernels.cells": "count",
    "kernels.max_len": "count",
    "kernels.table_bytes_max": "B",
    **{micro.metric_name(s, n): "ms" for s in micro.SHAPES for n in micro.LENGTHS},
    "groups.words_built": "count",
    "groups.letters_reduced": "count",
    "groups.mul_calls": "count",
    "groups.self_s": "s",
    "norms.calls": "count",
    "norms.distinct": "count",
    "norms.self_s": "s",
    "norms.bfs_elements": "count",
    "norms.inexact": "count",
    "pqm.homogenise.calls": "count",
    "pqm.homogenise.self_s": "s",
    "pqm.detect.calls": "count",
    "pqm.detect.self_s": "s",
    "pqm.mcshane.evals": "count",
    "pqm.estimate.pairs": "count",
    "pqm.estimate.self_s": "s",
    "pqm.ctrick.calls": "count",
    "pqm.ctrick.self_s": "s",
    "cone.norm_at.calls": "count",
    "cone.self_s": "s",
    "cli.jobs": "count",
    "cli.self_s": "s",
    "cli.error_rows": "count",
    "reports.emit_s": "s",
    "trace.overhead_frac": "frac",
}


class WorkerError(Exception):
    pass


DEADLINE = time.monotonic() + RUN_TIMEOUT_S


def worker(workload: str, mode: str, seed: int, *extra: str) -> dict:
    """Run one worker; its summary, with its task records under "records"."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--mode", mode, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=False,
                              timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker did not finish within the run's {RUN_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.decode("utf-8").splitlines()
    summary = json.loads(lines[-1])
    summary["records"] = [json.loads(line) for line in lines[:-1]]
    return summary


def run_factor(run: dict) -> float:
    return calibrate.factor([ms for _, ms in run["ref_ms"]])


def check_results(checker: Checker, run: dict) -> None:
    for spec, _, result in run["records"]:
        checker.check(workloads.task_key(spec), spec, result)


def latency_metrics(lat: list[float], tail_cap: float) -> dict:
    tail_ms, tail_pct = stats.tail(lat, tail_cap)
    return {
        "tasks_per_s": 1000.0 * len(lat) / sum(lat),
        "task_p50_ms": statistics.median(lat),
        "task_tail_ms": tail_ms,
        "tail_percentile": tail_pct,
    }


def end_to_end(workload: str, seed: int, seconds: float, checker: Checker) -> tuple[dict, dict]:
    probes = [worker(workload, "setup", seed) for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] / calibrate.factor(p["ref_ms"]) for p in probes]
    run = worker(workload, "timed", seed, "--seconds", str(seconds))
    check_results(checker, run)
    raw = [ms for _, ms, _ in run["records"]]
    factors = calibrate.local_factors(run["ref_ms"], len(raw))
    lat = [ms / f for ms, f in zip(raw, factors)]
    metrics = latency_metrics(lat, workloads.TAIL_CAP[workload])
    tail_pct = metrics.pop("tail_percentile")
    metrics["peak_rss_mb"] = run["peak_rss_mb"]
    metrics["setup_s"] = statistics.median(setups)
    raw_metrics = latency_metrics(raw, workloads.TAIL_CAP[workload])
    raw_metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    ref_ms = [ms for _, ms in run["ref_ms"]]
    details = {
        "samples": len(lat),
        "tail_percentile": tail_pct,
        "tail_beyond": stats.beyond(len(lat), tail_pct),
        "loop_wall_s": run["wall_s"],
        "speed_factor": {"median": calibrate.factor(ref_ms),
                         "min": min(factors), "max": max(factors)},
        "reference_samples": len(ref_ms),
        "raw": raw_metrics,
        "setup_samples_s": setups,
        "provenance": run["provenance"],
    }
    return metrics, details


def per_layer(workload: str, seed: int, checker: Checker) -> tuple[dict, dict]:
    rounds = str(workloads.TRACE_ROUNDS[workload])
    plain = worker(workload, "fixed", seed, "--rounds", rounds)
    traced = worker(workload, "fixed", seed, "--rounds", rounds, "--trace",
                    "--spans", str(OUT / workload))
    kernel = worker(workload, "micro", seed)
    check_results(checker, plain)
    check_results(checker, traced)
    micro_problems = micro.check(kernel["micro"])
    metrics = dict(traced["layers"])
    metrics.update({name: v[0] for name, v in kernel["micro"].items()})
    metrics["trace.overhead_frac"] = (traced["wall_s"] / run_factor(traced)) / (
        plain["wall_s"] / run_factor(plain)) - 1.0
    details = {
        "tasks_per_twin": traced["tasks"],
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "speed_factor": [run_factor(plain), run_factor(traced)],
        "spans": traced["spans"],
        "spans_dropped": traced["spans_dropped"],
        "micro_median_q1_q3_norm": kernel["micro"],
        "micro_problems": micro_problems,
        "provenance": traced["provenance"],
    }
    return metrics, details


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "binorms" / "__init__.py").is_file():
        print(f"error: no binorms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    checker = Checker(workloads.load_golden(args.workload))
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, details = per_layer(args.workload, args.seed, checker)
            units = PER_LAYER
        else:
            metrics, details = end_to_end(args.workload, args.seed, args.seconds, checker)
            units = END_TO_END
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    details["provenance"].update(collect())
    problems = checker.problems + details.get("micro_problems", [])
    correct = checker.failed == 0 and not details.get("micro_problems")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:28} {metrics[name]:>16.6g} {unit}")
    print(f"  {'error_rate':28} {checker.failed / max(checker.attempted, 1):>16.6g}"
          f" ({checker.failed}/{checker.attempted})")
    print("details " + json.dumps(details, sort_keys=True))
    for p in problems:
        print("FAIL " + p)
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "result": result, "details": details,
                   "problems": problems}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
