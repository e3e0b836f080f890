"""One measured process: set-up, then a closed loop of tasks.

Started by run.py, one fresh interpreter per measurement.  Prints one JSON
line per task (spec, latency in ms, canonical result) and, last, one JSON
object with the run's summary.  Modes:

* ``setup``  import binorms and build the workload's contexts, then time
             the reference block (calibrate.py) a few times;
* ``timed``  whole rounds of the seeded stream until ``--seconds`` pass;
* ``fixed``  exactly ``--rounds`` rounds, traced with ``--trace``;
* ``micro``  the kernel micro-benchmark (see micro.py).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# calibrate imports numpy, so numpy is loaded before set-up is timed.  Its
# import takes 0.1-0.3 s on a shared 2-vCPU host and swings with the host's
# disk and memory load, none of which binorms controls; set-up time is
# binorms's own.
import calibrate  # noqa: E402
import workloads  # noqa: E402


# Reference samples a setup worker takes after setting up.
SETUP_REFS = 15


def set_up(workload: str):
    start = time.perf_counter()
    tasks = importlib.import_module("tasks")
    env = tasks.Env(workload)
    return tasks, env, time.perf_counter() - start


def closed_loop(tasks, env, stream, keep_going, tracer=None) -> tuple[float, int, list[list]]:
    """Run rounds while ``keep_going(rounds_done, elapsed)``.  Each task's
    spec, latency and canonical result go to stdout as soon as it ends, so
    the worker's memory does not grow with the number of tasks.  Between
    tasks, every ``calibrate.EVERY_S`` seconds, one reference block is
    timed.  Returns (wall seconds, tasks run, reference samples as
    [tasks done before it, ms])."""
    clock = time.perf_counter
    write = sys.stdout.write
    refs = [[0, ms] for ms in calibrate.sample(3)]
    start = next_ref = clock()
    rounds = done = 0
    while keep_going(rounds, clock() - start):
        for spec in stream.round(rounds):
            if clock() >= next_ref:
                refs.append([done, calibrate.time_block()])
                next_ref = clock() + calibrate.EVERY_S
            if tracer is not None:
                tracer.task_id = done
            t0 = clock()
            try:
                result = tasks.run(env, spec)
            except Exception as exc:  # noqa: BLE001 - a failed task is data
                ms = (clock() - t0) * 1000.0
                text = f"raised:{type(exc).__name__}: {exc}"
            else:
                ms = (clock() - t0) * 1000.0
                text = tasks.canonical(spec, result)
            write(json.dumps([spec, ms, text]) + "\n")
            done += 1
        rounds += 1
    return clock() - start, done, refs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "fixed", "micro"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="path stem for the span dump")
    args = ap.parse_args()

    strata = workloads.load_universe(args.workload)
    stream = workloads.Stream(strata, args.seed)
    tasks, env, setup_s = set_up(args.workload)
    out = {"setup_s": setup_s, "provenance": tasks.provenance()}
    if args.mode == "setup":
        out["ref_ms"] = calibrate.sample(SETUP_REFS)
    elif args.mode == "micro":
        import micro

        out["micro"] = micro.measure(args.seed)
    else:
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        if args.mode == "timed":
            def keep_going(rounds, elapsed):
                return elapsed < args.seconds
        else:
            def keep_going(rounds, elapsed):
                return rounds < args.rounds
        wall, done, refs = closed_loop(tasks, env, stream, keep_going, tracer)
        out.update(wall_s=wall, tasks=done, ref_ms=refs,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(tracer)
            out["spans"] = len(tracer.span_index)
            out["spans_dropped"] = tracer.dropped
            if args.spans:
                tracer.write(Path(args.spans))
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
