"""Machine-speed calibration: a fixed reference block timed between tasks.

The benchmark runs on shared machines whose speed drifts by a third or
more within minutes, as other tenants come and go.  Two runs of the same
code then differ more than a real optimisation would.  To take the
machine's speed out of the end-to-end metrics, each measured process
times a fixed reference block, which does not touch binorms, between
tasks, once every ``EVERY_S`` seconds of its loop.  Each task's latency
is then rescaled to a machine on which the block takes ``NOMINAL_MS``,
using the reference samples taken around the task:

    latency_at_nominal = latency_measured * NOMINAL_MS / local median

A change to binorms moves the task latencies but not the reference
block, so it shows in full.  The raw latencies are summarised in the
result's details.

The block is a frozen copy of the interval DP of the numpy kernel, run on
a fixed word, plus some tuple and dict work as in word arithmetic: the
same kinds of work as the workloads, so a busy neighbour slows both
alike.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# About the median time of one reference block on the machine the
# benchmark was defined on (2 vCPUs of a shared host, CPython 3.11,
# numpy 2.4).  It only sets the scale; it must stay fixed so that results
# stay comparable.
NOMINAL_MS = 2.5

# Seconds of loop time between two reference samples.
EVERY_S = 0.1

# A task's latency is rescaled by the median of the WINDOW samples taken
# before it and the WINDOW taken after it (about 0.8 s of loop time).
WINDOW = 4

_WORD = (1, 2, -1, -2, 1, 1, -2, 2, -1, 2, 1, -2, -1, -1, 2, -2, 1, 2)


def _interval_dp(word: tuple) -> int:
    codes = np.array(word, dtype=np.int64)
    n = int(codes.shape[0])
    table = np.zeros((n + 2, n + 2), dtype=np.int64)
    for span in range(1, n + 1):
        for i in range(n - span + 1):
            j = i + span - 1
            best = table[i + 1, j + 1] + 1
            ks = np.nonzero(codes[i + 1:j + 1] == -codes[i])[0]
            if ks.size:
                ks = ks + i + 1
                cand = int(np.min(table[i + 1, ks] + table[ks + 1, j + 1]))
                if cand < best:
                    best = cand
            table[i, j + 1] = best
    return int(table[0, n])


def reference_block() -> int:
    """A fixed amount of work independent of binorms; returns a checksum
    so that nothing is skipped."""
    acc = _interval_dp(_WORD)
    seen: dict[tuple, int] = {}
    for k in range(300):
        word = tuple((k * 7 + j) % 5 - 2 for j in range(k % 9))
        seen[word] = seen.get(word, 0) + 1
    return acc + len(seen)


def time_block() -> float:
    """Milliseconds one reference block takes now."""
    t0 = time.perf_counter()
    reference_block()
    return (time.perf_counter() - t0) * 1000.0


def sample(count: int) -> list[float]:
    return [time_block() for _ in range(count)]


def factor(samples: list[float]) -> float:
    """How much slower than nominal the machine ran: median / NOMINAL_MS."""
    return statistics.median(samples) / NOMINAL_MS


def local_factors(refs: list[list[float]], n_tasks: int) -> list[float]:
    """The factor for each of ``n_tasks`` tasks.  ``refs`` holds
    ``[tasks done before the sample, ms]`` pairs in loop order; a task
    uses the WINDOW samples before it and the WINDOW after it, or the
    2 * WINDOW nearest at either end of the loop."""
    done = [d for d, _ in refs]
    ms = [m for _, m in refs]
    span = min(2 * WINDOW, len(ms))
    out = []
    for task in range(n_tasks):
        before = bisect.bisect_right(done, task)
        lo = min(max(0, before - WINDOW), len(ms) - span)
        out.append(factor(ms[lo:lo + span]))
    return out
