"""Workload universes and the seeded task stream.

Each workload is a fixed universe of tasks, split into strata of similar
cost (task kind and input size), stored with its golden results under
``data/``.  A run's seed picks the tasks: round r takes, from every
stratum, the next task (or the next ``weight`` tasks) of a seeded
permutation of that stratum, and runs them in a seeded order.  Runs are whole rounds, so every run has
the same mix of strata whatever its length, and two seeds differ only in
which inputs of each stratum they draw.

The loop is closed: one caller, one task at a time, in one thread.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("power-windows", "word-sweep", "job-batch")

# The tail percentile of each workload: the highest that falls inside the
# workload's most expensive stratum (detect at length 3, the norm Lipschitz
# sweep, perm BFS at degree 6), where costs are nearly equal, and keeps
# >= 10 samples beyond it when a 30 s run completes half the tasks it did at
# the commit that defined the benchmark.
TAIL_CAP = {"power-windows": 95.0, "word-sweep": 95.0, "job-batch": 98.0}

# Rounds of the fixed-size traced run (untraced and traced twins).
TRACE_ROUNDS = {"power-windows": 3, "word-sweep": 12, "job-batch": 12}


def task_key(spec: list[str]) -> str:
    return " | ".join(spec)


def load_universe(workload: str) -> list[dict]:
    with open(DATA / f"{workload}.tasks.json", encoding="utf-8") as fh:
        return json.load(fh)["strata"]


def load_golden(workload: str) -> dict[str, str]:
    with open(DATA / f"{workload}.golden.json", encoding="utf-8") as fh:
        return json.load(fh)["results"]


class Stream:
    """The seeded sequence of rounds over a workload's universe."""

    def __init__(self, strata: list[dict], seed: int):
        self.strata = strata
        self._order = []
        for s in strata:
            perm = list(range(len(s["tasks"])))
            random.Random(f"{seed}:{s['name']}").shuffle(perm)
            self._order.append(perm)
        self._rounds = random.Random(f"{seed}:rounds")

    def round(self, r: int) -> list[list[str]]:
        """Round r: ``weight`` tasks (default 1) from every stratum, in a
        seeded order.  Rounds must be asked for in order 0, 1, 2, ..."""
        picks = []
        for s, perm in zip(self.strata, self._order):
            weight = s.get("weight", 1)
            for i in range(r * weight, (r + 1) * weight):
                picks.append(s["tasks"][perm[i % len(perm)]])
        self._rounds.shuffle(picks)
        return picks
