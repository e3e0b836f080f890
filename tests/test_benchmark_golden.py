"""The benchmark strata that guard the ball searches, the detector and the
scheme limits still give their golden results.

Each (workload, strata) pair in ``GUARDED`` runs every task of those strata
through ``perfbench/tasks.py`` in a fresh interpreter, as the benchmark's
worker does, and compares the canonical result with
``perfbench/data/<workload>.golden.json``:

* `job-batch` `perm-bfs5`, `perm-bfs6`, `expected-error`, `lattice-detect`,
  `heis-detect` and `lattice-extend`: the ball searches, the detector and
  the extension through the CLI path;
* `power-windows` `detect-L1`..`detect-L3`: the detector on the
  cancellation-DP backend;
* `job-batch` `walk` and `fekete`: tail means of ``pqm.scheme_limit`` that
  a summation in another order would change;
* `power-windows` `cone-L4` and `job-batch` `cone` and `pullback`: cone
  points, cone norms and distances, and pullback defects.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GUARDED = (
    ("job-batch", ("perm-bfs5", "perm-bfs6", "expected-error", "lattice-detect", "heis-detect",
                   "lattice-extend", "walk", "fekete", "cone", "pullback")),
    ("power-windows", ("detect-L1", "detect-L2", "detect-L3", "cone-L4")),
)

RUN = (
    "import json, sys\n"
    f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
    "import tasks, workloads\n"
    "ran, differing = 0, []\n"
    f"for workload, strata in {GUARDED!r}:\n"
    "    golden = workloads.load_golden(workload)\n"
    "    env = tasks.Env(workload)\n"
    "    for stratum in workloads.load_universe(workload):\n"
    "        if stratum['name'] not in strata:\n"
    "            continue\n"
    "        for spec in stratum['tasks']:\n"
    "            try:\n"
    "                text = tasks.canonical(spec, tasks.run(env, spec))\n"
    "            except Exception as exc:\n"
    "                text = f'raised:{type(exc).__name__}: {exc}'\n"
    "            ran += 1\n"
    "            key = workloads.task_key(spec)\n"
    "            if text != golden[key]:\n"
    "                differing.append([workload, key, text, golden[key]])\n"
    "print(json.dumps({'ran': ran, 'differing': differing}))\n"
)


def test_guarded_strata_match_golden():
    done = subprocess.run([sys.executable, "-c", RUN], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    outcome = json.loads(done.stdout.splitlines()[-1])
    assert outcome["ran"] == 453
    assert outcome["differing"] == []
