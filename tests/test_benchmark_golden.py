"""The benchmark's ball-search strata still give their golden results.

The `job-batch` strata `perm-bfs5`, `perm-bfs6`, `expected-error`,
`lattice-detect`, `heis-detect` and `lattice-extend` run every task
through ``perfbench/tasks.py`` in a fresh interpreter, as the benchmark's
worker does, and compare the canonical result with
``perfbench/data/job-batch.golden.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STRATA = ("perm-bfs5", "perm-bfs6", "expected-error", "lattice-detect", "heis-detect",
          "lattice-extend")

RUN = (
    "import json, sys\n"
    f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
    "import tasks, workloads\n"
    "golden = workloads.load_golden('job-batch')\n"
    "env = tasks.Env('job-batch')\n"
    "ran, differing = 0, []\n"
    "for stratum in workloads.load_universe('job-batch'):\n"
    f"    if stratum['name'] not in {STRATA!r}:\n"
    "        continue\n"
    "    for spec in stratum['tasks']:\n"
    "        try:\n"
    "            text = tasks.canonical(spec, tasks.run(env, spec))\n"
    "        except Exception as exc:\n"
    "            text = f'raised:{type(exc).__name__}: {exc}'\n"
    "        ran += 1\n"
    "        key = workloads.task_key(spec)\n"
    "        if text != golden[key]:\n"
    "            differing.append([key, text, golden[key]])\n"
    "print(json.dumps({'ran': ran, 'differing': differing}))\n"
)


def test_ball_search_strata_match_golden():
    done = subprocess.run([sys.executable, "-c", RUN], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    outcome = json.loads(done.stdout.splitlines()[-1])
    assert outcome["ran"] == 240
    assert outcome["differing"] == []
