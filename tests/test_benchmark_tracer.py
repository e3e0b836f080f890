"""The benchmark's layer tracer (``perfbench/tracer.py``) wraps binorms
functions by name, so renaming or deleting one breaks every traced run.
Installing it in a fresh interpreter finds a missing name at once."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = (
    "import sys\n"
    f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
    "import tracer\n"
    "tracer.install(tracer.Tracer())\n"
)


def test_tracer_installs_on_every_name_it_wraps():
    done = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
