"""Where a result was measured: enough to explain a gap from the artifact.

A 10x difference between two runs is often the kernel backend (numba
against the numpy fallback) or the machine; both are recorded with every
result.  The binorms backend itself is reported by the worker, which
imports binorms.
"""

from __future__ import annotations

import importlib.util
import os
import platform
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git_commit(root: Path = ROOT) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git work tree."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def collect() -> dict:
    numpy_spec = importlib.util.find_spec("numpy")
    version = "absent"
    if numpy_spec is not None:
        import numpy

        version = numpy.__version__
    return {
        "python": platform.python_version(),
        "numpy": version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }
