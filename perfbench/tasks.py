"""Task executors: the calls each workload makes into binorms.

Importing this module imports binorms.  Every call goes through a module
attribute (``pqm.homogenise``, ``cli.run_job``, ...) so that the tracer's
run-time patches see it.  ``run`` is the timed part of a task;
``canonical`` turns its result into the exact text compared with golden,
outside the timing.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import binorms  # noqa: E402
from binorms import cli, cone, kernels, norms, pqm, reports, sampling  # noqa: E402

SWEEP_MAXLEN = 4
BROOKS_PATTERNS = ("a b", "a a", "a b^-1")
WINDOW = 8
DETECT_WINDOW = 8


def fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return repr(v)
    return str(v)


class Env:
    """Contexts built once per worker: the part of set-up users pay."""

    def __init__(self, workload: str):
        self.workload = workload
        if workload == "job-batch":
            return
        self.ctx = norms.free_cancellation_context(2)
        self.norm = pqm.norm_handle(self.ctx)
        self.schemes = {
            "plain": pqm.LimitScheme("plain", WINDOW),
            "arith:2": pqm.LimitScheme("arith", WINDOW, k=2),
            "cesaro": pqm.LimitScheme("cesaro", WINDOW),
        }
        self.detect_scheme = pqm.LimitScheme("arith", WINDOW, k=1)
        self.brooks = {p: pqm.brooks_qm(self.ctx.decode(p), self.ctx) for p in BROOKS_PATTERNS}
        # compiles the kernel when numba is the active backend
        self.ctx.norm(self.ctx.decode("a b a^-1 b^-1"))


def run(env: Env, spec: list[str]):
    kind = spec[0]
    if kind == "hom":
        g = env.ctx.decode(spec[2])
        return pqm.homogenise(env.norm, g, env.schemes[spec[1]])
    if kind == "detect":
        g = env.ctx.decode(spec[1])
        return pqm.detect_undistorted(env.ctx, g, env.detect_scheme, DETECT_WINDOW)
    if kind == "cone":
        p = cone.eta(env.ctx, env.ctx.decode(spec[1]))
        q = cone.eta(env.ctx, env.ctx.decode(spec[2]))
        return cone.cone_dist(p, q, env.schemes["plain"])
    if kind in ("defect", "lipschitz"):
        g = env.ctx.decode(spec[-1])
        pairs = [(g, h) for h in sampling.all_reduced_words(2, SWEEP_MAXLEN)]
        if kind == "lipschitz":
            return pqm.lipschitz_estimate(env.norm, pairs)
        return pqm.defect_estimate(env.brooks[spec[1]], pairs)
    if kind == "ctrick":
        g, h = env.ctx.decode(spec[1]), env.ctx.decode(spec[2])
        res = pqm.c_trick_witness(g, h, int(spec[3]), base=spec[4])
        return res, res.norm_bound_check(env.ctx.norm_exact)
    if kind == "job":
        jobs, errors = cli.parse_jobfile(spec[1])
        if errors:
            raise ValueError("; ".join(errors))
        result = cli.run_job(jobs[0])
        rows = [r.as_dict(reproducible=True) for r in result.rows]
        reports.emit(rows, "csv", "-", reports.CLI_REPORT_COLUMNS)
        return result
    raise ValueError(f"unknown task kind {kind!r}")


def canonical(spec: list[str], res) -> str:
    kind = spec[0]
    if kind == "hom":
        return "|".join([fmt(res.estimate), fmt(res.liminf_est), fmt(res.limsup_est),
                         fmt(res.converged), ",".join(fmt(v) for v in res.values)])
    if kind == "detect":
        return "|".join([res.verdict, fmt(res.c_est), fmt(res.value_at_g),
                         ",".join(fmt(norm) for _, norm, _ in res.trace)])
    if kind == "cone":
        return "|".join([fmt(res.value), fmt(res.liminf_est), fmt(res.limsup_est),
                         ",".join(fmt(ratio) for _, ratio in res.trace)])
    if kind in ("defect", "lipschitz"):
        return "|".join([fmt(res.value), ";".join(res.witness or ()),
                         str(res.n_samples), str(res.zero_min_violations)])
    if kind == "ctrick":
        witnesses, (lhs, rhs) = res
        return f"{fmt(lhs)}|{fmt(rhs)}|{len(witnesses.witnesses)}"
    if kind == "job":
        return "\n".join(
            f"error:{r.value}" if r.quantity == "error"
            else "|".join([r.quantity, r.value, r.spread, r.exact, r.witness])
            for r in res.rows
        )
    raise ValueError(f"unknown task kind {kind!r}")


def provenance() -> dict:
    return {
        "binorms_backend": binorms.ACTIVE_BACKEND,
        "numba_available": kernels.NUMBA_AVAILABLE,
    }

