"""Batch front-end: job specs in, CSV/JSON reports out.

A job file holds one or more blocks::

    job {
      task = norm
      family = lattice
      dim = 2
      element = [3,-2]
    }

Each task has one entry in ``TASKS``: the keys it reads, whether it takes
a group context, its default window and scheme, and its runner.  Parsing,
validation, the ``run --window/--scheme`` overrides, the single-task
subcommands and dispatch all read that entry, so a key is accepted
exactly when the task reads it; ``KEYS`` gives each key's type and help.

Parsing is strict: unknown keys, missing required keys and malformed
values are all collected and reported together with line numbers, and a
job never runs from a partially understood spec.  Runs are deterministic:
seeds default to a fixed constant, rows are emitted in spec order, and
``--reproducible`` blanks the wall-time column so repeated runs produce
byte-identical files.

Exit codes: 0 success, 1 any error row, 2 spec errors.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import cone as cone_mod
from . import pqm as pqm_mod
from .groups import EncodingError, FamilyMismatchError, FreeWord, LatticeVector, decode
from .norms import (BACKENDS, FAMILIES, BudgetError, GeneratingSet, GroupContext,
                    InexactNormError, NormError, standard_generators)
from .pqm import (
    FeketeHypothesisError,
    FiniteOrderError,
    LimitScheme,
    PqmError,
    SubadditiveCorrection,
    WalkSpecError,
    WindowCertificateError,
)
from .reports import CLI_REPORT_COLUMNS, EmitError, ReportRow, emit, format_number, write_trace
from .sampling import DEFAULT_SEED, element_sampler, sample_pairs


class JobSpecError(Exception):
    """Carries every collected spec error, not just the first."""

    def __init__(self, errors: Sequence[str]):
        super().__init__("\n".join(errors))
        self.errors = list(errors)


@dataclass
class JobSpec:
    task: str
    params: dict[str, str]


# ---------------------------------------------------------------------------
# job keys


class Key(NamedTuple):
    """How a job key is read: its argparse type and help, and whether its
    value is echoed in the ``inputs`` column."""

    type: type = str
    help: str | None = None
    input: bool = False


# every job key besides ``task``; ``inputs`` lists the input keys in this order
KEYS: dict[str, Key] = {
    "element": Key(input=True),
    "element2": Key(input=True),
    "n": Key(int, input=True),
    "c": Key(input=True),
    "at": Key(help="semicolon-separated element encodings", input=True),
    "function": Key(help="norm | brooks:<pattern> | coord:<i> | scale:<k> | walk:<kind>", input=True),
    "functional": Key(help="cone-norm | coord:<i>", input=True),
    "walk": Key(help="alternating | all-up | doubling-blocks", input=True),
    "sequence": Key(help="linear:<a> | halfceil | sqrt-drift:<a>", input=True),
    "phi": Key(help="zero | const:<d> | sqrt:<c>", input=True),
    "samples": Key(int, help="at least 1", input=True),
    "maxlen": Key(int),
    "base": Key(help="g | h"),
    "family": Key(help=" | ".join(FAMILIES)),
    "rank": Key(int),
    "dim": Key(int),
    "degree": Key(int),
    "generators": Key(help="explicit:<encs> | normal:<encs> | all-commutators"),
    "backend": Key(),
    "seed": Key(int),
    "window": Key(int),
    "scheme": Key(help="plain | arith:<k> | cesaro"),
}

CONTEXT_KEYS = ("family", "rank", "dim", "degree", "generators", "backend")


class Task(NamedTuple):
    """One job task: the keys it reads, its defaults and its runner.

    ``window`` and ``scheme`` are the task's defaults, ``None`` when it
    takes none.  ``run(spec, ctx, seed)`` gets the group context (``None``
    for context-free tasks) and returns the fields of each row it adds,
    plus its traces; dispatch adds the fields every row of the job shares.
    """

    run: Callable[..., tuple[list[dict], list]]
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    context: bool = True
    window: int | None = None
    scheme: str | None = None

    @property
    def keys(self) -> tuple[str, ...]:
        """Every key the task reads, besides ``task``."""
        keys = self.required + self.optional + (CONTEXT_KEYS if self.context else ()) + ("seed",)
        return keys + tuple(k for k in ("window", "scheme") if getattr(self, k) is not None)


# ---------------------------------------------------------------------------
# parsing


def parse_jobfile(text: str) -> tuple[list[JobSpec], list[str]]:
    """Parse a whole job file; returns (jobs, errors) with every error found."""
    return _validate_blocks(*_read_blocks(text))


def _read_blocks(text: str) -> tuple[list[tuple[dict[str, str], int]], list[str]]:
    """The file's job blocks as (entries, opening line), and its syntax errors."""
    blocks: list[tuple[dict[str, str], int]] = []
    errors: list[str] = []
    current: dict[str, str] | None = None
    current_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "job {":
            if current is not None:
                errors.append(f"line {lineno}: nested job block")
            current = {}
            current_line = lineno
            continue
        if line == "}":
            if current is None:
                errors.append(f"line {lineno}: stray closing brace")
                continue
            blocks.append((current, current_line))
            current = None
            continue
        if current is None:
            errors.append(f"line {lineno}: expected 'job {{', got {line!r}")
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in current:
            errors.append(f"line {lineno}: duplicate key {key!r}")
        current[key] = value
    if current is not None:
        errors.append(f"line {current_line}: unterminated job block")
    return blocks, errors


def _validate_blocks(blocks: list[tuple[dict[str, str], int]],
                     errors: list[str]) -> tuple[list[JobSpec], list[str]]:
    """Validate the blocks in file order (``job[k]`` is the k-th block),
    adding their errors, each with its block's line, to ``errors``."""
    jobs: list[JobSpec] = []
    for index, (params, line) in enumerate(blocks):
        job, job_errors = _validate_job(params, index)
        errors.extend(f"{e} (line {line})" for e in job_errors)
        if job is not None:
            jobs.append(job)
    return jobs, errors


def _validate_job(params: dict[str, str], index: int) -> tuple[JobSpec | None, list[str]]:
    errors: list[str] = []
    path = f"job[{index}]"
    name = params.get("task")
    if name is None:
        return None, [f"{path}: missing required key 'task'"]
    task = TASKS.get(name)
    if task is None:
        return None, [f"{path}.task: unknown task {name!r}"]
    keys = task.keys
    family = params.get("family")
    for key, value in params.items():
        if key == "task":
            continue
        if key not in keys:
            errors.append(f"{path}.{key}: unknown key for task {name!r}")
        elif (family in FAMILIES and key != FAMILIES[family].size_key
              and key in {f.size_key for f in FAMILIES.values()}):
            errors.append(f"{path}.{key}: unknown key for family {family!r}")
        elif KEYS[key].type is int:
            try:
                if int(value) < 1 and key == "samples":
                    errors.append(f"{path}.samples: expected at least 1, got {value!r}")
            except ValueError:
                errors.append(f"{path}.{key}: expected an integer, got {value!r}")
        elif key == "family" and value not in FAMILIES:
            errors.append(f"{path}.family: unknown family {value!r}")
    # the scheme reads the job window (a malformed one is reported above);
    # detect derives its scheme window when it runs
    if task.scheme is not None and not any(e.startswith(f"{path}.window:") for e in errors):
        window = 8 if name == "detect" else int(params.get("window", task.window))
        try:
            LimitScheme.parse(params.get("scheme", task.scheme), window)
        except ValueError as exc:
            errors.append(f"{path}.scheme: {exc}")
    for key in task.required:
        if key not in params:
            errors.append(f"{path}: missing required key {key!r} for task {name!r}")
    if task.context and "family" not in params:
        errors.append(f"{path}: missing required key 'family'")
    if errors:
        return None, errors
    return JobSpec(name, dict(params)), []


def _split_encodings(text: str) -> list[str]:
    """Split a comma-separated encoding list, respecting () and []."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur).strip())
    return [p for p in parts if p]


# ---------------------------------------------------------------------------
# context construction


def build_context(params: dict[str, str]) -> GroupContext:
    family = params["family"]
    rank = int(params.get("rank", 2))
    dim = int(params.get("dim", 2))
    degree = int(params.get("degree", 5))
    backend = params.get("backend", FAMILIES[family].backend)
    row = BACKENDS.get(backend)
    gen_text = params.get("generators")
    if gen_text is not None:
        gens = _parse_generators(gen_text, family, rank, dim)
    elif row is not None and row.generators == "all-commutators":
        gens = GeneratingSet.all_commutators()
    else:
        gens = standard_generators(family, rank, dim)
    return GroupContext(family, gens, backend, rank=rank, degree=degree, dim=dim)


def _parse_generators(text: str, family: str, rank: int, dim: int) -> GeneratingSet:
    if text == "all-commutators":
        return GeneratingSet.all_commutators()
    kind, _, body = text.partition(":")
    if kind == "explicit" and body == "standard":
        if family != "lattice":
            raise NormError("explicit:standard is only defined for lattice contexts")
        return standard_generators("lattice", dim=dim)
    if kind in ("explicit", "normal"):
        elems = tuple(decode(family, enc, rank=rank) for enc in _split_encodings(body))
        if not elems:
            raise NormError(f"empty generator list in {text!r}")
        if kind == "explicit":
            return GeneratingSet.explicit_symmetrized(elems)
        return GeneratingSet.normal_closure(elems)
    raise NormError(f"bad generators value {text!r}")


# ---------------------------------------------------------------------------
# job execution

ERROR_CODES = [
    (InexactNormError, "E_NORM_INEXACT"),
    (FamilyMismatchError, "E_FAMILY_MISMATCH"),
    (EncodingError, "E_ENCODING"),
    (FiniteOrderError, "E_FINITE_ORDER"),
    (WindowCertificateError, "E_WINDOW_CERT"),
    (FeketeHypothesisError, "E_FEKETE_HYPOTHESIS"),
    (WalkSpecError, "E_WALK_SPEC"),
    (cone_mod.GrowthCertificateError, "E_GROWTH_CERT"),
    (cone_mod.ConeError, "E_CONE"),
    (PqmError, "E_PQM"),
    (BudgetError, "E_BUDGET"),
    (NormError, "E_NORM"),
    (ValueError, "E_VALUE"),
]


@dataclass
class JobResult:
    rows: list[ReportRow]
    traces: list[list[tuple]] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(r.quantity == "error" for r in self.rows)


def run_job(spec: JobSpec) -> JobResult:
    """Execute one validated job; backend errors become error rows with a
    stable machine-readable code."""
    start = time.perf_counter()
    try:
        result = _dispatch(spec)
    except Exception as exc:  # noqa: BLE001 - rendered as a typed error row
        code = next((c for klass, c in ERROR_CODES if isinstance(exc, klass)), "E_INTERNAL")
        result = JobResult([ReportRow(
            context_id=spec.params.get("family", "-"), task=spec.task,
            inputs=_inputs_string(spec.params), quantity="error", value=code, witness=str(exc),
        )])
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    for row in result.rows:
        row.wall_time_ms = f"{elapsed_ms:.3f}"
    return result


def _inputs_string(params: dict[str, str]) -> str:
    return ";".join(f"{k}={params[k]}" for k, key in KEYS.items() if key.input and k in params)


def _window(spec: JobSpec) -> int:
    return int(spec.params.get("window", TASKS[spec.task].window))


def _scheme(spec: JobSpec, window: int | None = None) -> LimitScheme:
    """The job's limit scheme, over its own window unless one is given."""
    text = spec.params.get("scheme", TASKS[spec.task].scheme)
    return LimitScheme.parse(text, _window(spec) if window is None else window)


def _function_from_id(fid: str, ctx: GroupContext):
    if fid == "norm":
        return pqm_mod.norm_handle(ctx)
    if fid.startswith("brooks:"):
        pattern = FreeWord.parse(fid.split(":", 1)[1], ctx.rank)
        return pqm_mod.brooks_qm(pattern, ctx)
    if fid.startswith("coord:"):
        return pqm_mod.coordinate_handle(ctx, int(fid.split(":", 1)[1]))
    if fid.startswith("scale:"):
        return pqm_mod.scaled_coordinate_handle(ctx, int(fid.split(":", 1)[1]))
    if fid.startswith("walk:"):
        return pqm_mod.walk_handle(pqm_mod.walk_build(fid.split(":", 1)[1]), ctx)
    raise ValueError(f"unknown function id {fid!r}")


def _sample_pairs(spec: JobSpec, ctx: GroupContext, seed: int, default_maxlen: int):
    maxlen = int(spec.params.get("maxlen", default_maxlen))
    draw = element_sampler(ctx.family, rank=ctx.rank, degree=ctx.degree, dim=ctx.dim,
                           max_len=maxlen, box=maxlen)
    return sample_pairs(draw, seed, int(spec.params["samples"]))


def _spread(lo, hi) -> str:
    return f"[{format_number(lo)},{format_number(hi)}]"


def _limit_fields(quantity: str, res, window: int, scheme: str) -> dict:
    return dict(
        quantity=quantity, value=format_number(res.estimate),
        spread=_spread(res.liminf_est, res.limsup_est),
        witness=f"converged={int(res.converged)}", window=str(window), scheme=scheme,
    )


def _dispatch(spec: JobSpec) -> JobResult:
    task = TASKS[spec.task]
    seed = int(spec.params.get("seed", DEFAULT_SEED))
    ctx = build_context(spec.params) if task.context else None
    rows, traces = task.run(spec, ctx, seed)
    common = dict(
        context_id=ctx.describe() if ctx else spec.task, task=spec.task,
        inputs=_inputs_string(spec.params), seed=str(seed),
    )
    return JobResult([ReportRow(**{**common, **row}) for row in rows], traces)


# ---------------------------------------------------------------------------
# task runners


def _run_norm(spec: JobSpec, ctx: GroupContext, seed: int):
    iv = ctx.norm(ctx.decode(spec.params["element"]))
    return [dict(
        quantity="norm", value=format_number(iv.lower) if iv.exact else "",
        spread=_spread(iv.lower, iv.upper), exact=str(int(iv.exact)),
    )], []


def _run_translation_length(spec: JobSpec, ctx: GroupContext, seed: int):
    scheme = _scheme(spec)
    res = pqm_mod.homogenise(pqm_mod.norm_handle(ctx), ctx.decode(spec.params["element"]), scheme)
    return [_limit_fields("translation-length", res, scheme.window, scheme.describe())], []


def _run_estimate(spec: JobSpec, ctx: GroupContext, seed: int):
    f = _function_from_id(spec.params["function"], ctx)
    pairs = _sample_pairs(spec, ctx, seed, 5)
    estimate = pqm_mod.defect_estimate if spec.task == "defect" else pqm_mod.lipschitz_estimate
    est = estimate(f, pairs, seed=seed)
    witness = ";".join(est.witness) if est.witness else ""
    return [dict(quantity=est.quantity, value=format_number(est.value), witness=witness)], []


def _run_detect(spec: JobSpec, ctx: GroupContext, seed: int):
    # the job window is the growth-certificate window; the scheme's own
    # window is derived so the homogenised powers stay inside it
    window = _window(spec)
    probe = _scheme(spec, 8)
    scheme = LimitScheme(probe.kind, max(8, window // (2 * probe.k)), k=probe.k)
    wit = pqm_mod.detect_undistorted(ctx, ctx.decode(spec.params["element"]), scheme, window)
    return [dict(
        quantity="detect", value=format_number(wit.c_est), witness=wit.verdict,
        spread="" if wit.value_at_g is None else _spread(wit.value_at_g, wit.value_at_g),
        window=str(window), scheme=scheme.describe(),
    )], [list(wit.trace)]


def _run_extend(spec: JobSpec, ctx: GroupContext, seed: int):
    params = spec.params
    window = _window(spec)
    g = ctx.decode(params["element"])
    try:
        c = Fraction(params["c"]) if "c" in params else None
    except ZeroDivisionError:
        raise ValueError(f"c = {params['c']!r} has a zero denominator") from None
    ext = pqm_mod.mcshane_extend(ctx, g, c, window)
    rows = []
    for enc in params["at"].split(";"):
        value, cert = ext.eval_with_certificate(ctx.decode(enc.strip()))
        rows.append(dict(
            quantity="extension",
            inputs=f"element={params['element']};at={enc.strip()};c={format_number(ext.c)}",
            value=format_number(value), exact=str(int(cert.exact)), window=str(window),
        ))
    return rows, []


def _run_ctrick(spec: JobSpec, ctx: GroupContext, seed: int):
    g, h = ctx.decode(spec.params["element"]), ctx.decode(spec.params["element2"])
    res = pqm_mod.c_trick_witness(g, h, int(spec.params["n"]), base=spec.params.get("base", "h"))
    lhs, rhs = res.norm_bound_check(ctx.norm_exact)
    return [
        dict(quantity="ctrick-identity", value="1", exact="1",
             witness=";".join(c.encode() for c in res.witnesses)),
        dict(quantity="ctrick-norm-bound", value=format_number(lhs),
             spread=_spread(0, rhs), exact=str(int(lhs <= rhs))),
    ], []


def _run_cone(spec: JobSpec, ctx: GroupContext, seed: int):
    scheme = _scheme(spec)
    point = cone_mod.eta(ctx, ctx.decode(spec.params["element"]))
    if spec.task == "cone-dist":
        q = cone_mod.eta(ctx, ctx.decode(spec.params["element2"]))
        point = point.mul(q.inverse())
    est = cone_mod.cone_norm(point, scheme)
    trace_rows = [(n, point.norm_at(n), ratio) for n, ratio in est.trace]
    return [dict(
        quantity=spec.task, value=format_number(est.value),
        spread=_spread(est.liminf_est, est.limsup_est),
        window=str(scheme.window), scheme=scheme.describe(),
    )], [trace_rows]


def _run_pullback(spec: JobSpec, ctx: GroupContext, seed: int):
    scheme = _scheme(spec)
    fid = spec.params["functional"]
    if fid == "cone-norm":
        functional = cone_mod.cone_norm_functional(scheme)
    elif fid.startswith("coord:"):
        functional = cone_mod.coordinate_functional(int(fid.split(":", 1)[1]), scheme)
    else:
        raise ValueError(f"unknown functional {fid!r} (cone-norm | coord:<i>)")
    rep = cone_mod.pullback_defect(functional, ctx, _sample_pairs(spec, ctx, seed, 2))
    return [dict(
        quantity="pullback-defect", value=format_number(rep.max_ratio),
        witness=f"violations={rep.violations};bound={format_number(rep.bound_constant)}",
        window=str(scheme.window), scheme=scheme.describe(),
    )], []


def _run_walk(spec: JobSpec, ctx: None, seed: int):
    scheme = _scheme(spec)
    handle = pqm_mod.walk_handle(pqm_mod.walk_build(spec.params["walk"]))
    res = pqm_mod.homogenise(handle, LatticeVector((1,)), scheme)
    return [_limit_fields("homogenisation", res, scheme.window, scheme.describe())], []


def _run_fekete(spec: JobSpec, ctx: None, seed: int):
    n_max = int(spec.params["n"])
    a = _sequence_from_id(spec.params["sequence"])
    phi = _phi_from_id(spec.params.get("phi", "zero"))
    res = pqm_mod.fekete_limit(a, phi, n_max, seed=seed)
    return [_limit_fields("limit", res, n_max, "plain")], []


def _sequence_from_id(sid: str) -> Callable[[int], float]:
    if sid.startswith("linear:"):
        alpha = float(sid.split(":", 1)[1])
        return lambda n: alpha * n
    if sid == "halfceil":
        return lambda n: (n + 1) // 2
    if sid.startswith("sqrt-drift:"):
        alpha = float(sid.split(":", 1)[1])
        return lambda n: alpha * n + math.sqrt(n)
    raise ValueError(f"unknown sequence id {sid!r}")


def _phi_from_id(pid: str) -> SubadditiveCorrection:
    if pid == "zero":
        return SubadditiveCorrection.zero()
    if pid.startswith("const:"):
        return SubadditiveCorrection.constant(float(pid.split(":", 1)[1]))
    if pid.startswith("sqrt:"):
        return SubadditiveCorrection.sqrt(float(pid.split(":", 1)[1]))
    raise ValueError(f"unknown phi id {pid!r}")


TASKS: dict[str, Task] = {
    "norm": Task(_run_norm, ("element",)),
    "translation-length": Task(_run_translation_length, ("element",), window=64, scheme="plain"),
    "defect": Task(_run_estimate, ("function", "samples"), ("maxlen",)),
    "lipschitz": Task(_run_estimate, ("function", "samples"), ("maxlen",)),
    "detect": Task(_run_detect, ("element",), window=32, scheme="arith:2"),
    "extend": Task(_run_extend, ("element", "at"), ("c",), window=16),
    "ctrick": Task(_run_ctrick, ("element", "element2", "n"), ("base",)),
    "cone-norm": Task(_run_cone, ("element",), window=8, scheme="plain"),
    "cone-dist": Task(_run_cone, ("element", "element2"), window=8, scheme="plain"),
    "pullback": Task(_run_pullback, ("functional", "samples"), ("maxlen",), window=8, scheme="plain"),
    "walk": Task(_run_walk, ("walk",), context=False, window=4096, scheme="plain"),
    "fekete": Task(_run_fekete, ("sequence", "n"), ("phi",), context=False),
}


# ---------------------------------------------------------------------------
# the batch runner


def run_jobfile(
    text: str,
    out: str = "-",
    fmt: str = "csv",
    seed_override: int | None = None,
    reproducible: bool = False,
    window_override: int | None = None,
    scheme_override: str | None = None,
) -> tuple[int, str]:
    """Run every job in the file; returns (exit_code, serialized report).
    Each override replaces the key in every job whose task reads it, before
    validation, so it is checked like a value from the file."""
    blocks, errors = _read_blocks(text)
    overrides = {"seed": seed_override, "window": window_override, "scheme": scheme_override}
    for params, _ in blocks:
        keys = TASKS[params["task"]].keys if params.get("task") in TASKS else ()
        params.update((k, str(v)) for k, v in overrides.items() if v is not None and k in keys)
    jobs, errors = _validate_blocks(blocks, errors)
    if errors:
        raise JobSpecError(errors)
    if not jobs:
        raise JobSpecError(["job file contains no jobs"])
    return run_jobs(jobs, out, fmt, reproducible)


def run_jobs(jobs: Sequence[JobSpec], out: str, fmt: str, reproducible: bool) -> tuple[int, str]:
    """Run validated jobs in order and emit one report, with each trace as
    ``<out>.trace<k>.csv``; returns (exit_code, serialized report)."""
    all_rows: list[dict] = []
    failed = False
    trace_index = 0
    for job in jobs:
        result = run_job(job)
        failed = failed or result.failed
        for trace_rows in result.traces:
            # trace file names derive from the output path and job order,
            # so report rows stay byte-identical across output locations
            if out != "-":
                write_trace(f"{out}.trace{trace_index}.csv", trace_rows)
            trace_index += 1
        all_rows.extend(r.as_dict(reproducible=reproducible) for r in result.rows)
    text_out = emit(all_rows, fmt, out, CLI_REPORT_COLUMNS)
    return (1 if failed else 0), text_out


# ---------------------------------------------------------------------------
# argparse front-end


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="-", help="output path (default: stdout)")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--reproducible", action="store_true",
                   help="blank the wall-time column for byte-identical reruns")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binorms",
        description="bi-invariant word norms, partial quasimorphisms and cone functionals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a job file")
    runp.add_argument("--spec", required=True, help="job file path")
    for key in ("seed", "window", "scheme"):
        runp.add_argument(f"--{key}", type=KEYS[key].type, help=f"override the {key} of jobs that take one")
    _add_output_flags(runp)
    for name, task in TASKS.items():
        tp = sub.add_parser(name, help=f"run a single {name} job")
        for key in task.keys:
            tp.add_argument(f"--{key}", type=KEYS[key].type, help=KEYS[key].help,
                            required=key in task.required or key == "family")
        _add_output_flags(tp)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            with open(args.spec, encoding="utf-8") as fh:
                text = fh.read()
            code, rendered = run_jobfile(
                text, out=args.out, fmt=args.format,
                seed_override=args.seed, reproducible=args.reproducible,
                window_override=args.window, scheme_override=args.scheme,
            )
        else:
            params = {"task": args.command}
            for key in TASKS[args.command].keys:
                value = getattr(args, key)
                if value is not None:
                    params[key] = str(value)
            job, errors = _validate_job(params, 0)
            if errors:
                raise JobSpecError(errors)
            code, rendered = run_jobs([job], args.out, args.format, args.reproducible)
    except JobSpecError as exc:
        for e in exc.errors:
            print(f"spec error: {e}", file=sys.stderr)
        return 2
    except (OSError, EmitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out == "-":
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
