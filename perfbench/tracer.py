"""Outside-in layer tracing for binorms.

The tracer wraps public functions and methods of each binorms module at
run time, from the benchmark's own files, so no source file changes.  A
wrapper records a span (name, start, end, parent, task id) around every
call.  Patching the module attribute catches callers that go through it:
``norms`` reaches the kernel as ``kernels.cancellation_dp`` and ``pqm``
calls its own module globals.  Spans stay in memory and are written out
when the run ends.

A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over the spans named after it.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_spans: int = 2_000_000):
        self.clock = clock
        self.max_spans = max_spans
        self.names: list[str] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.calls: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.task_id = -1
        self.dropped = 0
        self._stack: list[list] = []  # [span index, start, child time]
        self._opened = 0
        # finished spans, column-wise: 28 bytes each
        self.span_index = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_task = array("i")

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        self.calls.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, fn: Callable, before: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """``fn`` inside a span called ``name``.  ``before(args)`` runs ahead
        of the call and its return value is passed on as
        ``after(args, result, token)``; neither is timed in the span."""
        nid = self._name_id(name)
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # hook time is charged to no span, so it cannot inflate the
            # caller's self time
            hooks = 0.0
            token = None
            if before is not None:
                t0 = clock()
                token = before(args)
                hooks = clock() - t0
            frame = [self._opened, clock(), 0.0]
            self._opened += 1
            stack.append(frame)
            parent = None
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self.self_s[nid] += duration - frame[2]
                self.total_s[nid] += duration
                self.calls[nid] += 1
                if stack:
                    parent = stack[-1]
                    parent[2] += duration + hooks
                self._record(frame[0], nid, frame[1], end,
                             parent[0] if parent is not None else -1)
            if after is not None:
                t0 = clock()
                after(args, result, token)
                if parent is not None:
                    parent[2] += clock() - t0
            return result

        return traced

    def _record(self, index: int, nid: int, start: float, end: float, parent: int) -> None:
        if len(self.span_index) >= self.max_spans:
            self.dropped += 1
            return
        self.span_index.append(index)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self.span_task.append(self.task_id)

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr``, a module function or a method defined on
        the class itself, by its traced wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, before, after))

    def by_name(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, total seconds) summed over wrappers named ``name``."""
        calls = self_s = total = 0
        for i, n in enumerate(self.names):
            if n == name:
                calls += self.calls[i]
                self_s += self.self_s[i]
                total += self.total_s[i]
        return calls, self_s, total

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s for n, s in zip(self.names, self.self_s) if n.startswith(prefix))

    def write(self, stem: Path) -> None:
        """Spans as raw little-endian columns in ``stem.spans``, described by
        ``stem.spans.json``."""
        columns = [("index", self.span_index), ("name", self.span_name),
                   ("start", self.span_start), ("end", self.span_end),
                   ("parent", self.span_parent), ("task", self.span_task)]
        header = {
            "names": self.names,
            "count": len(self.span_index),
            "dropped": self.dropped,
            "columns": [[label, col.typecode, col.itemsize] for label, col in columns],
        }
        with open(f"{stem}.spans", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        with open(f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def install(tracer: Tracer) -> None:
    """Wrap the public surface of every binorms layer, for the rest of the
    process's life."""
    from binorms import cli, cone, groups, kernels, norms, pqm, reports

    counts = tracer.counts
    kernel_words = tracer.distinct["kernels"]
    norm_keys = tracer.distinct["norms"]
    add = tracer.patch

    # kernels -------------------------------------------------------------
    def kernel_in(args):
        codes = tuple(int(c) for c in args[0])
        n = len(codes)
        kernel_words.add(codes)
        counts["kernels.cells"] += n * (n + 1) // 2
        if n > counts["kernels.max_len"]:
            counts["kernels.max_len"] = n

    add(kernels, "cancellation_dp", "kernels.cancellation_dp", before=kernel_in)

    # groups --------------------------------------------------------------
    original_reduce = groups.free_reduce

    def counted_reduce(letters):
        letters = tuple(letters)
        counts["groups.letters_reduced"] += len(letters)
        return original_reduce(letters)

    groups.free_reduce = tracer.wrap("groups.free_reduce", counted_reduce)
    add(groups.FreeWord, "__init__", "groups.FreeWord.__init__")
    add(groups.GroupElement, "__pow__", "groups.pow")
    for cls in (groups.FreeWord, groups.Permutation, groups.LatticeVector, groups.Heisenberg):
        add(cls, "__mul__", "groups.mul")
        add(cls, "inverse", "groups.inverse")

    # norms ---------------------------------------------------------------
    def norm_in(args):
        norm_keys.add((id(args[0]), args[1]))

    def norm_out(args, result, token):
        if not result.exact:
            counts["norms.inexact"] += 1

    def ball_in(args):
        return len(args[0].distances)

    def ball_out(args, result, size_before):
        counts["norms.bfs_elements"] += len(args[0].distances) - size_before

    add(norms.GroupContext, "norm", "norms.norm", before=norm_in, after=norm_out)
    add(norms.GroupContext, "norm_exact", "norms.norm_exact")
    add(norms.GroupContext, "dist", "norms.dist")
    add(norms.BfsBall, "grow_to", "norms.bfs_grow", before=ball_in, after=ball_out)
    for attr in ("cancellation_norm", "bfs_word_norm", "conjugate_product_search",
                 "heisenberg_conjugacy_norm", "transposition_norm", "l1_norm",
                 "enumerate_effective_generators"):
        add(norms, attr, f"norms.{attr}")

    # pqm -----------------------------------------------------------------
    def pairs_out(args, result, token):
        counts["pqm.estimate.pairs"] += result.n_samples

    add(pqm, "homogenise", "pqm.homogenise")
    add(pqm, "detect_undistorted", "pqm.detect")
    add(pqm.McShaneExtension, "__init__", "pqm.mcshane.build")
    add(pqm.McShaneExtension, "eval_with_certificate", "pqm.mcshane.eval")
    add(pqm, "defect_estimate", "pqm.estimate", after=pairs_out)
    add(pqm, "lipschitz_estimate", "pqm.estimate", after=pairs_out)
    add(pqm, "c_trick_witness", "pqm.ctrick")
    add(pqm.CommutatorWitnessList, "norm_bound_check", "pqm.ctrick.bound")
    add(pqm, "fekete_limit", "pqm.fekete_limit")

    # cone ----------------------------------------------------------------
    add(cone, "eta", "cone.eta")
    add(cone, "cone_norm", "cone.cone_norm")
    add(cone, "cone_dist", "cone.cone_dist")
    add(cone, "pullback_defect", "cone.pullback_defect")
    add(cone.ConePoint, "norm_at", "cone.norm_at")
    add(cone.ConePoint, "element_at", "cone.element_at")

    # cli and reports -----------------------------------------------------
    def job_out(args, result, token):
        counts["cli.error_rows"] += sum(1 for r in result.rows if r.quantity == "error")

    add(cli, "parse_jobfile", "cli.parse_jobfile")
    add(cli, "build_context", "cli.build_context")
    add(cli, "_dispatch", "cli.dispatch")
    add(cli, "run_job", "cli.run_job", after=job_out)
    add(reports, "emit", "reports.emit")
    add(cli, "emit", "reports.emit")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run."""
    c = tracer.counts
    kernel_calls, _, _ = tracer.by_name("kernels.cancellation_dp")
    distinct = len(tracer.distinct["kernels"])
    max_len = c["kernels.max_len"]
    return {
        "kernels.calls": kernel_calls,
        "kernels.distinct": distinct,
        "kernels.unique_frac": distinct / kernel_calls if kernel_calls else 0.0,
        "kernels.self_s": tracer.layer_self_s("kernels"),
        "kernels.cells": c["kernels.cells"],
        "kernels.max_len": max_len,
        "kernels.table_bytes_max": (max_len + 2) ** 2 * 8 if kernel_calls else 0,
        "groups.words_built": tracer.by_name("groups.FreeWord.__init__")[0],
        "groups.letters_reduced": c["groups.letters_reduced"],
        "groups.mul_calls": tracer.by_name("groups.mul")[0],
        "groups.self_s": tracer.layer_self_s("groups"),
        "norms.calls": tracer.by_name("norms.norm")[0],
        "norms.distinct": len(tracer.distinct["norms"]),
        "norms.self_s": tracer.layer_self_s("norms"),
        "norms.bfs_elements": c["norms.bfs_elements"],
        "norms.inexact": c["norms.inexact"],
        "pqm.homogenise.calls": tracer.by_name("pqm.homogenise")[0],
        "pqm.homogenise.self_s": tracer.by_name("pqm.homogenise")[1],
        "pqm.detect.calls": tracer.by_name("pqm.detect")[0],
        "pqm.detect.self_s": tracer.by_name("pqm.detect")[1],
        "pqm.mcshane.evals": tracer.by_name("pqm.mcshane.eval")[0],
        "pqm.estimate.pairs": c["pqm.estimate.pairs"],
        "pqm.estimate.self_s": tracer.by_name("pqm.estimate")[1],
        "pqm.ctrick.calls": tracer.by_name("pqm.ctrick")[0],
        "pqm.ctrick.self_s": tracer.by_name("pqm.ctrick")[1] + tracer.by_name("pqm.ctrick.bound")[1],
        "cone.norm_at.calls": tracer.by_name("cone.norm_at")[0],
        "cone.self_s": tracer.layer_self_s("cone"),
        "cli.jobs": tracer.by_name("cli.run_job")[0],
        "cli.self_s": tracer.layer_self_s("cli"),
        "cli.error_rows": c["cli.error_rows"],
        "reports.emit_s": tracer.by_name("reports.emit")[2],
    }
