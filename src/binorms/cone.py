"""Asymptotic-cone functionals at desk scale.

A cone point is a lazily evaluated sequence n -> g_n together with a
certified linear growth bound ||g_n|| <= L*n; the quotient by norm-zero
sequences is never materialised — equality of points is only ever reported
as "cone distance below tolerance".  Ultralimit norms, distances and
lifted functionals are estimated along the same deterministic window
schemes as the homogenisation machinery, with the liminf/limsup spread
attached to every estimate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .groups import FreeWord, GroupElement, commutator
from . import norms
from .norms import GroupContext, NormError, in_commutator_subgroup
from .pqm import (
    DEFAULT_SEED,
    DEFAULT_TOLERANCE,
    LimitScheme,
    PqmHandle,
    _exact_div,
    check_coordinate,
    scheme_limit,
)


class ConeError(Exception):
    """Base class for cone-module errors."""


class GrowthCertificateError(ConeError):
    """A sequence exceeded its certified linear growth bound."""


class LinearBoundError(ConeError):
    """A lifted function exceeded its linear bound certificate."""


@dataclass
class ConeEstimate:
    """A scheme-limit value with its tail spread and provenance."""

    value: float | Fraction
    liminf_est: float | Fraction
    limsup_est: float | Fraction
    scheme: LimitScheme
    trace: tuple = ()

    def __post_init__(self):
        if not (float(self.liminf_est) <= float(self.value) <= float(self.limsup_est)):
            raise ValueError("estimate must lie between its liminf and limsup")


class ConePoint:
    """A linear-growth sequence representing a point of the asymptotic cone.

    Index evaluations are memoised and deterministic; the growth bound is
    asserted at every index whose norm is evaluated, and a free word over
    the kernel's ``norms.MAX_LETTERS`` letters is refused with the kernel's
    ``BudgetError`` before it is evaluated.
    """

    def __init__(
        self,
        ctx: GroupContext,
        generator: Callable[[int], GroupElement],
        growth_bound,
        label: str = "seq",
    ):
        self.ctx = ctx
        self.generator = generator
        self.growth_bound = growth_bound
        self.label = label
        self._elements: dict[int, GroupElement] = {}
        self._norms: dict[int, float] = {}

    def element_at(self, n: int) -> GroupElement:
        if n < 1:
            raise ValueError("cone sequences are indexed by n >= 1")
        if n not in self._elements:
            elem = self.generator(n)
            if isinstance(elem, FreeWord):
                norms.check_letters(len(elem))
            self._elements[n] = elem
        return self._elements[n]

    def norm_at(self, n: int):
        if n not in self._norms:
            value = self.ctx.norm_exact(self.element_at(n))
            if value > self.growth_bound * n + 1e-9:
                raise GrowthCertificateError(
                    f"||{self.label}({n})|| = {value} exceeds bound "
                    f"{self.growth_bound} * {n}"
                )
            self._norms[n] = value
        return self._norms[n]

    def mul(self, other: "ConePoint") -> "ConePoint":
        """Index-wise product; growth bounds add by the triangle inequality."""
        if self.ctx is not other.ctx:
            raise ConeError("cone points must share a context")
        return ConePoint(
            self.ctx,
            lambda n: self.element_at(n) * other.element_at(n),
            self.growth_bound + other.growth_bound,
            label=f"({self.label})*({other.label})",
        )

    def inverse(self) -> "ConePoint":
        return ConePoint(
            self.ctx,
            lambda n: self.element_at(n).inverse(),
            self.growth_bound,
            label=f"({self.label})^-1",
        )


def eta(ctx: GroupContext, g: GroupElement) -> ConePoint:
    """The canonical point [g^n], with growth bound ||g||."""
    bound = ctx.norm_exact(g)
    powers = [ctx.identity()]

    def gen(n: int) -> GroupElement:
        while len(powers) <= n:
            powers.append(powers[-1] * g)
        return powers[n]

    return ConePoint(ctx, gen, bound, label=f"eta({g.encode()})")


def _scheme_estimate(scheme: LimitScheme, values: list, indices: Sequence[int]) -> ConeEstimate:
    estimate, liminf_est, limsup_est, _ = scheme_limit(scheme, values)
    return ConeEstimate(estimate, liminf_est, limsup_est, scheme,
                        trace=tuple(zip(indices, values)))


def cone_norm(p: ConePoint, scheme: LimitScheme) -> ConeEstimate:
    """Scheme-limit of ||g_n|| / n."""
    indices = scheme.indices()
    values = [_exact_div(p.norm_at(n), n) for n in indices]
    return _scheme_estimate(scheme, values, indices)


def cone_dist(p: ConePoint, q: ConePoint, scheme: LimitScheme) -> ConeEstimate:
    """Scheme-limit of ||p_n q_n^-1|| / n; zero means the points coincide
    in the cone (up to the reported spread)."""
    if p.ctx is not q.ctx:
        raise ConeError("cone points must share a context")
    prod = p.mul(q.inverse())
    return cone_norm(prod, scheme)


def lift_function(
    f: PqmHandle,
    p: ConePoint,
    scheme: LimitScheme,
    linear_bound_C: float,
) -> ConeEstimate:
    """The induced functional at p: scheme-limit of f(p_n) / n.

    ``linear_bound_C`` is a constant C with |f(g)| <= C ||g||, measured or
    proved (sigma + 2D for a partial quasimorphism with generator bound
    sigma and defect D); combined with the point's growth certificate it is
    checked per index as |f(p_n)| <= C * L * n without extra norm
    evaluations.
    """
    indices = scheme.indices()
    values = []
    cap = linear_bound_C * float(p.growth_bound)
    for n in indices:
        v = f(p.element_at(n))
        if abs(float(v)) > cap * n + 1e-9:
            raise LinearBoundError(
                f"|{f.name}({p.label}({n}))| = {v} exceeds C*L*n = {cap * n}"
            )
        values.append(_exact_div(v, n))
    return _scheme_estimate(scheme, values, indices)


@dataclass
class LiftedDefectReport:
    n_samples: int
    violations: int
    max_ratio: float


def lifted_defect_check(
    f: PqmHandle,
    point_pairs: Iterable[tuple[ConePoint, ConePoint]],
    scheme: LimitScheme,
    defect,
    linear_bound_C: float,
) -> LiftedDefectReport:
    """Check |F(p) - F(pq) + F(q)| <= D * min(cone norms) + DEFAULT_TOLERANCE
    over sampled cone-point pairs, for the lift F of f with defect ``defect``
    and linear bound ``linear_bound_C`` (see :func:`lift_function`), each
    measured or proved."""
    dd = float(defect)
    violations = 0
    worst = 0.0
    count = 0
    for p, q in point_pairs:
        count += 1
        fp = float(lift_function(f, p, scheme, linear_bound_C).value)
        fq = float(lift_function(f, q, scheme, linear_bound_C).value)
        fpq = float(lift_function(f, p.mul(q), scheme, linear_bound_C).value)
        delta = abs(fp - fpq + fq)
        m = min(float(cone_norm(p, scheme).value), float(cone_norm(q, scheme).value))
        bound = dd * m + DEFAULT_TOLERANCE
        if delta > bound:
            violations += 1
        if m > 0:
            worst = max(worst, delta / m)
    return LiftedDefectReport(count, violations, worst)


# ---------------------------------------------------------------------------
# pullbacks F . eta


@dataclass
class ConeFunctional:
    """A Lipschitz functional on cone points with F(zero point) = 0."""

    name: str
    fn: Callable[[ConePoint], float]
    lipschitz_C: float

    def __call__(self, p: ConePoint):
        return self.fn(p)


def cone_norm_functional(scheme: LimitScheme) -> ConeFunctional:
    return ConeFunctional(
        f"cone-norm[{scheme.describe()}]",
        lambda p: float(cone_norm(p, scheme).value),
        1.0,
    )


def coordinate_functional(index: int, scheme: LimitScheme) -> ConeFunctional:
    """The i-th coordinate functional on the cone of Z^d (L^1-Lipschitz)."""

    def fn(p: ConePoint) -> float:
        check_coordinate(p.ctx, index, f"coord:{index}")
        values = [p.element_at(n).coords[index] / n for n in scheme.indices()]
        return scheme_limit(scheme, values)[0]

    return ConeFunctional(f"cone-coord:{index}[{scheme.describe()}]", fn, 1.0)


@dataclass
class PullbackReport:
    n_samples: int
    violations: int
    max_defect: float
    max_ratio: float
    bound_constant: float  # 24 * C


def pullback_defect(
    F: ConeFunctional,
    ctx: GroupContext,
    pairs: Iterable[tuple[GroupElement, GroupElement]],
) -> PullbackReport:
    """Measure the defect of g -> F(eta(g)) over sampled pairs and check it
    against 24 * C * min(||g||, ||h||), up to ``DEFAULT_TOLERANCE``.
    Rejects functionals that do not vanish on the zero point."""
    zero = F(eta(ctx, ctx.identity()))
    if abs(float(zero)) > 1e-9:
        raise ConeError(f"{F.name} does not vanish on the zero cone point: {zero}")
    bound_c = 24.0 * F.lipschitz_C
    violations = 0
    max_defect = 0.0
    max_ratio = 0.0
    count = 0
    for g, h in pairs:
        count += 1
        value = abs(
            float(F(eta(ctx, g))) - float(F(eta(ctx, g * h))) + float(F(eta(ctx, h)))
        )
        m = min(ctx.norm_exact(g), ctx.norm_exact(h))
        max_defect = max(max_defect, value)
        if m > 0:
            max_ratio = max(max_ratio, value / m)
            if value > bound_c * m + DEFAULT_TOLERANCE:
                violations += 1
        elif value > DEFAULT_TOLERANCE:
            violations += 1
    return PullbackReport(count, violations, max_defect, max_ratio, bound_c)


# ---------------------------------------------------------------------------
# the abelian commutator-length cone


def abelian_cl_cone_check(
    g_seq: ConePoint,
    h_seq: ConePoint,
    scheme: LimitScheme,
) -> ConeEstimate:
    """Certified decay of cl([g_n, h_n]) / n.

    Each index carries the structural certificate cl([u, v]) <= 1 (the
    element IS a single commutator), so the per-index upper bound is 1/n
    (0 where the commutator is trivial).  The returned value is the best
    certified upper bound over the window — sound for a limit bounded by a
    decreasing sequence of certified bounds — with liminf estimate 0.
    """
    if g_seq.ctx is not h_seq.ctx:
        raise ConeError("cone points must share a context")
    ctx = g_seq.ctx
    if ctx.backend != "cl-bounds":
        raise ConeError("abelian_cl_cone_check needs a commutator-length context")
    indices = scheme.indices()
    bounds = []
    for n in indices:
        u = g_seq.element_at(n)
        v = h_seq.element_at(n)
        for w in (u, v):
            if not in_commutator_subgroup(w):
                raise NormError(
                    f"sequence entry {w.encode()!r} is outside the commutator subgroup"
                )
        c = commutator(u, v)
        per_index = Fraction(0) if c.is_identity() else Fraction(1, n)
        bounds.append(per_index)
    best = min(bounds)
    return ConeEstimate(best, Fraction(0), best, scheme, trace=tuple(zip(indices, bounds)))


# ---------------------------------------------------------------------------
# the (R^d, L^1) length model


@dataclass
class LengthWordReport:
    n_samples: int
    violations: int
    greedy_mismatches: int


def unit_ball_word_norm(x: Sequence[float]) -> int:
    """Word norm w.r.t. the closed unit ball of (R^d, L^1): ceil of the
    L^1 length (0 at the origin)."""
    length = sum(abs(float(c)) for c in x)
    if length == 0.0:
        return 0
    return int(math.ceil(length))


def _greedy_subdivision_steps(x: Sequence[float]) -> int:
    """Independent oracle: walk the straight segment to x in unit-length
    steps, counting the final shorter segment as one."""
    remaining = sum(abs(float(c)) for c in x)
    steps = 0
    while remaining > 1.0:
        remaining -= 1.0
        steps += 1
    if remaining > 0.0:
        steps += 1
    return steps


def length_vs_word_check(
    d: int,
    n_samples: int = 1000,
    seed: int = DEFAULT_SEED,
) -> LengthWordReport:
    """Check ||x|| <= ||x||_S <= ||x|| + 1 on random vectors in [-10, 10]^d,
    with the greedy segment-subdivision construction as the oracle for the
    unit-ball word norm."""
    rng = random.Random(seed)
    violations = 0
    mismatches = 0
    for _ in range(n_samples):
        x = [rng.uniform(-10.0, 10.0) for _ in range(d)]
        length = sum(abs(c) for c in x)
        word = unit_ball_word_norm(x)
        if not (length <= word <= length + 1.0):
            violations += 1
        if word != _greedy_subdivision_steps(x):
            mismatches += 1
    return LengthWordReport(n_samples, violations, mismatches)
