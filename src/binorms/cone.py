"""Asymptotic-cone functionals at desk scale.

A cone point is a lazily evaluated sequence n -> g_n together with a
certified linear growth bound ||g_n|| <= L*n; the quotient by norm-zero
sequences is never materialised — equality of points is only ever reported
as "cone distance below tolerance".  Ultralimit norms and distances are
estimated along the same deterministic window schemes as the
homogenisation machinery, with the liminf/limsup spread attached to every
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .groups import FreeWord, GroupElement
from . import norms
from .norms import GroupContext
from .pqm import (
    DEFAULT_TOLERANCE,
    LimitScheme,
    _exact_div,
    check_coordinate,
    scheme_limit,
)


class ConeError(Exception):
    """Base class for cone-module errors."""


class GrowthCertificateError(ConeError):
    """A sequence exceeded its certified linear growth bound."""


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


def cone_norm(p: ConePoint, scheme: LimitScheme) -> ConeEstimate:
    """Scheme-limit of ||g_n|| / n."""
    indices = scheme.indices()
    values = [_exact_div(p.norm_at(n), n) for n in indices]
    estimate, liminf_est, limsup_est, _ = scheme_limit(scheme, values)
    return ConeEstimate(estimate, liminf_est, limsup_est, scheme,
                        trace=tuple(zip(indices, values)))


def cone_dist(p: ConePoint, q: ConePoint, scheme: LimitScheme) -> ConeEstimate:
    """Scheme-limit of ||p_n q_n^-1|| / n; zero means the points coincide
    in the cone (up to the reported spread)."""
    if p.ctx is not q.ctx:
        raise ConeError("cone points must share a context")
    prod = p.mul(q.inverse())
    return cone_norm(prod, scheme)


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
