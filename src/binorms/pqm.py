"""Partial quasimorphisms as first-class values.

A :class:`PqmHandle` is a real-valued function on a group context: its
name, the function and the context, nothing more.  Its constants are
estimated from seeded samples -- the defect ``D`` (worst ratio of
``|f(g) - f(gh) + f(h)|`` against ``min(||g||, ||h||)``) and the Lipschitz
constant ``C`` -- and a check that needs one takes it as an argument, so a
proved constant serves as well as a sampled one.  On top of the handles
the module provides:

* deterministic homogenisation under window schemes that stand in for a
  linear ultrafilter (plain / arithmetic / Cesaro windows, with the
  liminf/limsup spread reported so non-convergence is data, not failure);
  one routine, :func:`scheme_limit`, reads every such limit, here and in
  the cone module,
* subadditive limit estimation with an integrable correction term,
* anti-symmetrisation and the inf-convolution extension of ``n -> c*n``
  from a cyclic subgroup to the whole group,
* the end-to-end undistortion detector built from those pieces,
* witness lists for the rearrangement identity
  ``g^n h^n = (gh)^n c_1 ... c_{n-1}`` with verified shape certificates,
* Brooks counting functions and unit-step walks as stock examples.

Exact arithmetic (``int``/``Fraction``) is preserved wherever the inputs
allow it, so "equals exactly" tests really mean exact equality.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .groups import (
    FamilyMismatchError,
    FreeWord,
    GroupElement,
    commutator,
    conjugate,
)
from . import norms
from .norms import GroupContext, free_cancellation_context, integer_line_context
from .sampling import DEFAULT_SEED

DEFAULT_TOLERANCE = 1e-6
# detect_undistorted certifies growth above max(ABS, REL * ||g||)
DETECT_REL_THRESHOLD = 0.25
DETECT_ABS_THRESHOLD = 1e-9
FEKETE_HYPOTHESIS_CHECKS = 400  # random pairs beyond the triangular sample


class PqmError(Exception):
    """Base class for partial-quasimorphism toolkit errors."""


class FiniteOrderError(PqmError):
    """The element has finite order within the inspected window; ``trace``
    is the extension's power walk up to the identity power."""

    def __init__(self, message: str, trace: list):
        super().__init__(message)
        self.trace = trace


class WindowCertificateError(PqmError):
    """A window growth certificate ||g^n|| >= c*n failed."""


class FeketeHypothesisError(PqmError):
    """The corrected subadditivity hypothesis failed on a sampled pair."""

    def __init__(self, m: int, n: int, lhs, rhs):
        super().__init__(
            f"a(m+n) <= a(m) + a(n) + phi(m+n) fails at (m, n) = ({m}, {n}): "
            f"{lhs} > {rhs}"
        )
        self.pair = (m, n)


class WalkSpecError(PqmError):
    """Malformed walk specification."""


# ---------------------------------------------------------------------------
# handles


@dataclass
class PqmHandle:
    """A deterministic function on a group context.

    A handle holds no constants: the estimators below compute them from a
    sample, and the checks take them as arguments."""

    name: str
    fn: Callable[[GroupElement], float]
    ctx: GroupContext

    def __call__(self, g: GroupElement):
        return self.fn(g)


def norm_handle(ctx: GroupContext) -> PqmHandle:
    return PqmHandle("norm", lambda g: ctx.norm_exact(g), ctx)


def check_coordinate(ctx: GroupContext, index: int, name: str) -> None:
    """Refuse ``name``, a function of coordinate ``index``, off a lattice with that coordinate."""
    if ctx.family != "lattice":
        raise FamilyMismatchError(f"{name} is defined on lattice contexts, not {ctx.family!r}")
    if not 0 <= index < ctx.dim:
        raise ValueError(f"{name} reads coordinate {index}, the context has dim {ctx.dim}")


def coordinate_handle(ctx: GroupContext, index: int = 0) -> PqmHandle:
    check_coordinate(ctx, index, f"coord:{index}")
    return PqmHandle(f"coord:{index}", lambda v: v.coords[index], ctx)


def scaled_coordinate_handle(ctx: GroupContext, factor: int) -> PqmHandle:
    check_coordinate(ctx, 0, f"scale:{factor}")
    return PqmHandle(f"scale:{factor}", lambda v: factor * v.coords[0], ctx)


# ---------------------------------------------------------------------------
# limit schemes (deterministic ultrafilter proxies)


@dataclass(frozen=True)
class LimitScheme:
    """Window scheme standing in for a linear ultrafilter.

    ``plain``  evaluates n = 1..N; ``arith``  n = k, 2k, ..., kN (the
    deterministic shadow of "the ultrafilter contains every kN"); ``cesaro``
    averages the running means over the tail.
    """

    kind: str
    window: int
    k: int = 1

    def __post_init__(self):
        if self.kind not in ("plain", "arith", "cesaro"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.window < 8:
            raise ValueError("scheme window must be >= 8")
        if self.k < 1:
            raise ValueError("arithmetic scheme needs k >= 1")

    def indices(self) -> list[int]:
        if self.kind == "arith":
            return [self.k * j for j in range(1, self.window + 1)]
        return list(range(1, self.window + 1))

    def describe(self) -> str:
        if self.kind == "arith":
            return f"arith:{self.k}:{self.window}"
        return f"{self.kind}:{self.window}"

    @classmethod
    def parse(cls, text: str, window: int) -> "LimitScheme":
        if text in ("plain", "cesaro"):
            return cls(text, window)
        if text.startswith("arith:"):
            return cls("arith", window, k=int(text.split(":", 1)[1]))
        raise ValueError(f"unknown scheme {text!r} (plain | arith:<k> | cesaro)")


@dataclass
class HomogenisationResult:
    """Tail statistics of f(g^n)/n along a scheme window."""

    estimate: float | Fraction
    liminf_est: float | Fraction
    limsup_est: float | Fraction
    converged: bool
    scheme: LimitScheme
    indices: tuple[int, ...] = ()
    values: tuple = ()


def _exact_div(a, b):
    """a / b as a Fraction when both are int or Fraction, else as a float."""
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a, b)
    return float(a) / float(b)


def scheme_limit(scheme: LimitScheme, values: Sequence) -> tuple:
    """(estimate, liminf, limsup, converged) of a ratio series along the scheme.

    ``cesaro`` first replaces the series by its running means.  The
    estimate is the mean over the tail half-window, the tail min/max are
    the liminf/limsup estimates, and ``converged`` holds when their spread
    is within ``DEFAULT_TOLERANCE`` relative to the estimate.  A constant
    tail keeps its exact value (int/Fraction); otherwise the mean is taken
    in float to avoid astronomically long exact rationals, adding left to
    right as the Cesaro means do (``sum`` of floats rounds differently
    from Python 3.12 on, so it would change reports between versions).
    """
    series = values
    if scheme.kind == "cesaro":
        series = []
        acc = 0.0
        for i, v in enumerate(values, start=1):
            acc += float(v)
            series.append(acc / i)
    tail = series[len(series) // 2 :]
    lo = min(tail)
    hi = max(tail)
    estimate = lo
    if lo != hi:
        total = 0.0
        for v in tail:
            total += float(v)
        estimate = total / len(tail)
    converged = float(hi - lo) <= DEFAULT_TOLERANCE * max(1.0, abs(float(estimate)))
    return estimate, lo, hi, converged


def homogenise(f: PqmHandle | Callable, g: GroupElement, scheme: LimitScheme) -> HomogenisationResult:
    """Estimate lim f(g^n)/n along the scheme, as :func:`scheme_limit`
    reads the ratios f(g^n)/n at the scheme's indices (n = k, 2k, ...,
    walked one product by g^k at a time)."""
    indices = scheme.indices()
    step = g ** scheme.k
    power = g.identity()
    values = []
    for n in indices:
        power = power * step
        values.append(_exact_div(f(power), n))
    return HomogenisationResult(
        *scheme_limit(scheme, values), scheme, tuple(indices), tuple(values),
    )


def homogenised_handle(f: PqmHandle, scheme: LimitScheme) -> PqmHandle:
    """The handle g -> homogenise(f, g, scheme).estimate (lazy, per call)."""

    def fn(g: GroupElement):
        return homogenise(f, g, scheme).estimate

    return PqmHandle(f"hom({f.name};{scheme.describe()})", fn, f.ctx)


# ---------------------------------------------------------------------------
# defect / Lipschitz estimation


@dataclass
class SupremumEstimate:
    quantity: str
    value: float | Fraction
    witness: tuple[str, ...] | None
    n_samples: int
    seed: int | None = None
    zero_min_violations: int = 0


class _Supremum:
    """The running supremum of a stream of values and the elements attaining it.

    It starts at ``Fraction(0)``.  A value replaces the supremum, by value
    and type, only when it is strictly larger; ties break by canonical
    encoding order, so the reported attaining elements are independent of
    evaluation order, and the elements are encoded only when they can
    become the witness.  An exact supremum is kept as an integer pair
    ``num / den`` (``den > 0``): an exact value is compared against it by
    cross-multiplication, and one ``Fraction`` is built when it is read.
    Any other value (a float, or an ``int`` bound) is compared as it is.
    """

    __slots__ = ("num", "den", "other", "witness")

    def __init__(self):
        self.num, self.den = 0, 1
        self.other = None  # the supremum when it is not an exact Fraction
        self.witness = None

    def value(self):
        return Fraction(self.num, self.den) if self.other is None else self.other

    def offer_quotient(self, a, b, elements) -> None:
        """Offer ``_exact_div(a, b)``, with no Fraction built for an int
        ``b > 0`` over an int or Fraction ``a``."""
        if type(b) is int and b > 0 and self.other is None:
            if type(a) is int:
                return self._offer_exact(a, b, elements)
            if type(a) is Fraction:
                return self._offer_exact(a.numerator, a.denominator * b, elements)
        self.offer(_exact_div(a, b), elements)

    def offer(self, value, elements) -> None:
        if type(value) is Fraction and self.other is None:
            return self._offer_exact(value.numerator, value.denominator, elements)
        best = self.value()
        if self.witness is not None and not value >= best:
            return
        pair = tuple(e.encode() for e in elements)
        if self.witness is None or value > best:
            best = max(best, value)
            if type(best) is Fraction:
                self.num, self.den, self.other = best.numerator, best.denominator, None
            else:
                self.other = best
            self.witness = pair
        else:
            self.witness = min(pair, self.witness)

    def _offer_exact(self, num: int, den: int, elements) -> None:
        excess = num * self.den - self.num * den  # the sign of num/den - supremum
        if self.witness is not None and excess < 0:
            return
        pair = tuple(e.encode() for e in elements)
        if excess > 0:
            self.num, self.den = num, den
            self.witness = pair
        elif self.witness is None:
            self.witness = pair
        else:
            self.witness = min(pair, self.witness)


def defect_estimate(f: PqmHandle, pairs: Iterable[tuple[GroupElement, GroupElement]],
                    seed: int | None = None) -> SupremumEstimate:
    """D-hat = max |f(g) - f(gh) + f(h)| / min(||g||, ||h||) over the sample.

    Pairs where min(||g||, ||h||) = 0 contain the identity; there the
    coboundary is forced to equal f(1) and is checked to vanish separately.
    Requires exact norms on all sampled elements.

    Each pair evaluates ||g||, ||h||, f(g), f(gh), f(h) in that order,
    except that while consecutive pairs share the same g object, ||g|| and
    f(g) are read once, at the first pair of the run.  So f and the norm
    must be deterministic, and the first exception raised is the one a
    pair-by-pair evaluation raises.
    """
    ctx = f.ctx
    sup = _Supremum()
    zero_min_bad = 0
    count = 0
    last_g = object()  # matches no g
    for g, h in pairs:
        count += 1
        if g is not last_g:
            norm_g = ctx.norm_exact(g)
        m = min(norm_g, ctx.norm_exact(h))
        if g is not last_g:
            f_g, last_g = f(g), g
        delta = abs(f_g - f(g * h) + f(h))
        if m == 0:
            if delta != 0:
                zero_min_bad += 1
            continue
        sup.offer_quotient(delta, m, (g, h))
    return SupremumEstimate("defect", sup.value(), sup.witness, count, seed, zero_min_bad)


def _exact(value):
    """An int as it is; any other norm value as an exact Fraction."""
    return value if isinstance(value, int) else Fraction(value)


def lipschitz_estimate(f: PqmHandle, pairs: Iterable[tuple[GroupElement, GroupElement]],
                       seed: int | None = None) -> SupremumEstimate:
    """C-hat = max |f(g) - f(h)| / d(g, h) over sampled distinct pairs.

    Each pair evaluates d(g, h), f(g), f(h) in that order, except that
    while consecutive pairs share the same g object, f(g) is read once, at
    the first pair of the run that is evaluated (pairs with g == h are
    skipped).  The ratio is exact and its supremum kept as in
    :func:`defect_estimate`.
    """
    ctx = f.ctx
    sup = _Supremum()
    count = 0
    last_g = object()  # matches no g
    for g, h in pairs:
        if g == h:
            continue
        count += 1
        d = ctx.dist(g, h)
        if g is not last_g:
            f_g, last_g = f(g), g
        sup.offer_quotient(abs(f_g - f(h)), d, (g, h))
    return SupremumEstimate("lipschitz", sup.value(), sup.witness, count, seed)


# ---------------------------------------------------------------------------
# Fekete / de Bruijn–Erdos limits


@dataclass
class SubadditiveCorrection:
    """An increasing correction phi with integrable phi(t)/t^2 tail."""

    phi: Callable[[float], float]
    name: str = "phi"

    @classmethod
    def zero(cls) -> "SubadditiveCorrection":
        return cls(lambda t: 0.0, "zero")

    @classmethod
    def constant(cls, d: float) -> "SubadditiveCorrection":
        return cls(lambda t: d, f"const:{d}")

    @classmethod
    def sqrt(cls, c: float) -> "SubadditiveCorrection":
        return cls(lambda t: c * t ** 0.5, f"sqrt:{c}")

def _triangular_sample(n_max: int, count: int, seed: int) -> list[tuple[int, int]]:
    pairs = []
    for m in range(1, min(n_max // 2, 12) + 1):
        for n in range(m, min(n_max - m, 12) + 1):
            pairs.append((m, n))
    p = 1
    while 2 * p <= n_max:
        q = 1
        while p + q <= n_max:
            pairs.append((p, q))
            q *= 2
        p *= 2
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, n_max - 1)
        n = rng.randint(1, n_max - m)
        pairs.append((m, n))
    return pairs


def fekete_limit(a: Callable[[int], float], phi: SubadditiveCorrection, n_max: int,
                 seed: int = DEFAULT_SEED) -> HomogenisationResult:
    """Limit estimate of a(n)/n for an almost-subadditive sequence.

    The corrected subadditivity a(m+n) <= a(m) + a(n) + phi(m+n) is checked
    on a triangular sample first (a violation raises, reporting the pair);
    phi must be increasing on the sampled arguments.  The limit is read
    off a(n)/n, n = 1..n_max, by :func:`scheme_limit` under the plain
    scheme, with the same two-sided tail spread as :func:`homogenise`.
    """
    scheme = LimitScheme("plain", n_max)
    sample = _triangular_sample(n_max, FEKETE_HYPOTHESIS_CHECKS, seed)
    args = sorted({float(m + n) for m, n in sample})
    last = None
    for t in args:
        v = phi.phi(t)
        if last is not None and v < last - 1e-12:
            raise PqmError(f"phi is not increasing at t = {t}")
        last = v
    cache: dict[int, float] = {}

    def av(n: int):
        if n not in cache:
            cache[n] = a(n)
        return cache[n]

    for m, n in sample:
        lhs = av(m + n)
        rhs = av(m) + av(n) + phi.phi(float(m + n))
        if lhs > rhs + 1e-12:
            raise FeketeHypothesisError(m, n, lhs, rhs)
    values = [_exact_div(av(n), n) for n in scheme.indices()]
    return HomogenisationResult(*scheme_limit(scheme, values), scheme,
                                tuple(scheme.indices()), tuple(values))


# ---------------------------------------------------------------------------
# anti-symmetrisation


def antisymmetrise(f: PqmHandle) -> PqmHandle:
    """f-bar(g) = (f(g) - f(g^-1)) / 2; exactly antisymmetric, idempotent."""

    def fn(g: GroupElement):
        return _exact_div(f(g) - f(g.inverse()), 2)

    return PqmHandle(f"antisym({f.name})", fn, f.ctx)


# ---------------------------------------------------------------------------
# the inf-convolution extension


@dataclass
class ExtensionCertificate:
    """Exactness certificate for one window-truncated infimum.

    ``pos_closed``: every term beyond +W exceeds the window minimum because
    c*n alone does.  ``neg_closed``: terms beyond -W exceed it under the
    recorded tail growth floor (the measured min of ||g^m||/m over the
    outer half-window, assumed to persist beyond it; the window alone
    cannot bound the negative tail).  ``exact`` requires both.
    """

    exact: bool
    pos_closed: bool
    neg_closed: bool
    tail_floor: Fraction


class McShaneExtension:
    """f(h) = min over |n| <= W of (c*n + d(h, g^n)).

    Restricted to powers of g the value is exactly c*m; on certified pairs
    the extension is 1-Lipschitz.  The constructor walks g^1..g^W, one
    product and one norm a step, into ``trace`` = [(n, ||g^n||,
    ||g^n||/n)], and checks the window certificate ||g^n|| >= c*n exactly
    as each power is reached; ``c=None`` takes c as the walk's growth
    floor min ||g^n||/n.

    The walk also keeps each power g^m, 0 <= m <= W + 1, and the table
    T[j] = ||g^j|| of exact norms, T[0..W] off the walk.  At h = g^m,
    |m| <= W, every distance the evaluation reads is some T[|m -+ n|], so
    it reads the table (:meth:`_scaled_power_value`); entries past W come
    from one ray along g, from g^(W+1), when an evaluation first needs
    them.  Any other h reads two rays, ||h g^-n|| and ||h g^n|| for
    n = 0..W; the map from each power g^m, |m| <= W, to its exponent that
    tells the two apart is built on the first such evaluation.
    """

    def __init__(self, ctx: GroupContext, g: GroupElement, c, window: int):
        if window < 2:
            raise ValueError("window must be >= 2")
        self.ctx = ctx
        self.g = g
        self.c = None if c is None else Fraction(c)
        if self.c is not None and self.c <= 0:
            raise ValueError("growth constant c must be positive")
        self.window = window
        self.trace = []
        power = g.identity()
        self._powers = [power]
        self._table = [0]
        for n in range(1, window + 1):
            power = power * g
            if power.is_identity():
                self.trace.append((n, 0, Fraction(0)))
                raise FiniteOrderError(f"{g.encode()} has order {n} <= window", self.trace)
            norm = ctx.norm_exact(power)
            ratio = Fraction(norm, n)
            self.trace.append((n, norm, ratio))
            self._powers.append(power)
            self._table.append(_exact(norm))
            if self.c is not None and ratio < self.c:
                raise WindowCertificateError(f"||g^{n}|| = {ratio * n} < c*n = {self.c * n}")
        if self.c is None:
            self.c = min(ratio for _, _, ratio in self.trace)
        # the walk's next power: where a ray along g extends the table
        self._powers.append(power * g)
        self._g_inverse = g.inverse()
        # entry j: the least q*T[i] - p*i and the least q*T[i] + p*i over
        # i <= j, as far as the table
        self._least_minus = [0]
        self._least_plus = [0]
        # the kernel caps its words at MAX_LETTERS, and one row holds the
        # norm of every prefix of its word
        self._kernel = ctx.backend == "cancellation-dp"
        # the outer half-window: n = W // 2 + 1 .. W
        self.tail_floor = min(ratio for _, _, ratio in self.trace[window // 2:])
        # neg_closed reads (tail_floor - c) * (W + 1) - ||h|| > f(h); times
        # q * d, d the denominator of tail_floor, both sides are integers
        self._tail_den = self.tail_floor.denominator
        self._neg_reach = ((self.c.denominator * self.tail_floor.numerator
                            - self.c.numerator * self._tail_den) * (window + 1))

    @functools.cached_property
    def _exponent(self) -> dict:
        """Each power g^m, |m| <= W, by its exponent (the negative powers
        are the inverses of the walked ones)."""
        window = self.window
        exponent = {p: n for n, p in enumerate(self._powers[:window + 1])}
        for n in range(1, window + 1):
            exponent.setdefault(self._powers[n].inverse(), -n)
        return exponent

    def _table_to(self, reach: int) -> list:
        """The table through T[reach] at least.  One ray along g, from the
        first power past the table, extends it; on the kernel that ray runs
        to 2W when its row fits ``MAX_LETTERS``, since the row's prefixes
        are the rows of the shorter rays."""
        table = self._table
        top = len(table) - 1
        if reach > top:
            g = self.g
            window = self.window
            start = (self._powers[top + 1] if top == window  # g^(top + 1)
                     else self._powers[window] * self._powers[top + 1 - window])
            if self._kernel and (len(start.codes()) + (2 * window - top - 1) * len(g.codes())
                                 <= norms.MAX_LETTERS):
                reach = 2 * window
            table.extend(map(_exact, self.ctx.ray_norms(start, g, reach - top - 1)))
        return table

    def _scaled_power_value(self, m: int):
        """q * f(g^m) for |m| <= W, with c = p/q: the least p*j + q*T[|m - j|]
        over |j| <= W, in integers.  With i = m - j that is p*m plus the
        least q*T[|i|] - p*i over i = m - W .. m + W, a range around 0, so
        it is the smaller of two prefix minima: of q*T[i] - p*i through
        i = m + W and of q*T[i] + p*i through i = W - m."""
        p, q = self.c.numerator, self.c.denominator
        window = self.window
        if self._kernel:
            # the cap of the ray on g^m g^-W; the table's row is no longer
            norms.check_letters(len(self._powers[abs(m)].codes()) + window * len(self.g.codes()))
        table = self._table_to(abs(m) + window)
        minus, plus = self._least_minus, self._least_plus
        for i in range(len(minus), len(table)):
            minus.append(min(minus[-1], q * table[i] - p * i))
            plus.append(min(plus[-1], q * table[i] + p * i))
        return p * m + min(minus[m + window], plus[window - m])

    def eval_with_certificate(self, h: GroupElement) -> tuple[Fraction, ExtensionCertificate]:
        # with c = p/q, compare q * (c*n + d(h, g^n)) = p*n + q*||h g^-n||
        # in integers; back[n] = ||h g^-n|| and ahead[n] = ||h g^n||
        p, q = self.c.numerator, self.c.denominator
        window = self.window
        m = self._exponent.get(h)
        if m is None:
            back = [*map(_exact, self.ctx.ray_norms(h, self._g_inverse, window))]
            ahead = [*map(_exact, self.ctx.ray_norms(h, self.g, window))]
            nh = back[0]
            best_q = q * nh  # n = 0 term: d(h, 1) = ||h||
            for n in range(1, window + 1):
                term = min(p * n + q * back[n], q * ahead[n] - p * n)
                if term < best_q:
                    best_q = term
        else:
            best_q = self._scaled_power_value(m)
            nh = self._table[abs(m)]
        pos_closed = p * (window + 1) > best_q
        neg_closed = self._neg_reach - q * self._tail_den * nh > self._tail_den * best_q
        return Fraction(best_q, q), ExtensionCertificate(pos_closed and neg_closed, pos_closed,
                                                         neg_closed, self.tail_floor)

    def __call__(self, h: GroupElement) -> Fraction:
        return self.eval_with_certificate(h)[0]

    @property
    def handle(self) -> PqmHandle:
        return PqmHandle(f"mcshane({self.g.encode()};c={self.c})", self.__call__, self.ctx)


def mcshane_extend(ctx: GroupContext, g: GroupElement, c, window: int) -> McShaneExtension:
    return McShaneExtension(ctx, g, c, window)


# ---------------------------------------------------------------------------
# undistortion detection


@dataclass
class UndistortionWitness:
    verdict: str  # "undistorted" | "distorted-or-undecided"
    c_est: Fraction
    value_at_g: Fraction | float | None
    pqm: PqmHandle | None
    trace: tuple[tuple[int, float, Fraction], ...]  # (n, ||g^n||, ratio)
    threshold: float
    scheme: LimitScheme | None
    extension: McShaneExtension | None = None


def detect_undistorted(ctx: GroupContext, g: GroupElement, scheme: LimitScheme,
                       window: int) -> UndistortionWitness:
    """Certify positive norm growth on a window, or report the decay trace.

    The detector is the extension of n -> c_est * n with c = None, so
    c_est is the window minimum of ||g^n||/n and the trace is the
    extension's power walk (the walk up to the identity power on an
    element of finite order).  Above the threshold it returns the
    extension, anti-symmetrised and homogenised along the arithmetic
    scheme, as a lazy handle, with its value at g read off the extension's
    norm table by exponent: no evaluation and no second walk.  Otherwise
    the verdict is "distorted-or-undecided": a bounded window can never
    certify sublinear growth, so "distorted" is never claimed.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    if scheme.kind != "arith":
        raise ValueError("detect_undistorted homogenises along an arithmetic scheme")
    if scheme.k * scheme.window > window:
        raise ValueError(
            f"scheme reaches power {scheme.k * scheme.window} beyond the certified window {window}"
        )
    try:
        ext = McShaneExtension(ctx, g, None, window)
        trace, c_est = tuple(ext.trace), ext.c
    except FiniteOrderError as err:
        ext, trace, c_est = None, tuple(err.trace), Fraction(0)
    threshold = max(DETECT_ABS_THRESHOLD, DETECT_REL_THRESHOLD * float(trace[0][1]))
    if ext is None or float(c_est) <= threshold:
        return UndistortionWitness(
            "distorted-or-undecided", c_est, None, None, trace, threshold, scheme,
        )
    # the anti-symmetrised extension at g^n over n, (f(g^n) - f(g^-n)) / 2n,
    # read off the extension's table in the order of an evaluation at g^n
    # and then at g^-n, so a BudgetError is the one those would raise
    q2 = 2 * c_est.denominator
    values = [Fraction(ext._scaled_power_value(n) - ext._scaled_power_value(-n), q2 * n)
              for n in scheme.indices()]
    handle = homogenised_handle(antisymmetrise(ext.handle), scheme)
    return UndistortionWitness(
        "undistorted", c_est, scheme_limit(scheme, values)[0], handle, trace, threshold,
        scheme, ext,
    )


# ---------------------------------------------------------------------------
# the rearrangement identity g^n h^n = (gh)^n c_1 ... c_{n-1}


@dataclass(frozen=True)
class ShapeCertificate:
    """Exhibits a witness as y^-1 [base, x] y."""

    base_label: str  # "g" or "h"
    x: GroupElement
    conjugator: GroupElement

    def reconstruct(self, g: GroupElement, h: GroupElement) -> GroupElement:
        base = g if self.base_label == "g" else h
        return conjugate(commutator(base, self.x), self.conjugator)


@dataclass
class CommutatorWitnessList:
    """Verified witnesses c_1..c_{n-1} with g^n h^n = (gh)^n c_1...c_{n-1}.

    All witnesses are conjugates of [g, x_i] (base "g") or all of [h, x_i]
    (base "h"); both the product identity and every shape certificate are
    re-verified by exact arithmetic on construction.
    """

    g: GroupElement
    h: GroupElement
    n: int
    base: str
    witnesses: tuple[GroupElement, ...]
    certificates: tuple[ShapeCertificate, ...]

    def product(self) -> GroupElement:
        out = self.g.identity()
        for c in self.witnesses:
            out = out * c
        return out

    def norm_bound_check(self, norm_fn: Callable[[GroupElement], float]):
        """(lhs, rhs) for ||c_1...c_{n-1}|| <= 2(n-1) min(||g||, ||h||)."""
        lhs = norm_fn(self.product())
        rhs = 2 * (self.n - 1) * min(norm_fn(self.g), norm_fn(self.h))
        return lhs, rhs


def _witnesses(g: GroupElement, h: GroupElement, n: int, base: str):
    """(witness, certificate) pairs of the rearrangement identity, from one
    walk of P = gh: O(n) products for either base.

    For j = 0..n-2 and m = n-1-j, base "h" takes x = P^-m and
    y = P^m h^j (ascending j); base "g" takes x = P^m and
    y = P^-m g^-(j+1) P^n (listed from j = n-2 down to 0).  Each witness
    is y^-1 [b, x] y for its base b.
    """
    p = g * h
    p_inv = p.inverse()
    pos, neg = [g.identity()], [g.identity()]  # P^m and P^-m
    for _ in range(n):
        pos.append(pos[-1] * p)
        neg.append(neg[-1] * p_inv)
    b, step = (h, h) if base == "h" else (g, g.inverse())
    tail = g.identity() if base == "h" else step  # h^j or g^-(j+1)
    items = []
    for j in range(n - 1):
        m = n - 1 - j
        x, y = (neg[m], pos[m] * tail) if base == "h" else (pos[m], neg[m] * tail * pos[n])
        items.append((conjugate(commutator(b, x), y), ShapeCertificate(base, x, y)))
        tail = tail * step
    return items if base == "h" else items[::-1]


def c_trick_witness(g: GroupElement, h: GroupElement, n: int, base: str = "h") -> CommutatorWitnessList:
    """Construct and exactly verify the witnesses of the rearrangement
    identity; ``base`` chooses which element all commutator shapes use."""
    if type(g) is not type(h):
        raise FamilyMismatchError("c-trick needs both elements in one family")
    if n < 1:
        raise ValueError("n must be >= 1")
    if base not in ("g", "h"):
        raise ValueError("base must be 'g' or 'h'")
    items = _witnesses(g, h, n, base)
    witnesses = tuple(c for c, _ in items)
    certificates = tuple(cert for _, cert in items)
    result = CommutatorWitnessList(g, h, n, base, witnesses, certificates)
    lhs = (g ** n) * (h ** n)
    rhs = ((g * h) ** n) * result.product()
    if lhs != rhs:
        raise PqmError(f"product identity failed for n={n}: {lhs!r} != {rhs!r}")
    for c, cert in items:
        if cert.reconstruct(g, h) != c:
            raise PqmError(f"shape certificate failed for witness {c!r}")
    return result


# ---------------------------------------------------------------------------
# Brooks counting functions


def _count_subwords(codes: tuple[int, ...], pattern: tuple[int, ...]) -> int:
    p = len(pattern)
    if p == 0 or p > len(codes):
        return 0
    first = pattern[0]
    count = 0
    for i in range(len(codes) - p + 1):
        if codes[i] == first and codes[i : i + p] == pattern:
            count += 1
    return count


def brooks_qm(pattern: FreeWord, ctx: GroupContext | None = None) -> PqmHandle:
    """Counting function: occurrences of the pattern in the reduced word
    minus occurrences of its inverse (overlaps counted)."""
    if not isinstance(pattern, FreeWord):
        raise FamilyMismatchError("Brooks patterns are free words")
    if len(pattern) == 0:
        raise ValueError("pattern must be nonempty")
    if ctx is None:
        ctx = free_cancellation_context(pattern.rank)
    pat = pattern.codes()
    pat_inv = pattern.inverse().codes()

    def fn(w: GroupElement) -> int:
        if not isinstance(w, FreeWord):
            raise FamilyMismatchError("Brooks functions take free words")
        codes = w.codes()
        return _count_subwords(codes, pat) - _count_subwords(codes, pat_inv)

    return PqmHandle(f"brooks:{pattern.encode()}", fn, ctx)


# ---------------------------------------------------------------------------
# unit-step walks


WALK_KINDS = ("alternating", "all-up", "doubling-blocks")


class Walk:
    """A unit-step walk w: Z -> Z with w(0) = 0, |w(n+1) - w(n)| = 1.

    Extended to negative arguments oddly: w(-m) = -w(m).
    """

    def __init__(self, kind: str):
        if kind not in WALK_KINDS:
            raise WalkSpecError(
                f"malformed walk spec {kind!r}; expected {' | '.join(WALK_KINDS)}"
            )
        self.kind = kind

    def __call__(self, n: int) -> int:
        if n < 0:
            return -self(-n)
        if self.kind == "all-up":
            return n
        if self.kind == "alternating":
            return n % 2
        # doubling-blocks: block j covers steps [2^j - 1, 2^{j+1} - 1), sign
        # (-1)^j; boundary value w(2^j - 1) = (1 - (-2)^j) / 3
        if n == 0:
            return 0
        j = (n + 1).bit_length() - 1
        boundary = (1 - (-2) ** j) // 3
        sign = 1 if j % 2 == 0 else -1
        return boundary + sign * (n - (2 ** j - 1))


def walk_build(spec: str) -> Walk:
    """Built-in walks: ``alternating``, ``all-up``, ``doubling-blocks``."""
    return Walk(spec)


def walk_handle(walk: Walk, ctx: GroupContext | None = None) -> PqmHandle:
    """The walk as a function on the integer line context."""
    if ctx is None:
        ctx = integer_line_context()
    check_coordinate(ctx, 0, f"walk:{walk.kind}")
    return PqmHandle(f"walk:{walk.kind}", lambda v: walk(v.coords[0]), ctx)
