"""Sampled checks of the paper's statements that only the tests run.

Each check takes a partial quasimorphism's constants as arguments, sampled
(``pqm.defect_estimate``, ``conftest.reference_generator_bound``) or
proved, and returns the counts its tests read.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from binorms.cone import cone_norm
from binorms.groups import commutator, conjugate
from binorms.norms import NormError, in_commutator_subgroup
from binorms.pqm import DEFAULT_TOLERANCE, _exact_div, scheme_limit
from binorms.sampling import all_reduced_words, element_sampler

INTEGRABILITY_DOUBLINGS = 20  # doubling intervals [2^i, 2^(i+1)] ...
INTEGRABILITY_STEPS = 64  # ... of trapezoid steps each


def forward_inequalities_check(f, pairs, sigma, defect) -> int:
    """The pairs that break the quantitative forward direction: with
    generator bound ``sigma`` and defect ``defect``, every pair must satisfy
    |f(h)| <= (sigma + D) ||h|| and |f(g) - f(gh)| <= (sigma + 2D) ||h||."""
    violations = 0
    for g, h in pairs:
        nh = f.ctx.norm_exact(h)
        if abs(f(h)) > (sigma + defect) * nh or abs(f(g) - f(g * h)) > (sigma + 2 * defect) * nh:
            violations += 1
    return violations


def homogeneity_check(f_hom, g, k_list):
    """max_k |f_hom(g^k) - k * f_hom(g)|, with the table of f_hom(g^k)."""
    base = f_hom(g)
    table = [(k, f_hom(g ** k)) for k in k_list]
    return max((abs(float(value - k * base)) for k, value in table), default=0.0), table


def integrability_witness(phi) -> bool:
    """Whether phi(t)/t^2 looks integrable on [1, inf): trapezoid estimates
    of its integral over doubling intervals must decrease, the last under
    1% of the total."""
    total = 0.0
    increments = []
    lo = 1.0
    for _ in range(INTEGRABILITY_DOUBLINGS):
        h = lo / INTEGRABILITY_STEPS
        acc = 0.0
        for i in range(INTEGRABILITY_STEPS):
            t0 = lo + i * h
            t1 = t0 + h
            acc += 0.5 * h * (phi(t0) / t0 ** 2 + phi(t1) / t1 ** 2)
        total += acc
        increments.append(acc)
        lo *= 2
    decreasing = all(b <= a + 1e-12 for a, b in zip(increments, increments[1:]))
    return decreasing and increments[-1] <= 0.01 * max(total, 1e-12)


class LinearBoundError(Exception):
    """A lifted function exceeded its linear bound certificate."""


def lift_function(f, p, scheme, linear_bound_C):
    """The induced functional at the cone point p: the scheme-limit of
    f(p_n) / n.  ``linear_bound_C`` is a C with |f(g)| <= C ||g|| (sigma + 2D
    for a partial quasimorphism), checked per index as |f(p_n)| <= C * L * n
    against the point's growth bound L."""
    cap = linear_bound_C * float(p.growth_bound)
    values = []
    for n in scheme.indices():
        v = f(p.element_at(n))
        if abs(float(v)) > cap * n + 1e-9:
            raise LinearBoundError(f"|{f.name}({p.label}({n}))| = {v} exceeds C*L*n = {cap * n}")
        values.append(_exact_div(v, n))
    return scheme_limit(scheme, values)[0]


def lifted_defect_check(f, point_pairs, scheme, defect, linear_bound_C):
    """(violations, max ratio) of |F(p) - F(pq) + F(q)| against
    D * min(cone norms) + DEFAULT_TOLERANCE over cone-point pairs, for the
    lift F of f."""
    violations = 0
    worst = 0.0
    for p, q in point_pairs:
        fp, fq, fpq = (float(lift_function(f, r, scheme, linear_bound_C)) for r in (p, q, p.mul(q)))
        delta = abs(fp - fpq + fq)
        m = min(float(cone_norm(p, scheme).value), float(cone_norm(q, scheme).value))
        if delta > float(defect) * m + DEFAULT_TOLERANCE:
            violations += 1
        if m > 0:
            worst = max(worst, delta / m)
    return violations, worst


def abelian_cl_cone_check(g_seq, h_seq, scheme):
    """(value, trace): the certified decay of cl([g_n, h_n]) / n on a
    commutator-length context.  Each index is a single commutator, so its
    bound is 1/n (0 where the commutator is trivial); the value is the best
    bound over the window, and the trace pairs each index with its bound."""
    trace = []
    for n in scheme.indices():
        u, v = g_seq.element_at(n), h_seq.element_at(n)
        for w in (u, v):
            if not in_commutator_subgroup(w):
                raise NormError(f"sequence entry {w.encode()!r} is outside the commutator subgroup")
        trace.append((n, Fraction(0) if commutator(u, v).is_identity() else Fraction(1, n)))
    return min(bound for _, bound in trace), trace


def unit_ball_word_norm(x) -> int:
    """Word norm w.r.t. the closed unit ball of (R^d, L^1): ceil of the
    L^1 length (0 at the origin)."""
    return math.ceil(sum(abs(float(c)) for c in x))


def _greedy_subdivision_steps(x) -> int:
    """Independent oracle: walk the straight segment to x in unit-length
    steps, counting the final shorter segment as one."""
    remaining = sum(abs(float(c)) for c in x)
    steps = 0
    while remaining > 1.0:
        remaining -= 1.0
        steps += 1
    return steps + (remaining > 0.0)


def length_vs_word_check(d, n_samples, seed):
    """(violations, greedy mismatches) of ||x|| <= ||x||_S <= ||x|| + 1 on
    random vectors in [-10, 10]^d, with the greedy segment subdivision as
    the oracle for the unit-ball word norm."""
    rng = random.Random(seed)
    violations = mismatches = 0
    for _ in range(n_samples):
        x = [rng.uniform(-10.0, 10.0) for _ in range(d)]
        length = sum(abs(c) for c in x)
        word = unit_ball_word_norm(x)
        violations += not (length <= word <= length + 1.0)
        mismatches += word != _greedy_subdivision_steps(x)
    return violations, mismatches


def check_conjugation_invariance(ctx, pairs):
    """(max discrepancy, non-exact pairs) of ||h^-1 g h|| against ||g||.

    Normal-closure contexts must give (0, 0); a non-normal explicit set is
    expected to fail.  Where a norm is only an interval, the certified gap
    between the two intervals, if any, is the discrepancy."""
    worst = 0
    non_exact = 0
    for g, h in pairs:
        ng, nc = ctx.norm(g), ctx.norm(conjugate(g, h))
        if ng.exact and nc.exact:
            gap = abs(nc.lower - ng.lower)
        else:
            non_exact += 1
            gap = max(nc.lower - ng.upper, ng.lower - nc.upper, 0)
        worst = max(worst, gap)
    return worst, non_exact


def generator_sample(ctx, seed, count):
    """Sampleable generators of ``ctx``: the explicit list, class
    representatives with seeded conjugators for normal closures, or seeded
    commutators of short words for all commutators."""
    gens = ctx.generators
    if gens.kind == "explicit":
        return list(gens.elements)
    rng = random.Random(seed)
    if gens.kind == "normal-closure":
        draw = element_sampler(ctx.family, rank=ctx.rank, degree=ctx.degree, dim=ctx.dim,
                               max_len=4, box=6)
        base = [t for s in gens.elements for t in (s, s.inverse())]
        return [conjugate(base[rng.randrange(len(base))], draw(rng)) for _ in range(count)]
    words = all_reduced_words(ctx.rank, 2)
    out = []
    while len(out) < count:
        c = commutator(words[rng.randrange(len(words))], words[rng.randrange(len(words))])
        if not c.is_identity():
            out.append(c)
    return out
