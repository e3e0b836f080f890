"""Shared test helpers: independent oracles kept deliberately naive."""

from __future__ import annotations

import itertools
from fractions import Fraction

from binorms.cli import JobSpecError, parse_jobfile
from binorms.groups import FreeWord, Permutation


def parse_job(text: str):
    """The one job of a job file; a JobSpecError carries every spec error."""
    jobs, errors = parse_jobfile(text)
    if errors:
        raise JobSpecError(errors)
    (job,) = jobs
    return job


def all_permutations(degree: int) -> list[Permutation]:
    """All of S_degree, in lexicographic image order."""
    points = range(1, degree + 1)
    return [Permutation(dict(zip(points, images))) for images in itertools.permutations(points)]


def reduces_to_identity(codes) -> bool:
    stack = []
    for c in codes:
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)
    return not stack


def deletion_oracle(word: FreeWord) -> int:
    """Exhaustive minimum over all deletion subsets, smallest first."""
    codes = word.codes()
    length = len(codes)
    for deletions in range(length + 1):
        keep = length - deletions
        for kept in itertools.combinations(range(length), keep):
            if reduces_to_identity([codes[i] for i in kept]):
                return deletions
    return length


def dense_cancellation_dp(codes) -> int:
    """The cancellation-norm interval DP over every cell and every split.

    N[i][j + 1] = minimal deletions so that codes[i..j] reduces to the
    identity; the +1 column offset lets empty subwords (j < i) read 0.
    """
    codes = list(codes)
    length = len(codes)
    table = [[0] * (length + 2) for _ in range(length + 2)]
    for span in range(1, length + 1):
        for i in range(length - span + 1):
            j = i + span - 1
            best = table[i + 1][j + 1] + 1
            for k in range(i + 1, j + 1):
                if codes[k] == -codes[i]:
                    best = min(best, table[i + 1][k] + table[k + 1][j + 1])
            table[i][j + 1] = best
    return table[0][length]


def recursive_h_shape_witnesses(g, h, n):
    """Frozen copy of the original recursive witness construction (base
    "h"): g^n h^n = g (g^{n-1} h^{n-1}) h, and g u h = (gh)^n [u, h] for
    u = (gh)^{n-1}; each deeper witness is conjugated by h again."""
    from binorms.groups import commutator, conjugate
    from binorms.pqm import ShapeCertificate

    if n == 1:
        return []
    u = (g * h) ** (n - 1)
    x = u.inverse()
    first = (conjugate(commutator(h, x), u), ShapeCertificate("h", x, u))
    rest = [
        (conjugate(c, h), ShapeCertificate("h", cert.x, cert.conjugator * h))
        for c, cert in recursive_h_shape_witnesses(g, h, n - 1)
    ]
    return [first] + rest


def recursive_g_shape_witnesses(g, h, n):
    """Frozen copy of the original base-"g" construction: invert the
    identity for the pair (h^-1, g^-1) and conjugate back through (gh)^n."""
    from binorms.groups import commutator, conjugate
    from binorms.pqm import ShapeCertificate

    primal = recursive_h_shape_witnesses(h.inverse(), g.inverse(), n)
    q = (g * h) ** n
    out = []
    for _, cert in reversed(primal):
        x = cert.x
        y = x.inverse() * g.inverse() * x * cert.conjugator * q
        out.append((conjugate(commutator(g, x), y), ShapeCertificate("g", x, y)))
    return out


def frozen_product_search(g, factors, identity, k_max, cap, lower):
    """Frozen copy of the original bounded product search: level k is all
    of T^k with no visited set, tested by lookup before it is built;
    [lower, inf] when g is not found or a level outgrows ``cap``."""
    import math

    from binorms.norms import NormError, NormInterval

    factor_set = set(factors)
    frontier = {identity: None}
    for k in range(1, k_max + 1):
        for elem in frontier:
            if elem.inverse() * g in factor_set:
                if lower > k:
                    raise NormError(f"lower bound {lower} exceeds found product length {k}")
                return NormInterval(lower, k, lower == k)
        if k == k_max:
            break
        nxt = {}
        for elem in frontier:
            for t in factors:
                nxt[elem * t] = None
            if len(nxt) > cap:
                return NormInterval(lower, math.inf, False)
        frontier = nxt
    return NormInterval(lower, math.inf, False)


def _reference_keep_supremum(ratio, elements, best, witness):
    """Frozen copy of the original running supremum: the new (best,
    witness) after seeing ``ratio`` at ``elements``, ties broken by
    canonical encoding order."""
    if witness is not None and not ratio >= best:
        return best, witness
    pair = tuple(e.encode() for e in elements)
    if witness is None or ratio > best:
        return max(best, ratio), pair
    return best, min(pair, witness)


def reference_defect_estimate(f, pairs):
    """Frozen copy of the original defect loop: every pair evaluates
    ||g||, ||h||, f(g), f(gh), f(h) and one exact-division ratio.
    Returns (value, witness, n_samples, zero_min_violations)."""
    from binorms.pqm import _exact_div

    ctx = f.ctx
    best, witness, zero_min_bad, count = Fraction(0), None, 0, 0
    for g, h in pairs:
        count += 1
        m = min(ctx.norm_exact(g), ctx.norm_exact(h))
        delta = abs(f(g) - f(g * h) + f(h))
        if m == 0:
            if delta != 0:
                zero_min_bad += 1
            continue
        best, witness = _reference_keep_supremum(_exact_div(delta, m), (g, h), best, witness)
    return best, witness, count, zero_min_bad


def reference_lipschitz_estimate(f, pairs):
    """Frozen copy of the original Lipschitz loop: every distinct pair
    evaluates d(g, h), f(g), f(h).  Returns (value, witness, n_samples, 0)."""
    from binorms.pqm import _exact_div

    ctx = f.ctx
    best, witness, count = Fraction(0), None, 0
    for g, h in pairs:
        if g == h:
            continue
        count += 1
        d = ctx.dist(g, h)
        best, witness = _reference_keep_supremum(
            _exact_div(abs(f(g) - f(h)), d), (g, h), best, witness)
    return best, witness, count, 0


def reference_generator_bound(f, generators):
    """Frozen copy of the original generator bound.  Returns (value, witness, n_samples, 0)."""
    best, witness, count = Fraction(0), None, 0
    for s in generators:
        count += 1
        best, witness = _reference_keep_supremum(abs(f(s)), (s,), best, witness)
    return best, witness, count, 0
