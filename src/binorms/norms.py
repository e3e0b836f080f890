"""Conjugation-invariant norm evaluators.

A :class:`GroupContext` bundles a group family with a generating-set
descriptor and a norm backend, and owns both the norm and the induced
right-invariant metric ``d(g, h) = ||g h^-1||``.  Backends (``BACKENDS``):

* ``bfs``              exact Cayley-graph search (enumerable generating sets)
* ``transposition-closed-form``  |support| - #cycles on permutations
* ``cancellation-dp``  minimal-deletion interval DP on free words (the
                       effective model of the maximal bi-invariant word norm)
* ``l1``               L^1 norm on lattice vectors
* ``bounded-search``   certified construction/obstruction bounds (Heisenberg)
* ``cl-bounds``        commutator length on [F, F], exact from Culler's pairings

Evaluators that cannot certify an exact value return a
:class:`NormInterval` with ``exact=False``; nothing is ever silently
approximated.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

from . import kernels
from .groups import (
    FamilyMismatchError,
    FreeWord,
    GroupElement,
    Heisenberg,
    HEISENBERG_A,
    HEISENBERG_B,
    LatticeVector,
    Permutation,
    conjugate,
    cycle_decomposition,
)


class NormError(Exception):
    """Raised when a context cannot evaluate the requested norm."""


class InexactNormError(NormError):
    """Raised when an exact norm value is required but only bounds exist."""


class BudgetError(NormError):
    """Raised when a search would build more than ``MEMORY_CAP`` elements,
    or the kernel would run on more than ``MAX_LETTERS`` letters."""


@dataclass(frozen=True)
class NormInterval:
    """Certified bounds [lower, upper] for a norm value."""

    lower: float
    upper: float
    exact: bool

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"invalid interval [{self.lower}, {self.upper}]")
        if self.exact and self.lower != self.upper:
            raise ValueError("exact interval must have lower == upper")

    @classmethod
    def exact_value(cls, value) -> "NormInterval":
        return cls(value, value, True)

    def require_exact(self):
        if not self.exact:
            raise InexactNormError(
                f"exact norm required, have bounds [{self.lower}, {self.upper}]"
            )
        return self.lower


@functools.cache
def _exact_interval(value: int) -> NormInterval:
    """The one shared exact interval of an integer norm value; a norm is at
    most its word's length, so at most ``MAX_LETTERS + 1`` are ever built."""
    return NormInterval.exact_value(value)


# Search budgets, read when a search runs: the elements of a ball and the
# conjugators of a closure, the depth of a bfs norm, the factors and
# conjugator length of a bounded-search norm, and a cl-bounds norm's work,
# charged as the pairings it tries times the letters of its cyclic word.
MEMORY_CAP = 500_000
BFS_MAX_RADIUS = 12
SEARCH_K_MAX = 6
SEARCH_CONJ_LEN = 34
CL_PAIRING_STEPS = 1 << 21

# Letters a context's norm memo may hold: an entry is charged the length of
# its codes plus one, whether it holds a norm or a row, and the memo is
# emptied when the next entry would take it over.
NORM_MEMO_LETTERS = 1 << 18

# Longest word the kernel runs on: its table is L^2 cells.  Cone points
# refuse longer elements with the same cap.
MAX_LETTERS = 4096


def check_letters(length: int) -> None:
    """Raise BudgetError when the kernel would run on a word of over
    ``MAX_LETTERS`` letters."""
    if length > MAX_LETTERS:
        raise BudgetError(
            f"a {length}-letter word is over the {MAX_LETTERS}-letter kernel cap"
        )


# ---------------------------------------------------------------------------
# generating sets


@dataclass(frozen=True)
class GeneratingSet:
    """Descriptor of a symmetric generating set.

    kinds: ``explicit`` (a finite inverse-closed list), ``normal-closure``
    (all conjugates of the listed elements and of their inverses),
    ``all-commutators`` (free-group commutator subgroup).
    """

    kind: str
    elements: tuple[GroupElement, ...] = ()

    def __post_init__(self):
        if self.kind not in ("explicit", "normal-closure", "all-commutators"):
            raise ValueError(f"unknown generating-set kind {self.kind!r}")
        if any(e.is_identity() for e in self.elements):
            raise ValueError("generating sets must not contain the identity")
        if self.kind == "explicit":
            elems = set(self.elements)
            if {e.inverse() for e in elems} != elems:
                raise ValueError("explicit generating set must be inverse-closed")

    @classmethod
    def explicit_symmetrized(cls, elements: Iterable[GroupElement]) -> "GeneratingSet":
        """Close the list under inverses, deduplicated deterministically."""
        seen: dict[str, GroupElement] = {}
        for e in elements:
            for x in (e, e.inverse()):
                seen.setdefault(x.encode(), x)
        return cls("explicit", tuple(seen[k] for k in sorted(seen)))

    @classmethod
    def normal_closure(cls, elements: Iterable[GroupElement]) -> "GeneratingSet":
        return cls("normal-closure", tuple(elements))

    @classmethod
    def all_commutators(cls) -> "GeneratingSet":
        return cls("all-commutators")

    def describe(self) -> str:
        if self.elements:
            return self.kind + ":" + ",".join(e.encode() for e in self.elements)
        return self.kind


class Family(NamedTuple):
    """A group family: the job key naming its size (``None``: the Heisenberg
    group, labelled dim=3), its default backend, its standard set and, where
    a normal closure is recognised by conjugacy class, ``standard_class``:
    the index of the standard generator g is conjugate to up to inverse,
    or None."""

    size_key: str | None
    backend: str
    standard: Callable[[int, int], GeneratingSet]
    standard_class: Callable[[GroupElement], int | None] | None = None


def _cyclic_core(codes: tuple[int, ...]) -> tuple[int, ...]:
    """A reduced word's codes, ends stripped while the first inverts the last."""
    i, j = 0, len(codes)
    while j - i > 1 and codes[i] == -codes[j - 1]:
        i, j = i + 1, j - 1
    return codes[i:j]


def _free_letter_class(w: FreeWord) -> int | None:
    """i when w cyclically reduces to the one letter a_i or a_i^-1."""
    core = _cyclic_core(w.codes())
    return abs(core[0]) if len(core) == 1 else None


FAMILIES: dict[str, Family] = {
    "free": Family("rank", "cancellation-dp", lambda rank, dim: GeneratingSet.normal_closure(
        FreeWord.generator(rank, i) for i in range(1, rank + 1)), _free_letter_class),
    "perm": Family("degree", "transposition-closed-form", lambda rank, dim:
                   GeneratingSet.normal_closure((Permutation.transposition(1, 2),)),
                   lambda p: 1 if len(p.support) == 2 else None),
    "lattice": Family("dim", "l1", lambda rank, dim: GeneratingSet.explicit_symmetrized(
        LatticeVector(tuple(int(i == j) for j in range(dim))) for i in range(dim))),
    "heisenberg": Family(None, "bounded-search", lambda rank, dim:
                         GeneratingSet.normal_closure((HEISENBERG_A, HEISENBERG_B))),
}


def standard_generators(family: str, rank: int = 2, dim: int = 2) -> GeneratingSet:
    """Each family's default generating set: the unit vectors of Z^dim and
    their inverses, or the normal closure of the free generators, of the
    transposition (1 2), or of the Heisenberg a and b."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return FAMILIES[family].standard(rank, dim)


def _is_standard(family: str, gens: GeneratingSet, standard: GeneratingSet) -> bool:
    """Whether ``gens`` is the family's standard set.  In a family with a
    ``standard_class``, a normal closure is standard when each listed
    element is conjugate, up to inverse, to a standard generator and every
    standard generator is hit.  Otherwise the set must have the standard
    elements up to inverses, listed or normally closed; the standard set is
    closed under conjugation, so its normal closure is itself."""
    standard_class = FAMILIES[family].standard_class
    if standard_class is not None and gens.kind == "normal-closure":
        classes = {standard_class(e) for e in gens.elements}
        return classes == {standard_class(e) for e in standard.elements}

    def symmetric(s: GeneratingSet) -> set[GroupElement]:
        return {t for e in s.elements for t in (e, e.inverse())}

    return gens.kind in ("normal-closure", standard.kind) and symmetric(gens) == symmetric(standard)


# ---------------------------------------------------------------------------
# individual evaluators


def l1_norm(v) -> float:
    """Sum of absolute coordinate values; accepts lattice or real vectors."""
    if isinstance(v, LatticeVector):
        return sum(abs(c) for c in v.coords)
    return float(sum(abs(float(c)) for c in v))


def transposition_norm(p: Permutation) -> int:
    """Word norm of a permutation w.r.t. the class of all transpositions.

    Equals |support| - (number of cycles), the sum of (length - 1) over
    the cycles; cross-validated against BFS on S_4 and S_5 in the
    acceptance suite.
    """
    return sum(len(cycle) - 1 for cycle in cycle_decomposition(p))


def cancellation_norm(w: FreeWord) -> int:
    """Minimal number of letters to delete so the rest reduces to 1.

    This is the package's definition-level evaluator of the maximal
    bi-invariant word norm on a free group (generators: all conjugates of
    the free generators and their inverses).  O(L^3) interval DP.
    """
    if not isinstance(w, FreeWord):
        raise FamilyMismatchError("cancellation norm is defined on free words")
    codes = w.codes()
    check_letters(len(codes))
    return kernels.cancellation_dp(codes)


def heisenberg_conjugacy_norm(g: Heisenberg) -> tuple[NormInterval, tuple[Heisenberg, ...]]:
    """Norm of g w.r.t. the normal closure of {a, b} in the Heisenberg group,
    with its witness: conjugated generators whose product is g.

    Conjugation acts on generators through the abelianised conjugator only:
    x^-1 a^s x = (s, 0, s*q) and x^-1 b^s x = (0, s, -s*p) for x = (p,q,r).
    Upper bound: an explicit product of |x|+|y| conjugates (2 for a
    nontrivial central element), verified by exact multiplication.  Lower
    bound: abelianisation forces k >= |x|+|y|, and a nontrivial central
    element needs k >= 2 since every generator has nonzero abelianisation.
    The bounds meet, so the result is always exact; the ``bounded-search``
    backend reads the lower bound alone, and this witness is its oracle.
    """
    x, y, z = g.x, g.y, g.z
    sa = 1 if x > 0 else -1
    sb = 1 if y > 0 else -1
    if x == 0 and y == 0:
        # conjugate of b with parameter p = -z, times b^-1
        factors = () if z == 0 else (Heisenberg(0, 1, z), Heisenberg(0, -1, 0))
    elif x != 0:
        # fold the whole z-adjustment into the first a-factor
        factors = ((Heisenberg(sa, 0, z - x * y),) + (Heisenberg(sa, 0, 0),) * (abs(x) - 1)
                   + (Heisenberg(0, sb, 0),) * abs(y))
    else:
        factors = (Heisenberg(0, sb, z),) + (Heisenberg(0, sb, 0),) * (abs(y) - 1)
    product = g.identity()
    for f in factors:
        if (abs(f.x), abs(f.y)) not in ((1, 0), (0, 1)):
            raise NormError(f"internal witness {f!r} is not a conjugated generator")
        product = product * f
    if product != g:
        raise NormError(f"witness product {product!r} does not equal target {g!r}")
    return NormInterval.exact_value(len(factors)), factors


# ---------------------------------------------------------------------------
# BFS on Cayley graphs


class BfsBall:
    """Distance table of a Cayley-graph ball, built level by level.

    Generators are deduplicated and sorted by encoding, and each level is
    expanded in the order of the one before, so the table is deterministic.
    A level that would outgrow ``memory_cap`` elements marks the ball
    truncated and leaves ``radius`` and the frontier at the last complete
    level, so a shared ball answers each query as a fresh one would.
    """

    def __init__(self, generators: Iterable[GroupElement], identity: GroupElement,
                 memory_cap: int = MEMORY_CAP):
        self._generator_set = set(generators)
        self.generators = sorted(self._generator_set, key=lambda e: e.encode())
        self._inverse_generators = [s.inverse() for s in self.generators]
        self.memory_cap = memory_cap
        self.distances: dict[GroupElement, int] = {identity: 0}
        self.radius = 0
        self.truncated = False
        self._frontier = [identity]

    def grow_to(self, radius: int) -> None:
        while self.radius < radius and self._frontier and not self.truncated:
            nxt = []
            for elem in self._frontier:
                for s in self.generators:
                    candidate = elem * s
                    if candidate not in self.distances:
                        if len(self.distances) >= self.memory_cap:
                            self.truncated = True
                            return
                        self.distances[candidate] = self.radius + 1
                        nxt.append(candidate)
            self._frontier = nxt
            self.radius += 1

    def distance(self, g: GroupElement, k_max: int) -> int | None:
        """The least k <= k_max with g a product of k generators; None when
        there is none, or when the cap stops the ball first.

        Level k is tested by lookup before it is built (g is on it iff
        g = e s for some e on level k-1 and generator s), so level k_max is
        never built, a ball already grown past k just reads its table, and
        a truncated ball still tests the level after its last complete one.
        The test takes min(|S|, |frontier|) products: g s^-1 looked up on
        level k-1 for each generator s, or e^-1 g against the generators
        for each e on the frontier.
        """
        found = self.distances.get(g)
        if found is not None:
            return found if found <= k_max else None
        for k in range(self.radius + 1, k_max + 1):
            if k > self.radius + 1 or not self._frontier:
                return None  # the cap stopped level k - 1, or the group is exhausted
            if len(self._inverse_generators) < len(self._frontier):
                # the frontier is every element at distance radius
                hit = any(self.distances.get(g * t) == self.radius
                          for t in self._inverse_generators)
            else:
                hit = any(e.inverse() * g in self._generator_set for e in self._frontier)
            if hit:
                return k
            if k < k_max:
                self.grow_to(k)
        return None


def _conjugacy_orbit(gens: Iterable[GroupElement], conjugators: Sequence[GroupElement],
                     rounds: float = math.inf) -> set[GroupElement]:
    """Every x^-1 s^±1 x with x a product of at most ``rounds`` of the
    ``conjugators`` (an inverse-closed list): the signed generators
    conjugated by each conjugator, round after round, each round taking
    only what the last one added.  Unbounded, it stops when a round adds
    nothing, so ``conjugators`` must generate a finite group."""
    orbit = {t for s in gens for t in (s, s.inverse())}
    frontier = list(orbit)
    while frontier and rounds > 0:
        found = {conjugate(t, x) for t in frontier for x in conjugators}
        frontier = list(found - orbit)
        orbit |= found
        rounds -= 1
    return orbit


def _class_size(cycle_type: tuple[int, ...], degree: int) -> int:
    """The size n!/prod_k k^m_k m_k! of the class of S_n, n = ``degree``,
    whose cycles of length >= 2 have the lengths ``cycle_type``: m_k is the
    number of k-cycles, and m_1 = n - |support| the number of fixed points."""
    counts = collections.Counter(cycle_type)
    counts[1] = degree - sum(cycle_type)
    return math.factorial(degree) // math.prod(k ** m * math.factorial(m)
                                               for k, m in counts.items())


def enumerate_effective_generators(ctx: "GroupContext",
                                   conj_len: int | None = None) -> set[GroupElement]:
    """The finite generating set a ball search walks: an explicit list, a
    ``perm`` or ``lattice`` closure, or the conjugates x^-1 s^±1 x of a
    ``free`` or ``heisenberg`` closure by words x of at most ``conj_len``
    letters.  The last raises NormError without a ``conj_len``, and
    ``all-commutators`` always does; the conjugators of a closure, and the
    conjugates of a ``perm`` closure, are counted against ``MEMORY_CAP``
    before any is built."""
    gens = ctx.generators
    if gens.kind == "explicit":
        return set(gens.elements)
    if gens.kind == "normal-closure":
        if ctx.family == "perm":
            # the orbit is one class of S_degree per listed cycle type
            size = sum(_class_size(t, ctx.degree) for t in {
                tuple(sorted(len(c) for c in cycle_decomposition(s))) for s in gens.elements})
            if size > MEMORY_CAP:
                raise BudgetError(f"{size} conjugates exceed memory_cap {MEMORY_CAP}")
            # conjugates within S_degree, which the adjacent transpositions generate
            adjacent = [Permutation.transposition(i, i + 1) for i in range(1, ctx.degree)]
            return _conjugacy_orbit(gens.elements, adjacent)
        if ctx.family == "lattice":
            # conjugation is trivial in an abelian group
            return _conjugacy_orbit(gens.elements, ())
        if conj_len is None:
            raise NormError(
                f"normal closure is not enumerable for family {ctx.family!r}; "
                "use the dedicated backend"
            )
        if ctx.family == "free":
            # reduced words of length <= L in rank r: 1 + sum_{i<L} 2r (2r-1)^i
            count = 1 + sum(2 * ctx.rank * (2 * ctx.rank - 1) ** i for i in range(conj_len))
        else:
            # conjugation by (p,q,r) depends only on (p,q), so the 2L^2 + 2L + 1
            # words a^p b^q with |p|+|q| <= L = conj_len cover the whole ball
            count = 2 * conj_len * conj_len + 2 * conj_len + 1
        if count > MEMORY_CAP:
            raise BudgetError(f"{count} conjugators exceed memory_cap {MEMORY_CAP}")
        # L rounds by the signed letters conjugate by every word of <= L letters
        letters = [t for s in standard_generators(ctx.family, ctx.rank).elements
                   for t in (s, s.inverse())]
        return _conjugacy_orbit(gens.elements, letters, conj_len)
    raise NormError(f"generating set {gens.kind!r} is not enumerable")


def bfs_word_norm(ctx: "GroupContext", g: GroupElement, max_radius: int) -> NormInterval:
    """Exact word norm via breadth-first search, if found within max_radius.

    Otherwise ``[max_radius + 1, inf]``, or on a truncated ball
    ``[min(radius + 2, max_radius + 1), inf]``: every level up to its
    ``radius`` is complete and the next was tested by lookup.
    """
    ball = ctx.ball()
    dist = ball.distance(g, max_radius)
    if dist is not None:
        return NormInterval.exact_value(dist)
    lower = min(ball.radius + 2, max_radius + 1) if ball.truncated else max_radius + 1
    return NormInterval(lower, math.inf, False)


# ---------------------------------------------------------------------------
# bounded searches


def _abelianisation_size(g: GroupElement) -> int:
    """The L^1 norm of g's abelianisation: its exponent sums on a free word,
    (x, y) on a Heisenberg element."""
    return abs(g.x) + abs(g.y) if g.family == "heisenberg" else sum(map(abs, g.exponent_sums()))


def _abelianisation_lower_bound(ctx: "GroupContext", g: GroupElement) -> int:
    """Certified lower bound for the conjugacy word norm of g on a free or
    Heisenberg context (1 on any other, 0 at the identity).

    A conjugate x^-1 s^±1 x has the abelianisation of s^±1, so a product of
    k of them has ||ab(g)||_1 <= k max_s ||ab(s)||_1 over the listed s.  A
    nontrivial g with ab(g) = 0 (a central Heisenberg element, or a free
    word in [F, F]) is no single conjugate when no listed s has ab(s) = 0.
    """
    if g.is_identity():
        return 0
    if ctx.family not in ("free", "heisenberg"):
        return 1
    sizes = [_abelianisation_size(s) for s in ctx.generators.elements]
    total = _abelianisation_size(g)
    if total == 0:
        return 2 if all(sizes) else 1
    return -(-total // max(sizes)) if any(sizes) else 1


def _search_interval(k: int | None, lower: int) -> NormInterval:
    """[lower, k] for a search that found g at length k, [lower, inf] for
    one that did not."""
    if k is None:
        return NormInterval(lower, math.inf, False)
    if lower > k:
        raise NormError(f"lower bound {lower} exceeds found product length {k}")
    return NormInterval(lower, k, lower == k)


def conjugate_product_search(
    ctx: "GroupContext",
    g: GroupElement,
    k_max: int,
    conj_len_max: int,
) -> NormInterval:
    """Bounded search for g as a product of the context's generators.

    Upper bound: least k <= k_max with g in T^k, read off the context's
    ball over T, the conjugates x^-1 s^±1 x with ||x|| <= conj_len_max of
    its normal closure.  Lower bound from abelianisation/parity
    obstructions; on free contexts with the standard normal closure, the
    cancellation DP supplies the definition-level lower bound.  A search
    that finds no product within k_max, or whose ball outgrows its cap, is
    reported as a non-exact interval, not a failure.
    """
    if ctx.generators.kind != "normal-closure":
        raise NormError("conjugate_product_search requires a normal-closure context")
    lower = _abelianisation_lower_bound(ctx, g)
    if ctx.family == "free" and ctx._standard:
        lower = max(lower, cancellation_norm(g))
    if g.is_identity():
        return NormInterval.exact_value(0)
    return _search_interval(ctx.ball(conj_len_max).distance(g, k_max), lower)


def in_commutator_subgroup(w: FreeWord) -> bool:
    return all(s == 0 for s in w.exponent_sums())


def commutator_length(w: FreeWord) -> NormInterval:
    """cl(w), the least number of commutators with product w in [F, F].

    Culler's theorem (Topology 20, 1981): cl(w) is the least genus
    (1 + m - v) / 2 over the pairings sigma of each letter x of w's cyclic
    reduction c, 2m letters, with an occurrence of x^-1, v the cycles of
    i -> sigma(i + 1 mod 2m).  The search stops at genus 1, the least of a
    nontrivial w, and after ``CL_PAIRING_STEPS // 2m`` pairings gives
    [1, least genus found]: each pairing glues a surface bounding c.
    """
    if not in_commutator_subgroup(w):
        raise NormError(f"{w.encode()!r} is not in the commutator subgroup")
    c = _cyclic_core(w.codes())
    c, n = min(c, tuple(-x for x in reversed(c))), len(c)  # w^-1 gets w's interval
    if not n:
        return _exact_interval(0)
    places = {x: [i for i in range(n) if c[i] == x] for x in set(c)}
    # an odometer: letter k takes its next pairing when the letters after it run out
    letters = sorted(x for x in places if x > 0)
    perms = [None] * len(letters)
    sigma, limit, tried, best, k = [0] * n, max(1, CL_PAIRING_STEPS // n), 0, n, 0
    while k >= 0 and best > 1:
        if k < len(letters):
            perms[k] = perms[k] or itertools.permutations(places[-letters[k]])
            if (js := next(perms[k], None)) is None:
                perms[k], k = None, k - 1
                continue
            for i, j in zip(places[letters[k]], js):
                sigma[i], sigma[j] = j, i
            k += 1
        elif tried == limit:
            break
        else:
            tried, step, seen, cycles = tried + 1, sigma[1:] + sigma[:1], [False] * n, 0
            for i in range(n):
                cycles += not seen[i]
                while not seen[i]:
                    seen[i], i = True, step[i]
            best, k = min(best, (1 + n // 2 - cycles) // 2), k - 1
    return _exact_interval(best) if k < 0 or best == 1 else NormInterval(1, best, False)


# ---------------------------------------------------------------------------
# the context


def _kernel_row(ctx: "GroupContext", codes: tuple[int, ...],
                kernel: Callable) -> int | tuple[int, ...]:
    """The memo's miss path: ``kernel(codes)``, ``kernels.cancellation_dp``
    for a norm or ``kernels.prefix_norms`` for a row, stored under the codes
    the kernel ran on.  Both are functions of the codes alone, so every
    reader of ``ctx._norm_memo`` may share them.  A row replaces a norm
    stored under the same codes, at the same charge."""
    check_letters(len(codes))
    entry = kernel(codes)
    memo = ctx._norm_memo
    if codes not in memo:
        charge = len(codes) + 1
        if ctx._norm_memo_letters + charge > NORM_MEMO_LETTERS:
            memo.clear()
            ctx._norm_memo_letters = 0
        ctx._norm_memo_letters += charge
    memo[codes] = entry
    return entry


def _cancellation_dp_norm(ctx: "GroupContext", g: FreeWord) -> NormInterval:
    """The cancellation norm of the reduced word: its memoised norm, or the
    last entry of its memoised row."""
    codes = g.codes()
    entry = ctx._norm_memo.get(codes)
    if entry is None:
        entry = _kernel_row(ctx, codes, kernels.cancellation_dp)
    elif entry.__class__ is tuple:
        entry = entry[-1]
    return _exact_interval(entry)


def _cancellation_dp_ray(ctx: "GroupContext", h: FreeWord, g: FreeWord,
                         count: int) -> list[int]:
    """||h g^n|| for n = 0..count: entry |h| + n|g| of the row of the plain,
    unreduced codes of h g^count."""
    head, step = h.codes(), g.codes()
    codes = head + step * count
    row = ctx._norm_memo.get(codes)
    if row.__class__ is not tuple:
        row = _kernel_row(ctx, codes, kernels.prefix_norms)
    return [row[len(head) + n * len(step)] for n in range(count + 1)]


def _bounded_search_norm(ctx: "GroupContext", g: GroupElement) -> NormInterval:
    """The Heisenberg norm on the standard closure, which its abelianisation
    bound meets (see :func:`heisenberg_conjugacy_norm`), else the search."""
    if ctx.family == "heisenberg" and ctx._standard:
        return NormInterval.exact_value(_abelianisation_lower_bound(ctx, g))
    return conjugate_product_search(ctx, g, SEARCH_K_MAX, SEARCH_CONJ_LEN)


class Backend(NamedTuple):
    """A norm backend: the family it serves and the generating set it
    evaluates (``"standard"``: its family's, or a kind; ``None``: any),
    ``evaluate(ctx, g)``, which calls this module's functions as globals,
    and ``ray(ctx, h, g, count)``, the norms ``||h g^n||`` for n = 0..count
    when the backend has a faster way than one product and one norm a step.
    Both take elements the context has already checked as members."""

    family: str | None
    generators: str | None
    evaluate: Callable[["GroupContext", GroupElement], NormInterval]
    ray: Callable[["GroupContext", GroupElement, GroupElement, int], list] | None = None


BACKENDS: dict[str, Backend] = {
    "bfs": Backend(None, None, lambda ctx, g: bfs_word_norm(ctx, g, BFS_MAX_RADIUS)),
    "transposition-closed-form": Backend(
        "perm", "standard", lambda ctx, g: NormInterval.exact_value(transposition_norm(g))),
    "cancellation-dp": Backend("free", "standard", _cancellation_dp_norm, _cancellation_dp_ray),
    "l1": Backend("lattice", "standard", lambda ctx, g: NormInterval.exact_value(l1_norm(g))),
    "bounded-search": Backend(None, "normal-closure", _bounded_search_norm),
    "cl-bounds": Backend("free", "all-commutators", lambda ctx, g: commutator_length(g)),
}


@dataclass
class GroupContext:
    """A group family with a generating set and a norm backend.

    Owns the norm ``||.||`` and the induced metric ``d(g,h) = ||g h^-1||``.
    Evaluators are pure; each generating set's ball (``ball``) is built on
    first use and grown by later searches, and cancellation-DP norms and
    kernel rows are memoised per context by the codes the kernel ran on.
    """

    family: str
    generators: GeneratingSet
    backend: str
    rank: int = 2          # free groups
    degree: int = 5        # permutations (ambient S_degree for closures)
    dim: int = 2           # lattices
    _balls: dict[int | None, BfsBall] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # codes -> the kernel's norm (``int``) or its prefix row (``tuple``)
    _norm_memo: dict[tuple[int, ...], int | tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _norm_memo_letters: int = field(default=0, init=False, repr=False, compare=False)
    _standard: bool = field(default=False, init=False, repr=False, compare=False)
    _identity: GroupElement | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        row = BACKENDS.get(self.backend)
        if row is None:
            raise ValueError(f"unknown backend {self.backend!r}")
        if row.family not in (None, self.family):
            raise ValueError(f"the {self.backend} backend needs the {row.family} family")
        if row.generators not in (None, "standard", self.generators.kind):
            raise ValueError(f"the {self.backend} backend needs the {row.generators} descriptor")
        if self.generators.kind == "all-commutators" and row.generators != "all-commutators":
            raise ValueError("all-commutators is a set of free words only cl-bounds evaluates")
        key = FAMILIES[self.family].size_key if self.family in FAMILIES else None
        if key and getattr(self, key) < 1:
            raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")
        # membership first: a generator outside the context is a family mismatch
        for s in self.generators.elements:
            self.check_member(s)
        standard = standard_generators(self.family, self.rank, self.dim)
        self._identity = standard.elements[0].identity()
        self._standard = _is_standard(self.family, self.generators, standard)
        if row.generators == "standard" and not self._standard:
            raise ValueError(
                f"the {self.backend} backend evaluates only {standard.describe()}, not "
                f"{self.generators.describe()}; use bfs for explicit sets or bounded-search "
                "for normal closures"
            )

    # -- identities and parsing ------------------------------------------

    def identity(self) -> GroupElement:
        return self._identity

    def decode(self, text: str) -> GroupElement:
        """Parse an element and check it belongs to this context's group."""
        from .groups import decode

        g = decode(self.family, text, rank=self.rank)
        self.check_member(g, text)
        return g

    def check_member(self, g: GroupElement, text: str | None = None) -> None:
        """Reject an element of another family, a free word of another rank,
        a lattice vector of another dimension or a permutation moving a
        point beyond the degree (``text`` names g in the error, its encoding
        by default).  The one membership check of the norm path: ``norm``
        and ``ray_norms`` call it before any backend sees g."""
        family = self.family
        if g.family != family:
            # a free word is named by its rank: one of rank over 26 has no encoding
            name = (f"of rank {g.rank}" if text is None and g.family == "free"
                    else repr(text or g.encode()))
            raise FamilyMismatchError(f"{g.family} element {name} in a {family} context")
        if family == "free":
            if g.rank != self.rank:
                # named by rank alone: a word of rank over 26 has no encoding
                raise FamilyMismatchError(
                    f"free word of rank {g.rank} in a rank {self.rank} context"
                )
        elif family == "lattice":
            if g.dim != self.dim:
                raise FamilyMismatchError(
                    f"lattice vector {text or g.encode()!r} has dimension {g.dim}, "
                    f"context has {self.dim}"
                )
        elif family == "perm":
            if len(g.images()) > self.degree:
                raise FamilyMismatchError(
                    f"permutation {text or g.encode()!r} moves {len(g.images())}, "
                    f"beyond degree {self.degree}"
                )

    def describe(self) -> str:
        key = FAMILIES[self.family].size_key
        size = f"{key}={getattr(self, key)}" if key else "dim=3"
        return (f"family={self.family};{size};gens={self.generators.describe()};"
                f"backend={self.backend}")

    # -- the norm ----------------------------------------------------------

    def ball(self, conj_len: int | None = None) -> BfsBall:
        """The context's ball over ``enumerate_effective_generators(self,
        conj_len)``, one per ``conj_len``, built on first use, shared by
        every search and capped at ``MEMORY_CAP`` as read when it is built."""
        ball = self._balls.get(conj_len)
        if ball is None:
            ball = self._balls[conj_len] = BfsBall(
                enumerate_effective_generators(self, conj_len), self.identity(), MEMORY_CAP)
        return ball

    def norm(self, g: GroupElement) -> NormInterval:
        self.check_member(g)
        return BACKENDS[self.backend].evaluate(self, g)

    def norm_exact(self, g: GroupElement):
        return self.norm(g).require_exact()

    def dist(self, g: GroupElement, h: GroupElement):
        return self.norm_exact(g * h.inverse())

    def ray_norms(self, h: GroupElement, g: GroupElement, count: int) -> list:
        """||h g^n|| for n = 0..count.  The cancellation-DP backend reads them
        off one memoised kernel row; every other backend makes one product
        and one exact norm per step."""
        self.check_member(h)
        self.check_member(g)
        ray = BACKENDS[self.backend].ray
        if ray is not None:
            return ray(self, h, g, count)
        norms = [self.norm_exact(h)]
        for _ in range(count):
            h = h * g
            norms.append(self.norm_exact(h))
        return norms


# -- ready-made contexts -----------------------------------------------------


def integer_line_context() -> GroupContext:
    return lattice_context(1)


def lattice_context(dim: int) -> GroupContext:
    return GroupContext("lattice", standard_generators("lattice", dim=dim), "l1", dim=dim)


def free_cancellation_context(rank: int = 2) -> GroupContext:
    return GroupContext("free", standard_generators("free", rank), "cancellation-dp", rank=rank)


def symmetric_transposition_context(degree: int = 5) -> GroupContext:
    gens = standard_generators("perm")
    return GroupContext("perm", gens, "transposition-closed-form", degree=degree)


def heisenberg_context() -> GroupContext:
    return GroupContext("heisenberg", standard_generators("heisenberg"), "bounded-search")


def commutator_length_context(rank: int = 2) -> GroupContext:
    return GroupContext("free", GeneratingSet.all_commutators(), "cl-bounds", rank=rank)
