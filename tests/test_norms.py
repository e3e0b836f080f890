import functools
import math
import operator
import random
import time
from contextlib import ExitStack
from fractions import Fraction
from typing import NamedTuple
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_permutations, deletion_oracle, frozen_product_search
from paper_checks import check_conjugation_invariance, generator_sample

from binorms import kernels, norms
from binorms.groups import (
    FamilyMismatchError,
    FreeWord,
    Heisenberg,
    LatticeVector,
    Permutation,
    commutator,
    conjugate,
)
from binorms.norms import (
    FAMILIES,
    BfsBall,
    BudgetError,
    GeneratingSet,
    GroupContext,
    InexactNormError,
    NormError,
    NormInterval,
    bfs_word_norm,
    cancellation_norm,
    commutator_length,
    commutator_length_context,
    conjugate_product_search,
    free_cancellation_context,
    heisenberg_conjugacy_norm,
    heisenberg_context,
    in_commutator_subgroup,
    l1_norm,
    lattice_context,
    standard_generators,
    symmetric_transposition_context,
    transposition_norm,
)
from binorms.pqm import FiniteOrderError, McShaneExtension, WindowCertificateError
from binorms.sampling import all_reduced_words, element_sampler, sample_pairs

A = FreeWord.generator(2, 1)
B = FreeWord.generator(2, 2)
HA = Heisenberg(1, 0, 0)
HB = Heisenberg(0, 1, 0)


def transposition_ctx(degree):
    gens = GeneratingSet.normal_closure((Permutation.transposition(1, 2),))
    return GroupContext("perm", gens, "bfs", degree=degree)


P12_34 = Permutation.from_cycles([(1, 2), (3, 4)])
T12, T23 = Permutation.transposition(1, 2), Permutation.transposition(2, 3)

# Per family: its standard set, another normal closure, an explicit set
# and all commutators (perm contexts have degree 4, lattice ones dim 2).
GRID_SETS = {
    "free": (standard_generators("free"), GeneratingSet.normal_closure((A * A,)),
             GeneratingSet.explicit_symmetrized([A, B])),
    "perm": (standard_generators("perm"), GeneratingSet.normal_closure((P12_34,)),
             GeneratingSet.explicit_symmetrized([T12, T23])),
    "lattice": (standard_generators("lattice"),
                GeneratingSet.normal_closure((LatticeVector((1, 1)),)),
                GeneratingSet.explicit_symmetrized([LatticeVector((1, 1)), LatticeVector((1, -1))])),
    "heisenberg": (standard_generators("heisenberg"), GeneratingSet.normal_closure((HA,)),
                   GeneratingSet.explicit_symmetrized([HA, HB])),
}
GRID_KINDS = ("standard", "other-closure", "explicit", "all-commutators")
# the (family, set) pairs each backend accepts; it refuses every other
# pair with a ValueError
GRID_ACCEPTS = {
    # only cl-bounds evaluates all commutators
    "bfs": {(f, k) for f in GRID_SETS for k in GRID_KINDS if k != "all-commutators"},
    # normal closures only: the lattice's standard set is an explicit list
    "bounded-search": {(f, k) for f in GRID_SETS for k in ("standard", "other-closure")}
    - {("lattice", "standard")},
    "cancellation-dp": {("free", "standard")},
    "transposition-closed-form": {("perm", "standard")},
    "l1": {("lattice", "standard")},
    "cl-bounds": {("free", "all-commutators")},
}


class TestConstructionGrid:
    @pytest.mark.parametrize("backend", sorted(GRID_ACCEPTS))
    @pytest.mark.parametrize("kind", GRID_KINDS)
    @pytest.mark.parametrize("family", sorted(GRID_SETS))
    def test_backend_accepts_or_refuses(self, family, kind, backend):
        gens = (*GRID_SETS[family], GeneratingSet.all_commutators())[GRID_KINDS.index(kind)]
        if (family, kind) in GRID_ACCEPTS[backend]:
            GroupContext(family, gens, backend, degree=4)
        else:
            with pytest.raises(ValueError):
                GroupContext(family, gens, backend, degree=4)

    def test_standard_sets_match_up_to_inverses_listed_or_closed(self):
        units = (LatticeVector((1, 0)), LatticeVector((0, 1)))
        for gens in (GeneratingSet.normal_closure(units), GeneratingSet.explicit_symmetrized(units)):
            assert GroupContext("lattice", gens, "l1").norm_exact(LatticeVector((2, -1))) == 3
        closure = GeneratingSet.normal_closure((B.inverse(), A))
        assert GroupContext("free", closure, "cancellation-dp").norm_exact(commutator(A, B)) == 2

    def test_closed_form_refusal_names_the_search_backends(self):
        gens = GeneratingSet.explicit_symmetrized([LatticeVector((1, 1)), LatticeVector((1, -1))])
        with pytest.raises(ValueError, match="use bfs for explicit sets or bounded-search"):
            GroupContext("lattice", gens, "l1")
        # the norm the closed form would have printed is 2; the set's is 1
        bfs = GroupContext("lattice", gens, "bfs")
        assert bfs.norm_exact(LatticeVector((1, 1))) == 1

    def test_membership_is_checked_before_the_standard_set(self):
        gens = GeneratingSet.explicit_symmetrized([LatticeVector((1, 0, 0))])
        with pytest.raises(FamilyMismatchError):
            GroupContext("lattice", gens, "l1", dim=2)

    def test_identity_and_ball_are_not_constructor_arguments(self):
        ctx = lattice_context(3)
        assert ctx.identity() == LatticeVector((0, 0, 0))
        assert heisenberg_context().identity() == Heisenberg(0, 0, 0)
        with pytest.raises(TypeError):
            GroupContext("lattice", standard_generators("lattice"), "bfs", _balls={})


class TestStandardUpToConjugacy:
    """A perm or free normal closure is standard when its elements hit the
    standard generators' classes, up to inverse, and nothing else."""

    def test_perm_closure_of_another_transposition_is_the_closed_form(self):
        for degree in (3, 4, 5):
            gens = GeneratingSet.normal_closure((T23,))
            closed = GroupContext("perm", gens, "transposition-closed-form", degree=degree)
            bfs = GroupContext("perm", gens, "bfs", degree=degree)
            for p in all_permutations(degree):
                assert closed.norm_exact(p) == bfs.norm_exact(p) == transposition_norm(p)
        two = GeneratingSet.normal_closure((T23, Permutation.transposition(1, 4)))
        ctx = GroupContext("perm", two, "transposition-closed-form", degree=4)
        assert ctx.norm_exact(Permutation.from_cycles([(1, 2, 3, 4)])) == 3

    def test_free_closure_of_conjugated_letters_is_the_dp(self):
        gens = GeneratingSet.normal_closure((conjugate(A, B), B.inverse()))
        ctx = GroupContext("free", gens, "cancellation-dp")
        for w in all_reduced_words(2, 4):
            assert ctx.norm_exact(w) == cancellation_norm(w) == deletion_oracle(w)
        # products of conjugates of the listed elements reach the DP's value
        search = GroupContext("free", gens, "bounded-search")
        for w in all_reduced_words(2, 3):
            assert conjugate_product_search(search, w, 3, 2) == NormInterval.exact_value(
                cancellation_norm(w))

    @pytest.mark.parametrize("family, elements", [
        ("perm", (Permutation.from_cycles([(1, 2, 3)]),)),
        ("perm", (T12, P12_34)),
        ("free", (A,)),                     # b is not hit
        ("free", (A * B,)),                 # cyclically two letters
        ("free", (conjugate(A, B), A.inverse())),
        ("free", (A, B, A * A)),
    ])
    def test_other_classes_are_refused(self, family, elements):
        backend = FAMILIES[family].backend
        with pytest.raises(ValueError, match="use bfs for explicit sets or bounded-search"):
            GroupContext(family, GeneratingSet.normal_closure(elements), backend, degree=4)

    def test_free_letter_class(self):
        for text, index in (("a", 1), ("b^-1", 2), ("a b a^-1", 2), ("b^-1 a^-1 b", 1),
                            ("a b", None), ("a a", None), ("a b^-1 a^-1 b", None)):
            assert norms._free_letter_class(FreeWord.parse(text, 2)) == index


class TestNormInterval:
    def test_invariants(self):
        with pytest.raises(ValueError):
            NormInterval(3, 2, False)
        with pytest.raises(ValueError):
            NormInterval(1, 2, True)
        assert NormInterval.exact_value(4).require_exact() == 4
        with pytest.raises(InexactNormError):
            NormInterval(1, math.inf, False).require_exact()


class TestBfs:
    def test_s3_generator(self):
        ctx = transposition_ctx(3)
        assert bfs_word_norm(ctx, Permutation.transposition(1, 2), 4).require_exact() == 1

    def test_s3_three_cycle(self):
        ctx = transposition_ctx(3)
        three = Permutation.from_cycles([(1, 2, 3)])
        assert bfs_word_norm(ctx, three, 4).require_exact() == 2

    def test_lattice_word_norm(self):
        ctx = GroupContext("lattice", standard_generators("lattice", dim=2), "bfs", dim=2)
        assert bfs_word_norm(ctx, LatticeVector((3, -2)), 8).require_exact() == 5

    def test_out_of_radius_interval(self):
        ctx = GroupContext("lattice", standard_generators("lattice", dim=2), "bfs", dim=2)
        iv = bfs_word_norm(ctx, LatticeVector((9, 9)), 4)
        assert not iv.exact and iv.lower == 5 and iv.upper == math.inf

    def test_memory_cap_degrades_to_interval(self, monkeypatch):
        # exceeding the cap must degrade gracefully, never abort
        monkeypatch.setattr(norms, "MEMORY_CAP", 10)
        ctx = GroupContext("lattice", standard_generators("lattice", dim=2), "bfs", dim=2)
        iv = bfs_word_norm(ctx, LatticeVector((4, 4)), 8)
        # levels 0 and 1 are complete and level 2 was tested by lookup
        assert iv == NormInterval(3, math.inf, False)
        assert ctx.ball().truncated

    def test_transposition_norm_equals_bfs_on_s4(self):
        ctx = transposition_ctx(4)
        for p in all_permutations(4):
            assert bfs_word_norm(ctx, p, 6).require_exact() == transposition_norm(p)

    @pytest.mark.parametrize("cap", [16, 30, 100, 300, 800])
    def test_truncated_s6_intervals_are_certified(self, cap, monkeypatch):
        monkeypatch.setattr(norms, "MEMORY_CAP", cap)
        ctx = transposition_ctx(6)
        perms = list(all_permutations(6))
        random.Random(cap).shuffle(perms)
        for p in perms:
            iv = ctx.norm(p)
            assert iv.lower <= transposition_norm(p) <= iv.upper, p.encode()

    @pytest.mark.parametrize("cap", [5, 10, 40])
    @pytest.mark.parametrize("radius", [3, 12])
    def test_truncated_z2_intervals_are_certified(self, cap, radius, monkeypatch):
        monkeypatch.setattr(norms, "MEMORY_CAP", cap)
        monkeypatch.setattr(norms, "BFS_MAX_RADIUS", radius)
        ctx = GroupContext("lattice", standard_generators("lattice", dim=2), "bfs", dim=2)
        box = list(Z2_BOX)
        random.Random(cap).shuffle(box)
        for v in box:
            iv = ctx.norm(v)
            assert iv.lower <= l1_norm(v) <= iv.upper, v.encode()
            # the shared ball, grown by the queries so far, certifies smaller radii too
            for r in range(radius):
                iv = bfs_word_norm(ctx, v, r)
                assert iv.lower <= l1_norm(v) <= iv.upper, (v.encode(), r)


Z2_UNITS = [LatticeVector(v) for v in ((1, 0), (-1, 0), (0, 1), (0, -1))]
Z2_BOX = [LatticeVector((x, y)) for x in range(-5, 6) for y in range(-5, 6)]


class TestBallDistance:
    def test_least_k_without_building_the_last_level(self):
        ball = BfsBall(Z2_UNITS, LatticeVector((0, 0)))
        for v in Z2_BOX:
            expected = l1_norm(v) if l1_norm(v) <= 4 else None
            assert ball.distance(v, 4) == expected
        # level 4 is only ever tested by lookup
        assert ball.radius == 3 and not ball.truncated

    def test_grown_ball_reads_its_table(self):
        ball = BfsBall(Z2_UNITS, LatticeVector((0, 0)))
        ball.grow_to(6)
        for v in Z2_BOX:
            expected = l1_norm(v) if l1_norm(v) <= 3 else None
            assert ball.distance(v, 3) == expected
        assert ball.radius == 6

    def test_truncated_ball_gives_none(self):
        ball = BfsBall(Z2_UNITS, LatticeVector((0, 0)), memory_cap=10)
        assert ball.distance(LatticeVector((4, 0)), 8) is None
        assert ball.truncated and len(ball.distances) == 10 and ball.radius == 1
        assert ball.distance(LatticeVector((1, 0)), 8) == 1
        # a fresh ball answers 2 for each: the truncated one still tests
        # the level after its last complete one
        for v in ((2, 0), (1, 1), (0, 2), (-1, -1)):
            assert ball.distance(LatticeVector(v), 2) == 2
        assert ball.distance(LatticeVector((3, 0)), 8) is None

    def test_repeated_query_past_the_radius_costs_at_most_one_product_per_generator(
            self, monkeypatch):
        ball = BfsBall(Z2_UNITS, LatticeVector((0, 0)))
        ball.grow_to(2)  # a frontier of 8 over 4 generators
        products = []
        mul = LatticeVector.__mul__
        monkeypatch.setattr(LatticeVector, "__mul__", lambda u, v: products.append(1) or mul(u, v))
        for _ in range(3):
            for v, expected in (((2, 1), 3), ((5, 0), None), ((0, -3), 3)):
                products.clear()
                assert ball.distance(LatticeVector(v), 3) == expected
                assert len(products) <= len(Z2_UNITS)
        assert ball.radius == 2

    def test_generators_deduplicated_and_sorted(self):
        ball = BfsBall(Z2_UNITS + Z2_UNITS[::-1], LatticeVector((0, 0)))
        assert ball.generators == sorted(Z2_UNITS, key=lambda e: e.encode())

    @pytest.mark.parametrize("case, cap", [
        *(("z2", cap) for cap in (5, 10, 20, 40)),
        *(("s6", cap) for cap in (16, 30, 100, 300)),
    ])
    def test_shared_ball_answers_as_a_fresh_one(self, case, cap):
        if case == "z2":
            gens, identity, elements = Z2_UNITS, LatticeVector((0, 0)), Z2_BOX
        else:
            gens = norms.enumerate_effective_generators(transposition_ctx(6))
            identity, elements = Permutation(), list(all_permutations(6))
        rng = random.Random(f"{case}:{cap}")
        queries = [(rng.choice(elements), rng.randint(0, 8)) for _ in range(300)]
        shared = BfsBall(gens, identity, cap)
        differing = [(g.encode(), k) for g, k in queries
                     if shared.distance(g, k) != BfsBall(gens, identity, cap).distance(g, k)]
        assert differing == []


def _s_n_conjugates(elements, degree):
    """Every x^-1 s^±1 x over all of S_degree: the reference for the orbit."""
    return {conjugate(t, x) for x in all_permutations(degree)
            for s in elements for t in (s, s.inverse())}


class TestPermutationClosure:
    @pytest.mark.parametrize("cycles, degree", [
        (cycles, degree)
        for cycles in ([[(1, 2)]], [[(1, 2), (3, 4)]], [[(1, 2, 3)]], [[(1, 2)], [(1, 2, 3)]])
        for degree in range(2, 7)
        if degree >= max(p for c in cycles for cycle in c for p in cycle)
    ])
    def test_orbit_equals_conjugation_by_all_of_s_n(self, cycles, degree):
        elements = tuple(Permutation.from_cycles(c) for c in cycles)
        ctx = GroupContext("perm", GeneratingSet.normal_closure(elements), "bfs", degree=degree)
        assert norms.enumerate_effective_generators(ctx) == _s_n_conjugates(elements, degree)

    @pytest.mark.parametrize("degree", [5, 6])
    def test_ball_of_s_n_is_the_closed_form(self, degree):
        ball = transposition_ctx(degree).ball()
        ball.grow_to(degree)
        assert set(ball.distances) == set(all_permutations(degree))
        for p, d in ball.distances.items():
            assert d == transposition_norm(p)

    def test_truncated_s6_ball_keeps_its_table(self, monkeypatch):
        monkeypatch.setattr(norms, "MEMORY_CAP", 30)
        ctx = transposition_ctx(6)
        ball = ctx.ball()
        ball.grow_to(12)
        # which elements a capped ball keeps follows the expansion order, so pin it
        assert ball.truncated and ball.radius == 1
        assert ",".join(g.encode() for g in ball.distances) == (
            "(),(1 2),(1 3),(1 4),(1 5),(1 6),(2 3),(2 4),(2 5),(2 6),(3 4),(3 5),(3 6),"
            "(4 5),(4 6),(5 6),(1 2 3),(1 2 4),(1 2 5),(1 2 6),(1 3 2),(1 4 2),(1 5 2),"
            "(1 6 2),(1 2)(3 4),(1 2)(3 5),(1 2)(3 6),(1 2)(4 5),(1 2)(4 6),(1 2)(5 6)"
        )
        assert list(ball.distances.values()) == [0] + [1] * 15 + [2] * 14
        # the ball keeps level 1 as its frontier, so level 2 is still tested
        # by lookup: (4 6 5) is exact although the table stops short of it
        assert ctx.norm_exact(Permutation.from_cycles([(4, 6, 5)])) == 2
        assert ctx.norm_exact(Permutation.from_cycles([(1, 3, 2)])) == 2


class TestTranspositionNorm:
    def test_examples(self):
        assert transposition_norm(Permutation()) == 0
        assert transposition_norm(Permutation.from_cycles([(1, 2, 3)])) == 2
        two = Permutation.from_cycles([(1, 2, 3), (4, 5)])
        assert transposition_norm(two) == 3


class TestCancellationNorm:
    def test_commutator(self):
        assert cancellation_norm(commutator(A, B)) == 2

    def test_powers_of_a_generator(self):
        for n in range(9):
            assert cancellation_norm(A ** n) == n

    def test_matches_deletion_oracle_up_to_length_six(self):
        for w in all_reduced_words(2, 6):
            assert cancellation_norm(w) == deletion_oracle(w)

    def test_conjugation_invariance_exhaustive_small(self):
        for w in all_reduced_words(2, 4):
            base = cancellation_norm(w)
            for y in all_reduced_words(2, 2):
                assert cancellation_norm(conjugate(w, y)) == base

    def test_kernel_letter_cap_without_a_context(self, monkeypatch):
        monkeypatch.setattr(norms, "MAX_LETTERS", 4)
        assert cancellation_norm(A ** 4) == 4
        with pytest.raises(BudgetError, match="5-letter word is over the 4-letter"):
            cancellation_norm(A ** 5)
        # the free lower bound of the product search is the same kernel call
        with pytest.raises(BudgetError):
            conjugate_product_search(free_cancellation_context(2), A ** 5, 1, 1)


# (context, element strategy): an infinite-order family with the
# cancellation DP, a finite group, and an abelian one
POWER_CASES = {
    "free": (
        free_cancellation_context(2),
        st.lists(st.tuples(st.integers(1, 2), st.sampled_from((1, -1))), max_size=5)
        .map(lambda letters: FreeWord(2, letters)),
    ),
    "perm": (
        symmetric_transposition_context(4),
        st.permutations(range(1, 5)).map(lambda images: Permutation(dict(zip(range(1, 5), images)))),
    ),
    "lattice": (
        lattice_context(2),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(LatticeVector),
    ),
}


class TestPowerNorms:
    """The one power walk: ``McShaneExtension`` reaches g^1..g^W one product
    and one norm at a time, and keeps them as its trace."""

    @pytest.mark.parametrize("family", sorted(POWER_CASES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), window=st.integers(2, 10))
    def test_yields_each_power_and_its_norm_until_the_identity(self, family, data, window):
        ctx, elements = POWER_CASES[family]
        g = data.draw(elements)
        expected = []
        for n in range(1, window + 1):
            norm = ctx.norm_exact(g ** n)
            expected.append((n, norm, Fraction(norm) / n))
            if (g ** n).is_identity():
                with pytest.raises(FiniteOrderError) as err:
                    McShaneExtension(ctx, g, None, window)
                assert err.value.trace == expected
                return
        assert McShaneExtension(ctx, g, None, window).trace == expected

    def test_evaluates_a_norm_only_when_its_power_is_reached(self, monkeypatch):
        ctx = free_cancellation_context(2)
        seen = []
        monkeypatch.setattr(ctx, "norm_exact", lambda g: seen.append(g) or 1)
        # ||ab|| = 1 < c * 1 fails the certificate at the first power
        with pytest.raises(WindowCertificateError):
            McShaneExtension(ctx, A * B, 2, 100)
        assert seen == [A * B]


class TestRayNorms:
    @pytest.mark.parametrize("family", sorted(POWER_CASES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), count=st.integers(0, 8), sign=st.sampled_from((1, -1)))
    def test_one_norm_per_step(self, family, data, count, sign):
        ctx, elements = POWER_CASES[family]
        g, h = data.draw(elements), data.draw(elements)
        if data.draw(st.booleans()):
            h = g ** data.draw(st.integers(-4, 4))
        step = g ** sign
        assert ctx.ray_norms(h, step, count) == [
            ctx.norm_exact(h * step ** n) for n in range(count + 1)
        ]

    def test_free_rays_read_one_kernel_row(self, monkeypatch):
        ctx = free_cancellation_context(2)
        g = B.inverse() * A * B
        expected = [cancellation_norm(A * g ** -n) for n in range(7)]
        kernel = kernels.prefix_norms
        calls = []
        monkeypatch.setattr(kernels, "prefix_norms", lambda codes: calls.append(codes) or kernel(codes))
        assert ctx.ray_norms(A, g.inverse(), 6) == expected
        assert calls == [A.codes() + g.inverse().codes() * 6]

    def test_rows_are_keyed_by_the_codes_alone(self):
        # 1.(ab)^2 and (ab).(ab)^1 spell the same codes; each read-out is its own
        ctx = free_cancellation_context(2)
        ab = A * B
        norm = [kernels.cancellation_dp((ab ** n).codes()) for n in range(3)]
        assert ctx.ray_norms(ctx.identity(), ab, 2) == norm
        assert ctx.ray_norms(ab, ab, 1) == norm[1:]
        assert ctx.norm_exact(ab ** 2) == norm[2]
        assert list(ctx._norm_memo) == [(ab ** 2).codes()]

    def test_kernel_letter_cap(self, monkeypatch):
        monkeypatch.setattr(norms, "MAX_LETTERS", 6)
        ctx = free_cancellation_context(2)
        assert ctx.norm_exact(A ** 6) == 6
        with pytest.raises(BudgetError, match="7-letter word is over the 6-letter"):
            ctx.norm(A ** 7)
        # the row's word is over the cap though no word it spells is
        with pytest.raises(BudgetError):
            ctx.ray_norms(A ** 3, A.inverse(), 4)
        assert list(ctx._norm_memo) == [(A ** 6).codes()]


R3_COMMUTATOR = FreeWord.parse("a^-1 c^-1 a c", 3)


class TestMembership:
    """``GroupContext.norm`` and ``ray_norms`` check every element against
    the context, for every backend, before the backend sees it."""

    @pytest.mark.parametrize("ctx, g", [
        (symmetric_transposition_context(5), Permutation.parse("(1 9)")),
        (transposition_ctx(5), Permutation.parse("(1 9)")),
        (lattice_context(2), LatticeVector((1, 2, 3))),
        (lattice_context(2), Permutation.parse("(1 2)")),
        (heisenberg_context(), LatticeVector((1, 2))),
        *(pytest.param(ctx, g, id=f"{ctx.backend}-{g.family}-rank-{g.rank}")
          for ctx in (free_cancellation_context(2), commutator_length_context(2),
                      GroupContext("free", GeneratingSet.explicit_symmetrized([A, B]), "bfs"),
                      GroupContext("free", standard_generators("free"), "bounded-search"))
          for g in (R3_COMMUTATOR, FreeWord.generator(1, 1), FreeWord.generator(30, 1))),
        pytest.param(free_cancellation_context(2), Permutation.parse("(1 2)"),
                     id="cancellation-dp-perm"),
        pytest.param(commutator_length_context(2), Permutation.parse("(1 2)"), id="cl-bounds-perm"),
        # a free word of rank over 26 has no encoding to name it by
        *(pytest.param(ctx, FreeWord.generator(30, 1), id=f"{ctx.family}-free-rank-30")
          for ctx in (symmetric_transposition_context(5), lattice_context(2),
                      heisenberg_context())),
    ])
    def test_norm_refuses_an_element_outside_the_context(self, ctx, g, monkeypatch):
        for name, value in (("BFS_MAX_RADIUS", 4), ("SEARCH_K_MAX", 2), ("SEARCH_CONJ_LEN", 2)):
            monkeypatch.setattr(norms, name, value)
        with pytest.raises(FamilyMismatchError):
            ctx.norm(g)

    @pytest.mark.parametrize("outside", [Permutation.parse("(1 2)"), R3_COMMUTATOR])
    def test_dp_ray_refuses_either_end(self, outside):
        ctx = free_cancellation_context(2)
        for h, g in ((outside, A), (A, outside)):
            with pytest.raises(FamilyMismatchError):
                ctx.ray_norms(h, g, 2)
        assert not ctx._norm_memo


def counted_kernel(monkeypatch) -> list:
    """The codes of every kernel row from now on; ``kernels.cancellation_dp``
    runs one through ``kernels.prefix_norms``."""
    kernel = kernels.prefix_norms
    calls = []
    monkeypatch.setattr(kernels, "prefix_norms", lambda codes: calls.append(tuple(codes)) or kernel(codes))
    return calls


def memo_charge(ctx) -> int:
    """The letters a context's norm memo is charged: its kept tally, checked
    against the entries it holds."""
    assert ctx._norm_memo_letters == sum(len(codes) + 1 for codes in ctx._norm_memo)
    return ctx._norm_memo_letters


def free_words(max_size: int):
    return st.lists(st.tuples(st.integers(1, 2), st.sampled_from((1, -1))),
                    max_size=max_size).map(lambda letters: FreeWord(2, letters))


class TestNormMemo:
    def test_results_match_kernel_across_eviction(self, monkeypatch):
        monkeypatch.setattr(norms, "NORM_MEMO_LETTERS", 64)
        ctx = free_cancellation_context(2)
        words = all_reduced_words(2, 3)
        assert sum(len(w) + 1 for w in words) > 2 * norms.NORM_MEMO_LETTERS
        for _ in range(2):
            for w in words:
                assert ctx.norm_exact(w) == kernels.cancellation_dp(w.codes())
                assert memo_charge(ctx) <= norms.NORM_MEMO_LETTERS

    def test_repeats_skip_the_kernel(self, monkeypatch):
        kernel = kernels.prefix_norms
        calls = []

        def counted(codes):
            calls.append(codes)
            return kernel(codes)

        monkeypatch.setattr(kernels, "prefix_norms", counted)
        ctx = free_cancellation_context(2)
        g = commutator(A, B) ** 3
        assert [ctx.norm_exact(g) for _ in range(3)] == [kernel(g.codes())[-1]] * 3
        assert calls == [g.codes()]

    def test_a_ray_after_a_norm_gets_the_kernels_row(self, monkeypatch):
        ctx = free_cancellation_context(2)
        ab = A * B
        codes = (ab ** 2).codes()
        row = kernels.prefix_norms(codes)
        calls = counted_kernel(monkeypatch)
        assert ctx.norm_exact(ab ** 2) == row[-1]
        assert ctx._norm_memo == {codes: row[-1]}
        assert ctx.ray_norms(ctx.identity(), ab, 2) == [row[0], row[2], row[4]]
        assert ctx._norm_memo == {codes: row}
        assert calls == [codes, codes]
        assert memo_charge(ctx) == len(codes) + 1

    def test_a_norm_after_a_ray_runs_no_kernel(self, monkeypatch):
        ctx = free_cancellation_context(2)
        ab = A * B
        codes = (ab ** 3).codes()
        row = kernels.prefix_norms(codes)
        calls = counted_kernel(monkeypatch)
        ctx.ray_norms(ab, ab, 2)
        assert ctx.norm_exact(ab ** 3) == row[-1]
        assert calls == [codes]
        assert ctx._norm_memo == {codes: row}

    def test_a_norm_miss_runs_the_public_kernel(self, monkeypatch):
        # a caller that wraps kernels.cancellation_dp sees every norm miss
        kernel = kernels.cancellation_dp
        calls = []
        monkeypatch.setattr(kernels, "cancellation_dp", lambda codes: calls.append(codes) or kernel(codes))
        ctx = free_cancellation_context(2)
        g = commutator(A, B)
        assert [ctx.norm_exact(g) for _ in range(2)] == [2, 2]
        ctx.ray_norms(A, B, 2)
        assert calls == [g.codes()]

    def test_the_identitys_norm_is_a_memo_hit(self, monkeypatch):
        # its norm is 0, which a falsy test would read as a miss
        calls = counted_kernel(monkeypatch)
        ctx = free_cancellation_context(2)
        assert [ctx.norm_exact(ctx.identity()) for _ in range(3)] == [0, 0, 0]
        assert calls == [()]
        assert ctx._norm_memo == {(): 0}

    @settings(max_examples=60, deadline=None)
    @given(budget=st.integers(13, 48), traffic=st.lists(st.one_of(
        free_words(5),
        st.tuples(free_words(3), free_words(3), st.integers(0, 3)),
    ), max_size=40))
    def test_mixed_traffic_under_a_tiny_budget_matches_the_kernel(self, budget, traffic):
        # a norm of up to 5 letters or a ray's row of up to 12: every entry's
        # charge fits the budget
        ctx = free_cancellation_context(2)
        with patch.object(norms, "NORM_MEMO_LETTERS", budget):
            for op in traffic:
                if isinstance(op, FreeWord):
                    assert ctx.norm_exact(op) == kernels.prefix_norms(op.codes())[-1]
                else:
                    h, g, count = op
                    row = kernels.prefix_norms(h.codes() + g.codes() * count)
                    assert ctx.ray_norms(h, g, count) == [
                        row[len(h) + n * len(g)] for n in range(count + 1)]
                assert memo_charge(ctx) <= budget
                for codes, entry in ctx._norm_memo.items():
                    row = kernels.prefix_norms(codes)
                    assert entry == (row if isinstance(entry, tuple) else row[-1])

    def test_word_sweep_traffic_runs_the_kernel_once_a_word(self, monkeypatch):
        # word-sweep's norms are of every reduced word of up to 4 letters
        # and their products; 8 letters is 13,121 words, twice over
        calls = counted_kernel(monkeypatch)
        ctx = free_cancellation_context(2)
        words = all_reduced_words(2, 8)
        assert len(words) == 13_121
        expected = [kernels.cancellation_dp(w.codes()) for w in words]
        calls.clear()
        for _ in range(2):
            assert [ctx.norm_exact(w) for w in words] == expected
        assert calls == [w.codes() for w in words]
        assert memo_charge(ctx) == sum(len(w) + 1 for w in words) <= norms.NORM_MEMO_LETTERS

    def test_rank_mismatch_still_raises(self):
        ctx = free_cancellation_context(2)
        g = FreeWord.generator(3, 1)
        for _ in range(2):
            with pytest.raises(FamilyMismatchError):
                ctx.norm(g)

    def test_contexts_do_not_share_a_memo(self):
        first, second = free_cancellation_context(2), free_cancellation_context(2)
        first.norm(commutator(A, B))
        assert first._norm_memo and not second._norm_memo
        assert first._norm_memo is not second._norm_memo

    def test_memo_not_in_equality_or_repr(self):
        used, fresh = free_cancellation_context(2), free_cancellation_context(2)
        before = repr(used)
        used.norm(A * B * A)
        assert used == fresh
        assert repr(used) == before == repr(fresh)
        assert "_norm_memo" not in repr(used)


class TestL1:
    def test_examples(self):
        assert l1_norm(LatticeVector((0, 0))) == 0
        assert l1_norm(LatticeVector((3, -2))) == 5
        assert l1_norm([0.5, -0.25]) == 0.75

    def test_agrees_with_bfs_small_box(self):
        ctx = GroupContext("lattice", standard_generators("lattice", dim=2), "bfs", dim=2)
        for x in range(-4, 5):
            for y in range(-4, 5):
                v = LatticeVector((x, y))
                assert bfs_word_norm(ctx, v, 8).require_exact() == l1_norm(v)


class TestHeisenbergNorm:
    def test_central_powers_have_norm_two(self):
        for n in range(1, 33):
            iv, factors = heisenberg_conjugacy_norm(Heisenberg(0, 0, n))
            assert iv.exact and iv.lower == 2
            assert len(factors) == 2

    def test_identity(self):
        iv, _ = heisenberg_conjugacy_norm(Heisenberg(0, 0, 0))
        assert iv.lower == 0 and iv.exact

    def test_generic_element(self):
        iv, factors = heisenberg_conjugacy_norm(Heisenberg(3, -2, 7))
        assert iv.require_exact() == 5
        prod = Heisenberg(0, 0, 0)
        for f in factors:
            prod = prod * f
        assert prod == Heisenberg(3, -2, 7)

    def test_cross_check_against_generic_search(self):
        ctx = heisenberg_context()
        rng = random.Random(12)
        for _ in range(25):
            g = Heisenberg(rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-6, 6))
            dedicated = ctx.norm(g)
            searched = conjugate_product_search(ctx, g, 3, 8)
            assert searched.lower <= dedicated.lower <= searched.upper

    def test_conjugation_invariance(self):
        ctx = heisenberg_context()
        draw = element_sampler("heisenberg", box=6)
        assert check_conjugation_invariance(ctx, sample_pairs(draw, 3, 400)) == (0, 0)


def _factor_list_witness(g):
    """The Heisenberg witness built factor by factor, without runs."""
    x, y, z = g.x, g.y, g.z
    if x == 0 and y == 0:
        return () if z == 0 else (Heisenberg(0, 1, z), Heisenberg(0, -1, 0))
    sa = 1 if x > 0 else -1
    sb = 1 if y > 0 else -1
    if x != 0:
        return ((Heisenberg(sa, 0, z - x * y),) + (Heisenberg(sa, 0, 0),) * (abs(x) - 1)
                + (Heisenberg(0, sb, 0),) * abs(y))
    return (Heisenberg(0, sb, z),) + (Heisenberg(0, sb, 0),) * (abs(y) - 1)


def test_heisenberg_witness_runs_keep_the_factor_list():
    ctx = heisenberg_context()
    box = range(-6, 7)
    for g in (Heisenberg(x, y, z) for x in box for y in box for z in box):
        iv, factors = heisenberg_conjugacy_norm(g)
        assert factors == _factor_list_witness(g)
        assert iv == NormInterval.exact_value(len(factors)) == ctx.norm(g)
        product = g.identity()
        for f in factors:
            product = product * f
        assert product == g


@settings(max_examples=200, deadline=None)
@given(st.integers(-7, 7), st.integers(-7, 7), st.integers(-30, 30))
def test_heisenberg_bound_is_the_length_of_a_witness_of_g(x, y, z):
    # the standard closure's norm is the abelianisation bound alone; the
    # witness shows the bound is attained
    g, ctx = Heisenberg(x, y, z), heisenberg_context()
    iv, factors = heisenberg_conjugacy_norm(g)
    assert ctx.norm(g) == iv == NormInterval.exact_value(norms._abelianisation_lower_bound(ctx, g))
    assert iv.lower == len(factors)
    assert functools.reduce(operator.mul, factors, g.identity()) == g


class TestConjugateProductSearch:
    def test_conjugate_of_generator(self):
        ctx = free_cancellation_context(2)
        target = conjugate(A, B * A)
        assert conjugate_product_search(ctx, target, 3, 3).require_exact() == 1

    def test_single_commutator_is_exactly_two(self):
        ctx = free_cancellation_context(2)
        iv = conjugate_product_search(ctx, commutator(A, B), 3, 3)
        assert (iv.lower, iv.upper, iv.exact) == (2, 2, True)

    def test_search_agrees_with_dp_on_short_words(self):
        ctx = free_cancellation_context(2)
        for w in all_reduced_words(2, 3):
            dp = cancellation_norm(w)
            iv = conjugate_product_search(ctx, w, 3, 3)
            assert iv.lower == dp
            if iv.upper != math.inf:
                assert iv.upper >= dp

    def test_heisenberg_commutator_powers_upper_two(self):
        # [a, b]^n = [a^n, b] is a product of two conjugated generators
        ctx = heisenberg_context()
        for n in (1, 2, 5, 9):
            iv = conjugate_product_search(ctx, Heisenberg(0, 0, n), 2, n + 1)
            assert iv.upper == 2 and iv.exact

    def test_exhaustion_reports_interval(self):
        ctx = free_cancellation_context(2)
        iv = conjugate_product_search(ctx, (A * B) ** 4, 2, 2)
        assert not iv.exact and iv.upper == math.inf and iv.lower >= 1

    def test_context_norm_searches_other_closures(self, monkeypatch):
        # the normal closure of a alone is not the standard Heisenberg
        # closure, so the context falls back to the bounded product search
        monkeypatch.setattr(norms, "SEARCH_K_MAX", 2)
        ctx = GroupContext("heisenberg", GeneratingSet.normal_closure((HA,)), "bounded-search")
        for g in (HA, HA * HA, Heisenberg(-1, 0, 3), Heisenberg(0, 0, 1), HB):
            assert ctx.norm(g) == conjugate_product_search(ctx, g, 2, norms.SEARCH_CONJ_LEN)
        assert ctx.norm(Heisenberg(0, 0, 1)).require_exact() == 2
        assert not ctx.norm(HB).exact  # b is outside the closure of a

    def test_permutation_class_search(self):
        gens = GeneratingSet.normal_closure((Permutation.transposition(1, 2),))
        ctx = GroupContext("perm", gens, "bfs", degree=5)
        three = Permutation.from_cycles([(1, 2, 3)])
        iv = conjugate_product_search(ctx, three, 3, 2)
        assert iv.upper == 2 == transposition_norm(three)


class TestSearchParity:
    """The ball search gives the frozen product search's intervals wherever
    no cap binds; the lower bounds are not searched, so the frozen search
    takes the one the new search reports."""

    def _check(self, ctx, elements, k_max, conj_len_max):
        factors = norms.enumerate_effective_generators(ctx, conj_len_max)
        for g in elements:
            if not g.is_identity():
                new = conjugate_product_search(ctx, g, k_max, conj_len_max)
                frozen = frozen_product_search(g, factors, ctx.identity(), k_max,
                                               norms.MEMORY_CAP, new.lower)
                assert new == frozen, g

    @pytest.mark.parametrize("k_max", [2, 3])
    def test_free_words(self, k_max):
        self._check(free_cancellation_context(2), all_reduced_words(2, 2), k_max, 2)

    def test_heisenberg_closure_of_a(self):
        ctx = GroupContext("heisenberg", GeneratingSet.normal_closure((HA,)), "bounded-search")
        box = [Heisenberg(x, y, z) for x in range(-2, 3) for y in range(-1, 2) for z in range(-3, 4)]
        self._check(ctx, box, 3, 2)

    def test_s4_transposition_class(self):
        ctx = GroupContext("perm", standard_generators("perm"), "bounded-search", degree=4)
        self._check(ctx, all_permutations(4), 3, 1)

    @pytest.mark.parametrize("conj_len_max", [1, 2])
    def test_commutator_length(self, conj_len_max):
        # the frozen search over products of at most two commutators [u, v],
        # |u|, |v| <= conj_len_max, bounds cl from above and, where it
        # finds w, its interval is exact: Culler's value agrees
        short = all_reduced_words(2, conj_len_max)
        comms = [c for u in short for v in short if not (c := commutator(u, v)).is_identity()]
        for w in all_reduced_words(2, 8):
            if in_commutator_subgroup(w) and not w.is_identity():
                frozen = frozen_product_search(w, comms, w.identity(), 2, 2_000_000, 1)
                new = commutator_length(w)
                assert new.exact and frozen.lower <= new.lower <= frozen.upper, w
                if frozen.exact:
                    assert new == frozen, w


class TestCommutatorLength:
    @pytest.mark.parametrize("rank", [2, 3])
    def test_context_norm_is_the_least_genus(self, rank):
        # Culler: cl([a, b]^n) = floor(n / 2) + 1
        ctx = commutator_length_context(rank)
        a, b = FreeWord.generator(rank, 1), FreeWord.generator(rank, 2)
        for n in range(1, 6):
            assert ctx.norm(commutator(a, b) ** n) == NormInterval.exact_value(n // 2 + 1)

    def test_two_commutators_in_disjoint_letters(self):
        a, b, c, d = (FreeWord.generator(4, i) for i in range(1, 5))
        assert commutator_length_context(4).norm_exact(commutator(a, b) * commutator(c, d)) == 2

    def test_empty_word(self):
        assert commutator_length(FreeWord(2, ())).require_exact() == 0

    def test_single_commutator(self):
        assert commutator_length(commutator(A, B)).require_exact() == 1

    def test_a_word_has_its_cyclic_reductions_length(self):
        for w in (commutator(A, B), commutator(A, B) ** 2, commutator(A, B) * commutator(B, A * A)):
            for x in (A, B * A.inverse(), A * A * B):
                g = conjugate(w, x)
                core = FreeWord._from_codes(2, norms._cyclic_core(g.codes()))
                assert len(core) < len(g)
                assert commutator_length(g) == commutator_length(core) == commutator_length(w)

    def test_square_gets_interval(self, monkeypatch):
        # [a, b]^2 has 2!^2 = 4 pairings of 8 letters; a budget of one
        # pairing certifies only that pairing's genus, the same for w^-1
        monkeypatch.setattr(norms, "CL_PAIRING_STEPS", 8)
        iv = commutator_length(commutator(A, B) ** 2)
        assert iv.lower == 1 and iv.upper >= 2 and not iv.exact
        assert commutator_length(commutator(A, B) ** -2) == iv
        monkeypatch.setattr(norms, "CL_PAIRING_STEPS", 4 * 8)
        assert commutator_length(commutator(A, B) ** 2) == NormInterval.exact_value(2)

    @pytest.mark.parametrize("make, cl", [
        pytest.param(lambda a, b: commutator(a, b) ** 12, 7, id="commutator-power"),
        pytest.param(lambda a, b: commutator(a ** 12, b ** 12), 1, id="commutator-of-powers"),
    ])
    def test_long_word_reads_only_its_budget_of_pairings(self, make, cl):
        # 12!^2 pairings of 48 letters, far past the default budget: the
        # pairings are read lazily, so the search ends once it has tried
        # CL_PAIRING_STEPS // 48 of them, with a certified upper bound
        start = time.perf_counter()
        iv = commutator_length(make(A, B))
        assert time.perf_counter() - start < 5
        assert iv.lower == 1 and iv.upper >= cl and (not iv.exact or iv.upper == cl)

    def test_rejects_nonzero_exponent_sum(self):
        with pytest.raises(NormError, match="'a' is not in the commutator subgroup"):
            commutator_length(A)
        assert in_commutator_subgroup(commutator(A, B))
        assert not in_commutator_subgroup(A * B)


class TestConjugationInvariance:
    def test_transposition_class_is_invariant(self):
        ctx = symmetric_transposition_context(5)
        draw = element_sampler("perm", degree=5)
        assert check_conjugation_invariance(ctx, sample_pairs(draw, 7, 500)) == (0, 0)

    def test_cancellation_norm_is_invariant_exhaustive(self):
        ctx = free_cancellation_context(2)
        pairs = [(w, y) for w in all_reduced_words(2, 4) for y in all_reduced_words(2, 2)]
        assert check_conjugation_invariance(ctx, pairs) == (0, 0)

    def test_non_normal_set_breaks_invariance(self, monkeypatch):
        monkeypatch.setattr(norms, "BFS_MAX_RADIUS", 6)
        gens = GeneratingSet.explicit_symmetrized([A])
        ctx = GroupContext("free", gens, "bfs", rank=2)
        max_discrepancy, _ = check_conjugation_invariance(ctx, [(A, B)])
        # ||b^-1 a b|| is not reachable in <a>, certified > ||a|| = 1
        assert max_discrepancy > 0


@pytest.mark.parametrize(
    "ctx_factory,family,kw",
    [
        (lambda: lattice_context(3), "lattice", dict(dim=3, box=7)),
        (lambda: symmetric_transposition_context(5), "perm", dict(degree=5)),
        (lambda: free_cancellation_context(2), "free", dict(rank=2, max_len=6)),
        (lambda: heisenberg_context(), "heisenberg", dict(box=5)),
    ],
)
def test_norm_axioms_on_samples(ctx_factory, family, kw):
    ctx = ctx_factory()
    draw = element_sampler(family, **kw)
    rng = random.Random(101)
    identity = ctx.identity()
    for _ in range(300):
        g, h = draw(rng), draw(rng)
        ng, nh = ctx.norm_exact(g), ctx.norm_exact(h)
        assert ng >= 0
        assert (ng == 0) == (g == identity)
        assert ctx.norm_exact(g.inverse()) == ng
        assert ctx.norm_exact(g * h) <= ng + nh


def test_maximality_against_commutator_length():
    # commutator-subgroup words have even cancellation norm >= 2, which
    # dominates the scaled commutator-length lower bound
    rng = random.Random(13)
    words = [w for w in all_reduced_words(2, 6) if in_commutator_subgroup(w)]
    for w in words:
        canc = cancellation_norm(w)
        cl_lower = 0 if w.is_identity() else 1
        assert canc >= 2 * cl_lower


def test_enumerate_conjugates_heisenberg_shape():
    ctx = heisenberg_context()
    conjugates = norms.enumerate_effective_generators(ctx, 3)
    for c in conjugates:
        assert (abs(c.x), abs(c.y)) in ((1, 0), (0, 1))


def test_free_conjugators_counted_against_the_memory_cap(monkeypatch):
    # rank 2, length <= 5: 1 + 4 (1 + 3 + 9 + 27 + 81) = 485 conjugators
    assert len(all_reduced_words(2, 5)) == 485
    gens = standard_generators("free")
    monkeypatch.setattr(norms, "SEARCH_CONJ_LEN", 5)
    monkeypatch.setattr(norms, "MEMORY_CAP", 100)
    ctx = GroupContext("free", gens, "bounded-search")
    with pytest.raises(BudgetError, match="485 conjugators exceed memory_cap 100"):
        ctx.norm(A)
    monkeypatch.setattr(norms, "MEMORY_CAP", 485)
    fits = GroupContext("free", gens, "bounded-search")
    assert fits.norm(A).require_exact() == 1


def test_heisenberg_conjugators_counted_against_the_memory_cap(monkeypatch):
    # |p| + |q| <= 20: 2 * 20^2 + 2 * 20 + 1 = 841 conjugators a^p b^q
    monkeypatch.setattr(norms, "SEARCH_CONJ_LEN", 20)
    monkeypatch.setattr(norms, "MEMORY_CAP", 500)
    ctx = GroupContext("heisenberg", GeneratingSet.normal_closure((HA,)), "bounded-search")
    with pytest.raises(BudgetError, match="841 conjugators exceed memory_cap 500"):
        ctx.norm(HA)
    monkeypatch.setattr(norms, "MEMORY_CAP", 841)
    fits = GroupContext("heisenberg", GeneratingSet.normal_closure((HA,)), "bounded-search")
    assert fits.norm(HA).require_exact() == 1


def test_bounded_search_keeps_one_ball_per_conjugator_length(monkeypatch):
    built = []
    init = BfsBall.__init__

    def counted(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(BfsBall, "__init__", counted)
    monkeypatch.setattr(norms, "SEARCH_CONJ_LEN", 2)
    gens = GeneratingSet.normal_closure((conjugate(A, B), B.inverse()))
    words = all_reduced_words(2, 3)
    assert len(words) == 53
    shared = GroupContext("free", gens, "bounded-search")
    answers = [shared.norm(w) for w in words]
    assert len(built) == 1
    assert answers == [GroupContext("free", gens, "bounded-search").norm(w) for w in words]
    # one per fresh context, but the identity's, which needs no ball
    assert len(built) == len(words)
    # another conjugator length is another ball, kept beside the first
    assert conjugate_product_search(shared, A, 2, 1) == NormInterval.exact_value(1)
    assert shared.ball(1) is not shared.ball(2) and len(built) == 1 + len(words)


def test_commutator_length_builds_no_ball():
    ctx = commutator_length_context(2)
    for w in all_reduced_words(2, 6):
        if in_commutator_subgroup(w):
            ctx.norm(w)
    assert ctx._balls == {}


@pytest.mark.parametrize("family, gens, message", [
    ("free", GeneratingSet.all_commutators(), "generating set 'all-commutators' is not enumerable"),
    ("free", standard_generators("free"), "normal closure is not enumerable for family 'free'"),
    ("heisenberg", GeneratingSet.normal_closure((HA,)),
     "normal closure is not enumerable for family 'heisenberg'"),
])
def test_bfs_refuses_infinite_generating_sets(family, gens, message):
    if gens.kind == "all-commutators":
        # refused when the context is built, and no ball enumerates the set
        with pytest.raises(ValueError, match="all-commutators is a set of free words"):
            GroupContext(family, gens, "bfs")
        with pytest.raises(NormError, match=message):
            commutator_length_context(2).ball()
        return
    ctx = GroupContext(family, gens, "bfs")
    with pytest.raises(NormError, match=message):
        ctx.norm(ctx.identity())


@pytest.mark.parametrize("family, g", [
    ("perm", Permutation.from_cycles([(1, 2, 3)])), ("heisenberg", Heisenberg(0, 0, 1)),
    ("lattice", LatticeVector((1, 0))),
])
@pytest.mark.parametrize("call", [
    lambda ctx, g: conjugate_product_search(ctx, g, 2, 1),
    lambda ctx, g: norms.enumerate_effective_generators(ctx, 1),
    lambda ctx, g: generator_sample(ctx, seed=1, count=3),
], ids=["product-search", "effective-generators", "generator-sample"])
def test_all_commutators_are_free_words_only(family, g, call):
    # the set is built of free words: in another family the calls below
    # would compare or return free words, so no such context is built
    with pytest.raises(ValueError, match="all-commutators is a set of free words"):
        call(GroupContext(family, GeneratingSet.all_commutators(), "bfs"), g)


def test_lower_bound_for_a_generator_image_that_is_not_a_unit(monkeypatch):
    # each conjugate of a^2 moves the exponent sum of a by 2, so a^4 needs
    # two of them, and two suffice
    monkeypatch.setattr(norms, "SEARCH_CONJ_LEN", 2)
    ctx = GroupContext("free", GeneratingSet.normal_closure((A * A,)), "bounded-search")
    assert norms._abelianisation_lower_bound(ctx, A ** 4) == 2
    assert norms._abelianisation_lower_bound(ctx, A ** 3) == 2
    assert ctx.norm(A ** 4) == NormInterval(2, 2, True)


H110 = Heisenberg(1, 1, 0)


class TestAbelianisationBound:
    """One lower bound for free and Heisenberg closures: ceil(||ab(g)||_1 /
    max ||ab(s)||_1) over the listed s, and 2 for a nontrivial g with
    ab(g) = 0 only when no listed s has ab(s) = 0."""

    def test_power_of_a_listed_heisenberg_element(self):
        ctx = GroupContext("heisenberg", GeneratingSet.normal_closure((H110,)), "bounded-search")
        assert H110 ** 9 == Heisenberg(9, 9, 36)
        # nine listed factors give it, and each moves ||(x, y)||_1 by 2
        assert ctx.norm(H110 ** 9) == NormInterval(9, math.inf, False)
        assert ctx.norm(H110 ** 2) == NormInterval.exact_value(2)

    def test_listed_central_element(self):
        z = Heisenberg(0, 0, 1)
        ctx = GroupContext("heisenberg", GeneratingSet.normal_closure((z,)), "bounded-search")
        assert ctx.norm(z) == NormInterval.exact_value(1)
        assert ctx.norm(z ** 3) == NormInterval(1, 3, False)
        # with a central element listed beside a, (0, 0, 1) is one factor
        mixed = GroupContext("heisenberg", GeneratingSet.normal_closure((HA, z)), "bounded-search")
        assert mixed.norm(z) == NormInterval.exact_value(1)

    def test_free_word_in_the_commutator_subgroup(self):
        # [a^2, b] = a^-2 . b^-1 a^2 b, and no conjugate of a^±2 lies in [F, F]
        ctx = GroupContext("free", GeneratingSet.normal_closure((A * A,)), "bounded-search")
        assert norms._abelianisation_lower_bound(ctx, commutator(A * A, B)) == 2
        assert conjugate_product_search(ctx, commutator(A * A, B), 2, 1) == NormInterval(2, 2, True)
        # every conjugate of [a, b] lies in [F, F], so the bound stays 1
        mixed = GroupContext("free", GeneratingSet.normal_closure((A, commutator(A, B))),
                             "bounded-search")
        assert norms._abelianisation_lower_bound(mixed, commutator(A, B)) == 1


def test_perm_conjugates_counted_against_the_memory_cap(monkeypatch):
    for cycles in ([(1, 2)], [(1, 2), (3, 4)], [(1, 2, 3)], [(1, 2, 3), (4, 5)],
                   [(1, 2, 3, 4, 5, 6)]):
        cycle_type = tuple(sorted(len(c) for c in cycles))
        assert norms._class_size(cycle_type, 6) == len(
            _s_n_conjugates((Permutation.from_cycles(cycles),), 6))
    # the 3-cycles of S_6: 6! / (3 * 1! * 1^3 * 3!) = 40
    three = Permutation.from_cycles([(1, 2, 3)])
    gens = GeneratingSet.normal_closure((three,))
    monkeypatch.setattr(norms, "MEMORY_CAP", 39)
    with pytest.raises(BudgetError, match="40 conjugates exceed memory_cap 39"):
        GroupContext("perm", gens, "bfs", degree=6).norm(three)
    # the classes of all listed cycle types are charged: 40 + 15
    both = GeneratingSet.normal_closure((three, T12))
    monkeypatch.setattr(norms, "MEMORY_CAP", 54)
    with pytest.raises(BudgetError, match="55 conjugates exceed memory_cap 54"):
        GroupContext("perm", both, "bfs", degree=6).norm(three)
    monkeypatch.setattr(norms, "MEMORY_CAP", 40)
    assert GroupContext("perm", gens, "bfs", degree=6).norm_exact(three) == 1


@pytest.mark.parametrize("make, key", [
    (free_cancellation_context, "rank"),
    (symmetric_transposition_context, "degree"),
    (lattice_context, "dim"),
])
def test_sizes_below_one_are_value_errors(make, key):
    for size in (0, -1):
        with pytest.raises(ValueError, match=f"{key} must be at least 1, got {size}"):
            make(size)


def test_search_budgets_keep_the_old_context_defaults():
    assert (norms.MEMORY_CAP, norms.BFS_MAX_RADIUS, norms.SEARCH_K_MAX,
            norms.SEARCH_CONJ_LEN) == (500_000, 12, 6, 34)


@pytest.mark.parametrize("make, elements, explicit, budgets", [
    pytest.param(lambda: GroupContext("lattice", standard_generators("lattice"), "bfs"),
                 [LatticeVector(v) for v in ((3, -2), (6, 6), (7, 6))],
                 lambda ctx, g: bfs_word_norm(ctx, g, norms.BFS_MAX_RADIUS), (), id="bfs"),
    pytest.param(lambda: GroupContext("heisenberg", GeneratingSet.normal_closure((HA,)),
                                      "bounded-search"),
                 [HA, HA * HA, Heisenberg(-1, 0, 3), Heisenberg(0, 0, 1), Heisenberg(1, 0, 34),
                  Heisenberg(6, 0, 0)],
                 lambda ctx, g: conjugate_product_search(ctx, g, norms.SEARCH_K_MAX,
                                                         norms.SEARCH_CONJ_LEN),
                 (), id="bounded-search"),
    # one pairing of [a, b]^2 certifies only its genus 2
    pytest.param(lambda: commutator_length_context(2), [commutator(A, B) ** 2],
                 lambda ctx, g: NormInterval(1, 2, False), (("CL_PAIRING_STEPS", 8),),
                 id="cl-bounds"),
])
def test_search_backends_read_the_module_budgets(make, elements, explicit, budgets, monkeypatch):
    for name, value in budgets:
        monkeypatch.setattr(norms, name, value)
    ctx = make()
    for g in elements:
        assert ctx.norm(g) == explicit(make(), g), g.encode()


def _conjugator_ball_conjugates(ctx, conj_len_max):
    """Every x^-1 s^±1 x with x in the conjugator ball: all reduced words of
    at most L letters, or the Heisenberg words a^p b^q with |p| + |q| <= L."""
    if ctx.family == "free":
        conjugators = all_reduced_words(ctx.rank, conj_len_max)
    else:
        conjugators = [HA ** p * HB ** q for p in range(-conj_len_max, conj_len_max + 1)
                       for q in range(-conj_len_max + abs(p), conj_len_max - abs(p) + 1)]
    return {conjugate(t, x) for x in conjugators
            for s in ctx.generators.elements for t in (s, s.inverse())}


def _closures(rank):
    a, b = FreeWord.generator(rank, 1), FreeWord.generator(rank, rank)
    return [standard_generators("free", rank), GeneratingSet.normal_closure((a * a,)),
            GeneratingSet.normal_closure((a * b.inverse() * a,))]


@pytest.mark.parametrize("ctx, conj_len_max", [
    *((GroupContext("free", gens, "bounded-search", rank=rank), length)
      for rank in (1, 2, 3) for gens in _closures(rank) for length in range(4)),
    *((GroupContext("heisenberg", GeneratingSet.normal_closure(elements), "bounded-search"), length)
      for elements in ((HA, HB), (HA,), (HB.inverse(),), (HA * HB,), (Heisenberg(0, 0, 1),))
      for length in range(7)),
])
def test_bounded_orbit_is_the_conjugator_ball(ctx, conj_len_max):
    assert (norms.enumerate_effective_generators(ctx, conj_len_max)
            == _conjugator_ball_conjugates(ctx, conj_len_max))


# ---------------------------------------------------------------------------
# the norm axioms on one small context per backend


def _commutator_words():
    short = all_reduced_words(2, 2)
    return sorted({c for u in short for v in short if not (c := commutator(u, v)).is_identity()},
                  key=lambda w: w.encode())


FREE_WORDS = POWER_CASES["free"][1]
S4 = POWER_CASES["perm"][1]
Z2_SMALL = POWER_CASES["lattice"][1]
HEIS_SMALL = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3)).map(
    lambda xyz: Heisenberg(*xyz))
S4_BFS = transposition_ctx(4)


class AxiomCase(NamedTuple):
    ctx: GroupContext
    elements: st.SearchStrategy
    conjugators: st.SearchStrategy
    bfs: GroupContext | None  # the BFS ball the norm must agree with
    budgets: tuple = ()  # (name, value) pairs patched into norms for the case


AXIOM_CASES = {
    "bfs": AxiomCase(S4_BFS, S4, S4, None),
    "transposition-closed-form": AxiomCase(symmetric_transposition_context(4), S4, S4, S4_BFS),
    "cancellation-dp": AxiomCase(free_cancellation_context(2), FREE_WORDS, FREE_WORDS, None),
    "l1": AxiomCase(lattice_context(2), Z2_SMALL, Z2_SMALL,
                    GroupContext("lattice", standard_generators("lattice"), "bfs")),
    "bounded-search-heisenberg": AxiomCase(heisenberg_context(), HEIS_SMALL, HEIS_SMALL, None),
    "bounded-search-perm": AxiomCase(
        GroupContext("perm", standard_generators("perm"), "bounded-search", degree=4),
        S4, S4, S4_BFS, (("SEARCH_K_MAX", 4), ("SEARCH_CONJ_LEN", 1))),
    "cl-bounds": AxiomCase(
        commutator_length_context(2),
        st.lists(st.sampled_from(_commutator_words()), min_size=1, max_size=2).map(
            lambda cs: functools.reduce(operator.mul, cs)),
        FREE_WORDS, None, (("CL_PAIRING_STEPS", 1 << 14),)),
}


def test_axiom_cases_cover_every_backend():
    assert {case.ctx.backend for case in AXIOM_CASES.values()} == set(norms.BACKENDS)


@pytest.mark.parametrize("name", sorted(AXIOM_CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_norm_axioms_per_backend(name, data):
    """Certified forms of the axioms, which hold for intervals too: 0 exactly
    at the identity, ||g^-1|| = ||g||, ||gh|| <= ||g|| + ||h|| and, since every
    set here is normal, no certified gap between ||g|| and ||x^-1 g x||."""
    ctx, elements, conjugators, bfs, budgets = AXIOM_CASES[name]
    g, h, x = data.draw(elements), data.draw(elements), data.draw(conjugators)
    with ExitStack() as stack:
        for budget, value in budgets:
            stack.enter_context(patch.object(norms, budget, value))
        ng = ctx.norm(g)
        assert (ng == NormInterval.exact_value(0)) == g.is_identity()
        assert ng.lower > 0 or g.is_identity()
        assert ctx.norm(g.inverse()) == ng
        assert ctx.norm(g * h).lower <= ng.upper + ctx.norm(h).upper
        assert check_conjugation_invariance(ctx, [(g, x)])[0] == 0
        if bfs is not None:  # S4's diameter 3 is within reach of the search
            assert ng.lower <= bfs.norm_exact(g) == ng.upper


def test_lattice_normal_closure_enumerates_its_signed_elements(monkeypatch):
    # conjugation is trivial in Z^2, so the closure of (1, 1) is (1, 1) and its inverse
    monkeypatch.setattr(norms, "BFS_MAX_RADIUS", 4)
    ctx = GroupContext("lattice", GeneratingSet.normal_closure((LatticeVector((1, 1)),)), "bfs")
    assert norms.enumerate_effective_generators(ctx) == {LatticeVector((1, 1)),
                                                         LatticeVector((-1, -1))}
    assert ctx.norm_exact(LatticeVector((-3, -3))) == 3
    assert ctx.norm(LatticeVector((1, 0))) == NormInterval(5, math.inf, False)


def test_all_commutators_sample_is_seeded_commutators_of_short_words():
    ctx = commutator_length_context(2)
    sample = generator_sample(ctx, seed=4, count=12)
    assert sample == generator_sample(ctx, seed=4, count=12)
    assert len(sample) == 12 and set(sample) <= set(_commutator_words())
    for c in sample:
        assert ctx.norm(c) == NormInterval.exact_value(1)
