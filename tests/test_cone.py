import random
from fractions import Fraction

import pytest
from conftest import reference_generator_bound
from paper_checks import (
    LinearBoundError,
    abelian_cl_cone_check,
    generator_sample,
    length_vs_word_check,
    lift_function,
    lifted_defect_check,
    unit_ball_word_norm,
)

from binorms.groups import FreeWord, LatticeVector, commutator
from binorms.cone import (
    ConeError,
    ConePoint,
    GrowthCertificateError,
    cone_dist,
    cone_norm,
    cone_norm_functional,
    coordinate_functional,
    eta,
    pullback_defect,
)
from binorms import norms
from binorms.norms import (
    BudgetError,
    NormError,
    commutator_length_context,
    free_cancellation_context,
    integer_line_context,
    lattice_context,
)
from binorms.pqm import (
    LimitScheme,
    PqmHandle,
    brooks_qm,
    coordinate_handle,
    defect_estimate,
    homogenise,
    norm_handle,
    scaled_coordinate_handle,
)
from binorms.sampling import element_sampler, sample_pairs

A = FreeWord.generator(2, 1)
B = FreeWord.generator(2, 2)
Z = integer_line_context()
Z2 = lattice_context(2)
F2 = free_cancellation_context(2)
SCHEME = LimitScheme("plain", 12)
SCHEME8 = LimitScheme("plain", 8)


class TestConeNorm:
    def test_constant_sequence_goes_to_zero(self):
        g0 = LatticeVector((4, 1))
        p = ConePoint(Z2, lambda n: g0, 5, label="const")
        est = cone_norm(p, LimitScheme("plain", 1024))
        assert float(est.value) < 0.01
        assert est.liminf_est == Fraction(5, 1024)

    def test_diagonal(self):
        p = eta(Z2, LatticeVector((1, 1)))
        est = cone_norm(p, SCHEME)
        assert est.value == 2 and est.liminf_est == est.limsup_est == 2

    def test_positive_free_words(self):
        p = ConePoint(F2, lambda n: (A ** n) * (B ** n), 2, label="a^n b^n")
        assert cone_norm(p, SCHEME8).value == 2

    def test_growth_certificate_violation(self):
        p = ConePoint(Z, lambda n: LatticeVector((n * n,)), 1, label="n^2")
        with pytest.raises(GrowthCertificateError):
            cone_norm(p, SCHEME8)

    def test_element_over_the_kernel_letter_cap_is_a_budget_error(self):
        # the cone refuses a long word with the kernel's own check and message
        p = ConePoint(F2, lambda n: A ** 5000, 5000)
        with pytest.raises(BudgetError) as refused:
            p.element_at(1)
        with pytest.raises(BudgetError) as kernel:
            norms.check_letters(5000)
        assert str(refused.value) == str(kernel.value)


class TestConeDist:
    def test_distance_to_self_is_zero(self):
        p = eta(Z2, LatticeVector((2, -1)))
        assert cone_dist(p, p, SCHEME).value == 0

    def test_unit_vectors(self):
        p = eta(Z2, LatticeVector((1, 0)))
        q = eta(Z2, LatticeVector((0, 1)))
        assert cone_dist(p, q, SCHEME).value == 2

    def test_lattice_cone_distance_exact_at_every_index(self):
        vectors = [LatticeVector((i, j)) for i in range(-2, 3) for j in range(-2, 3)]
        for v in vectors:
            for w in vectors:
                est = cone_dist(eta(Z2, v), eta(Z2, w), SCHEME8)
                expected = sum(abs(x - y) for x, y in zip(v.coords, w.coords))
                assert all(ratio == expected for _, ratio in est.trace)

    def test_free_flats_reproduce_l1_geometry(self):
        # the a^m b^n grid embeds flatly: distances are |dm| + |dn| at
        # every evaluated index, not only in the limit
        grid = {(m, n): eta(F2, (A ** m) * (B ** n))
                for m in range(3) for n in range(3)}
        for (m, n), p in grid.items():
            for (m2, n2), q in grid.items():
                est = cone_dist(p, q, SCHEME8)
                expected = abs(m - m2) + abs(n - n2)
                assert all(ratio == expected for _, ratio in est.trace)
                assert est.value == expected

    def test_triangle_inequality_sampled(self):
        rng = random.Random(31)
        draw = element_sampler("lattice", dim=2, box=5)
        for _ in range(40):
            p, q, r = (eta(Z2, draw(rng)) for _ in range(3))
            dpq = float(cone_dist(p, q, SCHEME8).value)
            dqr = float(cone_dist(q, r, SCHEME8).value)
            dpr = float(cone_dist(p, r, SCHEME8).value)
            assert dpr <= dpq + dqr + 3e-6


class TestEta:
    def test_identity_maps_to_zero_point(self):
        p = eta(Z2, Z2.identity())
        assert cone_norm(p, SCHEME).value == 0

    def test_integer_five(self):
        assert cone_norm(eta(Z, LatticeVector((5,))), SCHEME).value == 5

    def test_cone_norm_of_eta_is_translation_length(self):
        for g in (A, A * B, commutator(A, B)):
            est = cone_norm(eta(F2, g), SCHEME8)
            hom = homogenise(norm_handle(F2), g, SCHEME8)
            assert est.value == hom.estimate

    def test_power_homogeneity_of_translation_length(self):
        scheme = LimitScheme("arith", 8, k=2)
        g = LatticeVector((2, -3))
        base = cone_norm(eta(Z2, g), scheme).value
        for k in (2, 3):
            assert cone_norm(eta(Z2, g ** k), scheme).value == k * base


class TestLiftFunction:
    def test_norm_lift_is_cone_norm(self):
        p = eta(F2, A * B)
        lifted = lift_function(norm_handle(F2), p, SCHEME8, linear_bound_C=1.0)
        assert lifted == cone_norm(p, SCHEME8).value

    def test_scaled_coordinate(self):
        f = scaled_coordinate_handle(Z, 3)
        for m in (-2, 1, 4):
            lifted = lift_function(f, eta(Z, LatticeVector((m,))), SCHEME, linear_bound_C=3.0)
            assert lifted == 3 * m

    def test_composition_with_eta_matches_homogenisation(self):
        h_ab = brooks_qm(A * B)
        rng = random.Random(17)
        draw = element_sampler("free", rank=2, max_len=3)
        for _ in range(10):
            g = draw(rng)
            lifted = lift_function(h_ab, eta(F2, g), SCHEME8, linear_bound_C=3.0)
            hom = homogenise(h_ab, g, SCHEME8)
            assert abs(float(lifted) - float(hom.estimate)) <= 1e-6

    def test_linear_bound_violation(self):
        square = PqmHandle("square", lambda v: v.coords[0] ** 2, Z)
        with pytest.raises(LinearBoundError):
            lift_function(square, eta(Z, LatticeVector((1,))), SCHEME, linear_bound_C=1.0)


class TestLiftedDefect:
    def _constants(self, f, draw, seed):
        """(sigma, D) of f on a seeded sample."""
        pairs = sample_pairs(draw, seed, 300)
        gens = generator_sample(f.ctx, seed, 40)
        return reference_generator_bound(f, gens)[0], defect_estimate(f, pairs).value

    def test_homomorphism_lifts_to_zero_defect(self):
        f = coordinate_handle(Z2)
        _, defect = self._constants(f, element_sampler("lattice", dim=2, box=6), 41)
        rng = random.Random(42)
        draw = element_sampler("lattice", dim=2, box=4)
        pairs = [(eta(Z2, draw(rng)), eta(Z2, draw(rng))) for _ in range(20)]
        violations, max_ratio = lifted_defect_check(f, pairs, SCHEME8, defect, linear_bound_C=1.0)
        assert violations == 0 and max_ratio == 0

    def test_integer_norm_lift(self):
        f = norm_handle(Z)
        _, defect = self._constants(f, element_sampler("lattice", dim=1, box=6), 43)
        rng = random.Random(44)
        pairs = [(eta(Z, LatticeVector((rng.randint(-5, 5),))),
                  eta(Z, LatticeVector((rng.randint(-5, 5),)))) for _ in range(20)]
        violations, max_ratio = lifted_defect_check(f, pairs, SCHEME8, defect, linear_bound_C=1.0)
        assert violations == 0
        assert max_ratio <= 2

    def test_brooks_lift_bounded_by_measured_defect(self):
        f = brooks_qm(A * B)
        sigma, defect = self._constants(f, element_sampler("free", rank=2, max_len=4), 45)
        rng = random.Random(46)
        draw = element_sampler("free", rank=2, max_len=2)
        pairs = [(eta(F2, draw(rng)), eta(F2, draw(rng))) for _ in range(12)]
        violations, _ = lifted_defect_check(f, pairs, SCHEME8, defect,
                                            linear_bound_C=float(sigma + 2 * defect))
        assert violations == 0


class TestPullback:
    def test_coordinate_functional_is_homomorphism(self):
        pairs = sample_pairs(element_sampler("lattice", dim=2, box=5), 47, 40)
        report = pullback_defect(coordinate_functional(0, SCHEME8), Z2, pairs)
        assert report.max_defect == 0 and report.violations == 0

    def test_cone_norm_pullback_on_free_group(self):
        pairs = [(A, A.inverse()), (A, B), (A * B, B.inverse()),
                 (commutator(A, B), A), (A * B, A.inverse() * B)]
        report = pullback_defect(cone_norm_functional(SCHEME8), F2, pairs)
        assert report.violations == 0
        assert report.max_ratio == 2  # attained by the (a, a^-1) pair

    @pytest.mark.parametrize("scheme", [SCHEME8, LimitScheme("arith", 8, k=3),
                                        LimitScheme("cesaro", 8), LimitScheme("cesaro", 13)])
    def test_coordinate_functional_agrees_with_cone_norm(self, scheme):
        # a non-negative point of Z whose ratio g_n / n is not constant, so
        # the Cesaro running means differ from the raw ratios
        p = ConePoint(Z, lambda n: LatticeVector((n + (n // 2 if n % 2 else 0),)), 2)
        assert coordinate_functional(0, scheme)(p) == cone_norm(p, scheme).value

    def test_nonvanishing_functional_rejected(self):
        from binorms.cone import ConeFunctional

        bad = ConeFunctional("one", lambda p: 1.0, 1.0)
        with pytest.raises(ConeError):
            pullback_defect(bad, Z2, [(LatticeVector((1, 0)), LatticeVector((0, 1)))])


class TestAbelianClCone:
    def test_single_commutator_sequences(self):
        ctx = commutator_length_context(2)
        c1, c2 = commutator(A, B), commutator(A, B ** 2)
        g_seq = ConePoint(ctx, lambda n: c1 ** n, 4)
        h_seq = ConePoint(ctx, lambda n: c2 ** n, 6)
        value, trace = abelian_cl_cone_check(g_seq, h_seq, LimitScheme("plain", 128))
        assert all(bound <= Fraction(1, n) for n, bound in trace)
        assert float(value) <= 1e-2

    def test_commuting_sequences_are_exactly_zero(self):
        ctx = commutator_length_context(2)
        c1 = commutator(A, B)
        g_seq = ConePoint(ctx, lambda n: c1 ** n, 4)
        h_seq = ConePoint(ctx, lambda n: c1 ** (2 * n), 8)
        value, _ = abelian_cl_cone_check(g_seq, h_seq, LimitScheme("plain", 16))
        assert value == 0

    def test_rejects_entries_outside_commutator_subgroup(self):
        ctx = commutator_length_context(2)
        g_seq = ConePoint(ctx, lambda n: A ** n, 1)
        h_seq = ConePoint(ctx, lambda n: commutator(A, B) ** n, 4)
        with pytest.raises(NormError):
            abelian_cl_cone_check(g_seq, h_seq, LimitScheme("plain", 8))


class TestLengthVsWord:
    def test_hand_examples(self):
        assert unit_ball_word_norm([0.5, 0.3]) == 1
        assert unit_ball_word_norm([2.5, 0.0]) == 3
        assert unit_ball_word_norm([0.0, 0.0]) == 0

    def test_inequalities_and_greedy_oracle(self):
        for d in (1, 2, 5):
            violations, greedy_mismatches = length_vs_word_check(d, n_samples=400, seed=51)
            assert violations == 0
            assert greedy_mismatches == 0
