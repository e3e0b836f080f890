import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import (
    parse_job,
    recursive_g_shape_witnesses,
    recursive_h_shape_witnesses,
    reference_defect_estimate,
    reference_generator_bound,
    reference_lipschitz_estimate,
)
from paper_checks import (
    forward_inequalities_check,
    generator_sample,
    homogeneity_check,
    integrability_witness,
)

from binorms import kernels, norms
from binorms.cli import run_job
from binorms.groups import FreeWord, Heisenberg, LatticeVector, Permutation, commutator, conjugate
from binorms.norms import (
    BudgetError,
    GeneratingSet,
    GroupContext,
    cancellation_norm,
    free_cancellation_context,
    heisenberg_context,
    integer_line_context,
    lattice_context,
    symmetric_transposition_context,
)
from binorms.pqm import (
    DETECT_ABS_THRESHOLD,
    DETECT_REL_THRESHOLD,
    FeketeHypothesisError,
    FiniteOrderError,
    LimitScheme,
    McShaneExtension,
    PqmError,
    PqmHandle,
    SubadditiveCorrection,
    Walk,
    WalkSpecError,
    WindowCertificateError,
    antisymmetrise,
    brooks_qm,
    c_trick_witness,
    coordinate_handle,
    defect_estimate,
    detect_undistorted,
    fekete_limit,
    homogenise,
    homogenised_handle,
    lipschitz_estimate,
    mcshane_extend,
    norm_handle,
    scaled_coordinate_handle,
    scheme_limit,
    walk_build,
    walk_handle,
)
from binorms.reports import format_number
from binorms.sampling import all_reduced_words, element_sampler, sample_pairs

A = FreeWord.generator(2, 1)
B = FreeWord.generator(2, 2)
Z = integer_line_context()
Z2 = lattice_context(2)
F2 = free_cancellation_context(2)


def zint(n):
    return LatticeVector((n,))


class TestLimitScheme:
    def test_validation(self):
        with pytest.raises(ValueError):
            LimitScheme("plain", 4)
        with pytest.raises(ValueError):
            LimitScheme("arith", 8, k=0)
        with pytest.raises(ValueError):
            LimitScheme("fancy", 8)

    def test_indices(self):
        assert LimitScheme("plain", 8).indices() == [1, 2, 3, 4, 5, 6, 7, 8]
        assert LimitScheme("arith", 8, k=3).indices() == [3, 6, 9, 12, 15, 18, 21, 24]

    def test_parse(self):
        assert LimitScheme.parse("arith:2", 16) == LimitScheme("arith", 16, k=2)
        assert LimitScheme.parse("cesaro", 8).kind == "cesaro"

    def test_scheme_limit_reads_the_tail_half_window(self):
        series = [2, 0] * 4
        assert scheme_limit(LimitScheme("plain", 8), series) == (1.0, 0, 2, False)
        # running means 2, 1, 4/3, 1, 6/5, 1, 8/7, 1: the tail is the last four
        estimate, lo, hi, converged = scheme_limit(LimitScheme("cesaro", 8), series)
        assert (lo, hi, converged) == (1.0, 1.2, False)
        assert estimate == (1.2 + 1.0 + 8 / 7 + 1.0) / 4
        third = Fraction(1, 3)
        assert scheme_limit(LimitScheme("plain", 8), [1] * 4 + [third] * 4) == (third, third, third, True)

    def test_tail_mean_adds_left_to_right_on_every_python(self):
        # sum() rounds this tail to 2.7684523809523807 from Python 3.12 on
        series = [4, 3, Fraction(10, 3), 3, Fraction(14, 5), Fraction(8, 3), Fraction(20, 7),
                  Fraction(11, 4)]
        assert scheme_limit(LimitScheme("plain", 8), series)[0] == 2.768452380952381


class TestDefectEstimate:
    def test_homomorphism_has_zero_defect(self):
        f = coordinate_handle(Z2)
        pairs = sample_pairs(element_sampler("lattice", dim=2, box=6), 3, 300)
        assert defect_estimate(f, pairs).value == 0

    def test_integer_norm_defect_is_two(self):
        f = norm_handle(Z)
        grid = [(zint(i), zint(j)) for i in range(-3, 4) for j in range(-3, 4)]
        est = defect_estimate(f, grid)
        assert est.value == 2
        # attained at the opposite-sign unit pair; ties break by encoding
        assert est.witness == ("[-1]", "[1]")
        delta = abs(f(zint(1)) - f(zint(0)) + f(zint(-1)))
        assert delta == 2 * min(f(zint(1)), f(zint(-1)))

    def test_brooks_defect_exhaustive_short(self):
        h_ab = brooks_qm(A * B)
        words = all_reduced_words(2, 4)
        pairs = [(g, h) for g in words for h in words]
        est = defect_estimate(h_ab, pairs)
        assert est.value == 1  # frozen: exhaustive over every reduced pair <= 4
        assert est.zero_min_violations == 0

    def test_brooks_defect_exhaustive_length_five(self):
        # the recorded regression value: every reduced pair up to length 5
        h_ab = brooks_qm(A * B)
        words = all_reduced_words(2, 5)
        est = defect_estimate(h_ab, ((g, h) for g in words for h in words))
        assert est.value == 1
        assert est.witness == ("a", "b")


class TestLipschitzEstimate:
    def test_norm_is_one_lipschitz(self):
        f = norm_handle(Z2)
        pairs = sample_pairs(element_sampler("lattice", dim=2, box=6), 5, 300)
        assert lipschitz_estimate(f, pairs).value <= 1

    def test_scaled_coordinate(self):
        f = scaled_coordinate_handle(Z, 3)
        pairs = [(zint(i), zint(j)) for i in range(-3, 4) for j in range(-3, 4)]
        assert lipschitz_estimate(f, pairs).value == 3

    def test_lipschitz_bounded_by_sigma_plus_twice_defect(self):
        # C-hat <= sigma-hat + 2 D-hat for every built-in handle
        cases = [
            (norm_handle(Z), element_sampler("lattice", dim=1, box=6), Z),
            (coordinate_handle(Z2), element_sampler("lattice", dim=2, box=6), Z2),
            (brooks_qm(A * B), element_sampler("free", rank=2, max_len=5), F2),
        ]
        for f, draw, ctx in cases:
            pairs = sample_pairs(draw, 11, 400)
            gens = generator_sample(ctx, 11, 60)
            sigma = reference_generator_bound(f, gens)[0]
            defect = defect_estimate(f, pairs).value
            c_hat = lipschitz_estimate(f, pairs).value
            bound = sigma + 2 * defect
            assert float(c_hat) <= float(bound) + 1e-9


class TestGeneratorBound:
    def test_norm_on_generators(self):
        f = norm_handle(Z)
        assert reference_generator_bound(f, [zint(1), zint(-1)])[0] == 1

    def test_scaled(self):
        f = scaled_coordinate_handle(Z, 3)
        assert reference_generator_bound(f, [zint(1), zint(-1)])[0] == 3

    def test_brooks_on_sampled_conjugates(self):
        h_ab = brooks_qm(A * B)
        gens = [conjugate(s, y) for y in all_reduced_words(2, 3)
                for s in (A, B, A.inverse(), B.inverse())]
        assert reference_generator_bound(h_ab, gens)[0] == 1  # frozen


# distinct objects, two of them equal to earlier ones
ESTIMATOR_POOL = [zint(n) for n in range(-3, 4)] + [zint(1), zint(-2)]
# outside Z: it fails the membership gate of its first norm call
FOREIGN = LatticeVector((1, 1))
# a handle value n / d as an int (d = 1), a Fraction or a float; floats
# such as 0.5 tie with Fractions, so mixed handles test the value's type
ESTIMATOR_KINDS = {"int": lambda n, d: n, "fraction": Fraction, "float": lambda n, d: n / d}


@st.composite
def estimator_cases(draw):
    """(handle, pairs): runs of pairs sharing one g object, on a handle whose
    values are all of one kind or mixed, raising at one point or none."""
    kind = draw(st.sampled_from(["int", "fraction", "float", "mixed"]))
    size = 13  # f is read at -6..6
    nums = draw(st.lists(st.integers(-12, 12), min_size=size, max_size=size))
    dens = [1] * size if kind == "int" else draw(
        st.lists(st.integers(1, 4), min_size=size, max_size=size))
    kinds = [kind] * size if kind != "mixed" else draw(
        st.lists(st.sampled_from(sorted(ESTIMATOR_KINDS)), min_size=size, max_size=size))
    table = {i - 6: ESTIMATOR_KINDS[k](n, d) for i, (k, n, d) in enumerate(zip(kinds, nums, dens))}
    raise_at = draw(st.none() | st.integers(-6, 6))

    def fn(v):
        if v.coords[0] == raise_at:
            raise ValueError(f"no value at {raise_at}")
        return table[v.coords[0]]

    index = st.integers(0, len(ESTIMATOR_POOL) - 1)
    runs = draw(st.lists(st.tuples(index, st.lists(index, min_size=1, max_size=6)),
                         min_size=1, max_size=5))
    pairs = [(ESTIMATOR_POOL[g], ESTIMATOR_POOL[h]) for g, hs in runs for h in hs]
    foreign = draw(st.none() | st.tuples(st.integers(0, 29), st.integers(0, 1)))
    if foreign is not None:
        at, side = foreign[0] % len(pairs), foreign[1]
        pairs[at] = (FOREIGN, pairs[at][1]) if side == 0 else (pairs[at][0], FOREIGN)
    return PqmHandle(f"table:{kind}", fn, Z), pairs


def _estimate_outcome(call):
    """What ``call`` returned, with the type of its value, or the exception it raised."""
    try:
        result = call()
    except Exception as exc:  # the first exception is part of the contract
        return "raised", type(exc), str(exc)
    if not isinstance(result, tuple):
        result = (result.value, result.witness, result.n_samples, result.zero_min_violations)
    return ("returned", type(result[0])) + result


class TestEstimatorsMatchReference:
    """The integer supremum and the read-g-once loops against the original loops."""

    @settings(max_examples=80, deadline=None)
    @given(estimator_cases())
    def test_estimators_match_reference(self, case):
        f, pairs = case
        for estimate, reference in (
            (defect_estimate, reference_defect_estimate),
            (lipschitz_estimate, reference_lipschitz_estimate),
        ):
            expected = _estimate_outcome(lambda: reference(f, pairs))
            assert _estimate_outcome(lambda: estimate(f, pairs)) == expected, estimate.__name__

    def test_evaluation_order_reads_g_once_per_run(self):
        log = []

        class Recording:
            def norm_exact(self, g):
                log.append(("norm", g.coords[0]))
                return Z.norm_exact(g)

            def dist(self, g, h):
                log.append(("dist", g.coords[0], h.coords[0]))
                return Z.dist(g, h)

        f = PqmHandle("log", lambda v: log.append(("f", v.coords[0])) or v.coords[0], Recording())
        g, k = zint(2), zint(-1)
        pairs = [(g, zint(1)), (g, zint(3)), (k, zint(1)), (zint(2), zint(3))]
        defect_estimate(f, pairs)
        assert log == [
            ("norm", 2), ("norm", 1), ("f", 2), ("f", 3), ("f", 1),
            ("norm", 3), ("f", 5), ("f", 3),
            ("norm", -1), ("norm", 1), ("f", -1), ("f", 0), ("f", 1),
            # an equal g in a new object starts a new run
            ("norm", 2), ("norm", 3), ("f", 2), ("f", 5), ("f", 3),
        ]
        log.clear()
        lipschitz_estimate(f, [(g, g)] + pairs)
        assert log == [
            ("dist", 2, 1), ("f", 2), ("f", 1), ("dist", 2, 3), ("f", 3),
            ("dist", -1, 1), ("f", -1), ("f", 1), ("dist", 2, 3), ("f", 2), ("f", 3),
        ]

    def test_value_and_witness_across_float_and_exact_ratios(self):
        table = {0: 0, 1: 2.0, 2: 2, 3: Fraction(9), 4: 4.0}
        f = PqmHandle("mixed", lambda v: table[v.coords[0]], Z)
        origin = zint(0)
        # 2.0 (float), then the smaller exact 1: the float stays, with its pair
        est = lipschitz_estimate(f, [(origin, zint(1)), (origin, zint(2))])
        assert (type(est.value), est.value, est.witness) == (float, 2.0, ("[0]", "[1]"))
        # then exact 3 > 2.0: the supremum is the Fraction 3
        est = lipschitz_estimate(f, [(origin, zint(n)) for n in (1, 2, 3)])
        assert (type(est.value), est.value, est.witness) == (Fraction, 3, ("[0]", "[3]"))
        # a float tying an exact supremum keeps the exact value; the witness
        # is the smaller encoding
        est = lipschitz_estimate(f, [(origin, zint(n)) for n in (2, 4)])
        assert (type(est.value), est.value, est.witness) == (Fraction, 1, ("[0]", "[2]"))
        value, witness, _, _ = reference_generator_bound(f, [zint(1), zint(2)])
        assert (type(value), value, witness) == (float, 2.0, ("[1]",))


class TestHomogenise:
    def test_norm_on_integers(self):
        res = homogenise(norm_handle(Z), zint(1), LimitScheme("plain", 16))
        assert res.estimate == 1 and res.converged

    def test_brooks_on_its_pattern(self):
        h_ab = brooks_qm(A * B)
        res = homogenise(h_ab, A * B, LimitScheme("plain", 16))
        assert res.estimate == 1 and res.converged

    def test_doubling_walk_diverges(self):
        res = homogenise(walk_handle(walk_build("doubling-blocks")), zint(1),
                         LimitScheme("plain", 2 ** 12))
        assert not res.converged
        assert float(res.limsup_est - res.liminf_est) >= 0.25

    def test_bounded_by_norm_and_subadditive(self):
        f = norm_handle(F2)
        scheme = LimitScheme("plain", 8)
        words = all_reduced_words(2, 2)
        tau = {w: float(homogenise(f, w, scheme).estimate) for w in words}
        pairs = sample_pairs(element_sampler("free", rank=2, max_len=2), 17, 60)
        # measured (C, D) for the norm handle: C <= 1, D <= 2, bound (2C + D) min
        for g, h in pairs:
            tg = tau.get(g, float(homogenise(f, g, scheme).estimate))
            assert -1e-9 <= tg <= cancellation_norm(g) + 1e-9
            th = tau.get(h, float(homogenise(f, h, scheme).estimate))
            tgh = float(homogenise(f, g * h, scheme).estimate)
            m = min(cancellation_norm(g), cancellation_norm(h))
            assert abs(tg - tgh + th) <= 4 * m + 1e-6


class TestHomogeneityCheck:
    def test_translation_length_on_integers(self):
        f_hom = homogenised_handle(norm_handle(Z), LimitScheme("arith", 8, k=1))
        residual, _ = homogeneity_check(f_hom, zint(2), [3])
        assert residual == 0

    def test_free_generator(self):
        f_hom = homogenised_handle(norm_handle(F2), LimitScheme("arith", 8, k=2))
        residual, table = homogeneity_check(f_hom, A, [2])
        assert residual == 0
        assert table[0][1] == 2  # tau(a^2) = 2

    def test_commutator_recorded_values(self):
        scheme = LimitScheme("arith", 16, k=2)
        res = homogenise(norm_handle(F2), commutator(A, B), scheme)
        # ||[a,b]^n|| = n+1 (n odd), n+2 (n even): frozen window statistics
        assert res.liminf_est == Fraction(17, 16)
        assert res.limsup_est == Fraction(10, 9)
        assert float(res.estimate) == pytest.approx(1.0828589812964813, abs=1e-12)
        f_hom = homogenised_handle(norm_handle(F2), scheme)
        residual, _ = homogeneity_check(f_hom, commutator(A, B), [2, 3])
        assert residual <= 0.17  # frozen; decays like 1/window


class TestFekete:
    def test_linear_sequence(self):
        res = fekete_limit(lambda n: 2.5 * n, SubadditiveCorrection.zero(), 256)
        assert float(res.estimate) == pytest.approx(2.5, abs=1e-12)

    def test_half_ceiling(self):
        res = fekete_limit(lambda n: (n + 1) // 2, SubadditiveCorrection.zero(), 2 ** 12)
        assert abs(float(res.estimate) - 0.5) < 1e-3

    def test_sqrt_drift(self):
        res = fekete_limit(lambda n: 3 * n + math.sqrt(n), SubadditiveCorrection.sqrt(2), 2 ** 14)
        assert abs(float(res.estimate) - 3) < 1e-2

    def test_hypothesis_violation_reports_pair(self):
        # superadditive growth violates subadditivity with zero correction
        with pytest.raises(FeketeHypothesisError) as exc:
            fekete_limit(lambda n: n * n, SubadditiveCorrection.zero(), 64)
        m, n = exc.value.pair
        assert m >= 1 and n >= 1

    def test_non_monotone_phi_rejected(self):
        bad = SubadditiveCorrection(lambda t: -t, "decreasing")
        with pytest.raises(PqmError):
            fekete_limit(lambda n: float(n), bad, 64)

    @pytest.mark.parametrize("n_max", range(1, 8))
    def test_short_window_is_refused_by_the_scheme(self, n_max):
        with pytest.raises(ValueError, match="^scheme window must be >= 8$"):
            fekete_limit(lambda n: (n + 1) // 2, SubadditiveCorrection.zero(), n_max)

    def test_integrability_witness(self):
        assert integrability_witness(SubadditiveCorrection.sqrt(2).phi)
        linear = SubadditiveCorrection(lambda t: t, "linear")
        assert not integrability_witness(linear.phi)

    def test_agrees_with_homogenisation_for_bounded_defect(self):
        h_ab = brooks_qm(A * B)
        seq = lambda n: h_ab((A * B) ** n)
        rf = fekete_limit(seq, SubadditiveCorrection.constant(2.0), 64)
        rh = homogenise(h_ab, A * B, LimitScheme("plain", 64))
        assert abs(float(rf.estimate) - float(rh.estimate)) < 1e-9


class TestAntisymmetrise:
    def test_homomorphism_unchanged(self):
        f = coordinate_handle(Z2)
        fbar = antisymmetrise(f)
        draw = element_sampler("lattice", dim=2, box=8)
        rng = random.Random(2)
        for _ in range(100):
            v = draw(rng)
            assert fbar(v) == f(v)

    def test_norm_becomes_zero(self):
        fbar = antisymmetrise(norm_handle(F2))
        rng = random.Random(3)
        draw = element_sampler("free", rank=2, max_len=6)
        for _ in range(50):
            assert fbar(draw(rng)) == 0

    def test_exact_antisymmetry_and_idempotence(self):
        h_ab = brooks_qm(A * B)
        fbar = antisymmetrise(h_ab)
        fbarbar = antisymmetrise(fbar)
        rng = random.Random(4)
        draw = element_sampler("free", rank=2, max_len=6)
        for _ in range(100):
            w = draw(rng)
            assert fbar(w) + fbar(w.inverse()) == 0
            assert fbarbar(w) == fbar(w)

    def test_homogenisation_preserves_antisymmetry(self):
        fbar = antisymmetrise(brooks_qm(A * B))
        f_hom = homogenised_handle(fbar, LimitScheme("plain", 12))
        rng = random.Random(5)
        draw = element_sampler("free", rank=2, max_len=3)
        for _ in range(15):
            w = draw(rng)
            assert f_hom(w.inverse()) == -f_hom(w)


class TestMcShaneExtension:
    def test_integer_line_identity_extension(self):
        ext = mcshane_extend(Z, zint(1), 1, 16)
        for h in range(-8, 9):
            assert ext(zint(h)) == h

    def test_restriction_is_exact_for_smaller_c(self):
        ext = mcshane_extend(Z, zint(3), Fraction(3, 2), 16)
        for m in range(-8, 9):
            assert ext(zint(3) ** m) == Fraction(3, 2) * m

    def test_identity_value_zero(self):
        ext = mcshane_extend(F2, A, 1, 8)
        assert ext(F2.identity()) == 0

    def test_free_group_restriction(self):
        ext = mcshane_extend(F2, A, 1, 12)
        for m in range(-6, 7):
            assert ext(A ** m) == m

    def test_certificates_fire_below_growth_floor(self):
        ext = mcshane_extend(Z, zint(1), Fraction(1, 2), 16)
        value, cert = ext.eval_with_certificate(zint(3))
        assert value == Fraction(3, 2)
        assert cert.exact and cert.pos_closed and cert.neg_closed

    def test_lipschitz_on_certified_pairs(self):
        ext = mcshane_extend(Z, zint(1), Fraction(1, 2), 20)
        points = [zint(h) for h in range(-4, 5)]
        for h1 in points:
            v1, c1 = ext.eval_with_certificate(h1)
            for h2 in points:
                v2, c2 = ext.eval_with_certificate(h2)
                if c1.exact and c2.exact:
                    assert abs(v1 - v2) <= Z.dist(h1, h2)  # exact, tolerance 0

    def test_finite_order_rejected(self):
        from binorms.norms import symmetric_transposition_context

        ctx = symmetric_transposition_context(5)
        with pytest.raises(FiniteOrderError):
            mcshane_extend(ctx, Permutation.transposition(1, 2), Fraction(1, 2), 8)

    def test_default_c_is_the_growth_floor_of_the_walk(self):
        from binorms.norms import symmetric_transposition_context

        g = A * A * B.inverse()
        ext = mcshane_extend(F2, g, None, 12)
        assert ext.c == min(Fraction(F2.norm_exact(g ** n), n) for n in range(1, 13))
        assert ext(B) == mcshane_extend(F2, g, ext.c, 12)(B)
        with pytest.raises(FiniteOrderError):
            mcshane_extend(symmetric_transposition_context(5), Permutation.transposition(1, 2),
                           None, 8)

    def test_window_certificate_failure(self):
        with pytest.raises(WindowCertificateError):
            mcshane_extend(Z, zint(1), 2, 8)  # ||g^n|| = n < 2n

    @pytest.mark.parametrize("c", [1, Fraction(1, 3), Fraction(2, 5)])
    def test_matches_plain_fraction_reference(self, c):
        window = 6
        cases = [
            (F2, A, all_reduced_words(2, 3)),
            (F2, A * B, all_reduced_words(2, 2) + [(A * B) ** 3, B ** -4]),
            (Z2, LatticeVector((1, 2)),
             [LatticeVector((x, y)) for x in range(-4, 5) for y in range(-3, 4)]),
        ]
        for ctx, g, points in cases:
            ext = mcshane_extend(ctx, g, c, window)
            cc = Fraction(c)
            floor = min(Fraction(ctx.norm_exact(g ** m), m)
                        for m in range(window // 2 + 1, window + 1))
            for h in points:
                nh = Fraction(ctx.norm_exact(h))
                best = min(cc * n + Fraction(ctx.dist(h, g ** n))
                           for n in range(-window, window + 1))
                pos = cc * (window + 1) > best
                neg = (floor - cc) * (window + 1) - nh > best
                value, cert = ext.eval_with_certificate(h)
                assert type(value) is Fraction and value == best
                assert (cert.exact, cert.pos_closed, cert.neg_closed) == (pos and neg, pos, neg)
                assert cert.tail_floor == floor


def per_power_mcshane(ext, h):
    """eval_with_certificate as one product and one norm per n: the loop
    the two-ray evaluation replaced, kept as its reference."""
    norm_exact = ext.ctx.norm_exact
    p, q = ext.c.numerator, ext.c.denominator
    nh = Fraction(norm_exact(h))
    best_q = q * nh
    for n in range(1, ext.window + 1):
        for signed in (n, -n):
            term = p * signed + q * Fraction(norm_exact(h * ext.g ** -signed))
            if term < best_q:
                best_q = term
    best = Fraction(best_q, q)
    w1 = ext.window + 1
    pos_closed = ext.c * w1 > best
    neg_closed = (ext.tail_floor - ext.c) * w1 - nh > best
    return best, (pos_closed and neg_closed, pos_closed, neg_closed)


def _free_words(rank, max_size):
    return st.lists(st.tuples(st.integers(1, rank), st.sampled_from((1, -1))),
                    max_size=max_size).map(lambda letters: FreeWord(rank, letters))


# orders 10 and 12 in S_7: no power up to the largest window drawn is 1
S7_HIGH_ORDER = st.sampled_from([Permutation.from_cycles(cycles) for cycles in (
    [(1, 2), (3, 4, 5, 6, 7)], [(1, 2, 3), (4, 5, 6, 7)],
    [(1, 6), (2, 7, 3, 5, 4)], [(7, 1, 4), (2, 6, 5, 3)])])

S7_BFS = GroupContext("perm", GeneratingSet.normal_closure((Permutation.transposition(1, 2),)),
                      "bfs", degree=7)
S7_BFS.ball().grow_to(6)  # all of S_7: every norm is a lookup
S7_PERMUTATIONS = st.permutations(range(1, 8)).map(
    lambda images: Permutation(dict(zip(range(1, 8), images))))

# kind: (context, strategy of (g, h)): g conjugated by a free word is not
# cyclically reduced; lattice, Heisenberg and permutation contexts take
# the one-product-a-step ray.  ``cl-bounds`` is missing: it certifies
# ||[a, b]^2|| only as [1, 2], so no walk of window >= 2 gets through it.
MCSHANE_CASES = {
    "free": (F2, st.tuples(_free_words(2, 2), _free_words(2, 3), _free_words(2, 5)).filter(
        lambda t: not t[1].is_identity()).map(lambda t: (conjugate(t[1], t[0]), t[2]))),
    "free-rank-3": (free_cancellation_context(3), st.tuples(_free_words(3, 3), _free_words(3, 4))
                    .filter(lambda t: not t[0].is_identity())),
    "lattice": (Z2, st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                              st.tuples(st.integers(-5, 5), st.integers(-5, 5))).filter(
        lambda t: t[0] != (0, 0)).map(lambda t: (LatticeVector(t[0]), LatticeVector(t[1])))),
    "heisenberg": (heisenberg_context(), st.tuples(
        st.sampled_from([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 2)]),
        st.tuples(*[st.integers(-3, 3)] * 3)).map(
        lambda t: (Heisenberg(*t[0]), Heisenberg(*t[1])))),
    "perm": (symmetric_transposition_context(7), st.tuples(S7_HIGH_ORDER, S7_PERMUTATIONS)),
    "perm-bfs": (S7_BFS, st.tuples(S7_HIGH_ORDER, S7_PERMUTATIONS)),
}

# the s of the near-powers g^m s
NEAR_LETTER = {
    "free": B,
    "free-rank-3": FreeWord.generator(3, 3),
    "lattice": LatticeVector((0, 1)),
    "heisenberg": Heisenberg(0, 1, 0),
    "perm": Permutation.transposition(1, 2),
    "perm-bfs": Permutation.transposition(1, 2),
}


def _spy_rays(ctx, monkeypatch):
    """The (h, count) of every ray the context is asked for."""
    rays = []
    ray_norms = ctx.ray_norms
    monkeypatch.setattr(ctx, "ray_norms",
                        lambda h, g, count: rays.append((h, count)) or ray_norms(h, g, count))
    return rays


class TestMcShaneAgainstThePerPowerLoop:
    def test_cases_cover_every_backend_but_cl_bounds(self):
        backends = {ctx.backend for ctx, _ in MCSHANE_CASES.values()}
        assert backends == set(norms.BACKENDS) - {"cl-bounds"}

    @pytest.mark.parametrize("kind", sorted(MCSHANE_CASES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), window=st.integers(2, 8),
           scale=st.sampled_from([1, Fraction(1, 2), Fraction(2, 3)]))
    def test_same_value_and_certificate(self, kind, data, window, scale):
        """At h, at every power g^m with |m| <= W (read off the table), and at
        every near-power g^m s that is not such a power (two rays)."""
        ctx, elements = MCSHANE_CASES[kind]
        g, h = data.draw(elements)
        ratio = min(Fraction(ctx.norm_exact(g ** n), n) for n in range(1, window + 1))
        assume(ratio > 0)
        ext = mcshane_extend(ctx, g, ratio * scale, window)
        powers = [g ** m for m in range(-window, window + 1)]
        near = [p * NEAR_LETTER[kind] for p in powers]
        with pytest.MonkeyPatch.context() as monkeypatch:
            rays = _spy_rays(ctx, monkeypatch)
            for point in [h] + powers + near:
                del rays[:]
                value, cert = ext.eval_with_certificate(point)
                best, flags = per_power_mcshane(ext, point)
                assert type(value) is Fraction and value == best
                assert (cert.exact, cert.pos_closed, cert.neg_closed) == flags
                # the table fills by rays of fewer than W steps; an
                # evaluation off the powers is the two rays of W steps
                own = [r for r in rays if r[1] == window]
                assert own == ([] if point in powers else [(point, window)] * 2)

    def test_extend_job_at_powers(self):
        """A CLI ``extend`` job probed at powers of its element gives the
        per-power loop's values and certificates."""
        window, g = 6, B.inverse() * A * A * B
        probes = [g ** m for m in (3, -6, 0, 6, -1, 2)]
        at = ";".join(p.encode() for p in probes)
        rows = run_job(parse_job(f"job {{\n  task = extend\n  family = free\n"
                                     f"  element = {g.encode()}\n  window = {window}\n"
                                     f"  at = {at}\n}}\n")).rows
        ext = mcshane_extend(free_cancellation_context(2), g, None, window)
        assert [(r.value, r.exact) for r in rows] == [
            (format_number(best), str(int(flags[0])))
            for best, flags in (per_power_mcshane(ext, p) for p in probes)]

    @pytest.mark.parametrize("g", [A * B, B.inverse() * A * B], ids=["ab", "b^-1ab"])
    def test_letter_cap_matches_the_rays(self, g, monkeypatch):
        """At g^m the table raises BudgetError exactly where the two rays on
        h g^-+W would: below, with the cap at 16 letters."""
        monkeypatch.setattr(norms, "MAX_LETTERS", 16)
        raised = {True: 0, False: 0}
        for window in range(2, 8):
            if len((g ** window).codes()) > 16:
                continue  # the walk itself is over the cap
            shared = mcshane_extend(free_cancellation_context(2), g, None, window)
            for m in sorted(range(-window, window + 1), key=abs):
                h = g ** m
                ctx = free_cancellation_context(2)
                try:
                    ctx.ray_norms(h, g.inverse(), window)
                    ctx.ray_norms(h, g, window)
                    ray_raises = False
                except BudgetError:
                    ray_raises = True
                raised[ray_raises] += 1
                for ext in (shared, mcshane_extend(ctx, g, None, window)):
                    if ray_raises:
                        with pytest.raises(BudgetError):
                            ext.eval_with_certificate(h)
                    else:
                        assert ext(h) == per_power_mcshane(ext, h)[0]
        assert raised[True] and raised[False]


def composed_detect(ctx, g, scheme, window):
    """(verdict, c_est, value_at_g, trace) of detect_undistorted with its
    value at g as the general composition it reads off the norm table,
    ``homogenise(antisymmetrise(ext.handle), g, scheme).estimate``; kept
    as its reference."""
    if scheme.k * scheme.window > window:
        raise ValueError(f"scheme reaches power {scheme.k * scheme.window} beyond the "
                         f"certified window {window}")
    try:
        ext = mcshane_extend(ctx, g, None, window)
    except FiniteOrderError as err:
        return "distorted-or-undecided", Fraction(0), None, tuple(err.trace)
    threshold = max(DETECT_ABS_THRESHOLD, DETECT_REL_THRESHOLD * float(ext.trace[0][1]))
    if float(ext.c) <= threshold:
        return "distorted-or-undecided", ext.c, None, tuple(ext.trace)
    value = homogenise(antisymmetrise(ext.handle), g, scheme).estimate
    return "undistorted", ext.c, value, tuple(ext.trace)


def _outcome(detect, ctx, g, scheme, window):
    """What a detect gives: its four fields, or its error's type and message."""
    try:
        result = detect(ctx, g, scheme, window)
    except (ValueError, BudgetError) as err:
        return type(err), str(err)
    if isinstance(result, tuple):
        return result
    return result.verdict, result.c_est, result.value_at_g, result.trace


# the commutator words have c = 8/7 and 5/3 at W = 8
DETECT_CASES = {
    "free": (F2, _free_words(2, 5).filter(lambda w: not w.is_identity()) | st.sampled_from(
        [F2.decode(w) for w in ("a a b", "a b a^-1 b^-1", "a a b a^-1 b^-1", "b^-1 a b")])),
    "lattice": (Z2, st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
        lambda t: t != (0, 0)).map(LatticeVector)),
    "heisenberg": (heisenberg_context(), st.tuples(*[st.integers(-2, 2)] * 3).filter(
        lambda t: t != (0, 0, 0)).map(lambda t: Heisenberg(*t))),
}


class TestDetectUndistorted:
    @pytest.mark.parametrize("kind", sorted(DETECT_CASES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), window=st.integers(2, 16), k=st.sampled_from([1, 2]))
    def test_matches_the_composition(self, kind, data, window, k):
        """Same verdict, c_est, value at g and trace as the composition; a
        window under the scheme's reach is the same ValueError."""
        ctx, elements = DETECT_CASES[kind]
        g = data.draw(elements)
        scheme = LimitScheme("arith", data.draw(st.integers(8, max(8, window // k))), k=k)
        new = _outcome(detect_undistorted, ctx, g, scheme, window)
        old = _outcome(composed_detect, ctx, g, scheme, window)
        assert new == old and [type(v) for v in new] == [type(v) for v in old]

    @pytest.mark.parametrize("g", [A * B, B.inverse() * A * B], ids=["ab", "b^-1ab"])
    def test_letter_cap_matches_the_composition(self, g, monkeypatch):
        """Under a lowered kernel cap the detect raises the composition's
        first BudgetError, message and all, or returns its witness; each
        side runs on a context of its own, so no memoised row skips a cap.
        Windows under 8 hold no arithmetic scheme and raise ValueError."""
        scheme = LimitScheme("arith", 8, k=1)
        seen = set()
        for cap in (16, 24, 32, 40, 48, 64):
            monkeypatch.setattr(norms, "MAX_LETTERS", cap)
            for window in range(2, 17):
                if len((g ** window).codes()) > cap:
                    continue  # the walk itself is over the cap
                new = _outcome(detect_undistorted, free_cancellation_context(2), g, scheme, window)
                old = _outcome(composed_detect, free_cancellation_context(2), g, scheme, window)
                assert new == old
                seen.add(new[0])
        assert seen == {ValueError, BudgetError, "undistorted"}

    def test_no_evaluation_and_no_product_after_the_walk(self, monkeypatch):
        """A free detect above the threshold reads its value off the norm
        table: no evaluation of the extension, and no product once the
        extension's constructor has returned."""
        g = commutator(A, B)
        products, evals, after_walk = [], [], []
        mul, init = FreeWord.__mul__, McShaneExtension.__init__
        evaluate = McShaneExtension.eval_with_certificate
        monkeypatch.setattr(FreeWord, "__mul__",
                            lambda self, other: products.append(1) or mul(self, other))
        monkeypatch.setattr(McShaneExtension, "__init__", lambda self, *args: (
            init(self, *args), after_walk.append(len(products)))[0])
        monkeypatch.setattr(McShaneExtension, "eval_with_certificate",
                            lambda self, h: evals.append(h) or evaluate(self, h))
        wit = detect_undistorted(free_cancellation_context(2), g, LimitScheme("arith", 8, k=2), 32)
        assert wit.verdict == "undistorted"
        assert evals == [] and after_walk == [len(products)]
        # the returned handle still evaluates the extension
        assert wit.pqm(g) == wit.value_at_g and evals

    def test_integer_five(self):
        wit = detect_undistorted(Z, zint(5), LimitScheme("arith", 8, k=2), 64)
        assert wit.verdict == "undistorted"
        assert wit.c_est == 5 and wit.value_at_g == 5

    def test_free_generator(self):
        wit = detect_undistorted(F2, A, LimitScheme("arith", 8, k=2), 32)
        assert wit.verdict == "undistorted"
        assert wit.c_est == 1 and wit.value_at_g == 1

    def test_heisenberg_commutator_is_undecided(self):
        ctx = heisenberg_context()
        hab = commutator(Heisenberg(1, 0, 0), Heisenberg(0, 1, 0))
        wit = detect_undistorted(ctx, hab, LimitScheme("arith", 8, k=2), 32)
        assert wit.verdict == "distorted-or-undecided"
        assert wit.pqm is None and wit.value_at_g is None
        assert all(norm <= 2 for _, norm, _ in wit.trace)
        assert len(wit.trace) == 32

    def test_detector_pqm_is_antisymmetric_on_cyclic_subgroup(self):
        wit = detect_undistorted(Z, zint(5), LimitScheme("arith", 8, k=2), 64)
        f = wit.pqm
        assert f(zint(10)) == 10 and f(zint(-10)) == -10

    def test_value_equals_c_est_exactly(self):
        wit = detect_undistorted(F2, A * B, LimitScheme("arith", 8, k=2), 24)
        assert wit.value_at_g == wit.c_est == 2

    def test_a_free_detect_runs_the_walk_and_one_row(self, monkeypatch):
        # the walk's rows of the reduced g^1..g^32, then one row of the plain
        # codes of g^33 g^31: 2W |g| letters hold every ||g^j||, j <= 2W
        lengths = []
        prefix_norms = kernels.prefix_norms
        monkeypatch.setattr(kernels, "prefix_norms",
                            lambda codes: lengths.append(len(codes)) or prefix_norms(codes))
        wit = detect_undistorted(free_cancellation_context(2), commutator(A, B),
                                 LimitScheme("arith", 8, k=2), 32)
        assert wit.verdict == "undistorted"
        assert lengths == [4 * n for n in range(1, 33)] + [256]

    @pytest.mark.parametrize("g, calls", [
        # 32 for the walk, then ||g^33||..||g^48|| as the evaluations at
        # g^+-2..g^+-16 first need them (W + 16)
        (Heisenberg(1, 0, 0), 48),
        # below the threshold: the walk alone
        (Heisenberg(0, 0, 1), 32),
    ])
    def test_walks_the_powers_once(self, g, calls, monkeypatch):
        ctx = heisenberg_context()
        seen = []
        norm_exact = ctx.norm_exact
        monkeypatch.setattr(ctx, "norm_exact", lambda h: seen.append(h) or norm_exact(h))
        wit = detect_undistorted(ctx, g, LimitScheme("arith", 8, k=2), 32)
        assert len(seen) == calls
        assert [n for n, _, _ in wit.trace] == list(range(1, 33))


class TestCTrick:
    def test_n_one_is_empty(self):
        res = c_trick_witness(A, B, 1)
        assert res.witnesses == ()

    def test_abelian_witnesses_are_trivial(self):
        u, v = LatticeVector((2, -1)), LatticeVector((1, 3))
        res = c_trick_witness(u, v, 4)
        assert all(c.is_identity() for c in res.witnesses)

    def test_free_pair_n3(self):
        res = c_trick_witness(A, B, 3)
        assert len(res.witnesses) == 2
        lhs, rhs = res.norm_bound_check(cancellation_norm)
        assert lhs <= rhs == 4

    def test_g_shape_certificates(self):
        res = c_trick_witness(A, B, 4, base="g")
        assert all(cert.base_label == "g" for cert in res.certificates)
        res_h = c_trick_witness(A, B, 4, base="h")
        assert all(cert.base_label == "h" for cert in res_h.certificates)

    def test_heisenberg_pair(self):
        res = c_trick_witness(Heisenberg(1, 0, 0), Heisenberg(0, 1, 0), 5)
        assert len(res.witnesses) == 4  # verified exactly in the constructor

    def test_matches_the_recursive_construction(self):
        # every pair of reduced rank-2 words of <= 2 letters and of an
        # 18-element Heisenberg box, n = 1..6, both bases: same witnesses,
        # same certificates, same order
        words = list(all_reduced_words(2, 2))
        box = [Heisenberg(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (0, 1)]
        recursive = {"h": recursive_h_shape_witnesses, "g": recursive_g_shape_witnesses}
        cases = 0
        for elements in (words, box):
            for g in elements:
                for h in elements:
                    for n in range(1, 7):
                        for base, build in recursive.items():
                            res = c_trick_witness(g, h, n, base=base)
                            items = build(g, h, n)
                            assert res.witnesses == tuple(c for c, _ in items)
                            assert res.certificates == tuple(cert for _, cert in items)
                            cases += 1
        assert cases == 7356


class TestBrooks:
    def test_counting_examples(self):
        h_a = brooks_qm(A)
        h_ab = brooks_qm(A * B)
        assert h_a(A ** 5) == 5
        assert h_ab((A * B) ** 3) == 3
        assert h_ab(B.inverse() * A.inverse()) == -1

    def test_single_letter_pattern_is_exponent_sum(self):
        h_a = brooks_qm(A)
        rng = random.Random(9)
        draw = element_sampler("free", rank=2, max_len=8)
        for _ in range(100):
            w = draw(rng)
            assert h_a(w) == w.exponent_sums()[0]

    def test_rejects_non_free_input(self):
        from binorms.groups import FamilyMismatchError

        h_a = brooks_qm(A)
        with pytest.raises(FamilyMismatchError):
            h_a(LatticeVector((1,)))

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            brooks_qm(FreeWord(2, ()))


class TestWalks:
    def test_alternating_returns_to_zero(self):
        w = walk_build("alternating")
        for k in range(50):
            assert w(2 * k) == 0

    def test_all_up(self):
        w = walk_build("all-up")
        for n in range(50):
            assert w(n) == n

    def test_unit_steps(self):
        for kind in ("alternating", "all-up", "doubling-blocks"):
            w = walk_build(kind)
            for n in range(-200, 200):
                assert abs(w(n + 1) - w(n)) == 1
        assert walk_build("doubling-blocks")(0) == 0

    def test_doubling_block_boundaries(self):
        # w(2^k - 1) = (1 - (-2)^k) / 3: two subsequence limits +-1/3
        w = walk_build("doubling-blocks")
        assert [(w(2 ** k - 1)) for k in range(1, 13)] == [
            1, -1, 3, -5, 11, -21, 43, -85, 171, -341, 683, -1365,
        ]

    def test_doubling_blocks_have_two_sublimits(self):
        w = walk_build("doubling-blocks")
        for k in (10, 12, 14):
            n_even, n_odd = 2 ** k - 1, 2 ** (k + 1) - 1
            assert abs(w(n_even) / n_even - (-1 / 3)) < 2e-3
            assert abs(w(n_odd) / n_odd - (1 / 3)) < 2e-3

    def test_closed_form_matches_cumulative_steps(self):
        w = walk_build("doubling-blocks")
        acc = 0
        for i in range(600):
            assert w(i) == acc
            j = 0
            while 2 ** (j + 1) - 1 <= i:
                j += 1
            acc += 1 if j % 2 == 0 else -1

    def test_malformed_spec(self):
        with pytest.raises(WalkSpecError) as built:
            walk_build("sideways")
        # a walk of an unknown kind is refused when constructed, not at its
        # first call, with the same message
        with pytest.raises(WalkSpecError) as constructed:
            Walk("sideways")
        assert str(constructed.value) == str(built.value)
        assert "expected alternating | all-up | doubling-blocks" in str(built.value)


def test_forward_inequalities_on_builtins():
    cases = [
        (norm_handle(Z), element_sampler("lattice", dim=1, box=8)),
        (norm_handle(F2), element_sampler("free", rank=2, max_len=5)),
        (brooks_qm(A * B), element_sampler("free", rank=2, max_len=5)),
        (coordinate_handle(Z2), element_sampler("lattice", dim=2, box=8)),
    ]
    for f, draw in cases:
        pairs = sample_pairs(draw, 23, 500)
        gens = generator_sample(f.ctx, 23, 50)
        sigma = reference_generator_bound(f, gens)[0]
        defect = defect_estimate(f, pairs).value
        assert forward_inequalities_check(f, pairs, sigma, defect) == 0
