"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line printed per criterion (run with ``pytest -s`` to see them).
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

from conftest import all_permutations, deletion_oracle, reference_generator_bound
from paper_checks import (
    abelian_cl_cone_check,
    forward_inequalities_check,
    generator_sample,
    length_vs_word_check,
    lift_function,
)

from binorms.cone import cone_dist, eta
from binorms.cli import run_jobfile
from binorms.groups import (
    FreeWord,
    Heisenberg,
    LatticeVector,
    Permutation,
    commutator,
    conjugate,
)
from binorms.norms import (
    GroupContext,
    GeneratingSet,
    bfs_word_norm,
    cancellation_norm,
    commutator_length_context,
    free_cancellation_context,
    heisenberg_context,
    integer_line_context,
    lattice_context,
    symmetric_transposition_context,
    transposition_norm,
)
from binorms.pqm import (
    LimitScheme,
    SubadditiveCorrection,
    brooks_qm,
    c_trick_witness,
    coordinate_handle,
    defect_estimate,
    detect_undistorted,
    fekete_limit,
    homogenise,
    mcshane_extend,
    norm_handle,
    walk_build,
    walk_handle,
)
from binorms.cone import ConePoint
from binorms.sampling import all_reduced_words, element_sampler, sample_pairs

A = FreeWord.generator(2, 1)
B = FreeWord.generator(2, 2)
N_SAMPLES = 10_000


def _report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_transposition_norm_matches_bfs():
    start = time.monotonic()
    ok = True
    for degree in (4, 5):
        gens = GeneratingSet.normal_closure((Permutation.transposition(1, 2),))
        ctx = GroupContext("perm", gens, "bfs", degree=degree)
        for p in all_permutations(degree):
            if bfs_word_norm(ctx, p, degree + 2).require_exact() != transposition_norm(p):
                ok = False
    elapsed = time.monotonic() - start
    _report(1, "permutation norm oracle equivalence", ok and elapsed < 5.0)


def test_criterion_02_cancellation_norm_matches_deletion_oracle():
    start = time.monotonic()
    ok = True
    words = all_reduced_words(2, 8)
    assert len(words) == 1 + 4 * (3 ** 8 - 1) // 2
    for w in words:
        if cancellation_norm(w) != deletion_oracle(w):
            ok = False
            break
    elapsed = time.monotonic() - start
    _report(2, f"free-group norm oracle equivalence ({len(words)} words, {elapsed:.1f}s)",
            ok and elapsed < 60.0)


def test_criterion_03_norm_axioms_and_conjugation_invariance():
    contexts = [
        (lattice_context(2), element_sampler("lattice", dim=2, box=8)),
        (symmetric_transposition_context(5), element_sampler("perm", degree=5)),
        (free_cancellation_context(2), element_sampler("free", rank=2, max_len=6)),
        (heisenberg_context(), element_sampler("heisenberg", box=6)),
    ]
    violations = 0
    for ctx, draw in contexts:
        identity = ctx.identity()
        for g, h in sample_pairs(draw, 2024, N_SAMPLES):
            ng = ctx.norm_exact(g)
            nh = ctx.norm_exact(h)
            if ng < 0 or (ng == 0) != (g == identity):
                violations += 1
            if ctx.norm_exact(g.inverse()) != ng:
                violations += 1
            if ctx.norm_exact(g * h) > ng + nh:
                violations += 1
            if ctx.norm_exact(conjugate(g, h)) != ng:
                violations += 1
    _report(3, "norm axioms and conjugation invariance", violations == 0)


def test_criterion_04_forward_inequalities_with_measured_constants():
    Z = integer_line_context()
    Z2 = lattice_context(2)
    F2 = free_cancellation_context(2)
    S5 = symmetric_transposition_context(5)
    cases = [
        (norm_handle(Z), element_sampler("lattice", dim=1, box=8)),
        (coordinate_handle(Z2), element_sampler("lattice", dim=2, box=8)),
        (norm_handle(F2), element_sampler("free", rank=2, max_len=5)),
        (brooks_qm(A, F2), element_sampler("free", rank=2, max_len=5)),
        (brooks_qm(A * B, F2), element_sampler("free", rank=2, max_len=5)),
        (norm_handle(S5), element_sampler("perm", degree=5)),
    ]
    total_violations = 0
    for f, draw in cases:
        pairs = sample_pairs(draw, 4242, N_SAMPLES)
        generators = generator_sample(f.ctx, 4242, 100)
        sigma = reference_generator_bound(f, generators)[0]
        defect = defect_estimate(f, pairs).value
        total_violations += forward_inequalities_check(f, pairs, sigma, defect)
    _report(4, "Lipschitz bounds from measured (sigma, D)", total_violations == 0)


def test_criterion_05_extension_restriction_and_lipschitz():
    Z = integer_line_context()
    F2 = free_cancellation_context(2)
    window = 16
    ok = True
    certified_pairs = 0
    cases = [
        (Z, LatticeVector((3,)), [Fraction(3), Fraction(3, 2)],
         [LatticeVector((h,)) for h in range(-4, 5)]),
        (F2, A, [Fraction(1), Fraction(1, 2)],
         [w for w in all_reduced_words(2, 3)]),
    ]
    for ctx, g, cs, probes in cases:
        for c in cs:
            ext = mcshane_extend(ctx, g, c, window)
            for m in range(-window // 2, window // 2 + 1):
                if ext(g ** m) != c * m:  # exact rationals, tolerance 0
                    ok = False
            evaluated = [(h, *ext.eval_with_certificate(h)) for h in probes]
            for h1, v1, cert1 in evaluated:
                for h2, v2, cert2 in evaluated:
                    if cert1.exact and cert2.exact:
                        certified_pairs += 1
                        if abs(v1 - v2) > ctx.dist(h1, h2):
                            ok = False
    _report(5, f"inf-convolution extension ({certified_pairs} certified pairs)",
            ok and certified_pairs > 0)


def test_criterion_06_undistortion_detection():
    Z = integer_line_context()
    F2 = free_cancellation_context(2)
    HB = heisenberg_context()
    scheme = LimitScheme("arith", 8, k=2)
    w1 = detect_undistorted(Z, LatticeVector((5,)), scheme, 64)
    ok = w1.verdict == "undistorted" and w1.c_est == 5 and w1.value_at_g == 5
    w2 = detect_undistorted(F2, A, scheme, 32)
    ok = ok and w2.verdict == "undistorted" and w2.c_est == 1 and w2.value_at_g == 1
    hab = commutator(Heisenberg(1, 0, 0), Heisenberg(0, 1, 0))
    w3 = detect_undistorted(HB, hab, scheme, 32)
    ok = ok and w3.verdict == "distorted-or-undecided"
    ok = ok and len(w3.trace) == 32 and all(norm <= 2 for _, norm, _ in w3.trace)
    _report(6, "undistortion detector", ok)


def test_criterion_07_rearrangement_identity_and_norm_bound():
    words = all_reduced_words(2, 3)
    norms = {w: cancellation_norm(w) for w in words}
    violations = 0
    checked = 0
    for g in words:
        for h in words:
            m = min(norms[g], norms[h])
            for n in range(1, 7):
                # constructor verifies the product identity and every
                # shape certificate exactly, raising on failure
                witness = c_trick_witness(g, h, n)
                checked += 1
                if cancellation_norm(witness.product()) > 2 * (n - 1) * m:
                    violations += 1
    _report(7, f"rearrangement witnesses ({checked} triples)", violations == 0)


def test_criterion_08_fekete_limits():
    start = time.monotonic()
    r1 = fekete_limit(lambda n: 3 * n + math.sqrt(n), SubadditiveCorrection.sqrt(2), 2 ** 14)
    ok = abs(float(r1.estimate) - 3.0) < 1e-2
    r2 = fekete_limit(lambda n: (n + 1) // 2, SubadditiveCorrection.zero(), 2 ** 14)
    ok = ok and abs(float(r2.estimate) - 0.5) < 1e-3
    elapsed = time.monotonic() - start
    _report(8, f"subadditive limits ({elapsed:.1f}s)", ok and elapsed < 5.0)


def test_criterion_09_divergent_walk():
    res = homogenise(walk_handle(walk_build("doubling-blocks")), LatticeVector((1,)),
                     LimitScheme("plain", 2 ** 12))
    ok = (not res.converged) and float(res.limsup_est - res.liminf_est) >= 0.25
    _report(9, "doubling-blocks walk diverges", ok)


def test_criterion_10_lift_composition_matches_homogenisation():
    Z2 = lattice_context(2)
    F2 = free_cancellation_context(2)
    scheme = LimitScheme("plain", 8)
    cases = [
        (norm_handle(F2), F2, element_sampler("free", rank=2, max_len=3), 1.0),
        (brooks_qm(A * B, F2), F2, element_sampler("free", rank=2, max_len=3), 3.0),
        (coordinate_handle(Z2), Z2, element_sampler("lattice", dim=2, box=6), 1.0),
    ]
    ok = True
    for f, ctx, draw, bound in cases:
        rng = random.Random(1010)
        for g in [draw(rng) for _ in range(10)]:
            lifted = lift_function(f, eta(ctx, g), scheme, linear_bound_C=bound)
            hom = homogenise(f, g, scheme)
            if abs(float(lifted) - float(hom.estimate)) > 1e-6:
                ok = False
    _report(10, "lifted functionals restrict to homogenisations", ok)


def test_criterion_11_flat_grids_reproduce_l1_geometry():
    Z2 = lattice_context(2)
    F2 = free_cancellation_context(2)
    scheme = LimitScheme("plain", 8)
    ok = True
    grid = [LatticeVector((i, j)) for i in range(-2, 3) for j in range(-2, 3)]
    for v in grid:
        for w in grid:
            est = cone_dist(eta(Z2, v), eta(Z2, w), scheme)
            expected = sum(abs(x - y) for x, y in zip(v.coords, w.coords))
            if not all(ratio == expected for _, ratio in est.trace):
                ok = False
    flat = {(m, n): eta(F2, (A ** m) * (B ** n)) for m in range(3) for n in range(3)}
    for (m, n), p in flat.items():
        for (m2, n2), q in flat.items():
            est = cone_dist(p, q, scheme)
            expected = abs(m - m2) + abs(n - n2)
            if not all(ratio == expected for _, ratio in est.trace):
                ok = False
    _report(11, "lattice and free-group flats carry L1 geometry", ok)


def test_criterion_12_commutator_length_cone_decay():
    ctx = commutator_length_context(2)
    c1, c2 = commutator(A, B), commutator(A, B ** 2)
    g_seq = ConePoint(ctx, lambda n: c1 ** n, 4, label="c1^n")
    h_seq = ConePoint(ctx, lambda n: c2 ** n, 6, label="c2^n")
    value, trace = abelian_cl_cone_check(g_seq, h_seq, LimitScheme("plain", 128))
    ok = all(bound <= Fraction(1, n) for n, bound in trace)
    ok = ok and float(value) <= 1e-2
    _report(12, "commutator-length cone is abelian at window scale", ok)


def test_criterion_13_length_vs_word_metric():
    ok = True
    for d in (1, 2, 5):
        violations, greedy_mismatches = length_vs_word_check(d, n_samples=1000, seed=2024)
        ok = ok and violations == 0 and greedy_mismatches == 0
    _report(13, "unit-ball word norm brackets the length norm", ok)


def test_criterion_14_reproducible_batch_runs(tmp_path):
    spec_path = Path(__file__).resolve().parent.parent / "jobs" / "acceptance.jobs"
    text = spec_path.read_text(encoding="utf-8")
    out1 = tmp_path / "first.csv"
    out2 = tmp_path / "second.csv"
    code1, _ = run_jobfile(text, out=str(out1), fmt="csv", reproducible=True)
    code2, _ = run_jobfile(text, out=str(out2), fmt="csv", reproducible=True)
    ok = code1 == 0 and code2 == 0
    ok = ok and out1.read_bytes() == out2.read_bytes()
    # trace files must also be reproducible
    traces1 = sorted(p.name for p in tmp_path.glob("first.csv.trace*.csv"))
    for name in traces1:
        twin = name.replace("first", "second")
        ok = ok and (tmp_path / name).read_bytes() == (tmp_path / twin).read_bytes()
    # and the first run must reproduce the recorded report and traces byte for byte
    recorded = Path(__file__).resolve().parent / "data" / "acceptance"
    names = sorted(p.name for p in recorded.glob("report.csv*"))
    ok = ok and [n.replace("report", "first") for n in names] == sorted(["first.csv", *traces1])
    for name in names:
        mine = tmp_path / name.replace("report", "first")
        ok = ok and mine.exists() and mine.read_bytes() == (recorded / name).read_bytes()
    _report(14, "byte-identical reproducible batch", ok)
