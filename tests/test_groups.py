import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binorms.groups import (
    FamilyMismatchError,
    FreeWord,
    Heisenberg,
    LatticeVector,
    Permutation,
    commutator,
    conjugate,
    cycle_decomposition,
    decode,
    free_reduce,
)
from binorms.sampling import element_sampler

A = FreeWord.generator(2, 1)
B = FreeWord.generator(2, 2)


class TestFreeWord:
    def test_inverse_pair_cancels(self):
        assert (A * A.inverse()).is_identity()

    def test_inverse_of_product(self):
        assert (A * B).inverse().encode() == "b^-1 a^-1"

    def test_power(self):
        assert (A ** 3).encode() == "a a a"
        assert (A ** -2) == A.inverse() * A.inverse()
        assert (A ** 0).is_identity()

    def test_reduction_is_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            letters = [(rng.randint(1, 2), rng.choice((1, -1))) for _ in range(12)]
            once = free_reduce(letters)
            assert free_reduce(once) == once

    def test_product_length_subadditive(self):
        rng = random.Random(8)
        draw = element_sampler("free", rank=2, max_len=8)
        for _ in range(300):
            u, v = draw(rng), draw(rng)
            assert len(u * v) <= len(u) + len(v)

    def test_parse_round_trip(self):
        for text in ("1", "a", "a b^-1 a", "b^-1 b^-1 a"):
            assert FreeWord.parse(text, 2).encode() == text

    def test_parse_rejects_garbage(self):
        from binorms.groups import EncodingError

        with pytest.raises(EncodingError):
            FreeWord.parse("a^2", 2)
        with pytest.raises(EncodingError):
            FreeWord.parse("c", 2)

    def test_rank_mismatch_raises(self):
        with pytest.raises(FamilyMismatchError):
            A * FreeWord.generator(3, 1)


def _letter_lists(rank):
    return st.lists(st.tuples(st.integers(1, rank), st.sampled_from((1, -1))), max_size=12)


# (rank, a, b): letter sequences that need not be reduced
letter_pairs = st.integers(1, 3).flatmap(
    lambda rank: st.tuples(st.just(rank), _letter_lists(rank), _letter_lists(rank))
)


@settings(max_examples=300, deadline=None)
@given(letter_pairs)
def test_seam_products_match_full_reduction(case):
    rank, a, b = case
    u, v = FreeWord(rank, a), FreeWord(rank, b)
    product = u * v
    reference = FreeWord(rank, a + b)
    assert product == reference
    assert product.letters == free_reduce(a + b)
    assert hash(product) == hash(reference)
    assert u.inverse().letters == free_reduce([(i, -s) for i, s in reversed(a)])
    assert (u * u.inverse()).is_identity()
    assert (u.inverse() * u).is_identity()
    assert u.letters == free_reduce(a)
    assert u.codes() == tuple(s * i for i, s in u.letters)
    assert FreeWord(rank, u.letters) == u
    assert FreeWord.parse(u.encode(), rank) == u


class TestPermutation:
    def test_transposition_involution(self):
        t = Permutation.transposition(1, 2)
        assert (t * t).is_identity()

    def test_composition_order(self):
        # left-to-right: (1 2) then (1 3) sends 1 -> 2, 2 -> 3, 3 -> 1
        p = Permutation.transposition(1, 2) * Permutation.transposition(1, 3)
        assert p == Permutation.from_cycles([(1, 2, 3)])

    def test_cycle_decomposition_examples(self):
        assert cycle_decomposition(Permutation()) == []
        assert cycle_decomposition(Permutation.from_cycles([(1, 2, 3)])) == [(1, 2, 3)]
        p = Permutation({1: 2, 2: 1, 3: 4, 4: 5, 5: 3})
        assert cycle_decomposition(p) == [(1, 2), (3, 4, 5)]

    def test_encode_round_trip(self):
        for text in ("()", "(1 2)", "(1 2)(3 4 5)", "(2 7)(3 5 9)"):
            assert Permutation.parse(text).encode() == text

    def test_fixed_points_dropped(self):
        assert Permutation({1: 1, 2: 3, 3: 2}).support == (2, 3)


class TestLatticeAndHeisenberg:
    def test_lattice_examples(self):
        v = LatticeVector((3, -2))
        assert v.inverse() == LatticeVector((-3, 2))
        assert v.encode() == "[3,-2]"
        assert LatticeVector.parse("[3,-2]") == v

    def test_heisenberg_multiplication_law(self):
        assert Heisenberg(1, 0, 0) * Heisenberg(0, 1, 0) == Heisenberg(1, 1, 1)

    def test_heisenberg_inverse_closed_form(self):
        # solve (x,y,z)*(x',y',z') = 0 by hand: (-x, -y, xy - z)
        g = Heisenberg(3, -2, 5)
        assert g.inverse() == Heisenberg(-3, 2, -11)
        assert (g * g.inverse()).is_identity()

    def test_heisenberg_commutator(self):
        c = commutator(Heisenberg(1, 0, 0), Heisenberg(0, 1, 0))
        assert c == Heisenberg(0, 0, 1)

    def test_heisenberg_power_identity(self):
        # [a^n, b] = (0, 0, n) = [a, b]^n: the standard distorted element
        a, b = Heisenberg(1, 0, 0), Heisenberg(0, 1, 0)
        for n in range(1, 40):
            assert commutator(a ** n, b) == Heisenberg(0, 0, n)
            assert commutator(a, b) ** n == Heisenberg(0, 0, n)

    def test_heisenberg_z_growth_is_exact(self):
        g = Heisenberg(3, 5, 0)
        n = 10 ** 6
        assert (g ** n).z == 15 * n * (n - 1) // 2  # no overflow


@pytest.mark.parametrize("family", ["free", "perm", "lattice", "heisenberg"])
def test_group_laws_on_samples(family):
    draw = element_sampler(family, rank=2, degree=6, dim=3, max_len=6, box=5)
    rng = random.Random(42)
    for _ in range(150):
        a, b, c = draw(rng), draw(rng), draw(rng)
        assert (a * b) * c == a * (b * c)
        assert a * a.identity() == a
        assert (a * a.inverse()).is_identity()
        assert (a.inverse() * a).is_identity()


@pytest.mark.parametrize("family", ["free", "perm", "lattice", "heisenberg"])
def test_canonical_equality_matches_encoding(family):
    draw = element_sampler(family, rank=2, degree=5, dim=2, max_len=5, box=4)
    rng = random.Random(5)
    elems = [draw(rng) for _ in range(120)]
    for x in elems:
        for y in elems:
            assert (x == y) == (x.encode() == y.encode())
            if x == y:
                assert hash(x) == hash(y)


@pytest.mark.parametrize("family", ["free", "perm", "lattice", "heisenberg"])
def test_decode_round_trip(family):
    draw = element_sampler(family, rank=2, degree=5, dim=3, max_len=5, box=6)
    rng = random.Random(6)
    for _ in range(80):
        g = draw(rng)
        assert decode(family, g.encode(), rank=2) == g


def test_conjugate_and_commutator_conventions():
    # conjugate(a, b) = b^-1 a b and [g, h] = g^-1 h^-1 g h throughout
    assert conjugate(A, B) == B.inverse() * A * B
    assert commutator(A, B) == A.inverse() * B.inverse() * A * B
    assert commutator(A, A).is_identity()


def test_cross_family_operations_rejected():
    with pytest.raises(FamilyMismatchError):
        A * Heisenberg(0, 0, 1)
    with pytest.raises(FamilyMismatchError):
        LatticeVector((1,)) * LatticeVector((1, 2))


# -- permutations against a dict model ------------------------------------------
#
# The reference stores only moved points, {point: image}, and composes by
# dict lookups.


def _ref_moved(mapping):
    return {p: q for p, q in mapping.items() if p != q}


def _ref_mul(f, g):
    # left to right: first f, then g
    return _ref_moved({p: g.get(f.get(p, p), f.get(p, p)) for p in set(f) | set(g)})


def _ref_cycles(f):
    remaining, cycles = set(f), []
    while remaining:
        start = min(remaining)
        cycle = [start]
        while f[cycle[-1]] != start:
            cycle.append(f[cycle[-1]])
        remaining -= set(cycle)
        cycles.append(tuple(cycle))
    return cycles


@st.composite
def perm_mappings(draw):
    """A bijection of 1..n, given with up to three explicit fixed points past n."""
    n = draw(st.integers(0, 8))
    mapping = dict(zip(range(1, n + 1), draw(st.permutations(range(1, n + 1)))))
    mapping.update((p, p) for p in range(n + 1, n + 1 + draw(st.integers(0, 3))))
    return mapping


@settings(max_examples=300, deadline=None)
@given(perm_mappings(), perm_mappings())
def test_permutations_match_the_dict_model(f, g):
    p, q = Permutation(f), Permutation(g)
    rf, rg = _ref_moved(f), _ref_moved(g)
    assert p.pairs == tuple(sorted(rf.items()))
    assert p.support == tuple(sorted(rf))
    assert p.images() == tuple(rf.get(i, i) for i in range(1, max(rf, default=0) + 1))
    # products of different lengths, trimmed to the largest moved point
    product = p * q
    assert product.pairs == tuple(sorted(_ref_mul(rf, rg).items()))
    assert product == Permutation(_ref_mul(rf, rg))
    assert hash(product) == hash(Permutation(_ref_mul(rf, rg)))
    assert p.inverse().pairs == tuple(sorted((v, k) for k, v in rf.items()))
    assert (p * p.inverse()).is_identity() and (p.inverse() * p).is_identity()
    assert p * p.identity() == p == p.identity() * p
    assert p.identity() == Permutation() and p.identity().images() == ()
    assert (p == q) == (rf == rg)
    # trailing fixed points given explicitly do not change the value
    assert p == Permutation(rf) and hash(p) == hash(Permutation(rf))
    assert cycle_decomposition(p) == _ref_cycles(rf)
    assert p.encode() == ("".join("(" + " ".join(map(str, c)) + ")" for c in _ref_cycles(rf)) or "()")
    assert Permutation.parse(p.encode()) == p
    assert Permutation.from_cycles(cycle_decomposition(p)) == p


def test_permutation_points_are_capped():
    from binorms.groups import MAX_POINT, EncodingError

    assert Permutation.transposition(1, MAX_POINT).support == (1, MAX_POINT)
    with pytest.raises(ValueError, match="at most"):
        Permutation.transposition(1, MAX_POINT + 1)
    with pytest.raises(EncodingError, match="at most"):
        Permutation.parse(f"(1 {10 ** 12})")


# -- group axioms and round trips on all four families ---------------------------


def _triples(element):
    return st.lists(element, min_size=3, max_size=3)


_ints = st.integers(-10 ** 6, 10 ** 6)
TRIPLES = {
    "free": st.integers(1, 3).flatmap(
        lambda rank: _triples(_letter_lists(rank).map(lambda letters: FreeWord(rank, letters)))),
    "perm": _triples(perm_mappings().map(Permutation)),
    "lattice": st.integers(1, 4).flatmap(
        lambda dim: _triples(st.lists(_ints, min_size=dim, max_size=dim).map(LatticeVector))),
    "heisenberg": _triples(st.tuples(_ints, _ints, _ints).map(lambda t: Heisenberg(*t))),
}


@pytest.mark.parametrize("family", sorted(TRIPLES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_group_axioms_and_round_trips(family, data):
    a, b, c = data.draw(TRIPLES[family])
    e = a.identity()
    assert (a * b) * c == a * (b * c)
    assert a * e == a == e * a and e.is_identity()
    assert (a * a.inverse()).is_identity() and (a.inverse() * a).is_identity()
    assert (a * b).inverse() == b.inverse() * a.inverse()
    assert a.inverse().inverse() == a
    rank = getattr(a, "rank", None)
    for x in (a, b, a * b, e):
        y = decode(family, x.encode(), rank=rank)
        assert y == x and hash(y) == hash(x) and y.encode() == x.encode()
    assert (a == b) == (a.encode() == b.encode())
    other = FreeWord.generator(1, 1) if family != "free" else Permutation.transposition(1, 2)
    with pytest.raises(FamilyMismatchError):
        a * other
    assert a != other
