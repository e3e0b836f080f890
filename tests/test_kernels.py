import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deletion_oracle, dense_cancellation_dp

from binorms import kernels
from binorms.groups import FreeWord, commutator
from binorms.sampling import all_reduced_words, random_free_word

A = FreeWord.generator(2, 1)
B = FreeWord.generator(2, 2)


def test_empty_word():
    assert kernels.cancellation_dp(()) == 0


def test_single_commutator():
    assert kernels.cancellation_dp(commutator(A, B).codes()) == 2


def test_positive_words_need_full_deletion():
    for n in range(1, 9):
        assert kernels.cancellation_dp((A ** n).codes()) == n


def test_dp_matches_oracle_short_words():
    for w in all_reduced_words(2, 6):
        assert kernels.cancellation_dp(w.codes()) == deletion_oracle(w)


def test_matches_dense_reference_recurrence():
    rng = random.Random(99)
    words = [random_free_word(rng, rank, 48) for rank in (2, 3) for _ in range(40)]
    for n in (1, 3, 6, 12):
        words.append(commutator(A, B) ** n)
        words.append(A ** (4 * n))
        words.append((A * B) ** n * (A.inverse() * B.inverse()) ** n)
    for w in words:
        assert len(w) <= 48
        assert kernels.cancellation_dp(w.codes()) == dense_cancellation_dp(w.codes())


reduced_words = st.integers(2, 3).flatmap(
    lambda rank: st.lists(
        st.tuples(st.integers(1, rank), st.sampled_from((1, -1))), max_size=10
    ).map(lambda letters: FreeWord(rank, letters))
)


@settings(max_examples=200, deadline=None)
@given(reduced_words)
def test_matches_deletion_oracle_for_any_input_type(w):
    codes = w.codes()
    expected = deletion_oracle(w)
    assert kernels.cancellation_dp(codes) == expected
    assert kernels.cancellation_dp(list(codes)) == expected
    assert kernels.cancellation_dp(np.asarray(codes, dtype=np.int64)) == expected


def test_parity_invariant():
    # deletions change length by one; identity has length zero
    rng = random.Random(3)
    for _ in range(100):
        w = random_free_word(rng, 2, 14)
        assert (kernels.cancellation_dp(w.codes()) - len(w)) % 2 == 0


ray_cases = st.integers(2, 3).flatmap(lambda rank: st.tuples(
    st.lists(st.tuples(st.integers(1, rank), st.sampled_from((1, -1))), max_size=3),
    st.lists(st.tuples(st.integers(1, rank), st.sampled_from((1, -1))), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(1, rank), st.sampled_from((1, -1))), max_size=4),
    st.one_of(st.none(), st.integers(-4, 4)),
    st.sampled_from((1, -1)),
    st.integers(1, 5),
).map(lambda t: (rank, *t)))


@settings(max_examples=100, deadline=None)
@given(ray_cases)
def test_prefix_row_of_a_ray_matches_each_reduced_prefix(case):
    # g = u^-1 core u is not cyclically reduced whenever u is not empty;
    # h is either a free word or the power g^m
    rank, conj, core, head, m, sign, window = case
    g = FreeWord(rank, conj).inverse() * FreeWord(rank, core) * FreeWord(rank, conj)
    h = FreeWord(rank, head) if m is None else g ** m
    codes = h.codes() + (g ** sign).codes() * window
    row = kernels.prefix_norms(codes)
    assert len(row) == len(codes) + 1
    for j in range(len(codes) + 1):
        prefix = FreeWord(rank, [(abs(c), 1 if c > 0 else -1) for c in codes[:j]])
        assert row[j] == kernels.cancellation_dp(prefix.codes())
    assert kernels.cancellation_dp(codes) == row[-1]
