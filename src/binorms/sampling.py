"""Seeded deterministic samplers.

Every reported supremum in this package ships with the seed that produced
its sample, so all measurements are reproducible bit for bit.  Samplers
use ``random.Random`` (stable across platforms and Python versions for the
methods used here).
"""

from __future__ import annotations

import random
from typing import Callable

from .groups import FreeWord, GroupElement, Heisenberg, LatticeVector, Permutation

DEFAULT_SEED = 20240801


def random_free_word(rng: random.Random, rank: int, max_len: int) -> FreeWord:
    """A uniformly random reduced word of length 0..max_len."""
    length = rng.randint(0, max_len)
    letters: list[tuple[int, int]] = []
    for _ in range(length):
        while True:
            idx = rng.randint(1, rank)
            sign = rng.choice((1, -1))
            if letters and letters[-1] == (idx, -sign):
                continue
            break
        letters.append((idx, sign))
    return FreeWord(rank, letters)


def random_permutation(rng: random.Random, degree: int) -> Permutation:
    points = list(range(1, degree + 1))
    images = points[:]
    rng.shuffle(images)
    return Permutation({p: q for p, q in zip(points, images)})


def random_lattice_vector(rng: random.Random, dim: int, box: int) -> LatticeVector:
    return LatticeVector(tuple(rng.randint(-box, box) for _ in range(dim)))


def random_heisenberg(rng: random.Random, box: int) -> Heisenberg:
    return Heisenberg(rng.randint(-box, box), rng.randint(-box, box), rng.randint(-box, box))


def element_sampler(
    family: str,
    *,
    rank: int = 2,
    degree: int = 5,
    dim: int = 2,
    max_len: int = 6,
    box: int = 8,
) -> Callable[[random.Random], GroupElement]:
    """A draw function for one element of the given family."""
    if family == "free":
        return lambda rng: random_free_word(rng, rank, max_len)
    if family == "perm":
        return lambda rng: random_permutation(rng, degree)
    if family == "lattice":
        return lambda rng: random_lattice_vector(rng, dim, box)
    if family == "heisenberg":
        return lambda rng: random_heisenberg(rng, box)
    raise ValueError(f"unknown family {family!r}")


def sample_pairs(draw: Callable, seed: int, count: int) -> list[tuple[GroupElement, GroupElement]]:
    rng = random.Random(seed)
    return [(draw(rng), draw(rng)) for _ in range(count)]


def all_reduced_words(rank: int, max_len: int) -> list[FreeWord]:
    """Every reduced word of length <= max_len, in deterministic order."""
    words: list[FreeWord] = [FreeWord(rank, ())]
    codes = [c for idx in range(1, rank + 1) for c in (idx, -idx)]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        # codes that never end in an inverse pair are reduced by construction
        frontier = [w + (c,) for w in frontier for c in codes if not w or w[-1] != -c]
        words.extend(FreeWord._from_codes(rank, w) for w in frontier)
    return words
