"""Shared test helpers: independent oracles kept deliberately naive."""

from __future__ import annotations

import itertools

from binorms.groups import FreeWord


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
