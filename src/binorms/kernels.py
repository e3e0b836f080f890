"""The cancellation-DP kernel.

The one hot inner loop in this package is the interval dynamic program
behind the free-group cancellation norm: translation lengths, cone
distances, the McShane extension and the c-trick norm checks all
evaluate it on long words.

``N(i, j)``, the minimal number of deletions that make ``codes[i..j]``
freely reduce to the identity, satisfies

    N(i, j) = min( N(i+1, j) + 1,                          # delete codes[i]
                   N(i+1, k-1) + N(k+1, j)  for i < k <= j  # cancel codes[i]
                                            with codes[k] == -codes[i] )

with ``N = 0`` on empty intervals.  The kernel fills it one row ``i`` at a
time, from the right, and visits only the positions ``k`` that hold the
inverse letter of ``codes[i]`` (kept in per-letter position lists).  It is
plain Python on list rows: O(L^2) cells plus O(L) work per matching pair.

``prefix_norms`` returns row 0, ``N(0, j - 1)`` for every prefix length
``j``.  ``N`` of a word equals the cancellation norm of the element it
spells, whether or not the word is freely reduced: the deletions that kill
the reduced word kill every word that reduces to it, and each deletion is
one conjugate of a generator.  So one row of the plain concatenation
``h g g ... g`` holds ``||h g^n||`` for every n, at prefix length
``|h| + n |g|``.  The McShane extension of n -> c*n from <g> keeps one
such row of powers of g as its table of ``||g^j||``, j <= 2W, which every
evaluation at a power of g reads; any other point reads two rows, of
``h g^-1 ... g^-1`` and of ``h g ... g``.  ``detect`` reads the
homogenised anti-symmetrised values at g^+-n off that table by exponent,
with no evaluation call and no second walk of the powers.
``cancellation_dp`` is the last entry of the row.

Kernel input format: any sequence of signed generator codes
``sign * index`` (index >= 1) -- a tuple, a list or a numpy integer array.
"""

from __future__ import annotations

NUMBA_AVAILABLE = False
ACTIVE_BACKEND = "python-sparse"


def prefix_norms(codes) -> tuple[int, ...]:
    """Entry j is the minimal number of deletions that make the first j
    letters of the coded word freely reduce to the identity."""
    codes = [int(c) for c in codes]
    length = len(codes)
    # rows[i][j + 1] = N(i, j), so column j + 1 ends at letter j;
    # rows[length] is the all-empty row
    rows = [None] * length + [[0] * (length + 1)]
    where: dict[int, list[int]] = {}
    for i in range(length - 1, -1, -1):
        c = codes[i]
        nxt = rows[i + 1]
        row = [0] * (i + 1) + [n + 1 for n in nxt[i + 1:]]
        for k in where.get(-c, ()):
            inside = nxt[k]
            after = rows[k + 1]
            for col in range(k + 1, length + 1):
                cand = inside + after[col]
                if cand < row[col]:
                    row[col] = cand
        rows[i] = row
        where.setdefault(c, []).append(i)
    return tuple(rows[0])


def cancellation_dp(codes) -> int:
    """Minimal deletions so the coded word freely reduces to the identity."""
    return prefix_norms(codes)[-1]
