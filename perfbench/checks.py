"""Correctness gate: golden exact results plus cheap invariants.

Every task in a workload's universe has a golden result recorded at the
commit that defined the benchmark, so every task of every seed is checked
exactly.  On top of that, invariants are spot-checked with the benchmark's
own arithmetic, independent of binorms:

* the deletion oracle on words of at most 10 letters;
* ``||w|| <= |w|`` and ``||w|| = |w| (mod 2)``;
* equal norms within a conjugacy class (cyclic rotations, across tasks);
* the norm's Lipschitz constant is exactly 1, a Brooks function's
  coboundary vanishes on pairs with the identity, and the c-trick bound
  holds;
* perm norms, BFS or closed form, against |support| - #cycles.

A task fails when its result differs from golden or breaks an invariant.
An error row is a pass only where golden expects that error code.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

ORACLE_MAX_LETTERS = 10
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


# -- free words as tuples of signed codes ----------------------------------------


def parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "1"):
        return ()
    codes = []
    for token in text.split():
        name, _, exp = token.partition("^")
        code = _LETTERS.index(name) + 1
        codes.append(-code if exp == "-1" else code)
    return reduce_word(codes)


def format_word(codes) -> str:
    if not codes:
        return "1"
    return " ".join(_LETTERS[abs(c) - 1] + ("" if c > 0 else "^-1") for c in codes)


def reduce_word(codes) -> tuple[int, ...]:
    stack: list[int] = []
    for c in codes:
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


def inverse(codes) -> tuple[int, ...]:
    return tuple(-c for c in reversed(codes))


def mul(*words) -> tuple[int, ...]:
    return reduce_word(itertools.chain.from_iterable(words))


def power(codes, n: int) -> tuple[int, ...]:
    if n < 0:
        return power(inverse(codes), -n)
    return reduce_word(tuple(codes) * n)


def conjugacy_key(codes) -> tuple[int, ...]:
    """Least cyclic rotation of the cyclic reduction: equal for conjugates."""
    w = list(reduce_word(codes))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    if not w:
        return ()
    return min(tuple(w[i:] + w[:i]) for i in range(len(w)))


def _reduces_to_identity(codes) -> bool:
    return not reduce_word(codes)


def deletion_oracle(codes) -> int:
    """Fewest deletions after which the word reduces to the identity."""
    n = len(codes)
    for deletions in range(n + 1):
        for kept in itertools.combinations(range(n), n - deletions):
            if _reduces_to_identity([codes[i] for i in kept]):
                return deletions
    return n


# -- permutations ------------------------------------------------------------


def transposition_closed_form(text: str) -> int:
    """|support| - #cycles of a permutation in cycle notation."""
    text = text.strip()
    if text == "()":
        return 0
    cycles = [chunk.split() for chunk in text[1:-1].split(")(")]
    return sum(len(c) for c in cycles) - len(cycles)


# -- the checker -------------------------------------------------------------


class Checker:
    """Checks task results against golden and invariants, and counts
    attempted and failed tasks."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._class_norm: dict[tuple, int] = {}
        self._oracle: dict[tuple, int] = {}

    def check(self, key: str, spec: list[str], result: str) -> bool:
        self.attempted += 1
        problems = []
        want = self.golden.get(key)
        if want is None:
            problems.append("no golden result")
        elif result != want:
            problems.append(f"result {result!r} != golden {want!r}")
        if not result.startswith("raised:"):
            try:
                problems.extend(self._invariants(spec, result))
            except (ValueError, IndexError, ZeroDivisionError) as exc:
                problems.append(f"malformed result: {exc}")
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{key}: " + "; ".join(problems))
        return not problems

    # -- invariants ------------------------------------------------------------

    def _invariants(self, spec: list[str], result: str) -> list[str]:
        kind = spec[0]
        if kind == "hom":
            word = parse_word(spec[2])
            values = result.split("|")[4].split(",")
            start, step = (2, 2) if spec[1] == "arith:2" else (1, 1)
            facts = [(power(word, n), Fraction(v) * n)
                     for n, v in zip(itertools.count(start, step), values)]
            return self._free_norms(facts)
        if kind == "detect":
            word = parse_word(spec[1])
            norms = result.split("|")[3].split(",")
            return self._free_norms([(power(word, n), Fraction(v))
                                     for n, v in enumerate(norms, start=1)])
        if kind == "cone":
            g, h = parse_word(spec[1]), parse_word(spec[2])
            ratios = result.split("|")[3].split(",")
            return self._free_norms([(mul(power(g, n), power(h, -n)), Fraction(r) * n)
                                     for n, r in enumerate(ratios, start=1)])
        if kind == "lipschitz":
            # pairs (g, 1) reach ratio 1 and the triangle inequality caps it there
            value = result.split("|")[0]
            return [] if value == "1" else [f"norm Lipschitz constant {value} != 1"]
        if kind == "defect":
            zero_bad = result.split("|")[3]
            return [] if zero_bad == "0" else [f"{zero_bad} pairs with the identity have nonzero coboundary"]
        if kind == "ctrick":
            g, h, n = parse_word(spec[1]), parse_word(spec[2]), int(spec[3])
            lhs, rhs = (int(x) for x in result.split("|")[:2])
            product = mul(power(mul(g, h), -n), power(g, n), power(h, n))
            out = self._free_norms([(product, lhs)])
            if lhs > rhs:
                out.append(f"norm bound {lhs} > {rhs}")
            return out
        if kind == "job":
            return self._job(spec[1], result)
        return [f"unknown task kind {kind!r}"]

    def _free_norms(self, facts) -> list[str]:
        out = []
        for codes, norm in facts:
            if norm.denominator != 1:
                out.append(f"non-integer norm {norm} of {format_word(codes)}")
                continue
            norm = int(norm)
            length = len(codes)
            if norm > length or (length - norm) % 2:
                out.append(f"||{format_word(codes)}|| = {norm} breaks bound or parity")
            if length <= ORACLE_MAX_LETTERS:
                if codes not in self._oracle:
                    self._oracle[codes] = deletion_oracle(codes)
                if self._oracle[codes] != norm:
                    out.append(f"||{format_word(codes)}|| = {norm}, oracle {self._oracle[codes]}")
            key = conjugacy_key(codes)
            seen = self._class_norm.setdefault(key, norm)
            if seen != norm:
                out.append(f"||{format_word(codes)}|| = {norm} but a conjugate has {seen}")
        return out

    def _job(self, text: str, result: str) -> list[str]:
        params = dict(
            (k.strip(), v.strip())
            for k, _, v in (line.partition("=") for line in text.splitlines())
            if v
        )
        if params.get("task") == "norm" and params.get("family") == "perm":
            quantity, value = result.split("|")[:2]
            want = transposition_closed_form(params["element"])
            if quantity != "norm" or value != str(want):
                return [f"perm norm {result!r}, closed form {want}"]
        return []
