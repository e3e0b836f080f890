"""Exact arithmetic for the four built-in group families.

Elements are immutable values with a canonical form: two elements are equal
as group elements if and only if their canonical data (and hence their
textual encodings) are identical.  All integer arithmetic is Python
arbitrary precision, so powers never overflow silently.

Families and their textual encodings (these round-trip exactly):

* free words        ``a b^-1 a``   (identity: ``1``)
* permutations      ``(1 2)(3 4 5)``   (identity: ``()``)
* lattice vectors   ``[3,-2]``
* Heisenberg        ``H(1,0,0)``

The commutator convention used across the whole package is
``[g, h] = g^-1 h^-1 g h``.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class GroupError(Exception):
    """Base class for group arithmetic errors."""


class FamilyMismatchError(GroupError):
    """Raised when elements of different families (or sizes) are combined."""


class EncodingError(GroupError):
    """Raised when a textual encoding cannot be parsed."""


_GENERATOR_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class GroupElement:
    """Common interface of the four families.

    Subclasses implement ``__mul__``, ``inverse``, ``identity`` and
    ``encode``; powers, conjugates and commutators are derived here.  Each
    family validates in its public constructors, builds products and
    inverses through a private constructor that skips validation, and
    compares and hashes one tuple key.
    """

    family = "abstract"
    __slots__ = ()

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        raise NotImplementedError

    def inverse(self) -> "GroupElement":
        raise NotImplementedError

    def identity(self) -> "GroupElement":
        """Identity element of the same group (same rank/dimension)."""
        raise NotImplementedError

    def encode(self) -> str:
        raise NotImplementedError

    def is_identity(self) -> bool:
        return self == self.identity()

    def __pow__(self, n: int) -> "GroupElement":
        if not isinstance(n, int):
            raise TypeError(f"exponent must be an integer, got {type(n).__name__}")
        if n < 0:
            return self.inverse() ** (-n)
        result = self.identity()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _mismatch(self, other: object) -> FamilyMismatchError:
        """The error for a product with an element of another family."""
        return FamilyMismatchError(
            f"cannot combine {self.family} element with "
            f"{getattr(other, 'family', type(other).__name__)} element"
        )


def conjugate(a: GroupElement, b: GroupElement) -> GroupElement:
    """b^-1 a b."""
    return b.inverse() * a * b


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    """[g, h] = g^-1 h^-1 g h (fixed convention, used everywhere)."""
    return g.inverse() * h.inverse() * g * h


# ---------------------------------------------------------------------------
# free words


def free_reduce(letters: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Freely reduce a letter sequence; idempotent."""
    stack: list[tuple[int, int]] = []
    for idx, sign in letters:
        if stack and stack[-1][0] == idx and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((idx, sign))
    return tuple(stack)


class FreeWord(GroupElement):
    """A freely reduced word in the free group of the given rank.

    The word is stored as one flat tuple of signed codes ``sign * index``
    (1-based generator index, sign in {+1, -1}), the kernel input format;
    ``letters`` yields the same word as ``(index, sign)`` pairs.  The
    constructor reduces and validates its letters eagerly.  Products and
    inverses skip both: both operands are already reduced, so a product can
    only cancel at the seam, where the tail of the left word meets the
    inverse of the head of the right one, and an inverse negates and
    reverses the codes.
    """

    family = "free"
    __slots__ = ("rank", "_codes")

    def __init__(self, rank: int, letters: Iterable[tuple[int, int]] = ()):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        reduced = free_reduce(letters)
        for idx, sign in reduced:
            if not (1 <= idx <= rank):
                raise ValueError(f"generator index {idx} out of range for rank {rank}")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +-1, got {sign}")
        self.rank = rank
        self._codes = tuple(s * i for i, s in reduced)

    @classmethod
    def _from_codes(cls, rank: int, codes: tuple[int, ...]) -> "FreeWord":
        """A word from codes already known to be reduced and in range."""
        word = object.__new__(cls)
        word.rank = rank
        word._codes = codes
        return word

    @property
    def letters(self) -> tuple[tuple[int, int], ...]:
        """The word as ``(index, sign)`` pairs."""
        return tuple((c, 1) if c > 0 else (-c, -1) for c in self._codes)

    @classmethod
    def generator(cls, rank: int, index: int, sign: int = 1) -> "FreeWord":
        return cls(rank, ((index, sign),))

    @classmethod
    def parse(cls, text: str, rank: int) -> "FreeWord":
        text = text.strip()
        if text == "1" or text == "":
            return cls(rank, ())
        letters = []
        for token in text.split():
            name, _, exp = token.partition("^")
            if len(name) != 1 or name not in _GENERATOR_LETTERS:
                raise EncodingError(f"bad generator token {token!r}")
            idx = _GENERATOR_LETTERS.index(name) + 1
            if idx > rank:
                raise EncodingError(f"generator {name!r} exceeds rank {rank}")
            if exp == "":
                sign = 1
            elif exp == "-1":
                sign = -1
            else:
                raise EncodingError(f"bad exponent in token {token!r} (only ^-1 allowed)")
            letters.append((idx, sign))
        return cls(rank, letters)

    def encode(self) -> str:
        if not self._codes:
            return "1"
        if self.rank > len(_GENERATOR_LETTERS):
            raise EncodingError(f"cannot encode words of rank > {len(_GENERATOR_LETTERS)}")
        return " ".join(
            _GENERATOR_LETTERS[c - 1] if c > 0 else _GENERATOR_LETTERS[-c - 1] + "^-1"
            for c in self._codes
        )

    def __mul__(self, other: GroupElement) -> "FreeWord":
        if type(other) is not FreeWord:
            raise self._mismatch(other)
        if self.rank != other.rank:
            raise FamilyMismatchError(f"rank mismatch: {self.rank} vs {other.rank}")
        a, b = self._codes, other._codes
        end = len(a)
        k = 0
        limit = min(end, len(b))
        while k < limit and a[end - 1 - k] == -b[k]:
            k += 1
        return FreeWord._from_codes(self.rank, a[:end - k] + b[k:])

    def inverse(self) -> "FreeWord":
        return FreeWord._from_codes(self.rank, tuple([-c for c in reversed(self._codes)]))

    def identity(self) -> "FreeWord":
        return FreeWord._from_codes(self.rank, ())

    def __len__(self) -> int:
        return len(self._codes)

    def codes(self) -> tuple[int, ...]:
        """Signed integer codes (sign * index), the kernel input format."""
        return self._codes

    def exponent_sums(self) -> tuple[int, ...]:
        """Abelianisation: total exponent of each generator."""
        sums = [0] * self.rank
        for c in self._codes:
            if c > 0:
                sums[c - 1] += 1
            else:
                sums[-c - 1] -= 1
        return tuple(sums)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is FreeWord
            and self.rank == other.rank
            and self._codes == other._codes
        )

    def __hash__(self) -> int:
        return hash((self.rank, self._codes))

    def __repr__(self) -> str:
        return f"FreeWord({self.rank}, {self.encode()!r})"


# ---------------------------------------------------------------------------
# finite-support permutations

# The largest point a permutation may move: one image is stored per point
# up to the largest moved one, so this bounds an element's size.
MAX_POINT = 1 << 16


class Permutation(GroupElement):
    """Finite-support bijection of the positive integers.

    Stored as one tuple of the images of 1..m, where m is the largest moved
    point; trailing fixed points are trimmed, so equal permutations have
    equal tuples.  Points are at most ``MAX_POINT``.  Products compose left
    to right: ``(p * q)`` first applies ``p``, then ``q``.  The public
    constructors validate; products and inverses index the tuples and
    skip validation.
    """

    family = "perm"
    __slots__ = ("_images",)

    def __init__(self, mapping: dict[int, int] | Iterable[tuple[int, int]] = ()):
        items = dict(mapping)
        for point, image in items.items():
            if point < 1 or image < 1:
                raise ValueError("permutation points must be positive integers")
        support = {p for p, img in items.items() if p != img}
        cleaned = {p: items[p] for p in support}
        if set(cleaned.values()) != support:
            raise ValueError("mapping is not a bijection of its support")
        largest = max(support, default=0)
        if largest > MAX_POINT:
            raise ValueError(f"permutation points must be at most {MAX_POINT}")
        self._images = tuple(cleaned.get(p, p) for p in range(1, largest + 1))

    @classmethod
    def _from_images(cls, images: tuple[int, ...]) -> "Permutation":
        """A permutation from the images of 1..m, already a bijection with
        m moved (no trailing fixed point)."""
        perm = object.__new__(cls)
        perm._images = images
        return perm

    def images(self) -> tuple[int, ...]:
        """The images of 1..m, m the largest moved point (0 for the identity)."""
        return self._images

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The moved points with their images, in increasing order."""
        return tuple((p, img) for p, img in enumerate(self._images, 1) if p != img)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(p for p, img in enumerate(self._images, 1) if p != img)

    @classmethod
    def from_cycles(cls, cycles: Sequence[Sequence[int]]) -> "Permutation":
        mapping: dict[int, int] = {}
        seen: set[int] = set()
        for cycle in cycles:
            if len(cycle) < 2:
                raise ValueError("cycles must have length >= 2")
            if len(set(cycle)) != len(cycle) or seen & set(cycle):
                raise ValueError("cycles must be disjoint and repetition-free")
            seen |= set(cycle)
            for a, b in zip(cycle, cycle[1:]):
                mapping[a] = b
            mapping[cycle[-1]] = cycle[0]
        return cls(mapping)

    @classmethod
    def transposition(cls, i: int, j: int) -> "Permutation":
        if i == j:
            raise ValueError("transposition needs two distinct points")
        return cls({i: j, j: i})

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        text = text.strip()
        if text == "()":
            return cls()
        if not text.startswith("(") or not text.endswith(")"):
            raise EncodingError(f"bad permutation encoding {text!r}")
        cycles = []
        for chunk in text[1:-1].split(")("):
            points = chunk.split()
            if not points:
                raise EncodingError(f"empty cycle in {text!r}")
            try:
                cycle = [int(p) for p in points]
            except ValueError as exc:
                raise EncodingError(f"bad cycle entry in {text!r}") from exc
            cycles.append(cycle)
        try:
            return cls.from_cycles(cycles)
        except ValueError as exc:
            raise EncodingError(str(exc)) from exc

    def encode(self) -> str:
        cycles = cycle_decomposition(self)
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p) for p in cycle) + ")" for cycle in cycles)

    def __mul__(self, other: GroupElement) -> "Permutation":
        if type(other) is not Permutation:
            raise self._mismatch(other)
        a, b = self._images, other._images
        n = len(b)
        if len(a) < n:
            # a fixes the points past its own, so b alone moves them
            images = [b[i - 1] for i in a] + list(b[len(a):])
        else:
            images = [b[i - 1] if i <= n else i for i in a]
        m = len(images)
        while m and images[m - 1] == m:
            m -= 1
        return Permutation._from_images(tuple(images[:m]))

    def inverse(self) -> "Permutation":
        inverse = [0] * len(self._images)
        for p, img in enumerate(self._images, 1):
            inverse[img - 1] = p
        return Permutation._from_images(tuple(inverse))

    def identity(self) -> "Permutation":
        return Permutation._from_images(())

    def __eq__(self, other: object) -> bool:
        return type(other) is Permutation and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return f"Permutation({self.encode()!r})"


def cycle_decomposition(p: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles covering the support, each of length >= 2.

    Deterministic: cycles sorted by minimal element, each rotated to start
    at its minimum.
    """
    images = p.images()
    seen = [False] * (len(images) + 1)
    cycles = []
    for start, image in enumerate(images, 1):
        if seen[start] or image == start:
            continue
        cycle = [start]
        seen[start] = True
        while image != start:
            cycle.append(image)
            seen[image] = True
            image = images[image - 1]
        cycles.append(tuple(cycle))
    return cycles


# ---------------------------------------------------------------------------
# lattice vectors


class LatticeVector(GroupElement):
    """Element of Z^d under addition, stored as an exact integer tuple."""

    family = "lattice"
    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        coords = tuple(coords)
        if not coords:
            raise ValueError("dimension must be >= 1")
        for c in coords:
            if not isinstance(c, int):
                raise ValueError("coordinates must be integers")
        self.coords = coords

    @classmethod
    def _from_coords(cls, coords: tuple[int, ...]) -> "LatticeVector":
        """A vector from a nonempty tuple of integers."""
        vector = object.__new__(cls)
        vector.coords = coords
        return vector

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def parse(cls, text: str) -> "LatticeVector":
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise EncodingError(f"bad lattice encoding {text!r}")
        body = text[1:-1]
        if not body:
            raise EncodingError("empty lattice vector")
        try:
            coords = [int(part) for part in body.split(",")]
        except ValueError as exc:
            raise EncodingError(f"bad lattice coordinate in {text!r}") from exc
        return cls(coords)

    def encode(self) -> str:
        return "[" + ",".join(str(c) for c in self.coords) + "]"

    def __mul__(self, other: GroupElement) -> "LatticeVector":
        if type(other) is not LatticeVector:
            raise self._mismatch(other)
        if len(self.coords) != len(other.coords):
            raise FamilyMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return LatticeVector._from_coords(tuple([a + b for a, b in zip(self.coords, other.coords)]))

    def inverse(self) -> "LatticeVector":
        return LatticeVector._from_coords(tuple([-c for c in self.coords]))

    def identity(self) -> "LatticeVector":
        return LatticeVector._from_coords((0,) * len(self.coords))

    def __eq__(self, other: object) -> bool:
        return type(other) is LatticeVector and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"LatticeVector({self.encode()})"


# ---------------------------------------------------------------------------
# discrete Heisenberg group


class Heisenberg(GroupElement):
    """Integer Heisenberg group: (x,y,z)*(x',y',z') = (x+x', y+y', z+z'+x*y').

    The centre is {(0,0,z)} and [a, b] = (0,0,1) for a=(1,0,0), b=(0,1,0);
    powers of the central commutator satisfy [a,b]^n = [a^n, b], which is
    why it is the package's standard distorted element.  z grows like n^2
    under powers, hence the arbitrary-precision integers.
    """

    family = "heisenberg"
    __slots__ = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int):
        for v in (x, y, z):
            if not isinstance(v, int):
                raise ValueError("Heisenberg coordinates must be integers")
        self.x = x
        self.y = y
        self.z = z

    @classmethod
    def _from_xyz(cls, x: int, y: int, z: int) -> "Heisenberg":
        """An element from three integers."""
        h = object.__new__(cls)
        h.x = x
        h.y = y
        h.z = z
        return h

    @classmethod
    def parse(cls, text: str) -> "Heisenberg":
        text = text.strip()
        if not (text.startswith("H(") and text.endswith(")")):
            raise EncodingError(f"bad Heisenberg encoding {text!r}")
        parts = text[2:-1].split(",")
        if len(parts) != 3:
            raise EncodingError(f"Heisenberg encoding needs 3 coordinates: {text!r}")
        try:
            x, y, z = (int(p) for p in parts)
        except ValueError as exc:
            raise EncodingError(f"bad Heisenberg coordinate in {text!r}") from exc
        return cls(x, y, z)

    def encode(self) -> str:
        return f"H({self.x},{self.y},{self.z})"

    def __mul__(self, other: GroupElement) -> "Heisenberg":
        if type(other) is not Heisenberg:
            raise self._mismatch(other)
        return Heisenberg._from_xyz(
            self.x + other.x,
            self.y + other.y,
            self.z + other.z + self.x * other.y,
        )

    def inverse(self) -> "Heisenberg":
        return Heisenberg._from_xyz(-self.x, -self.y, self.x * self.y - self.z)

    def identity(self) -> "Heisenberg":
        return Heisenberg._from_xyz(0, 0, 0)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is Heisenberg
            and (self.x, self.y, self.z) == (other.x, other.y, other.z)
        )

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.z))

    def __repr__(self) -> str:
        return f"Heisenberg({self.x}, {self.y}, {self.z})"


HEISENBERG_A = Heisenberg(1, 0, 0)
HEISENBERG_B = Heisenberg(0, 1, 0)


# ---------------------------------------------------------------------------
# decoding dispatch

def decode(family: str, text: str, rank: int | None = None) -> GroupElement:
    """Parse a canonical encoding; ``rank`` is required for free words."""
    if family == "free":
        if rank is None:
            raise EncodingError("free-word decoding requires a rank")
        return FreeWord.parse(text, rank)
    if family == "perm":
        return Permutation.parse(text)
    if family == "lattice":
        return LatticeVector.parse(text)
    if family == "heisenberg":
        return Heisenberg.parse(text)
    raise EncodingError(f"unknown family {family!r}")
