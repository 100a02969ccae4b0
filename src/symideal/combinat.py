"""Partitions, tableaux, dominance order, Kostka numbers and permutations.

Everything here is exact integer combinatorics.  All types are immutable
(frozen dataclasses over tuples) and safe to share, hash, and use as dict
keys.  Enumeration orders are fixed once and for all so that downstream
reports are reproducible: partitions come in reverse-lexicographic order,
standard tableaux in lexicographic order of their row-major reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod


@dataclass(frozen=True, order=True)
class Partition:
    """A non-increasing sequence of positive integers."""

    parts: tuple[int, ...]

    def __init__(self, parts) -> None:
        object.__setattr__(self, "parts", tuple(int(p) for p in parts))
        if any(p <= 0 for p in self.parts):
            raise ValueError(f"partition parts must be positive: {self.parts}")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError(f"partition parts must be non-increasing: {self.parts}")

    @property
    def n(self) -> int:
        """Size: sum of the parts."""
        return sum(self.parts)

    @property
    def m(self) -> int:
        """Length: number of parts."""
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (1-based), read as zero past the end."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


@dataclass(frozen=True)
class Tableau:
    """A bijective filling of a Young diagram with 1..n, stored row-major."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows) -> None:
        object.__setattr__(self, "rows", tuple(tuple(int(v) for v in row) for row in rows))
        lengths = [len(row) for row in self.rows]
        if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)) or 0 in lengths:
            raise ValueError(f"row lengths must form a partition: {lengths}")
        entries = sorted(v for row in self.rows for v in row)
        if entries != list(range(1, len(entries) + 1)):
            raise ValueError("entries must be a bijection onto 1..n")

    @property
    def shape(self) -> Partition:
        return Partition(len(row) for row in self.rows)

    @property
    def n(self) -> int:
        return sum(len(row) for row in self.rows)

    def column(self, j: int) -> tuple[int, ...]:
        """Entries of the j-th column (1-based), top to bottom."""
        return tuple(row[j - 1] for row in self.rows if len(row) >= j)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(1, (len(self.rows[0]) if self.rows else 0) + 1)]

    def reading(self) -> tuple[int, ...]:
        """Row-major reading, used as the canonical sort key for tableaux."""
        return tuple(v for row in self.rows for v in row)

    def is_standard(self) -> bool:
        rows_ok = all(row[i] < row[i + 1] for row in self.rows for i in range(len(row) - 1))
        cols_ok = all(col[i] < col[i + 1] for col in self.columns() for i in range(len(col) - 1))
        return rows_ok and cols_ok

    def __repr__(self) -> str:
        return "Tableau(" + "/".join(",".join(str(v) for v in row) for row in self.rows) + ")"


@dataclass(frozen=True)
class Permutation:
    """A permutation of 1..n in one-line notation: images[i-1] is the image of i."""

    images: tuple[int, ...]

    def __init__(self, images) -> None:
        object.__setattr__(self, "images", tuple(int(v) for v in images))
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a bijection of 1..n: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(self.images[other.images[i] - 1] for i in range(self.n))

    def sign(self) -> int:
        seen = [False] * self.n
        sign = 1
        for i in range(self.n):
            if not seen[i]:
                j, length = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = self.images[j] - 1
                    length += 1
                if length % 2 == 0:
                    sign = -sign
        return sign

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(1, n + 1))

    @staticmethod
    def transposition(i: int, j: int, n: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return Permutation(images)

    @staticmethod
    def cycle(n: int) -> "Permutation":
        """The long cycle 1 -> 2 -> ... -> n -> 1."""
        return Permutation(list(range(2, n + 1)) + [1])


@dataclass(frozen=True)
class IsotypicDecomposition:
    """Multiplicities of the irreducible modules labelled by partitions.

    ``graded`` optionally refines the multiplicities by polynomial degree.
    Two decompositions compare equal when their total multiplicity maps
    agree; the grading is auxiliary information.
    """

    multiplicities: tuple[tuple[Partition, int], ...]
    graded: tuple[tuple[int, tuple[tuple[Partition, int], ...]], ...] | None = None

    @staticmethod
    def from_dict(mult: dict[Partition, int], graded: dict[int, dict[Partition, int]] | None = None
                  ) -> "IsotypicDecomposition":
        canon = tuple(sorted((lam, m) for lam, m in mult.items() if m != 0))
        canon_graded = None
        if graded is not None:
            canon_graded = tuple(
                (d, tuple(sorted((lam, m) for lam, m in layer.items() if m != 0)))
                for d, layer in sorted(graded.items())
                if any(m != 0 for m in layer.values())
            )
        return IsotypicDecomposition(canon, canon_graded)

    def as_dict(self) -> dict[Partition, int]:
        return dict(self.multiplicities)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IsotypicDecomposition):
            return NotImplemented
        return self.multiplicities == other.multiplicities

    def __hash__(self) -> int:
        return hash(self.multiplicities)

    def __repr__(self) -> str:
        if not self.multiplicities:
            return "0"
        pieces = []
        for lam, m in sorted(self.multiplicities, key=lambda t: t[0].parts, reverse=True):
            head = "" if m == 1 else f"{m}*"
            pieces.append(f"{head}S{list(lam.parts)}")
        return " + ".join(pieces)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in reverse-lexicographic order ((n) first)."""
    if n < 1:
        raise ValueError("n must be at least 1")

    def gen(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            yield Partition(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + [part])

    return list(gen(n, n, []))


def dominates(mu: Partition, lam: Partition) -> bool:
    """True iff every prefix sum of mu is >= the one of lam (missing parts are 0)."""
    if mu.n != lam.n:
        raise ValueError(f"sizes differ: |mu|={mu.n}, |lambda|={lam.n}")
    total_mu = total_lam = 0
    for k in range(1, max(mu.m, lam.m) + 1):
        total_mu += mu.part(k)
        total_lam += lam.part(k)
        if total_mu < total_lam:
            return False
    return True


def transpose(lam: Partition) -> Partition:
    """The conjugate partition, transposing the diagram."""
    return Partition(sum(1 for p in lam.parts if p >= i) for i in range(1, lam.parts[0] + 1))


def d_min(lam: Partition) -> int:
    """sum (i-1)*lam_i: the smallest degree where this shape's module occurs."""
    return sum(i * p for i, p in enumerate(lam.parts))


def r_lambda(lam: Partition, s: int) -> int:
    """s - n + 1 + sum of the first n-s parts of the transpose."""
    n = lam.n
    if not 1 <= s <= n:
        raise ValueError(f"s must lie in 1..{n}, got {s}")
    lam_t = transpose(lam)
    return s - n + 1 + sum(lam_t.part(i) for i in range(1, n - s + 1))


def R_k(mu: Partition, k: int) -> int:
    """One plus the sum of the parts strictly after position k; R_m = 1."""
    if not 1 <= k <= mu.m:
        raise ValueError(f"k must lie in 1..{mu.m}, got {k}")
    return 1 + sum(mu.parts[k:])


def standard_tableaux(lam: Partition) -> list[Tableau]:
    """All standard tableaux of this shape, sorted by row-major reading."""
    shape = lam.parts
    rows: list[list[int]] = [[] for _ in shape]
    found: list[Tableau] = []

    def place(value: int) -> None:
        if value > lam.n:
            found.append(Tableau([tuple(row) for row in rows]))
            return
        for i, row in enumerate(rows):
            if len(row) >= shape[i]:
                continue
            j = len(row)
            if i > 0 and len(rows[i - 1]) <= j:
                continue  # the cell above must already be filled (hence smaller)
            row.append(value)
            place(value + 1)
            row.pop()

    place(1)
    return sorted(found, key=lambda t: t.reading())


def word(t: Tableau) -> tuple[int, ...]:
    """Columns read bottom-to-top, left-to-right."""
    out: list[int] = []
    for col in t.columns():
        out.extend(reversed(col))
    return tuple(out)


def index(t: Tableau) -> tuple[int, ...]:
    """Index sequence aligned with the positions of word(t).

    The entry 1 gets index 0; recursively k+1 gets the index of k, plus one
    when k+1 sits to the left of k in the word.
    """
    w = word(t)
    pos = {value: i for i, value in enumerate(w)}
    idx_of_value = {1: 0}
    for k in range(1, t.n):
        step = 1 if pos[k + 1] < pos[k] else 0
        idx_of_value[k + 1] = idx_of_value[k] + step
    return tuple(idx_of_value[v] for v in w)


def kostka_number(mu: Partition, lam: Partition) -> int:
    """Count of semistandard tableaux of shape mu and content lam."""
    if mu.n != lam.n:
        raise ValueError("sizes differ")
    return _kostka(mu.parts, lam.parts)


@lru_cache(maxsize=None)
def _kostka(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """The branching rule: the entries equal to len(content) fill a
    horizontal strip shape/nu of size content[-1], so the count is the sum
    of _kostka(nu, content[:-1]) over the shapes nu such a strip leaves."""
    if len(shape) > len(content):  # a column holds distinct entries
        return 0
    if not content:
        return 1
    rest = content[:-1]

    # nu interlaces shape: shape[i+1] <= nu[i] <= shape[i]
    def strips(i: int, left: int, nu: tuple[int, ...]) -> int:
        if i == len(shape):
            return 0 if left else _kostka(tuple(p for p in nu if p), rest)
        low = shape[i + 1] if i + 1 < len(shape) else 0
        return sum(strips(i + 1, left - take, nu + (shape[i] - take,))
                   for take in range(min(left, shape[i] - low) + 1))

    return strips(0, content[-1], ())


def kostka_decomposition(lam: Partition) -> IsotypicDecomposition:
    """Decomposition of the permutation module for lam into irreducibles."""
    mult = {}
    for mu in partitions_of(lam.n):
        k = kostka_number(mu, lam)
        if k:
            mult[mu] = k
    return IsotypicDecomposition.from_dict(mult)


def multinomial(lam: Partition) -> int:
    """n! divided by the factorials of the parts."""
    return factorial(lam.n) // prod(factorial(p) for p in lam.parts)
