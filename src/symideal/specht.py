"""Vandermonde, Specht, and higher Specht polynomial constructions.

Also houses the explicit low-degree spanning sets used by the colength
classification (degrees up to three) and the ideals generated by Specht
polynomials of a fixed shape.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from .combinat import (Partition, Permutation, Tableau, index,
                       standard_tableaux, transpose, word)
from .ideals import Ideal
from .poly import Polynomial, apply_permutation, linear_combination, power_sum


class SpechtDatum:
    """A tableau pair of common shape with its polynomial built lazily.

    The first tableau supplies the variables, the second (standard) one the
    exponents; the resulting symmetrized polynomial is cached on first use.
    """

    __slots__ = ("filling", "exponent_source", "_polynomial")

    def __init__(self, filling: Tableau, exponent_source: Tableau):
        if filling.shape != exponent_source.shape:
            raise ValueError("shapes differ")
        if not exponent_source.is_standard():
            raise ValueError("the exponent tableau must be standard")
        self.filling = filling
        self.exponent_source = exponent_source
        self._polynomial: Polynomial | None = None

    @property
    def shape(self) -> Partition:
        return self.filling.shape

    def polynomial(self) -> "Polynomial":
        if self._polynomial is None:
            self._polynomial = higher_specht(self.filling, self.exponent_source)
        return self._polynomial

    def __repr__(self) -> str:
        return f"SpechtDatum({self.filling!r}, {self.exponent_source!r})"


def vandermonde(indices, n: int) -> Polynomial:
    """Product of (x_i - x_j) over index pairs in the given sequence order."""
    seq = [int(i) for i in indices]
    if len(set(seq)) != len(seq):
        raise ValueError(f"indices must be distinct: {seq}")
    if any(not 1 <= i <= n for i in seq):
        raise ValueError("index out of range")
    result = Polynomial.one(n)
    for a, b in combinations(seq, 2):
        result = result * (Polynomial.variable(a, n) - Polynomial.variable(b, n))
    return result


def specht_polynomial(t: Tableau, n: int | None = None) -> Polynomial:
    """Product of the column Vandermonde polynomials of the tableau."""
    return _column_product(t.columns(), n or t.n)


def _column_product(columns, n: int) -> Polynomial:
    result = Polynomial.one(n)
    for col in columns:
        result = result * vandermonde(col, n)
    return result


def _column_group(t: Tableau) -> list[tuple[Permutation, int]]:
    """Column stabilizer with signs."""
    return _stabilizer(t.columns(), t.n, signed=True)


def _row_group(t: Tableau) -> list[tuple[Permutation, int]]:
    return _stabilizer([tuple(row) for row in t.rows], t.n, signed=False)


def _stabilizer(blocks, n: int, signed: bool) -> list[tuple[Permutation, int]]:
    out = [(Permutation.identity(n), 1)]
    for block in blocks:
        extended = []
        for arrangement in permutations(block):
            images = list(range(1, n + 1))
            for src, dst in zip(block, arrangement):
                images[src - 1] = dst
            sigma = Permutation(images)
            sign = sigma.sign() if signed else 1
            extended.extend((sigma * tau, sign * s) for tau, s in out)
        out = extended
    return out


def tableau_monomial(t: Tableau, s: Tableau) -> Polynomial:
    """The monomial whose exponents are the index word of s on the word of t."""
    if t.shape != s.shape:
        raise ValueError("shapes differ")
    exps = [0] * t.n
    for variable, e in zip(word(t), index(s)):
        exps[variable - 1] = e
    return Polynomial.monomial(tuple(exps))


def higher_specht(t: Tableau, s: Tableau) -> Polynomial:
    """Young-symmetrizer image of the tableau monomial: the row stabilizer
    acts first, then the signed column stabilizer."""
    if t.shape != s.shape:
        raise ValueError("shapes differ")
    if not s.is_standard():
        raise ValueError("second tableau must be standard")
    base = tableau_monomial(t, s)
    rows = _row_group(t)
    row_sum = linear_combination([apply_permutation(tau, base) for tau, _ in rows],
                                 dict.fromkeys(range(len(rows)), 1))
    columns = _column_group(t)
    return linear_combination([apply_permutation(sigma, row_sum) for sigma, _ in columns],
                              {u: sign for u, (_, sign) in enumerate(columns)})


def coinvariant_isotypic_basis(lam: Partition) -> list[Polynomial]:
    """Higher Specht polynomials for all standard pairs of this shape."""
    tabs = standard_tableaux(lam)
    return [higher_specht(t, s) for s in tabs for t in tabs]


def distinct_specht_polynomials(lam: Partition) -> list[Polynomial]:
    """The distinct Specht polynomials of the shape up to scalar, made monic
    and sorted by text, in a new list on each call."""
    return list(_distinct_spechts(lam))


@lru_cache(maxsize=None)
def _distinct_spechts(lam: Partition) -> tuple[Polynomial, ...]:
    # the Specht polynomial of a filling is +- the product of its column
    # Vandermondes, so it depends only on the set of column sets; distinct
    # sets give non-associate products by unique factorisation
    n = lam.n
    tall = [h for h in transpose(lam).parts if h > 1]  # columns of height 1 give 1
    return tuple(sorted((_column_product(cols, n).monic()
                         for cols in _column_sets(tall, n)), key=str))


def _column_sets(heights: list[int], n: int):
    """Disjoint blocks of {1..n} with these non-increasing sizes, each set
    of blocks once: blocks of equal size come in order of least element."""

    def extend(k: int, free: tuple[int, ...], after: int):
        if k == len(heights):
            yield ()
            return
        size = heights[k]
        same = k + 1 < len(heights) and heights[k + 1] == size
        for pos, least in enumerate(free):
            if least <= after:
                continue
            for rest in combinations(free[pos + 1:], size - 1):
                block = (least,) + rest
                left = tuple(i for i in free if i not in block)
                for tail in extend(k + 1, left, least if same else 0):
                    yield (block,) + tail

    return extend(0, tuple(range(1, n + 1)), 0)


def specht_ideal(lam: Partition) -> Ideal:
    """Ideal generated by all Specht polynomials of the given shape."""
    return Ideal(lam.n, distinct_specht_polynomials(lam))


# ---------------------------------------------------------------------------
# explicit isotypic spanning sets in degrees one to three


def _distinct_index_family(n: int, k: int, builder) -> list[Polynomial]:
    """Normalized span of builder(i1..ik) over distinct indices."""
    seen: set[Polynomial] = set()
    for combo in permutations(range(1, n + 1), k):
        f = builder(*combo)
        if not f.is_zero():
            seen.add(f.monic())
    return sorted(seen, key=str)


def _x(i: int, n: int) -> Polynomial:
    return Polynomial.variable(i, n)


def _component_builders(n: int) -> dict[str, tuple[object, Partition]]:
    """Tag -> (generator list builder, irreducible type)."""
    p1 = power_sum(1, n)
    p2 = power_sum(2, n)
    p3 = power_sum(3, n)
    triv = Partition([n])
    std = Partition([n - 1, 1]) if n >= 2 else triv
    builders: dict[str, tuple[object, Partition]] = {
        "p1": (lambda: [p1], triv),
        "xi-xj": (lambda: _distinct_index_family(n, 2, lambda i, j: _x(i, n) - _x(j, n)), std),
        "p1^2": (lambda: [p1 * p1], triv),
        "p2": (lambda: [p2], triv),
        "p1(xi-xj)": (lambda: _distinct_index_family(n, 2, lambda i, j: p1 * (_x(i, n) - _x(j, n))), std),
        "xi^2-xj^2": (lambda: _distinct_index_family(n, 2, lambda i, j: _x(i, n) ** 2 - _x(j, n) ** 2), std),
        "p1^3": (lambda: [p1 ** 3], triv),
        "p1p2": (lambda: [p1 * p2], triv),
        "p3": (lambda: [p3], triv),
        "p1^2(xi-xj)": (lambda: _distinct_index_family(n, 2, lambda i, j: p1 * p1 * (_x(i, n) - _x(j, n))), std),
        "p2(xi-xj)": (lambda: _distinct_index_family(n, 2, lambda i, j: p2 * (_x(i, n) - _x(j, n))), std),
        "p1(xi^2-xj^2)": (lambda: _distinct_index_family(n, 2, lambda i, j: p1 * (_x(i, n) ** 2 - _x(j, n) ** 2)), std),
        "xi^3-xj^3": (lambda: _distinct_index_family(n, 2, lambda i, j: _x(i, n) ** 3 - _x(j, n) ** 3), std),
    }
    if n >= 4:
        pair = Partition([n - 2, 2])
        builders["(xi-xj)(xk-xl)"] = (
            lambda: _distinct_index_family(
                n, 4, lambda i, j, k, l: (_x(i, n) - _x(j, n)) * (_x(k, n) - _x(l, n))),
            pair)
        builders["p1(xi-xj)(xk-xl)"] = (
            lambda: _distinct_index_family(
                n, 4, lambda i, j, k, l: p1 * (_x(i, n) - _x(j, n)) * (_x(k, n) - _x(l, n))),
            pair)
        builders["(xi+xj+xk+xl)(xi-xj)(xk-xl)"] = (
            lambda: _distinct_index_family(
                n, 4,
                lambda i, j, k, l: (_x(i, n) + _x(j, n) + _x(k, n) + _x(l, n))
                * (_x(i, n) - _x(j, n)) * (_x(k, n) - _x(l, n))),
            pair)
    hook = Partition([n - 2, 1, 1]) if n >= 4 else Partition([1, 1, 1])
    builders["(xi-xj)(xi-xk)(xj-xk)"] = (
        lambda: _distinct_index_family(
            n, 3,
            lambda i, j, k: (_x(i, n) - _x(j, n)) * (_x(i, n) - _x(k, n)) * (_x(j, n) - _x(k, n))),
        hook)
    if n >= 6:
        builders["(xi-xj)(xk-xl)(xs-xt)"] = (
            lambda: _distinct_index_family(
                n, 6,
                lambda i, j, k, l, s, t: (_x(i, n) - _x(j, n)) * (_x(k, n) - _x(l, n))
                * (_x(s, n) - _x(t, n))),
            Partition([n - 3, 3]))
    return builders


def degree_component_tags(d: int, n: int) -> list[str]:
    """Valid summand tags for the degree-d decomposition at this n."""
    if n < 3:
        raise ValueError("decompositions are tabulated for n >= 3")
    if d == 1:
        return ["p1", "xi-xj"]
    if d == 2:
        tags = ["p1^2", "p2", "p1(xi-xj)", "xi^2-xj^2"]
        if n >= 4:
            tags.append("(xi-xj)(xk-xl)")
        return tags
    if d == 3:
        tags = ["p1^3", "p1p2", "p3", "p1^2(xi-xj)", "p2(xi-xj)", "p1(xi^2-xj^2)"]
        if n >= 4:
            tags.append("xi^3-xj^3")
            tags.append("p1(xi-xj)(xk-xl)")
        if n >= 5:
            tags.append("(xi+xj+xk+xl)(xi-xj)(xk-xl)")
        tags.append("(xi-xj)(xi-xk)(xj-xk)")
        if n >= 6:
            tags.append("(xi-xj)(xk-xl)(xs-xt)")
        return tags
    raise ValueError("decompositions are tabulated for degrees 1..3")


def lemma_component(d: int, n: int, tag: str) -> list[Polynomial]:
    """Spanning set of one named direct summand of the degree-d piece."""
    if tag not in degree_component_tags(d, n):
        raise ValueError(f"tag {tag!r} is not a summand for degree {d} at n={n}")
    builders = _component_builders(n)
    build, _ = builders[tag]
    return build()


def component_type(tag: str, n: int) -> Partition:
    """The irreducible type a tagged summand carries."""
    return _component_builders(n)[tag][1]
