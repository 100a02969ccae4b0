"""Vandermonde, Specht, and higher Specht polynomial constructions."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from .combinat import (Partition, Permutation, Tableau, index,
                       standard_tableaux, transpose, word)
from .poly import Polynomial, apply_permutation, linear_combination


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
