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


def _family(k: int, f):
    """The builder of the normalized span of f(p, x_i1, ..., x_ik) over
    distinct indices, where p[r] is the power sum of degree r."""

    def build(n: int) -> list[Polynomial]:
        p = {r: power_sum(r, n) for r in (1, 2, 3)}
        seen: set[Polynomial] = set()
        for combo in permutations(range(1, n + 1), k):
            g = f(p, *(_x(i, n) for i in combo))
            if not g.is_zero():
                seen.add(g.monic())
        return sorted(seen, key=str)

    return build


def _x(i: int, n: int) -> Polynomial:
    return Polynomial.variable(i, n)


# tag -> (degree, least n, type, builder) in tag order; the type is the
# parts of the irreducible after its first, which is n minus their sum
_COMPONENTS = {
    "p1": (1, 3, (), _family(0, lambda p: p[1])),
    "xi-xj": (1, 3, (1,), _family(2, lambda p, a, b: a - b)),
    "p1^2": (2, 3, (), _family(0, lambda p: p[1] * p[1])),
    "p2": (2, 3, (), _family(0, lambda p: p[2])),
    "p1(xi-xj)": (2, 3, (1,), _family(2, lambda p, a, b: p[1] * (a - b))),
    "xi^2-xj^2": (2, 3, (1,), _family(2, lambda p, a, b: a ** 2 - b ** 2)),
    "(xi-xj)(xk-xl)": (2, 4, (2,), _family(4, lambda p, a, b, c, d: (a - b) * (c - d))),
    "p1^3": (3, 3, (), _family(0, lambda p: p[1] ** 3)),
    "p1p2": (3, 3, (), _family(0, lambda p: p[1] * p[2])),
    "p3": (3, 3, (), _family(0, lambda p: p[3])),
    "p1^2(xi-xj)": (3, 3, (1,), _family(2, lambda p, a, b: p[1] * p[1] * (a - b))),
    "p2(xi-xj)": (3, 3, (1,), _family(2, lambda p, a, b: p[2] * (a - b))),
    "p1(xi^2-xj^2)": (3, 3, (1,), _family(2, lambda p, a, b: p[1] * (a ** 2 - b ** 2))),
    "xi^3-xj^3": (3, 4, (1,), _family(2, lambda p, a, b: a ** 3 - b ** 3)),
    "p1(xi-xj)(xk-xl)": (3, 4, (2,),
        _family(4, lambda p, a, b, c, d: p[1] * (a - b) * (c - d))),
    "(xi+xj+xk+xl)(xi-xj)(xk-xl)": (3, 5, (2,),
        _family(4, lambda p, a, b, c, d: (a + b + c + d) * (a - b) * (c - d))),
    "(xi-xj)(xi-xk)(xj-xk)": (3, 3, (1, 1),
        _family(3, lambda p, a, b, c: (a - b) * (a - c) * (b - c))),
    "(xi-xj)(xk-xl)(xs-xt)": (3, 6, (3,),
        _family(6, lambda p, a, b, c, d, e, f: (a - b) * (c - d) * (e - f))),
}


def degree_component_tags(d: int, n: int) -> list[str]:
    """Valid summand tags for the degree-d decomposition at this n."""
    if n < 3:
        raise ValueError("decompositions are tabulated for n >= 3")
    if d not in (1, 2, 3):
        raise ValueError("decompositions are tabulated for degrees 1..3")
    return [tag for tag, (degree, least, _, _) in _COMPONENTS.items()
            if degree == d and n >= least]


def lemma_component(d: int, n: int, tag: str) -> list[Polynomial]:
    """Spanning set of one named direct summand of the degree-d piece."""
    if tag not in degree_component_tags(d, n):
        raise ValueError(f"tag {tag!r} is not a summand for degree {d} at n={n}")
    return _COMPONENTS[tag][3](n)


def component_type(tag: str, n: int) -> Partition:
    """The irreducible type a tagged summand carries."""
    _, least, tail, _ = _COMPONENTS[tag]
    if n < least:
        raise ValueError(f"tag {tag!r} is not a summand at n={n}")
    return Partition([n - sum(tail), *tail])
