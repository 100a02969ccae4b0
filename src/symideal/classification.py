"""Catalog of the homogeneous symmetric ideals of colength at most twice
the variable count, with their expected module decompositions, component
dimensions, and smooth/singular verdicts.

Rows are labelled 1, 2a, 2b, ..., 13.  Families over a projective
parameter [a:b] (rows 5, 7c, 11) are instantiated at their two
torus-fixed members plus caller-supplied rational samples.  Generators
written with distinct indices run over all index choices; the four-index
products only exist for n >= 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .combinat import IsotypicDecomposition, Partition
from .ideals import Ideal, maximal_power
from .poly import Polynomial, power_sum
from .specht import vandermonde

# ---------------------------------------------------------------------------
# generator families


def _x(i: int, n: int) -> Polynomial:
    return Polynomial.variable(i, n)


def differences(n: int) -> list[Polynomial]:
    return [_x(i, n) - _x(j, n) for i, j in combinations(range(1, n + 1), 2)]


def square_differences(n: int) -> list[Polynomial]:
    return [_x(i, n) ** 2 - _x(j, n) ** 2 for i, j in combinations(range(1, n + 1), 2)]


def p1_differences(n: int) -> list[Polynomial]:
    p1 = power_sum(1, n)
    return [p1 * d for d in differences(n)]


def pair_products(n: int) -> list[Polynomial]:
    """(x_i-x_j)(x_k-x_l) over distinct indices; empty for n < 4."""
    out = []
    for quad in combinations(range(1, n + 1), 4):
        i, j, k, l = quad
        # three pairings of the four chosen indices (up to sign)
        out.append((_x(i, n) - _x(j, n)) * (_x(k, n) - _x(l, n)))
        out.append((_x(i, n) - _x(k, n)) * (_x(j, n) - _x(l, n)))
        out.append((_x(i, n) - _x(l, n)) * (_x(j, n) - _x(k, n)))
    return out


def differences_times_linear(n: int) -> list[Polynomial]:
    """Degree >= 2 part of the ideal of differences."""
    return [_x(k, n) * d for d in differences(n) for k in range(1, n + 1)]


# ---------------------------------------------------------------------------
# the relation polynomials used by the membership checks


def relation_f(n: int) -> Polynomial:
    """Combination of x1^3-x2^3 with symmetric multiples of differences that
    vanishes on every point with at most two distinct coordinate values."""
    p1, p2 = power_sum(1, n), power_sum(2, n)
    x1, x2, xn = _x(1, n), _x(2, n), _x(n, n)
    return (n * (n - 1) * (x1 ** 3 - x2 ** 3)
            - (n * n - 3 * n + 3) * p2 * (x1 - x2)
            - (2 * n - 3) * p1 * (x1 ** 2 - x2 ** 2)
            + n * (n - 2) * xn * p1 * (x1 - x2))


def relation_g(n: int) -> Polynomial:
    p1, p2 = power_sum(1, n), power_sum(2, n)
    x1, x2, xn = _x(1, n), _x(2, n), _x(n, n)
    tail = Polynomial.zero(n)
    for i in range(2, n + 1):
        tail = tail + (x1 ** 2 - _x(i, n) ** 2)
    return ((n - 2) * p2 * (x1 - x2)
            - n * xn * p1 * (x1 - x2)
            + n * xn * (x1 ** 2 - x2 ** 2)
            - n * (n - 2) * (x1 - x2) * (x1 ** 2 - xn ** 2)
            + (n - 2) * (x1 - x2) * tail)


def relation_p(n: int) -> Polynomial:
    """x1x2(x1-x2)p1 - (x1^2-x2^2)p2 + (x1-x2)p3."""
    p1, p2, p3 = power_sum(1, n), power_sum(2, n), power_sum(3, n)
    x1, x2 = _x(1, n), _x(2, n)
    return x1 * x2 * (x1 - x2) * p1 - (x1 ** 2 - x2 ** 2) * p2 + (x1 - x2) * p3


def pair_product_ideal(n: int) -> Ideal:
    """Vanishing ideal of the points with at most two distinct values; for
    n = 3 the four-index products degenerate to the alternating cubic."""
    if n >= 4:
        return Ideal(n, pair_products(n))
    return Ideal(n, [vandermonde((1, 2, 3), n)])


def lemma_membership_ideal_a(n: int) -> Ideal:
    """(x_n p1(x1-x2), p1(x1^2-x2^2), p2(x1-x2)) plus the pair products."""
    p1, p2 = power_sum(1, n), power_sum(2, n)
    x1, x2, xn = _x(1, n), _x(2, n), _x(n, n)
    gens = [xn * p1 * (x1 - x2), p1 * (x1 ** 2 - x2 ** 2), p2 * (x1 - x2)]
    return Ideal(n, gens + pair_products(n))


def lemma_membership_ideal_b(n: int) -> Ideal:
    """(x_n p1(x1-x2), x_i^2-x_j^2, (x_i-x_j)(x_k-x_l))."""
    p1 = power_sum(1, n)
    x1, x2, xn = _x(1, n), _x(2, n), _x(n, n)
    return Ideal(n, [xn * p1 * (x1 - x2)] + square_differences(n) + pair_products(n))


# ---------------------------------------------------------------------------
# the rows


@dataclass
class RowCase:
    """One concrete classification entry at a fixed n (and parameter)."""

    label: str
    n: int
    colength: int
    ideal: Ideal
    expected: IsotypicDecomposition
    geometry: str  # "smooth" or "singular"
    component_dim: int
    param: tuple[Fraction, Fraction] | None = None


def _decomp(entries: dict[tuple[int, ...], int]) -> IsotypicDecomposition:
    return IsotypicDecomposition.from_dict({Partition(k): v for k, v in entries.items()})


def _std_module(n: int, trivials: int, standards: int) -> IsotypicDecomposition:
    return _decomp({(n,): trivials, (n - 1, 1): standards})


def classification_cases(n: int, parameter_samples: list[tuple[Fraction, Fraction]] | None = None
                         ) -> list[RowCase]:
    """All rows applicable at this n, parameter rows at the torus-fixed
    members plus the supplied samples."""
    if n < 3:
        raise ValueError("the classification starts at n = 3")
    samples = parameter_samples or []
    p1, p2 = power_sum(1, n), power_sum(2, n)
    cases: list[RowCase] = []

    for r in range(1, 2 * n + 1):
        ideal = Ideal(n, differences(n)) + maximal_power(n, r)
        cases.append(RowCase("1", n, r, ideal, _decomp({(n,): r}), "smooth", r))

    for r in range(n + 3, 2 * n + 1):
        d = r - n + 1
        ideal = Ideal(n, differences_times_linear(n)) + maximal_power(n, d)
        cases.append(RowCase("2a", n, r, ideal, _std_module(n, d, 1), "singular", r - n + 2))
        gens = p1_differences(n) + square_differences(n) + pair_products(n)
        ideal = Ideal(n, gens) + maximal_power(n, r - n)
        cases.append(RowCase("2b", n, r, ideal, _std_module(n, d, 1), "smooth", r - n + 2))

    cases.append(RowCase("3", n, n, Ideal(n, [p1]) + maximal_power(n, 2),
                         _std_module(n, 1, 1), "smooth", 2))

    cases.append(RowCase("4a", n, n + 1, maximal_power(n, 2),
                         _std_module(n, 2, 1), "singular", 3))
    gens = [p1] + square_differences(n) + pair_products(n)
    cases.append(RowCase("4b", n, n + 1, Ideal(n, gens) + maximal_power(n, 3),
                         _std_module(n, 2, 1), "smooth", 3))

    def row5(a: Fraction, b: Fraction) -> RowCase:
        gens = [a * p1 * p1 + b * p2] + p1_differences(n) + square_differences(n) + pair_products(n)
        geometry = "singular" if a * n + b == 0 else "smooth"
        return RowCase("5", n, n + 2, Ideal(n, gens) + maximal_power(n, 3),
                       _std_module(n, 3, 1), geometry, 4, param=(a, b))

    cases.append(row5(Fraction(1), Fraction(0)))
    cases.append(row5(Fraction(-1), Fraction(n)))
    cases.extend(row5(a, b) for a, b in samples)

    gens = [p1, p2] + pair_products(n)
    cases.append(RowCase("6", n, 2 * n - 1, Ideal(n, gens) + maximal_power(n, 3),
                         _std_module(n, 1, 2), "smooth", 1))

    gens = [p1] + pair_products(n)
    cases.append(RowCase("7a", n, 2 * n, Ideal(n, gens) + maximal_power(n, 3),
                         _std_module(n, 2, 2), "smooth", 4))
    if n >= 4:
        gens = [p1, p2] + pair_products(n)
        cases.append(RowCase("7b", n, 2 * n, Ideal(n, gens) + maximal_power(n, 4),
                             _std_module(n, 2, 2), "smooth", 4))

    def row7c(a: Fraction, b: Fraction) -> RowCase:
        mixed = [a * p1 * d + b * s for d, s in zip(differences(n), square_differences(n))]
        gens = [p1 * p1, p2] + mixed + pair_products(n)
        geometry = "singular" if b == 0 else "smooth"
        return RowCase("7c", n, 2 * n, Ideal(n, gens) + maximal_power(n, 3),
                       _std_module(n, 2, 2), geometry, 4, param=(a, b))

    cases.append(row7c(Fraction(1), Fraction(0)))
    cases.append(row7c(Fraction(-2), Fraction(n)))
    cases.extend(row7c(a, b) for a, b in samples)

    if n == 5:
        gens = [p1, p2] + square_differences(n)
        cases.append(RowCase("8", n, 10, Ideal(n, gens) + maximal_power(n, 3),
                             _decomp({(5,): 1, (4, 1): 1, (3, 2): 1}), "smooth", 2))
    if n == 4:
        gens = [p1, p2] + square_differences(n)
        cases.append(RowCase("9", n, 6, Ideal(n, gens) + maximal_power(n, 3),
                             _decomp({(4,): 1, (3, 1): 1, (2, 2): 1}), "smooth", 2))
        gens = [p1] + square_differences(n)
        cases.append(RowCase("10a", n, 7, Ideal(n, gens) + maximal_power(n, 3),
                             _decomp({(4,): 2, (3, 1): 1, (2, 2): 1}), "smooth", 3))
        gens = [p1 * p1, p2] + p1_differences(n) + square_differences(n)
        cases.append(RowCase("10b", n, 7, Ideal(n, gens) + maximal_power(n, 3),
                             _decomp({(4,): 2, (3, 1): 1, (2, 2): 1}), "smooth", 3))

        def row11(a: Fraction, b: Fraction) -> RowCase:
            gens = [a * p1 * p1 + b * p2] + p1_differences(n) + square_differences(n)
            return RowCase("11", n, 8, Ideal(n, gens) + maximal_power(n, 3),
                           _decomp({(4,): 3, (3, 1): 1, (2, 2): 1}), "smooth", 4, param=(a, b))

        cases.append(row11(Fraction(1), Fraction(0)))
        cases.append(row11(Fraction(-1), Fraction(n)))
        cases.extend(row11(a, b) for a, b in samples)

    if n == 3:
        p3 = power_sum(3, n)
        cases.append(RowCase("12", n, 6, Ideal(n, [p1, p2, p3]),
                             _decomp({(3,): 1, (2, 1): 2, (1, 1, 1): 1}), "smooth", 3))
        cases.append(RowCase("13", n, 6, Ideal(n, [p1, p2, vandermonde((1, 2, 3), n)]),
                             _decomp({(3,): 2, (2, 1): 2}), "smooth", 4))
    return cases


def row_case(label: str, n: int, r: int | None = None,
             param: tuple[Fraction, Fraction] | None = None) -> RowCase:
    """Fetch one concrete case by label (and colength / parameter)."""
    if param is not None and not any(param):
        raise ValueError("parameter [0:0] is not a point of the projective line")
    samples = [param] if param is not None else []
    for case in classification_cases(n, samples):
        if case.label != label:
            continue
        if r is not None and case.colength != r:
            continue
        if param is not None and case.param != param:
            continue
        # without a parameter, a parameter row yields its first torus-fixed member
        return case
    raise ValueError(f"no case for row {label} at n={n}, r={r}, param={param}")
