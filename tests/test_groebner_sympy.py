"""Differential check of the Groebner engine against sympy.

sympy is a second, independent Buchberger implementation; it is only a
test dependency (the tests are skipped when it is missing).  Its
``grevlex`` order with x1 > ... > xn is DEGREVLEX here, and both engines
return the reduced basis, which is unique once made monic, so the bases
must agree exactly.  Orbit ideals and intersections, which the library
finds by linear algebra, are rebuilt by sympy's own elimination, and
membership is decided a second way by sympy's lex bases.
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symideal.classification import row_case
from symideal.combinat import Partition
from symideal.ideals import Ideal, orbit_ideal, orbit_points
from symideal.poly import Polynomial
from symideal.tanisaki import tanisaki_ideal
from test_ideals import intersect, membership_cases
from test_poly import from_tuple_terms, tuple_terms

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex  # noqa: E402


def symbols(n):
    return sympy.symbols(f"x1:{n + 1}")


def to_sympy(f: Polynomial, xs):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[x ** e for x, e in zip(xs, m)])
                       for m, c in tuple_terms(f).items()])


def from_sympy(expr, xs) -> Polynomial:
    poly = sympy.Poly(expr, *xs, domain="QQ")
    return from_tuple_terms(len(xs), {m: Fraction(int(c.numerator), int(c.denominator))
                                      for m, c in poly.terms()})


def sympy_basis(gens, n) -> set[Polynomial]:
    """sympy's reduced grevlex basis, made monic."""
    xs = symbols(n)
    basis = sympy.groebner([to_sympy(g, xs) for g in gens], *xs, order="grevlex")
    return {from_sympy(g, xs).monic() for g in basis.exprs}


# block order: t above every x, grevlex inside each block
ELIMINATE_FIRST = ProductOrder((grevlex, lambda m: m[:1]), (grevlex, lambda m: m[1:]))


def sympy_intersection(left, right, n) -> list[Polynomial]:
    """I ∩ J by sympy's own elimination: (t*I + (1-t)*J) ∩ Q[x], then
    reduced in grevlex."""
    t = sympy.Symbol("t")
    xs = symbols(n)
    gens = ([t * to_sympy(g, xs) for g in left]
            + [(1 - t) * to_sympy(g, xs) for g in right])
    eliminated = sympy.groebner(gens, t, *xs, order=ELIMINATE_FIRST)
    free = [g for g in eliminated.exprs if t not in g.free_symbols]
    basis = sympy.groebner(free, *xs, order="grevlex")
    return [from_sympy(g, xs).monic() for g in basis.exprs]


def reynolds(f: Polynomial) -> Polynomial:
    """Average of f over all permutations of the variables."""
    n = f.ambient_n
    total = Polynomial.zero(n)
    images = list(permutations(range(n)))
    for perm in images:
        total = total + from_tuple_terms(n, {tuple(m[i] for i in perm): c
                                             for m, c in tuple_terms(f).items()})
    return total * Fraction(1, len(images))


def polynomials(n, max_degree):
    monomials = st.tuples(*[st.integers(0, max_degree)] * n).filter(
        lambda m: 0 < sum(m) <= max_degree)
    return st.dictionaries(monomials, st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=3).map(
        lambda terms: from_tuple_terms(n, {m: Fraction(c) for m, c in terms.items()}))


@st.composite
def symmetric_gens(draw, n):
    """Reynolds images of random generators, the first shifted by a constant."""
    gens = [reynolds(f) for f in draw(st.lists(polynomials(n, 3), min_size=1, max_size=3))]
    gens[0] = gens[0] + draw(st.integers(-2, 2))
    return [g for g in gens if not g.is_zero()]


def symmetric_ideals(count, sizes=(2, 3)):
    """n and ``count`` lists of generators of symmetric ideals in n variables."""
    return st.sampled_from(sizes).flatmap(
        lambda n: st.tuples(st.just(n), *[symmetric_gens(n)] * count))


@settings(max_examples=25, deadline=None)
@given(symmetric_ideals(1))
def test_symmetric_ideals_match_sympy(case):
    n, gens = case
    ours = Ideal(n, gens).groebner_basis()
    assert len(set(ours)) == len(ours)
    assert set(ours) == sympy_basis(gens, n)


@pytest.mark.parametrize("build", [lambda: row_case("2b", 4, 7).ideal,
                                   lambda: tanisaki_ideal(Partition([2, 1, 1]), "apolar")],
                         ids=["row 2b n=4 r=7", "apolar (2,1,1)"])
def test_capped_ideals_match_sympy(build):
    # "+ m^d" truncates our walk at degree d; sympy runs untruncated
    ideal = build()
    ours = ideal.groebner_basis()
    assert set(ours) == sympy_basis(ideal.generators, ideal.ambient_n)
    assert len(set(ours)) == len(ours)


@pytest.mark.parametrize("point", [(1, 2), (1, 1, -2), (0, 1, 3), (2, 2, -1, -1), (1, -1, 0, 0)])
def test_orbit_ideals_match_sympy(point):
    ideal = orbit_ideal(point)
    # sympy rebuilds the ideal from the maximal ideals of the orbit's
    # points, one intersection at a time, by its own elimination
    n = len(point)
    maximal = [[Polynomial.variable(i + 1, n) - v for i, v in enumerate(p)]
               for p in orbit_points(point)]
    expected = maximal[0]
    for gens in maximal[1:]:
        expected = sympy_intersection(expected, gens, n)
    assert set(ideal.groebner_basis()) == set(expected)


# sympy's elimination of random pairs at n = 3 can take seconds; the
# orbit ideals above cover intersections at n = 3 and 4
@settings(max_examples=15, deadline=None)
@given(symmetric_ideals(2, sizes=(2,)))
def test_intersection_matches_sympy(case):
    n, left_gens, right_gens = case
    # x_i^3 on each side makes both quotients finite, as intersect needs
    cubes = [Polynomial.variable(i, n) ** 3 for i in range(1, n + 1)]
    left_gens, right_gens = left_gens + cubes, right_gens + cubes
    ours = intersect(Ideal(n, left_gens), Ideal(n, right_gens)).groebner_basis()
    assert set(ours) == set(sympy_intersection(left_gens, right_gens, n))


@pytest.mark.parametrize("n", [2, 3])
def test_membership_matches_sympy_lex(n):
    # a lex basis is another Groebner basis of the same ideal: membership
    # decided by it agrees with the degrevlex normal form
    xs = symbols(n)
    for gens, probes in membership_cases(n):
        ideal = Ideal(n, gens)
        nonzero = [to_sympy(g, xs) for g in gens if not g.is_zero()]
        lex = sympy.groebner(nonzero, *xs, order="lex") if nonzero else None
        for probe in probes:
            expected = probe.is_zero() or bool(lex and lex.contains(to_sympy(probe, xs)))
            assert ideal.contains(probe) == expected
        assert ideal.contains(probes[-1])
