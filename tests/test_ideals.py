import heapq
import random
import sys
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, gcd, inf
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symideal.classification import classification_cases
from symideal.cli import _random_parameters
from symideal.combinat import Partition, Permutation, partitions_of
from symideal.equivariant import (_minimal_generator_space, decompose_quotient, is_symmetric,
                                  tangent_dimension)
from symideal import ideals
from symideal.ideals import (Ideal, _buchberger, _degree_cap, _engine_terms, _fresh_pairs, _lead,
                             _masks, _normal_form, _normalize, _packed_lcm, _spoly, _support,
                             _to_engine, _vanishing_ideal, maximal_power, orbit_ideal,
                             orbit_points)
from symideal.poly import (DEGREVLEX, LIMIT, W, Polynomial, apply_permutation, parse_polynomial,
                           power_sum, swap_key)
from symideal.tanisaki import MODES, tanisaki_ideal
from test_poly import (degree_monomials, evaluate, from_tuple_terms, leading_monomial,
                       tuple_terms)


def x(i, n):
    return Polynomial.variable(i, n)


def standard_monomials(ideal: Ideal) -> list | None:
    """Monomials outside the leading-term staircase, ascending, as exponent
    tuples; None when infinite (the record's standard keys, unpacked)."""
    std = ideal._quotient().standard
    return None if std is None else [DEGREVLEX.unpack(k, ideal.ambient_n) for k in std]


def point_ideal(point):
    """The maximal ideal of a single rational point."""
    n = len(point)
    return Ideal(n, [x(i + 1, n) - Fraction(v) for i, v in enumerate(point)])


def packed_exponents(m):
    """The exponents of m in W-bit fields, the first in the low field."""
    return DEGREVLEX.exps(DEGREVLEX.key(m), len(m))


# normal forms as polynomials and intersections, which no CLI verb reaches
def normal_form(ideal, f):
    """The normal form of f modulo the ideal, as a polynomial."""
    return Polynomial(ideal.ambient_n, ideal.coordinates(f))


def intersect(left, right):
    """I ∩ J, the kernel of R -> R/I ⊕ R/J, by ``_vanishing_ideal``;
    ValueError unless both quotients are finite-dimensional."""
    if right.ambient_n != left.ambient_n:
        raise ValueError("ambient size mismatch")
    # both bases first, so that an input past the exponent bound says so
    if inf in (left.colength(), right.colength()):
        raise ValueError("intersect needs two ideals of finite colength")

    def value(m, parent, i):
        f = Polynomial.monomial(m)
        return {(side, k): c for side, ideal in enumerate((left, right))
                for k, c in ideal.coordinates(f).items()}

    return _vanishing_ideal(left.ambient_n, value)


def random_poly(rng, n, max_degree=2, terms=3):
    out = Polynomial.zero(n)
    for _ in range(terms):
        mono = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(n)] += 1
        out = out + Polynomial.monomial(tuple(mono), rng.randint(-4, 4))
    return out


class TestGroebner:
    def test_single_linear_generator(self):
        ideal = Ideal(2, [x(1, 2) - x(2, 2)])
        assert ideal.groebner_basis() == (x(1, 2) - x(2, 2),)

    def test_power_sums_colength(self):
        n = 3
        ideal = Ideal(n, [power_sum(k, n) for k in range(1, n + 1)])
        assert ideal.colength() == 6
        assert ideal.hilbert_function() == (1, 2, 2, 1)

    def test_reduced_basis_is_canonical(self):
        n = 3
        gens = [power_sum(2, n), power_sum(1, n) * x(2, n), x(1, n) ** 2 - x(3, n) ** 2]
        a = Ideal(n, gens).groebner_basis()
        b = Ideal(n, list(reversed(gens))).groebner_basis()
        assert a == b

    def test_buchberger_criterion_on_output(self):
        rng = random.Random(11)
        for _ in range(8):
            n = rng.choice([2, 3])
            gens = [random_poly(rng, n) for _ in range(3)]
            ideal = Ideal(n, [g for g in gens if not g.is_zero()])
            quotient = ideal._quotient()
            basis, leads = quotient.basis, quotient.leads
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = _spoly(basis[i], basis[j], n)
                    if s:
                        rem, _ = _normal_form(s, basis, leads, n, {})
                        assert not rem

    def test_membership_agrees_under_every_relabelling(self):
        # relabelling the variables of ideal and probe by sigma decides
        # membership in another degrevlex order of the original ring
        n = 3
        for gens, probes in membership_cases(n):
            ideal = Ideal(n, gens)
            for images in permutations(range(1, n + 1)):
                sigma = Permutation(images)
                relabelled = Ideal(n, [apply_permutation(sigma, g) for g in gens])
                for probe in probes:
                    assert (relabelled.contains(apply_permutation(sigma, probe))
                            == ideal.contains(probe))
            assert ideal.contains(probes[-1])


def membership_cases(n, count=10):
    """Random generator pairs in n variables, each with probes: random
    polynomials, then a combination of the generators, always a member."""
    rng = random.Random(5 + n)
    for _ in range(count):
        gens = [random_poly(rng, n) for _ in range(2)]
        member = gens[0] * random_poly(rng, n) + gens[1] * random_poly(rng, n)
        yield gens, [random_poly(rng, n) for _ in range(2)] + [member]


class TestNormalForm:
    def test_generators_reduce_to_zero(self):
        n = 3
        ideal = Ideal(n, [power_sum(k, n) for k in range(1, n + 1)])
        for g in ideal.generators:
            assert normal_form(ideal, g).is_zero()

    def test_idempotent(self):
        n = 3
        ideal = Ideal(n, [power_sum(1, n), power_sum(2, n)])
        f = x(1, n) ** 3 + 2 * x(2, n)
        once = normal_form(ideal, f)
        assert normal_form(ideal, once) == once

    def test_linear(self):
        n = 2
        ideal = Ideal(n, [x(1, n) ** 2 - x(2, n)])
        f, g = x(1, n) ** 2, x(2, n) ** 2
        lhs = normal_form(ideal, f + 3 * g)
        assert lhs == normal_form(ideal, f) + 3 * normal_form(ideal, g)

    def test_coordinates_are_the_normal_form_by_order_key(self):
        n = 3
        ideal = Ideal(n, [power_sum(k, n) for k in range(1, n + 1)])
        f = x(1, n) ** 2 * x(2, n) + 3 * x(3, n) ** 4 - x(2, n)
        nf = normal_form(ideal, f)
        coords = ideal.coordinates(f)
        assert coords == {DEGREVLEX.key(m): c for m, c in tuple_terms(nf).items()}
        # the int columns sort as the monomials do: the largest is the leading one
        assert max(coords) == DEGREVLEX.key(leading_monomial(nf))
        assert ideal.coordinates(power_sum(2, n) * x(1, n)) == {}

    def test_coordinates_are_ints_exactly_where_integral(self):
        n = 3
        ideal = orbit_ideal((Fraction(1, 2), 0, 3))
        kinds = set()
        for d in range(5):
            for m in degree_monomials(n, d):
                f = Polynomial.monomial(m)
                coords = ideal.coordinates(f)
                assert coords == {DEGREVLEX.key(k): c
                                  for k, c in tuple_terms(normal_form(ideal, f)).items()}
                for c in coords.values():
                    assert type(c) is (int if c.denominator == 1 else Fraction)
                    kinds.add(type(c))
        assert kinds == {int, Fraction}


def polynomials(n, max_degree, min_terms=0, max_terms=3):
    monomials = st.tuples(*[st.integers(0, max_degree)] * n).filter(
        lambda m: sum(m) <= max_degree)
    coefficients = st.integers(-4, 4).filter(bool)
    return st.dictionaries(monomials, coefficients, min_size=min_terms,
                           max_size=max_terms).map(
        lambda terms: from_tuple_terms(n, {m: Fraction(c) for m, c in terms.items()}))


@st.composite
def ideal_and_probes(draw):
    n = draw(st.sampled_from([2, 3]))
    gens = draw(st.lists(polynomials(n, 2), min_size=1, max_size=3))
    probes = draw(st.lists(polynomials(n, 4, 1, 4), min_size=1, max_size=12))
    return n, gens, probes


def rational_polynomials(n, max_degree, max_terms=4):
    monomials = st.tuples(*[st.integers(0, max_degree)] * n).filter(
        lambda m: sum(m) <= max_degree)
    coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.dictionaries(monomials, coefficients, max_size=max_terms).map(
        lambda terms: from_tuple_terms(n, terms))


@st.composite
def ideal_and_rational_probe(draw):
    """An ideal and a probe with Fraction coefficients: zero, a member of
    the ideal, or neither, with or without a member added."""
    n = draw(st.sampled_from([2, 3]))
    gens = draw(st.lists(polynomials(n, 2), min_size=1, max_size=3))
    f = draw(rational_polynomials(n, 4))
    if draw(st.booleans()):
        f = f + draw(rational_polynomials(n, 2)) * draw(st.sampled_from(gens))
    return Ideal(n, gens), f


def division_normal_form(ideal, f) -> dict:
    """{DEGREVLEX.key(m): c} of f divided by the monic reduced Groebner
    basis in Fraction arithmetic, the leading term of the rest first: the
    normal form, unique for a reduced basis, without the engine's packing."""
    basis = [(leading_monomial(g), g) for g in ideal.groebner_basis()]
    rest, out = tuple_terms(f), {}
    while rest:
        m = max(rest, key=DEGREVLEX.key)
        c = rest.pop(m)
        lead, g = next(((u, g) for u, g in basis if all(a <= b for a, b in zip(u, m))),
                       (None, None))
        if g is None:
            out[DEGREVLEX.key(m)] = c
            continue
        for t, e in tuple_terms(g).items():
            if t != lead:
                t = tuple(a + b - d for a, b, d in zip(t, m, lead))
                rest[t] = rest.get(t, 0) - c * e
                if not rest[t]:
                    del rest[t]
    return out


COINVARIANTS = Ideal(3, [power_sum(k, 3) for k in range(1, 4)])


class TestPackedCoordinates:
    """``Ideal.coordinates`` reads the packed normal form directly."""

    @settings(max_examples=60, deadline=None)
    @given(ideal_and_rational_probe())
    @example((COINVARIANTS, Polynomial.zero(3)))
    @example((COINVARIANTS, power_sum(2, 3) * Fraction(2, 3) * x(1, 3)))
    def test_coordinates_are_the_keyed_normal_form(self, case):
        ideal, f = case
        coords = ideal.coordinates(f)
        assert coords == {DEGREVLEX.key(m): c
                          for m, c in tuple_terms(normal_form(ideal, f)).items()}
        assert coords == division_normal_form(ideal, f)
        for c in coords.values():
            assert c and type(c) is (int if c.denominator == 1 else Fraction)
        if ideal is COINVARIANTS:  # the zero polynomial and a member of the ideal
            assert coords == {}

    def test_ambient_size_mismatch_raises(self):
        with pytest.raises(ValueError, match="ambient size mismatch"):
            COINVARIANTS.coordinates(x(1, 2))


class TestDivisorMemo:
    """The per-ideal divisor memo never changes a normal form."""

    @staticmethod
    def assert_warm_matches_fresh(warm, fresh_copy, probes):
        for f in probes:
            normal_form(warm, f)
        assert warm._quotient().divisors
        for f in probes:
            assert normal_form(warm, f) == normal_form(fresh_copy(), f)

    @settings(max_examples=30, deadline=None)
    @given(ideal_and_probes())
    def test_warm_ideal_matches_fresh_copy(self, case):
        n, gens, probes = case
        self.assert_warm_matches_fresh(Ideal(n, gens), lambda: Ideal(n, gens), probes)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=2, max_size=4, unique=True),
           st.lists(polynomials(2, 4, 1, 4), min_size=1, max_size=12))
    def test_intersection_matches_fresh_copy(self, points, probes):
        half = len(points) // 2
        left = point_ideal(points[0])
        for p in points[1:half]:
            left = intersect(left, point_ideal(p))
        right = point_ideal(points[half])
        for p in points[half + 1:]:
            right = intersect(right, point_ideal(p))
        meet = intersect(left, right)  # basis installed by _seed_basis
        self.assert_warm_matches_fresh(meet, lambda: Ideal(2, meet.generators), probes)

    def test_seed_basis_drops_the_memo(self):
        n = 2
        ideal = Ideal(n, [x(1, n), x(2, n)])
        assert normal_form(ideal, x(1, n)).is_zero()
        assert standard_monomials(ideal) == [(0, 0)]
        stale = ideal._quotient()
        assert stale.divisors
        other = Ideal(n, [x(1, n) - x(2, n), x(2, n) ** 2])
        ideal._seed_basis(other._quotient().basis)
        fresh = ideal._quotient()
        assert fresh is not stale and not fresh.divisors
        # a stale memo would still reduce x1 by the old basis element x1,
        # and stale standard monomials would still be [1]
        assert normal_form(ideal, x(1, n)) == x(2, n)
        assert standard_monomials(ideal) == [(0, 0), (0, 1)]

        # so do the S_n action, the symmetry verdict and the decomposition:
        # (x1 + x2, x1*x2) is symmetric of colength 2, (x1, x2^3) is not
        ideal = Ideal(n, [x(1, n) + x(2, n), x(1, n) * x(2, n)])
        assert is_symmetric(ideal)
        assert decompose_quotient(ideal).as_dict() == {Partition([2]): 1, Partition([1, 1]): 1}
        ideal._seed_basis(Ideal(n, [x(1, n), x(2, n) ** 3])._quotient().basis)
        assert ideal.colength() == 3 and not is_symmetric(ideal)
        assert list(ideal._quotient().swaps[0]) == ideal._quotient().standard
        with pytest.raises(ValueError, match="not stable"):
            decompose_quotient(ideal)
        # the ideal holds nothing else that a new basis could leave stale:
        # the orbit labels describe the generators, which it leaves alone
        assert set(vars(ideal)) == {"ambient_n", "generators", "orbits", "_record"}


class TestColength:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_square_of_maximal(self, n):
        assert maximal_power(n, 2).colength() == n + 1

    @pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (3, 3), (4, 2)])
    def test_stars_and_bars(self, n, d):
        assert maximal_power(n, d).colength() == comb(n + d - 1, n)

    def test_positive_dimensional_reports_infinite(self):
        assert Ideal(2, [x(1, 2)]).colength() is inf
        assert Ideal(2, []).colength() is inf

    def test_whole_ring(self):
        assert Ideal(2, [Polynomial.one(2)]).colength() == 0

    @pytest.mark.parametrize("gens", [
        lambda n: [x(1, n) ** 2, x(2, n) ** 3, x(3, n) ** 4, x(1, n) * x(2, n) * x(3, n)],
        lambda n: [x(1, n) * x(2, n) - x(3, n), x(1, n) ** 3, x(2, n) ** 2 - x(1, n) * x(3, n),
                   x(3, n) ** 3 + x(2, n) * x(3, n)],
    ], ids=["monomial", "mixed"])
    def test_relabelling_variables_keeps_the_colength(self, gens):
        # each relabelling has its own degrevlex staircase, all of one size
        n = 3
        colength = Ideal(n, gens(n)).colength()
        assert colength is not inf
        staircases = set()
        for images in permutations(range(1, n + 1)):
            sigma = Permutation(images)
            relabelled = Ideal(n, [apply_permutation(sigma, g) for g in gens(n)])
            assert relabelled.colength() == colength
            staircases.add(tuple(standard_monomials(relabelled)))
        assert len(staircases) == factorial(n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_power_sum_fiber_has_factorial_colength(self, n):
        point = tuple(range(1, n + 1))
        gens = [power_sum(j, n) - Fraction(evaluate(power_sum(j, n), point))
                for j in range(1, n + 1)]
        assert Ideal(n, gens).colength() == factorial(n)


def standard_monomials_oracle(ideal):
    """The walk that the growth from 1 replaced: every monomial of the box
    below the pure-power caps, kept when no leading monomial divides it."""
    q = ideal._quotient()
    n = q.n
    lms = [DEGREVLEX.unpack(g[0][0], n) for g in q.basis]
    if any(sum(m) == 0 for m in lms):
        return []
    caps = []
    for i in range(n):
        pure = [m[i] for m in lms if sum(m) == m[i]]
        if not pure:
            return None
        caps.append(min(pure))
    guard = _masks(n)[0]
    found = []
    for m in product(*(range(c) for c in caps)):
        x = packed_exponents(m) | guard
        if not any((x - a) & guard == guard for a in q.leads):
            found.append(m)
    found.sort(key=DEGREVLEX.key)
    return found


def square(ideal):
    """I^2 from the reduced basis, as the tangent computation builds it."""
    gb = ideal.groebner_basis()
    return Ideal(ideal.ambient_n, [a * b for i, a in enumerate(gb) for b in gb[i:]])


def assert_grown_as_walked(ideal):
    grown = standard_monomials(ideal)
    assert grown is not None and grown == standard_monomials_oracle(ideal)


class TestStandardMonomialsOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tanisaki_ideals_and_squares(self, n):
        for lam in partitions_of(n):
            ideal = tanisaki_ideal(lam)
            assert_grown_as_walked(ideal)
            assert_grown_as_walked(square(ideal))

    @pytest.mark.parametrize("parts", [(5, 1), (4, 2), (3, 3), (4, 1, 1)])
    def test_tangent_shapes_of_six_and_squares(self, parts):
        ideal = tanisaki_ideal(Partition(list(parts)))
        assert_grown_as_walked(ideal)
        assert_grown_as_walked(square(ideal))

    @pytest.mark.parametrize("n", [3, 4])
    def test_catalog_rows_and_squares(self, n):
        for case in classification_cases(n):
            assert_grown_as_walked(case.ideal)
            assert_grown_as_walked(square(case.ideal))

    @pytest.mark.parametrize("point", [(0, 1, 2), (1, 1, -2), (Fraction(1, 2), 3, 3),
                                       (3, -1, -1, -1), (Fraction(1, 2), -3, 7, 0),
                                       (1, 1, 2, 2)])
    def test_orbit_ideals(self, point):
        assert_grown_as_walked(orbit_ideal(point))

    def test_unit_ideal_has_no_standard_monomials(self):
        ideal = Ideal(2, [x(1, 2) + Polynomial.one(2), x(1, 2)])
        assert standard_monomials(ideal) == standard_monomials_oracle(ideal) == []

    def test_no_pure_power_of_a_variable_is_infinite(self):
        n = 3  # nothing leads with a power of x2
        ideal = Ideal(n, [x(1, n) ** 2, x(2, n) * x(3, n), x(3, n) ** 4])
        assert standard_monomials(ideal) is standard_monomials_oracle(ideal) is None


class TestHilbertFunction:
    def test_maximal_square(self):
        assert maximal_power(3, 2).hilbert_function() == (1, 3)

    def test_point_module_of_partition_with_one_part_dropped(self):
        n = 4
        ideal = Ideal(n, [power_sum(1, n)]) + maximal_power(n, 2)
        assert ideal.hilbert_function() == (1, n - 1)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            Ideal(2, [x(1, 2) - Polynomial.one(2)]).hilbert_function()

    def test_homogeneity_is_a_property_of_the_ideal(self):
        # (x1+x2+x1^2, x1+x2, x1*x2) == (x1+x2, x1^2, x1*x2)
        n = 2
        inhomogeneous_gens = Ideal(n, [x(1, n) + x(2, n) + x(1, n) ** 2, x(1, n) + x(2, n),
                                       x(1, n) * x(2, n)])
        homogeneous_gens = Ideal(n, [x(1, n) + x(2, n), x(1, n) ** 2, x(1, n) * x(2, n)])
        assert inhomogeneous_gens == homogeneous_gens
        assert inhomogeneous_gens.is_homogeneous() and homogeneous_gens.is_homogeneous()
        assert inhomogeneous_gens.hilbert_function() == homogeneous_gens.hilbert_function() == (1, 1)
        assert not Ideal(n, [x(1, n) + x(2, n) ** 2, x(2, n) ** 3]).is_homogeneous()

    def test_classification_row_shapes(self):
        # (p1, squares, pair products) + m^3 has shape (1, 3, 1) at n=4
        from symideal.classification import pair_products, square_differences

        n = 4
        gens = [power_sum(1, n)] + square_differences(n) + pair_products(n)
        ideal = Ideal(n, gens) + maximal_power(n, 3)
        assert ideal.hilbert_function() == (1, 3, 1)
        gens = [power_sum(1, n), power_sum(2, n)] + pair_products(n)
        ideal = Ideal(n, gens) + maximal_power(n, 3)
        assert ideal.hilbert_function() == (1, 3, 3)


class TestIntersect:
    def test_self_intersection(self):
        n = 2
        ideal = Ideal(n, [x(1, n) ** 2, x(2, n)])
        assert intersect(ideal, ideal) == ideal

    def test_three_points(self):
        pts = [point_ideal((0, 0)), point_ideal((1, 2)), point_ideal((3, 5))]
        total = intersect(intersect(pts[0], pts[1]), pts[2])
        assert total.colength() == 3

    def test_colength_additivity_on_random_points(self):
        rng = random.Random(23)
        for _ in range(6):
            n = rng.choice([2, 3])
            pts = set()
            while len(pts) < 4:
                pts.add(tuple(rng.randint(-4, 4) for _ in range(n)))
            pts = sorted(pts)
            left = intersect(point_ideal(pts[0]), point_ideal(pts[1]))
            right = intersect(point_ideal(pts[2]), point_ideal(pts[3]))
            assert left.colength() == 2 and right.colength() == 2
            assert intersect(left, right).colength() == 4

    @pytest.mark.parametrize("positive", [[x(1, 2)], [], [x(1, 2) ** 2 - x(2, 2)]])
    def test_a_positive_dimensional_side_is_rejected(self, positive):
        finite = point_ideal((1, 2))
        for left, right in ((Ideal(2, positive), finite), (finite, Ideal(2, positive))):
            with pytest.raises(ValueError, match="finite colength"):
                intersect(left, right)

    def test_unit_ideal_is_neutral(self):
        unit = Ideal(2, [Polynomial.one(2)])
        ideal = intersect(point_ideal((1, 2)), point_ideal((0, 3)))
        assert intersect(unit, ideal) == intersect(ideal, unit) == ideal
        assert intersect(unit, unit).groebner_basis() == (Polynomial.one(2),)


class TestOrbitIdeal:
    def test_diagonal_point(self):
        n = 3
        ideal = orbit_ideal((2, 2, 2))
        expected = Ideal(n, [x(i, n) - 2 for i in range(1, n + 1)])
        assert ideal == expected

    def test_two_value_orbit_size(self):
        ideal = orbit_ideal((5, 1, 1))
        assert ideal.colength() == 3

    @pytest.mark.parametrize("point", [(1, 1, -2), (3, -1, -1, -1), (1, 2, -3, 0)])
    def test_colength_is_orbit_size(self, point):
        assert orbit_ideal(point).colength() == len(orbit_points(point))

    def test_power_sum_translates_contained(self):
        rng = random.Random(3)
        for n in (2, 3, 4):
            point = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
            ideal = orbit_ideal(point)
            for j in range(1, n + 1):
                shifted = power_sum(j, n) - Fraction(evaluate(power_sum(j, n), point))
                assert ideal.contains(shifted)

    @pytest.mark.parametrize("point", [(1, 2, 3), (Fraction(1, 2), 0, 3), (2, 2, -1, -1),
                                       (0, 0, 1, 1, 2)])
    def test_basis_vanishes_at_every_orbit_point(self, point):
        for g in orbit_ideal(point).groebner_basis():
            for p in orbit_points(point):
                assert evaluate(g, p) == 0

    @pytest.mark.parametrize("point", [(1, 2, 3), (Fraction(1, 2), 0, 3), (3, -1, -1, -1),
                                       (1, 1, 2, 2), (1, 2, 3, 4)])
    def test_generators_give_the_same_ideal_by_buchberger(self, point):
        ideal = orbit_ideal(point)
        fresh = Ideal(len(point), ideal.generators)
        assert fresh._record is None
        assert fresh == ideal
        assert fresh._quotient().basis == ideal._quotient().basis

    def test_output_is_symmetric(self):
        ideal = orbit_ideal((4, 1, 1))
        n = 3
        for sigma in (Permutation.transposition(1, 2, n), Permutation.cycle(n)):
            for g in ideal.groebner_basis():
                assert ideal.contains(apply_permutation(sigma, g))


class TestAssociatedGraded:
    def test_homogeneous_fixed_point(self):
        ideal = maximal_power(3, 2)
        assert ideal.associated_graded() == ideal

    def test_rejects_infinite_colength(self):
        with pytest.raises(ValueError):
            Ideal(2, [x(1, 2)]).associated_graded()

    def test_colength_preserved_and_idempotent(self):
        rng = random.Random(17)
        for _ in range(5):
            n = rng.choice([2, 3])
            vals = rng.sample(range(-5, 6), 2)
            point = tuple([vals[0]] + [vals[1]] * (n - 1))
            ideal = orbit_ideal(point)
            graded = ideal.associated_graded()
            assert graded.colength() == ideal.colength()
            assert graded.associated_graded() == graded

    def test_two_value_orbit_gives_partition_ideal(self):
        from symideal.tanisaki import tanisaki_ideal

        ideal = orbit_ideal((2, -1, -1))  # coordinate sum zero
        assert ideal.associated_graded() == tanisaki_ideal(Partition([2, 1]))


def sum_zero_point(lam: Partition) -> tuple:
    """A point of orbit type lam with coordinate sum zero: value i - mean
    taken lam_i times."""
    values = [i for i, part in enumerate(lam.parts) for _ in range(part)]
    mean = Fraction(sum(values), len(values))
    return tuple(v - mean for v in values)


class TestEquality:
    """``==`` compares the engine's primitive reduced bases; it must agree
    with comparing the monic bases of ``groebner_basis``."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_agrees_with_the_monic_bases(self, n):
        samples = [(Fraction(1, 2), Fraction(-3)), (Fraction(2), Fraction(1, 3))]
        ideals = [case.ideal for case in classification_cases(n, samples)]
        for lam in partitions_of(n):
            ideals += [tanisaki_ideal(lam, mode) for mode in MODES]
            orbit = orbit_ideal(sum_zero_point(lam))
            ideals += [orbit, orbit.associated_graded()]
        monic = [ideal.groebner_basis() for ideal in ideals]
        equal = 0
        for a, basis_a in zip(ideals, monic):
            for b, basis_b in zip(ideals, monic):
                assert (a == b) == (basis_a == basis_b)
                equal += a is not b and basis_a == basis_b
        assert equal > 0
        # the routes that must meet: the three Tanisaki modes, and gr of a
        # sum-zero orbit of type lam with the Tanisaki ideal of lam
        for lam in partitions_of(n):
            reference = tanisaki_ideal(lam)
            assert all(tanisaki_ideal(lam, mode) == reference for mode in MODES)
            assert orbit_ideal(sum_zero_point(lam)).associated_graded() == reference


class TestMaximalPower:
    def test_generators_listed(self):
        ideal = maximal_power(2, 1)
        assert set(ideal.generators) == {x(1, 2), x(2, 2)}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cube_inside_squarefree_relations(self, n):
        from symideal.classification import pair_products, square_differences

        gens = [power_sum(1, n)] + square_differences(n) + pair_products(n)
        ideal = Ideal(n, gens)
        for g in maximal_power(n, 3).generators:
            assert ideal.contains(g)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_generators_are_the_degree_monomials_in_order(self, n):
        for d in range(1, 6):
            assert list(maximal_power(n, d).generators) == [
                Polynomial.monomial(m) for m in degree_monomials(n, d)], d

    def test_degree_is_checked_before_any_monomial_is_built(self):
        # m^(2^30) would hold 2^30 + 1 monomials
        with mock.patch.object(ideals, "combinations_with_replacement",
                               side_effect=AssertionError("monomials enumerated")):
            with pytest.raises(ValueError, match="too large"):
                maximal_power(2, LIMIT)
            for d in (0, -1):
                with pytest.raises(ValueError, match="at least 1"):
                    maximal_power(3, d)


class TestLemmaMemberships:
    @pytest.mark.parametrize("n", [4, 5])
    def test_cube_difference_membership(self, n):
        from symideal.classification import (lemma_membership_ideal_a,
                                             lemma_membership_ideal_b)

        cube = x(1, n) ** 3 - x(2, n) ** 3
        p2_diff = power_sum(2, n) * (x(1, n) - x(2, n))
        assert lemma_membership_ideal_a(n).contains(cube)
        ideal_b = lemma_membership_ideal_b(n)
        assert ideal_b.contains(p2_diff)
        assert ideal_b.contains(cube)


# -- packed monomial keys ------------------------------------------------------


def tuple_key(m):
    """The tuple key degrevlex used before keys were packed into ints."""
    return (sum(m), tuple(-e for e in reversed(m)))


def exponents(bound):
    """Exponents below ``bound``: mostly small, sometimes near the bound."""
    return st.one_of(st.integers(0, 3), st.integers(bound - 4, bound - 1),
                     st.integers(0, bound - 1))


@st.composite
def monomials(draw, bound, count):
    n = draw(st.integers(1, 5))
    monos = draw(st.lists(st.tuples(*[exponents(bound)] * n), min_size=count,
                          max_size=count + 4))
    return n, monos


class TestPackedKeys:
    @settings(max_examples=200, deadline=None)
    @given(monomials(LIMIT, 2))
    def test_key_is_additive(self, case):
        _, (a, b, *_) = case
        product = tuple(x + y for x, y in zip(a, b))
        assert DEGREVLEX.key(product) == DEGREVLEX.key(a) + DEGREVLEX.key(b)

    @settings(max_examples=200, deadline=None)
    @given(monomials(1 << (W - 1), 2))
    def test_key_sorts_as_the_tuple_key(self, case):
        _, monos = case
        assert sorted(monos, key=DEGREVLEX.key) == sorted(monos, key=tuple_key)
        a, b = monos[0], monos[1]
        assert (DEGREVLEX.key(a) < DEGREVLEX.key(b)) == (tuple_key(a) < tuple_key(b))
        assert (DEGREVLEX.key(a) == DEGREVLEX.key(b)) == (a == b)

    @settings(max_examples=200, deadline=None)
    @given(monomials(1 << (W - 1), 1))
    def test_unpack_inverts_key(self, case):
        n, monos = case
        for m in monos:
            assert DEGREVLEX.unpack(DEGREVLEX.key(m), n) == m

    @settings(max_examples=200, deadline=None)
    @given(monomials(LIMIT, 2))
    def test_guard_bit_divisibility(self, case):
        n, (a, b, *_) = case
        x = tuple(p + q for p, q in zip(a, b))  # a divides x
        guard = _masks(n)[0]
        for lead, m in ((a, x), (b, x), (x, a)):
            packed_lead = DEGREVLEX.exps(DEGREVLEX.key(lead), n)
            packed_m = DEGREVLEX.exps(DEGREVLEX.key(m), n)
            divides = all(p <= q for p, q in zip(lead, m))
            assert (((packed_m | guard) - packed_lead) & guard == guard) == divides

    @settings(max_examples=300, deadline=None)
    @given(monomials(LIMIT, 2), st.data())
    def test_packed_lcm_support_and_divisibility_match_the_tuples(self, case, data):
        n, (a, b, *_) = case
        # zero out some fields so that coprime pairs and equal fields occur
        zero = data.draw(st.lists(st.sampled_from(["a", "b", "none"]), min_size=n,
                                  max_size=n))
        a = tuple(0 if z == "a" else e for e, z in zip(a, zero))
        b = tuple(0 if z == "b" else e for e, z in zip(b, zero))
        guard = _masks(n)[0]
        pa, pb = DEGREVLEX.exps(DEGREVLEX.key(a), n), DEGREVLEX.exps(DEGREVLEX.key(b), n)
        assert DEGREVLEX.monomial(_packed_lcm(pa, pb, guard), n) == tuple(map(max, a, b))
        coprime = all(p == 0 or q == 0 for p, q in zip(a, b))
        assert (not _support(pa, n) & _support(pb, n)) == coprime
        for p, q, u, v in ((pa, pb, a, b), (pb, pa, b, a)):
            divides = all(s <= t for s, t in zip(u, v))
            assert (((q | guard) - p) & guard == guard) == divides


class TestExponentBound:
    """Each bound check on its own; without it every case here would
    finish quickly with a wrong answer instead of raising."""

    def test_input_at_the_bound_is_rejected(self):
        # where an exponent enters a Polynomial, so that no ideal, normal
        # form or intersection meets one
        n = 2
        with pytest.raises(ValueError, match="exponent 1073741824 is too large"):
            Polynomial.monomial((LIMIT, 0))
        for text in (f"x1^{LIMIT} + x2", f"x1^{LIMIT // 2}*x1^{LIMIT // 2}*x2"):
            with pytest.raises(ValueError, match="exponent 1073741824 is too large"):
                parse_polynomial(text, n)
        with pytest.raises(ValueError, match="too large"):
            power_sum(LIMIT, n)
        below = Polynomial.monomial((LIMIT - 1, 0))
        assert str(below) == f"x1^{LIMIT - 1}" and parse_polynomial(str(below), n) == below
        assert power_sum(LIMIT - 1, n) == below + Polynomial.monomial((0, LIMIT - 1))

    def test_input_built_from_its_key_is_rejected_by_the_engine(self):
        # Polynomial(n, terms) takes any key, so the engine checks each
        # polynomial it takes as well
        n = 2
        at_bound = Polynomial(n, {DEGREVLEX.key((LIMIT, 0)): 1})
        with pytest.raises(ValueError, match="exponent 1073741824 is too large"):
            normal_form(Ideal(n, [x(1, n)]), at_bound + x(2, n))
        with pytest.raises(ValueError, match="exponent 1073741824 is too large"):
            Ideal(n, [at_bound, x(1, n)]).groebner_basis()
        # the other side's infinite colength would raise too, but later
        with pytest.raises(ValueError, match="too large"):
            intersect(Ideal(n, [x(2, n)]), Ideal(n, [at_bound, x(1, n)]))

    def test_product_reaching_the_bound_raises(self):
        # a product is checked by degree, which bounds every exponent
        n = 2
        half = Polynomial.monomial((LIMIT // 2, 0))
        for f, g in ((Polynomial.monomial((LIMIT - 1, 0)), x(2, n)),
                     (half, half), (half, Polynomial.monomial((0, LIMIT // 2)))):
            with pytest.raises(ValueError, match=f"degree {LIMIT} is too large"):
                f * g
        with pytest.raises(ValueError, match="too large"):
            half ** 2
        below = Polynomial.monomial((LIMIT // 2 - 1, 0))
        assert half * below == Polynomial.monomial((LIMIT - 1, 0))

    def test_degree_at_the_bound_enters_the_engine_but_no_product(self):
        # every exponent of f stays below the bound, so the parser and the
        # engine take it; its degree does not, so a product with it raises,
        # by 1 too
        n = 2
        f = parse_polynomial(f"x1^{LIMIT // 2}*x2^{LIMIT // 2}", n)
        assert f.degree() == LIMIT
        assert normal_form(Ideal(n, [x(2, n)]), f + x(1, n)) == x(1, n)
        for g in (Polynomial.one(n), x(1, n)):
            with pytest.raises(ValueError, match=f"degree {LIMIT + g.degree()} is too large"):
                f * g
        with pytest.raises(ValueError, match="too large"):
            f ** 1

    def test_below_the_bound_is_exact(self):
        n = 2
        big = LIMIT - 1
        ideal = Ideal(n, [x(2, n)])
        probe = Polynomial.monomial((big, 0)) + Polynomial.monomial((big - 1, 1), 3)
        assert normal_form(ideal, probe) == Polynomial.monomial((big, 0))
        # x1^2 -> x1*x2 moves exponent from x1 to x2: the remainder may pass
        # the bound, since it never enters a reduction again
        shuffle = Ideal(n, [x(1, n) ** 2 - x(1, n) * x(2, n)])
        assert (normal_form(shuffle, Polynomial.monomial((2, big)))
                == Polynomial(n, {DEGREVLEX.key((1, LIMIT)): 1}))  # past Polynomial.monomial

    def test_multiplier_past_the_bound_raises(self):
        # a work term x1*x2^LIMIT, as a reduction step can create one, meets
        # the reducer x1: the multiplier x2^LIMIT is past the bound
        n = 2
        ideal = Ideal(n, [x(1, n)])
        quotient = ideal._quotient()
        work = [(DEGREVLEX.key((1, LIMIT)), 1)]
        with pytest.raises(ArithmeticError):
            _normal_form(work, quotient.basis, quotient.leads, n, {})

    def test_spoly_multiplier_past_the_bound_raises(self):
        n = 2
        f = [(DEGREVLEX.key((LIMIT, 0)), 1)]
        g = [(DEGREVLEX.key((0, 1)), 1)]
        with pytest.raises(ArithmeticError):
            _spoly(f, g, n)

    def test_basis_element_past_the_bound_raises(self):
        n = 2
        gens = [x(1, n) ** 2 - x(2, n), Polynomial.monomial((2, LIMIT - 1))]
        # the second generator reduces to x2^LIMIT, a basis element whose
        # leading monomial is coprime to x1^2, so no S-pair is formed
        with pytest.raises(ArithmeticError):
            Ideal(n, gens).groebner_basis()


# -- oracles: the engine loops before the heap reduction -----------------------
#
# The merge-based reduction and the tuple-based Gebauer-Moeller bookkeeping,
# kept as they were so that the rewritten loops can be compared with them.


def merge_oracle(a, i, ca, b, ku, cb):
    """ca*a[i:] + cb*u*b[1:] as one descending term list, for key(u) == ku."""
    if ca != 1:
        a, i = [(k, c * ca) for k, c in a[i:]], 0
    out = []
    j = 1
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ka, kb = a[i][0], b[j][0] + ku
        if ka > kb:
            out.append(a[i])
            i += 1
        elif kb > ka:
            out.append((kb, b[j][1] * cb))
            j += 1
        else:
            c = a[i][1] + b[j][1] * cb
            if c:
                out.append((ka, c))
            i += 1
            j += 1
    out += a[i:]
    out += [(k + ku, c * cb) for k, c in b[j:]]
    return out


def tuple_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def tuple_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def reducer_oracle(k, basis, leads, n):
    guard, quarter = _masks(n)[:2]
    x = DEGREVLEX.exps(k, n)
    for g, a in zip(basis, leads):
        if ((x | guard) - a) & guard == guard:
            if (x - a) & quarter:
                raise ArithmeticError("a reduction multiplier reached the bound")
            return g
    return None


def normal_form_oracle(terms, basis, leads, n):
    divisors = {}
    mult = 1
    rem = []
    work = terms
    i = 0
    while i < len(work):
        k, lc = work[i]
        if k not in divisors:
            divisors[k] = reducer_oracle(k, basis, leads, n)
        g = divisors[k]
        if g is None:
            rem.append(work[i])
            i += 1
            continue
        glc = g[0][1]
        d = gcd(glc, lc)
        ca, cb = glc // d, lc // d
        if ca != 1:
            rem = [(t, c * ca) for t, c in rem]
            mult *= ca
        work = merge_oracle(work, i + 1, ca, g, k - g[0][0], -cb)
        i = 0
        if mult.bit_length() > 1024:
            g_all = mult
            for _, c in rem + work:
                g_all = gcd(g_all, c)
            if g_all > 1:
                rem = [(t, c // g_all) for t, c in rem]
                work = [(t, c // g_all) for t, c in work]
                mult //= g_all
    return rem, mult


def spoly_oracle(f, g, n):
    lcm = DEGREVLEX.key(tuple_lcm(DEGREVLEX.unpack(f[0][0], n), DEGREVLEX.unpack(g[0][0], n)))
    kf, kg = lcm - f[0][0], lcm - g[0][0]
    cf, cg = f[0][1], g[0][1]
    d = gcd(cf, cg)
    shifted = [(k + kf, c * (cg // d)) for k, c in f]
    return merge_oracle(shifted, 1, 1, g, kg, -(cf // d))


def buchberger_oracle(inputs, n, below=inf):
    """The reduced basis below degree ``below`` (homogeneous inputs when
    finite): every element is updated, and only pairs of lcm degree below
    ``below`` are queued."""
    G, leads, lms, alive = [], [], [], []
    heap, pair_alive = [], set()

    def coprime(a, b):
        return all(x == 0 or y == 0 for x, y in zip(a, b))

    def update(t):
        lt = lms[t]
        C = [(i, tuple_lcm(lms[i], lt)) for i in range(t) if alive[i]]
        D = []
        while C:
            i, lcm_i = C.pop()
            if coprime(lms[i], lt) or not any(tuple_divides(m, lcm_i) for _, m in C + D):
                D.append((i, lcm_i))
        for i, lcm_i in D:
            if not coprime(lms[i], lt) and sum(lcm_i) < below:
                heapq.heappush(heap, (DEGREVLEX.key(lcm_i), i, t))
                pair_alive.add((i, t))
        for i, j in list(pair_alive):
            if j == t:
                continue
            lcm_ij = tuple_lcm(lms[i], lms[j])
            if (tuple_divides(lt, lcm_ij) and tuple_lcm(lms[i], lt) != lcm_ij
                    and tuple_lcm(lms[j], lt) != lcm_ij):
                pair_alive.discard((i, j))
        for i in range(t):
            if alive[i] and tuple_divides(lt, lms[i]):
                alive[i] = False

    def add(f):
        rem = _normalize(normal_form_oracle(f, G, leads, n)[0])
        if rem:
            G.append(rem)
            leads.append(_lead(rem, n))
            lms.append(DEGREVLEX.unpack(rem[0][0], n))
            alive.append(True)
            update(len(G) - 1)

    for f in sorted(inputs, key=lambda t: t[0][0]):
        if DEGREVLEX.degree(f[0][0], n) < below:
            add(f)
    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) in pair_alive:
            pair_alive.discard((i, j))
            s = spoly_oracle(G[i], G[j], n)
            if s:
                add(s)
    # reduced basis: minimal leading monomials, then tail reduction
    kept = []
    for g in sorted((G[i] for i in range(len(G)) if alive[i]), key=lambda t: t[0][0]):
        lm = DEGREVLEX.unpack(g[0][0], n)
        if not any(tuple_divides(DEGREVLEX.unpack(h[0][0], n), lm) for h in kept):
            kept.append(g)
    reduced = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        rem, _ = normal_form_oracle(g, others, [_lead(h, n) for h in others], n)
        reduced.append(_normalize(rem))
    return sorted(reduced, key=lambda t: t[0][0])


@st.composite
def reduction_case(draw):
    """A list of reducers (any polynomials, not a Groebner basis) with
    leading coefficients up to 9, and a polynomial to reduce."""
    n = draw(st.sampled_from([2, 3]))
    gens = draw(st.lists(polynomials(n, 2, 1, 3), min_size=1, max_size=4))
    basis = []
    for g in gens:
        terms = _to_engine(g)
        scale = draw(st.integers(1, 9))  # a leading coefficient past 1
        basis.append([(terms[0][0], terms[0][1] * scale)] + terms[1:])
    f = draw(polynomials(n, 4, 1, 6))
    return n, basis, _engine_terms(f)[0]


def strip_case(qs):
    """Reducers q_j*x1^j + x2^j (q_j from ``qs``, largest power first) after
    x2, and x3^(m+1) + x1^m + ... + x1 + x3 to reduce: each x1^j multiplies
    the multiplier by q_j, and once it passes 1,024 bits the content of the
    remainder and the rest, x3 included, is a product of the q_j used."""
    n, m = 3, len(qs)
    v = lambda i: x(i, n)
    reducers = [v(2)] + [qs[j - 1] * v(1) ** j + v(2) ** j for j in range(m, 0, -1)]
    f = v(3) ** (m + 1) + sum((v(1) ** j for j in range(1, m + 1)), v(3))
    basis = [_to_engine(g) for g in reducers]
    return n, basis, _engine_terms(f)[0]


class TestEngineOracles:
    """The heap reduction, the packed pair bookkeeping and the run-long
    divisor memo give exactly what the old loops gave."""

    @settings(max_examples=150, deadline=None)
    @given(reduction_case())
    def test_normal_form_matches_the_merge_oracle(self, case):
        n, basis, terms = case
        leads = [_lead(g, n) for g in basis]
        expected = normal_form_oracle(terms, basis, leads, n)
        assert _normal_form(terms, basis, leads, n, {}) == expected

    def test_scaled_rest_and_content_strip_match_the_oracle(self):
        qs = [(1 << 100) + k for k in (277, 331, 397, 513, 595, 1065, 1189, 1227,
                                       1393, 1621, 1735, 1797)]
        n, basis, terms = strip_case(qs)
        leads = [_lead(g, n) for g in basis]
        rem, mult = _normal_form(terms, basis, leads, n, {})
        assert (rem, mult) == normal_form_oracle(terms, basis, leads, n)
        # the multiplier grew past 1,024 bits (every step scaled the rest)
        # and was cut back by the content strip
        full = 1
        for q in qs:
            full *= q
        assert full.bit_length() > 1024 and 1 < mult < full
        assert [k for k, _ in rem] == [DEGREVLEX.key((0, 0, len(qs) + 1)),
                                       DEGREVLEX.key((0, 0, 1))]

    @settings(max_examples=100, deadline=None)
    @given(reduction_case())
    def test_spoly_matches_the_tuple_oracle(self, case):
        n, basis, _ = case
        for f in basis:
            for g in basis:
                assert _spoly(f, g, n) == spoly_oracle(f, g, n)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3]), st.data())
    def test_buchberger_matches_the_tuple_oracle(self, n, data):
        gens = data.draw(st.lists(polynomials(n, 2, 1, 3), min_size=1, max_size=4))
        inputs = [_to_engine(g) for g in gens]
        assert _buchberger(inputs, n) == buchberger_oracle(inputs, n)

    def test_buchberger_matches_on_many_pairs(self):
        # the power sums and the pair products at n = 4: many pairs, pruned
        from symideal.classification import pair_products

        n = 4
        gens = [power_sum(k, n) for k in (1, 2)] + pair_products(n)
        inputs = [_to_engine(g) for g in gens]
        assert _buchberger(inputs, n) == buchberger_oracle(inputs, n)


def gebauer_moeller_oracle(lcms, support, alive, st, guard, settled=()):
    """The pairs (i, lcm) the quadratic Gebauer-Moeller loop queued: each
    live pair, from the highest i down, is dropped when it is not coprime
    and the lcm of a pair still to visit or already kept divides its own.
    A pair with i in ``settled`` counts as coprime."""
    def coprime(i):
        return not support[i] & st or i in settled

    C = [(i, lcms[i]) for i in range(len(lcms)) if alive[i]]
    D = []
    while C:
        i, lcm = C.pop()
        x = lcm | guard
        if not coprime(i) and any((x - m) & guard == guard for _, m in C + D):
            continue
        D.append((i, lcm))
    return [(i, lcm) for i, lcm in D if not coprime(i)]


@st.composite
def pair_update(draw):
    """Leads of a basis and of a new element t, small exponents so that
    equal lcms, divisible lcms and coprime pairs all occur, which of the
    earlier elements are still live, and which pairs are settled."""
    n = draw(st.integers(1, 4))
    t = draw(st.integers(0, 10))
    leads = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=t + 1,
                          max_size=t + 1))
    alive = draw(st.lists(st.booleans(), min_size=t, max_size=t))
    settled = draw(st.sets(st.integers(0, t - 1))) if t else set()
    return n, [packed_exponents(m) for m in leads], alive, settled


class TestMinimalLcmPruning:
    """``_fresh_pairs`` queues what the quadratic Gebauer-Moeller loop queued."""

    @settings(max_examples=400, deadline=None)
    @given(pair_update())
    def test_matches_the_quadratic_loop(self, case):
        n, leads, alive, settled = case
        guard = _masks(n)[0]
        t = len(leads) - 1
        support = [_support(a, n) for a in leads]
        lcms = [_packed_lcm(a, leads[t], guard) for a in leads[:t]]
        for settles in ((), settled):
            new = {(i, t, lcm) for i, lcm in
                   _fresh_pairs(lcms, support, alive, support[t], guard, settles)}
            old = {(i, t, lcm) for i, lcm in
                   gebauer_moeller_oracle(lcms, support, alive, support[t], guard, settles)}
            assert new == old

    def test_matches_at_every_update_of_the_catalog_rows(self, monkeypatch):
        fresh, updates, settling = ideals._fresh_pairs, [], []

        def checked(lcms, support, alive, st, guard, settled=()):
            queued = fresh(lcms, support, alive, st, guard, settled)
            assert set(queued) == set(gebauer_moeller_oracle(lcms, support, alive, st, guard,
                                                             settled))
            updates.append(len(queued))
            settling.append(len(settled))
            return queued

        monkeypatch.setattr(ideals, "_fresh_pairs", checked)
        for case in classification_cases(4):
            record = case.ideal._quotient()
            record.square()
            _buchberger(all_products(record.basis), 4)  # the same products, no factors
        assert len(updates) > 500 and sum(updates) > 500
        # the squares settle pairs of products sharing a factor
        assert sum(map(bool, settling)) > 100


def reduce_basis_oracle(basis, n):
    """The reduced basis as ``_reduce_basis`` built it element by element:
    the minimal leads, then each element's normal form against the others
    with a fresh divisor memo."""
    guard = _masks(n)[0]
    kept, leads = [], []
    for g in sorted(basis, key=lambda t: t[0][0]):
        x = DEGREVLEX.exps(g[0][0], n) | guard
        if not any((x - a) & guard == guard for a in leads):
            kept.append(g)
            leads.append(x ^ guard)
    reduced = []
    for idx, g in enumerate(kept):
        rem, _ = _normal_form(g, kept[:idx] + kept[idx + 1:], leads[:idx] + leads[idx + 1:],
                              n, {})
        reduced.append(_normalize(rem))
    return sorted(reduced, key=lambda t: t[0][0])


def all_products(basis):
    """Every product f*g, f before or at g in the basis, as engine inputs."""
    products = []
    for i, f in enumerate(basis):
        for g in basis[i:]:
            terms = {}
            for k, c in f:
                for t, e in g:
                    terms[k + t] = terms.get(k + t, 0) + c * e
            products.append(sorted(((k, c) for k, c in terms.items() if c), reverse=True))
    return products


def spoly_counts(inputs, n, below, oracle_below):
    """S-polynomials formed by ``_buchberger`` at ``below`` and by the tuple
    oracle at ``oracle_below``."""
    with mock.patch.object(ideals, "_spoly", wraps=_spoly) as engine:
        _buchberger(inputs, n, below)
    with mock.patch.object(sys.modules[__name__], "spoly_oracle", wraps=spoly_oracle) as oracle:
        buchberger_oracle(inputs, n, oracle_below)
    return engine.call_count, oracle.call_count


@st.composite
def homogeneous_inputs(draw, low=1, min_size=1):
    """Homogeneous engine inputs at n = 2, 3 of degrees ``low`` to 3, at
    least ``min_size`` of them, and a bound."""
    n = draw(st.sampled_from([2, 3]))
    inputs = []
    for d in draw(st.lists(st.integers(low, 3), min_size=min_size, max_size=4)):
        terms = draw(st.dictionaries(st.sampled_from(degree_monomials(n, d)),
                                     st.integers(-4, 4).filter(bool), min_size=1, max_size=3))
        inputs.append(_normalize(sorted(((DEGREVLEX.key(m), c) for m, c in terms.items()),
                                        reverse=True)))
    return n, inputs, draw(st.integers(1, 7))


def basis_of(n, texts):
    """The engine's reduced basis of the ideal of the polynomials given as text."""
    return _buchberger([_to_engine(parse_polynomial(t, n)) for t in texts], n)


@st.composite
def homogeneous_bases(draw):
    """The reduced basis of three or four drawn homogeneous inputs of degree
    2 or 3 at n = 2, 3, when it has at least three elements, and a degree
    bound."""
    n, inputs, below = draw(homogeneous_inputs(low=2, min_size=3))
    basis = _buchberger(inputs, n)
    assume(len(basis) >= 3)
    return n, basis, below


TANGENT_SHAPES = [(5, 1), (4, 2), (3, 3), (4, 1, 1)]  # the benchmark's tangent points


def homogeneous_table1_rows(n):
    """(label, ideal) of each distinct homogeneous ``table1`` row at n,
    seeds 0..2."""
    rows = {}
    for seed in range(3):
        for i, case in enumerate(classification_cases(n, _random_parameters(seed))):
            if case.ideal.is_homogeneous():
                key = tuple(sorted(map(str, case.ideal.generators)))
                rows.setdefault(key, (f"n{n}-s{seed}-{case.label}-{i}", case.ideal))
    return list(rows.values())


def squares_in_tangent(ideal):
    """(basis, below) of each I^2 the tangent computation builds at ``ideal``."""
    calls, square = [], ideals._Quotient.square

    def recorded(record, below=inf):
        calls.append((record.basis, below))
        return square(record, below)

    with mock.patch.object(ideals._Quotient, "square", recorded):
        tangent_dimension(ideal)
    return calls


class TestBoundedEngine:
    """The bounded engine updates no top-degree element and forms only the
    products below the bound, and gives what the oracle gives updating all."""

    @settings(max_examples=150, deadline=None)
    @given(homogeneous_inputs())
    def test_bounded_run_is_the_unbounded_run_cut(self, case):
        n, inputs, below = case
        bounded = _buchberger(inputs, n, below)
        cut = [g for g in _buchberger(inputs, n) if DEGREVLEX.degree(g[0][0], n) < below]
        assert bounded == cut
        assert bounded == buchberger_oracle(inputs, n, below)
        # the oracle has no degree cap: it stops its pairs where the engine does
        top = min(below, _degree_cap(inputs, n)[0])
        engine, oracle = spoly_counts(inputs, n, below, top)
        assert engine == oracle

    @pytest.mark.parametrize("ideal", [
        *(pytest.param(case.ideal, id=f"n{n}-{case.label}-{i}") for n in (3, 4)
          for i, case in enumerate(classification_cases(n))),
        *(pytest.param(ideal, id=label) for label, ideal in homogeneous_table1_rows(5)),
        *(pytest.param(tanisaki_ideal(Partition(list(parts))),
                       id="tanisaki-" + ",".join(map(str, parts))) for parts in TANGENT_SHAPES),
    ])
    def test_squares_match_the_oracle(self, ideal):
        # the engine without factors is the oracle of the labelled square
        n = ideal.ambient_n
        for basis, below in squares_in_tangent(ideal):
            products = all_products(basis)
            bounded = _buchberger(products, n, below)
            assert bounded == ideals._Quotient(basis, n).square(below).basis
            assert bounded == buchberger_oracle(products, n, below)
            top = min(below, _degree_cap(products, n)[0])
            engine, oracle = spoly_counts(products, n, below, top)
            assert engine == oracle

    @settings(max_examples=200, deadline=None)
    @given(homogeneous_bases())
    # labels kept past a reduced lead, and pairs settled without a shared factor, fail these
    @example((3, basis_of(3, ["x1*x2 - x2*x3", "x1^2 + x2*x3", "x3^3", "x2^2*x3 + x2*x3^2"]), 5))
    @example((3, basis_of(3, ["x1^2 + x2*x3", "x2*x3^2", "x1*x2^2", "x2^3*x3"]), 5))
    def test_labelled_squares_of_drawn_ideals(self, case):
        n, basis, below = case
        products = all_products(basis)
        for bound in (below, inf):
            unlabelled = _buchberger(products, n, bound)
            assert ideals._Quotient(basis, n).square(bound).basis == unlabelled
            assert unlabelled == buchberger_oracle(products, n, bound)

    def test_factors_save_spolys(self):
        # at (5,1) neither run forms an S-polynomial below the bound
        counts = []
        for parts in TANGENT_SHAPES:
            ideal = tanisaki_ideal(Partition(list(parts)))
            for basis, below in squares_in_tangent(ideal):
                with mock.patch.object(ideals, "_spoly", wraps=_spoly) as labelled:
                    ideals._Quotient(basis, 6).square(below)
                with mock.patch.object(ideals, "_spoly", wraps=_spoly) as unlabelled:
                    _buchberger(all_products(basis), 6, below)
                counts.append((labelled.call_count, unlabelled.call_count))
        assert all(a < b or a == b == 0 for a, b in counts), counts
        assert sum(a for a, _ in counts) < sum(b for _, b in counts)


def forms(n, degree, max_terms=3):
    """Nonzero forms of one degree, integer coefficients."""
    return st.dictionaries(st.sampled_from(degree_monomials(n, degree)),
                           st.integers(-4, 4).filter(bool), min_size=1, max_size=max_terms).map(
        lambda terms: from_tuple_terms(n, {m: Fraction(c) for m, c in terms.items()}))


@st.composite
def homogeneous_ideal_and_probes(draw):
    """Homogeneous generators of degree 1 to 3 at n = 2, 3, and probes of
    every degree 0 to 6 in drawn order: a form, a member (the form plus a
    multiple of a generator) or a sum of two forms of different degrees."""
    n = draw(st.sampled_from([2, 3]))
    gens = [draw(forms(n, d)) for d in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))]
    probes = []
    for e in draw(st.permutations(range(7))):
        f = draw(forms(n, e))
        kind = draw(st.sampled_from(["form", "member", "mixed"]))
        g = draw(st.sampled_from(gens))
        if kind == "member" and e >= g.degree():
            f = f + draw(forms(n, e - g.degree())) * g
        elif kind == "mixed":
            f = f + draw(forms(n, draw(st.integers(0, 6).filter(lambda d: d != e))))
        probes.append(f)
    return n, gens, probes


class TestBoundedMembership:
    """``contains`` on homogeneous generators reads a record bounded below
    deg f + 1, which answers as the full record does."""

    @settings(max_examples=100, deadline=None)
    @given(homogeneous_ideal_and_probes())
    def test_bounded_answers_are_the_full_answers(self, case):
        n, gens, probes = case
        fresh, full = Ideal(n, gens), Ideal(n, gens)
        full._quotient()
        for f in probes:
            assert fresh.contains(f) == full.contains(f), f
            if fresh._record.below < inf:
                assert fresh._record.below > f.degree()
        # the readers of the full record replace a bounded one
        assert fresh.groebner_basis() == full.groebner_basis()
        assert fresh._record.below == inf
        assert fresh == full

    def test_a_bound_holds_the_degrees_asked_and_grows_by_doubling(self):
        n = 3
        ideal = Ideal(n, [power_sum(1, n), power_sum(2, n)])
        assert ideal.contains(power_sum(1, n) * x(1, n))
        assert ideal._record.below == 3
        assert not ideal.contains(x(1, n) ** 3)  # degree 3: at least double 3
        assert ideal._record.below == 6
        assert ideal.contains(power_sum(2, n) * x(2, n) ** 3)  # degree 5: held
        assert ideal._record.below == 6

    @settings(max_examples=100, deadline=None)
    @given(homogeneous_ideal_and_probes(), st.integers(1, 4), st.integers(0, 3))
    def test_a_grown_record_is_a_fresh_record(self, case, bound, more):
        # a record of the generators of degree < b, grown by the others to a
        # bound c >= b, holds the basis a fresh run gives below c
        n, gens, _ = case
        low = [g for g in gens if g.degree() < bound]
        record = ideals._Quotient([], n, 0).grown(low, bound)
        grown = record.grown([g for g in gens if g.degree() >= bound], bound + more)
        fresh = ideals._Quotient([], n, 0).grown(gens, bound + more)
        assert grown.below >= bound + more and fresh.below >= bound + more
        assert ([g for g in grown.basis if DEGREVLEX.degree(g[0][0], n) < bound + more]
                == [g for g in fresh.basis if DEGREVLEX.degree(g[0][0], n) < bound + more])

    def test_a_rebuild_grows_the_record(self):
        # Ideal._quotient extends its record by _Quotient.grown: the basis
        # below the old bound, and the generators of degree past it
        n = 3
        ideal = Ideal(n, [power_sum(1, n), power_sum(3, n)])
        ideal.contains(x(1, n))
        old = ideal._record
        with mock.patch.object(ideals._Quotient, "grown", autospec=True,
                               side_effect=ideals._Quotient.grown) as grown:
            ideal.contains(x(1, n) ** 2)
        grown.assert_called_once_with(old, [power_sum(3, n)], 4)
        assert ideal._record.below == 4

    def test_equality_reads_the_full_record(self):
        n = 3
        ideal = Ideal(n, [power_sum(1, n), power_sum(2, n)])
        ideal.contains(x(1, n))
        assert ideal._record.below == 2
        assert ideal == Ideal(n, [power_sum(1, n), power_sum(2, n), power_sum(2, n) * x(1, n) ** 2])
        assert ideal._record.below == inf

    def test_a_bound_at_the_cap_is_the_full_record(self):
        # (x1) + m^3: degree 3 is full, so a bound of 3 or more runs to the end
        n = 2
        ideal = Ideal(n, [x(1, n)]) + maximal_power(n, 3)
        assert not ideal.contains(x(2, n))
        assert ideal._record.below == 2
        assert not ideal.contains(x(2, n) ** 2)  # a bound of 4 reaches the cap
        assert ideal._record.below == inf
        other = Ideal(n, ideal.generators)
        assert other.contains(x(1, n) * x(2, n))  # degree 2: a bound of 3, the cap
        assert other._record.below == inf

    def test_non_homogeneous_generators_take_the_full_record(self):
        n = 2
        ideal = Ideal(n, [x(1, n) ** 2 - x(2, n), x(2, n) ** 3])
        assert ideal.contains(x(2, n) ** 3)
        assert ideal._record.below == inf

    def test_zero_and_constants(self):
        n = 2
        ideal = Ideal(n, [x(1, n)])
        assert ideal.contains(Polynomial.zero(n)) and not ideal.contains(Polynomial.one(n))
        assert ideal._record.below == 1
        assert Ideal(n, []).contains(Polynomial.zero(n))


def staircase_oracle(record) -> list[int] | None:
    """The keys of every monomial of degree < ``record.below`` that no lead
    divides, ascending, by comparing exponent tuples; a full record takes
    the degrees below the sum of its pure-power caps, and None when some
    variable has no pure power leading."""
    n = record.n
    leads = [DEGREVLEX.unpack(g[0][0], n) for g in record.basis]
    top = record.below
    if top == inf:
        pure = [[m[i] for m in leads if sum(m) == m[i]] for i in range(n)]
        if not all(pure):
            return None
        top = sum(map(min, pure)) - n + 1
    return sorted(DEGREVLEX.key(m) for d in range(max(top, 0)) for m in degree_monomials(n, d)
                  if not any(all(a <= b for a, b in zip(lead, m)) for lead in leads))


def assert_staircase(record) -> None:
    """``standard`` is the brute-force staircase; after it, a standard key
    reads as itself without a scan of the leads, and each swapped one as
    on a fresh record, whose divisor memo is unseeded."""
    n, standard = record.n, record.standard
    assert standard == staircase_oracle(record)
    if standard is None:
        return
    with mock.patch.object(ideals, "_reducer", side_effect=AssertionError("leads scanned")):
        for k in standard:
            assert record.coordinates([(k, 1)]) == {k: 1}
    fresh = ideals._Quotient(record.basis, n, record.below)
    for k in standard:
        for a in range(n - 1):
            swapped = [(swap_key(k, a, n), 1)]
            assert record.coordinates(swapped) == fresh.coordinates(swapped)


def syzygy_square(ideal):
    """The record of I^2 that ``tangent_dimension`` reads: below N plus the
    top generator degree."""
    graded, N = _minimal_generator_space(ideal)
    return ideal._quotient().square(N + max(graded))


def generator_lists(min_terms=1, min_size=1):
    """n = 2 or 3 and ``min_size`` to 4 polynomials of degree <= 3 with
    ``min_terms`` to 3 terms."""
    return st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(polynomials(n, 3, min_terms, 3), min_size=min_size, max_size=4)))


class TestStaircaseByParents:
    """A monomial is standard when it is no lead and all its parents are."""

    @settings(max_examples=60, deadline=None)
    @given(generator_lists())
    def test_full_records(self, case):
        n, gens = case
        assert_staircase(Ideal(n, gens)._quotient())

    @settings(max_examples=60, deadline=None)
    @given(homogeneous_inputs())
    def test_bounded_records(self, case):
        n, inputs, below = case
        assert_staircase(ideals._Quotient(_buchberger(inputs, n, below), n, below))

    def test_an_infinite_staircase(self):
        n = 3  # nothing leads with a power of x2
        record = Ideal(n, [x(1, n) ** 2, x(2, n) * x(3, n), x(3, n) ** 4])._quotient()
        assert record.standard is None and not record.divisors

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tanisaki_points_and_their_squares(self, n):
        for lam in partitions_of(n):
            ideal = tanisaki_ideal(lam)
            assert_staircase(ideal._quotient())
            assert_staircase(syzygy_square(ideal))

    @pytest.mark.parametrize("parts", TANGENT_SHAPES)
    def test_squares_at_the_tangent_shapes_of_six(self, parts):
        assert_staircase(syzygy_square(tanisaki_ideal(Partition(list(parts)))))


@st.composite
def groebner_bases(draw):
    """A Groebner basis that is not reduced: the reduced basis of drawn
    generators, each element plus multiples of elements with smaller
    leads below its lead, and multiples of elements that are not minimal."""
    n = draw(st.sampled_from([2, 3]))
    gens = draw(st.lists(polynomials(n, 2, 1, 3), min_size=1, max_size=4))
    reduced = _buchberger([_to_engine(g) for g in gens], n)
    polys = [Polynomial(n, dict(g)) for g in reduced]
    basis = []
    for i, f in enumerate(polys):
        lead = leading_monomial(f)
        for g in polys[:i]:
            u = draw(st.sampled_from([(0,) * n] + [tuple(int(j == k) for j in range(n))
                                                    for k in range(n)]))
            if DEGREVLEX.key(tuple(a + b for a, b in zip(u, leading_monomial(g)))) \
                    < DEGREVLEX.key(lead):
                f = f + draw(st.integers(-3, 3)) * Polynomial.monomial(u) * g
        basis.append(_to_engine(f))
    for g in draw(st.lists(st.sampled_from(polys), max_size=2)):
        basis.append(_to_engine(x(draw(st.integers(1, n)), n) * g))
    return n, draw(st.permutations(basis)), reduced


def compared_reductions(flags: list):
    """``_reduce_basis`` checked on each call against the oracle and against
    itself with every element taken as not clean; the clean flags that
    ``_buchberger`` hands it are collected in ``flags``."""
    reduce = ideals._reduce_basis

    def compared(basis, n, clean=None):
        result = reduce(basis, n, clean)
        assert result == reduce(basis, n) == reduce_basis_oracle(basis, n)
        flags.append(list(clean))
        return result
    return compared


class TestOneMemoInterreduction:
    """``_reduce_basis`` reduces every tail on one list and one memo, keeps
    the clean elements ``_buchberger`` marks, and gives what the
    per-element loop gave."""

    @settings(max_examples=150, deadline=None)
    @given(groebner_bases())
    def test_matches_the_per_element_loop(self, case):
        n, basis, reduced = case
        assert ideals._reduce_basis(basis, n) == reduce_basis_oracle(basis, n) == reduced

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_on_the_squares_of_the_catalog_rows(self, n, monkeypatch):
        flags = []
        cases = classification_cases(n)
        monkeypatch.setattr(ideals, "_reduce_basis", compared_reductions(flags))
        for case in cases:
            case.ideal._quotient().square()
        assert len(flags) == 2 * len(cases) and sum(map(len, flags)) > 100
        assert any(all(clean) for clean in flags) and not all(map(all, flags))

    def test_elements_led_above_a_later_lead_are_reduced(self):
        # inputs enter in ascending lead order before any S-polynomial, so
        # an S-polynomial of degree 2 or 3 lands below the leads of inputs
        # of degree 3 added before it: those are not clean, and the
        # interreduction must still reduce their tails
        flags = []

        @settings(max_examples=80, deadline=None)
        @given(generator_lists(min_terms=2, min_size=2))
        def check(case):
            n, gens = case
            with mock.patch.object(ideals, "_reduce_basis", compared_reductions(flags)):
                _buchberger([_to_engine(g) for g in gens], n)

        check()
        assert sum(clean.count(False) for clean in flags) > 20


def cap_of(ideal):
    return _degree_cap([_to_engine(g) for g in ideal.generators], ideal.ambient_n)


def uncap(ideal):
    """The generators of ``ideal`` with one cap monomial x^a replaced by
    x^a + x^b, x^b another monomial of the cap degree d: the same ideal,
    but no degree is full, so ``_buchberger`` runs untruncated."""
    n = ideal.ambient_n
    d, keys = cap_of(ideal)
    assert d < inf, "the ideal has no degree cap"
    a = Polynomial.monomial(DEGREVLEX.unpack(keys[0], n))
    b = Polynomial.monomial(DEGREVLEX.unpack(keys[-1], n))
    gens = list(ideal.generators)
    gens[gens.index(a)] = a + b
    assert cap_of(Ideal(n, gens)) == (inf, [])
    return gens


class TestDegreeCap:
    """A full degree d of monomial inputs truncates ``_buchberger`` at d,
    and the reduced basis is the one of the untruncated walk."""

    @pytest.mark.parametrize("gens", [lambda v: [v(2), v(2)], lambda v: [v(1), 2 * v(1)]])
    def test_duplicate_monomials_are_not_a_full_degree(self, gens):
        # two inputs at degree 1 of n = 2, but one distinct monomial
        n = 2
        inputs = [_to_engine(g) for g in gens(lambda i: x(i, n))]
        assert _degree_cap(inputs, n) == (inf, [])
        assert _buchberger(inputs, n) == buchberger_oracle(inputs, n)
        assert len(_buchberger(inputs, n)) == 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_classification_rows_match_the_uncapped_walk(self, n):
        cases = classification_cases(n)
        caps = [cap_of(c.ideal)[0] for c in cases]
        # rows 12 and 13 (n = 3) are the only ones without "+ m^d"
        assert {c.label for c, d in zip(cases, caps) if d == inf} <= {"12", "13"}
        for case in (c for c, d in zip(cases, caps) if d < inf):
            assert case.ideal.groebner_basis() == Ideal(n, uncap(case.ideal)).groebner_basis(), \
                (case.label, case.colength)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_apolar_tanisaki_ideals_match_the_uncapped_walk(self, n):
        for lam in partitions_of(n):
            ideal = tanisaki_ideal(lam, "apolar")
            assert ideal.groebner_basis() == Ideal(n, uncap(ideal)).groebner_basis(), lam

    def test_non_homogeneous_inputs_run_untruncated(self):
        # (x1 - 1) + m^2 at n = 2: degree 2 is full, but x1 - 1 is not
        # homogeneous, and the ideal is the whole ring
        n = 2
        inputs = [_to_engine(g) for g in (x(1, n) - 1,) + maximal_power(n, 2).generators]
        assert _degree_cap(inputs, n) == (inf, [])
        assert _buchberger(inputs, n) == buchberger_oracle(inputs, n) == [[(0, 1)]]

    def test_a_degree_zero_cap_is_the_unit_ideal(self):
        n = 2
        one = Polynomial.monomial((0, 0))
        inputs = [_to_engine(g) for g in (one, x(1, n), x(2, n) ** 3)]
        assert _degree_cap(inputs, n) == (0, [0])
        assert _buchberger(inputs, n) == [[(0, 1)]]
        assert Ideal(n, [one]).groebner_basis() == (one,)


class TestRunLongDivisorMemo:
    """One memo serves a basis that grows by appending."""

    def test_no_divisor_entry_is_rechecked_after_an_append(self):
        # as in _buchberger: reduce with one basis, append the remainder as
        # a new element, reduce again with the same memo
        n = 2
        basis = [_to_engine(x(1, n) ** 2 - x(2, n))]
        leads = [_lead(g, n) for g in basis]
        divisors = {}
        first, _ = _normal_form(_to_engine(x(2, n) ** 2 + x(2, n)), basis, leads, n, divisors)
        assert first == _to_engine(x(2, n) ** 2 + x(2, n))  # x2^2 is not reducible
        assert divisors[DEGREVLEX.key((0, 2))] == 1  # checked against one element
        basis.append(_to_engine(x(2, n) ** 2 - x(1, n)))
        leads.append(_lead(basis[-1], n))
        probe = _to_engine(x(2, n) ** 2 + x(2, n))
        second, mult = _normal_form(probe, basis, leads, n, divisors)
        assert (second, mult) == _normal_form(probe, basis, leads, n, {})
        assert second == _to_engine(x(1, n) + x(2, n))
        # a stale "no divisor" entry for x2^2 would leave it in the remainder
        guard = _masks(n)[0]
        for k, _ in second:
            e = DEGREVLEX.exps(k, n) | guard
            assert not any((e - a) & guard == guard for a in leads)
        assert divisors[DEGREVLEX.key((0, 2))] is basis[1]

    @settings(max_examples=40, deadline=None)
    @given(reduction_case(), st.data())
    def test_shared_memo_matches_a_fresh_one_as_the_basis_grows(self, case, data):
        n, basis, terms = case
        probes = data.draw(st.lists(polynomials(n, 4, 1, 5), min_size=1, max_size=4))
        divisors = {}
        for size in range(1, len(basis) + 1):
            prefix, leads = basis[:size], [_lead(g, n) for g in basis[:size]]
            for f in probes:
                t = _engine_terms(f)[0]
                assert (_normal_form(t, prefix, leads, n, divisors)
                        == _normal_form(t, prefix, leads, n, {}))
