from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symideal.combinat import Permutation
from symideal.poly import (Polynomial, apolar_pair, apolar_scalar,
                           apply_permutation, degree_monomials, derivative,
                           elementary_symmetric, integrate_duals,
                           monomial_weight, parse_polynomial, power_sum,
                           reynolds)


def x(i, n):
    return Polynomial.variable(i, n)


@st.composite
def polynomials(draw, n=3, max_terms=4, max_degree=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_degree)) for _ in range(n))
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        if coeff:
            terms[mono] = coeff
    return Polynomial(n, terms)


@st.composite
def permutations_of(draw, n=3):
    images = draw(st.permutations(list(range(1, n + 1))))
    return Permutation(images)


@st.composite
def action_triples(draw):
    """(f, g, sigma, tau) sharing a random ambient size up to five."""
    n = draw(st.integers(2, 5))
    return (draw(polynomials(n=n, max_terms=3, max_degree=2)),
            draw(polynomials(n=n, max_terms=3, max_degree=2)),
            draw(permutations_of(n=n)), draw(permutations_of(n=n)))


class TestArithmetic:
    def test_basic(self):
        n = 2
        f = x(1, n) + 2 * x(2, n)
        g = x(1, n) - x(2, n)
        assert f * g == x(1, n) ** 2 + x(1, n) * x(2, n) - 2 * x(2, n) ** 2
        assert (f - f).is_zero()
        assert f ** 0 == Polynomial.one(n)

    def test_scalars_and_division(self):
        f = x(1, 2)
        assert (f / 2) * 2 == f
        assert Fraction(1, 3) * f == f / 3

    def test_degree_and_parts(self):
        f = x(1, 2) ** 3 + x(2, 2)
        assert f.degree() == 3
        assert not f.is_homogeneous()
        assert f.homogeneous_part(1) == x(2, 2)
        assert f.top_form() == x(1, 2) ** 3

    def test_evaluate(self):
        f = x(1, 2) ** 2 - x(2, 2)
        assert f.evaluate((3, 4)) == 5

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            x(1, 2) + x(1, 3)


class TestAction:
    def test_identity_and_transposition(self):
        n = 3
        f = x(1, n) - x(2, n)
        assert apply_permutation(Permutation.identity(n), f) == f
        swapped = apply_permutation(Permutation.transposition(1, 2, n), f)
        assert swapped == -f

    @settings(max_examples=80, deadline=None)
    @given(action_triples())
    def test_automorphism(self, data):
        f, g, sigma, _ = data
        assert apply_permutation(sigma, f * g) == apply_permutation(sigma, f) * apply_permutation(sigma, g)

    @settings(max_examples=80, deadline=None)
    @given(action_triples())
    def test_group_action(self, data):
        f, _, sigma, tau = data
        composed = apply_permutation(sigma * tau, f)
        stepwise = apply_permutation(sigma, apply_permutation(tau, f))
        assert composed == stepwise


class TestReynolds:
    def test_variable(self):
        n = 3
        assert reynolds(x(1, n)) == power_sum(1, n) / n

    def test_idempotent_and_invariant(self):
        n = 3
        f = x(1, n) ** 2 * x(2, n)
        r = reynolds(f)
        assert reynolds(r) == r
        assert reynolds(power_sum(2, n)) == power_sum(2, n)
        sigma = Permutation.cycle(n)
        assert reynolds(apply_permutation(sigma, f)) == r

    @pytest.mark.parametrize("n", [3, 4])
    def test_cube_difference_average(self, n):
        # averaging (x1^2 - x2^2)x1 lands on a multiple of n*p3 - p2*p1
        f = (x(1, n) ** 2 - x(2, n) ** 2) * x(1, n)
        target = n * power_sum(3, n) - power_sum(2, n) * power_sum(1, n)
        r = reynolds(f)
        ratios = {r.terms[m] / c for m, c in target.terms.items()}
        assert len(ratios) == 1 and ratios.pop() != 0
        assert set(r.terms) == set(target.terms)

    @pytest.mark.parametrize("n", [3, 4])
    def test_p1_difference_average(self, n):
        p1, p2 = power_sum(1, n), power_sum(2, n)
        f = p1 * (x(1, n) - x(2, n)) * x(1, n)
        target = p1 * (p1 * p1 - n * p2)
        r = reynolds(f)
        ratios = {r.terms[m] / c for m, c in target.terms.items()}
        assert len(ratios) == 1 and ratios.pop() != 0
        assert set(r.terms) == set(target.terms)


class TestSymmetricBuilders:
    def test_power_sum(self):
        assert str(power_sum(1, 3)) == "x1 + x2 + x3"
        with pytest.raises(ValueError):
            power_sum(0, 3)

    def test_elementary_cases(self):
        n = 4
        assert elementary_symmetric(0, [1, 2], n) == Polynomial.one(n)
        e2 = elementary_symmetric(2, [1, 2, 3], n)
        assert e2 == x(1, n) * x(2, n) + x(1, n) * x(3, n) + x(2, n) * x(3, n)
        with pytest.raises(ValueError):
            elementary_symmetric(3, [1, 2], n)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 6), st.data())
    def test_deletion_recurrence(self, n, data):
        subset = data.draw(st.sets(st.integers(1, n), min_size=2, max_size=n))
        i = data.draw(st.sampled_from(sorted(subset)))
        r = data.draw(st.integers(1, len(subset) - 1))
        without = sorted(subset - {i})
        lhs = elementary_symmetric(r, without, n)
        rhs = elementary_symmetric(r, sorted(subset), n) - x(i, n) * elementary_symmetric(r - 1, without, n)
        assert lhs == rhs

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_newton_identities(self, n):
        full = list(range(1, n + 1))
        e = [elementary_symmetric(r, full, n) for r in range(n + 1)]
        p = [None] + [power_sum(k, n) for k in range(1, n + 1)]
        for k in range(1, n + 1):
            total = Polynomial.zero(n)
            for i in range(1, k):
                total = total + (-1) ** (i - 1) * e[i] * p[k - i]
            total = total + (-1) ** (k - 1) * k * e[k]
            assert p[k] == total


class TestApolar:
    def test_single_derivative(self):
        n = 2
        assert apolar_pair(x(1, n), x(1, n) * x(2, n)) == x(2, n)

    def test_monomial_self_pairing(self):
        m = (2, 3, 1)
        f = Polynomial.monomial(m)
        assert apolar_pair(f, f) == Polynomial.constant(monomial_weight(m), 3)
        g = Polynomial.monomial((1, 4, 1))
        assert apolar_scalar(f, g) == 0

    @settings(max_examples=50, deadline=None)
    @given(polynomials(), polynomials(), permutations_of())
    def test_equivariance(self, f, g, sigma):
        lhs = apply_permutation(sigma, apolar_pair(f, g))
        rhs = apolar_pair(apply_permutation(sigma, f), apply_permutation(sigma, g))
        assert lhs == rhs

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_symmetric_scalar_on_equal_degree(self, data):
        n, d = 3, 2
        def homog(draw_tag):
            terms = {}
            for mono in [(2, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 2), (1, 0, 1), (0, 2, 0)]:
                c = data.draw(st.integers(-5, 5))
                if c:
                    terms[mono] = Fraction(c)
            return Polynomial(n, terms)
        f, g = homog("f"), homog("g")
        assert apolar_scalar(f, g) == apolar_scalar(g, f)

    def test_degree_monomials_order(self):
        assert degree_monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]
        monos = degree_monomials(3, 3)
        assert monos == sorted(monos, reverse=True) and len(set(monos)) == 10

    @settings(max_examples=50, deadline=None)
    @given(polynomials(), polynomials())
    def test_scalar_is_constant_term_of_pairing(self, f, g):
        assert apolar_scalar(f, g) == apolar_pair(f, g).coefficient((0,) * f.ambient_n)


class TestTextFormat:
    def test_examples(self):
        f = parse_polynomial("x1^2*x2 - 3/2*x3", 3)
        assert f == x(1, 3) ** 2 * x(2, 3) - Fraction(3, 2) * x(3, 3)
        assert parse_polynomial("0", 2).is_zero()
        assert str(Polynomial.zero(2)) == "0"

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_polynomial("x9", 3)
        with pytest.raises(ValueError):
            parse_polynomial("x1 +* x2", 3)

    @settings(max_examples=150, deadline=None)
    @given(polynomials(n=4, max_terms=6, max_degree=4))
    def test_round_trip(self, f):
        assert parse_polynomial(str(f), 4) == f


class TestDuality:
    def test_derivative(self):
        n = 2
        f = x(1, n) ** 3 * x(2, n)
        assert derivative(f, 1) == 3 * x(1, n) ** 2 * x(2, n)
        assert derivative(f, 2) == x(1, n) ** 3

    def test_integrate_duals_full_space(self):
        # integrating the constants gives all linear forms
        w = integrate_duals([Polynomial.one(3)], 3, 1)
        assert len(w) == 3

    def test_integrate_duals_recovers_powers(self):
        # dual span {p1} integrates to the span containing p1^2 scalars only
        n = 2
        p1 = power_sum(1, n)
        w = integrate_duals([p1], n, 2)
        assert len(w) == 1
        ratio = {w[0].terms[m] / c for m, c in (p1 * p1).terms.items()}
        assert len(ratio) == 1
