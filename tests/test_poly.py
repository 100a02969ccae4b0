import re
from fractions import Fraction
from itertools import permutations
from math import factorial, gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symideal import equivariant
from symideal.classification import classification_cases
from symideal.combinat import Permutation, partitions_of
from symideal.linalg import nullspace_tags
from symideal.poly import (DEGREVLEX, LIMIT, W, Polynomial, apply_permutation,
                           complement_vectors, elementary_symmetric,
                           integrate_vectors, linear_combination, monomial_weight,
                           parse_polynomial, partial_terms, permute_key, power_sum, swap_key)
from symideal.tanisaki import _apolar_generators


def degree_monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponent vectors of total degree d, lexicographically descending."""
    if n == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1) for rest in degree_monomials(n - 1, d - e)]


def x(i, n):
    return Polynomial.variable(i, n)


# ---- terms keyed by exponent tuples -----------------------------------------
#
# ``Polynomial.terms`` holds integer numerators over ``den``, keyed by
# ``DEGREVLEX.key``; the tests read and build polynomials on exponent
# tuples with rational coefficients through these.

def tuple_terms(f: Polynomial) -> dict:
    """The rational coefficients of f keyed by exponent tuples."""
    return {DEGREVLEX.unpack(k, f.ambient_n): Fraction(c, f.den) for k, c in f.terms.items()}


def from_tuple_terms(n: int, terms: dict) -> Polynomial:
    """The polynomial with these terms keyed by exponent tuples."""
    return Polynomial(n, {DEGREVLEX.key(tuple(m)): c for m, c in terms.items()})


def monomial_key(m: tuple) -> tuple:
    """Ascending key for the graded reverse-lexicographic order, on tuples."""
    return (sum(m), tuple(-e for e in reversed(m)))


def leading_monomial(f: Polynomial) -> tuple:
    if not f.terms:
        raise ValueError("zero polynomial has no leading monomial")
    return max(tuple_terms(f), key=monomial_key)


def leading_coefficient(f: Polynomial) -> Fraction:
    return tuple_terms(f)[leading_monomial(f)]


def permute_monomial(sigma: Permutation, m: tuple) -> tuple:
    """The exponent of x_i moves to x_{sigma(i)}."""
    out = [0] * len(m)
    for i, e in enumerate(m):
        if e:
            out[sigma.images[i] - 1] = e
    return tuple(out)


def evaluate(f, point):
    """The value of f at a rational point."""
    values = [Fraction(v) for v in point]
    if len(values) != f.ambient_n:
        raise ValueError("point has wrong length")
    total = Fraction(0)
    for m, c in tuple_terms(f).items():
        prod = c
        for v, e in zip(values, m):
            if e:
                prod *= v**e
        total += prod
    return total


@st.composite
def polynomials(draw, n=3, max_terms=4, max_degree=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_degree)) for _ in range(n))
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        if coeff:
            terms[mono] = coeff
    return from_tuple_terms(n, terms)


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

    def test_scalars_and_reciprocals(self):
        f = x(1, 2)
        assert (f * Fraction(1, 2)) * 2 == f
        assert Fraction(1, 3) * f == f * Fraction(1, 3)

    def test_degree_and_parts(self):
        f = x(1, 2) ** 3 + x(2, 2)
        assert f.degree() == 3
        assert not is_homogeneous(f)
        assert f.top_form() == x(1, 2) ** 3
        assert f - f.top_form() == x(2, 2)

    def test_evaluate(self):
        f = x(1, 2) ** 2 - x(2, 2)
        assert evaluate(f, (3, 4)) == 5

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
        assert reynolds(x(1, n)) == power_sum(1, n) * Fraction(1, n)

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
        ratios = {Fraction(r.terms[m], c) for m, c in target.terms.items()}
        assert len(ratios) == 1 and ratios.pop() != 0
        assert set(r.terms) == set(target.terms)

    @pytest.mark.parametrize("n", [3, 4])
    def test_p1_difference_average(self, n):
        p1, p2 = power_sum(1, n), power_sum(2, n)
        f = p1 * (x(1, n) - x(2, n)) * x(1, n)
        target = p1 * (p1 * p1 - n * p2)
        r = reynolds(f)
        ratios = {Fraction(r.terms[m], c) for m, c in target.terms.items()}
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
        assert apolar_pair(f, f) == Polynomial.constant(monomial_weight(DEGREVLEX.key(m), 3), 3)
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
            return from_tuple_terms(n, terms)
        f, g = homog("f"), homog("g")
        assert apolar_scalar(f, g) == apolar_scalar(g, f)

    def test_degree_monomials_order(self):
        assert degree_monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]
        monos = degree_monomials(3, 3)
        assert monos == sorted(monos, reverse=True) and len(set(monos)) == 10

    @settings(max_examples=50, deadline=None)
    @given(polynomials(), polynomials())
    def test_scalar_is_constant_term_of_pairing(self, f, g):
        assert apolar_scalar(f, g) == coefficient(apolar_pair(f, g), (0,) * f.ambient_n)


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
        ratio = {Fraction(w[0].terms[m], c) for m, c in (p1 * p1).terms.items()}
        assert len(ratio) == 1


# exponents at both ends and near LIMIT = 2**30, the bound every Polynomial keeps
exponents = st.one_of(st.integers(0, 3), st.integers(LIMIT - 3, LIMIT - 1),
                      st.integers(0, (1 << (W - 1)) - 1))
exponent_pairs = st.integers(1, 6).flatmap(lambda n: st.tuples(
    *[st.lists(exponents, min_size=n, max_size=n).map(tuple)] * 2))
# pairs of one monomial degree below LIMIT, as products keep it
degree_pairs = st.integers(1, 6).flatmap(lambda n: st.tuples(
    *[st.lists(st.integers(0, LIMIT // n - 1), min_size=n, max_size=n).map(tuple)] * 2))


class TestVectorKeys:
    """The inverse-system vectors are keyed by ``DEGREVLEX.key`` as
    ``Polynomial`` terms are: the eliminations pivot on degrevlex order, a
    derivative or a shift moves a key by that of a variable."""

    @given(exponent_pairs)
    @settings(max_examples=200, deadline=None)
    def test_keys_round_trip_and_order_as_degrevlex(self, pair):
        a, b = pair
        n = len(a)
        assert (DEGREVLEX.key(a) < DEGREVLEX.key(b)) == (monomial_key(a) < monomial_key(b))
        assert (DEGREVLEX.key(a) == DEGREVLEX.key(b)) == (a == b)
        assert DEGREVLEX.unpack(DEGREVLEX.key(a), n) == a
        assert DEGREVLEX.monomial(DEGREVLEX.pack(a), n) == a

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=6).map(tuple))
    def test_monomial_weight_reads_the_fields(self, m):
        assert monomial_weight(DEGREVLEX.key(m), len(m)) == prod(map(factorial, m))

    @given(degree_pairs, st.lists(st.integers(0, 5), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_cross_partial_columns_order_as_pairs_then_degrevlex(self, pair, indices):
        # integrate_vectors keys the column ((lo, hi), m), lo < hi, as one int
        a, b = pair
        n = len(a)

        def column(lo: int, hi: int, m: tuple) -> int:
            return ((lo * n + hi) << (W * (n + 1))) + DEGREVLEX.key(m)

        first, second = sorted(i % n for i in indices[:2]), sorted(i % n for i in indices[2:])
        assert ((column(*first, a) < column(*second, b))
                == ((tuple(first), monomial_key(a)) < (tuple(second), monomial_key(b))))

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(polynomials(n=n), st.integers(0, n - 1))))
    @settings(max_examples=100, deadline=None)
    def test_partials_and_shifts_match_the_tuples(self, data):
        f, j = data
        n = f.ambient_n
        terms, den = f.terms, f.den
        assert Polynomial(n, partial_terms(terms, j, n), den) == derivative(f, j + 1)
        unit = DEGREVLEX.key(tuple(int(i == j) for i in range(n)))
        assert unit == (1 << (W * n)) - (1 << (W * j))
        assert Polynomial(n, {k + unit: c for k, c in terms.items()}, den) == x(j + 1, n) * f

    @given(st.integers(1, 5).flatmap(lambda n: polynomials(n=n)), st.integers(-6, 6).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_fields_round_trip_from_any_multiple(self, f, k):
        # a vector (k*terms, k*den) of the kernels is f again, in lowest terms
        n = f.ambient_n
        back = Polynomial(n, {m: k * c for m, c in f.terms.items()}, k * f.den)
        assert back == f and str(back) == str(f)
        assert (back.terms, back.den) == (f.terms, f.den)
        assert_clean(back)


# ---- oracles: the tuple-keyed printer, product and parser ---------------------
#
# Polynomial terms were once keyed by exponent tuples in ``monomial_key``
# order; these are those loops, on {tuple: coeff} dicts.

_TERM = re.compile(r"^(?:(?P<coeff>\d+(?:/\d+)?)\*?)?(?P<body>(?:x\d+(?:\^\d+)?(?:\*x\d+(?:\^\d+)?)*)?)$")


def nonzero(terms: dict) -> dict:
    return {m: Fraction(c) for m, c in terms.items() if c}


def str_oracle(terms: dict) -> str:
    if not terms:
        return "0"
    pieces = []
    for mono, coeff in sorted(terms.items(), key=lambda t: monomial_key(t[0]), reverse=True):
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e]
        body = "*".join(factors)
        mag = abs(coeff)
        if not factors:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not pieces:
            pieces.append(text if coeff > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(pieces)


def mul_oracle(a: dict, b: dict) -> dict:
    terms: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(u + v for u, v in zip(m1, m2))
            terms[m] = terms.get(m, 0) + c1 * c2
    return nonzero(terms)


def parse_oracle(text: str, n: int) -> dict:
    compact = text.replace(" ", "")
    if not compact or compact == "0":
        return {}
    chunks: list = []
    sign, start = 1, 0
    if compact[0] in "+-":
        sign = -1 if compact[0] == "-" else 1
        start = 1
    current = []
    for ch in compact[start:]:
        if ch in "+-":
            chunks.append((sign, "".join(current)))
            sign = -1 if ch == "-" else 1
            current = []
        else:
            current.append(ch)
    chunks.append((sign, "".join(current)))
    terms: dict = {}
    for sgn, chunk in chunks:
        match = _TERM.match(chunk)
        if not match or (not match.group("coeff") and not match.group("body")):
            raise ValueError(f"cannot parse term {chunk!r}")
        coeff = Fraction(match.group("coeff") or 1)
        exps = [0] * n
        if match.group("body"):
            for factor in match.group("body").split("*"):
                var, _, power = factor.partition("^")
                exps[int(var[1:]) - 1] += int(power or 1)
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + sgn * coeff
    return nonzero(terms)


@st.composite
def keyed_cases(draw):
    """(f, g, sigma) in a random ambient size up to six."""
    n = draw(st.integers(1, 6))
    return (draw(polynomials(n=n, max_terms=5, max_degree=4)),
            draw(polynomials(n=n, max_terms=5, max_degree=4)), draw(permutations_of(n=n)))


class TestKeyedTerms:
    """Terms keyed by ``DEGREVLEX.key`` give what the tuple-keyed loops gave."""

    @given(keyed_cases())
    @settings(max_examples=200, deadline=None)
    def test_operations_match_the_tuple_oracles(self, case):
        f, g, sigma = case
        n = f.ambient_n
        a, b = tuple_terms(f), tuple_terms(g)
        assert str(f) == str_oracle(a)
        assert tuple_terms(parse_polynomial(str(f), n)) == parse_oracle(str_oracle(a), n) == a
        text = joined(f, g)  # unordered, with repeated monomials
        assert tuple_terms(parse_polynomial(text, n)) == parse_oracle(text, n)
        assert tuple_terms(f + g) == nonzero({m: a.get(m, 0) + b.get(m, 0) for m in {**a, **b}})
        assert tuple_terms(f * g) == mul_oracle(a, b)
        assert str(f * g) == str_oracle(mul_oracle(a, b))
        degree = max(map(sum, a), default=-1)
        assert f.degree() == degree
        assert tuple_terms(f.top_form()) == {m: c for m, c in a.items() if sum(m) == degree}
        lead = max(a, key=monomial_key, default=None)
        assert tuple_terms(f.monic()) == {m: c / a[lead] for m, c in a.items()}
        assert (tuple_terms(apply_permutation(sigma, f))
                == {permute_monomial(sigma, m): c for m, c in a.items()})

    def test_swap_on_every_monomial_to_degree_four(self):
        n = 4
        for d in range(5):
            for m in degree_monomials(n, d):
                key = DEGREVLEX.key(m)
                u = DEGREVLEX.unpack(key, n)
                for a in range(n - 1):
                    swapped = u[:a] + (u[a + 1], u[a]) + u[a + 2:]
                    assert swap_key(key, a, n) == DEGREVLEX.key(swapped)

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(
        st.lists(st.integers(LIMIT - 40, LIMIT - 1) | st.integers(0, 3),
                 min_size=n, max_size=n).map(tuple),
        st.integers(0, n - 2), permutations_of(n=n))))
    @settings(max_examples=200, deadline=None)
    def test_swap_and_permutation_near_the_bound(self, case):
        m, a, sigma = case
        n, key = len(m), DEGREVLEX.key(m)
        u = DEGREVLEX.unpack(key, n)
        assert u == m
        assert swap_key(key, a, n) == DEGREVLEX.key(u[:a] + (u[a + 1], u[a]) + u[a + 2:])
        assert permute_key(sigma, key, n) == DEGREVLEX.key(permute_monomial(sigma, u))


# ---- the stored-coefficient invariant ---------------------------------------

def assert_clean(f: Polynomial) -> None:
    """Every stored coefficient is a nonzero int, over a positive int den,
    in lowest terms."""
    for mono, c in f.terms.items():
        assert type(c) is int and c != 0, (mono, c)
    assert type(f.den) is int and f.den > 0
    assert gcd(f.den, *f.terms.values()) == 1


def joined(f: Polynomial, g: Polynomial) -> str:
    """The text of f followed by the terms of g, so that it parses to f + g."""
    tail = str(g)
    return str(f) + (" " + tail if tail.startswith("-") else " + " + tail)


scalars = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5)))


class TestStoredCoefficients:
    @given(polynomials(), polynomials(), scalars, scalars, st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_every_operation_stores_lowest_terms(self, f, g, a, b, i, d):
        n = f.ambient_n
        for h in (f + g, f - g, f + a, -f + a, f * g, f * a, a * f, -f, f - f,
                  apolar_pair(f, g), derivative(f, i),
                  linear_combination([f, g], {0: a, 1: b}), reynolds(f),
                  parse_polynomial(joined(f, g), n), parse_polynomial(joined(f, -f), n),
                  *integrate_duals([f, g], n, d), *apolar_complement([f, g], [f + a]),
                  Polynomial(n, (f * a).terms, (f * a).den)):
            assert_clean(h)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_inverse_system_outputs_store_lowest_terms(self, n):
        # the generators of the apolar ideals and of the generator spaces
        # come out of the integer kernels, as vectors not in lowest terms
        for lam in partitions_of(n):
            for g in _apolar_generators(lam)[0]:
                assert_clean(g)
        for case in classification_cases(n):
            if case.ideal.is_homogeneous():
                for gens in equivariant._minimal_generator_space(case.ideal)[0].values():
                    for terms, den in gens:  # nonzero ints over a positive int
                        assert type(den) is int and den > 0
                        assert all(type(c) is int and c for c in terms.values())
                        assert_clean(Polynomial(n, terms, den))

    def test_hash_follows_equality(self):
        # hashed on demand from the terms, whatever their insertion order
        n = 3
        f = x(1, n) * x(2, n) + Fraction(1, 2) * x(3, n)
        g = Polynomial(n, dict(reversed(list(f.terms.items()))), f.den)
        assert f == g and hash(f) == hash(g) and len({f, g}) == 1
        assert Polynomial.__slots__ == ("ambient_n", "terms", "den")

    def test_constructor_stores_lowest_terms(self):
        key = DEGREVLEX.key
        f = Polynomial(2, {key((1, 0)): 3, key((0, 1)): 0, key((0, 0)): Fraction(0),
                           key((1, 1)): Fraction(1, 2)})
        assert (f.terms, f.den) == ({key((1, 0)): 6, key((1, 1)): 1}, 2)  # 3*x1 + 1/2*x1*x2
        assert_clean(f)
        g = Polynomial(2, {key((1, 0)): 4, key((0, 1)): -6, key((0, 0)): Fraction(2, 3)}, 8)
        assert (g.terms, g.den) == ({key((1, 0)): 6, key((0, 1)): -9, key((0, 0)): 1}, 12)
        h = Polynomial(2, {key((1, 0)): 4, key((0, 1)): -6}, -2)  # the sign moves to the terms
        assert (h.terms, h.den) == ({key((1, 0)): -2, key((0, 1)): 3}, 1)
        assert_clean(g)
        assert_clean(h)
        zero = Polynomial(2, {key((1, 0)): 0}, 6)
        assert (zero.terms, zero.den) == ({}, 1)

    def test_cancellation_leaves_no_term(self):
        n = 2
        x1, x2 = x(1, n), x(2, n)
        total = (x1 - x2) + (x2 - x1)
        assert total.is_zero() and total.terms == {}
        square = (x1 + x2) * (x1 - x2)
        assert (1, 1) not in tuple_terms(square)
        assert tuple_terms(square) == {(2, 0): 1, (0, 2): -1}
        assert_clean(square)
        parsed = parse_polynomial("x1 - x1", n)
        assert parsed.is_zero() and parsed.terms == {}
        assert tuple_terms(parse_polynomial("x1 - x1 + x2", n)) == {(0, 1): 1}
        assert apolar_pair(x1 - x2, x1 + x2).is_zero()
        assert linear_combination([x1, x1], {0: 1, 1: -1}).terms == {}


# ---- the representation against a Fraction-dict reference -------------------
#
# The reference computes on {key: Fraction} dicts, one rational per term.

def fraction_terms(n: int):
    """Fraction dicts of up to four terms in n variables, as a strategy."""
    monomials = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    coefficients = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12))
    return st.dictionaries(monomials, coefficients, max_size=4).map(
        lambda terms: {DEGREVLEX.key(m): c for m, c in terms.items()})


def values(f: Polynomial) -> dict:
    """f as a Fraction dict, once its fields are checked to be in lowest terms."""
    assert_clean(f)
    return {k: Fraction(c, f.den) for k, c in f.terms.items()}


def ref_sum(pairs) -> dict:
    """The sum of c * a over (c, a) pairs of scalars and Fraction dicts."""
    out: dict = {}
    for c, a in pairs:
        for k, v in a.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def ref_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


@st.composite
def fraction_cases(draw):
    """(n, a, b, c, scalar) with a, b, c Fraction dicts in n variables."""
    n = draw(st.integers(1, 4))
    return (n, *(draw(fraction_terms(n)) for _ in range(3)),
            draw(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))))


class TestRepresentation:
    """Integer numerators over ``den`` give what Fraction coefficients give."""

    @given(fraction_cases(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_operations_match_the_fraction_reference(self, case, k):
        n, a, b, c, scalar = case
        f, g, h = Polynomial(n, a), Polynomial(n, b), Polynomial(n, c)
        assert values(f) == a
        assert values(f + g) == ref_sum([(1, a), (1, b)])
        assert values(f - g) == ref_sum([(1, a), (-1, b)])
        assert values(-f) == ref_sum([(-1, a)])
        assert values(f * g) == ref_product(a, b)
        assert values(f * scalar) == values(scalar * f) == ref_sum([(scalar, a)])
        power = {0: Fraction(1)}
        for _ in range(k):
            power = ref_product(power, a)
        assert values(f ** k) == power
        if a:
            lead = a[max(a)]
            assert values(f.monic()) == {key: v / lead for key, v in a.items()}
            top = max(DEGREVLEX.degree(key, n) for key in a)
            assert values(f.top_form()) == {key: v for key, v in a.items()
                                            if DEGREVLEX.degree(key, n) == top}
        coeffs = {0: scalar, 1: Fraction(-3, 2), 2: 5}
        assert (values(linear_combination([f, g, h], coeffs))
                == ref_sum([(scalar, a), (Fraction(-3, 2), b), (5, c)]))
        assert parse_polynomial(str(f), n) == f

    @given(fraction_cases(), st.integers(-30, 30).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_equal_values_from_any_den_compare_and_hash_equal(self, case, k):
        n, a, _, _, _ = case
        f = Polynomial(n, a)
        g = Polynomial(n, {key: k * c for key, c in f.terms.items()}, k * f.den)
        common = lcm(*(v.denominator for v in a.values())) * abs(k)
        h = Polynomial(n, {key: int(v * common) for key, v in a.items()}, common)
        assert f == g == h and hash(f) == hash(g) == hash(h) and len({f, g, h}) == 1
        assert (g.terms, g.den) == (h.terms, h.den) == (f.terms, f.den)


# ---- Polynomial helpers that no CLI verb reaches ---------------------------
#
# The library keeps only the integer kernels behind them.

def is_homogeneous(f: Polynomial) -> bool:
    return len({sum(m) for m in tuple_terms(f)}) <= 1


def coefficient(f: Polynomial, m) -> Fraction:
    return Fraction(f.terms.get(DEGREVLEX.key(tuple(m)), 0), f.den)


def reynolds(f: Polynomial) -> Polynomial:
    """Average of f over all permutations of the variables."""
    n = f.ambient_n
    images = [apply_permutation(Permutation(p), f) for p in permutations(range(1, n + 1))]
    return linear_combination(images, dict.fromkeys(range(len(images)), Fraction(1, factorial(n))))


def apolar_pair(f: Polynomial, g: Polynomial) -> Polynomial:
    """Apply f as a constant-coefficient differential operator to g."""
    if f.ambient_n != g.ambient_n:
        raise ValueError("ambient sizes differ")
    n = f.ambient_n
    terms = {}
    for a, ca in tuple_terms(f).items():
        for b, cb in tuple_terms(g).items():
            if any(bi < ai for ai, bi in zip(a, b)):
                continue
            scale = 1
            for ai, bi in zip(a, b):
                if ai:
                    scale *= factorial(bi) // factorial(bi - ai)
            mono = tuple(bi - ai for ai, bi in zip(a, b))
            terms[mono] = terms.get(mono, 0) + ca * cb * scale
    return from_tuple_terms(n, terms)


def apolar_scalar(f: Polynomial, g: Polynomial) -> Fraction:
    """The constant term of ``apolar_pair(f, g)``: sum of f_m g_m m! over
    the shared monomials; for equal-degree forms, the whole pairing."""
    if f.ambient_n != g.ambient_n:
        raise ValueError("ambient sizes differ")
    if len(f.terms) > len(g.terms):
        f, g = g, f
    total = 0
    for m, c in f.terms.items():
        other = g.terms.get(m)
        if other is not None:
            total += c * other * prod(map(factorial, DEGREVLEX.unpack(m, f.ambient_n)))
    return Fraction(total, f.den * g.den)


def derivative(f: Polynomial, i: int) -> Polynomial:
    """Partial derivative with respect to x_i (1-based), on exponent tuples."""
    j = i - 1
    return from_tuple_terms(f.ambient_n, {m[:j] + (m[j] - 1,) + m[j + 1:]: c * m[j]
                                        for m, c in tuple_terms(f).items() if m[j]})


def integrate_duals(duals: list[Polynomial], n: int, d: int) -> list[Polynomial]:
    """Degree-d polynomials whose partials all lie in the span of ``duals``;
    ``integrate_vectors`` on their vectors."""
    return [Polynomial(n, *v) for v in integrate_vectors([(f.terms, f.den) for f in duals], n, d)]


def apolar_complement(space: list[Polynomial], others: list[Polynomial]) -> list[Polynomial]:
    """Members of the span of ``space`` that pair to zero with all of
    ``others``; ``complement_vectors`` on their vectors."""
    if not space:
        return []
    n = space[0].ambient_n
    return [Polynomial(n, *v) for v in complement_vectors([(f.terms, f.den) for f in space],
                                                          [(g.terms, g.den) for g in others], n)]


# ---- oracles: the accumulation code before every sum became one dict --------

def linear_combination_oracle(space, coeffs):
    f = Polynomial.zero(space[0].ambient_n)
    for t, c in coeffs.items():
        f = f + space[t] * c
    return f


def reynolds_oracle(f):
    n = f.ambient_n
    total = Polynomial.zero(n)
    for images in permutations(range(1, n + 1)):
        total = total + apply_permutation(Permutation(images), f)
    return total * Fraction(1, factorial(n))


def integrate_duals_oracle(duals, n, d, order=monomial_key):
    """``integrate_duals`` on ``Polynomial`` values, each cross-partial
    column ((lo, hi), order(m)): ``monomial_key``, the kernel's degrevlex
    pivots, or the identity, the exponent-tuple (lex) pivots the kernel
    once took, whose relations differ from it in sign only."""
    if not duals or d <= 0:
        return []
    partials = {(j, t): derivative(duals[t], j + 1)
                for j in range(n) for t in range(len(duals))}

    def cross_partials(j, t):
        col = {}
        for k in range(n):
            if k == j:
                continue
            lo, hi = min(j, k), max(j, k)
            sign = 1 if j == lo else -1
            for m, c in tuple_terms(partials[(k, t)]).items():
                key = ((lo, hi), order(m))
                value = col.get(key, 0) + sign * c
                if value:
                    col[key] = value
                else:
                    col.pop(key, None)
        return col

    rows = ((cross_partials(j, t), (j, t)) for j in range(n) for t in range(len(duals)))
    out = []
    for relation in nullspace_tags(rows):
        f = Polynomial.zero(n)
        for (j, t), coeff in relation.items():
            f = f + Polynomial.variable(j + 1, n) * duals[t] * coeff
        if not f.is_zero():
            out.append(f * Fraction(1, d))
    return out


def apolar_complement_oracle(space, others):
    """``apolar_complement`` on ``Fraction`` rows and ``linear_combination``."""
    rows = (({u: apolar_scalar(f, g) for u, g in enumerate(others)}, t)
            for t, f in enumerate(space))
    return [linear_combination(space, relation) for relation in nullspace_tags(rows)]


def assert_same(got, want):
    if isinstance(want, list):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same(a, b)
        return
    assert got == want
    assert str(got) == str(want)
    assert_clean(got)


def homogeneous(n, d, max_terms=4):
    """Random homogeneous forms of degree d, as a hypothesis strategy."""
    monos = degree_monomials(n, d)
    return st.dictionaries(st.sampled_from(monos),
                           st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4)),
                           max_size=max_terms).map(lambda terms: from_tuple_terms(n, terms))


class TestAccumulationOracles:
    @given(st.lists(polynomials(), min_size=1, max_size=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_linear_combination(self, space, data):
        coeffs = data.draw(st.dictionaries(st.integers(0, len(space) - 1), scalars))
        assert_same(linear_combination(space, coeffs), linear_combination_oracle(space, coeffs))

    @given(action_triples())
    @settings(max_examples=30, deadline=None)
    def test_reynolds(self, data):
        f = data[0]
        assert_same(reynolds(f), reynolds_oracle(f))

    @given(st.integers(2, 4), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_integrate_duals_random(self, n, d, data):
        duals = data.draw(st.lists(homogeneous(n, d - 1), min_size=1, max_size=4))
        assert_same(integrate_duals(duals, n, d), integrate_duals_oracle(duals, n, d))

    @given(st.lists(polynomials(), max_size=3), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_integrate_duals_mixed_degrees(self, duals, d):
        assert_same(integrate_duals(duals, 3, d), integrate_duals_oracle(duals, 3, d))

    @given(st.integers(2, 4), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_apolar_complement_random(self, n, d, data):
        space = data.draw(st.lists(homogeneous(n, d), min_size=1, max_size=4))
        others = data.draw(st.lists(homogeneous(n, d), max_size=3))
        assert_same(apolar_complement(space, others), apolar_complement_oracle(space, others))

    @given(st.integers(2, 4), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_non_integral_duals(self, n, d, data):
        """Duals with a common denominator above 1, as the generator
        spaces carry them, through integration and complement."""
        duals = data.draw(st.lists(homogeneous(n, d - 1), min_size=1, max_size=4))
        others = data.draw(st.lists(homogeneous(n, d), max_size=3))
        assume(any(f.den > 1 for f in duals))
        want = apolar_complement_oracle(integrate_duals_oracle(duals, n, d), others)
        assert_same(apolar_complement(integrate_duals(duals, n, d), others), want)

    def test_dual_spaces_of_the_n4_generator_spaces(self, monkeypatch):
        """Every integration and complement that the inverse-system route of
        the generator spaces (``every_degree_generator_space``, the tests'
        oracle for ``_minimal_generator_space``) meets on the homogeneous
        classification rows at n = 4 and 5 agrees with the oracles, on duals
        and spaces with denominators above 1."""
        import test_equivariant  # it imports this module's oracles

        seen = {"integrate": 0, "complement": 0, "fractional": 0}
        integrate_vectors = test_equivariant.integrate_vectors
        complement_vectors = test_equivariant.complement_vectors

        def integrate(duals, n, d):
            got = integrate_vectors(duals, n, d)
            want = integrate_duals_oracle([Polynomial(n, *v) for v in duals], n, d)
            assert_same([Polynomial(n, *v) for v in got], want)
            seen["integrate"] += 1
            seen["fractional"] += any(den > 1 for _, den in duals)
            return got

        def complement(space, others, n):
            got = complement_vectors(space, others, n)
            want = apolar_complement_oracle([Polynomial(n, *v) for v in space],
                                            [Polynomial(n, *v) for v in others])
            assert_same([Polynomial(n, *v) for v in got], want)
            seen["complement"] += 1
            return got

        monkeypatch.setattr(test_equivariant, "integrate_vectors", integrate)
        monkeypatch.setattr(test_equivariant, "complement_vectors", complement)
        rows = [case for n in (4, 5) for case in classification_cases(n)
                if case.ideal.is_homogeneous()]
        assert len(rows) > 10
        for case in rows:
            test_equivariant.every_degree_generator_space(case.ideal)
        assert seen["integrate"] >= 200 and seen["complement"] >= 150 and seen["fractional"] >= 100
