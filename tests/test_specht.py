import random
from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest

from symideal.combinat import (Partition, Permutation, Tableau, d_min, index,
                               partitions_of, standard_tableaux, transpose)
from symideal.ideals import Ideal
from symideal.linalg import KernelEchelon
from symideal.poly import Polynomial, apply_permutation, power_sum
from symideal.specht import (_column_group, _row_group,
                             coinvariant_isotypic_basis,
                             distinct_specht_polynomials, higher_specht,
                             specht_polynomial, tableau_monomial, vandermonde)
from test_combinat import (all_tableaux, conjugacy_class_size, from_cycle_type,
                           irreducible_character, specht_dimension)
from test_ideals import normal_form
from test_poly import apolar_scalar, assert_clean, evaluate, leading_coefficient, leading_monomial


def specht_ideal(lam: Partition) -> Ideal:
    """Ideal generated by all Specht polynomials of the given shape."""
    return Ideal(lam.n, distinct_specht_polynomials(lam))


# ---------------------------------------------------------------------------
# explicit isotypic spanning sets in degrees one to three, which no CLI verb
# reaches: the decompositions that the low-degree tests check


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


def rank_of(rows):
    tracker = KernelEchelon()
    for row in rows:
        tracker.add(row)
    return tracker.rank


def minimal_index_tableau(lam: Partition) -> Tableau:
    """The standard tableau whose index word has the smallest entry sum.

    Located by exhaustive search; it comes out as the row-by-row filling."""
    return min(standard_tableaux(lam), key=lambda s: (sum(index(s)), s.reading()))


def format_component(lam_or_tag, d: int, polys: list[Polynomial]) -> str:
    """Plain-text export: a header line then one polynomial per line."""
    lines = [f"# component={lam_or_tag} degree={d} count={len(polys)}"]
    lines.extend(str(f) for f in polys)
    return "\n".join(lines) + "\n"


def poly_rows(polys):
    return [dict(f.terms) for f in polys]


def reduction_by_single(f, g):
    """True iff g divides f, via repeated leading-term cancellation."""
    work = f
    while not work.is_zero():
        lm, lc = leading_monomial(work), leading_coefficient(work)
        glm, glc = leading_monomial(g), leading_coefficient(g)
        if any(a < b for a, b in zip(lm, glm)):
            return False
        shift = tuple(a - b for a, b in zip(lm, glm))
        work = work - (lc / glc) * Polynomial.monomial(shift) * g
    return True


class TestVandermonde:
    def test_singleton_is_one(self):
        assert vandermonde((4,), 5) == Polynomial.one(5)

    def test_worked_example(self):
        n = 9
        x = lambda i: Polynomial.variable(i, n)
        expected = (x(9) - x(2)) * (x(9) - x(5)) * (x(2) - x(5))
        assert vandermonde((9, 2, 5), n) == expected

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_degree(self, size):
        seq = tuple(range(1, size + 1))
        assert vandermonde(seq, 5).degree() == size * (size - 1) // 2

    def test_repeated_index_rejected(self):
        with pytest.raises(ValueError):
            vandermonde((1, 1), 3)


class TestSpechtPolynomial:
    def test_worked_example(self):
        t = Tableau([[9, 3, 6, 4], [2, 1, 8], [5, 7]])
        expected = (vandermonde((9, 2, 5), 9) * vandermonde((3, 1, 7), 9)
                    * vandermonde((6, 8), 9))
        assert specht_polynomial(t) == expected

    def test_single_row_is_one(self):
        assert specht_polynomial(Tableau([[2, 1, 3]])) == Polynomial.one(3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_degree_matches_minimal_occurrence(self, n):
        for lam in partitions_of(n):
            t = standard_tableaux(lam)[0]
            assert specht_polynomial(t).degree() == d_min(lam)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_span_has_module_dimension(self, n):
        for lam in partitions_of(n):
            polys = distinct_specht_polynomials(lam)
            assert rank_of(poly_rows(polys)) == specht_dimension(lam)


def fillings_oracle(lam: Partition) -> list[Polynomial]:
    """Every filling's Specht polynomial, deduplicated up to scalar."""
    return sorted({specht_polynomial(t).monic() for t in all_tableaux(lam)}, key=str)


class TestDistinctSpecht:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_fillings_oracle(self, n):
        for lam in partitions_of(n):
            assert distinct_specht_polynomials(lam) == fillings_oracle(lam)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_one_polynomial_per_set_of_columns(self, n):
        # n! / (prod_j c_j! * prod_k m_k!) for column heights c_j, m_k of them of height k
        for lam in partitions_of(n):
            heights = transpose(lam).parts
            count = factorial(n) // (prod(factorial(c) for c in heights)
                                     * prod(factorial(heights.count(k)) for k in set(heights)))
            polys = distinct_specht_polynomials(lam)
            assert len(polys) == len(set(polys)) == count

    def test_each_call_returns_a_fresh_list(self):
        lam = Partition([2, 2, 1])
        first = distinct_specht_polynomials(lam)
        second = distinct_specht_polynomials(lam)
        assert first == second and first is not second
        first.clear()
        assert second and distinct_specht_polynomials(lam) == second


class TestHigherSpecht:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            higher_specht(Tableau([[1, 2], [3]]), Tableau([[1, 2, 3]]))
        with pytest.raises(ValueError, match="must be standard"):
            higher_specht(Tableau([[1, 2], [3]]), Tableau([[2, 3], [1]]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_minimal_index_tableau_gives_specht(self, n):
        for lam in partitions_of(n):
            s0 = minimal_index_tableau(lam)
            for t in standard_tableaux(lam):
                f = higher_specht(t, s0)
                spe = specht_polynomial(t)
                ratios = {Fraction(f.terms[m] * spe.den, c * f.den) for m, c in spe.terms.items()}
                assert len(ratios) == 1
                constant = ratios.pop()
                assert constant != 0 and f == constant * spe

    @pytest.mark.parametrize("n", [3, 4])
    def test_divisibility_all_standard_pairs(self, n):
        for lam in partitions_of(n):
            tabs = standard_tableaux(lam)
            for s in tabs:
                for t in tabs:
                    f = higher_specht(t, s)
                    assert f.is_zero() or reduction_by_single(f, specht_polynomial(t))

    def test_divisibility_nonstandard_fillings(self):
        rng = random.Random(7)
        for lam in [Partition([2, 1]), Partition([2, 2]), Partition([3, 1, 1])]:
            tabs = all_tableaux(lam)
            standard = standard_tableaux(lam)
            for _ in range(3):
                t = rng.choice(tabs)
                s = rng.choice(standard)
                f = higher_specht(t, s)
                assert f.is_zero() or reduction_by_single(f, specht_polynomial(t))

    def test_column_transpositions_alternate(self):
        lam = Partition([2, 2])
        t = standard_tableaux(lam)[0]
        s = standard_tableaux(lam)[1]
        f = higher_specht(t, s)
        for col in t.columns():
            for a, b in zip(col, col[1:]):
                sigma = Permutation.transposition(a, b, lam.n)
                assert apply_permutation(sigma, f) == -f


def higher_specht_oracle(t: Tableau, s: Tableau) -> Polynomial:
    """The construction before the sums went through ``linear_combination``."""
    base = tableau_monomial(t, s)
    row_sum = Polynomial.zero(t.n)
    for f in [apply_permutation(tau, base) for tau, _ in _row_group(t)]:
        row_sum = row_sum + f
    total = Polynomial.zero(t.n)
    for sigma, sign in _column_group(t):
        total = total + sign * apply_permutation(sigma, row_sum)
    return total


def assert_same_polynomial(got: Polynomial, want: Polynomial) -> None:
    assert got == want and str(got) == str(want)
    assert_clean(got)


class TestHigherSpechtOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_standard_pair(self, n):
        for lam in partitions_of(n):
            tabs = standard_tableaux(lam)
            for t in tabs:
                for s in tabs:
                    assert_same_polynomial(higher_specht(t, s), higher_specht_oracle(t, s))

    def test_random_fillings_at_n5(self):
        rng = random.Random(5)
        for lam in partitions_of(5):
            tabs = standard_tableaux(lam)
            for _ in range(6):
                t = rng.choice(all_tableaux(lam))
                s = rng.choice(tabs)
                assert_same_polynomial(higher_specht(t, s), higher_specht_oracle(t, s))


class TestCoinvariantBasis:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_total_count_is_factorial(self, n):
        total = sum(len(coinvariant_isotypic_basis(lam)) for lam in partitions_of(n))
        assert total == factorial(n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_independence_in_coinvariant_algebra(self, n):
        coinvariant = Ideal(n, [power_sum(k, n) for k in range(1, n + 1)])
        rows = []
        for lam in partitions_of(n):
            for f in coinvariant_isotypic_basis(lam):
                rows.append(dict(normal_form(coinvariant, f).terms))
        assert rank_of(rows) == factorial(n)

    def test_alternating_shape_is_vandermonde_line(self):
        basis = coinvariant_isotypic_basis(Partition([1, 1, 1]))
        assert len(basis) == 1
        delta = vandermonde((1, 2, 3), 3)
        ratios = {Fraction(basis[0].terms[m], c) for m, c in delta.terms.items()}
        assert len(ratios) == 1


class TestSpechtIdeal:
    def test_two_box_columns_are_differences(self):
        n = 4
        ideal = specht_ideal(Partition([n - 1, 1]))
        x = lambda i: Polynomial.variable(i, n)
        expected = {x(i) - x(j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        normalized = {f.monic() for f in ideal.generators}
        assert normalized == {f.monic() for f in expected}

    def test_pair_shape_generators_vanish_on_two_value_points(self):
        n = 5
        ideal = specht_ideal(Partition([n - 2, 2]))
        point = (9, 2, 2, 2, 2)
        assert all(evaluate(g, point) == 0 for g in ideal.generators)


def isotypic_multiplicity_in_degree(lam, d):
    """Multiplicity of the lam-irreducible in the degree-d polynomials,
    via fixed monomial counts (permutation character)."""
    n = lam.n
    monos = []

    def walk(i, remaining, prefix):
        if i == n - 1:
            monos.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            walk(i + 1, remaining - e, prefix + (e,))

    walk(0, d, ())
    total = 0
    for mu in partitions_of(n):
        sigma = from_cycle_type(mu)
        fixed = sum(
            1 for m in monos
            if all(m[sigma.images[i] - 1] == m[i] for i in range(n))
        )
        total += conjugacy_class_size(mu) * irreducible_character(lam, mu) * fixed
    assert total % factorial(n) == 0
    return total // factorial(n)


class TestLowDegreeComponents:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_components_fill_the_degree_piece(self, n, d):
        tags = degree_component_tags(d, n)
        rows, expected_dim = [], 0
        for tag in tags:
            polys = lemma_component(d, n, tag)
            rank = rank_of(poly_rows(polys))
            assert rank == specht_dimension(component_type(tag, n))
            rows.extend(poly_rows(polys))
            expected_dim += rank
        from math import comb

        assert rank_of(rows) == comb(n + d - 1, d) == expected_dim

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cross_type_orthogonality(self, n):
        for d in (1, 2, 3):
            tags = degree_component_tags(d, n)
            spans = {tag: lemma_component(d, n, tag) for tag in tags}
            for i, a in enumerate(tags):
                for b in tags[i + 1:]:
                    if component_type(a, n) == component_type(b, n):
                        continue
                    assert all(
                        apolar_scalar(f, g) == 0
                        for f in spans[a] for g in spans[b]
                    )

    def test_invalid_tags_rejected(self):
        with pytest.raises(ValueError):
            lemma_component(2, 3, "(xi-xj)(xk-xl)")
        with pytest.raises(ValueError):
            lemma_component(3, 5, "(xi-xj)(xk-xl)(xs-xt)")
        with pytest.raises(ValueError):
            lemma_component(4, 5, "p1")

    def test_component_type_rejects_a_tag_below_its_least_n(self):
        assert "xi^3-xj^3" not in degree_component_tags(3, 3)
        with pytest.raises(ValueError, match="not a summand at n=3"):
            component_type("xi^3-xj^3", 3)
        assert component_type("xi^3-xj^3", 4) == Partition([3, 1])
        with pytest.raises(KeyError):
            component_type("p4", 5)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_no_occurrence_below_minimal_degree(self, n):
        for lam in partitions_of(n):
            for d in range(d_min(lam)):
                assert isotypic_multiplicity_in_degree(lam, d) == 0

    def test_export_format(self):
        text = format_component("p1", 1, lemma_component(1, 3, "p1"))
        lines = text.strip().split("\n")
        assert lines[0].startswith("# component=p1 degree=1 count=1")
        assert lines[1] == "x1 + x2 + x3"
