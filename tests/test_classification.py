from fractions import Fraction

import pytest

from symideal.classification import (classification_cases, pair_product_ideal,
                                     relation_f, relation_g, relation_p,
                                     row_case)
from symideal.combinat import Partition
from symideal.equivariant import is_permutation_module_sum
from test_combinat import total_dim
from test_poly import evaluate
from test_specht import specht_ideal


def describe(case) -> str:
    """A row case's label, size, colength and parameter, for messages."""
    text = f"row {case.label} (n={case.n}, r={case.colength})"
    if case.param is not None:
        text += f" [a:b]=[{case.param[0]}:{case.param[1]}]"
    return text


class TestCatalog:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_colengths_and_dimensions(self, n):
        for case in classification_cases(n):
            assert case.colength <= 2 * n
            assert total_dim(case.expected) == case.colength
            assert case.ideal.is_homogeneous()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_component_dims_match_permutation_structure(self, n):
        for case in classification_cases(n):
            modules = is_permutation_module_sum(case.expected)
            if case.label == "6":
                # the only entry that is not a sum of permutation modules;
                # its component is the one-dimensional translation orbit
                assert modules is None
                assert case.component_dim == 1
            else:
                assert modules is not None
                assert case.component_dim == sum(m.m for m in modules)

    def test_row_applicability(self):
        labels_3 = {case.label for case in classification_cases(3)}
        assert "7b" not in labels_3 and "12" in labels_3 and "13" in labels_3
        labels_4 = {case.label for case in classification_cases(4)}
        assert {"7b", "9", "10a", "10b", "11"} <= labels_4
        labels_5 = {case.label for case in classification_cases(5)}
        assert "8" in labels_5 and "9" not in labels_5

    def test_row_two_needs_headroom(self):
        for n in (3, 4, 5):
            rows_2 = [case for case in classification_cases(n) if case.label == "2a"]
            assert {case.colength for case in rows_2} == set(range(n + 3, 2 * n + 1))

    def test_parameter_samples_threaded_through(self):
        sample = (Fraction(2, 3), Fraction(1, 5))
        cases = [case for case in classification_cases(4, [sample]) if case.label == "5"]
        assert sample in {case.param for case in cases}

    def test_row_case_lookup(self):
        case = row_case("7c", 4, param=(Fraction(1), Fraction(0)))
        assert case.geometry == "singular"
        case = row_case("5", 4, param=(Fraction(-1), Fraction(4)))
        assert case.geometry == "singular"
        case = row_case("5", 4, param=(Fraction(1), Fraction(1)))
        assert case.geometry == "smooth"
        with pytest.raises(ValueError):
            row_case("99", 4)

    def test_guard_below_three(self):
        with pytest.raises(ValueError):
            classification_cases(2)


class TestRelationPolynomials:
    def test_degenerate_at_three_variables(self):
        assert relation_f(3).is_zero()
        assert relation_g(3).is_zero()
        assert not relation_p(3).is_zero()
        assert pair_product_ideal(3).contains(relation_p(3))

    @pytest.mark.parametrize("n", [4, 5])
    def test_contained_in_pair_products(self, n):
        ideal = pair_product_ideal(n)
        assert ideal.contains(relation_f(n))
        assert ideal.contains(relation_g(n))
        assert ideal.contains(relation_p(n))

    @pytest.mark.parametrize("n", [4, 5])
    def test_vanish_on_two_value_points(self, n):
        # independent check: the ideal is the vanishing ideal of these points
        points = []
        for b in (3, -2):
            for pos in range(n):
                point = [1] * n
                point[pos] = b
                points.append(tuple(point))
        for f in (relation_f(n), relation_g(n), relation_p(n)):
            assert all(evaluate(f, p) == 0 for p in points)

    def test_pair_product_ideal_matches_specht_ideal(self):
        for n in (4, 5):
            assert pair_product_ideal(n) == specht_ideal(Partition([n - 2, 2]))
