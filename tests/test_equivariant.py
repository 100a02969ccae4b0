import json

import pytest

from symideal.combinat import (IsotypicDecomposition, Partition,
                               kostka_decomposition, partitions_of,
                               specht_dimension)
from symideal.classification import row_case
from symideal.equivariant import (decompose_quotient, group_generators,
                                  is_permutation_module_sum, is_symmetric,
                                  tangent_dimension,
                                  _minimal_generator_space)
from symideal.ideals import Ideal, maximal_power, orbit_ideal
from symideal.poly import Polynomial, apply_permutation, power_sum
from symideal.tanisaki import tanisaki_ideal


def x(i, n):
    return Polynomial.variable(i, n)


class TestIsSymmetric:
    def test_monomial_powers(self):
        assert is_symmetric(maximal_power(3, 2))

    def test_single_variable_is_not(self):
        assert not is_symmetric(Ideal(2, [x(1, 2)]))

    def test_verdict_is_kept_and_still_enforced(self):
        asymmetric = Ideal(2, [x(1, 2), x(2, 2) ** 2])  # homogeneous, colength 2
        assert not is_symmetric(asymmetric)
        asymmetric.contains = None  # a second check would call it
        assert not is_symmetric(asymmetric)
        with pytest.raises(ValueError):
            decompose_quotient(asymmetric)
        with pytest.raises(ValueError):
            tangent_dimension(asymmetric)

    @pytest.mark.parametrize("n", [3, 4])
    def test_classification_entries(self, n):
        from symideal.classification import classification_cases

        for case in classification_cases(n):
            assert is_symmetric(case.ideal), case.label

    @pytest.mark.parametrize("n", [3, 4])
    def test_basis_verdict_matches_the_generator_check(self, n):
        from symideal.classification import classification_cases

        def generator_check(ideal):
            return all(ideal.contains(apply_permutation(sigma, g))
                       for sigma in group_generators(ideal.ambient_n)
                       for g in ideal.generators)

        # in the second, the first basis element p1 is stable and x1^2 is not
        asymmetric = [Ideal(n, [x(1, n)] + [x(i, n) ** 2 for i in range(2, n + 1)]),
                      Ideal(n, [power_sum(1, n), x(1, n) ** 2])]
        # generators that are not stable one by one, spanning a stable ideal
        stable = Ideal(n, [x(i, n) for i in range(1, n + 1)])
        for ideal in asymmetric:
            assert not is_symmetric(ideal) and not generator_check(ideal)
        assert is_symmetric(stable) and generator_check(stable)
        for case in classification_cases(n):
            assert is_symmetric(case.ideal) == generator_check(case.ideal), case.label


class TestDecomposeQuotient:
    def test_coinvariant_algebra_is_regular(self):
        n = 3
        ideal = Ideal(n, [power_sum(k, n) for k in range(1, n + 1)])
        expected = IsotypicDecomposition.from_dict(
            {lam: specht_dimension(lam) for lam in partitions_of(n)})
        assert decompose_quotient(ideal) == expected

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_two_value_orbit_is_permutation_module(self, n):
        point = tuple([7] + [2] * (n - 1))
        ideal = orbit_ideal(point)
        assert decompose_quotient(ideal) == kostka_decomposition(Partition([n - 1, 1]))

    def test_point(self):
        ideal = maximal_power(3, 1)
        assert decompose_quotient(ideal).as_dict() == {Partition([3]): 1}

    @pytest.mark.parametrize("n", [3, 4])
    def test_total_dimension(self, n):
        for lam in partitions_of(n):
            ideal = tanisaki_ideal(lam)
            assert decompose_quotient(ideal).total_dim() == ideal.colength()

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            decompose_quotient(Ideal(2, [x(1, 2), x(2, 2) ** 2]))

    def test_graded_layers_present_for_homogeneous(self):
        ideal = maximal_power(3, 2)
        decomposition = decompose_quotient(ideal)
        layers = dict(decomposition.graded)
        assert set(layers) == {0, 1}


class TestPermutationModuleSum:
    def test_simple_peel(self):
        n = 4
        rho = IsotypicDecomposition.from_dict(
            {Partition([n]): 2, Partition([n - 1, 1]): 1})
        assert is_permutation_module_sum(rho) == [Partition([n]), Partition([n - 1, 1])]

    def test_doubled_standard_is_not(self):
        n = 4
        rho = IsotypicDecomposition.from_dict(
            {Partition([n]): 1, Partition([n - 1, 1]): 2})
        assert is_permutation_module_sum(rho) is None

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_round_trip(self, n):
        for lam in partitions_of(n):
            assert is_permutation_module_sum(kostka_decomposition(lam)) == [lam]


class TestMinimalGenerators:
    def test_coinvariant_generators_by_degree(self):
        n = 3
        ideal = Ideal(n, [power_sum(k, n) for k in range(1, n + 1)])
        graded, vanishing_degree = _minimal_generator_space(ideal)
        assert {d: len(gs) for d, gs in graded.items()} == {1: 1, 2: 1, 3: 1}
        assert vanishing_degree == 4
        for d, gs in graded.items():
            for g in gs:
                assert g.is_homogeneous() and g.degree() == d
                assert ideal.contains(g)

    def test_generates_the_ideal(self):
        case = row_case("6", 4)
        graded, _ = _minimal_generator_space(case.ideal)
        flat = [g for gs in graded.values() for g in gs]
        assert Ideal(4, flat) == case.ideal


class TestTangentDimension:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            tangent_dimension(Ideal(2, [x(1, 2) - 1, x(2, 2)]))
        with pytest.raises(ValueError):
            tangent_dimension(Ideal(2, [x(1, 2)]))

    def test_point_has_translation_direction_only(self):
        report = tangent_dimension(maximal_power(3, 1))
        assert report.tangent_dim == 1

    @pytest.mark.parametrize(
        "label,n,r,expected",
        [("1", 3, 1, 1), ("1", 3, 4, 4), ("3", 3, None, 2), ("3", 4, None, 2),
         ("12", 3, None, 3), ("13", 3, None, 4), ("4a", 3, None, 4),
         ("4a", 4, None, 4), ("4b", 4, None, 3), ("6", 3, None, 1),
         ("6", 4, None, 1), ("7a", 3, None, 4), ("7a", 4, None, 4),
         ("9", 4, None, 2), ("10a", 4, None, 3), ("10b", 4, None, 3)],
    )
    def test_reference_values(self, label, n, r, expected):
        case = row_case(label, n, r)
        assert tangent_dimension(case.ideal).tangent_dim == expected

    def test_translation_lower_bound(self):
        for label, n in [("6", 4), ("7a", 3), ("12", 3)]:
            report = tangent_dimension(row_case(label, n).ideal)
            assert report.tangent_dim >= 1

    def test_stable_under_longer_syzygy_scan(self):
        for label, n in [("6", 4), ("7a", 3), ("4b", 4)]:
            ideal = row_case(label, n).ideal
            base = tangent_dimension(ideal)
            extended = tangent_dimension(ideal, extra_syzygy_degrees=2)
            assert base.tangent_dim == extended.tangent_dim

    def test_details_count_the_relation_step(self):
        lam = Partition((2, 1, 1))
        first = tangent_dimension(tanisaki_ideal(lam))
        second = tangent_dimension(tanisaki_ideal(lam))
        assert first.details == second.details
        assert set(first.details) == {"products", "images", "constraint_rows"}
        k, gens = first.equivariant_hom_dim, sum(first.n1_dims.values())
        colength = first.ideal.colength()
        assert 0 < first.details["images"] <= k * gens * colength
        assert first.details["products"] > 0
        assert first.details["constraint_rows"] >= k - first.tangent_dim

    def test_report_serialization(self):
        report = tangent_dimension(maximal_power(3, 2))
        record = json.loads(report.to_json())
        assert set(record) == {"ideal_hash", "n1_graded_dims", "n2_count",
                               "syzygy_degree_bound", "tangent_dim", "wall_time_s"}
        assert record["tangent_dim"] == report.tangent_dim
        assert report.n1_dims == {2: 6}
