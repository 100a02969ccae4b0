import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial, inf, lcm, prod
from unittest import mock

import pytest

from symideal.cli import _random_parameters
from symideal.combinat import (IsotypicDecomposition, Partition, Permutation, dominates,
                               kostka_decomposition, kostka_number,
                               multinomial, partitions_of)
from symideal.classification import classification_cases, row_case
from symideal import equivariant, poly, tanisaki
from symideal.equivariant import (decompose_quotient, is_permutation_module_sum, is_symmetric,
                                  tangent_dimension, _fixed_columns, _fixed_dimension,
                                  _hom_basis_equivariant,
                                  _invariant_functionals, _meet, _minimal_generator_space,
                                  _orbit_keys, _read, _swap_columns, _word)
from symideal.ideals import DEGREVLEX, Ideal, _Quotient, maximal_power, orbit_ideal
from symideal.linalg import KernelEchelon, nullspace_tags
from symideal.poly import (Polynomial, Vector, apply_permutation, combine_vectors,
                           complement_vectors, integrate_vectors, linear_combination, power_sum,
                           swap_key)
from symideal.tanisaki import tanisaki_ideal
from test_classification import describe
from test_combinat import (conjugacy_class_size, from_cycle_type, group_generators,
                           irreducible_character, specht_dimension, total_dim)
from test_linalg import solve_in_span
from test_ideals import standard_monomials
from test_poly import (apolar_complement_oracle, integrate_duals_oracle, is_homogeneous,
                       permute_monomial)


def x(i, n):
    return Polynomial.variable(i, n)


SHAPES_TO_FIVE = [lam.parts for n in range(1, 6) for lam in partitions_of(n)]
SHAPES_OF_SIX = [(5, 1), (4, 2), (3, 3)]
SHAPES_OF_SIX_TO_180 = [lam.parts for lam in partitions_of(6) if multinomial(lam) <= 180]


@lru_cache(maxsize=None)
def tanisaki_point(parts: tuple[int, ...]) -> Ideal:
    """One Tanisaki ideal per shape, shared by the oracle tests below."""
    return tanisaki_ideal(Partition(list(parts)))


def homogeneous_rows(n: int) -> list:
    return [case for case in classification_cases(n) if case.ideal.is_homogeneous()]


def _action(ideal: Ideal, sigma: Permutation) -> list[dict]:
    """The quotient coordinates of sigma(m) for each standard monomial m."""
    return [ideal.coordinates(Polynomial.monomial(permute_monomial(sigma, m)))
            for m in standard_monomials(ideal)]


def decompose_quotient_oracle(ideal: Ideal) -> IsotypicDecomposition:
    """``decompose_quotient`` by characters: one representative permutation
    per conjugacy class is traced on the standard-monomial basis, per
    degree, and the traces are paired with the character table."""
    n = ideal.ambient_n
    basis = standard_monomials(ideal)
    classes = partitions_of(n)
    degrees = sorted({sum(m) for m in basis})
    traces: dict[Partition, dict[int, Fraction]] = {}
    for mu in classes:
        per_degree: dict[int, Fraction] = dict.fromkeys(degrees, 0)
        action = _action(ideal, from_cycle_type(mu))
        for m, image in zip(basis, action):
            per_degree[sum(m)] += image.get(DEGREVLEX.key(m), 0)
        traces[mu] = per_degree
    mult: dict[Partition, int] = {}
    graded_mult: dict[int, dict[Partition, int]] = {d: {} for d in degrees}
    for lam in classes:
        for d in degrees:
            value = sum(conjugacy_class_size(mu) * irreducible_character(lam, mu) * traces[mu][d]
                        for mu in classes) / Fraction(factorial(n))
            assert value.denominator == 1 and value >= 0
            if value:
                graded_mult[d][lam] = int(value)
                mult[lam] = mult.get(lam, 0) + int(value)
    return IsotypicDecomposition.from_dict(mult, graded_mult if ideal.is_homogeneous() else None)


def permutation_module_sum_oracle(rho: IsotypicDecomposition) -> list[Partition] | None:
    """``is_permutation_module_sum`` peeling every partition, dominance-minimal
    first, and checking that nothing remains."""
    if not rho.multiplicities:
        return []
    n = rho.multiplicities[0][0].n
    remaining = dict(rho.multiplicities)
    coefficients: dict[Partition, int] = {}
    for mu in reversed(partitions_of(n)):
        value = remaining.get(mu, 0)
        if value < 0:
            return None
        if value:
            coefficients[mu] = value
            for lam in partitions_of(n):
                k = kostka_number(lam, mu)
                if k:
                    remaining[lam] = remaining.get(lam, 0) - k * value
    if any(v != 0 for v in remaining.values()):
        return None
    out: list[Partition] = []
    for mu, count in sorted(coefficients.items(), reverse=True):
        out.extend([mu] * count)
    return out


def generator_polynomials(ideal: Ideal) -> tuple[dict[int, list[Polynomial]], int]:
    """``_minimal_generator_space`` with each generator as a ``Polynomial``."""
    graded, N = _minimal_generator_space(ideal)
    return {d: [Polynomial(ideal.ambient_n, *v) for v in vs] for d, vs in graded.items()}, N


def graded_generators(ideal: Ideal) -> tuple[list[Vector], list[int]]:
    graded_gens, _ = _minimal_generator_space(ideal)
    gens = [g for d, gs in sorted(graded_gens.items()) for g in gs]
    return gens, [d for d, gs in sorted(graded_gens.items()) for _ in gs]


def numerator_polynomials(gens: list[Vector], n: int) -> list[Polynomial]:
    """The numerators of the generator vectors, on which the hom basis is
    given, as ``Polynomial`` values."""
    return [Polynomial(n, terms) for terms, _ in gens]


def generator_space_oracle(ideal: Ideal) -> tuple[dict[int, list[Polynomial]], int]:
    """``_minimal_generator_space`` with its degree loop running to the
    vanishing degree N instead of the top Groebner degree, on ``Polynomial``
    values throughout instead of integer vectors."""
    n = ideal.ambient_n
    hf = ideal.hilbert_function()
    N = len(hf)
    duals: list[Polynomial] = [Polynomial.one(n)]
    generators: dict[int, list[Polynomial]] = {}
    for d in range(1, N + 1):
        w_space = integrate_duals_oracle(duals, n, d)
        hf_d = hf[d] if d < len(hf) else 0
        rows = ((ideal.coordinates(f), t) for t, f in enumerate(w_space))
        new_gens = [linear_combination(w_space, relation) for relation in nullspace_tags(rows)]
        assert len(new_gens) == len(w_space) - hf_d
        if d < N:
            duals = apolar_complement_oracle(w_space, new_gens)
            assert len(duals) == hf_d
        if new_gens:
            generators[d] = new_gens
    return generators, N


def every_degree_generator_space(ideal: Ideal) -> tuple[dict[int, list[Vector]], int]:
    """``_minimal_generator_space`` reading W_d in R/I and taking its
    complement at every degree up to the top Groebner degree, also where
    the reduced basis has no element."""
    n, quotient = ideal.ambient_n, ideal._quotient()
    N = len(ideal.hilbert_function())
    duals: list[Vector] = [({0: 1}, 1)]
    generators: dict[int, list[Vector]] = {}
    for d in range(1, max(DEGREVLEX.degree(g[0][0], n) for g in quotient.basis) + 1):
        w_space = integrate_vectors(duals, n, d)
        hf_d = len(quotient.graded.get(d, ()))
        relations = nullspace_tags((quotient.coordinates(sorted(terms.items(), reverse=True)), t)
                                   for t, (terms, _) in enumerate(w_space))
        assert len(relations) == len(w_space) - hf_d
        if d < N:
            duals = complement_vectors(w_space, [combine_vectors(w_space, relation)
                                                 for relation in relations], n)
            assert len(duals) == hf_d
        if relations:
            generators[d] = [combine_vectors(w_space, r) for r in relations]
    return generators, N


def square_of(ideal: Ideal) -> Ideal:
    gb = ideal.groebner_basis()
    return Ideal(ideal.ambient_n, [a * b for idx, a in enumerate(gb) for b in gb[idx:]])


def hom_basis_oracle(ideal: Ideal, gens: list[Polynomial], gen_degrees: list[int]) -> list[dict]:
    """``_hom_basis_equivariant`` as one nullspace of all r*|N1| entries of
    a map from the generator space into the quotient: it must commute with
    a transposition and the long cycle, whose action on each degree piece
    of the generators comes from ``solve_in_span``."""
    n = ideal.ambient_n
    basis = standard_monomials(ideal)
    sigmas = group_generators(n)
    rho_action = [_action(ideal, sigma) for sigma in sigmas]
    by_degree: dict = {}
    for i, d in enumerate(gen_degrees):
        by_degree.setdefault(d, []).append(i)
    gen_action = []  # per sigma: {(j, i): c} meaning sigma(v_i) = sum_j c v_j
    for sigma in sigmas:
        matrix: dict = {}
        for d, indices in by_degree.items():
            rows = [gens[i].terms for i in indices]
            for i in indices:
                coeffs = solve_in_span(rows, apply_permutation(sigma, gens[i]).terms)
                assert coeffs is not None
                for pos, c in enumerate(coeffs):
                    if c:
                        matrix[(indices[pos], i)] = c
        gen_action.append(matrix)

    def equivariance_column(p: int, i: int) -> dict:
        col: dict = {}
        kb = DEGREVLEX.key(basis[p])
        for s in range(len(sigmas)):
            for row, c in rho_action[s][p].items():
                col[(s, row, i)] = col.get((s, row, i), 0) + c
            for (jj, i_prime), c in gen_action[s].items():
                if jj == i:
                    col[(s, kb, i_prime)] = col.get((s, kb, i_prime), 0) - c
        return col

    return nullspace_tags((equivariance_column(p, i), (DEGREVLEX.key(b), i))
                          for i in range(len(gens)) for p, b in enumerate(basis))


def relation_step_oracle(ideal: Ideal) -> tuple[int, int]:
    """(tangent_dim, n2_count) by the tagged relation loop: in every degree
    up to N + top generator degree - 1, a nullspace of the products b*v_i
    modulo I^2, each relation expanded through every hom-basis element into
    constraint rows, one polynomial normal form per (t, i, b)."""
    n = ideal.ambient_n
    vectors, gen_degrees = graded_generators(ideal)
    N = len(ideal.hilbert_function())
    gens = numerator_polynomials(vectors, n)
    hom_basis, _ = _hom_basis_equivariant(ideal, vectors, gen_degrees)
    k = len(hom_basis)
    hom_values = [[Polynomial(n, {b: c for (b, i2), c in phi.items() if i2 == i})
                   for i in range(len(gens))] for phi in hom_basis]
    square = square_of(ideal)
    by_degree: dict = {}
    for m in standard_monomials(ideal):
        by_degree.setdefault(sum(m), []).append(m)
    n2_count = 0
    images: dict = {}
    constraint_rank = KernelEchelon()
    for d in range(min(gen_degrees) + 1, N + max(gen_degrees)):
        pairs = [(i, b) for i, e_i in enumerate(gen_degrees) for b in by_degree.get(d - e_i, [])]
        relations = nullspace_tags(
            (square.coordinates(Polynomial.monomial(b) * gens[i]), (i, b)) for i, b in pairs)
        n2_count += len(relations)
        for relation in relations:
            rows: dict = {}
            for t in range(k):
                total: dict = {}
                for (i, b), coeff in relation.items():
                    if not hom_values[t][i].is_zero():
                        if (t, i, b) not in images:
                            images[(t, i, b)] = ideal.coordinates(
                                Polynomial.monomial(b) * hom_values[t][i])
                        for m, c in images[(t, i, b)].items():
                            total[m] = total.get(m, 0) + c * coeff
                for m, c in total.items():
                    if c:
                        rows.setdefault(m, {})[t] = c
            for row in rows.values():
                constraint_rank.add(row)
    return k - constraint_rank.rank, n2_count


def young_subgroup(mu: Partition) -> list[Permutation]:
    """Every permutation of 1..n that keeps each block of mu."""
    blocks, start = [], 1
    for part in mu.parts:
        blocks.append(range(start, start + part))
        start += part
    return [Permutation([i for block in images for i in block])
            for images in product(*map(permutations, blocks))]


def relation_group(ideal: Ideal) -> Partition:
    """The group of the relation step: the dominance meet of the types of
    R/I, by search, or the trivial group when it has fewer than n elements."""
    n = ideal.ambient_n
    meet = meet_oracle([kappa for kappa, _ in decompose_quotient(ideal).multiplicities])
    return meet if prod(map(factorial, meet.parts)) >= n else Partition((1,) * n)


def orbit_row_count(ideal: Ideal, mu: Partition, gens: list[Polynomial],
                    gen_degrees: list[int], degrees) -> int:
    """The rows of the relation step counted from their definition: in each
    degree d of ``degrees`` and generator degree e, one per S_mu-orbit of
    degree-(d - e) monomials holding a standard one, times the dimension
    of the coinvariants on V_e of the stabilizer of a member b.  Orbits
    and stabilizers by brute permutation within the blocks of mu, the
    coinvariants as dim V_e less the rank of the sigma*v - v."""
    group, standard = young_subgroup(mu), standard_monomials(ideal)
    coinvariants: dict[tuple, int] = {}
    count = 0
    for d in degrees:
        for e in sorted(set(gen_degrees)):
            space = [g for g, e_i in zip(gens, gen_degrees) if e_i == e]
            seen: set = set()
            for b in (b for b in standard if sum(b) == d - e):
                if b in seen:
                    continue
                seen.update(permute_monomial(sigma, b) for sigma in group)
                stabilizer = tuple(sigma for sigma in group if permute_monomial(sigma, b) == b)
                if (e, stabilizer) not in coinvariants:
                    echelon = KernelEchelon()
                    for sigma in stabilizer:
                        for v in space:
                            echelon.add((apply_permutation(sigma, v) - v).terms)
                    coinvariants[e, stabilizer] = len(space) - echelon.rank
                count += coinvariants[e, stabilizer]
    return count


def pair_route(ideal: Ideal) -> tuple[int, int, int]:
    """(tangent_dim, n2_count, rows) by the relation step with one row per
    pair (b, v_i), b standard, read through the invariant functionals of
    the group ``tangent_dimension`` takes (``equivariant._meet``, patched
    or not): the rows that its rows must span."""
    n, quotient = ideal.ambient_n, ideal._quotient()
    gens, gen_degrees = graded_generators(ideal)
    N, top = len(ideal.hilbert_function()), max(gen_degrees)
    hom_basis, _ = _hom_basis_equivariant(ideal, gens, gen_degrees)
    k = len(hom_basis)
    values: list[dict] = [{} for _ in gens]  # phi_t(den*v_i) scaled to integers
    for t, phi in enumerate(hom_basis):
        scale = lcm(*(c.denominator for c in phi.values()))
        for (m, i), c in phi.items():
            values[i].setdefault(m, []).append((t, int(c * scale)))
    mu = equivariant._meet([kappa for kappa, _ in decompose_quotient(ideal).multiplicities])
    mu = mu if prod(map(factorial, mu.parts)) >= n else Partition((1,) * n)
    word, orbit = _word(mu), _orbit_keys(mu, n)
    inside = [a for a in range(n - 1) if word[a] == word[a + 1]]
    square, quotient_functionals, start = quotient.square(N + top), {}, 0
    for e, keys in quotient.graded.items():
        quotient_functionals[e], count = _invariant_functionals(
            quotient.swaps, keys, orbit, inside, start)
        start += count
    n2_count = rows = 0
    constraint_rank = KernelEchelon()
    for d in range(min(gen_degrees) + 1, N + top):
        pairs = [(i, b) for i, e in enumerate(gen_degrees) for b in quotient.graded.get(d - e, [])]
        relations = len(pairs) - len(square.graded.get(d, [])) + len(quotient.graded.get(d, []))
        n2_count += relations
        if d > N + 1 or relations == 0:
            continue
        rows += len(pairs)
        keys = square.graded.get(d, [])
        functionals, _ = _invariant_functionals(square.swapped(keys, inside), keys, orbit, inside)
        echelon = KernelEchelon()
        for i, b in pairs:
            row = _read([(m + b, c) for m, c in gens[i][0].items()], functionals, orbit, square)
            for m, coeffs in values[i].items():
                e = DEGREVLEX.degree(b + m, n)
                for g, v in _read([(b + m, 1)], quotient_functionals[e], orbit,
                                  quotient).items() if e < N else ():
                    for t, c in coeffs:
                        row[-1 - g * k - t] = row.get(-1 - g * k - t, 0) + c * v
            echelon.add(row)
        for col, (row, _) in echelon.pivots.items():
            if col < 0:  # one constraint per quotient functional g
                constraints: dict = {}
                for column, c in row.items():
                    g, t = divmod(-1 - column, k)
                    constraints.setdefault(g, {})[t] = c
                for constraint in constraints.values():
                    constraint_rank.add(constraint)
    return k - constraint_rank.rank, n2_count, rows


def polynomial_relation_step_oracle(ideal: Ideal) -> tuple[tuple, Ideal]:
    """The augmented elimination on ``Polynomial`` values and coordinates,
    with no group and no skipped degree: I^2 as an ``Ideal`` of rational
    products of the monic reduced basis, each row the coordinates of b*v_i
    in it, each image NF_I(b*m) read from a monomial.  Returns
    ((tangent_dim, n2_count, details, pairs), I^2): ``details`` counts the
    rows that ``tangent_dimension`` eliminates in the degrees with
    relations (``orbit_row_count`` under ``relation_group``), and ``pairs``
    the products b*v_i there, one row each here."""
    n = ideal.ambient_n
    vectors, gen_degrees = graded_generators(ideal)
    N = len(ideal.hilbert_function())
    gens = numerator_polynomials(vectors, n)
    hom_basis, unknowns = _hom_basis_equivariant(ideal, vectors, gen_degrees)
    k = len(hom_basis)
    values: list[dict] = [{} for _ in gens]  # phi_t(v_i) as {m: [(t, c)]}
    for t, phi in enumerate(hom_basis):
        for (m, i), c in phi.items():
            values[i].setdefault(DEGREVLEX.unpack(m, n), []).append((t, c))
    square = square_of(ideal)
    square_hf = dict(enumerate(square.hilbert_function()))
    by_degree: dict = {}
    for m in standard_monomials(ideal):
        by_degree.setdefault(sum(m), []).append(m)
    n2_count = products = 0
    normal_forms: dict = {}
    constraint_rank = KernelEchelon()
    degrees = []  # those with relations, up to N + 1
    for d in range(min(gen_degrees) + 1, N + max(gen_degrees)):
        pairs = [(i, b) for i, e_i in enumerate(gen_degrees) for b in by_degree.get(d - e_i, [])]
        relations = len(pairs) - square_hf.get(d, 0) + len(by_degree.get(d, []))
        n2_count += relations
        if d > N + 1:
            continue
        if relations:
            products += len(pairs)
            degrees.append(d)
        echelon = KernelEchelon()
        for i, b in pairs:
            row = square.coordinates(Polynomial.monomial(b) * gens[i])
            for m, coeffs in values[i].items():
                bm = tuple(u + v for u, v in zip(b, m))
                if sum(bm) < N and bm not in normal_forms:
                    normal_forms[bm] = ideal.coordinates(Polynomial.monomial(bm))
                for key, v in normal_forms.get(bm, {}).items():
                    for t, c in coeffs:
                        row[-1 - key * k - t] = row.get(-1 - key * k - t, 0) + c * v
            echelon.add(row)
        assert len(pairs) - sum(col >= 0 for col in echelon.pivots) == relations
        for col, (row, _) in echelon.pivots.items():
            if col < 0:
                rows: dict = {}
                for column, c in row.items():
                    key, t = divmod(-1 - column, k)
                    rows.setdefault(key, {})[t] = c
                for constraint in rows.values():
                    constraint_rank.add(constraint)
    rows = orbit_row_count(ideal, relation_group(ideal), gens, gen_degrees, degrees)
    details = {"products": rows, "hom_unknowns": unknowns}
    return (k - constraint_rank.rank, n2_count, details, products), square


def meet_oracle(types: list[Partition]) -> Partition:
    """The greatest lower bound of partitions of n in dominance order, by
    search over all partitions of n."""
    below = [nu for nu in partitions_of(types[0].n)
             if all(dominates(kappa, nu) for kappa in types)]
    greatest = [nu for nu in below if all(dominates(nu, omega) for omega in below)]
    assert len(greatest) == 1
    return greatest[0]


def generator_space_multiplicities(ideal: Ideal) -> dict[Partition, int]:
    """Multiplicities of the irreducibles in the minimal generator space N1,
    from class-representative traces on each degree piece."""
    n = ideal.ambient_n
    graded_gens, _ = generator_polynomials(ideal)
    traces = {}
    for mu in partitions_of(n):
        sigma = from_cycle_type(mu)
        trace = Fraction(0)
        for gs in graded_gens.values():
            rows = [g.terms for g in gs]
            for i, g in enumerate(gs):
                trace += solve_in_span(rows, apply_permutation(sigma, g).terms)[i]
        traces[mu] = trace
    mult = {}
    for lam in partitions_of(n):
        value = sum(conjugacy_class_size(mu) * irreducible_character(lam, mu) * traces[mu]
                    for mu in traces) / factorial(n)
        assert value.denominator == 1 and value >= 0
        if value:
            mult[lam] = int(value)
    return mult


class TestIsSymmetric:
    def test_monomial_powers(self):
        assert is_symmetric(maximal_power(3, 2))

    def test_single_variable_is_not(self):
        assert not is_symmetric(Ideal(2, [x(1, 2)]))

    def test_verdict_is_kept_and_still_enforced(self, monkeypatch):
        asymmetric = Ideal(2, [x(1, 2), x(2, 2) ** 2])  # homogeneous, colength 2
        assert not is_symmetric(asymmetric)

        def refuse(*args):
            raise AssertionError("the verdict was checked a second time")

        # a second check would read the permuted basis through the record
        monkeypatch.setattr(asymmetric._quotient(), "coordinates", refuse)
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

    @pytest.mark.parametrize("n", [3, 4, 5])
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

    @pytest.mark.parametrize("ideal", [
        orbit_ideal((1, 2, 3)),
        orbit_ideal((0, 0, 1, 2)),
        Ideal(3, [x(1, 3) - 1, x(2, 3) - 2, x(3, 3) - 3]),  # one point of an orbit
        orbit_ideal((1, 2, 3)) + Ideal(3, [x(1, 3) * x(2, 3) - 2]),  # part of the orbit
    ], ids=["orbit", "orbit-with-repeats", "point", "part-of-orbit"])
    def test_inhomogeneous_bases(self, ideal):
        # reduced bases with terms of several degrees, symmetric or not
        verdict = all(ideal.contains(apply_permutation(sigma, g))
                      for sigma in group_generators(ideal.ambient_n)
                      for g in ideal.generators)
        assert not ideal.is_homogeneous()
        assert is_symmetric(ideal) == verdict


class TestSwapActions:
    """The S_n action kept on the ideal, where a standard image skips its
    normal form, is the map that takes every normal form."""

    @staticmethod
    def assert_matches_normal_forms(ideal):
        n = ideal.ambient_n
        keys = [DEGREVLEX.key(m) for m in standard_monomials(ideal)]
        actions = ideal._quotient().swaps
        assert len(actions) == n - 1
        for a, action in enumerate(actions):
            expected = _action(ideal, Permutation.transposition(a + 1, a + 2, n))
            assert list(action) == keys
            for key, coords in zip(keys, expected):
                assert action[key] == coords
                assert list(map(type, action[key].values())) == list(map(type, coords.values()))

    @pytest.mark.parametrize("parts", SHAPES_TO_FIVE)
    def test_tanisaki_points(self, parts):
        self.assert_matches_normal_forms(tanisaki_point(parts))

    @pytest.mark.parametrize("point", [(1, 2, 3, 4), (Fraction(1, 2), 0, 0, 3)])
    def test_orbit_ideals(self, point):
        self.assert_matches_normal_forms(orbit_ideal(point))

    def test_unit_ideal(self):
        ideal = Ideal(3, [Polynomial.one(3)])
        assert ideal._quotient().swaps == [{}, {}]
        self.assert_matches_normal_forms(ideal)


def fresh_functionals(record, keys: list[int], orbit, inside: list[int],
                      start: int = 0) -> tuple[dict[int, dict], int]:
    """``_invariant_functionals`` on fresh normal forms: the coordinates of
    s_a*s taken in the record per inside swap s_a and standard s, as the
    relation step read R/I before the ideal's swap table served it."""
    columns: dict[int, dict] = {orbit(s): {} for s in keys}
    for s in keys:
        for a in inside:
            nf = record.coordinates([(swap_key(s, a, record.n), 1)])
            for key, c in {**nf, s: nf.get(s, 0) - 1}.items():
                column = columns[orbit(key)]
                column[(a, s)] = column.get((a, s), 0) + c
    solutions = nullspace_tags((column, rep) for rep, column in columns.items())
    return ({rep: {j: L[rep] for j, L in enumerate(solutions, start) if rep in L}
             for rep in columns}, len(solutions))


def graded_oracle_keys(ideal: Ideal) -> dict[int, list[int]]:
    """The standard keys grouped by the degree of their exponent tuples."""
    pieces: dict[int, list[int]] = {}
    for m in standard_monomials(ideal):
        pieces.setdefault(sum(m), []).append(DEGREVLEX.key(m))
    return pieces


def catalog_ideals(n: int) -> list[tuple[str, Ideal]]:
    return [(describe(case), case.ideal)
            for case in classification_cases(n, _random_parameters(0))]


class TestQuotientTables:
    """The tangent step reads R/I through the ideal's one swap table and the
    record's one grouping of standard keys by degree."""

    @staticmethod
    def assert_table_functionals_are_fresh(ideal: Ideal, label: str = "") -> None:
        # every Young subgroup, each piece numbered on from the last, as
        # tangent_dimension numbers those of R/I
        n, record = ideal.ambient_n, ideal._quotient()
        pieces = record.graded if ideal.is_homogeneous() else {0: record.standard}
        for mu in partitions_of(n):
            word, orbit = _word(mu), _orbit_keys(mu, n)
            inside = [a for a in range(n - 1) if word[a] == word[a + 1]]
            start = 0
            for d, keys in pieces.items():
                got = _invariant_functionals(ideal._quotient().swaps, keys, orbit, inside, start)
                assert got == fresh_functionals(record, keys, orbit, inside, start), (label, mu, d)
                start += got[1]

    @pytest.mark.parametrize("parts", SHAPES_TO_FIVE)
    def test_tanisaki_functionals_match_fresh_normal_forms(self, parts):
        self.assert_table_functionals_are_fresh(tanisaki_point(parts))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_catalog_functionals_match_fresh_normal_forms(self, n):
        for label, ideal in catalog_ideals(n):
            self.assert_table_functionals_are_fresh(ideal, label)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_graded_is_the_counted_hilbert_function(self, n):
        ideals = [(str(lam), tanisaki_ideal(lam)) for lam in partitions_of(n)] + catalog_ideals(n)
        for label, ideal in ideals:
            record, want = ideal._quotient(), graded_oracle_keys(ideal)
            assert record.graded == want and list(record.graded) == sorted(want), label
            assert record.hilbert_function() == tuple(
                len(want.get(d, [])) for d in range(max(want, default=-1) + 1)), label
            if ideal.is_homogeneous():
                assert ideal.hilbert_function() == record.hilbert_function(), label

    def test_swapped_normal_forms_are_taken_once_per_ideal(self, monkeypatch):
        # decompose_quotient and the hom step read the table, and the relation
        # step the table for R/I and fresh normal forms for I^2 only
        ideal = tanisaki_ideal(Partition([2, 2, 1]))
        tabled, swapped = [], _Quotient.swapped

        def counted(record, keys, swaps):
            tabled.append(record)
            return swapped(record, keys, swaps)

        monkeypatch.setattr(_Quotient, "swapped", counted)
        tangent_dimension(ideal)
        tangent_dimension(ideal)
        assert tabled.count(ideal._quotient()) == 1
        assert all(record.below < inf for record in tabled if record is not ideal._quotient())
        assert len(tabled) > 2

    @pytest.mark.parametrize("parts", [(2, 1, 1), (2, 2, 1), (3, 1, 1), (4, 2)])
    def test_quotient_coset_images_are_built_once_per_word(self, parts, monkeypatch):
        ideal = tanisaki_point(parts)
        action = ideal._quotient().swaps
        words: list[tuple] = []
        coset_images = equivariant._coset_images

        def counted(vector, word, actions):
            if actions is action:
                words.append(word)
            return coset_images(vector, word, actions)

        monkeypatch.setattr(equivariant, "_coset_images", counted)
        _hom_basis_equivariant(ideal, *graded_generators(ideal))
        standard = ideal._quotient().standard
        columns = _swap_columns(action, standard)
        for word in set(words):  # one image list per member of a basis of (R/I)^{S_mu}
            assert words.count(word) == len(
                nullspace_tags(_fixed_columns(columns, standard, word))), word
        assert words


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
            assert total_dim(decompose_quotient(ideal)) == ideal.colength()

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            decompose_quotient(Ideal(2, [x(1, 2), x(2, 2) ** 2]))

    def test_graded_layers_present_for_homogeneous(self):
        ideal = maximal_power(3, 2)
        decomposition = decompose_quotient(ideal)
        layers = dict(decomposition.graded)
        assert set(layers) == {0, 1}


def graded_decomposition(ideal: Ideal) -> tuple:
    decomposition = decompose_quotient(ideal)
    return decomposition.multiplicities, decomposition.graded


def graded_oracle(ideal: Ideal) -> tuple:
    decomposition = decompose_quotient_oracle(ideal)
    return decomposition.multiplicities, decomposition.graded


class TestYoungFixedDecomposition:
    """Young-fixed dimensions and one Kostka solve against the class traces
    paired with the character table, graded layers included."""

    @pytest.mark.parametrize("parts", SHAPES_TO_FIVE + SHAPES_OF_SIX_TO_180)
    def test_tanisaki_points(self, parts):
        ideal = tanisaki_point(parts)
        assert graded_decomposition(ideal) == graded_oracle(ideal)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_catalog_rows(self, n, seed):
        for case in classification_cases(n, _random_parameters(seed)):
            assert graded_decomposition(case.ideal) == graded_oracle(case.ideal), describe(case)

    @pytest.mark.parametrize("ideal", [
        orbit_ideal((7, 2, 2)), orbit_ideal((7, 2, 2, 2)), orbit_ideal((7, 2, 2, 2, 2)),
        orbit_ideal((1, 2, 3)), Ideal(3, [Polynomial.one(3)]),
        Ideal(3, [power_sum(k, 3) for k in range(1, 4)]),
        Ideal(2, [x(1, 2) + x(2, 2) + x(1, 2) ** 2, x(1, 2) + x(2, 2), x(1, 2) * x(2, 2)]),
    ], ids=["orbit3", "orbit4", "orbit5", "free_orbit", "unit", "coinvariant",
            "homogeneous_ideal_inhomogeneous_generators"])
    def test_special_ideals(self, ideal):
        assert graded_decomposition(ideal) == graded_oracle(ideal)

    @pytest.mark.parametrize("parts", SHAPES_TO_FIVE + [(3, 1, 1, 1)])
    def test_fixed_dimensions_are_ranks(self, parts, monkeypatch):
        # each Young-fixed dimension is the number of fixed vectors, and the
        # decomposition counts it from a rank, with no kernel relation tagged
        record = tanisaki_point(parts)._quotient()
        for keys in record.graded.values():
            columns = _swap_columns(record.swaps, keys)
            for mu in partitions_of(sum(parts)):
                word = _word(mu)
                assert (_fixed_dimension(columns, keys, word)
                        == len(nullspace_tags(_fixed_columns(columns, keys, word))))
        tags, add = [], KernelEchelon.add
        monkeypatch.setattr(KernelEchelon, "add",
                            lambda self, row, tag=None: tags.append(tag) or add(self, row, tag))
        record.decomposition = None
        assert graded_decomposition(tanisaki_point(parts)) == graded_oracle(tanisaki_point(parts))
        assert tags and set(tags) == {None}

    def test_swap_columns_are_built_once_per_piece(self, monkeypatch):
        # and merged for every Young subgroup
        ideal = tanisaki_ideal(Partition([3, 1, 1]))
        built, swap_columns = [], equivariant._swap_columns
        monkeypatch.setattr(equivariant, "_swap_columns",
                            lambda actions, keys: built.append(keys) or swap_columns(actions, keys))
        assert graded_decomposition(ideal) == graded_oracle(ideal)
        assert built == list(ideal._quotient().graded.values())

    def test_negative_multiplicity_is_an_internal_error(self, monkeypatch):
        import symideal.equivariant as equivariant

        # with K = 2 below the diagonal, the trivial quotient gives m_(2,1) = 1 - 2
        monkeypatch.setattr(equivariant, "kostka_number", lambda mu, lam: 2)
        with pytest.raises(ArithmeticError, match="negative multiplicity"):
            decompose_quotient(maximal_power(3, 1))


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_random_multiplicities_match_the_oracle(self, n):
        rng = random.Random(n)
        shapes = partitions_of(n)
        found = 0
        for _ in range(60):
            # a sum of permutation modules, then maybe one multiplicity moved
            mult = {lam: 0 for lam in shapes}
            for mu in shapes:
                count = rng.randint(0, 2)
                for lam in shapes:
                    mult[lam] += count * kostka_number(lam, mu)
            if rng.random() < 0.5:
                lam = rng.choice(shapes)
                mult[lam] = max(0, mult[lam] + rng.choice((-1, 1)))
            rho = IsotypicDecomposition.from_dict(mult)
            expected = permutation_module_sum_oracle(rho)
            assert is_permutation_module_sum(rho) == expected, mult
            found += expected is not None
        assert 0 < found < 60


def assert_generator_space(ideal: Ideal, oracle: dict[int, list], label: str = "") -> None:
    """The contract of ``_minimal_generator_space``: each V_d lies in I_d and
    is S_n-stable, it meets J_d (J the ideal of the generators below d) only
    in 0, V generates I, and the counts per degree are those of ``oracle``,
    an inverse-system route's generators."""
    n = ideal.ambient_n
    graded, N = _minimal_generator_space(ideal)
    assert N == len(ideal.hilbert_function()), label
    assert {d: len(vs) for d, vs in graded.items()} == \
        {d: len(vs) for d, vs in oracle.items()}, label
    lower: list[Polynomial] = []
    for d, vectors in graded.items():
        polys = [Polynomial(n, *v) for v in vectors]
        assert all(is_homogeneous(f) and f.degree() == d and ideal.contains(f)
                   for f in polys), label
        span = KernelEchelon()
        assert all(span.add(terms) is None for terms, _ in vectors), label
        assert all(span.add({swap_key(k, a, n): c for k, c in terms.items()}) is not None
                   for a in range(n - 1) for terms, _ in vectors), label
        below = Ideal(n, lower)
        assert not nullspace_tags((below.coordinates(f), t) for t, f in enumerate(polys)), label
        lower += polys
    assert Ideal(n, lower) == ideal, label


def assert_tangent_on_both_routes(ideal: Ideal, label: str = "") -> None:
    """``tangent_dimension`` gives the same report numbers whether it reads
    V from ``_minimal_generator_space`` or from the test-side route."""
    def numbers(report):
        return report.tangent_dim, report.n1_dims, report.n2_count, report.syzygy_bound

    got = numbers(tangent_dimension(ideal))
    with mock.patch.object(equivariant, "_minimal_generator_space",
                           every_degree_generator_space):
        assert numbers(tangent_dimension(ideal)) == got, label


class TestMinimalGenerators:
    """V_d, the complement of U_d ∩ J_d in the S_n-span U_d of members of the
    reduced basis G_d, against the inverse-system routes kept here."""

    def test_coinvariant_generators_by_degree(self):
        n = 3
        ideal = Ideal(n, [power_sum(k, n) for k in range(1, n + 1)])
        graded, vanishing_degree = generator_polynomials(ideal)
        assert {d: len(gs) for d, gs in graded.items()} == {1: 1, 2: 1, 3: 1}
        assert vanishing_degree == 4
        for d, gs in graded.items():
            for g in gs:
                assert is_homogeneous(g) and g.degree() == d
                assert ideal.contains(g)

    def test_generates_the_ideal(self):
        case = row_case("6", 4)
        graded, _ = generator_polynomials(case.ideal)
        flat = [g for gs in graded.values() for g in gs]
        assert Ideal(4, flat) == case.ideal

    @pytest.mark.parametrize("parts", SHAPES_TO_FIVE)
    def test_tanisaki_points(self, parts):
        ideal = tanisaki_point(parts)
        assert_generator_space(ideal, generator_space_oracle(ideal)[0])

    @pytest.mark.parametrize("parts", SHAPES_TO_FIVE)
    def test_tanisaki_points_tangent_on_both_routes(self, parts):
        # colength 1 included: there I = m, V = the linear forms, and the
        # tangent space Hom(m/m^2, Q)^(S_n) has dimension 1
        assert_tangent_on_both_routes(tanisaki_point(parts))

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows(self, n, seed):
        for case in classification_cases(n, _random_parameters(seed)):
            if not case.ideal.is_homogeneous():
                continue
            assert_generator_space(case.ideal, every_degree_generator_space(case.ideal)[0],
                                   describe(case))
            assert_tangent_on_both_routes(case.ideal, describe(case))

    def test_row_1_takes_the_power_sum(self):
        # (x_i - x_j) + m^r: U_r is spanned by the x_i^r, and p_r is the
        # complement of their differences, which lie in J
        for r in range(2, 11):
            graded, _ = _minimal_generator_space(row_case("1", 5, r).ideal)
            assert [Polynomial(5, *v).monic() for v in graded[r]] == [power_sum(r, 5)]

    def test_no_inverse_system_is_integrated(self):
        # at 1^6 the span of G_d in R/J replaces the integration of duals
        ideal = tanisaki_point((1,) * 6)
        ideal._quotient().standard
        with mock.patch.object(poly, "integrate_vectors",
                               side_effect=AssertionError("integrated")) as integrate, \
                mock.patch.object(tanisaki, "integrate_vectors", integrate):
            graded, _ = _minimal_generator_space(ideal)
        assert integrate.call_count == 0 and not hasattr(equivariant, "integrate_vectors")
        assert {d: len(vs) for d, vs in graded.items()} == dict.fromkeys(range(1, 7), 1)

    def test_spans_stop_at_the_count(self):
        # coinvariants of S_6: each G_d is one element, whose S_6-span meets
        # R/J in the single e_d direction; one orbit is spanned per degree
        ideal = tanisaki_point((1,) * 6)
        with mock.patch.object(equivariant, "complement_vectors",
                               wraps=equivariant.complement_vectors) as complement:
            _minimal_generator_space(ideal)
        assert [len(call.args[0]) - len(call.args[1]) for call in complement.call_args_list] \
            == [1] * 6

    def test_a_dropped_generator_is_an_internal_error(self):
        # V_d must have HF_(R/J)(d) - HF_(R/I)(d) members: here the 6 quadrics
        complement = equivariant.complement_vectors

        def dropping(space, others, n):
            return complement(space, others, n)[1:]

        with mock.patch.object(equivariant, "complement_vectors", dropping):
            with pytest.raises(ArithmeticError, match="degree 2 gave 5 generators, not 6"):
                _minimal_generator_space(row_case("4a", 3).ideal)


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

    @pytest.mark.parametrize("parts", [(2, 1, 1), (3, 1, 1), (2, 2, 1)])
    def test_details_count_the_relation_step(self, parts):
        lam = Partition(parts)
        first = tangent_dimension(tanisaki_ideal(lam))
        second = tangent_dimension(tanisaki_ideal(lam))
        assert first.details == second.details
        assert set(first.details) == {"products", "images", "constraint_rows", "hom_unknowns",
                                      "mu", "quotient_functionals", "square_functionals"}
        k = first.equivariant_hom_dim
        # hom_unknowns: phi(v_j) in a fixed subspace per module generator,
        # at least the answer and at most every entry of a map N1 -> R/I
        r, n1 = first.ideal.colength(), sum(first.n1_dims.values())
        assert k <= first.details["hom_unknowns"] <= r * n1
        # products: one elimination row per S_mu-orbit of multipliers b and
        # coinvariant of its stabilizer on V_e, at most one per b*v_i, up to
        # degree N + 1, in the degrees where the Hilbert functions leave
        # relations; images: the orbits of monomials b*m read in R/I
        basis = standard_monomials(first.ideal)
        hf = first.ideal.hilbert_function()
        square_hf = square_of(first.ideal).hilbert_function()
        N = len(hf)
        first_degree = min(first.n1_dims) + 1
        pairs: dict[int, int] = {}
        for e, count in first.n1_dims.items():
            for b in basis:
                pairs[sum(b) + e] = pairs.get(sum(b) + e, 0) + count
        relations = {d: p - (square_hf[d] if d < len(square_hf) else 0) + (hf[d] if d < N else 0)
                     for d, p in pairs.items()}
        degrees = [d for d in sorted(pairs) if first_degree <= d <= N + 1 and relations[d]]
        gens, gen_degrees = graded_generators(first.ideal)
        assert first.details["products"] == orbit_row_count(
            first.ideal, relation_group(first.ideal), numerator_polynomials(gens, lam.n),
            gen_degrees, degrees)
        assert first.details["products"] <= sum(pairs[d] for d in degrees)
        assert set(first.details["square_functionals"]) == set(degrees)
        products = {tuple(x + y for x, y in zip(b, m)) for b in basis for m in basis}
        assert 0 < first.details["images"] <= sum(sum(m) < N for m in products)
        assert first.details["constraint_rows"] >= k - first.tangent_dim
        assert_functionals_count_the_fixed_vectors(first, square_of(first.ideal))

    def test_report_serialization(self):
        report = tangent_dimension(maximal_power(3, 2))
        record = report.record()
        assert json.loads(json.dumps(record)) == record
        assert set(record) == {"ideal_hash", "n1_graded_dims", "n2_count",
                               "syzygy_degree_bound", "tangent_dim", "wall_time_s", "generators"}
        assert record["generators"] == [str(g) for g in report.ideal.generators]
        assert record["tangent_dim"] == report.tangent_dim
        assert report.n1_dims == {2: 6}


class TestRelationStep:
    """The augmented elimination against the tagged relation loop, and the
    Hilbert-function relation count against nullspaces."""

    @pytest.mark.parametrize("parts", SHAPES_TO_FIVE + SHAPES_OF_SIX)
    def test_tanisaki_points_match_the_tagged_loop(self, parts):
        ideal = tanisaki_point(parts)
        report = tangent_dimension(ideal)
        assert (report.tangent_dim, report.n2_count) == relation_step_oracle(ideal)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rows_match_the_tagged_loop(self, n):
        for case in homogeneous_rows(n):
            report = tangent_dimension(case.ideal)
            assert ((report.tangent_dim, report.n2_count)
                    == relation_step_oracle(case.ideal)), describe(case)

    def test_a_non_standard_orbit_least_multiplier(self, monkeypatch):
        # no catalog row and no Tanisaki point of n <= 6 takes a multiplier
        # b, least in its S_mu-orbit, outside the standard monomials; with
        # the group forced to S_3, this ideal takes x2*x3^2, a leading
        # monomial, and its rows must still span those of all pairs under
        # the same group
        n = 3
        f = x(1, n) ** 3 - 2 * x(1, n) ** 2 * x(3, n)
        orbit = {apply_permutation(sigma, f) for sigma in young_subgroup(Partition([n]))}
        ideal = Ideal(n, sorted(orbit, key=str)) + maximal_power(n, 5)
        monkeypatch.setattr(equivariant, "_meet", lambda types: Partition([n]))
        report = tangent_dimension(ideal)
        tangent, n2_count, pairs = pair_route(ideal)
        assert (report.tangent_dim, report.n2_count) == (tangent, n2_count)
        gens, gen_degrees = graded_generators(ideal)
        degrees = sorted(report.details["square_functionals"])
        assert report.details["products"] == orbit_row_count(
            ideal, Partition([n]), numerator_polynomials(gens, n), gen_degrees, degrees) < pairs
        standard = standard_monomials(ideal)
        least = {min((permute_monomial(sigma, b) for sigma in young_subgroup(Partition([n]))),
                     key=DEGREVLEX.key)
                 for d in degrees for e in gen_degrees for b in standard if sum(b) == d - e}
        assert least - set(standard) == {(0, 1, 2)}

    @pytest.mark.parametrize("parts", [(1, 1, 1), (2, 1, 1), (1, 1, 1, 1), (3, 1, 1),
                                       (2, 2, 1), (2, 1, 1, 1), (4, 2)])
    def test_hilbert_function_count_is_the_nullspace_count(self, parts):
        # in every degree up to N + top generator degree - 1, past the cut
        # at N + 1 where the elimination stops
        ideal = tanisaki_point(parts)
        vectors, gen_degrees = graded_generators(ideal)
        N = len(ideal.hilbert_function())
        gens = numerator_polynomials(vectors, ideal.ambient_n)
        top = N + max(gen_degrees) - 1
        assert top > N + 1
        square = square_of(ideal)
        hf, square_hf = ideal.hilbert_function(), square.hilbert_function()
        by_degree: dict = {}
        for m in standard_monomials(ideal):
            by_degree.setdefault(sum(m), []).append(m)
        total = 0
        for d in range(min(gen_degrees) + 1, top + 1):
            pairs = [(i, b) for i, e in enumerate(gen_degrees) for b in by_degree.get(d - e, [])]
            nullity = len(nullspace_tags(
                (square.coordinates(Polynomial.monomial(b) * gens[i]), None) for i, b in pairs))
            hf_d = hf[d] if d < len(hf) else 0
            square_hf_d = square_hf[d] if d < len(square_hf) else 0
            assert nullity == len(pairs) - (square_hf_d - hf_d), d
            total += nullity
        assert tangent_dimension(ideal).n2_count == total

    @staticmethod
    def assert_exits_3(argv: list[str], degree: int, capsys) -> None:
        from symideal.cli import run

        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 3
        assert capsys.readouterr().err == ("symideal tangent: internal invariant broken: "
                                           f"relation count mismatch in degree {degree}\n")

    def test_count_mismatch_exits_3(self, monkeypatch, capsys):
        # x1^3, a multiple of x1^2, the leading monomial of (x1+x2+x3)^2,
        # counted as a standard monomial of I^2: degree 3 keeps a relation
        # count >= 0 (6 products, 5 functionals of I^2, the coordinates as
        # |S_(2,1)| < 3, none of R/I), but the rows reach rank 4, not 5
        from symideal.ideals import _Quotient

        square = _Quotient.square

        def miscounted_square(self, below=inf):
            record = square(self, below)
            record.standard = record.standard + [DEGREVLEX.key((3, 0, 0))]
            return record

        monkeypatch.setattr(_Quotient, "square", miscounted_square)
        self.assert_exits_3(["tangent", "--n", "3", "--tanisaki", "2,1"], 3, capsys)

    def test_dropped_functional_exits_3(self, monkeypatch, capsys):
        # the last invariant functional of I^2 in degree 5 left out, where
        # R/I has functionals too (N = 7)
        counted = equivariant._invariant_functionals

        def dropped(actions, keys, orbit, inside, start=0):
            functionals, count = counted(actions, keys, orbit, inside, start)
            # R/I numbers its functionals on from those of lower degrees:
            # in degree 5 only those of I^2 start at 0
            if start == 0 and DEGREVLEX.degree(keys[0], 5) == 5:
                return {rep: {j: v for j, v in entries.items() if j != count - 1}
                        for rep, entries in functionals.items()}, count - 1
            return functionals, count

        monkeypatch.setattr(equivariant, "_invariant_functionals", dropped)
        self.assert_exits_3(["tangent", "--n", "5", "--tanisaki", "2,1,1,1"], 5, capsys)


class TestMeet:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_meet_is_the_greatest_lower_bound(self, n):
        shapes = partitions_of(n)
        for lam in shapes:
            assert _meet([lam]) == lam
            for mu in shapes:
                assert _meet([lam, mu]) == meet_oracle([lam, mu]), (lam, mu)
        rng = random.Random(n)
        for _ in range(20):
            types = rng.sample(shapes, min(len(shapes), rng.randint(3, 5)))
            assert _meet(types) == meet_oracle(types), types

    def test_tanisaki_points_meet_at_their_shape(self):
        # R/I = M^lam has types kappa >= lam, lam among them
        for parts in SHAPES_TO_FIVE + SHAPES_OF_SIX:
            types = [kappa for kappa, _ in decompose_quotient(tanisaki_point(parts)).multiplicities]
            assert _meet(types) == Partition(parts)


def assert_functionals_count_the_fixed_vectors(report, square: Ideal, label: str = "") -> None:
    """The relation step's group is the dominance meet mu of the types of
    R/I, or the trivial group when |S_mu| < n, and every type dominates it;
    in each degree its invariant functionals of R/I and of R/I^2 number
    dim (piece)^{S_mu} = sum over kappa of K_{kappa,mu} * m_{kappa,d}
    (Frobenius reciprocity), with m_{kappa,d} from the graded
    decompositions of I and of I^2."""
    types = [kappa for kappa, _ in decompose_quotient(report.ideal).multiplicities]
    mu = Partition(report.details["mu"])
    assert mu == relation_group(report.ideal), label
    assert all(dominates(kappa, mu) for kappa in types), label
    for piece, counts in ((report.ideal, report.details["quotient_functionals"]),
                          (square, report.details["square_functionals"])):
        fixed = {d: sum(kostka_number(kappa, mu) * m for kappa, m in layer)
                 for d, layer in decompose_quotient(piece).graded}
        for d, count in counts.items():
            assert count == fixed.get(d, 0), (label, d)
    assert set(report.details["quotient_functionals"]) == set(
        range(len(report.ideal.hilbert_function()))), label


def assert_matches_the_polynomial_route(ideal: Ideal, label: str = "") -> None:
    """The packed I^2 has the reduced basis and Hilbert function of the
    rational products' ideal, and ``tangent_dimension`` the counts of the
    ``Polynomial`` relation step, which runs with no group, one row per
    S_mu-orbit and coinvariant (``orbit_row_count``, at most one per pair),
    and the functional counts of ``assert_functionals_count_the_fixed_vectors``.
    I^2 built below N + 1 or below the syzygy bound is the full I^2 in the
    lower degrees: its basis elements, standard monomials and Hilbert
    function."""
    report = tangent_dimension(ideal)
    (tangent, n2_count, details, pairs), square = polynomial_relation_step_oracle(ideal)
    packed = ideal._quotient().square()
    assert packed.basis == square._quotient().basis, label
    assert packed.hilbert_function() == square.hilbert_function(), label
    assert (report.tangent_dim, report.n2_count) == (tangent, n2_count), label
    assert {key: report.details[key] for key in details} == details, label
    assert details["products"] <= pairs, label
    assert_functionals_count_the_fixed_vectors(report, square, label)
    n, N = ideal.ambient_n, len(ideal.hilbert_function())
    for below in sorted({N + 1, report.syzygy_bound}):
        bounded = ideal._quotient().square(below)
        assert bounded.basis == [g for g in packed.basis
                                 if DEGREVLEX.degree(g[0][0], n) < below], (label, below)
        assert bounded.standard == [k for k in packed.standard
                                    if DEGREVLEX.degree(k, n) < below], (label, below)
        assert bounded.hilbert_function() == packed.hilbert_function()[:below], (label, below)


class TestPackedSquare:
    """I^2 from products of packed basis elements, full and truncated at a
    degree bound, and the relation rows read from shifted keys, against
    the rational route they replace."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_catalog_rows(self, n, seed):
        for case in classification_cases(n, _random_parameters(seed)):
            assert_matches_the_polynomial_route(case.ideal, describe(case))

    @pytest.mark.parametrize("parts", SHAPES_TO_FIVE + [(4, 1, 1), (3, 3), (2, 2, 2)])
    def test_tanisaki_points(self, parts):
        # the oracle also checks the relation count in the degrees the skip leaves out
        assert_matches_the_polynomial_route(tanisaki_point(parts))

    def test_inhomogeneous_square(self):
        # I^2 of an orbit ideal: the products are not homogeneous, so they
        # take no degree bound
        ideal = orbit_ideal((1, 2, 2))
        assert ideal._quotient().square().basis == square_of(ideal)._quotient().basis
        with pytest.raises(ValueError, match="homogeneous"):
            ideal._quotient().square(3)

    def test_coordinates_past_the_bound_raise(self):
        record = tanisaki_point((2, 1))._quotient()
        bounded, x1_squared = record.square(3), [(DEGREVLEX.key((2, 0, 0)), 1)]
        assert bounded.coordinates(x1_squared) == record.square().coordinates(x1_squared)
        with pytest.raises(ValueError, match="past the record's bound 3"):
            bounded.coordinates([(DEGREVLEX.key((3, 0, 0)), 1), (DEGREVLEX.key((2, 0, 0)), 1)])


def schur_pairing(ideal: Ideal) -> int:
    # dim Hom_{S_n}(N1, R/I) = sum over mu of m_mu(N1) * m_mu(R/I)
    quotient = decompose_quotient(ideal).as_dict()
    return sum(m * quotient.get(mu, 0)
               for mu, m in generator_space_multiplicities(ideal).items())


def hom_rank(*bases: list[dict]) -> int:
    echelon = KernelEchelon()
    for basis in bases:
        for phi in basis:
            echelon.add(phi)
    return echelon.rank


@pytest.mark.parametrize("parts", SHAPES_TO_FIVE + SHAPES_OF_SIX + [(4, 1, 1), (3, 2, 1)])
def test_hom_dimension_is_the_schur_pairing(parts):
    ideal = tanisaki_point(parts)
    assert len(_hom_basis_equivariant(ideal, *graded_generators(ideal))[0]) == schur_pairing(ideal)


@pytest.mark.parametrize("n", [3, 4])
def test_row_hom_dimension_is_the_schur_pairing(n):
    for case in homogeneous_rows(n):
        hom, _ = _hom_basis_equivariant(case.ideal, *graded_generators(case.ideal))
        assert len(hom) == schur_pairing(case.ideal), describe(case)


class TestHomBasis:
    """The Frobenius-reciprocity hom step against the nullspace of all
    r*|N1| entries."""

    @pytest.mark.parametrize("parts", SHAPES_TO_FIVE + SHAPES_OF_SIX + [(4, 1, 1)])
    def test_tanisaki_span_is_the_oracle_span(self, parts):
        ideal = tanisaki_point(parts)
        gens, gen_degrees = graded_generators(ideal)
        new, _ = _hom_basis_equivariant(ideal, gens, gen_degrees)
        old = hom_basis_oracle(ideal, numerator_polynomials(gens, ideal.ambient_n), gen_degrees)
        assert hom_rank(new) == hom_rank(old) == hom_rank(new, old) == len(new) == len(old)

    @pytest.mark.parametrize("n", [3, 4])
    def test_row_span_is_the_oracle_span(self, n):
        for case in homogeneous_rows(n):
            gens, gen_degrees = graded_generators(case.ideal)
            new, _ = _hom_basis_equivariant(case.ideal, gens, gen_degrees)
            old = hom_basis_oracle(case.ideal, numerator_polynomials(gens, case.n), gen_degrees)
            assert (hom_rank(new) == hom_rank(old) == hom_rank(new, old)
                    == len(new) == len(old)), describe(case)
