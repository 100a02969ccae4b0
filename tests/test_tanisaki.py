from fractions import Fraction
from itertools import combinations
from math import comb, inf
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symideal import ideals, tanisaki
from symideal.cli import run
from symideal.combinat import (Partition, Permutation, R_k, d_min, dominates, multinomial,
                               partitions_of, r_lambda, transpose)
from symideal.equivariant import decompose_quotient
from symideal.ideals import Ideal, maximal_power
from symideal.linalg import KernelEchelon
from symideal.poly import (DEGREVLEX, W, Polynomial, Vector, apply_permutation,
                          elementary_symmetric, partial_terms, power_sum)
from symideal.specht import distinct_specht_polynomials
from symideal.tanisaki import (MODES, inclusion_chain_check,
                               power_sum_specht_ideal, tanisaki_ideal,
                               tilde_ideal,
                               _apolar_generators, _dual_layers,
                               _subset_elementary_generators)
from test_poly import (apolar_complement_oracle, apolar_pair, degree_monomials, derivative,
                       from_tuple_terms, integrate_duals_oracle, is_homogeneous, monomial_key,
                       tuple_terms)


def homogeneous_membership(f: Polynomial, generators: list[Polynomial]) -> bool:
    """Degreewise membership test for homogeneous data, no Groebner basis.

    Decides whether f lies in the span of the degree-matched multiples of
    the generators; valid because everything is homogeneous.  An oracle
    for the Groebner route, checked against it in TestDegreewiseMembership.
    """
    if f.is_zero():
        return True
    if not is_homogeneous(f):
        raise ValueError("degreewise membership needs homogeneous input")
    n = f.ambient_n
    d = f.degree()
    span = KernelEchelon()
    for g in generators:
        if not is_homogeneous(g):
            raise ValueError("degreewise membership needs homogeneous generators")
        e = g.degree()
        if e > d or g.is_zero():
            continue
        for mono in degree_monomials(n, d - e):
            span.add(dict((Polynomial.monomial(mono) * g).terms))
    return span.add(dict(f.terms)) is not None


def dual_layer_oracle(spechts: list[Polynomial], n: int, d: int) -> list[Polynomial]:
    """Greedy basis of the degree-d derivatives: every operator of degree
    D - d applied to every Specht polynomial through ``apolar_pair``."""
    ech = KernelEchelon()
    basis: list[Polynomial] = []
    if not spechts:
        return basis
    operators = [Polynomial.monomial(m) for m in degree_monomials(n, spechts[0].degree() - d)]
    for s in spechts:
        for op in operators:
            image = apolar_pair(op, s)
            if ech.add(dict(image.terms)) is None:
                basis.append(image)
    return basis


@st.composite
def homogeneous_spaces(draw):
    """One to three nonzero forms of one degree <= 4 in n <= 3 variables,
    with Fraction coefficients."""
    n = draw(st.integers(1, 3))
    monomials = degree_monomials(n, draw(st.integers(0, 4)))
    coefficients = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
    forms = st.dictionaries(st.sampled_from(monomials), coefficients, min_size=1)
    return [from_tuple_terms(n, terms) for terms in draw(st.lists(forms, min_size=1, max_size=3))]


def fraction_layers_oracle(spechts: list[Polynomial], n: int) -> list[list[Polynomial]]:
    """``_dual_layers`` on ``Polynomial`` images with ``Fraction`` coefficients,
    taking the image of every operator whose first parent had a nonzero
    image, kept or not."""
    top = spechts[0].degree()
    level = [{(0,) * n: s} for s in spechts]
    layers: list[list[Polynomial]] = []
    for k in range(top + 1):
        if k:
            steps = []
            for a in degree_monomials(n, k):
                j = next(i for i, e in enumerate(a) if e)
                steps.append((a, a[:j] + (a[j] - 1,) + a[j + 1:], j + 1))
            for t, images in enumerate(level):
                following = {}
                for a, parent, i in steps:
                    source = images.get(parent)
                    if source is not None:
                        image = derivative(source, i)
                        if image.terms:
                            following[a] = image
                level[t] = following
        ech = KernelEchelon()
        layers.append([image for images in level for image in images.values()
                       if ech.add(image.terms) is None])
    return layers[::-1]


def dual_layers_oracle(spechts: list[Polynomial], n: int) -> list[list[Vector]]:
    """``_dual_layers`` by a scan of every operator of each degree for every
    Specht polynomial, each taken when all its parents were kept."""
    kept, layers = [{0: s.terms} for s in spechts], []  # degree 0: the operator 1
    for k in range(spechts[0].degree() + 1):
        steps = [(key, [(key - (1 << W * n) + (1 << W * j), j) for j, e in enumerate(a) if e])
                 for a in degree_monomials(n, k) for key in [DEGREVLEX.key(a)]]
        ech, layer = KernelEchelon(), []
        for t, held in enumerate(kept):
            following = {}
            for a, parents in steps:
                if all(p in held for p, _ in parents):
                    image = partial_terms(held[parents[0][0]], parents[0][1], n) if k else held[a]
                    if image and ech.add(image) is None:
                        following[a] = image
                        layer.append((image, spechts[t].den))
            kept[t] = following
        layers.append(layer)
    return layers[::-1]


def apolar_generators_oracle(lam: Partition, order=monomial_key) -> list[Polynomial]:
    """``_apolar_generators`` on ``Polynomial`` values throughout, the
    integration pivoting on ((lo, hi), order(m)) (``integrate_duals_oracle``)."""
    n = lam.n
    layers = fraction_layers_oracle(distinct_specht_polynomials(lam), n)
    gens: list[Polynomial] = []
    for d in range(1, d_min(lam) + 1):
        gens += apolar_complement_oracle(integrate_duals_oracle(layers[d - 1], n, d, order),
                                         layers[d])
    return gens


def assert_layers_match_the_oracle(spechts: list[Polynomial], n: int) -> None:
    layers = _dual_layers(spechts, n)
    assert layers == dual_layers_oracle(spechts, n)
    assert len(layers) == spechts[0].degree() + 1
    for d, layer in enumerate(layers):
        assert [Polynomial(n, *v) for v in layer] == dual_layer_oracle(spechts, n, d)
    assert ([[Polynomial(n, *v) for v in layer] for layer in layers]
            == fraction_layers_oracle(spechts, n))


class TestDualLayers:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_oracle(self, n):
        for lam in partitions_of(n):
            assert_layers_match_the_oracle(distinct_specht_polynomials(lam), n)

    @pytest.mark.parametrize("parts", [(4, 2), (3, 3), (4, 1, 1), (3, 2, 1), (2, 2, 2),
                                       (3, 1, 1, 1)])
    def test_matches_the_oracle_at_six(self, parts):
        assert_layers_match_the_oracle(distinct_specht_polynomials(Partition(list(parts))), 6)

    @settings(max_examples=60, deadline=None)
    @given(homogeneous_spaces())
    def test_random_forms_match_the_oracle(self, spechts):
        assert_layers_match_the_oracle(spechts, spechts[0].ambient_n)

    @settings(max_examples=60, deadline=None)
    @given(homogeneous_spaces())
    def test_each_image_is_one_apolar_pair(self, spechts):
        # the nonzero derivatives taken, in order, are a subsequence of the
        # nonzero images x^a . s of every operator degree k >= 1, Specht
        # polynomials outermost, each scaled by the common denominator of s;
        # in degree k at most n per image kept in degree k - 1
        n, top = spechts[0].ambient_n, spechts[0].degree()
        taken = []  # (operator degree, derivative)

        def recording(terms, j, ambient):
            image = partial_terms(terms, j, ambient)
            k = top + 1 - Polynomial(n, terms).degree()
            taken.append((k, Polynomial(n, image)))
            return image

        with mock.patch.object(tanisaki, "partial_terms", recording):
            layers = _dual_layers(spechts, n)
        expected = iter([(k, f) for k in range(1, top + 1) for s in spechts
                         for a in degree_monomials(n, k)
                         for f in [apolar_pair(Polynomial.monomial(a), s) * s.den]
                         if not f.is_zero()])
        assert all(pair in expected for pair in taken if not pair[1].is_zero())
        for k in range(1, top + 1):
            assert sum(e == k for e, _ in taken) <= n * len(layers[top - k + 1])

    @pytest.mark.parametrize("parts", [lam.parts for n in range(1, 7) for lam in partitions_of(n)]
                             + [(3, 2, 1, 1), (2, 2, 2, 1)])
    def test_matches_the_scan(self, parts):
        # the children of the kept operators give the layers, vectors, order
        # and dens, that a scan of every operator gives
        lam = Partition(list(parts))
        spechts = distinct_specht_polynomials(lam)
        assert _dual_layers(spechts, lam.n) == dual_layers_oracle(spechts, lam.n)

    @pytest.mark.parametrize("parts", [(3, 2, 1), (3, 1, 1, 1), (2, 2, 2), (1, 1, 1, 1, 1, 1),
                                       (2, 2, 2, 1)])
    def test_candidates_are_at_most_n_per_kept_image(self, parts):
        # the scan checked every operator of each degree for every Specht
        # polynomial: 13,845 candidates for 120 images at (3,1,1,1)
        lam, checked = Partition(list(parts)), []
        children = tanisaki._children

        def recording(held, n):
            out = children(held, n)
            assert len(out) <= n * len(held)
            checked.append(len(out))
            return out

        with mock.patch.object(tanisaki, "_children", recording):
            layers = _dual_layers(distinct_specht_polynomials(lam), lam.n)
        assert 0 < sum(checked) <= lam.n * sum(map(len, layers))

    @pytest.mark.parametrize("parts", [(3, 2, 1), (3, 1, 1, 1), (2, 2, 2), (2, 2, 1, 1)])
    def test_derivatives_are_those_of_the_scan(self, parts):
        # a child with a dropped parent would only give a dependent image:
        # no derivative is taken for it, as the scan takes none
        spechts = distinct_specht_polynomials(Partition(list(parts)))
        with mock.patch.object(tanisaki, "partial_terms", wraps=partial_terms) as taken:
            _dual_layers(spechts, 6)
        with mock.patch.dict(globals(), partial_terms=mock.Mock(wraps=partial_terms)):
            dual_layers_oracle(spechts, 6)
            scanned = globals()["partial_terms"]
        assert taken.call_args_list == scanned.call_args_list


APOLAR_SHAPES = ([lam.parts for n in range(1, 6) for lam in partitions_of(n)]
                 + [[4, 1, 1], [3, 2, 1], [2, 2, 2], [3, 1, 1, 1]])


class TestApolarGenerators:
    """The generators from the integer kernels print exactly as those of
    the ``Fraction`` computation."""

    @pytest.mark.parametrize("parts", APOLAR_SHAPES)
    def test_match_the_oracle(self, parts):
        lam = Partition(list(parts))
        got, want = _apolar_generators(lam)[0], apolar_generators_oracle(lam)
        assert [str(g) for g in got] == [str(g) for g in want]

    @pytest.mark.parametrize("parts", [(6,), (4, 2), (3, 3), (3, 2, 1), (2, 2, 2), (3, 1, 1, 1)])
    def test_skipped_degrees_hold_no_oracle_generator(self, parts):
        # the oracle integrates every degree; the search skips exactly the
        # degrees where the oracle finds nothing
        lam, seen = Partition(list(parts)), []
        integrate = tanisaki.integrate_vectors

        def recording(duals, n, d):
            seen.append(d)
            return integrate(duals, n, d)

        with mock.patch.object(tanisaki, "integrate_vectors", recording):
            _apolar_generators(lam)
        found = {g.degree() for g in apolar_generators_oracle(lam)}
        assert seen == sorted(found)

    @pytest.mark.parametrize("parts, degrees, runs",
                             [((3, 3), 3, 2), ((2, 2, 2), 6, 3), ((3, 1, 1, 1), 6, 4)])
    def test_integrations_stop_where_the_generators_do(self, parts, degrees, runs):
        # one integration per degree 1..d_min(lam) before degrees were skipped
        lam = Partition(list(parts))
        with mock.patch.object(tanisaki, "integrate_vectors",
                               wraps=tanisaki.integrate_vectors) as integrate:
            _apolar_generators(lam)
        assert (d_min(lam), integrate.call_count) == (degrees, runs)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_the_search_record_is_the_apolar_record(self, n):
        # the apolar ideal holds the full record the search ends with:
        # reading its basis runs no Buchberger, and the basis is that of a
        # fresh ideal
        for lam in partitions_of(n):
            gens, ideal = _apolar_generators(lam)
            assert ideal.generators == tuple(gens) + maximal_power(n, d_min(lam) + 1).generators
            with mock.patch.object(ideals, "_buchberger", wraps=ideals._buchberger) as runs:
                basis = ideal.groebner_basis()
            assert runs.call_count == 0, lam
            assert basis == Ideal(n, ideal.generators).groebner_basis()

    @pytest.mark.parametrize("parts", [(2, 1, 1), (3, 2, 1), (3, 1, 1, 1), (2, 2, 2),
                                       (1, 1, 1, 1, 1)])
    def test_one_record_is_grown(self, parts):
        # each run starts from the basis the run before returned; only the
        # last gets the monomials of m^(D+1), each once, and no generator
        # enters the engine twice
        lam = Partition(list(parts))
        n, top = lam.n, d_min(lam)
        runs, converted = [], []
        buchberger, to_engine = ideals._buchberger, ideals._to_engine

        def recording_run(inputs, n, below=inf, factors=None):
            basis = buchberger(inputs, n, below, factors)
            runs.append((inputs, basis))
            return basis

        def recording_conversion(f):
            converted.append(str(f))
            return to_engine(f)

        with mock.patch.object(ideals, "_buchberger", recording_run), \
                mock.patch.object(ideals, "_to_engine", recording_conversion):
            gens, ideal = _apolar_generators(lam)
        for (_, basis), (inputs, _) in zip(runs, runs[1:]):
            assert inputs[:len(basis)] == basis
        caps = [[f[0][0] for f in inputs if len(f) == 1 and DEGREVLEX.degree(f[0][0], n) == top + 1]
                for inputs, _ in runs]
        assert not any(caps[:-1])
        assert sorted(set(caps[-1])) == sorted(caps[-1]) and len(caps[-1]) == comb(n + top, top + 1)
        assert sorted(converted) == sorted(map(str, ideal.generators))
        assert ideal._record.basis == runs[-1][1]

    def test_a_dropped_generator_breaks_an_invariant(self, capsys):
        # an integrated degree must give HF_(R/J)(d) - dim layers[d] generators
        complement = tanisaki.complement_vectors

        def dropping(space, others, n):
            return complement(space, others, n)[1:]

        with mock.patch.object(tanisaki, "complement_vectors", dropping):
            with pytest.raises(ArithmeticError, match="apolar generators, not"):
                _apolar_generators(Partition([2, 1, 1]))
            with pytest.raises(SystemExit) as info:
                run(["tanisaki", "--n", "4", "--lambda", "2,1,1", "--mode", "apolar"])
        assert info.value.code == 3
        assert "internal invariant broken: degree 1 gave 0 apolar generators, not 1" in (
            capsys.readouterr().err)

    def test_an_oversized_layer_breaks_an_invariant(self):
        # J lies in Ann, so R/J has at least dim layers[d] standard monomials in degree d
        layers = tanisaki._dual_layers

        def padded(spechts, n):
            out = layers(spechts, n)
            out[1] = out[1] + [out[1][0]] * (n + 1)
            return out

        with mock.patch.object(tanisaki, "_dual_layers", padded):
            with pytest.raises(ArithmeticError, match="fewer standard monomials"):
                _apolar_generators(Partition([2, 1, 1]))

    @pytest.mark.parametrize("parts", APOLAR_SHAPES)
    def test_lex_pivots_change_signs_only(self, parts):
        # the integration once pivoted on exponent tuples (lex); the
        # generators it gave are these, each up to its sign
        lam = Partition(list(parts))
        got, lex = _apolar_generators(lam)[0], apolar_generators_oracle(lam, order=lambda m: m)
        assert len(got) == len(lex)
        assert all(g == w or g == -w for g, w in zip(got, lex))


class TestConstruction:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_extreme_shapes(self, n):
        assert tanisaki_ideal(Partition([n])) == maximal_power(n, 1)
        power_sums = Ideal(n, [power_sum(k, n) for k in range(1, n + 1)])
        assert tanisaki_ideal(Partition([1] * n)) == power_sums

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_one_dropped_part(self, n):
        lam = Partition([n - 1, 1])
        expected = Ideal(n, [power_sum(1, n)]) + maximal_power(n, 2)
        assert tanisaki_ideal(lam) == expected

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_colength_vs_multinomial(self, n):
        for lam in partitions_of(n):
            assert tanisaki_ideal(lam).colength() == multinomial(lam)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tanisaki_ideal(Partition([2, 1]), "nonsense")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mode_agreement_small(self, n):
        for lam in partitions_of(n):
            reference = tanisaki_ideal(lam, "subset_elementary")
            for mode in MODES[1:]:
                assert tanisaki_ideal(lam, mode) == reference

    @pytest.mark.parametrize("n", range(1, 9))
    def test_loop_thresholds_lie_in_one_to_size(self, n):
        # both generator loops use r_lambda(s) unclamped over these sizes s
        for lam in partitions_of(n):
            for size in range(n - lam.parts[0] + 1, n + 1):
                assert 1 <= r_lambda(lam, size) <= size, (lam, size)

    def test_generator_thresholds_match_transpose(self):
        lam = Partition([3, 1, 1])
        gens, _ = _subset_elementary_generators(lam)
        n, lam_t = lam.n, transpose(lam)
        for g in gens:
            assert is_homogeneous(g)
        # subsets strictly smaller than n - lam_1 + 1 contribute nothing
        sizes = {max(sum(m) for m in tuple_terms(g)) or None for g in gens}
        assert min(
            len([i for i in range(n) if m[i]]) for g in gens for m in tuple_terms(g)
        ) >= 1


# a presentation that no CLI verb reaches, checked against the constructions
def two_row_presentation(lam: Partition) -> Ideal:
    """Presentation for two-part shapes: (p1, squares) plus, when the parts
    differ by at least two, the orbit of the squarefree monomial of degree
    one more than the second part."""
    if lam.m != 2:
        raise ValueError("the presentation needs exactly two parts")
    n = lam.n
    gens = [power_sum(1, n)]
    gens += [Polynomial.variable(i, n) ** 2 for i in range(1, n + 1)]
    lam1, lam2 = lam.parts
    if lam1 >= lam2 + 2:
        for subset in combinations(range(1, n + 1), lam2 + 1):
            mono = [0] * n
            for i in subset:
                mono[i - 1] = 1
            gens.append(Polynomial.monomial(tuple(mono)))
    return Ideal(n, gens)


class TestTwoRowPresentation:
    def test_rejects_other_lengths(self):
        with pytest.raises(ValueError):
            two_row_presentation(Partition([3]))
        with pytest.raises(ValueError):
            two_row_presentation(Partition([2, 1, 1]))

    def test_close_parts_need_no_monomial_orbit(self):
        lam = Partition([2, 2])
        ideal = two_row_presentation(lam)
        degrees = {g.degree() for g in ideal.generators}
        assert degrees == {1, 2}
        assert ideal == tanisaki_ideal(lam)

    @pytest.mark.parametrize("parts", [(3, 1), (4, 2), (4, 1), (3, 2)])
    def test_agrees_with_subset_construction(self, parts):
        lam = Partition(parts)
        assert two_row_presentation(lam) == tanisaki_ideal(lam)

    def test_colength_binomial(self):
        lam = Partition([4, 2])
        assert two_row_presentation(lam).colength() == 15


class TestTildeIdeal:
    def test_column_shape_contents(self):
        n = 4
        ideal = tilde_ideal(Partition([1] * n))
        gens = {str(g) for g in ideal.generators}
        for j in range(1, n):
            assert str(power_sum(j, n)) in gens
        assert str(Polynomial.variable(1, n) ** n) in gens

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_contained_in_partition_ideal(self, n):
        for mu in partitions_of(n):
            big = tanisaki_ideal(mu)
            assert all(big.contains(g) for g in tilde_ideal(mu).generators)

    def test_second_inclusion_strict_witness(self):
        # the documented eight-variable example, checked degreewise
        mu = Partition([3, 3, 1, 1])
        smaller = list(tilde_ideal(mu).generators)
        witness = None
        for g in sorted(_subset_elementary_generators(mu)[0],
                        key=lambda f: (f.degree(), str(f))):
            if not homogeneous_membership(g, smaller):
                witness = g
                break
        assert witness is not None
        assert witness.degree() == 5
        assert homogeneous_membership(witness, smaller) is False


class TestInclusionChain:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chain_holds(self, n):
        for mu in partitions_of(n):
            report = inclusion_chain_check(mu)
            assert report.ok, report.failures

    def test_first_strict_for_hook_of_three(self):
        report = inclusion_chain_check(Partition([2, 1]))
        assert report.first_strict
        assert "first" in report.witnesses

    def test_single_row_collapses(self):
        report = inclusion_chain_check(Partition([3]))
        assert report.ok
        assert not report.first_strict and not report.second_strict

    @pytest.mark.parametrize("emptied, fails, holds", [("tilde_ideal", "first", "second"),
                                                       ("tanisaki_ideal", "second", "first")])
    def test_failures_name_the_broken_inclusion(self, emptied, fails, holds):
        # with the larger ideal of one inclusion emptied, only that one fails
        with mock.patch.object(tanisaki, emptied, lambda mu: Ideal(3, [])):
            report = inclusion_chain_check(Partition([2, 1]))
        assert not report.ok and report.failures
        assert all(f.startswith(f"{fails} inclusion fails at ") for f in report.failures)
        assert getattr(report, f"{holds}_holds") and not getattr(report, f"{fails}_holds")
        assert fails not in report.witnesses and not getattr(report, f"{fails}_strict")

    def test_the_small_ideal_is_read_below_degree_five(self):
        # the strictness witness at (3,2) has degree 2: the record of
        # (power sums + Specht) never holds a degree above 4
        made, build = [], tanisaki.power_sum_specht_ideal

        def keeping(mu):
            made.append(build(mu))
            return made[-1]

        with mock.patch.object(tanisaki, "power_sum_specht_ideal", keeping):
            report = inclusion_chain_check(Partition([3, 2]))
        assert report.ok and report.witnesses["first"] == "x1^2"
        assert made[0]._record.below <= 5

    def test_power_sum_specht_ideal_contents(self):
        mu = Partition([2, 1])
        ideal = power_sum_specht_ideal(mu)
        # shapes failing to dominate (2,1): only the single column
        degrees = sorted({g.degree() for g in ideal.generators})
        assert degrees == [1, 2, 3]


# the generator lists and the per-generator chain check that the orbit
# records replaced, kept as oracles

def subset_elementary_oracle(lam: Partition) -> list[Polynomial]:
    n = lam.n
    return [elementary_symmetric(r, subset, n)
            for size in range(n - lam.parts[0] + 1, n + 1)
            for subset in combinations(range(1, n + 1), size)
            for r in range(r_lambda(lam, size), size + 1)]


def tilde_oracle(mu: Partition) -> list[Polynomial]:
    n, m = mu.n, mu.m
    gens = [power_sum(j, n) for j in range(1, m)]
    gens += [Polynomial.variable(i, n) ** m for i in range(1, n + 1)]
    for k in range(1, m):
        for subset in combinations(range(1, n + 1), R_k(mu, k)):
            gens.append(Polynomial.monomial(tuple(k if i + 1 in subset else 0 for i in range(n))))
    return gens


def power_sum_specht_oracle(mu: Partition) -> list[Polynomial]:
    n = mu.n
    gens = [power_sum(j, n) for j in range(1, n + 1)]
    for lam in partitions_of(n):
        if not dominates(lam, mu):
            gens.extend(distinct_specht_polynomials(lam))
    return gens


def strictness_witness_oracle(smaller: Ideal, larger: Ideal) -> Polynomial | None:
    for g in sorted(larger.generators, key=lambda f: (f.degree(), str(f))):
        if not smaller.contains(g):
            return g
    return None


def inclusion_chain_oracle(mu: Partition) -> tanisaki.InclusionReport:
    """One ``contains`` per generator, on ideals built without orbit records."""
    n = mu.n
    small = Ideal(n, power_sum_specht_oracle(mu))
    middle = Ideal(n, tilde_oracle(mu))
    large = Ideal(n, subset_elementary_oracle(mu))
    first = [f"first inclusion fails at {g}" for g in small.generators if not middle.contains(g)]
    second = [f"second inclusion fails at {g}" for g in middle.generators if not large.contains(g)]
    witnesses = {}
    if not first and (w := strictness_witness_oracle(small, middle)) is not None:
        witnesses["first"] = str(w)
    if not second and (w := strictness_witness_oracle(middle, large)) is not None:
        witnesses["second"] = str(w)
    return tanisaki.InclusionReport(mu, not first, not second, "first" in witnesses,
                                    "second" in witnesses, first + second, witnesses)


SHAPES_TO_SIX = [mu for n in range(1, 7) for mu in partitions_of(n)]
ORBIT_IDEALS = [power_sum_specht_ideal, tilde_ideal, tanisaki_ideal]


def orbit_groups(ideal: Ideal) -> dict:
    groups: dict = {}
    for g, label in zip(ideal.generators, ideal.orbits):
        groups.setdefault(label, []).append(g)
    return groups


class TestOrbitRecords:
    @pytest.mark.parametrize("mu", SHAPES_TO_SIX, ids=str)
    @pytest.mark.parametrize("build", ORBIT_IDEALS, ids=lambda f: f.__name__)
    def test_each_label_is_one_whole_orbit(self, build, mu):
        # the labels partition the generators, and a label's generators are,
        # up to scalars, the orbit of its first under s_1..s_(n-1)
        ideal, n = build(mu), mu.n
        assert len(ideal.orbits) == len(ideal.generators)
        swaps = [Permutation.transposition(a, a + 1, n) for a in range(1, n)]
        for group in orbit_groups(ideal).values():
            members = {g.monic() for g in group}
            assert len(members) == len(group)
            orbit, queue = {group[0].monic()}, [group[0]]
            for f in queue:
                for s in swaps:
                    image = apply_permutation(s, f).monic()
                    if image not in orbit:
                        orbit.add(image)
                        queue.append(image)
            assert orbit == members

    @pytest.mark.parametrize("mu", SHAPES_TO_SIX, ids=str)
    def test_generator_lists_are_unchanged(self, mu):
        for build, oracle in zip(ORBIT_IDEALS, [power_sum_specht_oracle, tilde_oracle,
                                                subset_elementary_oracle]):
            assert list(build(mu).generators) == oracle(mu)

    def test_other_constructions_record_none(self):
        lam = Partition([2, 1, 1])
        assert all(tanisaki_ideal(lam, mode).orbits is None for mode in MODES[1:])
        assert Ideal(4, []).orbits is None and (tilde_ideal(lam) + tilde_ideal(lam)).orbits is None

    def test_labels_must_match_the_generators(self):
        with pytest.raises(ValueError, match="one orbit label per"):
            Ideal(2, [Polynomial.variable(1, 2), Polynomial.zero(2)], [0, 0])

    @pytest.mark.parametrize("mu", SHAPES_TO_SIX, ids=str)
    def test_reports_match_the_per_generator_check(self, mu):
        assert inclusion_chain_check(mu) == inclusion_chain_oracle(mu)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_contains_is_asked_once_per_orbit(self, n):
        # the checks ask each orbit once; the witness walk asks the orbits of
        # the degrees up to the witness's, or all of them when there is none
        for mu in partitions_of(n):
            small, middle, large = (build(mu) for build in ORBIT_IDEALS)
            report = inclusion_chain_check(mu)
            assert report.ok
            expected = len(orbit_groups(small)) + len(orbit_groups(middle))
            for name, larger in [("first", middle), ("second", large)]:
                top = next((g.degree() for g in larger.generators
                            if str(g) == report.witnesses.get(name)), inf)
                expected += sum(group[0].degree() <= top for group in orbit_groups(larger).values())
            with mock.patch.object(Ideal, "contains", autospec=True,
                                   side_effect=Ideal.contains) as contains:
                assert inclusion_chain_check(mu) == report
            assert contains.call_count == expected, mu

    def test_an_emptied_container_is_asked_about_each_generator(self):
        # emptied, the companion carries no record: every generator of the
        # small ideal is asked, and the witness walk asks the generators of
        # the Tanisaki ideal's least degree, each missing from it
        mu = Partition([3, 1])
        small, large = power_sum_specht_ideal(mu), tanisaki_ideal(mu)
        with mock.patch.object(tanisaki, "tilde_ideal", lambda mu: Ideal(4, [])), \
                mock.patch.object(Ideal, "contains", autospec=True,
                                  side_effect=Ideal.contains) as contains:
            report = inclusion_chain_check(mu)
        least = min(g.degree() for g in large.generators)
        assert [call.args[1] for call in contains.call_args_list] == [
            *small.generators, *(g for g in large.generators if g.degree() == least)]
        assert len(small.generators) > len(set(small.orbits))
        assert report.witnesses == {
            "second": str(strictness_witness_oracle(Ideal(4, []), large))}


class TestDegreewiseMembership:
    def test_agrees_with_groebner_route(self):
        n = 4
        gens = [power_sum(1, n), power_sum(2, n)]
        ideal = Ideal(n, gens)
        probes = [
            power_sum(1, n) * power_sum(2, n),
            Polynomial.variable(1, n) ** 2,
            power_sum(3, n),
            Polynomial.variable(1, n) * power_sum(1, n),
        ]
        for f in probes:
            assert homogeneous_membership(f, gens) == ideal.contains(f)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            homogeneous_membership(Polynomial.variable(1, 2) + 1, [Polynomial.variable(1, 2)])


class TestHomogeneousUniqueness:
    @pytest.mark.parametrize("n", [3, 4])
    def test_classification_entries_with_permutation_quotient(self, n):
        """Any catalogued homogeneous symmetric ideal whose quotient is a
        single permutation module must be the partition's ideal."""
        from symideal.classification import classification_cases
        from symideal.combinat import kostka_decomposition

        singles = {kostka_decomposition(lam): lam for lam in partitions_of(n)}
        found = 0
        for case in classification_cases(n):
            lam = singles.get(case.expected)
            if lam is None or case.colength != multinomial(lam):
                continue
            found += 1
            assert case.ideal == tanisaki_ideal(lam), case.label
        assert found >= 2  # at least the maximal-ideal and length-two rows


class TestModuleStructure:
    @pytest.mark.parametrize("n", [3, 4])
    def test_quotient_is_permutation_module(self, n):
        from symideal.combinat import kostka_decomposition

        for lam in partitions_of(n):
            ideal = tanisaki_ideal(lam)
            assert decompose_quotient(ideal) == kostka_decomposition(lam)

    @pytest.mark.parametrize("n", [3, 4])
    def test_own_shape_multiplicity_sits_at_minimal_degree(self, n):
        for lam in partitions_of(n):
            ideal = tanisaki_ideal(lam)
            decomposition = decompose_quotient(ideal)
            assert decomposition.as_dict().get(lam) == 1
            layers = dict(decomposition.graded)
            located = [d for d, layer in layers.items() if dict(layer).get(lam)]
            assert located == [d_min(lam)]


def semistandard_tableaux(shape: Partition, content: Partition) -> list[list[list[int]]]:
    """Every semistandard tableau of a shape and content, as rows."""
    rows: list[list[int]] = [[] for _ in shape.parts]
    left, found = list(content.parts), []

    def fill(cell: int) -> None:
        if cell == shape.n:
            found.append([row[:] for row in rows])
            return
        i = next(r for r, part in enumerate(shape.parts) if len(rows[r]) < part)
        j = len(rows[i])
        for v in range(1, len(left) + 1):  # rows weakly increase, columns strictly
            if left[v - 1] and (not j or rows[i][-1] <= v) and (not i or rows[i - 1][j] < v):
                rows[i].append(v)
                left[v - 1] -= 1
                fill(cell + 1)
                left[v - 1] += 1
                rows[i].pop()

    fill(0)
    return found


def charge(t: list[list[int]]) -> int:
    """Lascoux-Schuetzenberger charge of a tableau of partition content.

    The word reads the rows from the bottom up, each left to right.  It
    splits into standard subwords: each starts at the rightmost 1 left
    and searches leftward, cyclically, for 2, 3, ...; the index rises by
    1 at each wrap, and the charge is the sum of the indices."""
    word = [v for row in reversed(t) for v in row]
    used, total = [False] * len(word), 0
    while not all(used):
        pos = max(p for p, v in enumerate(word) if v == 1 and not used[p])
        used[pos], index, k = True, 0, 2
        while True:
            found = [p for p in [*range(pos - 1, -1, -1), *range(len(word) - 1, pos, -1)]
                     if word[p] == k and not used[p]]
            if not found:
                break
            index += found[0] > pos  # wrapped round the right end
            pos, used[found[0]] = found[0], True
            total += index
            k += 1
    return total


def garsia_procesi(lam: Partition, degree=lambda lam, c: d_min(lam) - c) -> dict:
    """The graded decomposition of R/I_lam by Garsia-Procesi (Adv. Math. 94,
    1992): kappa occurs in degree n(lam) - charge(T) once per semistandard
    tableau T of shape kappa and content lam, n(lam) = d_min(lam)."""
    layers: dict[int, dict[Partition, int]] = {}
    for kappa in partitions_of(lam.n):
        for t in semistandard_tableaux(kappa, lam):
            layer = layers.setdefault(degree(lam, charge(t)), {})
            layer[kappa] = layer.get(kappa, 0) + 1
    return {d: tuple(sorted(layer.items())) for d, layer in layers.items()}


class TestGarsiaProcesi:
    """The graded decomposition of each Tanisaki quotient is the cocharge
    Kostka-Foulkes polynomial of Garsia and Procesi."""

    @pytest.mark.parametrize("parts", [lam.parts for n in range(1, 7) for lam in partitions_of(n)])
    def test_graded_decomposition_is_the_cocharge_count(self, parts):
        lam = Partition(parts)
        assert dict(decompose_quotient(tanisaki_ideal(lam)).graded) == garsia_procesi(lam)

    def test_charge_in_place_of_cocharge_fails(self):
        # at (1,1) charge would put the trivial module in degree 1
        lam = Partition([1, 1])
        by_charge = garsia_procesi(lam, lambda lam, c: c)
        assert by_charge[1] == ((Partition([2]), 1),)
        assert dict(decompose_quotient(tanisaki_ideal(lam)).graded) != by_charge
