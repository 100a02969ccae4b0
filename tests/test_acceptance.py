"""End-to-end acceptance checks for the headline computational claims.

Every criterion is exact (integer equality); each test prints one
pass/fail line.  Criterion 5 also checks each tangent reference against
the catalog's own verdict for its row: equal to the component dimension
at a smooth point, larger at a singular one.  Its values are backed by
the dense oracle in test_tangent_oracle.py and by the Groebner-free
computation from the definition in test_tangent_definition.py.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from symideal.classification import (classification_cases, pair_product_ideal,
                                     relation_f, relation_g, relation_p,
                                     row_case)
from symideal.combinat import (Partition, kostka_decomposition, multinomial,
                               partitions_of, standard_tableaux)
from symideal.equivariant import decompose_quotient, is_symmetric, tangent_dimension
from symideal.ideals import maximal_power, orbit_ideal
from symideal.specht import coinvariant_isotypic_basis, specht_polynomial
from symideal.tanisaki import MODES, inclusion_chain_check, tanisaki_ideal
from test_classification import describe
from test_combinat import conjugacy_class_size, irreducible_character
from test_ideals import intersect, normal_form
from test_poly import apolar_scalar
from test_specht import component_type, degree_component_tags, lemma_component


def _report(number: int, failures: list) -> None:
    print(f"[acceptance] criterion {number}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"criterion {number}: {failures}"


def representative_point(lam: Partition) -> tuple:
    """Integer point with coordinate multiplicities lam and coordinate sum 0."""
    values = [1, -1, 2, -2, 3, -3][: lam.m]
    shift = sum(l * v for l, v in zip(lam.parts, values))
    values = [lam.n * v - shift for v in values]
    assert len(set(values)) == lam.m
    point: list = []
    for part, value in zip(lam.parts, values):
        point.extend([value] * part)
    return tuple(point)


def test_criterion_1_tanisaki_colength_and_module():
    failures = []
    for n in (3, 4, 5):
        for lam in partitions_of(n):
            ideal = tanisaki_ideal(lam)
            if ideal.colength() != multinomial(lam):
                failures.append(f"colength {lam.parts}")
            if decompose_quotient(ideal) != kostka_decomposition(lam):
                failures.append(f"module {lam.parts}")
    for lam in partitions_of(6):
        if multinomial(lam) > 120:
            continue
        ideal = tanisaki_ideal(lam)
        if ideal.colength() != multinomial(lam):
            failures.append(f"colength {lam.parts} (n=6)")
        if decompose_quotient(ideal) != kostka_decomposition(lam):
            failures.append(f"module {lam.parts} (n=6)")
    _report(1, failures)


def test_criterion_2_mode_agreement():
    failures = []
    for n in (1, 2, 3, 4, 5):
        for lam in partitions_of(n):
            reference = tanisaki_ideal(lam, MODES[0])
            for mode in MODES[1:]:
                if tanisaki_ideal(lam, mode) != reference:
                    failures.append(f"{lam.parts} mode {mode}")
    _report(2, failures)


def test_criterion_3_orbit_degeneration():
    failures = []
    cases = [lam for n in (1, 2, 3, 4) for lam in partitions_of(n)]
    cases += [Partition([3, 1, 1]), Partition([2, 2, 1])]
    for lam in cases:
        point = representative_point(lam)
        graded = orbit_ideal(point).associated_graded()
        if graded != tanisaki_ideal(lam):
            failures.append(f"{lam.parts} at {point}")
    _report(3, failures)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion_4_classification_reproduction(n):
    failures = []
    for case in classification_cases(n):
        ideal = case.ideal
        if not is_symmetric(ideal):
            failures.append(f"symmetry {describe(case)}")
        colength = ideal.colength()
        if colength != case.colength or colength > 2 * n:
            failures.append(f"colength {describe(case)}: {colength}")
        if decompose_quotient(ideal) != case.expected:
            failures.append(f"decomposition {describe(case)}")
    _report(4, failures)


def test_criterion_5_tangent_dimensions():
    reference = [
        ("row 7a, n=3", row_case("7a", 3), 4),
        ("row 7c [1:0], n=3", row_case("7c", 3, param=(Fraction(1), Fraction(0))), 5),
        ("row 7c [1:0], n=4", row_case("7c", 4, param=(Fraction(1), Fraction(0))), 5),
        ("row 5 [-1:4], n=4", row_case("5", 4, param=(Fraction(-1), Fraction(4))), 5),
        ("row 2a d=4, n=4", row_case("2a", 4, 7), 6),
        ("row 2b d=3, n=4", row_case("2b", 4, 7), 5),
        ("row 6, n=4", row_case("6", 4), 1),
    ]
    failures = []
    for label, case, expected in reference:
        # the rule table1 applies to every catalog row
        if case.geometry == "smooth" and expected != case.component_dim:
            failures.append(f"{label}: reference {expected} contradicts the catalog "
                            f"(smooth, component dimension {case.component_dim})")
        if case.geometry == "singular" and expected <= case.component_dim:
            failures.append(f"{label}: reference {expected} contradicts the catalog "
                            f"(singular, component dimension {case.component_dim})")
        computed = tangent_dimension(case.ideal).tangent_dim
        if computed != expected:
            failures.append(f"{label}: computed {computed}, reference {expected}")
    _report(5, failures)


def test_criterion_6_membership_relations():
    failures = []
    for n in (3, 4, 5):
        pair_ideal = pair_product_ideal(n)
        f, g, p = relation_f(n), relation_g(n), relation_p(n)
        if n == 3:
            # the four-index family is empty; the first two relations
            # degenerate to the zero polynomial identically
            if not f.is_zero():
                failures.append("relation f at n=3")
            if not g.is_zero():
                failures.append("relation g at n=3")
        else:
            if not normal_form(pair_ideal, f).is_zero():
                failures.append(f"relation f at n={n}")
            if not normal_form(pair_ideal, g).is_zero():
                failures.append(f"relation g at n={n}")
        if not normal_form(pair_ideal, p).is_zero():
            failures.append(f"relation p at n={n}")
    _report(6, failures)


def test_criterion_7_inclusion_chain():
    failures = []
    targets = [mu for n in (1, 2, 3, 4) for mu in partitions_of(n)]
    targets += [mu for mu in partitions_of(5) if mu.m <= 3]
    for mu in targets:
        report = inclusion_chain_check(mu)
        if not report.ok:
            failures.append(f"chain {mu.parts}: {report.failures}")
    witness = inclusion_chain_check(Partition([2, 1]))
    if not witness.first_strict:
        failures.append("missing strictness witness at (2,1)")
    _report(7, failures)


def test_criterion_8_property_suites():
    failures = []

    # coinvariant dimension identity
    for n in range(1, 7):
        total = sum(len(coinvariant_isotypic_basis(lam)) for lam in partitions_of(n))
        if total != factorial(n):
            failures.append(f"coinvariant count n={n}")

    # higher Specht divisibility across all shapes
    from symideal.specht import higher_specht
    from test_combinat import all_tableaux
    from test_specht import reduction_by_single

    rng = random.Random(20240809)
    for n in (2, 3, 4, 5):
        for lam in partitions_of(n):
            tabs = standard_tableaux(lam)
            pairs = [(t, s) for s in tabs for t in tabs]
            fillings = all_tableaux(lam)
            pairs += [(rng.choice(fillings), rng.choice(tabs)) for _ in range(2)]
            for t, s in pairs:
                value = higher_specht(t, s)
                if not value.is_zero() and not reduction_by_single(value, specht_polynomial(t)):
                    failures.append(f"divisibility {lam.parts}")

    # character orthogonality
    for n in range(2, 7):
        ps = partitions_of(n)
        for i, lam in enumerate(ps):
            for nu in ps[i:]:
                total = sum(conjugacy_class_size(mu)
                            * irreducible_character(lam, mu)
                            * irreducible_character(nu, mu) for mu in ps)
                expected = factorial(n) if lam == nu else 0
                if total != expected:
                    failures.append(f"orthogonality {lam.parts}/{nu.parts}")

    # pairing-orthogonality of the explicit low-degree components
    for n in (3, 4, 5, 6):
        for d in (1, 2, 3):
            tags = degree_component_tags(d, n)
            spans = {tag: lemma_component(d, n, tag) for tag in tags}
            for i, a in enumerate(tags):
                for b in tags[i + 1:]:
                    if component_type(a, n) == component_type(b, n):
                        continue
                    if any(apolar_scalar(f, g) != 0 for f in spans[a] for g in spans[b]):
                        failures.append(f"pairing {a} vs {b} (n={n}, d={d})")

    # associated graded preserves colength on random symmetric ideals
    rng = random.Random(20240809)
    shapes = {2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 1, 1)],
              4: [(4,), (3, 1), (2, 2), (2, 1, 1)]}
    for trial in range(50):
        n = rng.choice([2, 3, 4])
        parts = rng.choice(shapes[n])
        values = rng.sample(range(-6, 7), len(parts))
        point: list = []
        for part, value in zip(parts, values):
            point.extend([value] * part)
        ideal = orbit_ideal(tuple(point))
        if rng.random() < 0.5:
            ideal = intersect(ideal, orbit_ideal(tuple(v + 13 for v in point)))
        if rng.random() < 0.4:
            ideal = ideal + maximal_power(n, rng.choice([2, 3]))
        graded = ideal.associated_graded()
        if graded.colength() != ideal.colength():
            failures.append(f"gr colength (trial {trial})")
        if graded.associated_graded() != graded:
            failures.append(f"gr idempotence (trial {trial})")

    _report(8, failures)
