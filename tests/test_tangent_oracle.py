"""Independent brute-force oracle for the equivariant tangent computation.

Everything here is recomputed the slow, literal way: the minimal generator
space as a dense apolar-orthogonal complement inside the full degree piece,
the relation space as the full kernel of the coefficient matrix in every
degree below the truncation bound, and the homomorphism constraints as one
big dense rational linear system.  Agreement with the production pipeline
on a spread of ideals validates the inverse-system and modulo-square
shortcuts used there.
"""

from fractions import Fraction
from math import factorial, prod

import pytest

from symideal.classification import row_case
from symideal.combinat import Partition
from symideal.equivariant import tangent_dimension
from symideal.ideals import Ideal, maximal_power
from symideal.poly import Polynomial, apply_permutation, power_sum
from symideal.tanisaki import tanisaki_ideal
from test_combinat import group_generators
from test_ideals import normal_form, standard_monomials
from test_poly import coefficient, from_tuple_terms


def degree_monomials(n, d):
    out = []

    def walk(i, remaining, prefix):
        if i == n - 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            walk(i + 1, remaining - e, prefix + (e,))

    walk(0, d, ())
    return out


def dense_nullspace(rows, ncols):
    """Kernel basis of a dense rational matrix given as lists of rows."""
    matrix = [list(map(Fraction, row)) for row in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -matrix[r][f]
        basis.append(vec)
    return basis


def poly_vector(f, monomials):
    return [coefficient(f, m) for m in monomials]


def apolar_dot(u, v, monomials):
    return sum(a * b * prod(map(factorial, m)) for a, b, m in zip(u, v, monomials))


def echelon_basis(vectors):
    """Independent subset of dense rational vectors, in input order."""
    basis, reduced = [], []
    for vec in vectors:
        work = list(vec)
        for ref in reduced:
            pivot = next((i for i, v in enumerate(ref) if v), None)
            if pivot is not None and work[pivot]:
                factor = work[pivot] / ref[pivot]
                work = [a - factor * b for a, b in zip(work, ref)]
        if any(work):
            basis.append(vec)
            reduced.append(work)
    return basis


def naive_minimal_generators(ideal):
    """Dense per-degree computation of the stable generator space."""
    n = ideal.ambient_n
    gb = ideal.groebner_basis()
    hf = ideal.hilbert_function()
    vanish = len(hf)
    generators = []
    basis_by_degree = {0: []}
    for d in range(1, vanish + 1):
        monomials = degree_monomials(n, d)
        spanning = []
        for g in gb:
            e = g.degree()
            if e > d:
                continue
            for m in degree_monomials(n, d - e):
                spanning.append(poly_vector(Polynomial.monomial(m) * g, monomials))
        ideal_basis = echelon_basis(spanning)
        lower = basis_by_degree[d - 1]
        lower_monos = degree_monomials(n, d - 1)
        shifted = []
        for vec in lower:
            f = from_tuple_terms(n, {m: c for m, c in zip(lower_monos, vec) if c})
            for j in range(1, n + 1):
                shifted.append(poly_vector(Polynomial.variable(j, n) * f, monomials))
        shifted = echelon_basis(shifted)
        # apolar-orthogonal complement of the shifted space inside the ideal piece
        gram_rows = [[apolar_dot(w, v, monomials) for v in ideal_basis] for w in shifted]
        kernel = dense_nullspace(gram_rows, len(ideal_basis)) if ideal_basis else []
        new = []
        for coeffs in kernel:
            vec = [sum(c * v[i] for c, v in zip(coeffs, ideal_basis))
                   for i in range(len(monomials))]
            new.append(from_tuple_terms(n, {m: c for m, c in zip(monomials, vec) if c}))
        if not shifted:
            new = [from_tuple_terms(n, {m: c for m, c in zip(monomials, vec) if c})
                   for vec in ideal_basis]
        for f in new:
            generators.append((d, f))
        basis_by_degree[d] = ideal_basis
    return generators, vanish


def naive_tangent(ideal):
    """Literal tangent computation: full kernels, one dense solve."""
    n = ideal.ambient_n
    generators, vanish = naive_minimal_generators(ideal)
    degrees = [d for d, _ in generators]
    gens = [g for _, g in generators]
    bound = vanish + max(degrees)
    basis = standard_monomials(ideal)
    unknowns = [(b, i) for i in range(len(gens)) for b in basis]
    position = {u: p for p, u in enumerate(unknowns)}
    equations = []

    # equivariance for the two group generators
    for sigma in group_generators(n):
        images = []
        for i, g in enumerate(gens):
            moved = apply_permutation(sigma, g)
            same_degree = [j for j in range(len(gens)) if degrees[j] == degrees[i]]
            monomials = degree_monomials(n, degrees[i])
            rows = [[coefficient(gens[j], m) for j in same_degree] for m in monomials]
            target = [coefficient(moved, m) for m in monomials]
            solved = dense_nullspace(
                [row + [t] for row, t in zip(rows, target)], len(same_degree) + 1)
            combo = next(vec for vec in solved if vec[-1])
            scale = -combo[-1]
            images.append({same_degree[j]: combo[j] / scale
                           for j in range(len(same_degree)) if combo[j]})
        for i in range(len(gens)):
            for r in basis:
                row = [Fraction(0)] * len(unknowns)
                # sigma(f(v_i)) coefficient at r
                for b in basis:
                    moved = normal_form(ideal, apply_permutation(sigma, Polynomial.monomial(b)))
                    if coefficient(moved, r):
                        row[position[(b, i)]] += coefficient(moved, r)
                # minus f(sigma(v_i)) coefficient at r
                for j, c in images[i].items():
                    row[position[(r, j)]] -= c
                if any(row):
                    equations.append(row)

    # full relation kernels in every degree below the bound
    for d in range(min(degrees) + 1, bound):
        columns = []
        tags = []
        monomials = degree_monomials(n, d)
        for i, g in enumerate(gens):
            if d - degrees[i] < 0:
                continue
            for m in degree_monomials(n, d - degrees[i]):
                columns.append(poly_vector(Polynomial.monomial(m) * g, monomials))
                tags.append((i, m))
        if not columns:
            continue
        rows = [[col[r] for col in columns] for r in range(len(monomials))]
        for kernel_vec in dense_nullspace(rows, len(columns)):
            syzygy = {}
            for (i, m), c in zip(tags, kernel_vec):
                if c:
                    syzygy[(i, m)] = c
            for r in basis:
                row = [Fraction(0)] * len(unknowns)
                for (i, m), c in syzygy.items():
                    for b in basis:
                        reduced = normal_form(ideal, Polynomial.monomial(m) * Polynomial.monomial(b))
                        if coefficient(reduced, r):
                            row[position[(b, i)]] += c * coefficient(reduced, r)
                if any(row):
                    equations.append(row)

    kernel = dense_nullspace(equations, len(unknowns)) if equations else None
    return len(kernel) if kernel is not None else len(unknowns)


CASES = [
    ("maximal ideal", lambda: maximal_power(3, 1)),
    ("maximal square", lambda: maximal_power(3, 2)),
    ("length-two partition ideal", lambda: tanisaki_ideal(Partition([2, 1]))),
    ("power sums", lambda: Ideal(3, [power_sum(k, 3) for k in (1, 2, 3)])),
    ("row 6 at n=3", lambda: row_case("6", 3).ideal),
    ("row 7a at n=3", lambda: row_case("7a", 3).ideal),
    ("row 13 at n=3", lambda: row_case("13", 3).ideal),
    ("row 2b at n=4, r=7", lambda: row_case("2b", 4, 7).ideal),
]


@pytest.mark.parametrize("label,factory", CASES)
def test_oracle_agrees_with_pipeline(label, factory):
    ideal = factory()
    assert naive_tangent(ideal) == tangent_dimension(ideal).tangent_dim
