"""Groebner-free check of the equivariant tangent dimension.

For a homogeneous symmetric ideal I of R = Q[x1..xn] that contains a power
m^D of the maximal ideal, the tangent space of the invariant Hilbert scheme
at I is Hom_R(I, R/I)^{S_n}.  Here that dimension is computed straight from
the definition, reading nothing from symideal but the generators'
coefficients:

* every graded piece I_d is the span of the generators of degree d and of
  x_j I_{d-1}, kept in reduced row-echelon form over Fraction; R/I in
  degree d is the span of the non-pivot monomials;
* Hom splits by degree shift k.  A map of shift k is a family of linear
  maps psi_d: I_d -> (R/I)_{d+k}, one for every d with d + k < D (all
  of them below 2D), subject to psi_{d+1}(x_j f) = x_j psi_d(f) and
  psi_d(sigma f) = sigma psi_d(f) for a transposition and the long cycle;
* the dimension is the number of unknown matrix entries minus the rank of
  those linear conditions.

No Groebner basis, normal form, standard monomial or tangent code is used,
so agreement with the pipeline does not rest on the engine that both the
pipeline and the dense oracle share.
"""

from fractions import Fraction

import pytest

from symideal.classification import row_case
from test_poly import tuple_terms
from test_tangent_oracle import degree_monomials


def times_variable(vector, j):
    out = {}
    for mono, c in vector.items():
        out[mono[:j] + (mono[j] + 1,) + mono[j + 1:]] = c
    return out


def permuted(vector, images):
    """Move exponent i to position images[i]."""
    out = {}
    for mono, c in vector.items():
        new = [0] * len(mono)
        for i, e in enumerate(mono):
            new[images[i]] = e
        out[tuple(new)] = c
    return out


def subtract_multiple(vector, factor, row):
    for key, c in row.items():
        value = vector.get(key, 0) - factor * c
        if value:
            vector[key] = value
        else:
            vector.pop(key, None)


class Span:
    """Reduced row-echelon span of sparse rational vectors (dicts)."""

    def __init__(self):
        self.rows = {}  # pivot key -> row with 1 at the pivot, 0 at other pivots

    def reduce(self, vector):
        work = dict(vector)
        for key in [k for k in vector if k in self.rows]:
            subtract_multiple(work, work[key], self.rows[key])
        return work

    def add(self, vector):
        work = self.reduce(vector)
        if not work:
            return
        pivot = max(work)
        inv = 1 / work[pivot]
        work = {k: c * inv for k, c in work.items()}
        for row in self.rows.values():
            if pivot in row:
                subtract_multiple(row, row[pivot], work)
        self.rows[pivot] = work

    def coordinates(self, vector):
        """Coordinates of a member on the echelon rows, keyed by pivot."""
        assert not self.reduce(vector), "vector is not in the span"
        return {k: c for k, c in vector.items() if k in self.rows}


class GradedIdeal:
    """The pieces I_d, d < 2D, of a homogeneous ideal containing m^D."""

    def __init__(self, n, generators):
        self.n = n
        by_degree = {}
        for g in generators:
            degrees = {sum(m) for m in g}
            assert len(degrees) == 1, "generators must be homogeneous"
            by_degree.setdefault(degrees.pop(), []).append(g)
        self.low = min(by_degree)
        self.pieces = {}
        d = self.low
        while True:
            span = Span()
            for g in by_degree.get(d, []):
                span.add(g)
            for row in self.pieces.get(d - 1, Span()).rows.values():
                for j in range(n):
                    span.add(times_variable(row, j))
            self.pieces[d] = span
            if len(span.rows) == len(degree_monomials(n, d)):
                break
            d += 1
        self.vanish = d  # D: the quotient is zero from this degree on
        for e in range(self.vanish + 1, 2 * self.vanish):
            span = Span()
            span.rows = {m: {m: Fraction(1)} for m in degree_monomials(n, e)}
            self.pieces[e] = span

    def piece(self, d):
        return self.pieces.get(d, Span())

    def quotient_basis(self, d):
        if d < 0 or d >= self.vanish:
            return []
        pivots = self.piece(d).rows
        return [m for m in degree_monomials(self.n, d) if m not in pivots]

    def reduce(self, vector, d):
        """Class of a degree-d vector in (R/I)_d, on the non-pivot monomials."""
        if d >= self.vanish:
            return {}
        return self.piece(d).reduce(vector)


def shift_dimension(ideal, k, group):
    """dim of the S_n-equivariant degree-k part of Hom_R(I, R/I)."""
    degrees = range(ideal.low, ideal.vanish - k)
    unknowns = {}
    for d in degrees:
        for p in ideal.piece(d).rows:
            for q in ideal.quotient_basis(d + k):
                unknowns[(d, p, q)] = len(unknowns)
    if not unknowns:
        return 0

    def psi(d, vector):
        """psi_d(vector) as {quotient monomial: {unknown: coefficient}}."""
        image = {}
        for p, c in ideal.piece(d).coordinates(vector).items():
            for q in ideal.quotient_basis(d + k):
                column = image.setdefault(q, {})
                column[unknowns[(d, p, q)]] = c
        return image

    def applied(d, p, matrix):
        """matrix applied to psi_d(row p), by the images of quotient monomials."""
        image = {}
        for q, moved in matrix.items():
            key = unknowns[(d, p, q)]
            for r, c in moved.items():
                column = image.setdefault(r, {})
                column[key] = column.get(key, 0) + c
        return image

    equations = Span()

    def equate(left, right):
        for q in set(left) | set(right):
            row = dict(left.get(q, {}))
            subtract_multiple(row, 1, right.get(q, {}))
            equations.add(row)

    # psi_e(T f) = T psi_d(f) for T = x_j (e = d + 1) and T = sigma (e = d);
    # from the top degree on, x_j psi_d(f) lands in (R/I)_D = 0
    for d in degrees:
        moves = [(lambda v, s=s: permuted(v, s), d) for s in group]
        if d + 1 in degrees:
            moves += [(lambda v, j=j: times_variable(v, j), d + 1) for j in range(ideal.n)]
        for move, e in moves:
            matrix = {q: ideal.reduce(move({q: Fraction(1)}), e + k)
                      for q in ideal.quotient_basis(d + k)}
            for p, row in ideal.piece(d).rows.items():
                equate(psi(e, move(row)), applied(d, p, matrix))
    return len(unknowns) - len(equations.rows)


def equivariant_hom_dimension(n, generators):
    """dim Hom_R(I, R/I)^{S_n}, I given by homogeneous coefficient dicts."""
    ideal = GradedIdeal(n, generators)
    transposition = [1, 0] + list(range(2, n))
    cycle = [(i + 1) % n for i in range(n)]
    group = [transposition, cycle] if n > 1 else []
    shifts = range(-ideal.vanish, ideal.vanish - ideal.low)
    return sum(shift_dimension(ideal, k, group) for k in shifts)


# the reference rows of acceptance criterion 5, with their accepted values
ROWS = [
    ("row 7a, n=3", lambda: row_case("7a", 3), 4),
    ("row 7c [1:0], n=3", lambda: row_case("7c", 3, param=(Fraction(1), Fraction(0))), 5),
    ("row 7c [1:0], n=4", lambda: row_case("7c", 4, param=(Fraction(1), Fraction(0))), 5),
    ("row 5 [-1:4], n=4", lambda: row_case("5", 4, param=(Fraction(-1), Fraction(4))), 5),
    ("row 2a d=4, n=4", lambda: row_case("2a", 4, 7), 6),
    ("row 2b d=3, n=4", lambda: row_case("2b", 4, 7), 5),
    ("row 6, n=4", lambda: row_case("6", 4), 1),
    # n = 6: the rows that take seconds here (7b, and 1, 2a, 2b at r >= 6, take longer)
    ("row 3, n=6", lambda: row_case("3", 6), 2),
    ("row 4a, n=6", lambda: row_case("4a", 6), 4),
    ("row 4b, n=6", lambda: row_case("4b", 6), 3),
    ("row 5 [1:0], n=6", lambda: row_case("5", 6, param=(Fraction(1), Fraction(0))), 4),
    ("row 5 [-1:6], n=6", lambda: row_case("5", 6, param=(Fraction(-1), Fraction(6))), 5),
    ("row 6, n=6", lambda: row_case("6", 6), 1),
    ("row 7a, n=6", lambda: row_case("7a", 6), 4),
    ("row 7c [1:0], n=6", lambda: row_case("7c", 6, param=(Fraction(1), Fraction(0))), 5),
    ("row 7c [-2:6], n=6", lambda: row_case("7c", 6, param=(Fraction(-2), Fraction(6))), 4),
]


@pytest.mark.parametrize("label,factory,expected", ROWS)
def test_hom_dimension_from_definition(label, factory, expected):
    case = factory()
    generators = [tuple_terms(g) for g in case.ideal.generators]
    assert equivariant_hom_dimension(case.n, generators) == expected


def test_maximal_ideal():
    # Hom(m, R/m) is the dual of m/m^2; its invariant part is spanned by
    # the coordinate sum, matching the fixed line of S_n on Q^n.
    n = 3
    generators = [{tuple(int(i == j) for i in range(n)): Fraction(1)} for j in range(n)]
    assert equivariant_hom_dimension(n, generators) == 1
