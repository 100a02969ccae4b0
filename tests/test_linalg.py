from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from symideal.linalg import KernelEchelon, nullspace_tags, solve_in_span


@st.composite
def sparse_vectors(draw, cols=5):
    return {
        c: Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 5)))
        for c in draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    }


def fraction_rank(rows, cols=5):
    """Oracle: dense Gaussian elimination over the rationals."""
    matrix = [[Fraction(r.get(c, 0)) for c in range(cols)] for r in rows]
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for i in range(len(matrix)):
            if i != rank and matrix[i][col]:
                factor = matrix[i][col]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank


@settings(max_examples=120, deadline=None)
@given(st.lists(sparse_vectors(), max_size=8))
def test_rank_matches_dense_oracle(rows):
    tracker = KernelEchelon()
    for row in rows:
        tracker.add(dict(row))
    assert tracker.rank == fraction_rank(rows)


@settings(max_examples=120, deadline=None)
@given(st.lists(sparse_vectors(), max_size=8))
def test_kernel_relations_are_exact(rows):
    relations = nullspace_tags((dict(row), i) for i, row in enumerate(rows))
    # every emitted relation combines the original vectors to zero
    for rel in relations:
        acc: dict = {}
        for tag, coeff in rel.items():
            for col, value in rows[tag].items():
                acc[col] = acc.get(col, 0) + coeff * value
        assert all(v == 0 for v in acc.values())
    # count of relations complements the rank
    assert len(relations) == len(rows) - fraction_rank(rows)


@settings(max_examples=120, deadline=None)
@given(st.lists(sparse_vectors(), max_size=6), sparse_vectors())
def test_membership_echelon(rows, target):
    # untagged rows: a target is a member exactly when add returns a relation
    tracker = KernelEchelon()
    for row in rows:
        tracker.add(dict(row))
    member = tracker.add(dict(target)) is not None
    assert member == (fraction_rank(rows + [target]) == fraction_rank(rows))


def test_solve_in_span():
    basis = [{"a": 1, "b": 2}, {"b": 1, "c": 3}]
    assert solve_in_span(basis, {"a": 2, "b": 5, "c": 3}) == [2, 1]
    assert solve_in_span(basis, {"a": 1}) is None


def test_solve_in_span_fractional():
    basis = [{0: Fraction(1, 2), 1: Fraction(1, 3)}]
    coeffs = solve_in_span(basis, {0: Fraction(3, 2), 1: 1})
    assert coeffs == [3]
