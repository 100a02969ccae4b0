from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symideal import linalg, tanisaki
from symideal.combinat import Partition, partitions_of
from symideal.linalg import KernelEchelon, nullspace_tags


# a coordinate solve that no CLI verb reaches
def solve_in_span(basis: list[dict], target: dict) -> list[Fraction] | None:
    """Coefficients expressing target over the basis rows, or None."""
    tracker = KernelEchelon()
    for i, row in enumerate(basis):
        if tracker.add(row, i) is not None:
            raise ValueError("basis rows are linearly dependent")
    relation = tracker.add(target, "target")
    if relation is None:
        return None
    scale = relation["target"]
    return [Fraction(-relation.get(i, 0), scale) for i in range(len(basis))]


class KernelEchelonOracle:
    """The elimination of ``KernelEchelon.add`` as first written: every entry
    cleared through a Fraction product, every step building new dicts."""

    def __init__(self):
        self.pivots: dict = {}

    def add(self, row: dict, tag=None) -> dict | None:
        lcm = 1
        for v in row.values():
            if isinstance(v, Fraction):
                lcm = lcm * v.denominator // gcd(lcm, v.denominator)
        row = {k: int(v * lcm) for k, v in row.items() if v}
        tags = {} if tag is None else {tag: lcm}
        while row:
            col = max(row)
            entry = self.pivots.get(col)
            if entry is None:
                self.pivots[col] = (row, tags)
                return None
            pivot, pivot_tags = entry
            a, b = pivot[col], row[col]
            g = gcd(a, b)
            ca, cb = a // g, b // g
            new_row = {k: ca * v for k, v in row.items()}
            for k, v in pivot.items():
                value = new_row.get(k, 0) - cb * v
                if value:
                    new_row[k] = value
                else:
                    new_row.pop(k, None)
            new_tags = {k: ca * v for k, v in tags.items()}
            for k, v in pivot_tags.items():
                value = new_tags.get(k, 0) - cb * v
                if value:
                    new_tags[k] = value
                else:
                    new_tags.pop(k, None)
            g_all = 0
            for v in new_row.values():
                g_all = gcd(g_all, v)
            for v in new_tags.values():
                g_all = gcd(g_all, v)
            if g_all > 1:
                new_row = {k: v // g_all for k, v in new_row.items()}
                new_tags = {k: v // g_all for k, v in new_tags.items()}
            row, tags = new_row, new_tags
        return tags


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


INTS = st.integers(-9, 9)
ENTRIES = st.one_of(INTS, st.builds(Fraction, INTS, st.integers(1, 6)))
# leading entries of short rows: -1 pivots negate the rows they reduce, the
# others rescale them by a factor above one
LEADS = st.sampled_from([-1, -1, -2, -3, 2, 3, 4, -6])


@st.composite
def tagged_sequences(draw, cols=6):
    """Rows each tagged or not: all-int rows with and without zeros, rows
    mixing int and Fraction entries, short rows on the top columns with a
    negative or large leading entry, and rows that repeat or rescale an
    earlier one.  So runs of steps against negative pivot entries, steps by
    a factor above one on rows longer than their pivot, duplicates and
    contents above one occur."""
    out = []
    for i in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["int", "mixed", "short", "repeat"] if out else
                                    ["int", "mixed", "short"]))
        if kind == "repeat":
            earlier = draw(st.sampled_from(out))[0]
            factor = draw(st.sampled_from([1, -1, 2, -3, 6, Fraction(4, 3), Fraction(-1, 2)]))
            row = {c: v * factor for c, v in earlier.items()}
        elif kind == "short":
            lead = draw(st.integers(cols // 2, cols - 1))
            row = {lead: draw(LEADS)}
            row.update(draw(st.dictionaries(st.integers(0, lead - 1), INTS, max_size=1)))
        else:
            row = draw(st.dictionaries(st.integers(0, cols - 1), INTS if kind == "int" else ENTRIES,
                                       max_size=cols))
        out.append((row, draw(st.sampled_from([None, i]))))
    return out


@settings(max_examples=200, deadline=None)
@given(tagged_sequences())
def test_add_matches_the_oracle(sequence):
    tracker, oracle = KernelEchelon(), KernelEchelonOracle()
    for row, tag in sequence:
        assert tracker.add(dict(row), tag) == oracle.add(dict(row), tag)
        assert tracker.pivots == oracle.pivots


def test_add_leaves_its_input_unchanged():
    tracker = KernelEchelon()
    tracker.add({0: 2, 1: Fraction(1, 2)}, "a")
    row = {0: 4, 1: Fraction(3, 4)}
    relation = tracker.add(row, "b")
    assert row == {0: 4, 1: Fraction(3, 4)}
    assert relation is None and tracker.rank == 2


def test_add_leaves_an_int_row_unchanged():
    # an all-int row is copied whole: neither the stored pivot nor a later
    # step may write into the caller's dict
    tracker = KernelEchelon()
    row = {0: 1, 1: 2, 2: 0}
    assert tracker.add(row, "a") is None
    assert row == {0: 1, 1: 2, 2: 0}
    stored, _ = tracker.pivots[1]
    assert stored == {0: 1, 1: 2} and stored is not row
    row = {0: 3, 1: -4}
    relation = tracker.add(row, "b")
    assert row == {0: 3, 1: -4}
    assert relation is None and tracker.rank == 2
    row = {0: 5, 1: 2, 2: 0}
    assert tracker.add(row, "c") is not None
    assert row == {0: 5, 1: 2, 2: 0}


def test_negated_steps_match_the_oracle():
    # a row meeting k pivots of leading entry -1 in a row flips sign k times
    for k in range(1, 6):
        staircase = [({c: -1, c - 1: c}, c) for c in range(5, 5 - k, -1)]
        for last in ({c: 1 for c in range(6)}, {c: -2 for c in range(6)}):
            tracker, oracle = KernelEchelon(), KernelEchelonOracle()
            for row, tag in staircase + [(last, "last")]:
                assert tracker.add(dict(row), tag) == oracle.add(dict(row), tag)
                assert tracker.pivots == oracle.pivots


@pytest.mark.parametrize("parts", [lam.parts for n in range(1, 6) for lam in partitions_of(n)]
                         + [(3, 2, 1), (2, 2, 2)])
def test_apolar_generators_match_the_oracle_kernel(parts, monkeypatch):
    # the dual layers (tanisaki) and the integrations and complements (poly,
    # through nullspace_tags) on the first-written kernel give the same
    # generators, signs included
    lam = Partition(parts)
    got = [(g.terms, g.den) for g in tanisaki._apolar_generators(lam)]
    monkeypatch.setattr(linalg, "KernelEchelon", KernelEchelonOracle)
    monkeypatch.setattr(tanisaki, "KernelEchelon", KernelEchelonOracle)
    want = [(g.terms, g.den) for g in tanisaki._apolar_generators(lam)]
    assert got == want
