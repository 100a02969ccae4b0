from functools import lru_cache
from itertools import permutations, product
from math import factorial, prod

import pytest

from symideal.combinat import (IsotypicDecomposition, Partition, Permutation,
                               R_k, Tableau, d_min, dominates, index,
                               kostka_decomposition, kostka_number,
                               multinomial, partitions_of, r_lambda,
                               standard_tableaux, transpose, word)


# permutation classes and S_n characters, which no CLI verb reaches
def cycle_type(sigma: Permutation) -> Partition:
    seen = [False] * sigma.n
    lengths = []
    for i in range(sigma.n):
        if not seen[i]:
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = sigma.images[j] - 1
                length += 1
            lengths.append(length)
    return Partition(sorted(lengths, reverse=True))


def inverse(sigma: Permutation) -> Permutation:
    images = [0] * sigma.n
    for i, v in enumerate(sigma.images):
        images[v - 1] = i + 1
    return Permutation(images)


def from_cycle_type(mu: Partition) -> Permutation:
    """A representative with consecutive cycles (1..mu_1)(mu_1+1..)..."""
    images = []
    start = 1
    for part in mu.parts:
        block = list(range(start + 1, start + part)) + [start]
        images.extend(block)
        start += part
    return Permutation(images)


def group_generators(n: int) -> list[Permutation]:
    """An adjacent transposition and the long cycle, which generate S_n."""
    if n == 1:
        return [Permutation.identity(1)]
    return [Permutation.transposition(1, 2, n), Permutation.cycle(n)]


@lru_cache(maxsize=None)
def _character(lam_parts: tuple[int, ...], mu_parts: tuple[int, ...]) -> int:
    if not lam_parts:
        return 1
    # Border strips of size k correspond to moves h -> h-k on the set of
    # first-column hook lengths; the sign is read off from the crossings.
    k = mu_parts[0]
    rest = mu_parts[1:]
    m = len(lam_parts)
    hooks = [lam_parts[i] + (m - 1 - i) for i in range(m)]  # distinct, decreasing
    hook_set = set(hooks)
    total = 0
    for pos, h in enumerate(hooks):
        target = h - k
        if target < 0 or target in hook_set:
            continue
        height = sum(1 for other in hooks if target < other < h)
        new_hooks = sorted((hook_set - {h}) | {target}, reverse=True)
        new_parts = [new_hooks[i] - (m - 1 - i) for i in range(m)]
        new_parts = [p for p in new_parts if p > 0]
        total += (-1) ** height * _character(tuple(new_parts), rest)
    return total


def irreducible_character(lam: Partition, class_mu: Partition) -> int:
    """Character of the irreducible labelled by lam on the class of cycle type mu."""
    if lam.n != class_mu.n:
        raise ValueError("sizes differ")
    return _character(lam.parts, class_mu.parts)


def specht_dimension(lam: Partition) -> int:
    """Number of standard tableaux, by the hook length formula."""
    lam_t = transpose(lam)
    hooks = prod(
        lam.parts[i] - (j + 1) + lam_t.parts[j] - (i + 1) + 1
        for i in range(lam.m)
        for j in range(lam.parts[i])
    )
    return factorial(lam.n) // hooks


def total_dim(decomposition: IsotypicDecomposition) -> int:
    """The dimension of the module with these multiplicities."""
    return sum(m * specht_dimension(lam) for lam, m in decomposition.multiplicities)


def conjugacy_class_size(mu: Partition) -> int:
    """Number of permutations of cycle type mu."""
    z = 1
    for part in set(mu.parts):
        count = mu.parts.count(part)
        z *= part**count * factorial(count)
    return factorial(mu.n) // z


def all_tableaux(lam):
    """All n! bijective fillings of the diagram, in reading order."""
    result = []
    for perm in permutations(range(1, lam.n + 1)):
        rows, pos = [], 0
        for length in lam.parts:
            rows.append(perm[pos:pos + length])
            pos += length
        result.append(Tableau(rows))
    return result


def brute_force_partition_count(n):
    """Oracle: enumerate compositions and keep the non-increasing ones."""

    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    return sum(1 for c in compositions(n) if all(c[i] >= c[i + 1] for i in range(len(c) - 1)))


def hook_length_count(parts):
    """Oracle: the hook length formula, written independently."""
    rows = list(parts)
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0])]
    product_of_hooks = 1
    for i in range(len(rows)):
        for j in range(rows[i]):
            product_of_hooks *= (rows[i] - j) + (cols[j] - i) - 1
    return factorial(sum(rows)) // product_of_hooks


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition([1, 2])
        with pytest.raises(ValueError):
            Partition([2, 0])

    def test_partitions_of_small(self):
        assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]
        assert [p.parts for p in partitions_of(1)] == [(1,)]

    def test_partitions_of_rejects_zero(self):
        with pytest.raises(ValueError):
            partitions_of(0)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_partition_count_oracle(self, n):
        assert len(partitions_of(n)) == brute_force_partition_count(n)


class TestDominance:
    def test_examples(self):
        assert dominates(Partition([2, 1]), Partition([1, 1, 1]))
        assert not dominates(Partition([3, 3]), Partition([4, 1, 1]))
        assert not dominates(Partition([4, 1, 1]), Partition([3, 3]))

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_maximum_element(self, n):
        top = Partition([n])
        assert all(dominates(top, lam) for lam in partitions_of(n))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates(Partition([2]), Partition([2, 1]))

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_partial_order(self, n):
        ps = partitions_of(n)
        for a in ps:
            assert dominates(a, a)
        for a, b in product(ps, ps):
            if dominates(a, b) and dominates(b, a):
                assert a == b
        for a, b, c in product(ps, ps, ps):
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_transpose_reverses_dominance(self, n):
        for a, b in product(partitions_of(n), repeat=2):
            assert dominates(a, b) == dominates(transpose(b), transpose(a))


class TestTranspose:
    def test_examples(self):
        assert transpose(Partition([4, 3, 2])).parts == (3, 3, 2, 1)
        assert transpose(Partition([5])).parts == (1, 1, 1, 1, 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_involution(self, n):
        for lam in partitions_of(n):
            assert transpose(transpose(lam)) == lam


class TestTableaux:
    def test_counts(self):
        assert len(standard_tableaux(Partition([2, 1]))) == 2
        assert len(standard_tableaux(Partition([4]))) == 1
        assert len(standard_tableaux(Partition([2, 2]))) == 2

    @pytest.mark.parametrize("n", range(1, 8))
    def test_hook_length_oracle(self, n):
        for lam in partitions_of(n):
            count = len(standard_tableaux(lam))
            assert count == hook_length_count(lam.parts)
            assert count == specht_dimension(lam)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_square_sum_identity(self, n):
        assert sum(specht_dimension(lam) ** 2 for lam in partitions_of(n)) == factorial(n)

    def test_standard_tableaux_sorted_and_standard(self):
        tabs = standard_tableaux(Partition([3, 2]))
        readings = [t.reading() for t in tabs]
        assert readings == sorted(readings)
        assert all(t.is_standard() for t in tabs)

    def test_all_tableaux_count(self):
        assert len(all_tableaux(Partition([2, 1]))) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            Tableau([[1], [2, 3]])  # rows must not lengthen downwards
        with pytest.raises(ValueError):
            Tableau([[1, 1], [2]])  # entries must be a bijection


class TestWordIndex:
    def test_worked_example(self):
        t = Tableau([[9, 3, 6, 4], [2, 1, 8], [5, 7]])
        assert word(t) == (5, 2, 9, 7, 1, 3, 8, 6, 4)
        assert index(t) == (2, 1, 4, 3, 0, 1, 3, 2, 1)

    def test_single_row(self):
        t = Tableau([[1, 2, 3]])
        assert word(t) == (1, 2, 3)
        assert index(t) == (0, 0, 0)

    def test_single_column(self):
        t = Tableau([[1], [2], [3]])
        assert word(t) == (3, 2, 1)
        assert index(t) == (2, 1, 0)


class TestPermutation:
    def test_compose_and_inverse(self):
        s = Permutation([2, 3, 1])
        t = Permutation([2, 1, 3])
        assert (s * t).images == tuple(s.images[t.images[i - 1] - 1] for i in range(1, 4))
        assert (s * inverse(s)).images == (1, 2, 3)

    def test_sign(self):
        assert Permutation([2, 1, 3]).sign() == -1
        assert Permutation([2, 3, 1]).sign() == 1

    def test_cycle_type_representative(self):
        mu = Partition([3, 2, 1])
        assert cycle_type(from_cycle_type(mu)) == mu


def kostka_by_tableaux(mu: Partition, lam: Partition) -> int:
    """Oracle: count the semistandard tableaux of shape mu and content lam
    one by one, filling row by row."""
    shape = mu.parts
    content = list(lam.parts)
    rows: list[list[int]] = [[] for _ in shape]

    def count(cell: int) -> int:
        if cell == mu.n:
            return 1
        # rows weakly increase, columns strictly
        i = next(r for r in range(len(shape)) if len(rows[r]) < shape[r])
        j = len(rows[i])
        total = 0
        for v in range(1, len(content) + 1):
            if content[v - 1] == 0:
                continue
            if j > 0 and v < rows[i][-1]:
                continue
            if i > 0 and (len(rows[i - 1]) <= j or v <= rows[i - 1][j]):
                continue
            rows[i].append(v)
            content[v - 1] -= 1
            total += count(cell + 1)
            content[v - 1] += 1
            rows[i].pop()
        return total

    return count(0)


class TestKostka:
    def test_single_row_content(self):
        n = 5
        dec = kostka_decomposition(Partition([n - 1, 1]))
        assert dec.as_dict() == {Partition([n]): 1, Partition([n - 1, 1]): 1}

    @pytest.mark.parametrize("parts", [(3, 2), (4, 2), (3, 3), (5, 1)])
    def test_two_row_formula(self, parts):
        lam = Partition(parts)
        n = lam.n
        expected = {Partition([n - k, k] if k else [n]): 1 for k in range(lam.parts[1] + 1)}
        assert kostka_decomposition(lam).as_dict() == expected

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_regular_representation(self, n):
        dec = kostka_decomposition(Partition([1] * n))
        assert dec.as_dict() == {lam: specht_dimension(lam) for lam in partitions_of(n)}

    @pytest.mark.parametrize("n", range(2, 8))
    def test_dimension_identity(self, n):
        for lam in partitions_of(n):
            total = sum(kostka_number(mu, lam) * specht_dimension(mu) for mu in partitions_of(n))
            assert total == multinomial(lam)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_branching_rule_matches_the_tableau_count(self, n):
        for mu in partitions_of(n):
            for lam in partitions_of(n):
                assert kostka_number(mu, lam) == kostka_by_tableaux(mu, lam)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kostka_number(Partition([2]), Partition([2, 1]))

    def test_unitriangular(self):
        for n in (4, 5):
            for lam in partitions_of(n):
                assert kostka_number(lam, lam) == 1
                for mu in partitions_of(n):
                    if kostka_number(mu, lam):
                        assert dominates(mu, lam)


class TestCharacters:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_dimension_and_linear_characters(self, n):
        ones = Partition([1] * n)
        for lam in partitions_of(n):
            assert irreducible_character(lam, ones) == specht_dimension(lam)
        for mu in partitions_of(n):
            assert irreducible_character(Partition([n]), mu) == 1
            sign = from_cycle_type(mu).sign()
            assert irreducible_character(ones, mu) == sign

    @pytest.mark.parametrize("n", range(2, 7))
    def test_orthogonality(self, n):
        ps = partitions_of(n)
        for lam, nu in product(ps, ps):
            total = sum(
                conjugacy_class_size(mu)
                * irreducible_character(lam, mu)
                * irreducible_character(nu, mu)
                for mu in ps
            )
            assert total == (factorial(n) if lam == nu else 0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_class_sizes_sum(self, n):
        assert sum(conjugacy_class_size(mu) for mu in partitions_of(n)) == factorial(n)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            irreducible_character(Partition([2]), Partition([2, 1]))


class TestDegreesAndBounds:
    def test_d_min(self):
        assert d_min(Partition([5])) == 0
        assert d_min(Partition([1, 1, 1])) == 3
        assert d_min(Partition([2, 2])) == 2

    def test_r_lambda_two_row(self):
        lam = Partition([4, 2])
        n = lam.n
        for l in range(lam.parts[1] + 1):
            assert r_lambda(lam, n - l) == l + 1
        values = {r_lambda(lam, n - l) for l in range(lam.parts[1] + 1, lam.parts[0])}
        assert values == {lam.parts[1] + 1}

    @pytest.mark.parametrize("n", [3, 5])
    def test_r_lambda_full_set(self, n):
        for lam in partitions_of(n):
            assert r_lambda(lam, n) == 1

    def test_r_lambda_range(self):
        with pytest.raises(ValueError):
            r_lambda(Partition([2, 1]), 0)

    def test_R_k(self):
        assert R_k(Partition([2, 1]), 2) == 1
        assert R_k(Partition([2, 1]), 1) == 2
        assert R_k(Partition([3, 3, 1, 1]), 2) == 3
        with pytest.raises(ValueError):
            R_k(Partition([2, 1]), 3)


class TestIsotypicDecomposition:
    def test_total_dim(self):
        dec = IsotypicDecomposition.from_dict({Partition([3]): 2, Partition([2, 1]): 1})
        assert total_dim(dec) == 4

    def test_equality_ignores_grading(self):
        a = IsotypicDecomposition.from_dict({Partition([2]): 1})
        b = IsotypicDecomposition.from_dict({Partition([2]): 1}, {0: {Partition([2]): 1}})
        assert a == b
