"""Isotypic decomposition of quotient rings and equivariant tangent spaces.

Both rest on one S_n action on R/I, the ``swaps`` table of the ideal's
``_Quotient`` record: the quotient coordinates of each standard monomial
under each adjacent transposition.  The record also keeps the symmetry
verdict and the decomposition, so a new basis drops all three.  The
decomposition counts the vectors fixed by each Young subgroup S_mu and
solves dim (R/I)^{S_mu} = sum over lam of K_{lam,mu} * m_lam (Frobenius
reciprocity) down the unitriangular Kostka matrix.  The tangent
computation follows the presentation route: pick a minimal graded stable
generating space of the ideal, integer vectors (terms, den) keyed by
``DEGREVLEX`` throughout, span the relations among those generators, and
impose the relation constraints on the equivariant module homomorphisms
into the quotient, found through Young-fixed module generators of the
generating space.

All linear algebra is arranged to scale with the colength rather than
with ambient degree pieces: generator complements come from integrating
Macaulay inverse systems (whose graded dimensions are the Hilbert
function), and relations are only ever needed modulo the square of the
ideal, where they are eliminated together with their images in the quotient.
Each type kappa of R/I dominates the dominance meet mu of those types, so
K_{kappa,mu} > 0 and a constraint vanishes on the relations iff on their
S_mu-fixed part, which S_mu-invariant functionals read exactly: those of
R/I from the swap table, those of I^2 from fresh normal forms.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from .combinat import (IsotypicDecomposition, Partition, kostka_number, multinomial,
                       partitions_of)
from .ideals import Ideal
from .linalg import KernelEchelon, combine, nullspace_tags
from .poly import (DEGREVLEX, Vector, combine_vectors, complement_vectors, integrate_vectors,
                   swap_key)


def is_symmetric(ideal: Ideal) -> bool:
    """True iff each element of the reduced Groebner basis stays inside
    under (1 2) and the long cycle: the verdict ``_Quotient.symmetric``
    kept on the ideal's record.  The basis generates the ideal, so the
    verdict is the one the input generators would give; the basis is
    usually much shorter."""
    return ideal._quotient().symmetric


def _word(mu: Partition) -> tuple[int, ...]:
    """The block labels 0, .., 0, 1, .., 1, ... of the Young subgroup S_mu."""
    return tuple(b for b, part in enumerate(mu.parts) for _ in range(part))


def _meet(types: list[Partition]) -> Partition:
    """The dominance meet: prefix sums the minima of theirs (still concave)."""
    sums = [0] + [min(sum(lam.parts[:k]) for lam in types) for k in range(1, types[0].n + 1)]
    return Partition(b - a for a, b in zip(sums, sums[1:]) if b > a)


def _orbit_keys(mu: Partition, n: int):
    """The key of the least member of a monomial key's S_mu-orbit (exponents
    ascending within each block of mu), memoised; the key itself for (1^n)."""
    if mu.m == n:
        return lambda key: key
    ends = [sum(mu.parts[:b]) for b in range(mu.m + 1)]

    @lru_cache(maxsize=None)
    def orbit(key: int) -> int:
        m = DEGREVLEX.unpack(key, n)
        return DEGREVLEX.key(tuple(e for lo, hi in zip(ends, ends[1:]) for e in sorted(m[lo:hi])))
    return orbit


def _invariant_functionals(actions, keys: list[int], orbit, inside: list[int],
                           start: int = 0) -> tuple[dict[int, dict], int]:
    """A basis L_start, L_start+1, ... of the S_mu-invariant functionals on the
    degree piece of a record with standard monomials ``keys`` and swap table
    ``actions``, as {orbit: {j: L_j}}, and its size.  Such an L, read through the
    normal form, is constant on S_mu-orbits of monomials: one unknown per orbit,
    one equation L(NF(s_a*s)) = L(s) per inside swap s_a and standard s."""
    columns: dict[int, dict] = {orbit(s): {} for s in keys}
    for s in keys:
        for a in inside:
            nf = actions[a][s]
            for key, c in {**nf, s: nf.get(s, 0) - 1}.items():
                column = columns[orbit(key)]
                column[(a, s)] = column.get((a, s), 0) + c
    solutions = nullspace_tags((column, rep) for rep, column in columns.items())
    return ({rep: {j: L[rep] for j, L in enumerate(solutions, start) if rep in L}
             for rep in columns}, len(solutions))


def _read(terms: list, functionals: dict, orbit, record) -> dict:
    """{j: L_j(terms)} for functionals {orbit: {j: L_j}} of a record: terms
    summed by orbit, those of orbits without a standard monomial reduced."""
    sums: dict[int, int] = {}
    for key, c in terms:
        rep = orbit(key)
        sums[rep] = sums.get(rep, 0) + c
    rest = sorted(((r, c) for r, c in sums.items() if c and r not in functionals), reverse=True)
    nf = record.coordinates(rest) if rest else {}
    return combine((c, functionals.get(orbit(key), {})) for key, c in [*sums.items(), *nf.items()])


def _fixed_columns(actions: list, keys, word: tuple):
    """(column, p) for p in keys: the images (s_a - 1)(p) under the adjacent
    transpositions s_a inside the blocks of the Young subgroup that the word
    labels, given their columns; the fixed vectors are their kernel."""
    inside = [a for a in range(len(word) - 1) if word[a] == word[a + 1]]
    for p in keys:
        col = {(a, row): c for a in inside for row, c in actions[a][p].items()}
        for a in inside:
            col[(a, p)] = col.get((a, p), 0) - 1
        yield col, p


def _fixed_vectors(actions: list, keys, word: tuple) -> list[dict]:
    """Basis of the vectors fixed by the Young subgroup whose blocks the
    word labels, given the columns of the adjacent transpositions."""
    return nullspace_tags(_fixed_columns(actions, keys, word))


def _fixed_dimension(actions: list, keys: list, word: tuple) -> int:
    """The dimension of the fixed vectors of ``_fixed_vectors``: len(keys)
    less the rank of the columns, which forms no kernel relation."""
    echelon = KernelEchelon()
    for col, _ in _fixed_columns(actions, keys, word):
        echelon.add(col)
    return len(keys) - echelon.rank


def _kostka_peel(values: dict[Partition, int], order: list[Partition], kostka) -> dict | None:
    """The c with values[nu] = sum over mu of kostka(mu, nu) * c[mu], given
    kostka(nu, nu) = 1 and 0 for mu after nu in order; None if some c[mu] < 0."""
    remaining, out = dict(values), {}
    for pos, mu in enumerate(order):
        out[mu] = remaining.get(mu, 0)
        if out[mu] < 0:
            return None
        for nu in order[pos + 1:]:
            remaining[nu] = remaining.get(nu, 0) - kostka(mu, nu) * out[mu]
    return out


def decompose_quotient(ideal: Ideal) -> IsotypicDecomposition:
    """Multiplicities of the irreducibles in the quotient ring, graded for a
    homogeneous ideal, from the Young-fixed dimensions of each degree piece
    (one piece otherwise), solved with mu in ``partitions_of`` order; kept
    on the ideal's record."""
    record = ideal._quotient()
    if record.decomposition is not None:
        return record.decomposition
    if ideal.colength() == float("inf"):
        raise ValueError("quotient must be finite-dimensional")
    if not is_symmetric(ideal):
        raise ValueError("ideal is not stable under variable permutations")

    homogeneous, order = ideal.is_homogeneous(), partitions_of(ideal.ambient_n)  # (n) first
    pieces = record.graded if homogeneous else {0: record.standard}
    graded: dict[int, dict[Partition, int]] = {}
    for d, keys in pieces.items():
        fixed = {mu: _fixed_dimension(record.swaps, keys, _word(mu)) for mu in order}
        graded[d] = _kostka_peel(fixed, order, kostka_number)
        if graded[d] is None:
            raise ArithmeticError(f"negative multiplicity from Young-fixed dimensions {fixed}")
    mult = {lam: sum(layer[lam] for layer in graded.values()) for lam in order}
    record.decomposition = IsotypicDecomposition.from_dict(mult, graded if homogeneous else None)
    return record.decomposition


def is_permutation_module_sum(rho: IsotypicDecomposition) -> list[Partition] | None:
    """Express rho as a sum of permutation modules, if possible.

    The Kostka matrix is unitriangular for the dominance order, so
    peeling from the dominance-minimal side decides the question exactly.
    """
    if not rho.multiplicities:
        return []
    coefficients = _kostka_peel(rho.as_dict(), partitions_of(rho.multiplicities[0][0].n)[::-1],
                                lambda mu, lam: kostka_number(lam, mu))
    if coefficients is None:
        return None
    return [mu for mu, count in sorted(coefficients.items(), reverse=True) for _ in range(count)]


# ---------------------------------------------------------------------------
# tangent space of the invariant Hilbert scheme at a homogeneous ideal


@dataclass
class TangentReport:
    """Result of the equivariant tangent-space computation.

    ``details`` holds deterministic work counts of the relation step:
    ``products`` b*v_i and distinct monomial ``images`` b*m read, and
    ``constraint_rows``; its Young subgroup ``mu`` and invariant functionals
    per degree of R/I and R/I^2 (``quotient_``/``square_functionals``); and
    ``hom_unknowns`` solved for by the hom step.  None is in ``record``.
    """

    ideal: Ideal
    n1_dims: dict[int, int]
    n2_count: int
    syzygy_bound: int
    tangent_dim: int
    equivariant_hom_dim: int
    wall_time_s: float = 0.0
    details: dict = field(default_factory=dict)

    def record(self) -> dict:
        """The JSON record of the report; the generators, rendered once, give
        both its ``ideal_hash`` and its ``generators``."""
        generators = [str(g) for g in self.ideal.generators]
        text = json.dumps([self.ideal.ambient_n, sorted(generators)])
        return {
            "ideal_hash": hashlib.sha256(text.encode()).hexdigest()[:16],
            "n1_graded_dims": {str(d): v for d, v in sorted(self.n1_dims.items())},
            "n2_count": self.n2_count,
            "syzygy_degree_bound": self.syzygy_bound,
            "tangent_dim": self.tangent_dim,
            "wall_time_s": round(self.wall_time_s, 3),
            "generators": generators,
        }


def _minimal_generator_space(ideal: Ideal) -> tuple[dict[int, list[Vector]], int]:
    """Graded minimal generating space of a homogeneous ideal.

    Works degree by degree with Macaulay inverse systems: the dual space
    of the degree-d quotient piece is carried along, the orthogonal
    complement W_d of m*I inside the full degree piece is obtained by
    integrating the previous dual space, and the new generators are the
    members of W_d lying in the ideal, up to the top degree of the reduced
    Groebner basis G, which generates.  Duals, W_d and generators are integer
    vectors (terms, den) keyed by ``DEGREVLEX`` (see ``poly``), so W_d is
    read in R/I as it comes.  Returns ({degree: generators}, N) where the
    quotient vanishes from degree N on.

    Each element of I_d reduces to zero by G, and a reducer of lower degree
    contributes a member of (m*I_{d-1})_d, so I_d = span(G_d) + (m*I_{d-1})_d.
    So at a degree where G has no element W_d holds no generator and is the
    next dual space itself: its coordinates and complement are not computed,
    and only the dual dimension len(W_d) = HF(d) is checked.  A degree of G
    whose members all lie in (m*I_{d-1})_d gives no generator either, and
    skips the complement alike.
    """
    n, quotient = ideal.ambient_n, ideal._quotient()
    N = len(ideal.hilbert_function())
    duals: list[Vector] = [({0: 1}, 1)]
    generators: dict[int, list[Vector]] = {}
    basis_degrees = {DEGREVLEX.degree(g[0][0], n) for g in quotient.basis}
    for d in range(1, max(basis_degrees) + 1):
        w_space = integrate_vectors(duals, n, d)
        hf_d = len(quotient.graded.get(d, ()))
        if d not in basis_degrees:
            # I_d = (m*I_{d-1})_d: no generator, and W_d is the dual space
            if len(w_space) != hf_d:
                raise ArithmeticError(f"dual dimension mismatch in degree {d}")
            duals = w_space
            continue
        # members of W_d inside the ideal are exactly the new generators
        relations = nullspace_tags((quotient.coordinates(sorted(terms.items(), reverse=True)), t)
                                   for t, (terms, _) in enumerate(w_space))
        if len(relations) != len(w_space) - hf_d:
            raise ArithmeticError(f"generator count mismatch in degree {d}")
        new = [combine_vectors(w_space, relation) for relation in relations]
        if d < N:
            # next dual space: the pairing-orthogonal complement of the new
            # generators inside W_d (the pairing is definite, so dims add),
            # W_d itself when there is none
            duals = complement_vectors(w_space, new, n) if new else w_space
            if len(duals) != hf_d:
                raise ArithmeticError(f"dual dimension mismatch in degree {d}")
        if new:
            generators[d] = new
    return generators, N


def _coset_images(vector: dict, word: tuple, actions: list) -> dict[tuple, dict]:
    """sigma*vector for one sigma per coset of the Young subgroup fixing it,
    keyed by the relabelled word, each one swap away from an earlier one."""
    images, queue = {word: vector}, [word]
    for w in queue:
        for a in range(len(w) - 1):
            swapped = w[:a] + (w[a + 1], w[a]) + w[a + 2:]
            if swapped not in images:
                images[swapped] = combine((c, actions[a][p]) for p, c in images[w].items())
                queue.append(swapped)
    return images


def _hom_basis_equivariant(ideal: Ideal, gens: list[Vector],
                           gen_degrees: list[int]) -> tuple[list[dict], int]:
    """Basis of the equivariant linear maps from the generator space into the
    quotient, given on the generators' terms (den*v), as dicts
    {(standard_key, generator_index): coeff}, and the number of unknowns solved for.

    Per degree piece, by Frobenius reciprocity (Hom_{S_n}(M^mu, W) = W^{S_mu}):
    module generators v_j fixed by Young subgroups S_{mu_j}, with mu scanned
    down from (n); unknowns phi(v_j) in (R/I)^{S_{mu_j}}; one constraint per
    relation among the coset images sigma*v_j; phi(sigma*v_j) = sigma*phi(v_j).
    """
    n = ideal.ambient_n
    quotient_action, standard = ideal._quotient().swaps, ideal._quotient().standard
    quotient_fixed: dict[tuple, list[dict]] = {}  # per word, the images of a basis of (R/I)^{S_mu}
    out, unknown_count = [], 0
    for d in sorted(set(gen_degrees)):
        indices = [i for i, e in enumerate(gen_degrees) if e == d]
        size = len(indices)
        echelon = KernelEchelon()  # gives each permuted generator in their basis
        for pos, i in enumerate(indices):
            echelon.add(gens[i][0], pos)
        permuted = [[echelon.add({swap_key(k, a, n): c for k, c in gens[i][0].items()}, "image")
                     for i in indices] for a in range(n - 1)]
        if any(None in columns for columns in permuted):
            raise ArithmeticError("generator space is not permutation-stable")
        actions = [[{pos: Fraction(c, -r["image"]) for pos, c in r.items() if pos != "image"}
                    for r in columns] for columns in permuted]

        # keep an S_mu-fixed v_j if it enlarges the submodule spanned so far
        span, relations, fixed = KernelEchelon(), [], []  # fixed[j][t]: images by word
        for mu in sorted(partitions_of(n), key=multinomial):  # refines dominance
            if span.rank == size:
                break
            word = _word(mu)
            for v in _fixed_vectors(actions, range(size), word):
                j = len(fixed)
                if span.add(v, (j, word)) is None:
                    images = _coset_images(v, word, actions)
                    relations += [r for r in (span.add(x, (j, w))
                                              for w, x in list(images.items())[1:])
                                  if r is not None]
                    if word not in quotient_fixed:
                        quotient_fixed[word] = [
                            _coset_images(f, word, quotient_action)
                            for f in _fixed_vectors(quotient_action, standard, word)]
                    fixed.append(quotient_fixed[word])
        unknowns = [(j, t) for j in range(len(fixed)) for t in range(len(fixed[j]))]
        unknown_count += len(unknowns)
        expressions = [span.add({pos: 1}, "generator") for pos in range(size)]
        scales = [-relation.pop("generator") for relation in expressions]

        def value(combination: dict, j: int, t: int) -> dict:
            """Unknown (j, t) applied to a combination of coset images."""
            return combine((c, fixed[j][t][w]) for (i, w), c in combination.items() if i == j)

        for solution in nullspace_tags(({(r, key): v for r, relation in enumerate(relations)
                                         for key, v in value(relation, *u).items()}, u)
                                       for u in unknowns):
            phi = {}
            for pos, relation in enumerate(expressions):
                image = combine((a, value(relation, *u)) for u, a in solution.items())
                phi.update({(key, indices[pos]): Fraction(v, scales[pos])
                            for key, v in image.items()})
            out.append(phi)
    return out, unknown_count


def tangent_dimension(ideal: Ideal) -> TangentReport:
    """Dimension of the equivariant module homomorphisms into the quotient.

    This is the Zariski tangent space of the invariant punctual Hilbert
    scheme at the point cut out by the (homogeneous, symmetric,
    finite-colength) ideal.

    Minimal first syzygies of an Artinian homogeneous ideal have degree at
    most reg(I) + 1 = N + 1 (Eisenbud, *The Geometry of Syzygies*, ch. 4),
    where the elimination stops.  ``n2_count`` counts the relations K_d from
    HF_{R/I^2} - HF_{R/I} = dim (I/I^2)_d below ``syzygy_bound``, the bound
    of the I^2 built (``_Quotient.square``, which forms no S-polynomial of two
    products sharing a factor); a degree without any is skipped.  The
    generator space reads W_d in R/I only in the degrees of the reduced
    basis of I (``_minimal_generator_space``).

    K_d is the kernel of Phi: b (x) v_i -> b*v_i on ((R/I) (x) V)_d, and
    phi_t constrains it through the equivariant psi_t: b (x) v_i ->
    NF_I(b*phi_t(v_i)).  Each type kappa of R/I dominates their dominance
    meet mu, so K_{kappa,mu} > 0 and the psi_t vanish on K_d iff on
    K_d^{S_mu}.  S_mu-invariant functionals read x as its S_mu-average and
    separate fixed vectors, so rows (L(b*v_i) | L'(psi_t(b (x) v_i))), L and
    L' over those of (R/I^2)_d and R/I, eliminate to exactly the
    constraints of K_d^{S_mu}; the L rank must be #L - #L'.  Below
    |S_mu| = n orbit sums do not pay, and the trivial group is used.
    """
    start = time.monotonic()
    if not ideal.is_homogeneous():
        raise ValueError("tangent computation needs a homogeneous ideal")
    colength = ideal.colength()
    if colength == float("inf") or colength == 0:
        raise ValueError("tangent computation needs 0 < colength < infinity")
    if not is_symmetric(ideal):
        raise ValueError("ideal is not stable under variable permutations")

    n = ideal.ambient_n
    graded_gens, N = _minimal_generator_space(ideal)
    gens = [g for d, gs in sorted(graded_gens.items()) for g in gs]  # (terms, den)
    gen_degrees = [d for d, gs in sorted(graded_gens.items()) for _ in gs]
    max_gen_degree = max(gen_degrees)
    syzygy_bound = N + max_gen_degree  # relations from this degree on are vacuous

    hom_basis, hom_unknowns = _hom_basis_equivariant(ideal, gens, gen_degrees)
    k = len(hom_basis)

    values: list[dict[int, list]] = [{} for _ in gens]  # phi_t(den*v_i) as {key: [(t, c)]}
    for t, phi in enumerate(hom_basis):  # phi_t scaled to integer values: the same constraint rank
        scale = lcm(*(c.denominator for c in phi.values()))
        for (m, i), c in phi.items():
            values[i].setdefault(m, []).append((t, int(c * scale)))

    mu = _meet([lam for lam, _ in decompose_quotient(ideal).multiplicities])
    mu = mu if prod(map(factorial, mu.parts)) >= n else Partition((1,) * n)
    word, orbit = _word(mu), _orbit_keys(mu, n)
    inside = [a for a in range(n - 1) if word[a] == word[a + 1]]
    quotient, square = ideal._quotient(), ideal._quotient().square(syzygy_bound)
    by_degree, square_keys = quotient.graded, square.graded
    quotient_functionals, quotient_counts = {}, {}  # L' numbered across all degrees
    for e, keys in by_degree.items():
        quotient_functionals[e], quotient_counts[e] = _invariant_functionals(
            quotient.swaps, keys, orbit, inside, sum(quotient_counts.values()))
    images: dict[int, dict] = {}  # L'(NF_I(m)) by key, deg m < N

    n2_count = products = constraint_rows = 0
    square_counts: dict[int, int] = {}
    constraint_rank = KernelEchelon()
    for d in range(min(gen_degrees) + 1, syzygy_bound):
        pairs = [(i, b) for i, e_i in enumerate(gen_degrees) for b in by_degree.get(d - e_i, [])]
        relations = len(pairs) - len(square_keys.get(d, [])) + len(by_degree.get(d, []))
        if relations < 0:
            raise ArithmeticError(f"negative relation count in degree {d}")
        n2_count += relations
        if d > N + 1 or relations == 0:
            continue
        products += len(pairs)
        keys = square_keys.get(d, [])
        functionals, square_counts[d] = _invariant_functionals(
            square.swapped(keys, inside), keys, orbit, inside)
        echelon = KernelEchelon()
        for i, b in pairs:  # den*b*v_i: the terms of v_i shifted by the key of b
            row = _read([(key + b, c) for key, c in gens[i][0].items()], functionals, orbit, square)
            for m, coeffs in values[i].items():
                e = DEGREVLEX.degree(b + m, n)
                if e < N and b + m not in images:
                    images[b + m] = _read([(b + m, 1)], quotient_functionals[e], orbit, quotient)
                for g, v in images[b + m].items() if e < N else ():
                    for t, c in coeffs:
                        row[-1 - g * k - t] = row.get(-1 - g * k - t, 0) + c * v
            echelon.add(row)
        if sum(col >= 0 for col in echelon.pivots) != square_counts[d] - quotient_counts.get(d, 0):
            raise ArithmeticError(f"relation count mismatch in degree {d}")
        for col, (row, _) in echelon.pivots.items():
            if col < 0:  # the I^2 part cancelled: a relation applied to each phi_t
                rows: dict[int, dict[int, int]] = {}
                for column, c in row.items():
                    g, t = divmod(-1 - column, k)
                    rows.setdefault(g, {})[t] = c
                constraint_rows += len(rows)
                for constraint in rows.values():
                    constraint_rank.add(constraint)

    tangent = k - constraint_rank.rank
    return TangentReport(
        ideal=ideal,
        n1_dims={d: len(gs) for d, gs in sorted(graded_gens.items())},
        n2_count=n2_count,
        syzygy_bound=syzygy_bound,
        tangent_dim=tangent,
        equivariant_hom_dim=k,
        wall_time_s=time.monotonic() - start,
        details={"products": products, "images": len(images), "mu": mu.parts,
                 "constraint_rows": constraint_rows, "hom_unknowns": hom_unknowns,
                 "quotient_functionals": quotient_counts, "square_functionals": square_counts},
    )
