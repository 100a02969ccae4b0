"""Tanisaki ideals by three independent constructions, the monomial-orbit
companion ideal, and the inclusion-chain verification.

The three constructions of the ideal attached to a partition:

* ``subset_elementary``: partial elementary symmetric polynomials
  e_r(x_S) for every subset S with |S| >= r >= r_lambda(|S|);
* ``reduced``: the full elementary symmetric polynomials of degrees up
  to the number of parts, plus the threshold generator e_{r_lambda(|S|)}
  per admissible subset;
* ``apolar``: degreewise annihilator of the span of the Specht
  polynomials of the shape, capped by a power of the maximal ideal.
  Its inverse system is built one derivative degree at a time, each
  layer a greedy basis of the images of monomial operators on the Specht
  polynomials, taking the image of x^a only when every x^(a - e_j) was
  kept (a dropped one's derivatives lie in the span of earlier images),
  so a degree's candidates are the children x_j*x^b of the operators
  kept one degree lower.  Its generators are sought only in the degrees
  that hold some, counted on one record of the ideal they generate, grown
  degree by degree (``_apolar_generators``).

All three generate the same ideal; tests compare their reduced Groebner
bases.

The ideals of the inclusion chain, subset-elementary, monomial-orbit and
power-sum/Specht, are generated by whole S_n-orbits, and the loops that
build them label each generator by its orbit up to a scalar
(``Ideal.orbits``): each p_j alone, the Specht polynomials of one shape,
{x_i^m}, the k-th powers of squarefree monomials of one support size, and
e_r(x_S) by (|S|, r).  As a permutation is a ring automorphism fixing such
an ideal, ``inclusion_chain_check`` asks ``contains`` once per orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .combinat import Partition, R_k, d_min, r_lambda
from .ideals import Ideal, _Quotient, _uncovered, maximal_power
from .linalg import KernelEchelon
from .poly import (DEGREVLEX, W, Polynomial, Vector, complement_vectors, elementary_symmetric,
                   integrate_vectors, partial_terms, power_sum)
from .specht import distinct_specht_polynomials

MODES = ("subset_elementary", "reduced", "apolar")


# Both loops take |S| = s > n - lam_1, where 1 <= r_lambda(s) <= s: the first
# n - s columns of lam are nonempty and leave out column lam_1, so their
# sum lies in n - s .. n - 1.

def _subset_elementary_generators(lam: Partition) -> tuple[list[Polynomial], list]:
    """The generators e_r(x_S) and the S_n-orbit of each, (|S|, r)."""
    n = lam.n
    gens, orbits = [], []
    for size in range(n - lam.parts[0] + 1, n + 1):
        threshold = r_lambda(lam, size)
        for subset in combinations(range(1, n + 1), size):
            for r in range(threshold, size + 1):
                gens.append(elementary_symmetric(r, subset, n))
                orbits.append((size, r))
    return gens, orbits


def _reduced_generators(lam: Partition) -> list[Polynomial]:
    n = lam.n
    full = list(range(1, n + 1))
    gens = [elementary_symmetric(r, full, n) for r in range(1, lam.m + 1)]
    for size in range(n - lam.parts[0] + 1, n):
        threshold = r_lambda(lam, size)
        for subset in combinations(range(1, n + 1), size):
            gens.append(elementary_symmetric(threshold, subset, n))
    return gens


def _children(held: dict, n: int) -> list[tuple[int, int | None]]:
    """The operators x_(j+1)*a of the operators a in ``held``, each once, by
    exponent tuples in descending lex order, as (key, j): j the first
    variable of the child when every parent x^(a - e_i) of it (a_i > 0) is
    held, else None."""
    units = [(1 << (W * n)) - (1 << (W * j)) for j in range(n)]  # the key of x_(j+1)
    parents: dict[int, list[int]] = {}
    for a in held:
        for j, u in enumerate(units):
            parents.setdefault(a + u, []).append(j)
    children = [(DEGREVLEX.unpack(a, n), a, js) for a, js in parents.items()]
    children.sort(reverse=True)  # the exponent tuples are distinct
    return [(a, min(js) if len(js) == n - m.count(0) else None) for m, a, js in children]


def _dual_layers(spechts: list[Polynomial], n: int) -> list[list[Vector]]:
    """Bases of the derivative spans of the Specht span, one per degree.

    Entry d, for d = 0..D with D the Specht degree, is a basis of the span
    of the degree-d derivatives: the pairing-orthogonal complement of the
    annihilator in the full degree piece.  Its dimension is the quotient's
    Hilbert function, so all subsequent linear algebra stays small.

    The basis is greedy: the images of the operators x^a of degree D - d
    on the Specht polynomials, Specht polynomials outermost and operators
    by exponent tuples in descending lex order, each kept when it is
    independent of those kept before.  Only kept images are held, and that
    of x^a is taken, as a derivative of its first parent x^(a - e_j), only
    when every parent (a_j > 0) was kept one degree lower.  Nothing else
    would be kept: a dropped parent lies in the span of earlier images, and
    lex order is translation-invariant, so its derivatives lie in the span
    of images before x^a.  An operator of degree k >= 1 has a parent, so
    one whose parents were all kept is a child x_j * x^b of a kept x^b:
    the children of the kept operators (``_children``), at most n per kept
    image, are all the candidates, and in lex order they give the layer a
    scan of every operator would.  Images are integer vectors (terms, den)
    keyed by ``DEGREVLEX.key``, as are the operators, den that of their
    Specht polynomial: 1, as Specht polynomials are integral.
    """
    kept, layers = [{0: s.terms} for s in spechts], []  # degree 0: the operator 1
    for k in range(spechts[0].degree() + 1):
        ech, layer = KernelEchelon(), []
        for t, held in enumerate(kept):
            images = held.items() if not k else (
                (a, partial_terms(held[a - (1 << W * n) + (1 << W * j)], j, n))
                for a, j in _children(held, n) if j is not None)
            kept[t] = {}
            for a, image in images:
                if image and ech.add(image) is None:
                    kept[t][a] = image
                    layer.append((image, spechts[t].den))
        layers.append(layer)
    return layers[::-1]


def _apolar_generators(lam: Partition) -> tuple[list[Polynomial], Ideal]:
    """Minimal generators of the annihilator Ann of the Specht span, degree
    by degree, and the apolar ideal they generate with m^(D+1), D = d_min.

    In a degree d with new generators, integrate the previous dual layer
    to get the orthocomplement of the carried part, then keep the members
    orthogonal to the current layer.  A degree with none is skipped: with
    J the ideal of the generators of degree < d, J_d = (m*Ann_(d-1))_d, so
    degree d holds dim Ann_d - dim J_d = HF_(R/J)(d) - dim layers[d] new
    generators, and HF_(R/J)(d) is read off a record of J bounded below
    d + 1.  As J is inside Ann, that count is never negative, and an
    integrated degree yields exactly that many generators (the pairing is
    definite, so the complement of layers[d] in the integrals loses
    len(layers[d])): either failing is an ``ArithmeticError``.

    One record of J is grown (``_Quotient.grown``): after a degree with
    generators, the next is ``_buchberger`` of the last record's basis and
    the new generators, bounded below the next degree asked plus one; a
    record too short for a skipped degree at least doubles its bound, up to
    D + 1.  The last, below D + 1, and the degree-(D+1) monomials no lead
    divides are the reduced basis of the apolar ideal (the degree cap of
    ``ideals``), so the C(n+D, D+1) monomials of m^(D+1) never enter the
    engine.  All of it runs on integer vectors; each generator becomes a
    ``Polynomial`` once, and enters the engine once."""
    n, top = lam.n, d_min(lam)
    layers = _dual_layers(distinct_specht_polynomials(lam), n)
    gens: list[Polynomial] = []
    new: list[Polynomial] = []  # the generators not yet in the record
    record = _Quotient([], n, 2)  # J = 0, read below degree 2
    for d in range(1, top + 1):
        if new or record.below <= d:
            below = d + 1 if new else min(max(d + 1, 2 * record.below), top + 1)
            record, new = record.grown(new, below), []
        free = len(record.graded.get(d, ())) - len(layers[d])
        if free < 0:
            raise ArithmeticError(f"the apolar generators of degree < {d} leave fewer "
                                  f"standard monomials in degree {d} than the dual layer")
        if not free:
            continue
        found = complement_vectors(integrate_vectors(layers[d - 1], n, d), layers[d], n)
        if len(found) != free:
            raise ArithmeticError(f"degree {d} gave {len(found)} apolar generators, not {free}")
        new = [Polynomial(n, terms, den) for terms, den in found]
        gens += new
    record = record.grown(new, top + 1) if new or record.below <= top else record
    cap = maximal_power(n, top + 1).generators
    ideal = Ideal(n, gens + list(cap))
    keys = sorted(k for m in cap for k in m.terms)
    ideal._seed_basis(record.basis + _uncovered(record.basis, keys, n))
    return gens, ideal


def tanisaki_ideal(lam: Partition, mode: str = "subset_elementary") -> Ideal:
    """The ideal attached to the partition, by the requested construction."""
    n = lam.n
    if mode == "subset_elementary":
        return Ideal(n, *_subset_elementary_generators(lam))
    if mode == "reduced":
        return Ideal(n, _reduced_generators(lam))
    if mode == "apolar":
        return _apolar_generators(lam)[1]
    raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")


def tilde_ideal(mu: Partition) -> Ideal:
    """Monomial-orbit companion: low power sums, the orbit of the m-th
    variable power, and the orbits of k-th powers of squarefree monomials
    whose support size is the tail-sum threshold; its orbits are each p_j,
    {x_i^m} and, per k, those k-th powers."""
    n, m = mu.n, mu.m
    gens: list[Polynomial] = [power_sum(j, n) for j in range(1, m)]
    gens += [Polynomial.variable(i, n) ** m for i in range(1, n + 1)]
    orbits: list = [*range(1, m), *[0] * n]  # p_j: j, x_i^m: 0, k-th powers: -k
    for k in range(1, m):
        size = R_k(mu, k)
        for subset in combinations(range(1, n + 1), size):
            mono = [0] * n
            for i in subset:
                mono[i - 1] = k
            gens.append(Polynomial.monomial(tuple(mono)))
            orbits.append(-k)
    return Ideal(n, gens, orbits)


def power_sum_specht_ideal(mu: Partition) -> Ideal:
    """(p_1..p_n, Specht polynomials of every shape not dominating mu); its
    orbits are each p_j and the Specht polynomials of one shape."""
    from .combinat import dominates, partitions_of

    n = mu.n
    gens = [power_sum(j, n) for j in range(1, n + 1)]
    orbits: list = list(range(1, n + 1))  # p_j: j, a Specht polynomial: its shape
    for lam in partitions_of(n):
        if not dominates(lam, mu):
            spechts = distinct_specht_polynomials(lam)
            gens += spechts
            orbits += [lam] * len(spechts)
    return Ideal(n, gens, orbits)


@dataclass
class InclusionReport:
    """Outcome of the two-step inclusion chain check for one partition."""

    mu: Partition
    first_holds: bool
    second_holds: bool
    first_strict: bool
    second_strict: bool
    failures: list[str] = field(default_factory=list)
    witnesses: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.first_holds and self.second_holds


def _orbits(ideal: Ideal, container: Ideal) -> list[list[int]]:
    """The indices of the generators of ``ideal``, grouped so that a group
    lies in ``container`` or outside it as a whole: by the recorded orbits
    when the container records its own, so is symmetric, else one apiece."""
    if container.orbits is None or ideal.orbits is None:
        return [[i] for i in range(len(ideal.generators))]
    groups: dict = {}
    for i, label in enumerate(ideal.orbits):
        groups.setdefault(label, []).append(i)
    return list(groups.values())


def _outside(ideal: Ideal, container: Ideal) -> list[Polynomial]:
    """The generators of ``ideal`` not in ``container``, in order, one
    ``contains`` per group of ``_orbits``, asked highest degree first: the
    container's bounded record is built once, at the top degree."""
    gens = ideal.generators
    groups = sorted(_orbits(ideal, container), key=lambda group: -gens[group[0]].degree())
    out = sorted(i for group in groups if not container.contains(gens[group[0]]) for i in group)
    return [gens[i] for i in out]


def _strictness_witness(smaller: Ideal, larger: Ideal) -> Polynomial | None:
    """The generator of the larger ideal missing from the smaller one that
    is least by (degree, str): degrees are walked upward, each group of
    ``_orbits`` asked once, and ``str`` is read only in the first degree
    with a missing group, so no record of the smaller ideal is read past it."""
    gens, by_degree = larger.generators, {}
    for group in _orbits(larger, smaller):
        by_degree.setdefault(gens[group[0]].degree(), []).append(group)
    for d in sorted(by_degree):
        missing = [gens[i] for group in by_degree[d]
                   if not smaller.contains(gens[group[0]]) for i in group]
        if missing:
            return min(missing, key=str)
    return None


def inclusion_chain_check(mu: Partition) -> InclusionReport:
    """Verify (power sums + non-dominating Specht) inside the monomial-orbit
    companion inside the subset-elementary ideal, with strictness witnesses.

    All three ideals record the S_n-orbits of their generators
    (``Ideal.orbits``), so each is symmetric: a permutation is a ring
    automorphism fixing it, and a generator lies in it exactly when the
    others of its orbit do.  So ``contains`` is asked once per orbit; a
    container without the record is asked about each generator."""
    small = power_sum_specht_ideal(mu)
    middle = tilde_ideal(mu)
    large = tanisaki_ideal(mu)
    first = [f"first inclusion fails at {g}" for g in _outside(small, middle)]
    second = [f"second inclusion fails at {g}" for g in _outside(middle, large)]
    witnesses: dict[str, str] = {}
    first_strict = second_strict = False
    if not first:
        w = _strictness_witness(small, middle)
        if w is not None:
            first_strict = True
            witnesses["first"] = str(w)
    if not second:
        w = _strictness_witness(middle, large)
        if w is not None:
            second_strict = True
            witnesses["second"] = str(w)
    return InclusionReport(mu, not first, not second, first_strict, second_strict,
                           first + second, witnesses)

