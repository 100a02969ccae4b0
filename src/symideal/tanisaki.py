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
  kept: a dropped one's derivatives lie in the span of earlier images.
  Its generators are sought only in the degrees that hold some: with J
  the ideal of those of degree < d and Ann the annihilator, J_d =
  (m*Ann_(d-1))_d, so degree d holds HF_(R/J)(d) - dim(layer d) of them,
  the Hilbert function read off a record of J bounded below d + 1, and a
  degree where they are equal is skipped (``_apolar_generators``).

All three generate the same ideal; tests compare their reduced Groebner
bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .combinat import Partition, R_k, d_min, r_lambda
from .ideals import Ideal, maximal_power
from .linalg import KernelEchelon
from .poly import (DEGREVLEX, W, Polynomial, Vector, complement_vectors, degree_monomials,
                   elementary_symmetric, integrate_vectors, partial_terms, power_sum)
from .specht import distinct_specht_polynomials

MODES = ("subset_elementary", "reduced", "apolar")


# Both loops take |S| = s > n - lam_1, where 1 <= r_lambda(s) <= s: the first
# n - s columns of lam are nonempty and leave out column lam_1, so their
# sum lies in n - s .. n - 1.

def _subset_elementary_generators(lam: Partition) -> list[Polynomial]:
    n = lam.n
    gens = []
    for size in range(n - lam.parts[0] + 1, n + 1):
        threshold = r_lambda(lam, size)
        for subset in combinations(range(1, n + 1), size):
            for r in range(threshold, size + 1):
                gens.append(elementary_symmetric(r, subset, n))
    return gens


def _reduced_generators(lam: Partition) -> list[Polynomial]:
    n = lam.n
    full = list(range(1, n + 1))
    gens = [elementary_symmetric(r, full, n) for r in range(1, lam.m + 1)]
    for size in range(n - lam.parts[0] + 1, n):
        threshold = r_lambda(lam, size)
        for subset in combinations(range(1, n + 1), size):
            gens.append(elementary_symmetric(threshold, subset, n))
    return gens


def _dual_layers(spechts: list[Polynomial], n: int) -> list[list[Vector]]:
    """Bases of the derivative spans of the Specht span, one per degree.

    Entry d, for d = 0..D with D the Specht degree, is a basis of the span
    of the degree-d derivatives: the pairing-orthogonal complement of the
    annihilator in the full degree piece.  Its dimension is the quotient's
    Hilbert function, so all subsequent linear algebra stays small.

    The basis is greedy: the images of the operators x^a of degree D - d
    on the Specht polynomials, Specht polynomials outermost and operators
    in ``degree_monomials`` order, each kept when it is independent of
    those kept before.  Only kept images are held, and that of x^a is
    taken, as a derivative of its first parent x^(a - e_j), only when
    every parent (a_j > 0) was kept one degree lower.  Nothing else would
    be kept: a dropped parent lies in the span of earlier images, and lex
    order is translation-invariant, so its derivatives lie in the span of
    images before x^a.  Images are integer vectors (terms, den) keyed by
    ``DEGREVLEX.key``, as are the operators, den that of their Specht
    polynomial: 1, as Specht polynomials are integral.
    """
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


def _apolar_generators(lam: Partition) -> tuple[list[Polynomial], Ideal]:
    """Minimal generators of the annihilator Ann of the Specht span, degree
    by degree, and the apolar ideal they generate with m^(D+1), D = d_min.

    In a degree d with new generators, integrate the previous dual layer
    to get the orthocomplement of the carried part, then keep the members
    orthogonal to the current layer.  A degree with none is skipped: with
    J the ideal of the generators of degree < d, J_d = (m*Ann_(d-1))_d, so
    degree d holds dim Ann_d - dim J_d = HF_(R/J)(d) - dim layers[d] new
    generators, and HF_(R/J)(d) is read off a record of J + m^(D+1) bounded
    below d + 1 (adding m^(D+1) changes no degree <= D).  As J is inside
    Ann, that count is never negative, and an integrated degree yields
    exactly that many generators (the pairing is definite, so the complement
    of layers[d] in the integrals loses len(layers[d])): either failing is
    an ``ArithmeticError``.  The apolar ideal keeps the last record the
    search built, full once a bound reaches D + 1, its degree cap.  All of
    it runs on integer vectors; each generator becomes a ``Polynomial``
    once."""
    n, top = lam.n, d_min(lam)
    layers = _dual_layers(distinct_specht_polynomials(lam), n)
    cap = maximal_power(n, top + 1).generators
    gens: list[Polynomial] = []
    ideal = Ideal(n, cap)
    for d in range(1, top + 1):
        new = len(ideal._quotient(d + 1).graded.get(d, ())) - len(layers[d])
        if new < 0:
            raise ArithmeticError(f"the apolar generators of degree < {d} leave fewer "
                                  f"standard monomials in degree {d} than the dual layer")
        if not new:
            continue
        found = complement_vectors(integrate_vectors(layers[d - 1], n, d), layers[d], n)
        if len(found) != new:
            raise ArithmeticError(f"degree {d} gave {len(found)} apolar generators, "
                                  f"not {new}")
        gens += [Polynomial(n, terms, den) for terms, den in found]
        ideal = Ideal(n, gens + list(cap))
    return gens, ideal


def tanisaki_ideal(lam: Partition, mode: str = "subset_elementary") -> Ideal:
    """The ideal attached to the partition, by the requested construction."""
    n = lam.n
    if mode == "subset_elementary":
        return Ideal(n, _subset_elementary_generators(lam))
    if mode == "reduced":
        return Ideal(n, _reduced_generators(lam))
    if mode == "apolar":
        return _apolar_generators(lam)[1]
    raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")


def tilde_ideal(mu: Partition) -> Ideal:
    """Monomial-orbit companion: low power sums, the orbit of the m-th
    variable power, and the orbits of k-th powers of squarefree monomials
    whose support size is the tail-sum threshold."""
    n, m = mu.n, mu.m
    gens: list[Polynomial] = [power_sum(j, n) for j in range(1, m)]
    gens += [Polynomial.variable(i, n) ** m for i in range(1, n + 1)]
    for k in range(1, m):
        size = R_k(mu, k)
        for subset in combinations(range(1, n + 1), size):
            mono = [0] * n
            for i in subset:
                mono[i - 1] = k
            gens.append(Polynomial.monomial(tuple(mono)))
    return Ideal(n, gens)


def power_sum_specht_ideal(mu: Partition) -> Ideal:
    """(p_1..p_n, Specht polynomials of every shape not dominating mu)."""
    from .combinat import dominates, partitions_of

    n = mu.n
    gens = [power_sum(j, n) for j in range(1, n + 1)]
    for lam in partitions_of(n):
        if not dominates(lam, mu):
            gens.extend(distinct_specht_polynomials(lam))
    return Ideal(n, gens)


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


def _strictness_witness(smaller: Ideal, larger: Ideal) -> Polynomial | None:
    """A generator of the larger ideal missing from the smaller one."""
    for g in sorted(larger.generators, key=lambda f: (f.degree(), str(f))):
        if not smaller.contains(g):
            return g
    return None


def inclusion_chain_check(mu: Partition) -> InclusionReport:
    """Verify (power sums + non-dominating Specht) inside the monomial-orbit
    companion inside the subset-elementary ideal, with strictness witnesses."""
    small = power_sum_specht_ideal(mu)
    middle = tilde_ideal(mu)
    large = tanisaki_ideal(mu)
    first = [f"first inclusion fails at {g}" for g in small.generators if not middle.contains(g)]
    second = [f"second inclusion fails at {g}" for g in middle.generators if not large.contains(g)]
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

