"""Groebner-basis engine and zero-dimensional ideal toolkit.

The engine works on integer-coefficient term lists (content 1, positive
leading coefficient) so that all reductions are fraction-free; rational
results are reconstructed from tracked multipliers.  Pair selection uses
the normal strategy with Gebauer-Moeller elimination, which makes reduced
bases deterministic.  Reduced Groebner bases are canonical for a fixed
order, so ideal equality is decided by comparing them.
"""

from __future__ import annotations

import heapq
import json
from fractions import Fraction
from itertools import permutations
from math import gcd, inf

from .poly import Monomial, Polynomial, degree_monomials, parse_polynomial

# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """Total multiplicative order; key(m) increases with the monomial."""

    name = "abstract"

    def key(self, m: Monomial) -> tuple:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name


class DegRevLex(MonomialOrder):
    name = "degrevlex"

    def key(self, m: Monomial) -> tuple:
        return (sum(m), tuple(-e for e in reversed(m)))


class DegLex(MonomialOrder):
    name = "deglex"

    def key(self, m: Monomial) -> tuple:
        return (sum(m), m)


class EliminationOrder(MonomialOrder):
    """Block order making the last ``tail`` variables dominant.

    Restricted to monomials free of the tail block it agrees with
    degrevlex on the head block, so elimination outputs are degrevlex
    Groebner bases of the eliminated ideal.
    """

    def __init__(self, tail: int = 1):
        self.tail = tail
        self.name = f"eliminate_last_{tail}"

    def key(self, m: Monomial) -> tuple:
        head, tail = m[: len(m) - self.tail], m[len(m) - self.tail:]
        return (sum(tail), tuple(-e for e in reversed(tail)),
                sum(head), tuple(-e for e in reversed(head)))


DEGREVLEX = DegRevLex()
DEGLEX = DegLex()


# ---------------------------------------------------------------------------
# engine term lists: list[(key, monomial, int coeff)] sorted descending by key


def _strip(terms: list, extra: int = 0) -> tuple[list, int]:
    """Divide all coefficients (and extra) by their common content."""
    g = abs(extra)
    for _, _, c in terms:
        g = gcd(g, c)
        if g == 1:
            return terms, extra
    if g > 1:
        terms = [(k, m, c // g) for k, m, c in terms]
        extra //= g
    return terms, extra


def _to_engine(f: Polynomial, order: MonomialOrder) -> list:
    lcm_den = 1
    for c in f.terms.values():
        lcm_den = lcm_den * c.denominator // gcd(lcm_den, c.denominator)
    terms = [(order.key(m), m, int(c * lcm_den)) for m, c in f.terms.items()]
    terms.sort(key=lambda t: t[0], reverse=True)
    terms, _ = _strip(terms)
    if terms and terms[0][2] < 0:
        terms = [(k, m, -c) for k, m, c in terms]
    return terms


def _to_poly(terms: list, n: int, mult: int = 1) -> Polynomial:
    return Polynomial(n, {m: Fraction(c, mult) for _, m, c in terms})


def _shift(terms: list, u: Monomial, scalar: int, order: MonomialOrder) -> list:
    if not any(u):
        return [(k, m, c * scalar) for k, m, c in terms]
    out = []
    for _, m, c in terms:
        mono = tuple(a + b for a, b in zip(m, u))
        out.append((order.key(mono), mono, c * scalar))
    return out


def _add(a: list, b: list) -> list:
    """Sum of two descending term lists (same order)."""
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ka, kb = a[i][0], b[j][0]
        if ka > kb:
            out.append(a[i])
            i += 1
        elif kb > ka:
            out.append(b[j])
            j += 1
        else:
            c = a[i][2] + b[j][2]
            if c:
                out.append((ka, a[i][1], c))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def _divides(a: Monomial, b: Monomial) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x if x > y else y for x, y in zip(a, b))


def _normal_form(terms: list, basis: list[list], order: MonomialOrder,
                 divisors: dict) -> tuple[list, int]:
    """Fully reduce; returns (remainder, mult) with remainder = mult*f - combination.

    ``divisors`` maps a leading monomial to the first basis element (in
    basis order) dividing it, or to None; it is filled on demand and is
    valid only for this basis.
    """
    mult = 1
    rem: list = []
    work = list(terms)
    while work:
        key, lm, lc = work[0]
        if lm in divisors:
            reducer = divisors[lm]
        else:
            reducer = divisors[lm] = next(
                (g for g in basis if _divides(g[0][1], lm)), None)
        if reducer is None:
            rem.append(work[0])
            work = work[1:]
            continue
        glc = reducer[0][2]
        d = gcd(glc, lc)
        ca, cb = glc // d, lc // d
        u = tuple(x - y for x, y in zip(lm, reducer[0][1]))
        if ca != 1:
            work = [(k, m, c * ca) for k, m, c in work]
            rem = [(k, m, c * ca) for k, m, c in rem]
            mult *= ca
        work = _add(work, _shift(reducer, u, -cb, order))
        if mult.bit_length() > 1024:
            g_all = mult
            for _, _, c in rem:
                g_all = gcd(g_all, c)
            for _, _, c in work:
                g_all = gcd(g_all, c)
            if g_all > 1:
                rem = [(k, m, c // g_all) for k, m, c in rem]
                work = [(k, m, c // g_all) for k, m, c in work]
                mult //= g_all
    return rem, mult


def _spoly(f: list, g: list, order: MonomialOrder) -> list:
    lf, cf = f[0][1], f[0][2]
    lg, cg = g[0][1], g[0][2]
    lcm = _lcm(lf, lg)
    d = gcd(cf, cg)
    uf = tuple(x - y for x, y in zip(lcm, lf))
    ug = tuple(x - y for x, y in zip(lcm, lg))
    return _add(_shift(f, uf, cg // d, order), _shift(g, ug, -(cf // d), order))


def _normalize(terms: list) -> list:
    terms, _ = _strip(terms)
    if terms and terms[0][2] < 0:
        terms = [(k, m, -c) for k, m, c in terms]
    return terms


def _buchberger(inputs: list[list], order: MonomialOrder) -> list[list]:
    """Reduced Groebner basis from engine term lists."""
    G: list[list] = []
    alive: list[bool] = []
    heap: list = []  # (lcm key, i, j, lcm)
    pair_alive: set = set()

    def update(t: int) -> None:
        # Gebauer-Moeller: prune the new pairs among themselves...
        lt = G[t][0][1]
        C = [(i, _lcm(G[i][0][1], lt)) for i in range(t) if alive[i]]
        D: list = []
        while C:
            i, lcm_i = C.pop()
            coprime = all(x == 0 or y == 0 for x, y in zip(G[i][0][1], lt))
            if coprime or not any(
                _divides(lcm_j, lcm_i) for _, lcm_j in C + D
            ):
                D.append((i, lcm_i))
        # ...then drop the non-coprime survivors into the queue...
        for i, lcm_i in D:
            coprime = all(x == 0 or y == 0 for x, y in zip(G[i][0][1], lt))
            if not coprime:
                heapq.heappush(heap, (order.key(lcm_i), i, t, lcm_i))
                pair_alive.add((i, t))
        # ...and prune the old pairs superseded by the new element.
        for i, j in list(pair_alive):
            if j == t:
                continue
            lcm_ij = _lcm(G[i][0][1], G[j][0][1])
            if (_divides(lt, lcm_ij)
                    and _lcm(G[i][0][1], lt) != lcm_ij
                    and _lcm(G[j][0][1], lt) != lcm_ij):
                pair_alive.discard((i, j))
        # mark superseded basis elements as non-minimal (kept as reducers)
        for i in range(t):
            if alive[i] and _divides(lt, G[i][0][1]):
                alive[i] = False

    for f in sorted(inputs, key=lambda t: t[0][0]):
        rem, _ = _normal_form(f, G, order, {})
        rem = _normalize(rem)
        if rem:
            G.append(rem)
            alive.append(True)
            update(len(G) - 1)

    while heap:
        _, i, j, _ = heapq.heappop(heap)
        if (i, j) not in pair_alive:
            continue
        pair_alive.discard((i, j))
        s = _spoly(G[i], G[j], order)
        if not s:
            continue
        rem, _ = _normal_form(s, G, order, {})
        rem = _normalize(rem)
        if rem:
            G.append(rem)
            alive.append(True)
            update(len(G) - 1)

    return _reduce_basis([G[i] for i in range(len(G)) if alive[i]], order)


def _reduce_basis(basis: list[list], order: MonomialOrder) -> list[list]:
    """The reduced Groebner basis from any Groebner basis of the ideal."""
    # minimal basis: leading monomials pairwise non-divisible
    kept: list[list] = []
    for g in sorted(basis, key=lambda t: t[0][0]):
        if not any(_divides(h[0][1], g[0][1]) for h in kept):
            kept.append(g)
    # tail-reduce each element against the others
    reduced: list[list] = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        rem, _ = _normal_form(g, others, order, {})
        reduced.append(_normalize(rem))
    reduced.sort(key=lambda t: t[0][0])
    return reduced


# ---------------------------------------------------------------------------
# the Ideal type


class Ideal:
    """A polynomial ideal with cached reduced Groebner bases per order."""

    def __init__(self, ambient_n: int, generators) -> None:
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("generators must be Polynomial values")
            if g.ambient_n != ambient_n:
                raise ValueError("generator ambient size mismatch")
            if not g.is_zero():
                gens.append(g)
        self.ambient_n = ambient_n
        self.generators: tuple[Polynomial, ...] = tuple(gens)
        self._gb: dict[str, list[list]] = {}
        # per order: leading monomial -> first divisor in the basis, or None
        self._divisors: dict[str, dict] = {}
        self._standard: dict[str, list[Monomial] | None] = {}

    # -- Groebner bases ---------------------------------------------------
    def _engine_basis(self, order: MonomialOrder = DEGREVLEX) -> list[list]:
        if order.name not in self._gb:
            inputs = [_to_engine(g, order) for g in self.generators]
            inputs = [f for f in inputs if f]
            self._gb[order.name] = _buchberger(inputs, order)
        return self._gb[order.name]

    def _seed_basis(self, order: MonomialOrder, basis: list[list]) -> None:
        """Install a known Groebner basis (reduced to canonical form)."""
        self._gb[order.name] = _reduce_basis(basis, order)
        self._divisors.pop(order.name, None)

    def groebner_basis(self, order: MonomialOrder = DEGREVLEX) -> tuple[Polynomial, ...]:
        """The reduced (monic) Groebner basis, sorted by leading monomial."""
        basis = self._engine_basis(order)
        return tuple(_to_poly(g, self.ambient_n).monic() for g in basis)

    def normal_form(self, f: Polynomial, order: MonomialOrder = DEGREVLEX) -> Polynomial:
        if f.ambient_n != self.ambient_n:
            raise ValueError("ambient size mismatch")
        if f.is_zero():
            return f
        basis = self._engine_basis(order)
        lcm_den = 1
        for c in f.terms.values():
            lcm_den = lcm_den * c.denominator // gcd(lcm_den, c.denominator)
        terms = [(order.key(m), m, int(c * lcm_den)) for m, c in f.terms.items()]
        terms.sort(key=lambda t: t[0], reverse=True)
        # terms == lcm_den * f exactly; rem == mult * lcm_den * f modulo the ideal
        rem, mult = _normal_form(terms, basis, order,
                                 self._divisors.setdefault(order.name, {}))
        scale = Fraction(1, lcm_den * mult)
        return Polynomial(self.ambient_n, {m: Fraction(c) * scale for _, m, c in rem})

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    # -- zero-dimensional toolkit ------------------------------------------
    def standard_monomials(self, order: MonomialOrder = DEGREVLEX) -> list[Monomial] | None:
        """Monomials outside the leading-term staircase; None when infinite."""
        if order.name not in self._standard:
            basis = self._engine_basis(order)
            n = self.ambient_n
            lms = [g[0][1] for g in basis]
            if any(sum(m) == 0 for m in lms):
                self._standard[order.name] = []
                return []
            caps = []
            for i in range(n):
                pure = [m[i] for m in lms if sum(m) == m[i]]
                if not pure:
                    self._standard[order.name] = None
                    return None
                caps.append(min(pure))
            found: list[Monomial] = []
            mono = [0] * n

            def walk(i: int) -> None:
                if i == n:
                    m = tuple(mono)
                    if not any(_divides(lm, m) for lm in lms):
                        found.append(m)
                    return
                for e in range(caps[i]):
                    mono[i] = e
                    walk(i + 1)
                mono[i] = 0

            walk(0)
            found.sort(key=DEGREVLEX.key)
            self._standard[order.name] = found
        return self._standard[order.name]

    def colength(self, order: MonomialOrder = DEGREVLEX):
        """Vector-space dimension of the quotient; inf when not finite."""
        std = self.standard_monomials(order)
        return inf if std is None else len(std)

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def hilbert_function(self) -> tuple[int, ...]:
        """Dimensions of the graded quotient pieces, up to the last nonzero."""
        for g in self.generators:
            if not g.is_homogeneous():
                raise ValueError("hilbert_function needs homogeneous generators")
        std = self.standard_monomials(DEGREVLEX)
        if std is None:
            raise ValueError("quotient is not finite-dimensional")
        by_degree: dict[int, int] = {}
        for m in std:
            by_degree[sum(m)] = by_degree.get(sum(m), 0) + 1
        if not by_degree:
            return ()
        top = max(by_degree)
        return tuple(by_degree.get(d, 0) for d in range(top + 1))

    def intersect(self, other: "Ideal") -> "Ideal":
        """Auxiliary-variable elimination: (t*I + (1-t)*J) with t removed."""
        if other.ambient_n != self.ambient_n:
            raise ValueError("ambient size mismatch")
        n = self.ambient_n
        order = EliminationOrder(1)

        def lift(p: Polynomial, t_mult: bool, one_minus: bool) -> Polynomial:
            terms: dict[Monomial, Fraction] = {}
            for m, c in p.terms.items():
                if t_mult:
                    terms[m + (1,)] = terms.get(m + (1,), Fraction(0)) + c
                if one_minus:
                    key = m + (0,)
                    terms[key] = terms.get(key, Fraction(0)) + c
                    key = m + (1,)
                    terms[key] = terms.get(key, Fraction(0)) - c
            return Polynomial(n + 1, terms)

        gens = [lift(g, True, False) for g in self.groebner_basis()]
        gens += [lift(g, False, True) for g in other.groebner_basis()]
        basis = _buchberger([_to_engine(g, order) for g in gens], order)
        kept = []
        for g in basis:
            if g[0][1][n] == 0:  # leading term free of t => whole element is
                kept.append([(DEGREVLEX.key(m[:n]), m[:n], c) for _, m, c in g])
        result = Ideal(n, [_to_poly(g, n).monic() for g in kept])
        result._seed_basis(DEGREVLEX, [sorted(g, key=lambda t: t[0], reverse=True) for g in kept])
        return result

    def associated_graded(self) -> "Ideal":
        """Ideal of top-degree forms (degree filtration at the origin)."""
        if self.colength() is inf:
            raise ValueError("associated graded requires a finite colength")
        basis = self.groebner_basis(DEGREVLEX)
        return Ideal(self.ambient_n, [g.top_form() for g in basis])

    def __add__(self, other: "Ideal") -> "Ideal":
        if other.ambient_n != self.ambient_n:
            raise ValueError("ambient size mismatch")
        return Ideal(self.ambient_n, self.generators + other.generators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ambient_n != other.ambient_n:
            return False
        return self.groebner_basis() == other.groebner_basis()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal(n={self.ambient_n}, <{inside}>)"

    # -- serialization -----------------------------------------------------
    def to_json(self) -> str:
        record: dict = {
            "ambient_n": self.ambient_n,
            "generators": [str(g) for g in self.generators],
        }
        if DEGREVLEX.name in self._gb:
            record["groebner"] = {
                "order": DEGREVLEX.name,
                "basis": [str(g) for g in self.groebner_basis()],
            }
        return json.dumps(record)

    @staticmethod
    def from_json(text: str) -> "Ideal":
        record = json.loads(text)
        n = record["ambient_n"]
        return Ideal(n, [parse_polynomial(s, n) for s in record["generators"]])


# ---------------------------------------------------------------------------
# constructors


def maximal_power(n: int, d: int) -> Ideal:
    """The d-th power of the homogeneous maximal ideal, by its monomials."""
    if d < 1:
        raise ValueError("d must be at least 1")
    return Ideal(n, [Polynomial.monomial(m) for m in degree_monomials(n, d)])


def point_ideal(point) -> Ideal:
    """The maximal ideal of a single rational point."""
    values = [Fraction(v) for v in point]
    n = len(values)
    return Ideal(n, [Polynomial.variable(i + 1, n) - Polynomial.constant(values[i], n)
                     for i in range(n)])


def orbit_points(point) -> list[tuple[Fraction, ...]]:
    values = tuple(Fraction(v) for v in point)
    return sorted(set(permutations(values)))


def orbit_ideal(point) -> Ideal:
    """Radical vanishing ideal of the orbit of a point under all coordinate
    permutations, built by balanced pairwise intersections."""
    pts = orbit_points(point)

    def tree(lo: int, hi: int) -> Ideal:
        if hi - lo == 1:
            return point_ideal(pts[lo])
        mid = (lo + hi) // 2
        return tree(lo, mid).intersect(tree(mid, hi))

    return tree(0, len(pts))
