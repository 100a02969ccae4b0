"""Groebner-basis engine and zero-dimensional ideal toolkit, in degrevlex.

An engine term is a ``(key, coeff)`` pair, the key that of ``poly``:
``DEGREVLEX.key(m)``, one Python int that increases strictly with the
monomial while all exponents stay below 2**(W - 1), with W = 32 bits per
exponent field, and that is additive: key(a*b) == key(a) + key(b).  So a
``Polynomial`` enters the engine as its terms sorted descending and leaves
it as a dict of them, comparing two monomials compares two ints, and
multiplying a polynomial by a monomial u adds key(u) to each of its keys.

Divisibility works on a second packing, ``DEGREVLEX.exps(key, n)``: the
exponents side by side in W-bit fields whose top bit is a guard bit.  With
G the guard bits of all fields and L their low bits, a divides x exactly
when ``((x | G) - a) & G == G``; the guard bits of ``((a | G) - b) & G``
mark the fields where a >= b, which gives the per-field maximum (the lcm),
and ``((a | G) - L) & G`` marks the nonzero fields, so two monomials are
coprime when these masks do not meet.  The leading exponents of a basis
are packed once and kept beside it, and Buchberger's pair bookkeeping
(Gebauer-Moeller) runs on them, with each live pair's packed lcm stored
and its key computed only when the pair is queued.  A new element's pairs
are queued at minimal lcms only: fields never carry, so a proper divisor
is a smaller int, and in ascending order each lcm meets only the minimal
lcms before it.

A reduction keeps the work polynomial as a dict from key to coefficient
beside a max-heap of its keys, so each step touches only the reducer's
tail.  The reducer of a key is the first basis element, in basis order,
whose leading monomial divides it; a divisor memo remembers it, or how
many elements were checked without finding one.  ``_buchberger`` keeps
one memo for its whole run, which stays valid because its basis only
grows by appending: a "none" entry is re-checked against the elements
appended since.  So does ``_reduce_basis``, which reduces each tail
against the minimal elements kept before it: only smaller leads divide.

Exactness: every exponent entering the engine stays below 2**(W - 2)
(``_engine_terms`` checks, ``ValueError`` otherwise; see ``poly``);
every basis element is checked once to stay below that bound, and so is
the multiplier u of every reduction step and S-polynomial
(``ArithmeticError`` otherwise).  Every product then stays below
2**(W - 1), so no field ever carries into the next and every key
comparison is exact.

The engine works on integer-coefficient term lists (content 1, positive
leading coefficient) so that all reductions are fraction-free; rational
results are reconstructed from tracked multipliers.  Pair selection uses
the normal strategy with Gebauer-Moeller elimination, which makes reduced
bases deterministic.  Reduced Groebner bases are canonical, and so are
these primitive ones sorted by leading monomial: ideal equality compares
the term lists.

A degree cap: when every input is homogeneous and the inputs hold all
C(n+d-1, d) monomials of some least degree d, the ideal is J + m^d, J
spanned by the inputs below d.  Its reduced basis is that of J below d and
monomials from d on, so ``_buchberger`` skips inputs and pairs of degree
>= d and appends the degree-d monomials that no leading monomial divides,
instead of reducing each monomial of m^d to zero.  A bound ``below``
truncates homogeneous inputs the same way: the ceiling is the lesser of
cap and bound, and the result the reduced basis elements of lower degree.
An element one degree under the ceiling skips pair bookkeeping: as no
earlier lead divides its lead, it queues, prunes and supersedes nothing.

An ``Ideal`` keeps one ``_Quotient`` record: the reduced basis, its packed
leading exponents, the divisor memo of the reductions and the standard
monomials, grown from 1 and ``graded`` by degree, and what they fix of R/I
as an S_n-module: the ``swaps`` table of the action, the ``symmetric``
verdict and the decomposition, built and replaced together.  The record
may be bounded: for homogeneous generators ``contains(f)`` reads one
bounded below deg f + 1, the reduced basis elements of lower degree.  A
term of degree e is reduced only by elements of degree <= e (no higher
lead divides it, and an element's tail keeps its lead's degree), so the
normal form of f, and the answer, are those of the full basis.  A higher
degree asked rebuilds the record at least doubling its bound, from its
basis and the generators of degree past the old bound b: the elements
below b reduce every generator of lower degree to zero, so they generate
it.  A bound at or past the degree cap is the full run, and
non-homogeneous generators always take it.  ``_Quotient.grown`` makes
that run, the record of a basis and more generators; the apolar search
of ``tanisaki`` grows its records of J by it too, each from the last
basis and the generators found since.  Every other reader
(``_quotient()``, ``==``, ``groebner_basis``, ``colength``, the tangent and
decomposition code) asks the full record, which replaces a bounded one.
``_Quotient.coordinates(terms, den)`` reads the normal form of terms / den
as {key: coeff}, coordinates in R/I, int where integral, and
``swapped(keys, swaps)`` those of keys under adjacent transpositions;
``Ideal.coordinates`` reads the checked, sorted integer terms of a
polynomial.  ``_Quotient.square(below)`` is I^2 below that degree from
products of basis elements: primitive with positive leads
(Gauss's lemma), each is the input ``_to_engine`` gives for the rational
product.  Each product carries its factor pair (a, b) into ``_buchberger``,
and two elements led by products sharing a factor g_a form no S-polynomial,
which G already settles: Buchberger's criterion for the sum of the ideals
g_a*I, kept in Gebauer-Moeller's bookkeeping as a coprime pair is.

Orbit ideals are kernels of linear maps from R to finite-dimensional
spaces (evaluation at the orbit's points), found by the Buchberger-Moeller
walk of ``_vanishing_ideal`` on one ``KernelEchelon`` (Moeller-Buchberger
1982; Marinari-Moeller-Mora 1993).  The tests build intersections of ideals
of finite colength, the kernel of R -> R/I + R/J, on the same walk as an
oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, partial
from heapq import heappop, heappush
from itertools import combinations_with_replacement, groupby, permutations, repeat
from math import comb, gcd, inf

from .combinat import Permutation
from .linalg import KernelEchelon
from .poly import DEGREVLEX, W, Monomial, Polynomial, bounded, permute_key, swap_key

# ---------------------------------------------------------------------------
# divisibility on packed exponents


@lru_cache(maxsize=None)
def _masks(n: int) -> tuple[int, int, int]:
    """(guard, quarter, low): the top bit of each of n fields, its top two
    bits, and its low bit."""
    return (DEGREVLEX.pack((1 << (W - 1),) * n), DEGREVLEX.pack((3 << (W - 2),) * n),
            DEGREVLEX.pack((1,) * n))


def _packed_lcm(a: int, b: int, guard: int) -> int:
    """The per-field maximum of two packed exponent vectors."""
    ge = ((a | guard) - b) & guard  # the guard bit of each field where a >= b
    mask = ge - (ge >> (W - 1))
    return (a & mask) | (b & ~mask)


def _support(a: int, n: int) -> int:
    """The guard bit of each nonzero field of packed exponents: two
    monomials are coprime when their supports do not meet."""
    guard, _, low = _masks(n)
    return ((a | guard) - low) & guard


# ---------------------------------------------------------------------------
# engine term lists: list[(key, int coeff)] sorted descending by key


def _strip(terms: list) -> list:
    """Divide all coefficients by their common content."""
    g = 0
    for _, c in terms:
        g = gcd(g, c)
        if g == 1:
            return terms
    if g > 1:
        terms = [(k, c // g) for k, c in terms]
    return terms


def _normalize(terms: list) -> list:
    terms = _strip(terms)
    if terms and terms[0][1] < 0:
        terms = [(k, -c) for k, c in terms]
    return terms


def _engine_terms(f: Polynomial) -> tuple[list, int]:
    """The numerators of f sorted descending, and its den, once each
    exponent is checked to stay below LIMIT: f may be built from its keys."""
    n, quarter = f.ambient_n, _masks(f.ambient_n)[1]
    for k in f.terms:
        if DEGREVLEX.exps(k, n) & quarter:
            bounded(DEGREVLEX.unpack(k, n))
    return sorted(f.terms.items(), reverse=True), f.den


def _to_engine(f: Polynomial) -> list:
    return _normalize(_engine_terms(f)[0])


def _lead(g: list, n: int) -> int:
    """Packed leading exponents of a new basis element, after checking that
    all its exponents stay below the bound."""
    quarter = _masks(n)[1]
    for k, _ in g:
        if DEGREVLEX.exps(k, n) & quarter:
            raise ArithmeticError(f"a Groebner basis exponent reached 2^{W - 2}")
    return DEGREVLEX.exps(g[0][0], n)


def _reducer(k: int, basis: list[list], leads: list[int], n: int, start: int = 0) -> list | None:
    """The first basis element from ``basis[start]`` on (in basis order)
    whose leading monomial divides the monomial with key k, or None."""
    guard, quarter, _ = _masks(n)
    x = DEGREVLEX.exps(k, n)
    xg = x | guard
    if start:
        basis, leads = basis[start:], leads[start:]
    for g, a in zip(basis, leads):
        if (xg - a) & guard == guard:
            if (x - a) & quarter:
                raise ArithmeticError(f"a reduction multiplier reached 2^{W - 2}")
            return g
    return None


def _normal_form(terms: list, basis: list[list], leads: list[int], n: int,
                 divisors: dict) -> tuple[list, int]:
    """Fully reduce; returns (remainder, mult) with remainder = mult*f - combination.

    ``leads`` holds the packed leading exponents of ``basis``.  The work
    polynomial is a dict from key to coefficient beside a max-heap of its
    keys; a cancelled term stays in the dict with coefficient 0 until its
    key is popped, so each key sits in the heap once and a reduction step
    touches only the reducer's tail.

    ``divisors`` maps a leading key to the first basis element (in basis
    order) dividing it or, when none does, to the number of basis elements
    checked.  It is filled on demand, so each multiplier is checked against
    the bound once per (key, reducer).  It stays valid while the basis only
    grows by appending: a "none" entry is re-checked against the elements
    appended since.
    """
    mult = 1
    rem: list = []
    work = dict(terms)
    heap = [-k for k, _ in terms]  # ascending, so already a heap
    size = len(basis)
    while heap:
        k = -heappop(heap)
        lc = work.pop(k)
        if not lc:
            continue
        g = divisors.get(k)
        if g is None or g.__class__ is int and g < size:
            g = divisors[k] = _reducer(k, basis, leads, n, g or 0) or size
        if g.__class__ is int:
            rem.append((k, lc))
            continue
        glc = g[0][1]
        d = gcd(glc, lc)
        ca, cb = glc // d, -lc // d
        if ca != 1:
            rem = [(t, c * ca) for t, c in rem]
            work = {t: c * ca for t, c in work.items()}
            mult *= ca
        # the leading terms cancel: ca*lc == -cb*glc
        ku = k - g[0][0]
        for t, c in g[1:]:
            t += ku
            old = work.get(t)
            if old is None:
                work[t] = c * cb
                heappush(heap, -t)
            else:
                work[t] = old + c * cb
        if mult.bit_length() > 1024:
            g_all = gcd(mult, *[c for _, c in rem], *work.values())
            if g_all > 1:
                rem = [(t, c // g_all) for t, c in rem]
                work = {t: c // g_all for t, c in work.items()}
                mult //= g_all
    return rem, mult


def _spoly(f: list, g: list, n: int) -> list:
    guard, quarter, _ = _masks(n)
    a, b = DEGREVLEX.exps(f[0][0], n), DEGREVLEX.exps(g[0][0], n)
    lcm = _packed_lcm(a, b, guard)
    if ((lcm - a) | (lcm - b)) & quarter:
        raise ArithmeticError(f"an S-polynomial multiplier reached 2^{W - 2}")
    key = DEGREVLEX.key(DEGREVLEX.monomial(lcm, n))
    kf, kg = key - f[0][0], key - g[0][0]
    cf, cg = f[0][1], g[0][1]
    d = gcd(cf, cg)
    sf, sg = cg // d, -cf // d  # the leading terms cancel: sf*cf == -sg*cg
    terms = {k + kf: c * sf for k, c in f[1:]}
    for k, c in g[1:]:
        k += kg
        terms[k] = terms.get(k, 0) + c * sg
    return sorted(((k, c) for k, c in terms.items() if c), reverse=True)


def _homogeneous(polys: list[list], n: int) -> bool:
    """Whether each term list's first and last terms have one degree."""
    return all(len(f) == 1 or DEGREVLEX.degree(f[0][0], n) == DEGREVLEX.degree(f[-1][0], n)
               for f in polys)


def _degree_cap(inputs: list[list], n: int) -> tuple[int | float, list[int]]:
    """(d, keys): the least degree d at which the inputs hold every monomial
    of degree d, as distinct keys, and those keys ascending; (inf, []) when
    no degree is full or some input is not homogeneous."""
    if not _homogeneous(inputs, n):
        return inf, []
    monomials = sorted({f[0][0] for f in inputs if len(f) == 1})  # ascending degree
    for d, keys in groupby(monomials, partial(DEGREVLEX.degree, n=n)):
        keys = list(keys)
        if len(keys) == comb(n + d - 1, d):
            return d, keys
    return inf, []


def _fresh_pairs(lcms: list[int], support: list[int], alive: list[bool], st: int,
                 guard: int, settled: set | tuple = ()) -> list[tuple[int, int]]:
    """The pairs (i, lcm) Gebauer-Moeller queues for a new element of support
    st, from its lead's packed lcm with each earlier one: per minimal lcm of
    live i, the lowest non-coprime i not in ``settled``, unless some coprime
    or settled pair has it.  A settled pair, like a coprime one, has a
    standard representation unformed, and its lcm still blocks its multiples."""
    lowest: dict[int, int | None] = {}
    for i, lcm in enumerate(lcms):
        if alive[i]:
            lowest[lcm] = lowest.get(lcm, i) if support[i] & st and i not in settled else None
    queued, minimal = [], []
    for lcm in sorted(lowest):
        x = lcm | guard
        if not any((x - m) & guard == guard for m in minimal):
            minimal.append(lcm)
            if lowest[lcm] is not None:
                queued.append((lowest[lcm], lcm))
    return queued


def _buchberger(inputs: list[list], n: int, below: int | float = inf,
                factors: list[tuple[int, int]] | None = None) -> list[list]:
    """Reduced Groebner basis from engine term lists, truncated at a degree
    cap and below the degree ``below`` (see the module docstring).
    ``factors[i]``, when given, is the pair (a, b) with ``inputs[i]`` the
    product g_a*g_b of a Groebner basis: see ``_Quotient.square``."""
    cap, cap_keys = _degree_cap(inputs, n)
    if below < inf and cap == inf and not _homogeneous(inputs, n):
        raise ValueError("a degree bound needs homogeneous inputs")
    guard = _masks(n)[0]
    top = min(cap, below)
    ceiling = (top - 1) << (W * n) if top < inf else inf  # keys of degree >= top exceed it
    G: list[list] = []
    leads: list[int] = []  # packed leading exponents
    support: list[int] = []  # the guard bit of each nonzero field of a lead
    alive: list[bool] = []
    heap: list = []  # (lcm key, i, j)
    pairs: dict = {}  # (i, j) -> packed lcm, for each live pair
    divisors: dict = {}  # one memo for the run: G only grows by appending
    with_factor: dict[int, list[int]] = {}  # a -> the elements led by a product g_a*g_b

    def add(f: list, pair: tuple[int, int] | None = None) -> None:
        rem = _normalize(_normal_form(f, G, leads, n, divisors)[0])
        if not rem:
            return
        t, lt = len(G), _lead(rem, n)
        G.append(rem)
        leads.append(lt)
        support.append(_support(lt, n))
        alive.append(True)
        settled: set | tuple = ()
        if pair is not None and rem[0][0] == f[0][0]:  # led by the product itself
            settled = {i for a in pair for i in with_factor.get(a, ())}
            for a in pair:
                with_factor.setdefault(a, []).append(t)
        if DEGREVLEX.degree(rem[0][0], n) >= top - 1:
            return  # every pair lies past the ceiling: no earlier lead divides lt
        lcms = [_packed_lcm(a, lt, guard) for a in leads[:t]]
        # Gebauer-Moeller: queue the new pairs at minimal lcms...
        for i, lcm in _fresh_pairs(lcms, support, alive, support[t], guard, settled):
            key = DEGREVLEX.key(DEGREVLEX.monomial(lcm, n))
            if key <= ceiling:
                heappush(heap, (key, i, t))
                pairs[i, t] = lcm
        # ...and prune the old pairs superseded by the new element.
        stale = [(i, j) for (i, j), lcm in pairs.items()
                 if j != t and ((lcm | guard) - lt) & guard == guard
                 and lcms[i] != lcm and lcms[j] != lcm]
        for pair in stale:
            del pairs[pair]
        # mark superseded basis elements as non-minimal (kept as reducers)
        for i in range(t):
            if alive[i] and ((leads[i] | guard) - lt) & guard == guard:
                alive[i] = False

    for f, pair in sorted(((f, pair) for f, pair in zip(inputs, factors or repeat(None))
                           if f[0][0] <= ceiling), key=lambda t: t[0][0][0]):
        add(f, pair)

    while heap:
        _, i, j = heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue
        s = _spoly(G[i], G[j], n)
        if s:
            add(s)

    basis = _reduce_basis([G[i] for i in range(len(G)) if alive[i]], n)
    leads = [DEGREVLEX.exps(g[0][0], n) for g in basis]
    return basis + [[(k, 1)] for k in cap_keys if cap < below and not any(
        ((DEGREVLEX.exps(k, n) | guard) - a) & guard == guard for a in leads)]


def _reduce_basis(basis: list[list], n: int) -> list[list]:
    """The reduced Groebner basis from any Groebner basis of the ideal."""
    guard = _masks(n)[0]
    kept: list[list] = []  # minimal basis: leading monomials pairwise non-divisible
    leads: list[int] = []
    reduced: list[list] = []
    divisors: dict = {}  # one memo for the pass: kept only grows by appending
    for g in sorted(basis, key=lambda t: t[0][0]):
        x = DEGREVLEX.exps(g[0][0], n) | guard
        if not any((x - a) & guard == guard for a in leads):
            rem, mult = _normal_form(g[1:], kept, leads, n, divisors)
            reduced.append(_normalize([(g[0][0], g[0][1] * mult)] + rem))
            kept.append(g)
            leads.append(x ^ guard)
    return reduced


# ---------------------------------------------------------------------------
# the Ideal type


class _Quotient:
    """R/I in degrevlex: the reduced Groebner basis, the packed leading
    exponents of its elements, the divisor memo of ``_normal_form`` and, on
    first use, the standard monomials, the S_n action on them, the symmetry
    verdict and the decomposition of ``equivariant.decompose_quotient``.  A
    new basis gets a new record, so nothing derived outlives the basis it
    came from.  A record bounded ``below`` a degree holds and reads only
    what lies below it."""

    def __init__(self, basis: list[list], n: int, below: int | float = inf) -> None:
        self.basis = basis
        self.leads = [_lead(g, n) for g in basis]
        self.divisors: dict = {}  # leading key -> first divisor in the basis, or len(basis)
        self.n = n
        self.below = below
        self.decomposition = None  # set by equivariant.decompose_quotient

    @cached_property
    def standard(self) -> list[int] | None:
        """Keys of the monomials outside the staircase, of degree < ``below``,
        ascending; None when infinite.

        The staircase is closed under division, so it grows from 1: each
        standard monomial m is multiplied by x_i for every i from its last
        nonzero variable on, which reaches each one exactly once.
        """
        n = self.n
        if 0 in self.leads:  # 1 leads
            return []
        pure = {_support(a, n) for a in self.leads}  # a pure power of x_(i+1) has one field
        if self.below == inf and not all(1 << (W * i + W - 1) in pure for i in range(n)):
            return None  # no pure power of x_i leads: the staircase is infinite
        guard = _masks(n)[0]
        units = [1 << (W * i) for i in range(n)]
        grown = [(0, 0, 1)]  # (packed exponents, last nonzero variable, degree + 1)
        for x, last, d in grown:
            for i in range(last, n):
                y = (x + units[i]) | guard
                if d < self.below and not any((y - a) & guard == guard for a in self.leads):
                    grown.append((y ^ guard, i, d + 1))
        return sorted(((d - 1) << (W * n)) - x for x, _, d in grown)

    @cached_property
    def graded(self) -> dict[int, list[int]]:
        """The standard keys by degree, ascending; no degree below the top is empty."""
        pieces: dict[int, list[int]] = {}
        for k in self.standard:
            pieces.setdefault(DEGREVLEX.degree(k, self.n), []).append(k)
        return pieces

    def hilbert_function(self) -> tuple[int, ...]:
        """Standard monomials by degree, up to the last nonzero."""
        return tuple(map(len, self.graded.values()))

    def coordinates(self, terms: list, den: int = 1) -> dict[int, int | Fraction]:
        """The normal form of terms / den, for an engine term list sorted
        descending by key, as {key: coeff}, integral entries as ints."""
        if terms and DEGREVLEX.degree(terms[0][0], self.n) >= self.below:
            raise ValueError(f"a term past the record's bound {self.below}")
        rem, mult = _normal_form(terms, self.basis, self.leads, self.n, self.divisors)
        scale = den * mult  # rem == scale * (terms / den) modulo the ideal
        return {k: c // scale if c % scale == 0 else Fraction(c, scale) for k, c in rem}

    def swapped(self, keys: list[int], swaps) -> dict[int, dict[int, dict]]:
        """Per swap (a+1 a+2), a in ``swaps``, the coordinates of each key swapped."""
        return {a: {k: self.coordinates([(swap_key(k, a, self.n), 1)]) for k in keys}
                for a in swaps}

    @cached_property
    def swaps(self) -> list[dict[int, dict[int, int | Fraction]]]:
        """The S_n action on R/I: per adjacent transposition, the coordinates
        of each swapped standard monomial, keyed by the monomial's key."""
        return list(self.swapped(self.standard, range(self.n - 1)).values())

    @cached_property
    def symmetric(self) -> bool:
        """Whether each basis element stays in I under (1 2) and the long
        cycle, which generate S_n: permuted key by key and reduced."""
        n = self.n
        sigmas = [Permutation.transposition(1, 2, n), Permutation.cycle(n)] if n > 1 else []
        return all(not self.coordinates(sorted(((permute_key(sigma, k, n), c) for k, c in g),
                                               reverse=True))
                   for sigma in sigmas for g in self.basis)

    def grown(self, generators, below: int | float = inf) -> "_Quotient":
        """The record of the ideal of this basis and ``generators``, exact
        below ``below``: full when ``below`` reaches the inputs' degree cap or
        they are not homogeneous.  Each generator enters the engine once.
        Exact when this basis generates its ideal, as a record bounded below
        b does when all its generators have degree < b (module docstring)."""
        n = self.n
        inputs = self.basis + [_to_engine(g) for g in generators]
        cap = _degree_cap(inputs, n)[0]
        if cap <= below or cap == inf and not _homogeneous(inputs, n):
            below = inf
        return _Quotient(_buchberger(inputs, n, below), n, below)

    def square(self, below: int | float = inf) -> "_Quotient":
        """The record of I^2 below degree ``below``, from the products of
        basis elements; a product of degree ``below`` or more is not formed.

        I^2 is the sum of the ideals g_a*I, with Groebner bases g_a*G, so
        each product goes to ``_buchberger`` with its factors (a, b), and no
        S-polynomial is formed of two elements p, q led by g_a*g_b and
        g_a*g_c, leads that survived their reduction.  With L = lcm(LT p,
        LT q), S(p, q) is u*g_a*S(g_b, g_c) plus multiples of earlier
        elements led below L; as G is a Groebner basis, S(g_b, g_c) =
        sum h_k*g_k with each LT(h_k*g_k) below lcm(LT g_b, LT g_c).  So
        each h_k*g_a*g_k is led below L, and g_a*g_k, of degree at most that
        of L, was an input, which has a representation over the final basis
        no higher than its own lead: the pair has a standard representation.
        A bounded record's basis need not be a Groebner basis of the ideal
        it generates, so it hands no factors."""
        products, factors = [], []
        for i, f in enumerate(self.basis):
            for j, g in enumerate(self.basis[i:], i):  # keys add, coefficients multiply
                if DEGREVLEX.degree(f[0][0] + g[0][0], self.n) >= below:
                    continue
                terms: dict = {}
                for k, c in f:
                    for t, e in g:
                        terms[k + t] = terms.get(k + t, 0) + c * e
                products.append(sorted(((k, c) for k, c in terms.items() if c), reverse=True))
                factors.append((i, j))
        return _Quotient(_buchberger(products, self.n, below,
                                     factors if self.below == inf else None), self.n, below)


class Ideal:
    """A polynomial ideal with its cached degrevlex ``_Quotient`` record.

    ``orbits``, when given, labels each (nonzero) generator by its S_n-orbit:
    the generators of a label are one whole orbit up to nonzero scalars.  So
    the ideal is symmetric, and as a permutation is a ring automorphism,
    membership in it has one answer on an orbit."""

    def __init__(self, ambient_n: int, generators, orbits: list | None = None) -> None:
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("generators must be Polynomial values")
            if g.ambient_n != ambient_n:
                raise ValueError("generator ambient size mismatch")
            if not g.is_zero():
                gens.append(g)
        self.ambient_n = ambient_n
        if orbits is not None and len(orbits) != len(gens):
            raise ValueError("need one orbit label per nonzero generator")
        self.generators: tuple[Polynomial, ...] = tuple(gens)
        self.orbits = orbits
        self._record: _Quotient | None = None

    # -- Groebner bases ---------------------------------------------------
    def _quotient(self, below: int | float = inf) -> _Quotient:
        """The record, exact below degree ``below``: the full one by default.

        A record bounded under ``below`` is rebuilt, at least doubling its
        bound, from its basis and the generators of degree past it; a bound
        is kept only for homogeneous generators, and only while it lies
        under their degree cap, past which the run is the full one anyway
        (see the module docstring)."""
        base = self._record or _Quotient([], self.ambient_n, 0)  # the zero ideal, read nowhere
        if base.below < below:
            self._record = base.grown([g for g in self.generators if g.degree() >= base.below],
                                      max(below, 2 * base.below))
        return self._record

    def _seed_basis(self, basis: list[list]) -> None:
        """Install a known reduced Groebner basis, sorted by leading monomial,
        in a new record: nothing derived from the old basis is kept."""
        self._record = _Quotient(basis, self.ambient_n)

    def groebner_basis(self) -> tuple[Polynomial, ...]:
        """The reduced (monic) Groebner basis, sorted by leading monomial."""
        return tuple(Polynomial(self.ambient_n, dict(g), g[0][1]) for g in self._quotient().basis)

    def coordinates(self, f: Polynomial) -> dict[int, int | Fraction]:
        """The normal form of f as {DEGREVLEX.key(m): coeff}: int columns that
        sort in the monomial order and add under products, ints where integral."""
        if f.ambient_n != self.ambient_n:
            raise ValueError("ambient size mismatch")
        return self._quotient().coordinates(*_engine_terms(f))

    def contains(self, f: Polynomial) -> bool:
        """Read off a record bounded below deg f + 1 when it may be bounded."""
        if f.ambient_n != self.ambient_n:
            raise ValueError("ambient size mismatch")
        terms, den = _engine_terms(f)
        below = DEGREVLEX.degree(terms[0][0], self.ambient_n) + 1 if terms else 1
        return not self._quotient(below).coordinates(terms, den)

    # -- zero-dimensional toolkit ------------------------------------------
    def colength(self):
        """Vector-space dimension of the quotient; inf when not finite."""
        std = self._quotient().standard
        return inf if std is None else len(std)

    def is_homogeneous(self) -> bool:
        """Judged on the reduced Groebner basis."""
        return _homogeneous(self._quotient().basis, self.ambient_n)

    def hilbert_function(self) -> tuple[int, ...]:
        """Dimensions of the graded quotient pieces, up to the last nonzero."""
        if not self.is_homogeneous():
            raise ValueError("hilbert_function needs a homogeneous ideal")
        if self._quotient().standard is None:
            raise ValueError("quotient is not finite-dimensional")
        return self._quotient().hilbert_function()

    def associated_graded(self) -> "Ideal":
        """Ideal of top-degree forms (degree filtration at the origin)."""
        if self.colength() is inf:
            raise ValueError("associated graded requires a finite colength")
        return Ideal(self.ambient_n, [g.top_form() for g in self.groebner_basis()])

    def __add__(self, other: "Ideal") -> "Ideal":
        if other.ambient_n != self.ambient_n:
            raise ValueError("ambient size mismatch")
        return Ideal(self.ambient_n, self.generators + other.generators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ambient_n != other.ambient_n:
            return False
        return self._quotient().basis == other._quotient().basis

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal(n={self.ambient_n}, <{inside}>)"


# ---------------------------------------------------------------------------
# constructors


def maximal_power(n: int, d: int) -> Ideal:
    """The d-th power of the homogeneous maximal ideal, by its monomials
    (their exponent tuples descending, each key d * B**n less B**(i-1) per
    factor x_i): added to a homogeneous ideal, a degree cap that ends Buchberger at d."""
    if d < 1:
        raise ValueError("d must be at least 1")
    bounded((d,))  # the largest exponent, that of x1^d
    top = d << (W * n)
    return Ideal(n, [Polynomial(n, {top - sum(1 << (W * i) for i in chosen): 1})
                     for chosen in combinations_with_replacement(range(n), d)])


def orbit_points(point) -> list[tuple[Fraction, ...]]:
    """The distinct permutations of a point, in descending colex order."""
    values = tuple(Fraction(v) for v in point)
    return sorted(set(permutations(values)), key=lambda p: p[::-1], reverse=True)


def _vanishing_ideal(n: int, value) -> Ideal:
    """The kernel of a linear map from R to a finite-dimensional space, when
    it is an ideal, by the Buchberger-Moeller walk.

    ``value(m, parent, i)`` is the image of the monomial m as a sparse row,
    given the image ``parent`` of m / x_(i+1) (None at m = 1).  Monomials
    leave a heap in increasing degrevlex order, skipping the multiples of
    leading monomials found so far, and their images enter one
    ``KernelEchelon`` tagged by key.  An independent image makes m standard
    and queues x_j * m for each j from m's last variable on, as
    ``_Quotient.standard`` grows; a dependent one makes m a leading
    monomial, and its relation, over smaller standard monomials only, is an
    element of the reduced basis.
    """
    guard = _masks(n)[0]
    units = [1 << (W * j) for j in range(n)]
    steps = [(1 << (W * n)) - u for u in units]  # the key of x_(j+1): B**n - B**j
    echelon = KernelEchelon()
    basis: list[list] = []
    leads: list[int] = []
    heap = [(0, 0, None, 0)]  # (key, packed exponents, image of m / x_(i+1), i)
    while heap:
        key, x, parent, i = heappop(heap)
        if any(((x | guard) - a) & guard == guard for a in leads):
            continue
        image = value(DEGREVLEX.monomial(x, n), parent, i)
        relation = echelon.add(image, key)
        if relation is None:
            for j in range(i, n):
                heappush(heap, (key + steps[j], x + units[j], image, j))
        else:
            basis.append(_normalize(sorted(relation.items(), reverse=True)))
            leads.append(x)
    ideal = Ideal(n, [Polynomial(n, dict(g), g[0][1]) for g in basis])
    ideal._seed_basis(basis)
    return ideal


def orbit_ideal(point) -> Ideal:
    """Radical vanishing ideal of the orbit of a point under all coordinate
    permutations: the kernel of evaluation at the orbit points, by
    ``_vanishing_ideal``, each image its parent's times one coordinate of
    each point, integral ones as ints.  In colex order of the points, the
    first monomials walked (x_n, x_(n-1), ...) reduce against few pivots:
    a quarter fewer row operations than in lex order at (1, .., 6)."""
    pts = [[v.numerator if v.denominator == 1 else v for v in p] for p in orbit_points(point)]

    def value(m: Monomial, parent, i) -> dict:
        if parent is None:
            return dict.fromkeys(range(len(pts)), 1)
        return {p: c * pts[p][i] for p, c in parent.items()}

    return _vanishing_ideal(len(point), value)
