"""Sparse multivariate polynomials over the rationals, with the S_n action.

Coefficients are exact rationals, held as integer numerators over one
denominator (below).  Polynomials are immutable: every operation returns a
new value, so sharing across threads is safe.

A term is keyed by ``DEGREVLEX.key`` of its monomial, deg * B**n -
sum(e_i * B**(i-1)) with B = 2**W: an int that increases with the monomial
in degrevlex order (x1 > ... > xn) and adds under products.  The engine of
``ideals`` and the tangent step read the same keys, and a permutation
moves a key's fields (``permute_key``; ``swap_key`` for an adjacent
transposition, the hot path of the S_n action).  Exponent tuples appear
only in ``parse_polynomial``, ``str``, ``Polynomial.monomial`` and the
apolar operators of ``tanisaki``.

Every exponent stays below LIMIT = 2**(W - 2), as the engine's
divisibility tests need (``ValueError`` otherwise): ``parse_polynomial``,
``Polynomial.monomial`` and ``power_sum`` check each one they take, the
engine each polynomial it takes (``Polynomial(n, terms)`` takes any key),
and a product its degree, which bounds its exponents: so a product of
degree LIMIT or more raises even where each exponent stays below, as
x1^(LIMIT/2) * x2^(LIMIT/2) and such a polynomial times 1 do.

A polynomial is integer numerators over one positive denominator, in
lowest terms: ``terms`` {key: nonzero int} and ``den``, with
gcd(den, *terms.values()) == 1, so equal values have equal fields.  The
constructor drops zeros and clears ``Fraction`` coefficients into den, so
a sum of terms accumulates into a plain dict with ``acc[k] = acc.get(k, 0)
+ c`` and is handed to it once.  The engine of ``ideals`` reads the two
fields as they are; ``Fraction`` values appear only where a coefficient is
parsed, printed or given by the caller.  Linear combinations, of
polynomials (``linear_combination``) and of the vectors below
(``combine_vectors``), sum through ``linalg.combine``.

The inverse-system kernels (``partial_terms``, ``integrate_vectors``,
``complement_vectors``, ``combine_vectors``) take the same two fields as a
vector (terms, den), not brought to lowest terms, so a derivative or a
shift subtracts or adds the key of a variable.  Their pivots follow
degrevlex order, and so do the signs of the relations (``KernelEchelon``),
those of the apolar generators among them.

The text format is round-trip exact: terms joined by ``+``/``-``,
coefficients printed as ``p/q``, variables ``x1..xn``, powers marked with
``^`` (for example ``x1^2*x2 - 3/2*x3``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, lcm, prod
from struct import Struct

from .combinat import Permutation
from .linalg import combine, nullspace_tags

Monomial = tuple[int, ...]
W = 32  # bits per exponent field of a packed monomial key, here and in the engine
LIMIT = 1 << (W - 2)  # every exponent of a Polynomial stays below this
MASK = (1 << W) - 1  # one exponent field


@lru_cache(maxsize=None)
def _fields(n: int) -> Struct:
    """n unsigned W-bit fields, the first exponent in the low field."""
    return Struct(f"<{n}I")


class DegRevLex:
    """Degree reverse lexicographic order, x1 > ... > xn, as packed keys:
    key = deg * B**n - sum(e_i * B**(i-1)), B = 2**W.  The one converter
    between exponent tuples and ints."""

    def pack(self, m: Monomial) -> int:
        """The exponents of m in W-bit fields, e_i in field i - 1."""
        return int.from_bytes(_fields(len(m)).pack(*m), "little")

    def key(self, m: Monomial) -> int:
        return (sum(m) << (W * len(m))) - self.pack(m)

    def degree(self, key: int, n: int) -> int:  # degree e: key in ((e - 1) * B**n, e * B**n]
        return (key + (1 << (W * n)) - 1) >> (W * n)

    def exps(self, key: int, n: int) -> int:
        """The exponents of the monomial with this key, packed as ``pack`` packs them."""
        return -key & ((1 << (W * n)) - 1)

    def monomial(self, exps: int, n: int) -> Monomial:
        """The exponent tuple packed in ``exps``."""
        return _fields(n).unpack(exps.to_bytes(W // 8 * n, "little"))

    def unpack(self, key: int, n: int) -> Monomial:
        """The exponent tuple of the monomial with this key."""
        return self.monomial(self.exps(key, n), n)


DEGREVLEX = DegRevLex()


def bounded(m: Monomial) -> Monomial:
    """m, once each exponent is checked to stay below LIMIT (ValueError)."""
    if max(m, default=0) >= LIMIT:
        raise ValueError(f"exponent {max(m)} is too large: the engine takes "
                         f"exponents below 2^{W - 2}")
    return m


class Polynomial:
    """A rational polynomial in variables x1..xn: integer numerators
    {DEGREVLEX.key(m): coeff} over one positive denominator ``den``, in
    lowest terms, gcd(den, *terms.values()) == 1."""

    __slots__ = ("ambient_n", "terms", "den")

    def __init__(self, ambient_n: int, terms: dict | None = None, den: int = 1):
        """The polynomial terms / den, den a nonzero int: int or ``Fraction``
        coefficients, zeros dropped, cleared into den, and the whole brought
        to lowest terms over a positive den."""
        self.ambient_n = ambient_n
        clean = {key: coeff for key, coeff in terms.items() if coeff} if terms else {}
        if set(map(type, clean.values())) - {int}:
            scale = lcm(*(c.denominator for c in clean.values()))
            clean = {k: c.numerator * (scale // c.denominator) for k, c in clean.items()}
            den *= scale
        if den != 1:
            g = gcd(den, *clean.values())
            g = g if den > 0 else -g
            if g != 1:
                clean = {k: c // g for k, c in clean.items()}
                den //= g
        self.terms, self.den = clean, den

    # ---- constructors -------------------------------------------------
    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n)

    @staticmethod
    def constant(c, n: int) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(n, {0: c.numerator}, c.denominator)

    @staticmethod
    def one(n: int) -> "Polynomial":
        return Polynomial(n, {0: 1})

    @staticmethod
    def variable(i: int, n: int) -> "Polynomial":
        """The variable x_i (1-based), of key B**n - B**(i-1)."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        return Polynomial(n, {(1 << (W * n)) - (1 << (W * (i - 1))): 1})

    @staticmethod
    def monomial(exponents: Monomial, coeff=1) -> "Polynomial":
        m, c = bounded(tuple(exponents)), Fraction(coeff)
        return Polynomial(len(m), {DEGREVLEX.key(m): c.numerator}, c.denominator)

    # ---- basic queries -------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree, that of the largest key; -1 for the zero polynomial."""
        return DEGREVLEX.degree(max(self.terms), self.ambient_n) if self.terms else -1

    def top_form(self) -> "Polynomial":
        """Highest-degree homogeneous part: the keys above (degree - 1) * B**n."""
        low = (self.degree() - 1) << (W * self.ambient_n)
        return Polynomial(self.ambient_n, {k: c for k, c in self.terms.items() if k > low}, self.den)

    def monic(self) -> "Polynomial":
        """terms / lc: the leading numerator becomes the denominator."""
        return Polynomial(self.ambient_n, self.terms, self.terms[max(self.terms)]) if self.terms else self

    # ---- arithmetic ----------------------------------------------------
    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ambient_n != self.ambient_n:
                raise ValueError("ambient sizes differ")
            return other
        return Polynomial.constant(other, self.ambient_n)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        return Polynomial(self.ambient_n, combine(((den // self.den, self.terms),
                                                   (den // other.den, other.terms))), den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ambient_n, {m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = other if isinstance(other, Fraction) else Fraction(other)
            return Polynomial(self.ambient_n, {m: c.numerator * v for m, v in self.terms.items()},
                              self.den * c.denominator)
        if other.ambient_n != self.ambient_n:
            raise ValueError("ambient sizes differ")
        degree = self.degree() + other.degree()  # bounds every exponent of the product
        if degree >= LIMIT:
            raise ValueError(f"degree {degree} is too large: the engine takes "
                             f"exponents below 2^{W - 2}")
        terms: dict[int, int] = {}
        small, large = (self.terms, other.terms) if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        for k1, c1 in small.items():  # keys add
            for k2, c2 in large.items():
                k = k1 + k2
                terms[k] = terms.get(k, 0) + c1 * c2
        return Polynomial(self.ambient_n, terms, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.ambient_n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.ambient_n)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.ambient_n, self.den, self.terms) == (other.ambient_n, other.den, other.terms)

    def __hash__(self) -> int:
        return hash((self.ambient_n, self.den, frozenset(self.terms.items())))

    # ---- printing / parsing ---------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms, reverse=True):
            mono, coeff = DEGREVLEX.unpack(key, self.ambient_n), self.terms[key]
            mag = Fraction(abs(coeff), self.den)
            factors = [
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono)
                if e
            ]
            body = "*".join(factors)
            if not factors:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not pieces:
                pieces.append(text if coeff > 0 else f"-{text}")
            else:
                pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self.ambient_n}, {str(self)!r})"


_TERM_RE = re.compile(r"^(?:(?P<coeff>\d+(?:/\d+)?)\*?)?(?P<body>(?:x\d+(?:\^\d+)?(?:\*x\d+(?:\^\d+)?)*)?)$")


def parse_polynomial(text: str, n: int) -> Polynomial:
    """Parse the text format produced by ``str(poly)``."""
    compact = text.replace(" ", "")
    if not compact or compact == "0":
        return Polynomial.zero(n)
    # split into signed terms
    chunks: list[tuple[int, str]] = []
    sign, start = 1, 0
    if compact[0] in "+-":
        sign = -1 if compact[0] == "-" else 1
        start = 1
    current = []
    for ch in compact[start:]:
        if ch in "+-":
            chunks.append((sign, "".join(current)))
            sign = -1 if ch == "-" else 1
            current = []
        else:
            current.append(ch)
    chunks.append((sign, "".join(current)))

    terms: dict[int, Fraction] = {}  # cleared to numerators by the constructor
    for sgn, chunk in chunks:
        match = _TERM_RE.match(chunk)
        if not match or (not match.group("coeff") and not match.group("body")):
            raise ValueError(f"cannot parse term {chunk!r}")
        try:
            coeff = Fraction(match.group("coeff") or 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {chunk!r}") from None
        exps = [0] * n
        body = match.group("body")
        if body:
            for factor in body.split("*"):
                if "^" in factor:
                    var, power = factor.split("^")
                else:
                    var, power = factor, "1"
                idx = int(var[1:])
                if not 1 <= idx <= n:
                    raise ValueError(f"variable {var} out of range for n={n}")
                exps[idx - 1] += int(power)
        key = DEGREVLEX.key(bounded(tuple(exps)))
        terms[key] = terms.get(key, 0) + sgn * coeff
    return Polynomial(n, terms)


# ---- the S_n action and symmetric builders --------------------------------

def permute_key(sigma: Permutation, key: int, n: int) -> int:
    """The key of the monomial whose exponent of x_i moves to x_{sigma(i)}."""
    x = DEGREVLEX.exps(key, n)
    return key + x - sum((x >> (W * i) & MASK) << (W * (j - 1))
                         for i, j in enumerate(sigma.images))


def swap_key(key: int, a: int, n: int) -> int:
    """The key of the monomial with the exponents of x_(a+1) and x_(a+2)
    swapped: key + (e_(a+2) - e_(a+1)) * (B**(a+1) - B**a)."""
    x = DEGREVLEX.exps(key, n) >> (W * a)
    return key + ((x >> W & MASK) - (x & MASK)) * ((1 << (W * (a + 1))) - (1 << (W * a)))


def apply_permutation(sigma: Permutation, f: Polynomial) -> Polynomial:
    """Relabel variables: x_i goes to x_{sigma(i)}."""
    if sigma.n != f.ambient_n:
        raise ValueError("ambient sizes differ")
    n = f.ambient_n
    return Polynomial(n, {permute_key(sigma, k, n): c for k, c in f.terms.items()}, f.den)


def power_sum(k: int, n: int) -> Polynomial:
    """x1^k + ... + xn^k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    bounded((k,))
    return Polynomial(n, {(k << (W * n)) - (k << (W * i)): 1 for i in range(n)})


def elementary_symmetric(r: int, subset, n: int) -> Polynomial:
    """Degree-r elementary symmetric polynomial in the variables indexed by subset."""
    indices = sorted(set(int(i) for i in subset))
    if any(not 1 <= i <= n for i in indices):
        raise ValueError("subset indices out of range")
    if r < 0 or r > len(indices):
        raise ValueError(f"need 0 <= r <= |S|, got r={r}, |S|={len(indices)}")
    if r == 0:
        return Polynomial.one(n)
    return Polynomial(n, {(r << (W * n)) - sum(1 << (W * (i - 1)) for i in combo): 1
                          for combo in combinations(indices, r)})


@lru_cache(maxsize=None)
def monomial_weight(key: int, n: int) -> int:
    """The product of the factorials of the exponents of an n-variable key:
    its monomial's self-pairing."""
    return prod(map(factorial, DEGREVLEX.unpack(key, n)))


def linear_combination(space: list[Polynomial], coeffs: dict) -> Polynomial:
    """The sum of coeffs[t] * space[t]; ``space`` must be nonempty."""
    scaled = [(Fraction(c, space[t].den), space[t].terms) for t, c in coeffs.items()]
    den = lcm(*(c.denominator for c, _ in scaled))
    return Polynomial(space[0].ambient_n, combine((c.numerator * (den // c.denominator), terms)
                                                  for c, terms in scaled), den)


# ---- inverse-system kernels on integer numerators --------------------------
#
# A vector (terms, den) stands for the polynomial with coefficients
# terms[m] / den: nonzero ints over a positive int.  Each elimination below
# takes rows built from the numerators, so the row of a vector is den times
# the row of its value; a kernel relation r over those rows is r_t * den_t
# over the values, divided by its content.  Positive row and column scales
# keep every pivot's sign, so this is the primitive relation that the
# rational rows give, and every value matches the rational computation.

Vector = tuple[dict[int, int], int]


def partial_terms(terms: dict, j: int, n: int) -> dict:
    """The partial derivative with respect to x_{j+1} of the terms of a
    vector: each key less that of x_{j+1}, B**n - B**j, times e_{j+1}."""
    unit, shift = (1 << (W * n)) - (1 << (W * j)), W * j
    return {k - unit: c * e for k, c in terms.items() if (e := -k >> shift & MASK)}


def combine_vectors(space: list[Vector] | dict[tuple[int, int], Vector],
                    relation: dict) -> Vector:
    """The combination of ``space``, indexed by the relation's tags, that a
    kernel relation over its numerator rows stands for (see above)."""
    return (combine((c, space[t][0]) for t, c in relation.items()),
            gcd(*(c * space[t][1] for t, c in relation.items())))


def integrate_vectors(duals: list[Vector], n: int, d: int) -> list[Vector]:
    """Degree-d vectors whose partials all lie in the span of ``duals``.

    Macaulay-duality workhorse: a tuple (m_1..m_n) of span members with
    matching cross-partials integrates to (1/d) * sum x_j m_j by the Euler
    identity, and every admissible polynomial arises exactly once.  The
    linear algebra runs over the (small) dual span, never over the full
    degree piece.
    """
    if not duals or d <= 0:
        return []
    partials = {(j, t): partial_terms(duals[t][0], j, n)
                for j in range(n) for t in range(len(duals))}

    def cross_partials(j: int, t: int) -> dict:
        col: dict = {}
        for k in range(n):
            if k == j:
                continue
            lo, hi = min(j, k), max(j, k)
            sign, pair = (1 if j == lo else -1), (lo * n + hi) << (W * (n + 1))
            # columns ((lo, hi), m), m in degrevlex: no two k share one
            col.update({pair + m: sign * c for m, c in partials[(k, t)].items()})
        return col

    rows = ((cross_partials(j, t), (j, t)) for j in range(n) for t in range(len(duals)))
    shifted = {(j, t): ({m + unit: c for m, c in terms.items()}, den)  # x_{j+1} * m_t
               for j, unit in enumerate((1 << W * n) - (1 << W * j) for j in range(n))
               for t, (terms, den) in enumerate(duals)}
    out = []
    for relation in nullspace_tags(rows):
        terms, den = combine_vectors(shifted, relation)
        if terms:
            out.append((terms, den * d))
    return out


def complement_vectors(space: list[Vector], others: list[Vector], n: int) -> list[Vector]:
    """Members of the span of ``space`` that pair to zero with all of ``others``.

    One combination of ``space`` per kernel relation of the pairing
    matrix, so for independent ``space`` a basis of len(space) minus its
    rank members.  The pairing, the sum of a_m * b_m * m! over the shared
    monomials, is symmetric, so the side each argument pairs from does not
    matter.
    """
    index: dict[int, list] = {}  # monomial -> [(u, its weighted coefficient in others[u])]
    for u, (terms, _) in enumerate(others):
        for m, c in terms.items():
            index.setdefault(m, []).append((u, c * monomial_weight(m, n)))

    def pairings(terms: dict) -> dict:
        row = dict.fromkeys(range(len(others)), 0)  # every u, in order
        for m, c in terms.items():
            for u, w in index.get(m, ()):
                row[u] += c * w
        return row

    rows = ((pairings(terms), t) for t, (terms, _) in enumerate(space))
    return [combine_vectors(space, relation) for relation in nullspace_tags(rows)]
