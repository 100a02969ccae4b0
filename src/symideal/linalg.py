"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping comparable column keys to numbers, and a row
pivots on its largest column.  The quotient coordinates of
``Ideal.coordinates`` are int columns that sort in the monomial order, so
rows of normal forms pivot on their leading monomials.  Elimination is
fraction-free: a step replaces r by (p[c]*r - r[c]*p) / gcd(p[c], r[c]),
negative when p[c] is, and one exact strip of the positive content ends
each add.  So a stored row's or relation's sign follows the pivot entries
it met, and keys standing for monomials must order as the monomials do.
``add`` forms exactly those rows with less work.  A negative factor
p[c]/gcd flips a sign flag in place of negating the row and tags, and the
content strip divides by the negated content under the flag; a factor
above one in absolute value is applied in the same pass as the update.
An all-integer row is copied, its zeros dropped, and rational input is
cleared to integers on entry.  A relation comes out as an integer
combination of the tags.  ``combine`` sums such rows with coefficients,
keys in order of first appearance: every sparse linear combination of the
package goes through it.
"""

from __future__ import annotations

from math import gcd


class KernelEchelon:
    """Incremental echelon form that tracks tags, exposing kernel combinations.

    Each row pivots on its largest column.  Feed vectors one at a time,
    each with a distinct tag or with none.  When a vector is dependent on
    the earlier ones, ``add`` returns the integer relation {tag:
    coefficient} expressing the dependency (sum of coeff*vector = 0);
    untagged vectors contribute nothing to it.
    """

    def __init__(self):
        self.pivots: dict = {}  # pivot column -> (row, tags)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: dict, tag=None) -> dict | None:
        """Insert a row; None when it is a new pivot, else its relation."""
        values = row.values()
        if _INT.issuperset(map(type, values)):  # a copy: never the caller's dict
            row = {k: v for k, v in row.items() if v} if 0 in values else dict(row)
            tags = {} if tag is None else {tag: 1}
        else:
            # the denominator scale goes into the tag, and the content strip
            # divides row and tags alike: stored row == sum of tag-coeff * originals
            lcm = 1
            for v in values:
                d = v.denominator
                if d != 1:
                    lcm = lcm * d // gcd(lcm, d)
            row = {k: v.numerator * (lcm // v.denominator) for k, v in row.items() if v}
            tags = {} if tag is None else {tag: lcm}
        pivots = self.pivots
        sign = 1  # the true row and tags are sign * (row, tags)
        reduced = False  # a reduction step ran
        while row:
            col = max(row)
            entry = pivots.get(col)
            if entry is None:
                break
            # true step r <- ca*r - cb*p; a negative ca flips the sign instead
            pivot, pivot_tags = entry
            a, b = pivot[col], row[col]
            g = gcd(a, b)
            ca, cb = a // g, b // g
            if ca < 0:
                ca, cb, sign = -ca, -cb, -sign
            row = _step(row, ca, cb, pivot)
            tags = _step(tags, ca, cb, pivot_tags)
            reduced = True
        if reduced:  # divide by the content, by its negative under the flag
            g = gcd(*row.values(), *tags.values()) * sign
            if g != 1:  # g == 0 only when row and tags are both empty
                row = {k: v // g for k, v in row.items()}
                tags = {k: v // g for k, v in tags.items()}
        if not row:
            return tags
        pivots[col] = (row, tags)
        return None


_INT = frozenset({int})


def _step(row: dict, ca: int, cb: int, pivot: dict) -> dict:
    """ca*row - cb*pivot without zero entries, for ca >= 1: in place when ca
    is 1, else one new dict.  Either way the keys keep the row's order, the
    pivot's new keys following."""
    if ca == 1:
        for k, v in pivot.items():
            value = row.get(k, 0) - cb * v
            if value:
                row[k] = value
            else:
                del row[k]
        return row
    out = {}
    get = pivot.get
    for k, v in row.items():
        w = get(k)
        if w is None:
            out[k] = ca * v
        else:
            value = ca * v - cb * w
            if value:
                out[k] = value
    for k, v in pivot.items():
        if k not in row:
            out[k] = -cb * v
    return out


def combine(pairs) -> dict:
    """The sum of c*row over (c, row) pairs, its zero entries dropped."""
    out: dict = {}
    for c, row in pairs:
        for k, v in row.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def nullspace_tags(vectors) -> list[dict]:
    """Kernel relations among (row, tag) pairs, as integer tag-combinations,
    one per vector dependent on those before it."""
    tracker = KernelEchelon()
    out = []
    for row, tag in vectors:
        relation = tracker.add(row, tag)
        if relation is not None:
            out.append(relation)
    return out

