"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping comparable column keys to numbers, and a row
pivots on its largest column.  The quotient coordinates of
``Ideal.coordinates`` are int columns that sort in the monomial order, so
rows of normal forms pivot on their leading monomials.  Elimination is
fraction-free: a step replaces r by (p[c]*r - r[c]*p) / gcd(p[c], r[c]),
negative when p[c] is, and one exact strip of the positive content ends
each add.  So a stored row's or relation's sign follows the pivot entries
it met, and keys standing for monomials must order as the monomials do.
Rational input is cleared to integers on entry, and a relation comes out
as an integer combination of the tags.  ``combine`` sums such rows with
coefficients, keys in order of first appearance: every sparse linear
combination of the package goes through it.
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
        # the denominator scale goes into the tag, and the content strip below
        # divides row and tags alike: stored row == sum of tag-coeff * originals
        lcm = 1
        for v in row.values():
            d = v.denominator
            if d != 1:
                lcm = lcm * d // gcd(lcm, d)
        row = {k: v.numerator * (lcm // v.denominator) for k, v in row.items() if v}
        tags = {} if tag is None else {tag: lcm}
        pivots = self.pivots
        reduced = False  # a reduction step ran
        while row:
            col = max(row)
            entry = pivots.get(col)
            if entry is None:
                break
            # row and tags are this call's own dicts: r <- ca*r - cb*p in place
            pivot, pivot_tags = entry
            a, b = pivot[col], row[col]
            g = gcd(a, b)
            ca, cb = a // g, b // g
            if ca != 1:
                row = {k: ca * v for k, v in row.items()}
                tags = {k: ca * v for k, v in tags.items()}
            for k, v in pivot.items():
                value = row.get(k, 0) - cb * v
                if value:
                    row[k] = value
                else:
                    del row[k]
            for k, v in pivot_tags.items():
                value = tags.get(k, 0) - cb * v
                if value:
                    tags[k] = value
                else:
                    del tags[k]
            reduced = True
        if reduced:
            g = gcd(*row.values(), *tags.values())
            if g > 1:
                row = {k: v // g for k, v in row.items()}
                tags = {k: v // g for k, v in tags.items()}
        if not row:
            return tags
        pivots[col] = (row, tags)
        return None


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

