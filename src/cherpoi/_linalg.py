"""Exact linear algebra: an integer row-echelon span.

`EchelonSpan` keeps its rows as primitive integer vectors in row-echelon,
not reduced, form: a new row is eliminated against the existing pivots and
stored as it is, without rewriting the other rows. Scaling a vector by a
nonzero rational does not change its Q-span, so every rank, verdict and
normal form it reports is exactly the one over Q; there is no modular or
probabilistic step.

There is one vector format: a sparse ``{column: int | Fraction}`` dict, with
absent columns zero.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction


class EchelonSpan:
    """Incremental row-echelon span of rational vectors of fixed length.

    Rows are sparse ``{column: int}`` dicts keyed by their pivot, the row's
    smallest column. Each row is primitive (content 1) and positive at its
    pivot. Rows are not reduced against each other: a row may be nonzero at a
    later pivot, so inserting a row never rewrites the others. Arithmetic
    stays in the integers, and spans and verdicts are exactly those over Q.

    A vector is a sparse ``{column: int | Fraction}`` dict; one that holds a
    Fraction is cleared to integers by the lcm of its denominators.
    """

    def __init__(self, length: int):
        self.length = length
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> echelon row
        self._pivots: list[int] = []  # the keys of rows, ascending

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _ints(self, vec) -> dict[int, int]:
        v = {i: x for i, x in vec.items() if x}
        if v and (min(v) < 0 or max(v) >= self.length):
            raise ValueError("vector column out of range")
        if Fraction in map(type, v.values()):
            lcm = math.lcm(*(x.denominator for x in v.values()))
            v = {i: x.numerator * (lcm // x.denominator) for i, x in v.items()}
        return v

    def _eliminate(self, v: dict[int, int]) -> int:
        """Clear every pivot column of v in place; returns the factor v gained.

        Pivots are cleared in ascending order. A row is zero left of its
        pivot, so clearing pivot p can refill only later columns, and those
        are cleared after it."""
        scale = 1
        rows = self.rows
        for p in self._pivots:
            if p in v:
                scale *= _cancel(v, rows[p], p)
                if not v:
                    break
        return scale

    def normal_form(self, vec) -> tuple[dict[int, int], int]:
        """(ints, scale): ints / scale is the representative of vec modulo the
        span that is zero at every pivot column."""
        v = self._ints(vec)
        return v, self._eliminate(v)

    def add(self, vec) -> bool:
        """Insert vec; returns True when it enlarges the span."""
        return self._insert(self._ints(vec))

    def _insert(self, v: dict[int, int]) -> bool:
        """Insert v, a fresh dict of nonzero ints at columns in range, which
        it consumes; returns True when it enlarges the span. Every insert
        comes here: from `add`, and directly from callers that build such
        dicts, whose vectors would pass `_ints` unchanged."""
        self._eliminate(v)
        if not v:
            return False
        pivot = min(v)
        self.rows[pivot] = _primitive(v, pivot)
        bisect.insort(self._pivots, pivot)
        return True


def _cancel(v: dict[int, int], row: dict[int, int], p: int) -> int:
    """v <- a*v - b*row in place, with a > 0 chosen so that v[p] becomes 0.

    row[p] must be positive; returns a."""
    g = math.gcd(row[p], v[p])
    a, b = row[p] // g, v[p] // g
    if a != 1:
        for i in v:
            v[i] *= a
    for i, x in row.items():
        y = v.get(i, 0) - b * x
        if y:
            v[i] = y
        else:
            del v[i]
    return a


def _primitive(v: dict[int, int], pivot: int) -> dict[int, int]:
    """v divided by its content, signed to be positive at the pivot."""
    g = math.gcd(*v.values())
    if v[pivot] < 0:
        g = -g
    return v if g == 1 else {i: x // g for i, x in v.items()}
