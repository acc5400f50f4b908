"""Exact linear algebra: an integer row-echelon span.

`EchelonSpan` keeps its rows as primitive integer vectors in row-echelon,
not reduced, form: a new row is eliminated against the existing pivots and
stored as it is, without rewriting the other rows. Scaling a vector by a
nonzero rational does not change its Q-span, so every rank, verdict and
normal form it reports is exactly the one over Q; there is no modular or
probabilistic step.

There is one vector format: a fresh sparse ``{column: int}`` dict of nonzero
entries, with absent columns zero, which `add` and `normal_form` consume.
Callers build it that way: the oracle's `to_vec`, and the graded-free
extractor's `_scaled_qvector`, which clears a rational vector's denominators
first.
"""

from __future__ import annotations

import bisect
import math


class EchelonSpan:
    """Incremental row-echelon span of integer vectors.

    Rows are sparse ``{column: int}`` dicts keyed by their pivot, the row's
    smallest column. Each row is primitive (content 1) and positive at its
    pivot. Rows are not reduced against each other: a row may be nonzero at a
    later pivot, so inserting a row never rewrites the others. Arithmetic
    stays in the integers, and spans and verdicts are exactly those over Q.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> echelon row
        self._pivots: list[int] = []  # the keys of rows, ascending

    @property
    def rank(self) -> int:
        return len(self.rows)

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

    def normal_form(self, v: dict[int, int]) -> tuple[dict[int, int], int]:
        """(v, scale), v reduced in place: v / scale is the representative of
        the vector modulo the span that is zero at every pivot column."""
        return v, self._eliminate(v)

    def add(self, v: dict[int, int]) -> bool:
        """Insert v, which it consumes; returns True when it enlarges the span."""
        self._eliminate(v)
        g = math.gcd(*v.values())  # 0 for the zero vector
        if not g:
            return False
        pivot = min(v)
        if v[pivot] < 0:
            g = -g
        self.rows[pivot] = v if g == 1 else {i: x // g for i, x in v.items()}
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
