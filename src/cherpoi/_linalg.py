"""Exact linear algebra: an integer row-echelon span, Fraction Gaussian
elimination for one particular solution, and fraction-free Bareiss
elimination over polynomial entries.

`EchelonSpan` keeps its rows as primitive integer vectors. Scaling a vector
by a nonzero rational does not change its Q-span, so every rank, verdict and
normal form it reports is exactly the one over Q; there is no modular or
probabilistic step.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact_poly import ExactDivisionError, LaurentPoly


class SingularMatrixError(ArithmeticError):
    pass


class EchelonSpan:
    """Incremental reduced row-echelon span of rational vectors of fixed length.

    Rows are sparse ``{column: int}`` dicts keyed by their pivot, the row's
    smallest column. Each row is primitive (content 1), positive at its pivot
    and zero at every other pivot. Arithmetic stays in the integers, and spans
    and verdicts are exactly those over Q.

    A vector is either a sparse ``{column: int}`` dict or a dense sequence of
    ints or Fractions; a dense one is cleared to integers by the lcm of its
    denominators.
    """

    def __init__(self, length: int):
        self.length = length
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> reduced row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _ints(self, vec) -> dict[int, int]:
        if isinstance(vec, dict):
            v = {i: x for i, x in vec.items() if x}
            if v and (min(v) < 0 or max(v) >= self.length):
                raise ValueError("vector column out of range")
            return v
        if len(vec) != self.length:
            raise ValueError("vector length mismatch")
        nonzero = [(i, x) for i, x in enumerate(vec) if x]
        lcm = math.lcm(*(x.denominator for _, x in nonzero))
        return {i: int(x * lcm) for i, x in nonzero}

    def _eliminate(self, v: dict[int, int]) -> int:
        """Clear every pivot column of v in place; returns the factor v gained.

        Rows are zero at each other's pivots, so clearing one pivot column
        never refills another."""
        scale = 1
        for p in [p for p in v if p in self.rows]:
            scale *= _cancel(v, self.rows[p], p)
        return scale

    def normal_form(self, vec) -> tuple[dict[int, int], int]:
        """(ints, scale): ints / scale is the representative of vec modulo the
        span that is zero at every pivot column."""
        v = self._ints(vec)
        return v, self._eliminate(v)

    def add(self, vec) -> bool:
        """Insert vec; returns True when it enlarges the span."""
        v = self._ints(vec)
        self._eliminate(v)
        if not v:
            return False
        pivot = min(v)
        v = _primitive(v, pivot)
        for q, row in self.rows.items():
            if pivot in row:
                _cancel(row, v, pivot)
                self.rows[q] = _primitive(row, q)
        self.rows[pivot] = v
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


def solve(columns, target):
    """One exact solution x of sum_j x_j * columns[j] = target, or None.

    Pivots prefer entries whose Fraction denominator (then magnitude) is
    smallest, which keeps intermediate fractions tame.
    """
    if not columns:
        return None if any(x != 0 for x in target) else []
    m, k = len(columns[0]), len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(m)]
    piv_cols: list[tuple[int, int]] = []  # (row, col)
    row = 0
    for col in range(k):
        best = None
        for i in range(row, m):
            x = aug[i][col]
            if x:
                key = (x.denominator, abs(x.numerator))
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            continue
        i = best[1]
        aug[row], aug[i] = aug[i], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for i2 in range(m):
            if i2 != row and aug[i2][col]:
                c = aug[i2][col]
                aug[i2] = [a - c * b for a, b in zip(aug[i2], aug[row])]
        piv_cols.append((row, col))
        row += 1
        if row == m:
            break
    for i in range(row, m):
        if aug[i][k]:
            return None
    x = [Fraction(0)] * k
    for r, c in piv_cols:
        x[c] = aug[r][k]
    return x


def _imul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _isub(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _idivexact(a: dict, b: dict) -> dict:
    """Exact division in Z[x*] on plain int coefficient dicts, by lex peeling."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return {}
    b_lead = max(b)
    b_c = b[b_lead]
    qlow = tuple(x - y for x, y in zip(min(a), min(b)))
    rem = dict(a)
    out: dict = {}
    while rem:
        a_lead = max(rem)
        qe = tuple(x - y for x, y in zip(a_lead, b_lead))
        if qe < qlow or rem[a_lead] % b_c:
            raise ExactDivisionError("not exactly divisible")
        qc = rem[a_lead] // b_c
        out[qe] = qc
        for e, c in b.items():
            key = tuple(x + y for x, y in zip(qe, e))
            s = rem.get(key, 0) - qc * c
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return out


def bareiss_solve(matrix: list[list[LaurentPoly]], rhs: list[LaurentPoly]):
    """Solve A x = b fraction-free over polynomial entries.

    Returns (ys, det) with x_i = ys[i] / det; all ys and det are polynomials.
    Internally the system is scaled to integer coefficients so elimination
    runs on plain int arithmetic.
    """
    k = len(matrix)
    if k == 0:
        return [], None
    variables = rhs[0].vars
    scale = 1
    for row, b in zip(matrix, rhs):
        for poly in (*row, b):
            for c in poly.terms.values():
                scale = scale * c.denominator // math.gcd(scale, c.denominator)

    def to_int(poly: LaurentPoly) -> dict:
        out = {}
        for e, c in poly.terms.items():
            ci = c * scale
            out[e] = ci.numerator
        return out

    m = [[to_int(matrix[i][j]) for j in range(k)] + [to_int(rhs[i])] for i in range(k)]
    prev: dict | None = None
    for r in range(k):
        piv, best = None, None
        for i in range(r, k):
            if m[i][r]:
                sz = len(m[i][r])
                if best is None or sz < best:
                    piv, best = i, sz
        if piv is None:
            raise SingularMatrixError("singular system in fraction-free elimination")
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, k):
            for j in range(r + 1, k + 1):
                num = _isub(_imul(m[r][r], m[i][j]), _imul(m[i][r], m[r][j]))
                m[i][j] = _idivexact(num, prev) if prev is not None else num
            m[i][r] = {}
        prev = m[r][r]
    det = m[k - 1][k - 1]
    ys = [dict() for _ in range(k)]
    ys[k - 1] = m[k - 1][k]
    for i in range(k - 2, -1, -1):
        num = _imul(m[i][k], det)
        for j in range(i + 1, k):
            num = _isub(num, _imul(m[i][j], ys[j]))
        ys[i] = _idivexact(num, m[i][i])

    def to_poly(d: dict) -> LaurentPoly:
        return LaurentPoly(variables, {e: Fraction(c) for e, c in d.items()})

    return [to_poly(y) for y in ys], to_poly(det)
