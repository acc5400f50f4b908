"""Homogeneous free bases of graded projective modules, constructively.

A graded projective module over a connected graded algebra is graded-free.
This module turns that statement into an algorithm: given an idempotent
matrix E with homogeneous entries acting on a shifted free module F, it
extracts homogeneous elements of the image whose generated submodule matches
the image degree by degree, and certifies freeness by Hilbert-function
comparison up to an explicit horizon: in each degree g, the rank generated
equals the trace of E on F_g, which is dim im(E)_g because E^2 = E is
verified exactly at construction, and equals the free count.

The algebra is a monomial algebra: Q[x_1..x_m], possibly modulo every
monomial above a top degree, presented degreewise over Q by its monomials
up to a cutoff, and multiplied by adding exponent vectors. A homogeneous
element of degree d is a sparse {basis index: coefficient} map, each
coefficient an exact rational in one normal form: an int when integral, a
Fraction otherwise, so integer data stays on integer arithmetic throughout.
Free modules carry one shift per basis vector u_i, so the row-i component of
a degree-g element lives in A_{g - shift_i}, and a degree-zero matrix has
entry (i, j) homogeneous of degree shift_j - shift_i.

Everything is certified only up to the reported horizon
min(cutoff - max(shifts), cutoff + min(shifts)); the tool never claims
global freeness.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import add
from random import Random
from typing import NamedTuple

from ._linalg import EchelonSpan
from .errors import CertificationError, ResourceError

Element = dict[int, int | Fraction]  # homogeneous, indexed into one degree's basis
# basis entries one MonomialAlgebra may hold: its monomials and one row per
# degree; the largest algebra the suites build, two variables to degree 12,
# holds 91 monomials
_MAX_BASIS = 100_000


def _monomials(num_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    if num_vars == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in _monomials(num_vars - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


def _exact(c) -> int | Fraction:
    """c in the coefficient normal form: an int when integral, else a Fraction."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _accumulate(out: Element, k: int, c) -> None:
    """out[k] += c, dropping k when the sum is zero."""
    v = out.get(k, 0) + c
    if v:
        out[k] = v
    else:
        out.pop(k, None)


class MonomialAlgebra:
    """Q[x_1..x_m] presented degree by degree up to the cutoff, modulo every
    monomial of total degree > top when top is given.

    basis[d] lists the exponent tuples of the degree-d monomials, largest
    first exponent first, and index[d] maps each back to its position. A
    product adds exponent vectors, so it is one basis monomial or, above
    top, zero; the algebra is commutative, associative and connected by
    construction.
    """

    def __init__(self, num_vars: int, cutoff: int, top: int | None = None):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        if top is not None and top < 0:
            raise ValueError("truncation degree must be nonnegative")
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        self.cutoff = cutoff
        last = cutoff if top is None else min(top, cutoff)
        # C(last + m, m) monomials, at least 2^min(last, m): past 2^64 the
        # cap is exceeded without the count
        if min(last, num_vars) >= 64 or math.comb(last + num_vars, num_vars) + cutoff - last > _MAX_BASIS:
            raise ResourceError(
                f"{num_vars} variables to degree {cutoff} need more than {_MAX_BASIS} basis entries"
            )
        self.basis = tuple(
            _monomials(num_vars, d) if d <= last else () for d in range(cutoff + 1)
        )
        self.index = tuple({m: k for k, m in enumerate(row)} for row in self.basis)

    def dim(self, d: int) -> int:
        if d < 0 or d > self.cutoff:
            return 0
        return len(self.basis[d])

    def unit(self) -> Element:
        return {0: 1}

    def multiply(self, i: int, a: Element, j: int, b: Element) -> Element:
        """Product of a in A_i and b in A_j, landing in A_{i+j}."""
        if i + j > self.cutoff:
            raise ValueError(f"product degree {i + j} exceeds cutoff {self.cutoff}")
        left, right, index = self.basis[i], self.basis[j], self.index[i + j]
        out: Element = {}
        for bi, ca in a.items():
            x = left[bi]
            for bj, cb in b.items():
                k = index.get(tuple(map(add, x, right[bj])))
                if k is not None:
                    _accumulate(out, k, ca * cb)
        return out


# ---------------------------------------------------------------------------
# shifted free modules and homogeneous matrices

MatrixEntries = tuple[tuple[Element, ...], ...]


def _entry_degree(shifts, i: int, j: int) -> int:
    return shifts[j] - shifts[i]


def matrix_multiply(algebra, shifts, A: MatrixEntries, B: MatrixEntries) -> MatrixEntries:
    """Product of two degree-zero matrices over the shifted free module."""
    size = len(shifts)
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc: Element = {}
            for k in range(size):
                a, b = A[i][k], B[k][j]
                if not a or not b:
                    continue
                prod = algebra.multiply(
                    _entry_degree(shifts, i, k), a, _entry_degree(shifts, k, j), b
                )
                for idx, c in prod.items():
                    _accumulate(acc, idx, c)
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _diagonal(algebra, flags) -> MatrixEntries:
    """The 0/1 diagonal matrix with a unit where flags is truthy."""
    size = len(flags)
    return tuple(
        tuple(algebra.unit() if i == j and flags[i] else {} for j in range(size))
        for i in range(size)
    )


def identity_matrix(algebra, size: int) -> MatrixEntries:
    return _diagonal(algebra, (True,) * size)


def unipotent_inverse(algebra, shifts, U: MatrixEntries) -> MatrixEntries:
    """Inverse V of U = I + N with N strictly lower triangular: the fixed
    point of V <- I - N V from V = I, reached after size - 1 steps since
    N^size = 0. N V is strictly lower triangular, so each step is (-N) V
    with the unit put back on the diagonal."""
    size = len(shifts)
    for i in range(size):
        if U[i][i] != algebra.unit():
            raise ValueError("matrix is not unipotent")
        for j in range(i + 1, size):
            if U[i][j]:
                raise ValueError("matrix is not lower triangular")
    minus_n = tuple(
        tuple({} if i == j else {k: -c for k, c in U[i][j].items()} for j in range(size))
        for i in range(size)
    )
    V = identity_matrix(algebra, size)
    for _ in range(size - 1):
        V = tuple(
            tuple(algebra.unit() if i == j else entry for j, entry in enumerate(row))
            for i, row in enumerate(matrix_multiply(algebra, shifts, minus_n, V))
        )
    return V


class GradedIdempotent(namedtuple("GradedIdempotent", "algebra shifts entries")):
    """Idempotent degree-zero matrix acting on the shifted free module.

    Entry (i, j) is a homogeneous element of degree shift_j - shift_i, empty
    when that degree is negative. Idempotency is verified exactly at
    construction, entry by entry within the cutoff.
    """

    __slots__ = ()

    def __new__(cls, algebra: MonomialAlgebra, shifts: tuple[int, ...], entries: MatrixEntries):
        size = len(shifts)
        if not size:
            raise ValueError("an idempotent needs at least one shift")
        if len(entries) != size or any(len(r) != size for r in entries):
            raise ValueError("matrix shape does not match the shifts")
        spread = max(shifts) - min(shifts)
        if spread > algebra.cutoff:
            raise ValueError("shift spread exceeds the algebra cutoff")
        for i in range(size):
            for j in range(size):
                deg = _entry_degree(shifts, i, j)
                entry = entries[i][j]
                if entry and not 0 <= deg <= algebra.cutoff:
                    raise ValueError(
                        f"entry ({i},{j}) must vanish, its degree {deg} is out of range"
                    )
                if any(
                    not 0 <= idx < algebra.dim(deg) for idx in entry
                ):
                    raise ValueError(f"entry ({i},{j}) indexes outside A_{deg}")
        square = matrix_multiply(algebra, shifts, entries, entries)
        if square != entries:
            raise ValueError("matrix is not idempotent")
        return super().__new__(cls, algebra, shifts, entries)


def diagonal_idempotent(algebra, shifts, flags) -> GradedIdempotent:
    """Idempotent projecting onto the rows where flags is truthy."""
    return GradedIdempotent(algebra, tuple(shifts), _diagonal(algebra, flags))


def random_unipotent_idempotent(algebra, shifts, rank: int, rng: Random) -> GradedIdempotent:
    """U diag(1..1,0..0) U^{-1} for a random homogeneous unipotent U.

    Shifts must be weakly decreasing so the strictly lower entries can be
    homogeneous of nonnegative degree. Plumbing for the randomized battery.
    """
    shifts = tuple(shifts)
    size = len(shifts)
    if any(shifts[i] < shifts[i + 1] for i in range(size - 1)):
        raise ValueError("shifts must be weakly decreasing")
    if not 0 <= rank <= size:
        raise ValueError(f"rank must be within 0..{size}")
    U = [list(row) for row in identity_matrix(algebra, size)]
    for i in range(size):
        for j in range(i):
            deg = _entry_degree(shifts, i, j)
            dimension = algebra.dim(deg)
            if dimension == 0:
                continue
            entry: Element = {}
            for idx in range(dimension):
                c = rng.randint(-2, 2)
                if c:
                    entry[idx] = c
            U[i][j] = entry
    U = tuple(tuple(row) for row in U)
    positions = list(range(size))
    rng.shuffle(positions)
    flags = [False] * size
    for p in positions[:rank]:
        flags[p] = True
    flagged = tuple(tuple(e if flags[j] else {} for j, e in enumerate(row)) for row in U)
    E = matrix_multiply(algebra, shifts, flagged, unipotent_inverse(algebra, shifts, U))
    return GradedIdempotent(algebra, shifts, E)


# ---------------------------------------------------------------------------
# degreewise linear algebra on F_g

class HomogeneousVector(NamedTuple):
    """Element of the shifted free module, homogeneous of the given degree."""

    degree: int
    rows: tuple[Element, ...]


def _layout(algebra, shifts, g: int) -> list[int]:
    """Offsets of each row block inside the Q-basis of F_g."""
    offsets = []
    total = 0
    for s in shifts:
        offsets.append(total)
        total += algebra.dim(g - s)
    return offsets


def _scaled_qvector(algebra, shifts, offsets, vec: HomogeneousVector, e: int, idx: int) -> dict[int, int]:
    """module_scale(algebra, shifts, vec, e, {idx: 1}) as a sparse {column:
    int} vector in the Q-basis of F_{vec.degree + e}, whose row blocks start
    at offsets (from _layout), written straight there without building the
    scaled vector: a monomial carries distinct monomials to distinct ones, or
    above the algebra's top to zero, so each coefficient is copied. A vector
    that holds a Fraction is then cleared by the lcm of its denominators, so
    the result is a fresh vector as `EchelonSpan.add` takes it, with the
    same Q-span. The tests check it against flattening the scaled vector."""
    g = vec.degree + e
    m = algebra.basis[e][idx]
    out: Element = {}
    for offset, s, row in zip(offsets, shifts, vec.rows):
        if row:
            left, index = algebra.basis[vec.degree - s], algebra.index[g - s]
            for bi, c in row.items():
                k = index.get(tuple(map(add, left[bi], m)))
                if k is not None:
                    out[offset + k] = c
    if Fraction in map(type, out.values()):
        lcm = math.lcm(*(c.denominator for c in out.values()))
        out = {i: c.numerator * (lcm // c.denominator) for i, c in out.items()}
    return out


def module_scale(algebra, shifts, vec: HomogeneousVector, e: int, a: Element) -> HomogeneousVector:
    """vec * a for a homogeneous algebra element a of degree e."""
    rows = []
    for i, row in enumerate(vec.rows):
        if row:
            rows.append(algebra.multiply(vec.degree - shifts[i], row, e, a))
        else:
            rows.append({})
    return HomogeneousVector(vec.degree + e, tuple(rows))


# ---------------------------------------------------------------------------
# the extractor

class ExtractionResult(NamedTuple):
    """Homogeneous generators plus the certification horizon."""

    generators: tuple[HomogeneousVector, ...]
    horizon: int
    image_dims: dict[int, int]


def extract_homogeneous_basis(E: GradedIdempotent) -> ExtractionResult:
    """Greedy minimal homogeneous generators of im(E), certified free.

    Degrees are processed in increasing order. At each degree the image
    vectors E(u_j x^idx) are offered, in turn, to the span of the generators'
    multiples; each that enlarges it becomes a new generator, until its rank
    reaches dim im(E)_g, the trace sum(E_jj dim A_{g - shift_j}) of E on F_g
    (E_jj is a scalar). Certification demands, at every degree up to the
    horizon, that the generated dimension equals both the trace and the free
    count sum(dim A_{g - |p|}); a mismatch raises CertificationError naming
    the first uncertified degree. E^2 = E is verified at construction, so a
    trace that is not a nonnegative integer is a program fault: ArithmeticError.
    """
    algebra, shifts = E.algebra, E.shifts
    horizon = min(algebra.cutoff - max(shifts), algebra.cutoff + min(shifts))
    if horizon < 0:
        raise CertificationError("first uncertified degree 0: cutoff too small")
    # column j of E is E u_j, of degree shift_j; E (u_j x^idx) is it times x^idx
    columns = [HomogeneousVector(s, tuple(r[j] for r in E.entries)) for j, s in enumerate(shifts)]
    generators: list[HomogeneousVector] = []
    image_dims: dict[int, int] = {}
    for g in range(min(shifts), horizon + 1):
        trace = _exact(sum(E.entries[j][j].get(0, 0) * algebra.dim(g - s) for j, s in enumerate(shifts)))
        if type(trace) is not int or trace < 0:
            raise ArithmeticError(f"the trace {trace} of an idempotent on F_{g} is not a rank")
        image_dims[g] = trace
        offsets = _layout(algebra, shifts, g)
        span = EchelonSpan()
        for p in generators:
            e = g - p.degree
            for idx in range(algebra.dim(e)):
                span.add(_scaled_qvector(algebra, shifts, offsets, p, e, idx))
        for column in columns:
            e = g - column.degree
            for idx in range(algebra.dim(e)):
                if span.rank == trace:
                    break
                if span.add(_scaled_qvector(algebra, shifts, offsets, column, e, idx)):
                    generators.append(module_scale(algebra, shifts, column, e, {idx: 1}))
        free_count = sum(algebra.dim(g - p.degree) for p in generators)
        if not span.rank == trace == free_count:
            raise CertificationError(
                f"first uncertified degree {g}: generated {span.rank}, "
                f"image {trace}, free count {free_count}"
            )
    return ExtractionResult(tuple(generators), horizon, image_dims)
