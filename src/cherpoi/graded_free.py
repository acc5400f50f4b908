"""Homogeneous free bases of graded projective modules, constructively.

A graded projective module over a connected graded algebra is graded-free.
This module turns that statement into an algorithm: given an idempotent
matrix E with homogeneous entries acting on a shifted free module F, it
extracts homogeneous elements of the image whose generated submodule matches
the image degree by degree, and certifies freeness by Hilbert-function
comparison up to an explicit horizon.

Algebras are presented degreewise over Q: a basis list per degree up to a
cutoff, plus structure constants. A homogeneous element of degree d is a
sparse {basis index: Fraction} map; a possibly inhomogeneous entry is a
{degree: element} map. Free modules carry one shift per basis vector u_i,
so the row-i component of a degree-g element lives in A_{g - shift_i}, and
a degree-zero matrix has entry (i, j) homogeneous of degree
shift_j - shift_i.

Everything is certified only up to the reported horizon
min(cutoff - max(shifts), cutoff + min(shifts)); the tool never claims
global freeness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from ._linalg import EchelonSpan, solve
from .errors import CertificationError, InvalidSplittingError

Element = dict[int, Fraction]  # homogeneous, indexed into one degree's basis
Entry = dict[int, Element]  # inhomogeneous: degree -> homogeneous component


@dataclass(frozen=True, eq=False)
class ConnectedGradedAlgebra:
    """Commutative connected graded Q-algebra presented up to a cutoff.

    basis[d] lists opaque labels for a Q-basis of A_d; products is keyed by
    (i, j) with i + j <= cutoff and gives, per pair of basis indices, the
    sparse product in A_{i+j}. Degree 0 must be spanned by the unit.
    """

    cutoff: int
    basis: tuple[tuple[object, ...], ...]
    products: dict
    name: str = "algebra"

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        if len(self.basis) != self.cutoff + 1:
            raise ValueError("need one basis list per degree 0..cutoff")
        if len(self.basis[0]) != 1:
            raise ValueError("connected means A_0 = Q, one basis element")
        self._check_associative()

    def _check_associative(self):
        for i in range(self.cutoff + 1):
            for j in range(self.cutoff + 1 - i):
                for l in range(self.cutoff + 1 - i - j):
                    for bi in range(len(self.basis[i])):
                        for bj in range(len(self.basis[j])):
                            ab = self.products[(i, j)][bi][bj]
                            for bl in range(len(self.basis[l])):
                                left = self.multiply(i + j, ab, l, {bl: Fraction(1)})
                                bc = self.products[(j, l)][bj][bl]
                                right = self.multiply(i, {bi: Fraction(1)}, j + l, bc)
                                if left != right:
                                    raise ValueError(
                                        f"multiplication not associative at degrees {(i, j, l)}"
                                    )

    def dim(self, d: int) -> int:
        if d < 0 or d > self.cutoff:
            return 0
        return len(self.basis[d])

    def unit(self) -> Element:
        return {0: Fraction(1)}

    def multiply(self, i: int, a: Element, j: int, b: Element) -> Element:
        """Product of a in A_i and b in A_j, landing in A_{i+j}."""
        if i + j > self.cutoff:
            raise ValueError(f"product degree {i + j} exceeds cutoff {self.cutoff}")
        out: Element = {}
        table = self.products[(i, j)]
        for bi, ca in a.items():
            row = table[bi]
            for bj, cb in b.items():
                for bk, ck in row[bj].items():
                    v = out.get(bk, Fraction(0)) + ca * cb * ck
                    if v:
                        out[bk] = v
                    elif bk in out:
                        del out[bk]
        return out


def _monomials(num_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    if num_vars == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in _monomials(num_vars - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


class _MonomialAlgebra(ConnectedGradedAlgebra):
    """Monomials under exponent addition: each product is one basis monomial
    or zero, and adding exponent vectors is associative, so there is nothing
    for the O(cutoff^3 dim^3) associativity check to find."""

    def _check_associative(self):
        pass


def _monomial_algebra(num_vars: int, cutoff: int, keep, name: str) -> ConnectedGradedAlgebra:
    basis = tuple(
        tuple(m for m in _monomials(num_vars, d) if keep(m)) for d in range(cutoff + 1)
    )
    index = [{m: k for k, m in enumerate(row)} for row in basis]
    products = {}
    for i in range(cutoff + 1):
        for j in range(cutoff + 1 - i):
            table = []
            for a in basis[i]:
                row = []
                for b in basis[j]:
                    prod = tuple(x + y for x, y in zip(a, b))
                    cell = {}
                    if prod in index[i + j]:
                        cell[index[i + j][prod]] = Fraction(1)
                    row.append(cell)
                table.append(row)
            products[(i, j)] = table
    return _MonomialAlgebra(cutoff, basis, products, name)


def polynomial_algebra(num_vars: int, cutoff: int) -> ConnectedGradedAlgebra:
    """Q[x_1..x_m] presented degree by degree up to the cutoff."""
    if num_vars < 1:
        raise ValueError("need at least one variable")
    return _monomial_algebra(num_vars, cutoff, lambda m: True, f"poly{num_vars}")


def truncated_polynomial_algebra(num_vars: int, cutoff: int, top: int) -> ConnectedGradedAlgebra:
    """Q[x_1..x_m] / (all monomials of total degree > top)."""
    if num_vars < 1:
        raise ValueError("need at least one variable")
    if top < 0:
        raise ValueError("truncation degree must be nonnegative")
    return _monomial_algebra(
        num_vars, cutoff, lambda m: sum(m) <= top, f"poly{num_vars}trunc{top}"
    )


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
                    v = acc.get(idx, Fraction(0)) + c
                    if v:
                        acc[idx] = v
                    elif idx in acc:
                        del acc[idx]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def identity_matrix(algebra, size: int) -> MatrixEntries:
    unit = algebra.unit()
    return tuple(
        tuple(dict(unit) if i == j else {} for j in range(size)) for i in range(size)
    )


def unipotent_inverse(algebra, shifts, U: MatrixEntries) -> MatrixEntries:
    """Inverse of I + N with N strictly lower triangular, by Neumann series."""
    size = len(shifts)
    N = tuple(
        tuple({} if i == j else dict(U[i][j]) for j in range(size)) for i in range(size)
    )
    for i in range(size):
        if U[i][i] != algebra.unit():
            raise ValueError("matrix is not unipotent")
        for j in range(i + 1, size):
            if U[i][j]:
                raise ValueError("matrix is not lower triangular")
    acc = identity_matrix(algebra, size)
    power = identity_matrix(algebra, size)
    sign = 1
    for _ in range(size - 1):
        power = matrix_multiply(algebra, shifts, power, N)
        sign = -sign
        acc = tuple(
            tuple(
                _element_add(acc[i][j], power[i][j], sign) for j in range(size)
            )
            for i in range(size)
        )
    return acc


def _element_add(a: Element, b: Element, scale=1) -> Element:
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, Fraction(0)) + scale * c
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


@dataclass(frozen=True, eq=False)
class GradedIdempotent:
    """Idempotent degree-zero matrix acting on the shifted free module.

    Entry (i, j) is a homogeneous element of degree shift_j - shift_i, empty
    when that degree is negative. Idempotency is verified exactly at
    construction, entry by entry within the cutoff.
    """

    algebra: ConnectedGradedAlgebra
    shifts: tuple[int, ...]
    entries: MatrixEntries

    def __post_init__(self):
        size = len(self.shifts)
        if len(self.entries) != size or any(len(r) != size for r in self.entries):
            raise ValueError("matrix shape does not match the shifts")
        spread = max(self.shifts) - min(self.shifts)
        if spread > self.algebra.cutoff:
            raise ValueError("shift spread exceeds the algebra cutoff")
        for i in range(size):
            for j in range(size):
                deg = _entry_degree(self.shifts, i, j)
                entry = self.entries[i][j]
                if entry and not 0 <= deg <= self.algebra.cutoff:
                    raise ValueError(
                        f"entry ({i},{j}) must vanish, its degree {deg} is out of range"
                    )
                if any(
                    not 0 <= idx < self.algebra.dim(deg) for idx in entry
                ):
                    raise ValueError(f"entry ({i},{j}) indexes outside A_{deg}")
        square = matrix_multiply(self.algebra, self.shifts, self.entries, self.entries)
        if square != self.entries:
            raise ValueError("matrix is not idempotent")

    @property
    def size(self) -> int:
        return len(self.shifts)


def diagonal_idempotent(algebra, shifts, flags) -> GradedIdempotent:
    """Idempotent projecting onto the rows where flags is truthy."""
    unit = algebra.unit()
    entries = tuple(
        tuple(dict(unit) if i == j and flags[i] else {} for j in range(len(shifts)))
        for i in range(len(shifts))
    )
    return GradedIdempotent(algebra, tuple(shifts), entries)


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
    U = [[dict() for _ in range(size)] for _ in range(size)]
    for i in range(size):
        U[i][i] = dict(algebra.unit())
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
                    entry[idx] = Fraction(c)
            U[i][j] = entry
    U = tuple(tuple(row) for row in U)
    positions = list(range(size))
    rng.shuffle(positions)
    flags = [False] * size
    for p in positions[:rank]:
        flags[p] = True
    unit = algebra.unit()
    D = tuple(
        tuple(dict(unit) if i == j and flags[i] else {} for j in range(size))
        for i in range(size)
    )
    Uinv = unipotent_inverse(algebra, shifts, U)
    E = matrix_multiply(algebra, shifts, matrix_multiply(algebra, shifts, U, D), Uinv)
    return GradedIdempotent(algebra, shifts, E)


# ---------------------------------------------------------------------------
# degreewise linear algebra on F_g

@dataclass(frozen=True, eq=False)
class HomogeneousVector:
    """Element of the shifted free module, homogeneous of the given degree."""

    degree: int
    rows: tuple[Element, ...]


def _layout(algebra, shifts, g: int):
    """Offsets of each row block inside the Q-basis of F_g."""
    offsets = []
    total = 0
    for s in shifts:
        offsets.append(total)
        total += algebra.dim(g - s)
    return offsets, total


def _to_qvector(algebra, shifts, vec: HomogeneousVector) -> list[Fraction]:
    offsets, total = _layout(algebra, shifts, vec.degree)
    out = [Fraction(0)] * total
    for i, row in enumerate(vec.rows):
        for idx, c in row.items():
            out[offsets[i] + idx] = c
    return out


def apply_matrix(algebra, shifts, entries: MatrixEntries, vec: HomogeneousVector) -> HomogeneousVector:
    g = vec.degree
    rows = []
    for i in range(len(shifts)):
        acc: Element = {}
        for j in range(len(shifts)):
            entry = entries[i][j]
            comp = vec.rows[j]
            if not entry or not comp:
                continue
            prod = algebra.multiply(
                _entry_degree(shifts, i, j), entry, g - shifts[j], comp
            )
            acc = _element_add(acc, prod)
        rows.append(acc)
    return HomogeneousVector(g, tuple(rows))


def module_scale(algebra, shifts, vec: HomogeneousVector, e: int, a: Element) -> HomogeneousVector:
    """vec * a for a homogeneous algebra element a of degree e."""
    rows = []
    for i, row in enumerate(vec.rows):
        if row:
            rows.append(algebra.multiply(vec.degree - shifts[i], row, e, a))
        else:
            rows.append({})
    return HomogeneousVector(vec.degree + e, tuple(rows))


def _basis_vector(algebra, shifts, g: int, row: int, idx: int) -> HomogeneousVector:
    rows = [dict() for _ in shifts]
    rows[row] = {idx: Fraction(1)}
    return HomogeneousVector(g, tuple(rows))


# ---------------------------------------------------------------------------
# the extractor

@dataclass(frozen=True, eq=False)
class ExtractionResult:
    """Homogeneous generators plus the certification horizon."""

    generators: tuple[HomogeneousVector, ...]
    horizon: int
    image_dims: dict[int, int]

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def extract_homogeneous_basis(E: GradedIdempotent) -> ExtractionResult:
    """Greedy minimal homogeneous generators of im(E), certified free.

    Degrees are processed in increasing order. At each degree the image of E
    is compared against the submodule generated so far; image vectors outside
    that span become new generators. Certification demands, at every degree
    up to the horizon, that the generated dimension equals both the image
    dimension and the free count sum(dim A_{g - |p|}); a mismatch raises
    CertificationError naming the first uncertified degree.
    """
    algebra, shifts = E.algebra, E.shifts
    horizon = min(
        algebra.cutoff - max(shifts), algebra.cutoff + min(shifts)
    )
    if horizon < 0:
        raise CertificationError("first uncertified degree 0: cutoff too small")
    generators: list[HomogeneousVector] = []
    image_dims: dict[int, int] = {}
    for g in range(min(shifts), horizon + 1):
        offsets, total = _layout(algebra, shifts, g)
        image_vectors = []
        image_span = EchelonSpan(total)
        for row in range(len(shifts)):
            for idx in range(algebra.dim(g - shifts[row])):
                w = apply_matrix(algebra, shifts, E.entries, _basis_vector(algebra, shifts, g, row, idx))
                qv = _to_qvector(algebra, shifts, w)
                if image_span.add(qv):
                    image_vectors.append(w)
        image_dims[g] = image_span.rank

        span = EchelonSpan(total)
        for p in generators:
            e = g - p.degree
            for idx in range(algebra.dim(e)):
                scaled = module_scale(algebra, shifts, p, e, {idx: Fraction(1)})
                span.add(_to_qvector(algebra, shifts, scaled))
        for w in image_vectors:
            if span.rank == image_dims[g]:
                break
            if span.add(_to_qvector(algebra, shifts, w)):
                generators.append(w)
        free_count = sum(algebra.dim(g - p.degree) for p in generators)
        if not span.rank == image_dims[g] == free_count:
            raise CertificationError(
                f"first uncertified degree {g}: generated {span.rank}, "
                f"image {image_dims[g]}, free count {free_count}"
            )
    return ExtractionResult(tuple(generators), horizon, image_dims)


def eilenberg_homogenize(E: GradedIdempotent, splitting, target_degrees=None) -> MatrixEntries:
    """Extract the degree-matching components of a splitting of im(E).

    The surjection is E itself, onto its image, with homogeneous generators
    p_i = E u_i of degrees equal to the shifts; target_degrees, when given,
    must repeat those. Splitting entries may be inhomogeneous, presented as
    {degree: component} maps; entry (j, i) keeps only its component of
    degree target_i - shift_j. The output is verified to still split, i.e.
    E composed with it fixes every generator.
    """
    algebra, shifts = E.algebra, E.shifts
    size = E.size
    if target_degrees is None:
        target_degrees = shifts
    if tuple(target_degrees) != tuple(shifts):
        raise ValueError("generator degrees are the shifts of the presenting module")
    if len(splitting) != size or any(len(r) != size for r in splitting):
        raise ValueError("splitting matrix shape mismatch")
    homog = []
    for j in range(size):
        row = []
        for i in range(size):
            wanted = target_degrees[i] - shifts[j]
            entry: Entry = splitting[j][i]
            comp = entry.get(wanted, {})
            row.append({k: Fraction(c) for k, c in comp.items() if c})
        homog.append(tuple(row))
    homog = tuple(homog)
    composed = matrix_multiply(algebra, shifts, E.entries, homog)
    recovered = matrix_multiply(algebra, shifts, composed, E.entries)
    if recovered != E.entries:
        raise InvalidSplittingError(
            "homogenized matrix no longer splits the surjection"
        )
    return homog


def minimal_expression(algebra, shifts, x: HomogeneousVector, basis) -> list[tuple[int, Element]]:
    """Smallest-support homogeneous expression x = sum basis[i] * a_i.

    Feasibility of each candidate support is decided by solving the exact
    linear system over Q, smallest supports first, subsets in index order.
    Raises ValueError when x is outside the span of the basis.
    """
    target = _to_qvector(algebra, shifts, x)
    candidates = [
        i for i, b in enumerate(basis) if algebra.dim(x.degree - b.degree) > 0
    ]
    if not any(target):
        return []
    for size in range(1, len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            columns = []
            blocks = []
            for i in subset:
                e = x.degree - basis[i].degree
                block = []
                for idx in range(algebra.dim(e)):
                    scaled = module_scale(algebra, shifts, basis[i], e, {idx: Fraction(1)})
                    block.append(len(columns))
                    columns.append(_to_qvector(algebra, shifts, scaled))
                blocks.append((i, e, block))
            sol = solve(columns, target)
            if sol is None:
                continue
            out = []
            for i, e, block in blocks:
                elem = {idx: sol[col] for idx, col in enumerate(block) if sol[col]}
                if elem:
                    out.append((i, elem))
            return out
    raise ValueError("element is not in the span of the given basis")
