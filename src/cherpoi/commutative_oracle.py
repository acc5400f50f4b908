"""Brute-force linear algebra over C[h + h*] for the diagonal S_n action.

Everything here is computed from first principles: monomials, permutation
substitutions, and exact row reduction. No closed formula from the series
modules is consulted, so these tables can sit on the other side of an
acceptance check. Every polynomial here has integer coefficients except the
linear forms of `_x_in_u`, whose denominators divide n; `_power_sum_poly`
clears them. The cell bases are eliminated over Z by `EchelonSpan`, whose ranks
are exactly the ranks over Q.

Conventions. h is the (n-1)-dimensional reflection representation realized
inside C^n as the span of u_i = x_i - x_{i+1}; the dual copy h* carries the
dual basis w_1..w_{n-1}. C[h + h*] is the polynomial ring in u_1..u_{n-1},
w_1..w_{n-1} with deg u_i = (1,0) and deg w_i = (0,1). A permutation acts by
sigma(u_j) = x_{sigma(j)} - x_{sigma(j+1)} rewritten in the u's, and on the
w's by the inverse-transpose matrices. Edeg of the cell (a,b) is a - b.

A^1 is the space of alternating polynomials, A^0 the invariants, and
A^d = (A^1)^d for d >= 2; J^d = C[h + h*] A^d. jbar refers to the quotient
J^d / C[h]^W_+ J^d, whose diagonal sums are certified by the saturation
protocol: a diagonal is trusted only when two successive window enlargements
(+2 on every bound) leave its sum unchanged.

Polynomials. Every polynomial of the engine is a {key: coefficient} dict
whose key packs a monomial into one int: the exponent of variable r (u_1..u_m,
then w_1..w_m) sits in the _SLOT_BITS-bit slot r, so the key of x^e is
sum_r _origin(r, e_r). No exponent reaches 2**_SLOT_BITS, so a product of two
monomials adds their keys and multiplying by x_r adds _origin(r, 1). Products
go through exact_poly's _mul_packed.

Cell bases. Five rules skip candidates that cannot raise a rank; no stored
basis changes by them:

- `j_basis` offers its candidates lazily and stops once the cell is full,
  so a J^d cell spanned by its neighbours' multiples (every J^0 cell but
  (0,0)) never builds A^d(a,b);
- `j_basis` records the origin (x^e, g) of each stored element x^e g, g an
  A^d basis element, and skips a shifted candidate whose origin was already
  offered in the cell: u_1 (u_2 g) and u_2 (u_1 g) are one polynomial;
- `a_basis(2)` offers each unordered product of two A^1 factors once, since
  A^1 A^1 is commutative;
- `parity_check` symmetrizes each monomial of a cell once and combines those
  images; they are held only while that cell is checked. For d <= 1 the
  rank of all of them is dim A^d(a,b), so it builds no A^d basis;
- for d <= 1, `a_basis` and `parity_check`'s span of the images stop once
  their rank reaches dim A^d(a,b), which `_molien_dim` counts by Molien's
  theorem: every later image lies in the span already built. A rank that
  falls short of the count runs through every monomial as before, so the
  count only ever ends a loop early.

Resource budget. coinvariant_multiplicities runs for 2 <= n <= 5. The
bigraded operations run for 2 <= n <= 4 with d <= 3 when n <= 3, and n = 4
only for d <= 1 under a mandatory total-degree cap of 8.
jbar_dims is restricted to n <= 3 because its certification enlarges the
window past the n = 4 budget by construction.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import factorial
from typing import NamedTuple

from ._linalg import EchelonSpan
from .errors import ResourceError
from .exact_poly import _add_into, _mul_packed
from .partition_core import Partition, check_partition, enumerate_partitions
from .sn_rep import centralizer_order, character_table

MAX_ACTION_N = 5  # coinvariant_multiplicities
MAX_BIGRADED_N = 4
MAX_D = 3
N4_TOTAL_CAP = 8
MAX_WINDOW_BOUND = 24
_ENTRY_CAP = 4_000_000  # stored basis entries before the engine gives up
# bits per variable in a packed key or origin; every exponent stays below
# 2**_SLOT_BITS: MAX_WINDOW_BOUND + 4 in the bigraded operations (jbar_dims
# enlarges the window by 4) and n(n-1)/2 in coinvariant_multiplicities
_SLOT_BITS = 8

Matrix = tuple[tuple[int, ...], ...]


def _check_linear_range(n: int):
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > MAX_ACTION_N:
        raise ResourceError(f"oracle bound is n <= {MAX_ACTION_N}, got {n}")


def _check_bigraded_budget(n: int, d: int, window, total):
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if d < 0:
        raise ValueError(f"need d >= 0, got {d}")
    if n > MAX_BIGRADED_N:
        raise ResourceError(f"bigraded oracle bound is n <= {MAX_BIGRADED_N}, got {n}")
    if d > MAX_D:
        raise ResourceError(f"bigraded oracle bound is d <= {MAX_D}, got {d}")
    if n == MAX_BIGRADED_N:
        if d > 1:
            raise ResourceError(f"n = {n} runs are budgeted for d <= 1, got {d}")
        if total is None or total > N4_TOTAL_CAP:
            raise ResourceError(
                f"n = {n} runs need an explicit total-degree cap <= {N4_TOTAL_CAP}"
            )
    amax, bmax = window
    if amax < 0 or bmax < 0:
        raise ValueError(f"window bounds must be nonnegative: {window}")
    if amax > MAX_WINDOW_BOUND or bmax > MAX_WINDOW_BOUND:
        raise ResourceError(f"window bound cap is {MAX_WINDOW_BOUND}, got {window}")
    if total is not None and total < 0:
        raise ValueError(f"total-degree cap must be nonnegative, got {total}")


# ---------------------------------------------------------------------------
# permutations and their matrices on h and h*


def perm_sign(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _perm_inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def class_representative(rho, n: int) -> tuple[int, ...]:
    """A permutation of cycle type rho, cycles laid out consecutively."""
    rho = check_partition(rho)
    if sum(rho) != n:
        raise ValueError(f"cycle type {rho} does not have size {n}")
    perm = list(range(n))
    start = 0
    for r in rho:
        for k in range(r):
            perm[start + k] = start + (k + 1) % r
        start += r
    return tuple(perm)


def _difference_in_u(a: int, b: int, m: int) -> dict[int, int]:
    """x_a - x_b (1-based) as {u-index (0-based): coefficient}."""
    if a == b:
        return {}
    if a < b:
        return {j: 1 for j in range(a - 1, b - 1)}
    return {j: -1 for j in range(b - 1, a - 1)}


def _matrix_on_h(perm: tuple[int, ...], n: int) -> Matrix:
    """Column j holds the u-coordinates of sigma(u_{j+1})."""
    m = n - 1
    cols = []
    for j in range(m):
        col = [0] * m
        for i, c in _difference_in_u(perm[j] + 1, perm[j + 1] + 1, m).items():
            col[i] = c
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(m)) for i in range(m))


def _matrix_on_h_dual(perm: tuple[int, ...], n: int) -> Matrix:
    """Inverse-transpose of the h-matrix, i.e. M(sigma^{-1}) transposed."""
    minv = _matrix_on_h(_perm_inverse(perm), n)
    m = n - 1
    return tuple(tuple(minv[j][i] for j in range(m)) for i in range(m))


# ---------------------------------------------------------------------------
# polynomials are plain {packed key: coefficient} dicts, multiplied and
# accumulated by the sparse kernel of exact_poly

Poly = dict


def _origin(slot: int, count: int) -> int:
    """count in the given slot of a packed key or origin. Slot r < width
    holds the exponent of variable r, so the key of x^e is the sum of the
    _origin(r, e_r), and multiplying by variable r adds _origin(r, 1). An
    origin also uses slot width, for the index of an A^d element."""
    return count << (_SLOT_BITS * slot)


def _pack(e: tuple[int, ...]) -> int:
    return sum(_origin(r, c) for r, c in enumerate(e))


@cache
def _compositions(total: int, k: int) -> tuple[tuple[int, ...], ...]:
    if k == 0:
        return ((),) if total == 0 else ()
    if k == 1:
        return ((total,),)
    out = []
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, k - 1):
            out.append((first,) + rest)
    return tuple(out)


@cache
def _x_in_u(i: int, n: int) -> Poly:
    """x_i restricted to the sum-zero hyperplane, as a linear form in the u's."""
    out: Poly = {}
    for j in range(n - 1):
        c = Fraction(1 if j + 1 >= i else 0) - Fraction(j + 1, n)
        if c:
            out[_origin(j, 1)] = c
    return out


@cache
def _power_sum_poly(n: int, k: int) -> Poly:
    """n^k * sum_i x_i^k in u-coordinates; integer coefficients, bidegree (k,0)."""
    acc: Poly = {}
    for i in range(1, n + 1):
        term = {0: Fraction(1)}
        for _ in range(k):
            term = _mul_packed(_x_in_u(i, n), term)
        _add_into(acc, term)
    out: Poly = {}
    for e, c in acc.items():
        v = c * n**k
        if v.denominator != 1:
            raise ArithmeticError("power sum failed to clear denominators")
        if v:
            out[e] = int(v)
    return out


class _Engine:
    """Caches the group action and the A^d / J^d cell bases for one n."""

    def __init__(self, n: int):
        self.n = n
        self.m = n - 1
        self.width = 2 * self.m
        self._side: dict = {}  # perm -> {key of a u-only or w-only monomial: its image}
        self._linear: dict = {}  # perm -> images of the variables u_1..u_m, w_1..w_m
        self._umask = _origin(self.m, 1) - 1  # the u slots of a key
        self._cells: dict = {}
        self._abasis: dict = {}  # (d, a, b) -> list[Poly]
        self._jbasis: dict = {}
        self._jorigins: dict = {}  # (d, a, b) -> packed origin of each _jbasis element
        self._entries = 0

    @property
    def group(self) -> list[tuple[tuple[int, ...], int]]:
        if not hasattr(self, "_group"):
            self._group = [
                (p, perm_sign(p)) for p in itertools.permutations(range(self.n))
            ]
        return self._group

    def _linear_images(self, perm) -> list[Poly]:
        """sigma(x_r) for each variable x_r: sigma(u_j), then sigma(w_j)."""
        if perm not in self._linear:
            m = self.m
            forms = []
            matrices = (_matrix_on_h(perm, self.n), _matrix_on_h_dual(perm, self.n))
            for side, mat in enumerate(matrices):
                forms += [
                    {_origin(side * m + i, 1): mat[i][j] for i in range(m) if mat[i][j]}
                    for j in range(m)
                ]
            self._linear[perm] = forms
        return self._linear[perm]

    def _side_image(self, perm, key: int) -> Poly:
        """Image under perm of a monomial in the u's alone or the w's alone."""
        images = self._side.get(perm)
        if images is None:
            images = self._side[perm] = {0: {0: 1}}
        out = images.get(key)
        if out is None:
            r = ((key & -key).bit_length() - 1) // _SLOT_BITS  # its first variable
            out = _mul_packed(
                self._linear_images(perm)[r], self._side_image(perm, key - _origin(r, 1))
            )
            images[key] = out
        return out

    def _monomial_image(self, perm, e: int) -> Poly:
        """sigma(u^eu w^ew) = sigma(u^eu) sigma(w^ew). The factors live in
        disjoint variables, so each term of the product is one sum of a u-key
        and a w-key and no two terms collide."""
        eu = e & self._umask
        ws = self._side_image(perm, e - eu).items()
        return {ku + kw: cu * cw for ku, cu in self._side_image(perm, eu).items() for kw, cw in ws}

    def apply(self, perm, poly: Poly) -> Poly:
        out: Poly = {}
        for e, c in poly.items():
            _add_into(out, self._monomial_image(perm, e), c)
        return out

    def symmetrized(self, poly: Poly, sign: int) -> Poly:
        """Unnormalized projector: sum over sigma of sigma(poly), signed when sign=-1."""
        acc: Poly = {}
        for perm, eps in self.group:
            for e, c in poly.items():
                _add_into(acc, self._monomial_image(perm, e), eps * c if sign < 0 else c)
        return acc

    def cell(self, a: int, b: int) -> tuple[tuple[int, ...], dict]:
        """(the keys of the cell's monomials, the index of each key)."""
        key = (a, b)
        if key not in self._cells:
            ws = [_pack(e) << (_SLOT_BITS * self.m) for e in _compositions(b, self.m)]
            monos = tuple(_pack(e) + w for e in _compositions(a, self.m) for w in ws)
            self._cells[key] = (monos, {e: i for i, e in enumerate(monos)})
        return self._cells[key]

    def to_vec(self, poly: Poly, a: int, b: int) -> dict[int, int]:
        index = self.cell(a, b)[1]
        return {index[e]: c for e, c in poly.items()}

    def _store(self, bucket: dict, key, basis: list[Poly]):
        self._entries += sum(len(p) for p in basis)
        if self._entries > _ENTRY_CAP:
            raise ResourceError(
                f"oracle basis store exceeded {_ENTRY_CAP} entries at cell {key}"
            )
        bucket[key] = basis

    def a_basis(self, d: int, a: int, b: int) -> list[Poly]:
        """A basis of A^d in cell (a, b). For d <= 1, the independent images of
        the cell's monomials under the (anti)symmetrizer, up to the first that
        brings the rank to `_molien_dim`. For d >= 2, the
        independent products A^{d-1}(a', b') A^1(a - a', b - b'); at d = 2 a
        split lexicographically above its complement is skipped, and on the
        self-complementary split only the pairs f_i g_j with i <= j are formed.
        """
        if a < 0 or b < 0:
            return []
        key = (d, a, b)
        if key in self._abasis:
            return self._abasis[key]
        monos, _ = self.cell(a, b)
        span = EchelonSpan(len(monos))
        basis: list[Poly] = []
        if d <= 1:
            sign = -1 if d == 1 else 1
            count = _molien_dim(self.n, d, a, b)
            for e in monos:
                if span.rank == count:
                    break  # every later image lies in the span
                img = self.symmetrized({e: 1}, sign)
                if img and span.add(self.to_vec(img, a, b)):
                    basis.append(img)
        else:
            for ap in range(a + 1):
                for bp in range(b + 1):
                    rest = (a - ap, b - bp)
                    if d == 2 and (ap, bp) > rest:
                        continue  # A^1 A^1 is commutative: the complement came first
                    lower = self.a_basis(d - 1, ap, bp)
                    ones = self.a_basis(1, *rest)
                    for i, f in enumerate(lower):
                        # a self-complementary split has lower == ones, and
                        # f_i g_j = f_j g_i came first for j < i
                        start = i if d == 2 and (ap, bp) == rest else 0
                        for g in ones[start:]:
                            h = _mul_packed(f, g)
                            if h and span.add(self.to_vec(h, a, b)):
                                basis.append(h)
        self._store(self._abasis, key, basis)
        return basis

    def j_basis(self, d: int, a: int, b: int) -> list[Poly]:
        """A basis of J^d in cell (a, b): the independent ones among u_j f for
        f in J^d(a-1, b), then w_j f for f in J^d(a, b-1), then A^d(a, b), in
        that order. Once the rank reaches the cell's monomial count nothing
        further is built, A^d(a, b) included; the basis is the same.

        Every stored element is x^e g for a monomial x^e and the i-th element
        g of an A^d basis, and `_jorigins` keeps (e, i) beside it, packed by
        `_origin`. A shifted candidate whose origin was already offered in
        this cell is that same polynomial again, so it is skipped."""
        if a < 0 or b < 0:
            return []
        key = (d, a, b)
        if key in self._jbasis:
            return self._jbasis[key]
        monos = self.cell(a, b)[0]
        span = EchelonSpan(len(monos))
        basis: list[Poly] = []
        origins: list[int] = []
        offered: set[int] = set()

        def candidates():
            for r in range(self.width):  # u_1..u_m times J^d(a-1, b), then w's
                below = (d, a - 1, b) if r < self.m else (d, a, b - 1)
                lower = self.j_basis(*below)
                if not lower:
                    continue
                step = _origin(r, 1)  # x_r shifts a key and an origin alike
                for f, o in zip(lower, self._jorigins[below]):
                    if o + step not in offered:
                        offered.add(o + step)
                        yield o + step, {k + step: c for k, c in f.items()}
            for i, g in enumerate(self.a_basis(d, a, b)):
                yield _origin(self.width, i), g

        for o, p in candidates():
            if p and span.add(self.to_vec(p, a, b)):
                basis.append(p)
                origins.append(o)
                if span.rank == len(monos):
                    break
        self._store(self._jbasis, key, basis)
        self._jorigins[key] = origins
        return basis


@cache
def _engine(n: int) -> _Engine:
    return _Engine(n)


@cache
def _symmetric_power_traces(rho: Partition, top: int) -> tuple[int, ...]:
    """t_0..t_top, where t_k is the trace of a permutation of cycle type rho
    on S^k h (and on S^k h*): the q^k coefficient of
    (1 - q) / prod_i (1 - q^{rho_i})."""
    c = [1] + [0] * top
    for r in rho:
        for k in range(r, top + 1):
            c[k] += c[k - r]
    return tuple(c[k] - (c[k - 1] if k else 0) for k in range(top + 1))


@cache
def _molien_dim(n: int, d: int, a: int, b: int) -> int:
    """dim A^d(a, b) for d <= 1 by Molien's theorem: the average over S_n
    of eps(sigma)^d t_a(sigma) t_b(sigma)."""
    total = 0
    for rho in enumerate_partitions(n):
        t = _symmetric_power_traces(rho, max(a, b))
        sign = -1 if d and (n - len(rho)) % 2 else 1
        total += sign * (factorial(n) // centralizer_order(rho)) * t[a] * t[b]
    count, rest = divmod(total, factorial(n))
    if rest:
        raise ArithmeticError(f"Molien count of A^{d}({a}, {b}) is not integral")
    return count


# ---------------------------------------------------------------------------
# bigraded dimension tables


class BigradedDims(namedtuple("BigradedDims", "amax bmax total table saturated")):
    """Per-bidegree dimensions over a window, optionally total-degree capped.

    `saturated` is populated only by operations that certify diagonal sums;
    plain dimension tables leave it empty (a fresh dict per table).
    """

    __slots__ = ()

    def __new__(
        cls,
        amax: int,
        bmax: int,
        total: int | None,
        table: dict[tuple[int, int], int],
        saturated: dict[int, bool] | None = None,
    ):
        for cell, value in table.items():
            if value < 0:
                raise ValueError(f"negative dimension {value} at {cell}")
        origin = table.get((0, 0))
        if origin is not None and origin not in (0, 1):
            raise ValueError(f"dimension at (0,0) must be 0 or 1, got {origin}")
        return super().__new__(cls, amax, bmax, total, table, {} if saturated is None else saturated)

    def dim(self, a: int, b: int) -> int:
        return self.table.get((a, b), 0)


def _window_cells(amax: int, bmax: int, total) -> list[tuple[int, int]]:
    return [
        (a, b)
        for a in range(amax + 1)
        for b in range(bmax + 1)
        if total is None or a + b <= total
    ]


def ideal_power_dims(n: int, d: int, window, total=None) -> BigradedDims:
    """Per-bidegree dimensions of J^d, computed by degreewise ideal closure.

    On a mid-run budget trip the raised ResourceError carries the cells
    finished so far in its `partial` attribute.
    """
    _check_bigraded_budget(n, d, window, total)
    eng = _engine(n)
    table: dict[tuple[int, int], int] = {}
    cells = sorted(_window_cells(*window, total), key=lambda c: (c[0] + c[1], c[0]))
    for a, b in cells:
        try:
            table[(a, b)] = len(eng.j_basis(d, a, b))
        except ResourceError as exc:
            raise ResourceError(str(exc), partial=dict(table)) from None
    return BigradedDims(window[0], window[1], total, table)


def _cell_image(eng: _Engine, images: dict, f: Poly, sign: int) -> Poly:
    """eng.symmetrized(f, sign), as the integer combination of the images of
    f's monomials; `images` memoizes those and belongs to one cell."""
    out: Poly = {}
    for e, c in f.items():
        if e not in images:
            images[e] = eng.symmetrized({e: 1}, sign)
        _add_into(out, images[e], c)
    return out


def parity_check(n: int, d: int, window, total=None) -> bool:
    """Does the correct-parity part of J^d equal A^d on every window cell?

    Correct parity means the image of the antisymmetrizer for odd d and of
    the symmetrizer for even d. Each cell symmetrizes each of its monomials
    at most once and builds the image of f in J^d(a, b) from those. For
    d <= 1, A^d(a, b) is the span of all the monomials' images, so its
    dimension is their rank and A^d is not built separately.
    """
    _check_bigraded_budget(n, d, window, total)
    eng = _engine(n)
    sign = -1 if d % 2 else 1
    for a, b in _window_cells(*window, total):
        monos, _ = eng.cell(a, b)
        images: dict = {}  # monomial -> its image, local to this cell
        if d <= 1:
            full = EchelonSpan(len(monos))
            count = _molien_dim(n, d, a, b)
            for e in monos:
                if full.rank == count:
                    break  # every later image lies in the span
                images[e] = eng.symmetrized({e: 1}, sign)
                if images[e]:
                    full.add(eng.to_vec(images[e], a, b))
            target = full.rank
        else:
            target = len(eng.a_basis(d, a, b))
        span = EchelonSpan(len(monos))
        for f in eng.j_basis(d, a, b):
            img = _cell_image(eng, images, f, sign)
            if img:
                span.add(eng.to_vec(img, a, b))
        if span.rank != target:
            return False
    return True


class JbarResult(NamedTuple):
    """Diagonal sums of J^d / C[h]^W_+ J^d with saturation certificates."""

    n: int
    d: int
    quotient: BigradedDims
    sums: dict[int, int]
    saturated: dict[int, bool]

    def saturated_sums(self) -> dict[int, int]:
        return {g: s for g, s in self.sums.items() if self.saturated.get(g)}


def jbar_dims(n: int, d: int, window, total=None) -> JbarResult:
    """Edeg-diagonal dimensions of the quotient of J^d by the invariant ideal.

    Quotient dimensions are intrinsic per cell; the window only selects which
    cells enter each diagonal sum. Certification recomputes the sums over two
    enlarged windows, so the function works on the +4 enlargement throughout.
    Unsaturated diagonals stay in `sums` but are excluded by saturated_sums().
    """
    _check_bigraded_budget(n, d, window, total)
    if n > 3:
        raise ResourceError(
            "jbar certification enlarges the window past the n = 4 budget; "
            "bound is n <= 3"
        )
    eng = _engine(n)
    amax, bmax = window
    big_total = None if total is None else total + 4
    qdim: dict[tuple[int, int], int] = {}
    for a, b in _window_cells(amax + 4, bmax + 4, big_total):
        jdim = len(eng.j_basis(d, a, b))
        if jdim == 0:
            qdim[(a, b)] = 0
            continue
        monos, _ = eng.cell(a, b)
        span = EchelonSpan(len(monos))
        for k in range(2, n + 1):
            pk = _power_sum_poly(n, k)
            for f in eng.j_basis(d, a - k, b):
                span.add(eng.to_vec(_mul_packed(pk, f), a, b))
        qdim[(a, b)] = jdim - span.rank

    def window_sums(extra: int) -> dict[int, int]:
        t = None if total is None else total + extra
        sums: dict[int, int] = {}
        for a, b in _window_cells(amax + extra, bmax + extra, t):
            sums[a - b] = sums.get(a - b, 0) + qdim[(a, b)]
        return sums

    base, plus2, plus4 = window_sums(0), window_sums(2), window_sums(4)
    diagonals = sorted(base, reverse=True)
    sums = {g: base[g] for g in diagonals}
    saturated = {g: base[g] == plus2.get(g, 0) == plus4.get(g, 0) for g in diagonals}
    table = {c: qdim[c] for c in _window_cells(amax, bmax, total)}
    quotient = BigradedDims(amax, bmax, total, table, dict(saturated))
    return JbarResult(n, d, quotient, sums, saturated)


# ---------------------------------------------------------------------------
# single-graded coinvariant algebra on the h side


def coinvariant_multiplicities(n: int) -> dict[int, dict[Partition, int]]:
    """Graded multiplicities of the irreducibles in C[h]/(p_2,...,p_n).

    Computed from per-degree traces of conjugacy-class representatives on the
    quotient, paired against the character table. Degrees 0..n(n-1)/2; zero
    multiplicities are omitted.
    """
    _check_linear_range(n)
    eng = _engine(n)
    top = n * (n - 1) // 2
    table = character_table(n)
    reps = {rho: class_representative(rho, n) for rho in table.partitions}
    out: dict[int, dict[Partition, int]] = {}
    for degree in range(top + 1):
        monos = eng.cell(degree, 0)[0]
        echelon = EchelonSpan(len(monos))
        for k in range(2, n + 1):
            pk = _power_sum_poly(n, k)
            for e in eng.cell(degree - k, 0)[0] if degree >= k else ():
                echelon.add(eng.to_vec({e + key: c for key, c in pk.items()}, degree, 0))
        standard = [i for i in range(len(monos)) if i not in echelon.rows]
        traces: dict[Partition, Fraction] = {}
        for rho, perm in reps.items():
            tr = Fraction(0)
            for i in standard:
                img = eng.apply(perm, {monos[i]: 1})
                reduced, scale = echelon.normal_form(eng.to_vec(img, degree, 0))
                tr += Fraction(reduced.get(i, 0), scale)
            traces[rho] = tr
        row: dict[Partition, int] = {}
        for mu in enumerate_partitions(n):
            total = Fraction(0)
            for rho in table.partitions:
                total += Fraction(table.chi(mu, rho) * traces[rho], table.centralizers[rho])
            if total.denominator != 1 or total < 0:
                raise ArithmeticError(
                    f"multiplicity of {mu} in degree {degree} is not integral: {total}"
                )
            if total:
                row[mu] = int(total)
        out[degree] = row
    return out
