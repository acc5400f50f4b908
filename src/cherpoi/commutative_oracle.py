"""Brute-force linear algebra over C[h + h*] for the diagonal S_n action.

Everything here is computed from first principles: monomials, permutation
substitutions, and exact row reduction. No closed formula from the series
modules is consulted, so these tables can sit on the other side of an
acceptance check. Every polynomial here has integer coefficients: `_x_in_u`
writes n x_i, so `_power_sum_poly` is n^k p_k. The cell bases are eliminated
over Z by `EchelonSpan`, whose ranks are exactly the ranks over Q.

Conventions. h is the (n-1)-dimensional reflection representation realized
inside C^n as the span of u_i = x_i - x_{i+1}; the dual copy h* carries the
dual basis w_1..w_{n-1}. C[h + h*] is the polynomial ring in u_1..u_{n-1},
w_1..w_{n-1} with deg u_i = (1,0) and deg w_i = (0,1). A permutation acts by
sigma(u_j) = x_{sigma(j)} - x_{sigma(j+1)} rewritten in the u's, and on the
w's by sigma(w_j) = y_{sigma(1)} + ... + y_{sigma(j)}, the partial sums of the
permuted y_s = w_s - w_{s-1} (w_0 = w_n = 0), so that the pairing of the u's
and the w's is invariant. Edeg of the cell (a,b) is a - b.

A^1 is the space of alternating polynomials, A^0 the invariants, and
A^d = (A^1)^d for d >= 2; J^d = C[h + h*] A^d. jbar refers to the quotient
J^d / C[h]^W_+ J^d, whose diagonal sums are certified by the saturation
protocol: a diagonal is trusted only when every cell of the +4 ring on the
diagonal is zero. The +4 ring is the cells of the window enlarged by 4 on
every bound (total degree cap included) that lie outside the window.

Polynomials. Every polynomial of the engine is a {key: coefficient} dict
whose key packs a monomial into one int: the exponent of variable r (u_1..u_m,
then w_1..w_m) sits in the _SLOT_BITS-bit slot r, so the key of x^e is
sum_r _origin(r, e_r). No exponent reaches 2**_SLOT_BITS, so a product of two
monomials adds their keys and multiplying by x_r adds _origin(r, 1). Products
go through exact_poly's _mul_packed.

Cell spans. Each kind of span is written once: `_image_span` spans the
(anti)symmetrized monomials of a cell (A^0 and A^1), `_split_products` offers
the products over the splits of a cell (the J^d generator stage and A^d for
d >= 2), `_invariant_multiples` spans p_2..p_n times a lower module (jbar_dims
and coinvariant_multiplicities), and `j_basis` closes a cell under shifts.

Cell bases. Seven rules skip work that cannot change a rank or a verdict;
no stored basis changes by them:

- `j_basis` offers its candidates lazily and stops once the cell is full,
  so a J^d cell spanned by its neighbours' multiples (every J^0 cell but
  (0,0)) never builds its generator stage;
- `j_basis` records the origin (x^e, g) of each stored element x^e g, g the
  i-th candidate of a generator stage, and skips a shifted candidate whose
  origin was already offered in the cell: u_1 (u_2 g) and u_2 (u_1 g) are
  one polynomial;
- for d >= 2 the generator stage of J^d(a, b) offers the `_split_products`
  f g, f in G^{d-1}(c) and g in G^1((a, b) - c), over the splits c, not
  A^d(a, b); G^e(c) is what the generator stage of J^e(c) kept. Each J^e
  cell is spanned by its shifts and G^e, so the G^e of all cells generate
  J^e, and J^d = J^{d-1} J^1 is generated by the products of the two
  ideals' generators. A product from a lower cell times a monomial lies in
  a shift, so the shifts and this cell's products span J^d(a, b). No J^d
  operation builds an A^d basis for d >= 2, and the stored bases are those
  of the A^d route, which the tests certify;
- at d = 2, `_split_products` offers each unordered product of two
  degree-one factors once, since multiplication is commutative;
- `parity_check` symmetrizes each monomial of a cell once and combines those
  images; they are held only while that cell is checked. For d <= 1 the
  rank of all of them is dim A^d(a,b), so it builds no A^d basis;
- `_image_span`, behind `a_basis(d <= 1)` and `parity_check(d <= 1)`, stops
  once its rank reaches dim A^d(a,b), which `_molien_dim` counts by Molien's
  theorem: every later image lies in the span already built. A rank that
  falls short of the count runs through every monomial, so the count only
  ever ends a loop early;
- `jbar_dims` spans the invariant multiples of a cell only when a sum or a
  verdict reads its quotient dimension: every cell of the window, then the
  +4 ring of each of the window's diagonals in ascending total degree, up to
  the first nonzero cell. A quotient dimension is never negative, since the
  multiples lie in J^d(a, b), and the +2 window lies between the window and
  the +4 one, so this verdict is the one that compares the diagonal's sums
  over the window and its +2 and +4 enlargements.

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
from functools import cache, partial
from typing import NamedTuple

from ._linalg import EchelonSpan
from .errors import ResourceError
from .exact_poly import _add_into, _mul_packed
from .partition_core import Partition, check_ints, check_partition
from .sn_rep import character_table, class_average

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

def _check_linear_range(n: int):
    check_ints("n", n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > MAX_ACTION_N:
        raise ResourceError(f"oracle bound is n <= {MAX_ACTION_N}, got {n}")


def _check_bigraded_input(n: int, d: int, window, total):
    """Bad input to a bigraded operation, as TypeError or ValueError; the
    oracle suites run it on their whole grid before any check."""
    check_ints("n and d", n, d)
    check_ints("window bounds and total-degree cap", *window, *([] if total is None else [total]))
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if d < 0:
        raise ValueError(f"need d >= 0, got {d}")
    amax, bmax = window
    if amax < 0 or bmax < 0:
        raise ValueError(f"window bounds must be nonnegative: {window}")
    if total is not None and total < 0:
        raise ValueError(f"total-degree cap must be nonnegative, got {total}")


def _check_bigraded_budget(n: int, d: int, window, total):
    _check_bigraded_input(n, d, window, total)
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
    if max(window) > MAX_WINDOW_BOUND:
        raise ResourceError(f"window bound cap is {MAX_WINDOW_BOUND}, got {window}")


# ---------------------------------------------------------------------------
# permutations


def perm_sign(perm: tuple[int, ...]) -> int:
    """(-1) to the number of inversions of perm."""
    inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1 :])
    return -1 if inversions % 2 else 1


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


def _key(e: tuple[int, ...]) -> int:
    """The key of x^e, slot r holding e_r with slot 0 least significant;
    unrelated to exact_poly's LaurentPoly keys."""
    return sum(_origin(r, c) for r, c in enumerate(e))


@cache
def _compositions(total: int, k: int) -> tuple[tuple[int, ...], ...]:
    if k == 1:
        return ((total,),)
    out = []
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, k - 1):
            out.append((first,) + rest)
    return tuple(out)


@cache
def _x_in_u(i: int, n: int) -> Poly:
    """n x_i restricted to the sum-zero hyperplane, as a linear form in the
    u's: x_i = sum_j ([j >= i] - j/n) u_j."""
    return {_origin(j - 1, 1): c for j in range(1, n) if (c := n * (j >= i) - j)}


@cache
def _power_sum_poly(n: int, k: int) -> Poly:
    """n^k * sum_i x_i^k in u-coordinates, bidegree (k,0)."""
    acc: Poly = {}
    for i in range(1, n + 1):
        term = {0: 1}
        for _ in range(k):
            term = _mul_packed(_x_in_u(i, n), term)
        _add_into(acc, term)
    return acc


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
        self._shift_bits = _origin(self.width, 1) - 1  # the monomial slots of an origin
        self._entries = 0

    @property
    def group(self) -> list[tuple[tuple[int, ...], int]]:
        if not hasattr(self, "_group"):
            self._group = [
                (p, perm_sign(p)) for p in itertools.permutations(range(self.n))
            ]
        return self._group

    def _linear_images(self, perm) -> list[Poly]:
        """sigma(x_r) for each variable x_r. First sigma(u_j) =
        x_{sigma(j)} - x_{sigma(j+1)} in the u's, where x_a - x_b = u_a + ...
        + u_{b-1} for a < b; then sigma(w_j) = y_{sigma(1)} + ... +
        y_{sigma(j)} in the w's, where y_s = w_s - w_{s-1} and w_0 = w_n = 0."""
        if perm not in self._linear:
            m = self.m
            forms = [
                {_origin(i, 1): 1 if p < q else -1 for i in range(min(p, q), max(p, q))}
                for p, q in zip(perm, perm[1:])
            ]
            w = [0] * (self.n + 1)  # the coefficients of w_0..w_n
            for s in perm[:m]:
                w[s + 1] += 1  # y_{s+1}, perm being 0-based
                w[s] -= 1
                forms.append({_origin(m + i - 1, 1): w[i] for i in range(1, self.n) if w[i]})
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
            ws = [_key(e) << (_SLOT_BITS * self.m) for e in _compositions(b, self.m)]
            monos = tuple(_key(e) + w for e in _compositions(a, self.m) for w in ws)
            self._cells[key] = (monos, {e: i for i, e in enumerate(monos)})
        return self._cells[key]

    def to_vec(self, poly: Poly, a: int, b: int) -> dict[int, int]:
        """poly's coordinates in cell (a, b): a fresh dict of nonzero ints,
        the vector that `EchelonSpan.add` and `normal_form` consume. A
        monomial outside the cell is a KeyError."""
        index = self.cell(a, b)[1]
        return {index[e]: c for e, c in poly.items()}

    def _store(self, bucket: dict, key, basis: list[Poly]):
        self._entries += sum(len(p) for p in basis)
        if self._entries > _ENTRY_CAP:
            raise ResourceError(
                f"oracle basis store exceeded {_ENTRY_CAP} entries at cell {key}"
            )
        bucket[key] = basis

    def _image_span(self, d: int, a: int, b: int, images: dict) -> list[Poly]:
        """The independent images of the cell's monomials under the
        symmetrizer (d = 0) or the antisymmetrizer (d = 1), up to the first
        that brings the rank to `_molien_dim`; every image made is recorded in
        `images`. A rank that falls short of the count runs through every
        monomial."""
        monos = self.cell(a, b)[0]
        span = EchelonSpan()
        count = _molien_dim(self.n, d, a, b)
        sign = -1 if d == 1 else 1
        basis: list[Poly] = []
        for e in monos:
            if span.rank == count:
                break  # every later image lies in the span
            img = images[e] = self.symmetrized({e: 1}, sign)
            if img and span.add(self.to_vec(img, a, b)):
                basis.append(img)
        return basis

    def _split_products(self, d: int, a: int, b: int, factor):
        """For d >= 2, the products f g with f in factor(d - 1, a', b') and g
        in factor(1, a - a', b - b'), split by split. Multiplication is
        commutative, so at d = 2 a split lexicographically above its
        complement is skipped, and on the self-complementary split only
        f_i g_j with i <= j is formed. Lazy, so a cell that fills first builds
        no more."""
        for ap in range(a + 1):
            for bp in range(b + 1):
                rest = (a - ap, b - bp)
                if d == 2 and (ap, bp) > rest:
                    continue  # the complement came first
                lower = factor(d - 1, ap, bp)
                ones = factor(1, *rest) if lower else ()
                for i, f in enumerate(lower):
                    # a self-complementary split has lower == ones, and
                    # f_i g_j = f_j g_i came first for j < i
                    start = i if d == 2 and (ap, bp) == rest else 0
                    for g in ones[start:]:
                        yield _mul_packed(f, g)

    def a_basis(self, d: int, a: int, b: int) -> list[Poly]:
        """A basis of A^d in cell (a, b): `_image_span` for d <= 1; for
        d >= 2, which only `parity_check` reads, as the dimension of
        A^d(a, b), the independent ones among `_split_products` of A^{d-1}
        and A^1."""
        key = (d, a, b)
        if key in self._abasis:
            return self._abasis[key]
        if d <= 1:
            basis = self._image_span(d, a, b, {})
        else:
            span = EchelonSpan()
            basis = [
                h
                for h in self._split_products(d, a, b, self.a_basis)
                if h and span.add(self.to_vec(h, a, b))
            ]
        self._store(self._abasis, key, basis)
        return basis

    def _invariant_multiples(self, a: int, b: int, lower) -> EchelonSpan:
        """(C[h]^W_+ M)(a, b) for the module M whose cell (c, b) `lower(c, b)`
        lists: the span of p_k f, 2 <= k <= n, f in lower(a - k, b), with
        p_k = `_power_sum_poly(n, k)`."""
        span = EchelonSpan()
        for k in range(2, self.n + 1):
            pk = _power_sum_poly(self.n, k)
            for f in lower(a - k, b):
                span.add(self.to_vec(_mul_packed(pk, f), a, b))
        return span

    def _generators(self, d: int, a: int, b: int) -> list[Poly]:
        """G^d(a, b): the elements that `j_basis(d, a, b)` took from its
        generator stage, i.e. those whose origin has no shift bits."""
        basis = self.j_basis(d, a, b)
        shifted = self._shift_bits
        return [f for f, o in zip(basis, self._jorigins[(d, a, b)]) if not o & shifted]

    def j_basis(self, d: int, a: int, b: int) -> list[Poly]:
        """A basis of J^d in cell (a, b): the independent ones among u_j f for
        f in J^d(a-1, b), then w_j f for f in J^d(a, b-1), then the
        generator stage, in that order. The generator stage offers A^d(a, b)
        for d <= 1 and the `_split_products` of G^{d-1} and G^1 for d >= 2.
        Once the rank reaches the cell's monomial count nothing further is
        built.

        Every stored element is x^e g for a monomial x^e and the i-th element
        g offered by a generator stage, and `_jorigins` keeps (e, i) beside
        it, packed by `_origin`. A shifted candidate whose origin was already
        offered in this cell is that same polynomial again, so it is skipped."""
        if a < 0 or b < 0:
            return []
        key = (d, a, b)
        if key in self._jbasis:
            return self._jbasis[key]
        monos = self.cell(a, b)[0]
        span = EchelonSpan()
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
            stage = (
                self.a_basis(d, a, b)
                if d <= 1
                else self._split_products(d, a, b, self._generators)
            )
            for i, g in enumerate(stage):
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

    def trace(rho):
        t = _symmetric_power_traces(rho, max(a, b))
        return (-1 if d and (n - len(rho)) % 2 else 1) * t[a] * t[b]

    return class_average(n, trace, f"the Molien count of A^{d}({a}, {b})")


# ---------------------------------------------------------------------------
# bigraded dimension tables


class BigradedDims(namedtuple("BigradedDims", "amax bmax total table")):
    """Per-bidegree dimensions over a window, optionally total-degree capped."""

    __slots__ = ()

    def __new__(
        cls,
        amax: int,
        bmax: int,
        total: int | None,
        table: dict[tuple[int, int], int],
    ):
        for cell, value in table.items():
            if value < 0:
                raise ValueError(f"negative dimension {value} at {cell}")
        origin = table.get((0, 0))
        if origin is not None and origin not in (0, 1):
            raise ValueError(f"dimension at (0,0) must be 0 or 1, got {origin}")
        return super().__new__(cls, amax, bmax, total, table)

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
        images: dict = {}  # monomial -> its image, local to this cell
        if d <= 1:
            target = len(eng._image_span(d, a, b, images))
        else:
            target = len(eng.a_basis(d, a, b))
        span = EchelonSpan()
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
    cells enter each diagonal sum. A cell's quotient dimension is computed
    only when a sum or a verdict reads it: every base-window cell, then the
    +4 ring of each base diagonal in ascending total degree, up to its first
    nonzero cell. Unsaturated diagonals stay in `sums` but are excluded by
    saturated_sums().
    """
    _check_bigraded_budget(n, d, window, total)
    if n > 3:
        raise ResourceError(
            "jbar certification enlarges the window past the n = 4 budget; "
            "bound is n <= 3"
        )
    eng = _engine(n)
    amax, bmax = window
    lower = partial(eng.j_basis, d)
    qdims: dict[tuple[int, int], int] = {}

    def qdim(cell: tuple[int, int]) -> int:
        if cell not in qdims:
            jdim = len(lower(*cell))
            qdims[cell] = jdim and jdim - eng._invariant_multiples(*cell, lower).rank
        return qdims[cell]

    table = {c: qdim(c) for c in _window_cells(amax, bmax, total)}
    sums: dict[int, int] = {}
    for (a, b), value in table.items():
        sums[a - b] = sums.get(a - b, 0) + value
    sums = dict(sorted(sums.items(), reverse=True))
    ring = _window_cells(amax + 4, bmax + 4, None if total is None else total + 4)
    ring = sorted((c for c in ring if c not in table), key=sum)
    saturated = {g: all(qdim(c) == 0 for c in ring if c[0] - c[1] == g) for g in sums}
    quotient = BigradedDims(amax, bmax, total, table)
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
        echelon = eng._invariant_multiples(
            degree, 0, lambda a, b: [{e: 1} for e in eng.cell(a, b)[0]] if a >= 0 else ()
        )
        standard = [i for i in range(len(monos)) if i not in echelon.rows]
        traces: dict[Partition, Fraction] = {}
        for rho, perm in reps.items():
            tr = Fraction(0)
            for i in standard:
                img = eng._monomial_image(perm, monos[i])
                reduced, scale = echelon.normal_form(eng.to_vec(img, degree, 0))
                tr += Fraction(reduced.get(i, 0), scale)
            traces[rho] = tr
        row: dict[Partition, int] = {}
        for mu in table.partitions:
            what = f"the multiplicity of {mu} in degree {degree}"
            count = class_average(n, lambda rho: table.chi(mu, rho) * traces[rho], what)
            if count:
                row[mu] = count
        out[degree] = row
    return out
