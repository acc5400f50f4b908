"""Kostka-Macdonald coefficients over (q,t) and the torus fixed-point data:
the factors of Omega(mu) and the fiber series P_mu(s,t) read off K.

The Kostka-Macdonald matrix is built from the Haglund-Haiman-Loehr
combinatorial formula for the modified Macdonald polynomials, in integer
arithmetic only. The fillings are counted by a transfer over the rows, and
only one shape of each conjugate pair is counted: the other column is read
off through H~_{mu'}(X;q,t) = H~_mu(X;t,q). The tests certify K against
Macdonald's definition of the integral forms that it expands in the
plethystic Schur basis s_lam[X(1-t)] (Macdonald, VI (8.11)): triangular in
dominance order, leading coefficient c_mu (integral_form_scalar), integral,
and orthogonal under
<p_lam, p_mu> = delta * z_lam * prod_i (1-q^{lam_i})/(1-t^{lam_i}).
They also check K(0,t) against the charge of semistandard tableaux, and
both columns of every conjugate pair against the fillings enumerated one
by one.

Argument-order note. The fixed-point series P_mu(s,t) evaluates the
Kostka-Macdonald entries at a point written (t, s^{-1}), and reads it left to
right as (q, t): q := t and t := s^{-1}. That is the unique reading under
which the d=0 ideal series collapses to 1/((1-s)(1-t))^{n-1} and the windowed
expansions match the brute-force oracle. The other reading (q := s^{-1},
t := t) is not an option here; the argument-order check of the
omega-specialization suite builds it from P_mu and shows that it fails the
collapse.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import accumulate, product
from typing import NamedTuple

from .errors import ResourceError
from .exact_poly import LaurentPoly
from .partition_core import Partition, cells, cell_data, check_partition, enumerate_partitions, nstat, num_syt
from .partition_core import memo_n, memo_partition, transpose
from .sn_rep import fake_degree

QT = ("q", "t")
ST = ("s", "t")
# the whole matrix by row transfer and conjugate symmetry, cold, in process
# on 2 cores: 0.06 s at n = 7, 0.3 s at n = 8, 1.3 s at n = 9; its Tier-1
# certificate by the definition takes about 3 s more at n = 8 and 14 s at
# n = 9; the acceptance battery requires >= 5
MAX_KOSTKA_N = 8


# ---------------------------------------------------------------------------
# Kostka numbers by horizontal strips (integers, no (q,t) content)
# ---------------------------------------------------------------------------


@cache
def _ssyt_count(lam: Partition, content: tuple[int, ...]) -> int:
    """The number of semistandard tableaux of shape lam and the given content.

    The cells holding the largest value form a horizontal strip lam/kappa of
    size content[-1]: lam_{i+1} <= kappa_i <= lam_i, so no two of them share
    a column. Peeling it off leaves a tableau of shape kappa and content
    content[:-1].
    """
    if not content:
        return int(not lam)
    rows = zip(lam[1:] + (0,), lam)
    kappa_size = sum(lam) - content[-1]
    return sum(
        _ssyt_count(tuple(k for k in kappa if k), content[:-1])
        for kappa in product(*(range(low, high + 1) for low, high in rows))
        if sum(kappa) == kappa_size
    )


@memo_n
def kostka_numbers(n: int) -> dict[Partition, dict[Partition, int]]:
    """s_lam = sum_nu kostka_numbers(n)[lam][nu] m_nu.

    K_{lam nu} counts the semistandard tableaux of shape lam and content nu
    (Macdonald, I.5), by peeling horizontal strips in _ssyt_count. It is
    unitriangular in dominance order: K_{lam lam} = 1, and K_{lam nu} = 0
    unless nu <= lam.
    """
    parts = enumerate_partitions(n)
    return {lam: {nu: _ssyt_count(lam, nu) for nu in parts} for lam in parts}


def integral_form_scalar(mu) -> LaurentPoly:
    """c_mu = prod over cells (1 - q^arm t^(leg+1))."""
    mu = check_partition(mu)
    one = LaurentPoly.one(QT)
    c = one
    for i, jcol in cells(mu):
        cell = cell_data(mu, i, jcol)
        c = c * (one - LaurentPoly.monomial(QT, (cell.arm, cell.leg + 1)))
    return c


# ---------------------------------------------------------------------------
# Kostka-Macdonald matrix
# ---------------------------------------------------------------------------


class KostkaMacdonaldMatrix(NamedTuple):
    n: int
    partitions: tuple[Partition, ...]
    entries: dict  # (lam, mu) -> LaurentPoly in (q, t)

    def entry(self, lam, mu) -> LaurentPoly:
        return self.entries[(check_partition(lam), check_partition(mu))]


def _filling_counts(mu: Partition):
    """The Haglund-Haiman-Loehr fillings of mu counted by (inv, maj), as a
    function of the content; every content shares one memo.

    The statistics live on the French diagram, read in reading order (rows
    top to bottom, each left to right). A descent is a cell whose entry
    exceeds the entry directly below it; maj sums leg+1 over the descents.
    Two cells attack when they share a row, or sit in adjacent rows with the
    upper cell strictly right of the lower one; inv counts the attacking
    pairs whose earlier entry in reading order is larger, minus the arms of
    the descents.

    Every term of inv and maj lies within one row or between two adjacent
    rows, so the count is a transfer over the rows from the top down. The
    memo sits at row boundaries, keyed on the row index, the row just filled
    and the remaining multiplicities. That row is written relative to the
    remaining values: an entry becomes the number of distinct remaining
    values below it, which decides its every strict comparison with the row
    under it. The values themselves leave the key, so contents that agree on
    what is left share its entries. The counts returned are shared and must
    not be mutated.
    """
    rows = mu[::-1]  # top row first
    depth = len(mu)
    # (arm, leg+1) of each cell of the row above row p
    above = [()] + [
        tuple((cell.arm, cell.leg + 1) for cell in (cell_data(mu, depth - p, j) for j in range(rows[p - 1])))
        for p in range(1, depth)
    ]
    memo: dict = {}

    def fill(p: int, up: tuple[int, ...], mult: tuple[int, ...]) -> dict:
        """Fillings of rows p, p+1, ... with the multiplicities mult, under
        the row up, which is written relative to mult."""
        if p == depth:
            return {(0, 0): 1}
        key = (p, up, mult)
        if key in memo:
            return memo[key]
        length, width = rows[p], len(mult)
        # owed[j][x]: the (inv, maj) that an x in column j owes the row up,
        # through the entries of up right of column j that exceed x and a
        # descent onto x
        owed = []
        for j in range(length):
            over = [sum(u > x for u in up[j + 1 :]) for x in range(width)]
            if j < len(up):
                arm, leg1 = above[p][j]
                over = [(k - arm, leg1) if up[j] > x else (k, 0) for x, k in enumerate(over)]
            else:
                over = [(k, 0) for k in over]
            owed.append(over)
        left = list(mult)
        row: list[int] = []
        heads: dict = {}  # (row relative to what is left, what is left) -> {(inv, maj): count}

        def place(j: int, inv: int, maj: int) -> None:
            if j == length:
                rank = list(accumulate((m > 0 for m in left), initial=0))
                head = heads.setdefault((tuple(rank[x] for x in row), tuple(m for m in left if m)), {})
                head[inv, maj] = head.get((inv, maj), 0) + 1
                return
            for x, (dinv, dmaj) in enumerate(owed[j]):
                if not left[x]:
                    continue
                for y in row:
                    dinv += y > x
                left[x] -= 1
                row.append(x)
                place(j + 1, inv + dinv, maj + dmaj)
                row.pop()
                left[x] += 1

        place(0, 0, 0)
        out: dict = {}
        for (rel, rest), head in heads.items():
            tail = fill(p + 1, rel, rest)
            for (inv, maj), c in head.items():
                for (inv2, maj2), c2 in tail.items():
                    e = (inv + inv2, maj + maj2)
                    out[e] = out.get(e, 0) + c * c2
        memo[key] = out
        return out

    return lambda content: fill(0, (), content)


def _hhl_columns(mu: Partition) -> dict[Partition, dict[Partition, LaurentPoly]]:
    """The columns K_{. , mu} and K_{. , mu'} from the Haglund-Haiman-Loehr
    formula, in integers. Only the fillings of mu are counted.

    The coefficient of m_lam in the modified Macdonald polynomial
    H~_mu = sum_sigma q^inv t^maj x^sigma counts the fillings with content
    lam (_filling_counts). Schur coefficients K~_{lam mu} are peeled off
    largest-first with the unitriangular Kostka numbers, and
    K_{lam mu}(q,t) = t^{n(mu)} K~_{lam mu}(q, 1/t). The column of mu' is
    read off through K~_{lam mu'}(q,t) = K~_{lam mu}(t,q) (see
    kostka_macdonald); the column of mu itself owes nothing to the symmetry.
    """
    n = sum(mu)
    kostka = kostka_numbers(n)
    counts = _filling_counts(mu)
    modified: dict[Partition, Counter] = {}
    for lam in enumerate_partitions(n):  # largest first, which refines dominance
        coeff = Counter(counts(lam))
        for kappa, larger in modified.items():
            k = kostka[kappa][lam]
            if k:
                for e, c in larger.items():
                    coeff[e] -= k * c
        modified[lam] = coeff
    columns = {}
    # a self-conjugate mu keeps only its own reading, the later key
    for shape, swap in {transpose(mu): True, mu: False}.items():
        shift = nstat(shape)
        columns[shape] = {
            lam: LaurentPoly(
                QT, {((maj, shift - inv) if swap else (inv, shift - maj)): c for (inv, maj), c in coeff.items()}
            )
            for lam, coeff in modified.items()
        }
    return columns


@memo_n
def kostka_macdonald(n: int) -> KostkaMacdonaldMatrix:
    """The full K_{lam mu}(q,t) matrix, built once per process and kept in memory.

    Columns come from the combinatorial formula of Haglund, Haiman and
    Loehr, "A combinatorial formula for Macdonald polynomials", J. Amer.
    Math. Soc. 18 (2005), through the modified Kostka-Macdonald
    coefficients; see _hhl_columns. Only one shape mu of each conjugate
    pair is counted: its conjugate's column is read off through
    H~_{mu'}(X;q,t) = H~_mu(X;t,q), that is K~_{lam mu'}(q,t) =
    K~_{lam mu}(t,q) (Haglund, "The q,t-Catalan numbers and the space of
    diagonal harmonics", AMS University Lecture Series 41 (2008), Ch. 2).
    H~_mu is fixed by H~_mu[X(1-q)] lying in the span of the s_lam with
    lam >= mu, H~_mu[X(1-t)] in that of the s_lam with lam >= mu', and
    <H~_mu, s_(n)> = 1; exchanging q with t and mu with mu' exchanges the
    two spans, whence the symmetry.
    """
    if n > MAX_KOSTKA_N:
        raise ResourceError(f"kostka bound is n <= {MAX_KOSTKA_N}, got {n}")
    parts = enumerate_partitions(n)
    columns = {}
    for mu in parts:
        if mu <= transpose(mu):  # the taller of the pair when their heights differ
            columns.update(_hhl_columns(mu))
    entries = {(lam, mu): columns[mu][lam] for lam in parts for mu in parts}
    return KostkaMacdonaldMatrix(n, parts, entries)


# ---------------------------------------------------------------------------
# Fixed-point data
# ---------------------------------------------------------------------------


@memo_partition
def procesi_fiber(mu: Partition) -> LaurentPoly:
    """The Laurent polynomial P_mu(s,t) = sum_lam s^{n(mu)} K_{lam mu}(q:=t, t:=s^{-1}) dim(lam),
    in the one reading of the module docstring; shared, not to be mutated."""
    n = sum(mu)
    matrix = kostka_macdonald(n)
    acc = LaurentPoly.zero(ST)
    for lam in matrix.partitions:  # no K_{lam mu} is zero: K_{lam mu}(1, 1) = dim(lam)
        acc = acc + matrix.entries[(lam, mu)].substitute_monomials(ST, {"q": (0, 1), "t": (-1, 0)}) * num_syt(lam)
    return acc.shift((nstat(mu), 0))


@memo_partition
def omega_factors(mu: Partition) -> tuple[LaurentPoly, ...]:
    """The 2n binomials (1-s^{1+l}t^{-a})(1-s^{-l}t^{1+a}) over the cells of
    mu, shared between callers."""
    one = LaurentPoly.one(ST)
    factors = []
    for i, j in cells(mu):
        cell = cell_data(mu, i, j)
        factors.append(one - LaurentPoly.monomial(ST, (1 + cell.leg, -cell.arm)))
        factors.append(one - LaurentPoly.monomial(ST, (-cell.leg, 1 + cell.arm)))
    return tuple(factors)


# ---------------------------------------------------------------------------
# Column-sum fake-degree identity (two readings)
# ---------------------------------------------------------------------------


def kostka_fake_degree_identity(n: int) -> dict[str, dict[Partition, bool]]:
    """Per-mu truth of sum_lam v^{n(mu)} K_{lam mu}(1/v, 1/v) f_*(1/v) f_lam(1)
    = sum_lam f_lam(1/v) f_mu(1) f_lam(1) in both readings of f_*: f_mu under
    "printed" and f_lam under "lam", from one pass over K. The suites
    evaluate both; exactly one is expected to hold.
    """
    matrix = kostka_macdonald(n)
    v = ("v",)
    fk = {lam: fake_degree(lam).invert_variables() for lam in matrix.partitions}
    rhs_sum = sum((fk[lam] * num_syt(lam) for lam in matrix.partitions), LaurentPoly.zero(v))
    results = {"printed": {}, "lam": {}}
    for mu in matrix.partitions:
        # sum_lam K_{lam mu}(1/v, 1/v) f_lam(1), alone and times f_lam(1/v)
        column = lam_sum = LaurentPoly.zero(v)
        for lam in matrix.partitions:
            kv = matrix.entries[(lam, mu)].substitute_monomials(v, {"q": (-1,), "t": (-1,)}) * num_syt(lam)
            column = column + kv
            lam_sum = lam_sum + kv * fk[lam]
        rhs = rhs_sum * num_syt(mu)
        results["printed"][mu] = (column * fk[mu]).shift((nstat(mu),)) == rhs
        results["lam"][mu] = lam_sum.shift((nstat(mu),)) == rhs
    return results
