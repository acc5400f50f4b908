"""Kostka-Macdonald coefficients over (q,t) and the torus fixed-point data:
the factors of Omega(mu) and the fiber series P_mu(s,t) read off K.

The Kostka-Macdonald matrix is built from the Haglund-Haiman-Loehr
combinatorial formula for the modified Macdonald polynomials, in integer
arithmetic only. The tests certify K against Macdonald's definition of the
integral forms that it expands in the plethystic Schur basis s_lam[X(1-t)]
(Macdonald, VI (8.11)): triangular in dominance order, leading coefficient
c_mu (integral_form_scalar), integral, and orthogonal under
<p_lam, p_mu> = delta * z_lam * prod_i (1-q^{lam_i})/(1-t^{lam_i}).

Argument-order note. The fixed-point series P_mu(s,t) evaluates the
Kostka-Macdonald entries at a point written (t, s^{-1}); two readings of the
slot-filling are possible. The package default ("positional") reads the pair
left to right as (q, t), so q := t and t := s^{-1}. That is the unique
reading under which the d=0 ideal series collapses to 1/((1-s)(1-t))^{n-1}
and the windowed expansions match the brute-force oracle; the other reading
("swapped", q := s^{-1} and t := t) is kept available and is shown to fail
those checks in the test suite.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import product
from typing import NamedTuple

from .errors import ResourceError
from .exact_poly import LaurentPoly
from .partition_core import Partition, cells, cell_data, check_partition, enumerate_partitions, nstat, num_syt
from .partition_core import memo, memo_n, memo_partition
from .sn_rep import fake_degree

QT = ("q", "t")
ST = ("s", "t")
# every HHL column, cold, on 2 cores: 0.68 s at n = 7, 6.9 s at n = 8; the
# acceptance battery requires >= 5
MAX_KOSTKA_N = 7


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


def _hhl_weights(mu: Partition, content: Partition) -> Counter:
    """Count the fillings of mu with the given content by (inv, maj).

    Haglund-Haiman-Loehr statistics on the French diagram, read in reading
    order (rows top to bottom, each left to right). A descent is a cell whose
    entry exceeds the entry directly below it; maj sums leg+1 over the
    descents. Two cells attack when they share a row, or sit in adjacent
    rows with the upper cell strictly right of the lower one; inv counts the
    attacking pairs whose earlier entry in reading order is larger, minus the
    arms of the descents. Both are updated cell by cell as the filling grows.
    """
    order = [(i, j) for i in reversed(range(len(mu))) for j in range(mu[i])]
    pos = {c: k for k, c in enumerate(order)}
    attackers = []  # earlier positions in reading order that attack position k
    above = []  # (position, arm, leg+1) of the cell directly above, or None
    for i, j in order:
        earlier = [pos[(i, jj)] for jj in range(j)]
        if i + 1 < len(mu):
            earlier += [pos[(i + 1, jj)] for jj in range(j + 1, mu[i + 1])]
        attackers.append(earlier)
        if i + 1 < len(mu) and j < mu[i + 1]:
            cell = cell_data(mu, i + 1, j)
            above.append((pos[(i + 1, j)], cell.arm, cell.leg + 1))
        else:
            above.append(None)
    n = len(order)
    remaining = list(content)
    filling = [0] * n
    weights: Counter = Counter()

    def grow(k: int, inv: int, maj: int) -> None:
        if k == n:
            weights[(inv, maj)] += 1
            return
        for a, left in enumerate(remaining):
            if not left:
                continue
            remaining[a] -= 1
            filling[k] = a
            inv_k = inv + sum(1 for b in attackers[k] if filling[b] > a)
            maj_k = maj
            if above[k] is not None and filling[above[k][0]] > a:
                inv_k -= above[k][1]
                maj_k += above[k][2]
            grow(k + 1, inv_k, maj_k)
            remaining[a] += 1

    grow(0, 0, 0)
    return weights


def _hhl_column(mu: Partition) -> dict[Partition, LaurentPoly]:
    """Entries K_{. , mu} from the Haglund-Haiman-Loehr formula, in integers.

    The coefficient of m_lam in the modified Macdonald polynomial
    H~_mu = sum_sigma q^inv t^maj x^sigma is the weighted count of fillings
    with content lam. Schur coefficients K~_{lam mu} are peeled off
    largest-first with the unitriangular Kostka numbers, and
    K_{lam mu}(q,t) = t^{n(mu)} K~_{lam mu}(q, 1/t).
    """
    n = sum(mu)
    parts = enumerate_partitions(n)
    kostka = kostka_numbers(n)
    shift = nstat(mu)
    modified: dict[Partition, Counter] = {}
    for lam in parts:  # largest first, which refines dominance
        coeff = _hhl_weights(mu, lam)
        for kappa, larger in modified.items():
            k = kostka[kappa][lam]
            if k:
                for e, c in larger.items():
                    coeff[e] -= k * c
        modified[lam] = coeff
    return {
        lam: LaurentPoly(QT, {(inv, shift - maj): c for (inv, maj), c in coeff.items()})
        for lam, coeff in modified.items()
    }


@memo_n
def kostka_macdonald(n: int) -> KostkaMacdonaldMatrix:
    """The full K_{lam mu}(q,t) matrix, built once per process and kept in memory.

    Each column comes from the combinatorial formula of Haglund, Haiman and
    Loehr, "A combinatorial formula for Macdonald polynomials", J. Amer.
    Math. Soc. 18 (2005), through the modified Kostka-Macdonald
    coefficients; see _hhl_column.
    """
    if n > MAX_KOSTKA_N:
        raise ResourceError(f"kostka bound is n <= {MAX_KOSTKA_N}, got {n}")
    parts = enumerate_partitions(n)
    columns = {mu: _hhl_column(mu) for mu in parts}
    entries = {(lam, mu): columns[mu][lam] for lam in parts for mu in parts}
    return KostkaMacdonaldMatrix(n, parts, entries)


# ---------------------------------------------------------------------------
# Fixed-point data
# ---------------------------------------------------------------------------

ARGUMENT_ORDERS = ("positional", "swapped")


def _fiber_door(mu, argument_order: str = "positional") -> tuple[Partition, str]:
    if argument_order not in ARGUMENT_ORDERS:
        raise ValueError(f"argument_order must be one of {ARGUMENT_ORDERS}")
    return check_partition(mu), argument_order


@memo(_fiber_door)
def procesi_fiber(mu: Partition, argument_order: str = "positional") -> LaurentPoly:
    """The Laurent polynomial P_mu(s,t) = sum_lam s^{n(mu)} K_{lam mu}(q:=t, t:=s^{-1}) dim(lam).

    argument_order="swapped" uses the reading q:=s^{-1}, t:=t instead; see
    the module docstring. The result is shared between callers and must not
    be mutated.
    """
    n = sum(mu)
    matrix = kostka_macdonald(n)
    mapping = {"q": (0, 1), "t": (-1, 0)} if argument_order == "positional" else {"q": (-1, 0), "t": (0, 1)}
    acc = LaurentPoly.zero(ST)
    for lam in matrix.partitions:
        entry = matrix.entries[(lam, mu)]
        if not entry.is_zero():
            acc = acc + entry.substitute_monomials(ST, mapping) * num_syt(lam)
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


def kostka_fake_degree_identity(n: int, variant: str = "printed") -> dict[Partition, bool]:
    """Per-mu truth of sum_lam v^{n(mu)} K_{lam mu}(1/v, 1/v) f_*(1/v) f_lam(1)
    = sum_lam f_lam(1/v) f_mu(1) f_lam(1), where f_* is f_mu for the "printed"
    reading and f_lam for the "lam" reading. Both readings are evaluated by
    the suites; exactly one is expected to hold.
    """
    if variant not in ("printed", "lam"):
        raise ValueError("variant must be 'printed' or 'lam'")
    matrix = kostka_macdonald(n)
    v = ("v",)
    results = {}
    fk = {lam: fake_degree(lam).invert_variables() for lam in matrix.partitions}
    rhs_sum = LaurentPoly.zero(v)
    for lam in matrix.partitions:
        rhs_sum = rhs_sum + fk[lam] * num_syt(lam)
    for mu in matrix.partitions:
        lhs = LaurentPoly.zero(v)
        for lam in matrix.partitions:
            entry = matrix.entries[(lam, mu)]
            kv = entry.substitute_monomials(v, {"q": (-1,), "t": (-1,)})
            fstar = fk[mu] if variant == "printed" else fk[lam]
            lhs = lhs + kv * fstar * num_syt(lam)
        lhs = lhs.shift((nstat(mu),))
        rhs = rhs_sum * num_syt(mu)
        results[mu] = lhs == rhs
    return results
