"""Macdonald symmetric functions over the exact rational-function field in
(q,t): P_mu by Gram-Schmidt, integral forms J_mu, the Kostka-Macdonald
matrix, and the torus fixed-point data Omega(mu), P_mu(s,t).

The Kostka-Macdonald matrix is built from the Haglund-Haiman-Loehr
combinatorial formula for the modified Macdonald polynomials, in integer
arithmetic only. Gram-Schmidt (macdonald_P, macdonald_J, _kostka_column) is
the definition-level reference route that the tests compare it against.

Degree-n symmetric functions are finite coefficient vectors indexed by
partitions of n in one of three bases: monomial, power-sum, schur. The inner
product is <p_lam, p_mu> = delta * z_lam * prod_i (1-q^{lam_i})/(1-t^{lam_i}).

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
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from ._linalg import SingularMatrixError, bareiss_solve, solve
from .errors import ResourceError
from .exact_poly import ExactRationalFunction, LaurentPoly, divexact
from .partition_core import (
    Partition,
    cells,
    cell_data,
    check_partition,
    dominance_leq,
    enumerate_partitions,
    nstat,
    transpose,
)
from .sn_rep import centralizer_order, character_table, dim_irr, fake_degree

QT = ("q", "t")
ST = ("s", "t")
BASES = ("monomial", "power-sum", "schur")
MAX_KOSTKA_N = 7  # cold HHL build on a 2-core VM: ~2 s at n = 7, ~16 s at n = 8; the acceptance battery requires >= 5


def _one_rf() -> ExactRationalFunction:
    return ExactRationalFunction(LaurentPoly.one(QT))


def _zero_rf() -> ExactRationalFunction:
    return ExactRationalFunction(LaurentPoly.zero(QT))


@dataclass(frozen=True)
class SymmetricFunction:
    n: int
    basis: str
    coeffs: dict  # Partition -> ExactRationalFunction over (q, t)

    def coefficient(self, lam) -> ExactRationalFunction:
        return self.coeffs.get(check_partition(lam), _zero_rf())


# ---------------------------------------------------------------------------
# Basis conversion data (exact rational matrices, no (q,t) content)
# ---------------------------------------------------------------------------


def _expand_power_sum(n: int, rho: Partition) -> dict[tuple[int, ...], int]:
    """p_rho as an honest polynomial in n variables."""
    acc = {(0,) * n: 1}
    for r in rho:
        new: dict[tuple[int, ...], int] = {}
        for e, c in acc.items():
            for i in range(n):
                e2 = e[:i] + (e[i] + r,) + e[i + 1 :]
                new[e2] = new.get(e2, 0) + c
        acc = new
    return acc


@cache
def _p_to_m(n: int) -> dict[Partition, dict[Partition, int]]:
    """p_rho = sum_lam _p_to_m(n)[rho][lam] m_lam."""
    parts = enumerate_partitions(n)
    out = {}
    for rho in parts:
        poly = _expand_power_sum(n, rho)
        out[rho] = {lam: poly.get(lam + (0,) * (n - len(lam)), 0) for lam in parts}
    return out


@cache
def _m_to_p(n: int) -> dict[Partition, dict[Partition, Fraction]]:
    """m_lam = sum_rho _m_to_p(n)[lam][rho] p_rho (inverse transition matrix)."""
    parts = enumerate_partitions(n)
    p2m = _p_to_m(n)
    # column rho is p_rho in the monomial basis; the unique solution for the
    # unit vector of lam expands m_lam in power sums
    columns = [[p2m[rho][lam] for lam in parts] for rho in parts]
    return {lam: dict(zip(parts, solve(columns, [int(nu == lam) for nu in parts]))) for lam in parts}


@cache
def kostka_numbers(n: int) -> dict[Partition, dict[Partition, int]]:
    """s_lam = sum_nu kostka_numbers(n)[lam][nu] m_nu.

    K_{lam nu} counts semistandard tableaux of shape lam and content nu. It is
    read off s_lam = sum_rho chi_lam(rho)/z_rho p_rho through _p_to_m, and is
    unitriangular in dominance order: K_{lam lam} = 1, and K_{lam nu} = 0
    unless nu <= lam.
    """
    parts = enumerate_partitions(n)
    table = character_table(n)
    p2m = _p_to_m(n)
    out = {}
    for lam in parts:
        row = {}
        for nu in parts:
            k = sum(Fraction(table.values[(lam, rho)] * p2m[rho][nu], table.centralizers[rho]) for rho in parts)
            if k.denominator != 1:
                raise ArithmeticError(f"non-integer Kostka number at ({lam},{nu})")
            row[nu] = int(k)
        out[lam] = row
    return out


def to_basis(f: SymmetricFunction, target: str) -> SymmetricFunction:
    """Exact basis conversion through the power-sum basis."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if f.basis not in BASES:
        raise ValueError(f"unknown basis {f.basis!r}")
    if f.basis == target:
        return f
    n = f.n
    parts = enumerate_partitions(n)
    table = character_table(n)

    def as_p(g: SymmetricFunction) -> dict[Partition, ExactRationalFunction]:
        if g.basis == "power-sum":
            return dict(g.coeffs)
        acc: dict[Partition, ExactRationalFunction] = {}
        if g.basis == "monomial":
            m2p = _m_to_p(n)
            for lam, c in g.coeffs.items():
                for rho, w in m2p[lam].items():
                    if w:
                        acc[rho] = acc.get(rho, _zero_rf()) + c * w
        else:  # schur: s_lam = sum_rho chi_lam(rho)/z_rho * p_rho
            for lam, c in g.coeffs.items():
                for rho in parts:
                    w = Fraction(table.values[(lam, rho)], table.centralizers[rho])
                    if w:
                        acc[rho] = acc.get(rho, _zero_rf()) + c * w
        return acc

    p_coeffs = as_p(f)
    if target == "power-sum":
        out = {rho: c for rho, c in p_coeffs.items() if not c.is_zero()}
        return SymmetricFunction(n, "power-sum", out)
    out: dict[Partition, ExactRationalFunction] = {}
    if target == "monomial":
        p2m = _p_to_m(n)
        for rho, a in p_coeffs.items():
            for lam, w in p2m[rho].items():
                if w:
                    out[lam] = out.get(lam, _zero_rf()) + a * w
    else:  # schur: p_rho = sum_lam chi_lam(rho) s_lam
        for rho, a in p_coeffs.items():
            for lam in parts:
                w = table.values[(lam, rho)]
                if w:
                    out[lam] = out.get(lam, _zero_rf()) + a * w
    return SymmetricFunction(n, target, {lam: c for lam, c in out.items() if not c.is_zero()})


def to_power_sums(f: SymmetricFunction) -> SymmetricFunction:
    return to_basis(f, "power-sum")


def inner_product(f: SymmetricFunction, g: SymmetricFunction) -> ExactRationalFunction:
    """<f, g> under <p_lam, p_mu> = delta z_lam prod (1-q^{lam_i})/(1-t^{lam_i})."""
    if f.n != g.n:
        raise ValueError(f"degree mismatch: {f.n} vs {g.n}")
    fp, gp = to_power_sums(f), to_power_sums(g)
    one = LaurentPoly.one(QT)
    total = _zero_rf()
    for rho, a in fp.coeffs.items():
        b = gp.coeffs.get(rho)
        if b is None:
            continue
        num = LaurentPoly.const(QT, centralizer_order(rho))
        den = []
        for r in rho:
            num = num * (one - LaurentPoly.var_power(QT, "q", r))
            den.append(one - LaurentPoly.var_power(QT, "t", r))
        total = total + a * b * ExactRationalFunction(num, den)
    return total


# ---------------------------------------------------------------------------
# Gram-Schmidt
# ---------------------------------------------------------------------------


@cache
def _gram_cleared(n: int) -> dict[tuple[Partition, Partition], LaurentPoly]:
    """T(t)-cleared Gram matrix of the monomial basis, T = prod (1-t^i)^{floor(n/i)}.

    Entry (lam, nu) is T * <m_lam, m_nu>, a polynomial in (q, t).
    """
    parts = enumerate_partitions(n)
    m2p = _m_to_p(n)
    one = LaurentPoly.one(QT)
    tpow = {i: one - LaurentPoly.var_power(QT, "t", i) for i in range(1, n + 1)}
    qpow = {i: one - LaurentPoly.var_power(QT, "q", i) for i in range(1, n + 1)}
    cleared = {}
    for rho in parts:
        mult = {i: rho.count(i) for i in range(1, n + 1)}
        w = LaurentPoly.const(QT, centralizer_order(rho))
        for r in rho:
            w = w * qpow[r]
        for i in range(1, n + 1):
            for _ in range(n // i - mult[i]):
                w = w * tpow[i]
        cleared[rho] = w
    gram = {}
    for a, lam in enumerate(parts):
        for nu in parts[a:]:
            entry = LaurentPoly.zero(QT)
            for rho in parts:
                c = m2p[lam][rho] * m2p[nu][rho]
                if c:
                    entry = entry + cleared[rho] * c
            gram[(lam, nu)] = entry
            gram[(nu, lam)] = entry
    return gram


def _default_order(n: int) -> tuple[Partition, ...]:
    return tuple(reversed(enumerate_partitions(n)))


def _validate_order(n: int, order) -> tuple[Partition, ...]:
    order = tuple(check_partition(p) for p in order)
    if sorted(order) != sorted(enumerate_partitions(n)):
        raise ValueError("order must list every partition of n exactly once")
    for i, lam in enumerate(order):
        for mu in order[i + 1 :]:
            if dominance_leq(mu, lam) and mu != lam:
                raise ValueError(f"order is not a linear extension of dominance: {mu} after {lam}")
    return order


def macdonald_P(mu, order=None) -> SymmetricFunction:
    """P_mu = m_mu + sum_{lam earlier} c_lam m_lam, orthogonal to all earlier m.

    `order` may be any linear extension of dominance (ascending); the output
    does not depend on the choice. Coefficients on partitions not dominated
    by mu must vanish, and this is asserted.
    """
    mu = check_partition(mu)
    n = sum(mu)
    order = _default_order(n) if order is None else _validate_order(n, order)
    j = order.index(mu)
    coeffs = {mu: _one_rf()}
    if j == 0:
        return SymmetricFunction(n, "monomial", coeffs)
    gram = _gram_cleared(n)
    lower = order[:j]
    matrix = [[gram[(lower[i], lower[ip])] for i in range(j)] for ip in range(j)]
    rhs = [-gram[(mu, lower[ip])] for ip in range(j)]
    try:
        ys, det = bareiss_solve(matrix, rhs)
    except SingularMatrixError as exc:
        raise ArithmeticError(f"Gram-Schmidt system for {mu} is singular") from exc
    for lam, y in zip(lower, ys):
        if y.is_zero():
            continue
        if not dominance_leq(lam, mu):
            raise ArithmeticError(f"nonzero coefficient on {lam} not dominated by {mu}")
        coeffs[lam] = ExactRationalFunction(y, [det])
    return SymmetricFunction(n, "monomial", coeffs)


def integral_form_scalar(mu) -> LaurentPoly:
    """c_mu = prod over cells (1 - q^arm t^(leg+1))."""
    mu = check_partition(mu)
    one = LaurentPoly.one(QT)
    c = one
    for i, jcol in cells(mu):
        cell = cell_data(mu, i, jcol)
        c = c * (one - LaurentPoly.monomial(QT, (cell.arm, cell.leg + 1)))
    return c


def macdonald_J(mu) -> SymmetricFunction:
    """Integral form J_mu = c_mu P_mu (monomial basis)."""
    mu = check_partition(mu)
    p = macdonald_P(mu)
    c = integral_form_scalar(mu)
    return SymmetricFunction(p.n, "monomial", {lam: coeff * c for lam, coeff in p.coeffs.items()})


# ---------------------------------------------------------------------------
# Kostka-Macdonald matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KostkaMacdonaldMatrix:
    n: int
    partitions: tuple[Partition, ...]
    entries: dict  # (lam, mu) -> LaurentPoly in (q, t)

    def entry(self, lam, mu) -> LaurentPoly:
        return self.entries[(check_partition(lam), check_partition(mu))]


def _kostka_column(mu: Partition) -> dict[Partition, LaurentPoly]:
    """Entries K_{. , mu} by character orthogonality against the plethystic
    Schur functions S_lam (p_r -> (1-t^r) p_r): K_{nu mu} =
    sum_rho a_rho(J_mu) chi_nu(rho) / prod_i (1 - t^{rho_i})."""
    n = sum(mu)
    parts = enumerate_partitions(n)
    table = character_table(n)
    m2p = _m_to_p(n)
    one = LaurentPoly.one(QT)

    p = macdonald_P(mu)
    dens = {c.den for c in p.coeffs.values() if c.den}
    if len(dens) > 1 or (dens and len(next(iter(dens))) != 1):
        raise ArithmeticError("expected a single shared Gram-Schmidt denominator")
    det = next(iter(dens))[0] if dens else one
    cmu = integral_form_scalar(mu)
    num_m = {lam: (c.num if c.den else c.num * det) * cmu for lam, c in p.coeffs.items()}

    num_p: dict[Partition, LaurentPoly] = {}
    for lam, poly in num_m.items():
        for rho, w in m2p[lam].items():
            if w:
                num_p[rho] = num_p.get(rho, LaurentPoly.zero(QT)) + poly * w

    tpow = {i: one - LaurentPoly.var_power(QT, "t", i) for i in range(1, n + 1)}
    t_clear = one
    for i in range(1, n + 1):
        t_clear = t_clear * tpow[i] ** (n // i)
    t_rem = {}
    for rho in parts:
        rem = one
        for i in range(1, n + 1):
            rem = rem * tpow[i] ** (n // i - rho.count(i))
        t_rem[rho] = rem

    column = {}
    for nu in parts:
        acc = LaurentPoly.zero(QT)
        for rho, poly in num_p.items():
            chi = table.values[(nu, rho)]
            if chi:
                acc = acc + poly * t_rem[rho] * chi
        if acc.is_zero():
            column[nu] = acc
            continue
        quotient = divexact(acc, det) if det is not one else acc
        column[nu] = divexact(quotient, t_clear)
    return column


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


@cache
def kostka_macdonald(n: int) -> KostkaMacdonaldMatrix:
    """The full K_{lam mu}(q,t) matrix, built once per process and kept in memory.

    Each column comes from the combinatorial formula of Haglund, Haiman and
    Loehr, "A combinatorial formula for Macdonald polynomials", J. Amer.
    Math. Soc. 18 (2005), through the modified Kostka-Macdonald
    coefficients; see _hhl_column.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
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


def procesi_fiber(mu, argument_order: str = "positional") -> ExactRationalFunction:
    """P_mu(s,t) = sum_lam s^{n(mu)} K_{lam mu}(q:=t, t:=s^{-1}) dim(lam).

    A Laurent polynomial in (s,t), returned with an empty denominator.
    argument_order="swapped" uses the reading q:=s^{-1}, t:=t instead; see
    the module docstring.
    """
    mu = check_partition(mu)
    if argument_order not in ARGUMENT_ORDERS:
        raise ValueError(f"argument_order must be one of {ARGUMENT_ORDERS}")
    n = sum(mu)
    matrix = kostka_macdonald(n)
    mapping = {"q": (0, 1), "t": (-1, 0)} if argument_order == "positional" else {"q": (-1, 0), "t": (0, 1)}
    acc = LaurentPoly.zero(ST)
    for lam in matrix.partitions:
        entry = matrix.entries[(lam, mu)]
        if not entry.is_zero():
            acc = acc + entry.substitute_monomials(ST, mapping) * dim_irr(lam)
    return ExactRationalFunction(acc.shift((nstat(mu), 0)))


def omega_factors(mu) -> tuple[LaurentPoly, ...]:
    """The 2n binomials (1-s^{1+l}t^{-a})(1-s^{-l}t^{1+a}) over the cells of mu."""
    mu = check_partition(mu)
    one = LaurentPoly.one(ST)
    factors = []
    for i, j in cells(mu):
        cell = cell_data(mu, i, j)
        factors.append(one - LaurentPoly.monomial(ST, (1 + cell.leg, -cell.arm)))
        factors.append(one - LaurentPoly.monomial(ST, (-cell.leg, 1 + cell.arm)))
    return tuple(factors)


def omega(mu) -> ExactRationalFunction:
    """Omega(mu) as an expanded product (use omega_factors for the factored form)."""
    prod = LaurentPoly.one(ST)
    for f in omega_factors(mu):
        prod = prod * f
    return ExactRationalFunction(prod)


def line_bundle_fiber(mu) -> LaurentPoly:
    """The monomial s^{n(mu)} t^{n(mu^t)}."""
    mu = check_partition(mu)
    return LaurentPoly.monomial(ST, (nstat(mu), nstat(transpose(mu))))


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
        rhs_sum = rhs_sum + fk[lam] * dim_irr(lam)
    for mu in matrix.partitions:
        lhs = LaurentPoly.zero(v)
        for lam in matrix.partitions:
            entry = matrix.entries[(lam, mu)]
            kv = entry.substitute_monomials(v, {"q": (-1,), "t": (-1,)})
            fstar = fk[mu] if variant == "printed" else fk[lam]
            lhs = lhs + kv * fstar * dim_irr(lam)
        lhs = lhs.shift((nstat(mu),))
        rhs = rhs_sum * dim_irr(mu)
        results[mu] = lhs == rhs
    return results
