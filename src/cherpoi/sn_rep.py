"""Symmetric group character theory: exact character tables, the class
average behind every character multiplicity, Kronecker coefficients, and
fake degrees by two independent routes. The dimension of an irreducible is
partition_core.num_syt, by the hook-length formula. A character value is
read by the Murnaghan-Nakayama rule, which strips rim hooks as bead moves
on the beta-set of lam, behind its memo door.

Irreducibles and conjugacy classes are both labelled by partitions of n;
(n) labels the trivial character and (1^n) the sign character.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial
from typing import NamedTuple

from .errors import ResourceError
from .exact_poly import LaurentPoly, _binomial_quotient
from .partition_core import Partition, check_partition, enumerate_partitions, hooks, nstat
from .partition_core import memo, memo_n, memo_partition

MAX_TABLE_N = 12  # p(12) = 77 classes; far beyond anything the suites need

_V = ("v",)


def _character_door(lam, rho) -> tuple[Partition, Partition]:
    lam, rho = check_partition(lam), check_partition(rho)
    if sum(lam) != sum(rho):
        raise ValueError(f"a character value needs partitions of one n: {lam}, {rho}")
    return lam, rho


@memo(_character_door)
def character_value(lam: Partition, rho: Partition) -> int:
    """chi_lam(rho) by the Murnaghan-Nakayama rule on the beta-set of lam."""
    ell = len(lam)
    return _murnaghan_nakayama(frozenset(p + ell - 1 - j for j, p in enumerate(lam)), rho)


@cache
def _murnaghan_nakayama(beta: frozenset[int], rho: Partition) -> int:
    """The character of the partition with beta-set beta at the class rho of
    the same size. Removing a rim hook of length r moves a bead b to the free
    position b - r, with sign (-1)^(beads passed). The sizes agree, so once
    rho is used up the beads sit at {0, ..., len(beta) - 1}, the beta-set of
    the empty partition, whose character is 1."""
    if not rho:
        return 1
    r, rest = rho[0], rho[1:]
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            passed = sum(1 for x in beta if b - r < x < b)
            total += (-1) ** passed * _murnaghan_nakayama((beta - {b}) | {b - r}, rest)
    return total


def centralizer_order(rho) -> int:
    rho = check_partition(rho)
    z = 1
    for r in set(rho):
        m = rho.count(r)
        z *= r**m * factorial(m)
    return z


class CharacterTable(NamedTuple):
    n: int
    partitions: tuple[Partition, ...]
    values: dict[tuple[Partition, Partition], int]

    def chi(self, mu, rho) -> int:
        return self.values[(check_partition(mu), check_partition(rho))]


@memo_n
def character_table(n: int) -> CharacterTable:
    if n > MAX_TABLE_N:
        raise ResourceError(f"character table bound is n <= {MAX_TABLE_N}, got {n}")
    parts = enumerate_partitions(n)
    values = {(mu, rho): character_value(mu, rho) for mu in parts for rho in parts}
    return CharacterTable(n, parts, values)


def class_average(n: int, f, what: str) -> int:
    """sum_rho f(rho) / z_rho over the cycle types rho of S_n: the average of
    the class function f over the group, which is a character multiplicity or
    a Molien count. ArithmeticError, naming what, unless it is a nonnegative
    integer."""
    order = factorial(n)
    total = Fraction(sum(f(rho) * (order // centralizer_order(rho)) for rho in enumerate_partitions(n)), order)
    if total.denominator != 1 or total < 0:
        raise ArithmeticError(f"{what} is not a nonnegative integer: {total}")
    return int(total)


def kronecker(lam, mu, nu) -> int:
    """Multiplicity of chi_nu in chi_lam * chi_mu."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    if not (sum(lam) == sum(mu) == sum(nu)):
        raise ValueError(f"size mismatch: {lam}, {mu}, {nu}")
    chi = character_table(sum(lam)).values
    return class_average(
        sum(lam),
        lambda rho: chi[(lam, rho)] * chi[(mu, rho)] * chi[(nu, rho)],
        f"the Kronecker coefficient of {lam}, {mu}, {nu}",
    )


@memo_partition
def fake_degree(mu: Partition) -> LaurentPoly:
    """f_mu(v) = v^n(mu) prod_{i<=n}(1 - v^i) / prod_{cells}(1 - v^h), expanded
    by the binomial kernel with top {1..n} and bottom the hook lengths.

    Always a polynomial with nonnegative integer coefficients; f_mu(1) = dim mu.
    The result is shared between callers and must not be mutated.
    """
    coeffs = _binomial_quotient(range(1, sum(mu) + 1), hooks(mu))
    low = nstat(mu)
    return LaurentPoly._build(_V, {low + k: c for k, c in enumerate(coeffs) if c}, low + len(coeffs))


def _corners(mu: Partition) -> list[int]:
    """Rows whose last cell can be removed, leaving a partition."""
    return [r for r in range(len(mu)) if r + 1 == len(mu) or mu[r] > mu[r + 1]]


@cache
def _maj_counts(mu: Partition, r: int) -> Counter:
    """{maj: count} over the standard tableaux of shape mu whose largest entry
    k = |mu| sits at the end of row r, a corner.

    Without k the tableau is one of the smaller shape, whose largest entry
    k - 1 sits in some corner r2; k - 1 is a descent, adding k - 1 to maj,
    exactly when r > r2 (French rows, as in Tableau.maj). The counts are
    shared and must not be mutated."""
    k = sum(mu)
    if k == 1:
        return Counter({0: 1})
    rest = mu[:r] + (mu[r] - 1,) + mu[r + 1 :] if mu[r] > 1 else mu[:r]
    out: Counter = Counter()
    for r2 in _corners(rest):
        shift = k - 1 if r > r2 else 0
        for m, c in _maj_counts(rest, r2).items():
            out[m + shift] += c
    return out


def fake_degree_maj(mu) -> LaurentPoly:
    """Independent route: sum of v^maj over standard Young tableaux of shape mu.

    The tableaux are not listed: a recursion on (shape, row of the largest
    entry) counts them by maj, reading only the descent rule and never a hook
    length, so this route stays independent of fake_degree's hook formula.
    """
    mu = check_partition(mu)
    total: Counter = Counter()
    for r in _corners(mu):
        total.update(_maj_counts(mu, r))
    return LaurentPoly._build(_V, dict(total), max(total, default=0))
