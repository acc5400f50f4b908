"""Integer partitions, cell geometry, dominance, and standard Young tableaux,
and the one door to every memoized public function of cherpoi: memo checks a
function's arguments before its memo is consulted, and the memo has no other
way in. A partition goes through check_partition; an n goes through
check_ints and then the rule n >= 1, which memo_n's door alone states.

Conventions. A partition is a tuple of weakly decreasing positive integers.
Diagrams are French: d(mu) = {(i, j) : 0 <= i, 0 <= j < mu_{i+1}}, with row 0
at the bottom, so "above" means a larger row index. Cell coordinates are
0-based; the statistic n(mu) = sum_i mu_i (i-1) uses 1-based row indices.
The empty partition is rejected everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, wraps
from math import factorial
from typing import NamedTuple

Partition = tuple[int, ...]


class Cell(NamedTuple):
    row: int
    col: int
    arm: int
    leg: int


class Tableau(NamedTuple):
    """A standard Young tableau, stored as a tuple of row tuples (bottom row first)."""

    shape: Partition
    rows: tuple[tuple[int, ...], ...]

    @property
    def maj(self) -> int:
        """Sum of descents: i counts when i+1 sits in a strictly higher row."""
        row_of = {}
        for i, row in enumerate(self.rows):
            for entry in row:
                row_of[entry] = i
        n = sum(self.shape)
        return sum(i for i in range(1, n) if row_of[i + 1] > row_of[i])


def check_partition(mu) -> Partition:
    """Validate and canonicalize a partition given as any iterable of ints."""
    parts = tuple(mu)
    if any(type(p) is not int for p in parts):
        raise ValueError(f"partition parts must be integers: {parts}")
    if not parts:
        raise ValueError("empty partition is not allowed (need n >= 1)")
    if any(p <= 0 for p in parts):
        raise ValueError(f"partition parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"partition parts must weakly decrease: {parts}")
    return parts


def check_ints(what: str, *values) -> tuple[int, ...]:
    """The one int rule: TypeError unless every value is an int proper, so
    neither a bool nor a float equal to an int passes for one."""
    if any(type(v) is not int for v in values):
        got = ", ".join(map(repr, values))
        raise TypeError(f"{what} must be {'ints' if len(values) > 1 else 'an int'}, got {got}")
    return values


def memo(door):
    """Memoize a public function behind door, which takes its arguments,
    refuses bad ones and returns them canonical, as a tuple. The door comes
    first: a memo asked first would answer (True,) from the entry of (1,),
    which it hashes and compares equal to. The memo is reached only through
    the door; a recursion that must pass through arguments the door refuses
    keeps a private memo of its own. Results are shared and must not be
    mutated."""

    def decorate(fn):
        memoized = cache(fn)

        @wraps(fn)
        def door_then_memo(*args, **kwargs):
            return memoized(*door(*args, **kwargs))

        del door_then_memo.__wrapped__  # wraps' own side entrance, past the door
        return door_then_memo

    return decorate


def _n_door(n) -> tuple[int]:
    check_ints("n", n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return (n,)


memo_partition = memo(lambda mu: (check_partition(mu),))
memo_n = memo(_n_door)


@memo_n
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, largest first.

    Reverse-lex refines dominance: lam > mu in dominance implies lam
    appears first.
    """

    def gen(remaining: int, maxpart: int, prefix: Partition):
        if remaining == 0:
            out.append(prefix)
            return
        for p in range(min(remaining, maxpart), 0, -1):
            gen(remaining - p, p, prefix + (p,))

    out: list[Partition] = []
    gen(n, n, ())
    return tuple(out)


@memo_partition
def transpose(mu: Partition) -> Partition:
    return tuple(sum(1 for p in mu if p >= j) for j in range(1, mu[0] + 1))


def cells(mu) -> list[tuple[int, int]]:
    mu = check_partition(mu)
    return [(i, j) for i, p in enumerate(mu) for j in range(p)]


def cell_data(mu, row: int, col: int) -> Cell:
    """Arm and leg of a diagram cell; raises IndexError outside d(mu)."""
    mu = check_partition(mu)
    if not (0 <= row < len(mu) and 0 <= col < mu[row]):
        raise IndexError(f"cell ({row},{col}) outside diagram of {mu}")
    arm = mu[row] - col - 1
    leg = sum(1 for i in range(row + 1, len(mu)) if mu[i] > col)
    return Cell(row, col, arm, leg)


def hooks(mu) -> list[int]:
    """Hook lengths over all cells, row by row: 1 + arm + leg, with arm
    mu_i - j - 1 and leg mu'_j - i - 1 read off mu and its conjugate."""
    mu = check_partition(mu)
    conj = [sum(1 for p in mu if p > j) for j in range(mu[0])]
    return [p + conj[j] - i - j - 1 for i, p in enumerate(mu) for j in range(p)]


def hook_product(mu) -> int:
    prod = 1
    for h in hooks(mu):
        prod *= h
    return prod


def dominance_leq(lam, mu) -> bool:
    """Prefix-sum dominance test; partitions must have equal size."""
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"dominance needs equal sizes: {lam} vs {mu}")
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a > b:
            return False
    return True


@memo_partition
def nstat(mu: Partition) -> int:
    """n(mu) = sum_i mu_i (i-1) with rows indexed from 1."""
    return sum(i * p for i, p in enumerate(mu))


@memo_partition
def num_syt(mu: Partition) -> int:
    """Number of standard Young tableaux of shape mu, by the hook-length
    formula: the dimension of the irreducible of S_n labelled mu."""
    count = Fraction(factorial(sum(mu)), hook_product(mu))
    if count.denominator != 1:
        raise ArithmeticError(f"hook-length formula gave a non-integer for {mu}")
    return int(count)


def enumerate_syt(mu) -> list[Tableau]:
    """All standard Young tableaux of shape mu."""
    mu = check_partition(mu)
    n = sum(mu)
    out: list[Tableau] = []

    def grow(k: int, rows: tuple[tuple[int, ...], ...]):
        if k > n:
            out.append(Tableau(mu, rows))
            return
        for i in range(len(mu)):
            if len(rows[i]) < mu[i] and (i == 0 or len(rows[i]) < len(rows[i - 1])):
                grow(k + 1, rows[:i] + (rows[i] + (k,),) + rows[i + 1 :])

    grow(1, ((),) * len(mu))
    return out
