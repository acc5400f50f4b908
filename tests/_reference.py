"""References shared between test files: arithmetic on {exponent tuple:
coefficient} dicts, which the tests check exact_poly's packed-key kernel
against, an image rank by elimination, which they check graded_free's
trace against, a Murnaghan-Nakayama recursion from partition to
partition, which they check sn_rep's recursion on beta-sets against, the
Haglund-Haiman-Loehr fillings enumerated one by one, which they check the
row transfer and the conjugate symmetry of macdonald's K against, the
Lascoux-Schutzenberger charge of semistandard tableaux, which they check
K(0,t) against, [n]_v!'s numerator prod (1 - v^i) multiplied out one
binomial at a time, which they check exact_poly's binomial kernel and
jbar_closed against, the fixed-point sum of jbar_via_specialization added
term by term, which they check its per-n cache against, the fiber P_mu in
the swapped reading read straight off K, which they check the
argument-order check's negative control against, and the fake-degree
identity evaluated one reading at a time, which they check macdonald's
one pass over K against."""

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate, product
from operator import add

from cherpoi._linalg import EchelonSpan
from cherpoi.exact_poly import ExactRationalFunction, LaurentPoly
from cherpoi.graded_free import HomogeneousVector, module_scale
from cherpoi.hilbert_series import _fixed_point_term
from cherpoi.macdonald import kostka_macdonald, kostka_numbers
from cherpoi.partition_core import cell_data, enumerate_partitions, nstat, num_syt
from cherpoi.sn_rep import fake_degree


def ref_mul(a: dict, b: dict) -> dict:
    """Product of two {exponent tuple: coefficient} dicts, term by term: a
    reference that shares no packing with exact_poly's kernel."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def image_dims_by_elimination(E, horizon: int) -> dict[int, int]:
    """dim im(E)_g for min(shifts) <= g <= horizon, as the rank of the image
    vectors E(u_j x^idx) flattened into F_g's monomial basis, cleared of
    denominators and eliminated: a route that does not read the trace."""
    algebra, shifts = E.algebra, E.shifts
    dims = {}
    for g in range(min(shifts), horizon + 1):
        offsets = list(accumulate((algebra.dim(g - s) for s in shifts), initial=0))
        span = EchelonSpan()
        for j, s in enumerate(shifts):
            column = HomogeneousVector(s, tuple(row[j] for row in E.entries))
            for idx in range(algebra.dim(g - s)):
                image = module_scale(algebra, shifts, column, g - s, {idx: 1})
                v = {o + k: c for o, row in zip(offsets, image.rows) for k, c in row.items()}
                scale = math.lcm(*(Fraction(c).denominator for c in v.values()))
                span.add({k: int(c * scale) for k, c in v.items()})
        dims[g] = span.rank
    return dims


@cache
def character_by_partitions(lam: tuple, rho: tuple) -> int:
    """chi_lam(rho) for partitions of one size, lam possibly (): each rim hook
    of length rho[0] is stripped by moving a bead of lam's beta-set and
    reading the smaller partition back off the beads, so every step of the
    recursion is keyed on a partition."""
    if not rho:
        return 1 if not lam else 0
    r, rest = rho[0], rho[1:]
    ell = max(len(lam), 1)
    padded = list(lam) + [0] * (ell - len(lam))
    beta = [padded[j] + ell - 1 - j for j in range(ell)]
    total = 0
    for b in beta:
        if b - r >= 0 and b - r not in beta:
            height = sum(1 for x in beta if b - r < x < b)
            moved = sorted([x for x in beta if x != b] + [b - r], reverse=True)
            parts = tuple(x - (ell - 1 - j) for j, x in enumerate(moved))
            total += (-1) ** height * character_by_partitions(tuple(p for p in parts if p > 0), rest)
    return total


def hhl_weights(mu: tuple, content: tuple) -> Counter:
    """Count the fillings of mu with the given content by (inv, maj), one
    filling at a time.

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


def hhl_column_by_enumeration(mu: tuple) -> dict:
    """K_{lam mu}(q,t) for every lam, from hhl_weights: the monomial
    coefficients of H~_mu, peeled into Schur coefficients K~ largest-first
    with the Kostka numbers, read as K = t^{n(mu)} K~(q, 1/t)."""
    n = sum(mu)
    kostka = kostka_numbers(n)
    modified = {}
    for lam in enumerate_partitions(n):
        coeff = hhl_weights(mu, lam)
        for kappa, larger in modified.items():
            for e, c in larger.items():
                coeff[e] -= kostka[kappa][lam] * c
        modified[lam] = coeff
    shift = nstat(mu)
    return {
        lam: LaurentPoly(("q", "t"), {(inv, shift - maj): c for (inv, maj), c in coeff.items()})
        for lam, coeff in modified.items()
    }


def semistandard_tableaux(shape: tuple, content: tuple):
    """Every semistandard tableau of the shape and content, as a tuple of
    rows in English order (the longest first) holding the letters 1, 2, ...:
    the cells of each letter in turn form a horizontal strip."""
    tableaux = [tuple(() for _ in shape)]
    for letter, count in enumerate(content, start=1):
        grown = []
        for rows in tableaux:
            old = [len(row) for row in rows]
            ranges = [range(old[i], min(shape[i], old[i - 1] if i else shape[0]) + 1) for i in range(len(shape))]
            for new in product(*ranges):
                if sum(new) - sum(old) == count:
                    grown.append(tuple(row + (letter,) * (k - len(row)) for row, k in zip(rows, new)))
        tableaux = grown
    return tableaux


def reading_word(tableau: tuple, top_first: bool = True) -> list:
    """The reading word that charge reads: the rows in English order, the
    top (longest) one first, each read right to left. top_first=False reads
    the rows in the wrong order, bottom first."""
    rows = tableau if top_first else tableau[::-1]
    return [x for row in rows for x in reversed(row)]


def charge(word: list) -> int:
    """Lascoux-Schutzenberger charge of a word whose content is a partition,
    as in Macdonald, III.6. Standard subwords are taken out in turn: reading
    from the left, the first 1, then the first 2 to its right, going back to
    the start of the word if there is none, and so on up to the largest
    letter left. In a subword 1 has index 0, and r+1 has the index of r if
    it lies to the right of r, one more if it lies to the left. The charge
    sums the indices over every subword."""
    letters = list(enumerate(word))
    total = 0
    while letters:
        picked, at, index = set(), -1, 0
        for r in range(1, max(x for _, x in letters) + 1):
            ahead = [k for k, (p, x) in enumerate(letters) if x == r and p > at]
            if not ahead:
                ahead = [k for k, (p, x) in enumerate(letters) if x == r]
                index += r > 1
            picked.add(ahead[0])
            at = letters[ahead[0]][0]
            total += index
        letters = [c for k, c in enumerate(letters) if k not in picked]
    return total


def binomial_product_by_loop(n: int) -> LaurentPoly:
    """prod_{i=1}^n (1 - v^i), multiplied out one binomial at a time."""
    v = ("v",)
    one = LaurentPoly.one(v)
    num = one
    for i in range(1, n + 1):
        num = num * (one - LaurentPoly.var_power(v, "v", i))
    return num


def jbar_by_sequential_sum(n: int, d: int) -> ExactRationalFunction:
    """jbar_via_specialization's sum as ExactRationalFunction's + adds it,
    one specialized mu-term at a time."""
    v = ("v",)
    cut = (LaurentPoly.one(v) - LaurentPoly.var_power(v, "v", -1)) * binomial_product_by_loop(n)
    total = ExactRationalFunction(LaurentPoly.zero(v))
    for mu in enumerate_partitions(n):
        term = _fixed_point_term(mu, d).substitute_monomials(v, {"s": (1,), "t": (-1,)})
        total = total + term * cut
    return total


def swapped_fiber(mu: tuple) -> LaurentPoly:
    """P_mu(s,t) in the swapped reading, sum_lam s^{n(mu)} K_{lam mu}(q:=s^{-1},
    t:=t) dim(lam), read straight off kostka_macdonald."""
    st = ("s", "t")
    matrix = kostka_macdonald(sum(mu))
    acc = LaurentPoly.zero(st)
    for lam in matrix.partitions:
        acc = acc + matrix.entries[(lam, mu)].substitute_monomials(st, {"q": (-1, 0), "t": (0, 1)}) * num_syt(lam)
    return acc.shift((nstat(mu), 0))


def fake_degree_identity_by_reading(n: int, variant: str) -> dict:
    """Per-mu truth of sum_lam v^{n(mu)} K_{lam mu}(1/v, 1/v) f_*(1/v) f_lam(1)
    = sum_lam f_lam(1/v) f_mu(1) f_lam(1), with f_* = f_mu for "printed" and
    f_lam for "lam": one reading per call, each term multiplied out as
    printed."""
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
            kv = matrix.entries[(lam, mu)].substitute_monomials(v, {"q": (-1,), "t": (-1,)})
            fstar = fk[mu] if variant == "printed" else fk[lam]
            lhs = lhs + kv * fstar * num_syt(lam)
        results[mu] = lhs.shift((nstat(mu),)) == rhs_sum * num_syt(mu)
    return results
