"""References shared between test files: arithmetic on {exponent tuple:
coefficient} dicts, which the tests check exact_poly's packed-key kernel
against, an image rank by elimination, which they check graded_free's
trace against, and a Murnaghan-Nakayama recursion from partition to
partition, which they check sn_rep's recursion on beta-sets against."""

import math
from fractions import Fraction
from functools import cache
from itertools import accumulate
from operator import add

from cherpoi._linalg import EchelonSpan
from cherpoi.graded_free import HomogeneousVector, module_scale


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
