"""Closed-form graded and bigraded Poincare series: the bigraded ideal-power
series in (s,t), the one-variable quotient series Jbar, and the four module
series Nbar, Nunder, Mbar, Munder with their h- and E-gradings.

Everything stays in factored rational-function form; expansion happens only
through exact_poly.expand_window. The degenerate rank n=1 is rejected across
the module, and n, d and k must be ints proper (partition_core.check_ints).
Formal coupling parameters ride along as CExponent prefixes where a series
has one; concrete integers d, k enter the bodies as monomial shifts.

Only _fixed_point_term uses macdonald, and it imports it itself, so the
series that do not sum over fixed points load without it. bigraded_JJ and
bigraded_J add that term up over mu for each d. jbar_via_specialization
specializes it once per n, over one common denominator (_specialized_sum),
and reads every d off those numerators by shifts.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .errors import ResourceError
from .exact_poly import CExponent, ExactRationalFunction, LaurentPoly, _product, _sum_denominator, _without, q_factorial
from .partition_core import Partition, check_ints, check_partition, enumerate_partitions, nstat, num_syt, transpose
from .sn_rep import fake_degree, kronecker

V = ("v",)
ST = ("s", "t")

GRADINGS = ("h", "E")
# a graded numerator sums over every partition of n; one took 0.2 s at
# n = 20 and 0.8 s at n = 24 on 2 cores, and a Jbar series 73 s at n = 40;
# the suites stay at n <= 7
MAX_NUMERATOR_N = 24
# a standard series' fake degree grows about 8x in time per doubling of n;
# at n = 200 one took 0.14 s for mu = (100, 100) and 0.44 s for a 14 x 14
# square plus a row of 4, in process on 2 cores
MAX_STANDARD_N = 200


def _check_rank(n: int) -> None:
    if n < 2:
        raise ValueError(f"series are defined for n >= 2, got n={n}")


def _check_series_input(n: int, name: str, value: int, least: int) -> None:
    """n an int >= 2, and the power or twist called name an int >= least."""
    check_ints(f"n and {name}", n, value)
    _check_rank(n)
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")


def _check_grading(grading: str) -> None:
    if grading not in GRADINGS:
        raise ValueError(f"grading must be one of {GRADINGS}, got {grading!r}")


def _binomials(exponents) -> tuple[LaurentPoly, ...]:
    """The denominator factors 1 - v^e, one per e, in order."""
    return tuple(LaurentPoly(V, {(0,): 1, (e,): -1}) for e in exponents)


def _wshift(mu: Partition) -> int:
    return nstat(mu) - nstat(transpose(mu))


# ---------------------------------------------------------------------------
# Standard modules
# ---------------------------------------------------------------------------


class WGradedSeries(NamedTuple):
    """A W-equivariant graded series: one rational function in v per isotype,
    behind a common formal monomial prefix v^(prefix)."""

    n: int
    prefix: CExponent
    components: dict  # Partition -> ExactRationalFunction in v


class PrefixedSeries(NamedTuple):
    prefix: CExponent
    body: ExactRationalFunction


def canonical_weight(mu) -> CExponent:
    """The weight (n-1)/2 + c*(n(mu) - n(mu^t)) of the lowest graded piece."""
    mu = check_partition(mu)
    n = sum(mu)
    _check_rank(n)
    return CExponent(Fraction(n - 1, 2), _wshift(mu))


def standard_series_W(mu) -> WGradedSeries:
    """Graded W-module series of the standard module for mu:
    v^(canonical weight) * sum_lam f_lam(v) [lam (x) mu] / prod_{i=2}^n (1-v^i),
    with the tensor product expanded into isotypes through kronecker."""
    mu = check_partition(mu)
    n = sum(mu)
    _check_rank(n)
    den = _binomials(range(2, n + 1))
    parts = enumerate_partitions(n)
    components = {}
    for lamp in parts:
        num = LaurentPoly.zero(V)
        for lam in parts:
            g = kronecker(lam, mu, lamp)
            if g:
                num = num + fake_degree(lam) * g
        if not num.is_zero():
            components[lamp] = ExactRationalFunction(num, den)
    return WGradedSeries(n, canonical_weight(mu), components)


def e_standard_series(mu) -> PrefixedSeries:
    """Series of the spherical part of the standard module:
    v^(canonical weight) * f_mu(v) / prod_{i=2}^n (1-v^i)."""
    mu = check_partition(mu)
    n = sum(mu)
    _check_rank(n)
    if n > MAX_STANDARD_N:
        raise ResourceError(f"standard series bound is n <= {MAX_STANDARD_N}, got {n}")
    den = _binomials(range(2, n + 1))
    return PrefixedSeries(canonical_weight(mu), ExactRationalFunction(fake_degree(mu), den))


def sign_first_occurrence(mu) -> CExponent:
    """Degree where the sign isotype first appears in the standard module for
    mu: canonical weight + n(mu^t)."""
    mu = check_partition(mu)
    return canonical_weight(mu) + CExponent(Fraction(nstat(transpose(mu))), 0)


def triv_first_occurrence(mu) -> CExponent:
    """Degree where the trivial isotype first appears: canonical weight + n(mu)."""
    mu = check_partition(mu)
    return canonical_weight(mu) + CExponent(Fraction(nstat(mu)), 0)


def shift_amount(i: int, j: int, mu) -> int:
    """Grading shift (i-j)*(n(mu)-n(mu^t)) between spherical standard modules
    at couplings c+i and c+j."""
    check_ints("i and j", i, j)
    if j < 0 or i < j:
        raise ValueError(f"need i >= j >= 0, got i={i}, j={j}")
    mu = check_partition(mu)
    return (i - j) * _wshift(mu)


# ---------------------------------------------------------------------------
# Bigraded ideal-power series
# ---------------------------------------------------------------------------


def _fixed_point_term(mu: Partition, d: int) -> ExactRationalFunction:
    """P_mu(s,t) s^{d n(mu)} t^{d n(mu^t)} / Omega(mu), over Omega's 2n factors."""
    from .macdonald import omega_factors, procesi_fiber

    num = procesi_fiber(mu).shift((d * nstat(mu), d * nstat(transpose(mu))))
    return ExactRationalFunction(num, omega_factors(mu))


def bigraded_JJ(n: int, d: int) -> ExactRationalFunction:
    """Bigraded series of the big ideal power:
    sum_mu P_mu(s,t) s^{d n(mu)} t^{d n(mu^t)} / Omega(mu)."""
    _check_series_input(n, "d", d, 0)
    total = ExactRationalFunction(LaurentPoly.zero(ST))
    for mu in enumerate_partitions(n):
        total = total + _fixed_point_term(mu, d)
    return total


def bigraded_J(n: int, d: int) -> ExactRationalFunction:
    """Bigraded series of the small ideal power:
    sum_mu P_mu(s,t) (1-s)(1-t) s^{d n(mu)} t^{d n(mu^t)} / Omega(mu)."""
    one = LaurentPoly.one(ST)
    return bigraded_JJ(n, d) * ((one - LaurentPoly.var_power(ST, "s", 1)) * (one - LaurentPoly.var_power(ST, "t", 1)))


# ---------------------------------------------------------------------------
# One-variable quotient series
# ---------------------------------------------------------------------------


def jbar_closed(n: int, d: int) -> ExactRationalFunction:
    """Graded series of the quotient of the ideal power by the invariants:
    sum_mu f_mu(1) f_mu(1/v) v^{-d(n(mu)-n(mu^t))} [n]_v! / prod_{i=2}^n (1-v^-i)."""
    _check_series_input(n, "d", d, 0)
    qfac = q_factorial(n)
    num = _graded_numerator(n, d).invert_variables() * qfac.num
    return ExactRationalFunction(num, qfac.den + _binomials(-i for i in range(2, n + 1)))


class _SpecializedSum(NamedTuple):
    """The pieces of jbar_via_specialization's sum that do not depend on d."""

    den: tuple[LaurentPoly, ...]  # the common denominator of the mu-terms
    parts: tuple[tuple[int, LaurentPoly], ...]  # (n(mu) - n(mu^t), numerator over den) per mu


@cache
def _specialized_sum(n: int) -> _SpecializedSum:
    """Each mu-term P_mu(s,t) / Omega(mu) specialized at s=v, t=1/v, times the
    cut (1 - 1/v) prod_{i=1}^n (1-v^i), over one common denominator, built
    once per n. The denominator is folded term by term with the rule of a
    sequential sum (exact_poly._sum_denominator), so it is the one such a sum
    would give, factor for factor; each mu's numerator carries its cofactor,
    the product of the factors its own denominator lacks. The result is
    shared and must not be mutated."""
    cut = _binomials([-1])[0] * q_factorial(n).num
    parts = enumerate_partitions(n)
    terms = [_fixed_point_term(mu, 0).substitute_monomials(V, {"s": (1,), "t": (-1,)}) for mu in parts]
    den: tuple[LaurentPoly, ...] = ()
    for term in terms:
        den = _sum_denominator(den, term.den)[0]
    return _SpecializedSum(
        den,
        tuple(
            (_wshift(mu), term.num * cut * _product(V, _without(den, Counter(term.den))))
            for mu, term in zip(parts, terms)
        ),
    )


def jbar_via_specialization(n: int, d: int) -> ExactRationalFunction:
    """The same series assembled through the Macdonald pipeline: each mu-term
    of the bigraded series is specialized s=v, t=1/v factor by factor (every
    Omega factor lands on (1-v^h) or (1-v^-h), never on zero), multiplied by
    (1 - 1/v) prod_{i=1}^n (1-v^i), and summed. s^{d n(mu)} t^{d n(mu^t)}
    specializes to a shift by d (n(mu) - n(mu^t)), so every d sums the
    shifted numerators of _specialized_sum over its denominator.

    Its equality with jbar_closed is the derivation-chain check that the
    acceptance suite performs; nothing here assumes it.
    """
    _check_series_input(n, "d", d, 0)
    spec = _specialized_sum(n)
    num = LaurentPoly.zero(V)
    for w, part in spec.parts:
        num = num + part.shift((d * w,))
    return ExactRationalFunction(num, spec.den)


# ---------------------------------------------------------------------------
# Module series N(k), M(k)
# ---------------------------------------------------------------------------


@cache
def _graded_numerator(n: int, shift_mult: int) -> LaurentPoly:
    """sum_mu f_mu(1) f_mu(v) v^{shift_mult*(n(mu)-n(mu^t))}, built once per
    (n, shift_mult); the result is shared and must not be mutated."""
    if n > MAX_NUMERATOR_N:
        raise ResourceError(f"graded numerator bound is n <= {MAX_NUMERATOR_N}, got {n}")
    num = LaurentPoly.zero(V)
    for mu in enumerate_partitions(n):
        num = num + fake_degree(mu).shift((shift_mult * _wshift(mu),)) * num_syt(mu)
    return num


def _with_grading(body: ExactRationalFunction, n: int, k: int, grading: str) -> ExactRationalFunction:
    _check_grading(grading)
    if grading == "h":
        return body
    return ExactRationalFunction(body.num.shift((k * (n * (n - 1) // 2),)), list(body.den))


def nbar_series(n: int, k: int, grading: str = "h") -> ExactRationalFunction:
    """Series of the quotient module N(k)bar, h-graded by default; the
    E-grading is the h-grading shifted by v^{kN}, N = n(n-1)/2.

    Built from the rearranged form sum_mu f_mu(1) f_mu(v) v^{k(n(mu)-n(mu^t))}
    / (1-1/v)^{n-1}; the printed form with f_mu(1/v) and [n]_v! is checked
    against this one by the test suite.
    """
    _check_series_input(n, "k", k, 0)
    body = ExactRationalFunction(_graded_numerator(n, k), _binomials([-1] * (n - 1)))
    return _with_grading(body, n, k, grading)


def nunder_series(n: int, k: int, grading: str = "h") -> ExactRationalFunction:
    """Series of the submodule N(k)under:
    sum_mu f_mu(1) f_mu(v) v^{k(n(mu)-n(mu^t))} / prod_{i=2}^n (1-v^i)."""
    _check_series_input(n, "k", k, 0)
    body = ExactRationalFunction(_graded_numerator(n, k), _binomials(range(2, n + 1)))
    return _with_grading(body, n, k, grading)


def mbar_series(n: int, k: int, grading: str = "h") -> ExactRationalFunction:
    """Series of the quotient module M(k)bar, k >= 1.

    Built from the rearranged form v^{-N} sum_mu f_mu(1) f_mu(v)
    v^{(k-1)(n(mu)-n(mu^t))} / prod_{i=2}^n (1-v^-i); the printed form with
    f_mu(1/v) and shift -(k-1) is checked against this one by the test suite.
    """
    _check_series_input(n, "k", k, 1)
    num = _graded_numerator(n, k - 1).shift((-(n * (n - 1) // 2),))
    body = ExactRationalFunction(num, _binomials(-i for i in range(2, n + 1)))
    return _with_grading(body, n, k, grading)


def munder_series(n: int, k: int, grading: str = "h") -> ExactRationalFunction:
    """Series of the submodule M(k)under, k >= 1:
    sum_mu f_mu(1) f_mu(1/v) v^{k(n(mu)-n(mu^t))} / (1-v)^{n-1}."""
    _check_series_input(n, "k", k, 1)
    body = ExactRationalFunction(_graded_numerator(n, -k).invert_variables(), _binomials([1] * (n - 1)))
    return _with_grading(body, n, k, grading)
