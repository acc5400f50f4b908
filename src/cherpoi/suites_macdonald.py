"""Macdonald suites: kostka, omega-specialization, jbar-chain.

Kostka-Macdonald positivity and specializations, the trivial collapse of the
fixed-point sum and its argument order, and the chain from the closed J-bar
series to the specialization of the bigraded J series.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .report import _verdict

ST = ("s", "t")


def _natural_coeffs(poly) -> bool:
    return all(
        c >= 0 and all(e >= 0 for e in exps)
        for exps, c in poly.terms.items()
    )


def _suite_kostka(p):
    from .exact_poly import LaurentPoly
    from .macdonald import kostka_fake_degree_identity, kostka_macdonald
    from .partition_core import num_syt

    n_max = p.get("n_max", 5)
    items = []
    for n in range(2, n_max + 1):
        def positivity(n=n):
            matrix = kostka_macdonald(n)
            bad = {
                key: str(poly)
                for key, poly in matrix.entries.items()
                if not _natural_coeffs(poly)
            }
            return _verdict(not bad), bad, {}

        def specialization(n=n):
            matrix = kostka_macdonald(n)
            one = {"q": Fraction(1), "t": Fraction(1)}
            left = {}
            right = {}
            for (lam, mu), poly in matrix.entries.items():
                left[(lam, mu)] = poly.evaluate(one)
                right[(lam, mu)] = Fraction(num_syt(lam))
            for mu in matrix.partitions:
                column = sum(
                    matrix.entry(lam, mu).evaluate(one) * num_syt(lam)
                    for lam in matrix.partitions
                )
                left[("column-sum", mu)] = column
                right[("column-sum", mu)] = Fraction(factorial(n))
            ok = left == right
            return _verdict(ok), left, right

        def variants(n=n):
            printed = kostka_fake_degree_identity(n, variant="printed")
            lam = kostka_fake_degree_identity(n, variant="lam")
            exactly_one = all(printed.values()) != all(lam.values())
            return _verdict(exactly_one), {"printed": printed}, {"lam": lam}

        items.append((f"positivity-n{n}", positivity))
        items.append((f"specialization-n{n}", specialization))
        items.append((f"fake-degree-variants-n{n}", variants))
    if n_max >= 2:
        def two_matrix():
            got = kostka_macdonald(2).entries
            q = LaurentPoly.var_power(("q", "t"), "q", 1)
            t = LaurentPoly.var_power(("q", "t"), "t", 1)
            one = LaurentPoly.one(("q", "t"))
            want = {
                ((2,), (2,)): one,
                ((1, 1), (2,)): q,
                ((2,), (1, 1)): t,
                ((1, 1), (1, 1)): one,
            }
            return _verdict(got == want), got, want

        items.append(("two-by-two-matrix", two_matrix))
    return items


def _collapse_target(n: int):
    from .exact_poly import ExactRationalFunction, LaurentPoly

    one = LaurentPoly.one(ST)
    s1 = one - LaurentPoly.var_power(ST, "s", 1)
    t1 = one - LaurentPoly.var_power(ST, "t", 1)
    return ExactRationalFunction(one, [s1, t1] * (n - 1))


def _suite_omega_specialization(p):
    # bigraded_J's module, loaded before any check's clock
    from . import macdonald  # noqa: F401
    from .exact_poly import rf_equal
    from .hilbert_series import bigraded_J

    n_max = p.get("n_max", 4)
    items = []
    for n in range(2, n_max + 1):
        def collapse(n=n):
            left = bigraded_J(n, 0)
            right = _collapse_target(n)
            return _verdict(rf_equal(left, right)), left, right

        items.append((f"trivial-collapse-n{n}", collapse))
    for n in range(2, min(n_max, 3) + 1):
        def order_protocol(n=n):
            target = _collapse_target(n)
            outcome = {
                order: rf_equal(bigraded_J(n, 0, order), target)
                for order in ("positional", "swapped")
            }
            want = {"positional": True, "swapped": False}
            return _verdict(outcome == want), outcome, want

        items.append((f"argument-order-n{n}", order_protocol))
    return items


def _suite_jbar_chain(p):
    # jbar_via_specialization's module, loaded before any check's clock
    from . import macdonald  # noqa: F401
    from .exact_poly import rf_equal
    from .hilbert_series import jbar_closed, jbar_via_specialization

    n_max = p.get("n_max", 5)
    d_max = p.get("d_max", 3)
    items = []
    for n in range(2, n_max + 1):
        for d in range(d_max + 1):
            def chain(n=n, d=d):
                left = jbar_closed(n, d)
                right = jbar_via_specialization(n, d)
                return _verdict(rf_equal(left, right)), left, right

            items.append((f"closed-vs-specialization-n{n}-d{d}", chain))
    return items
