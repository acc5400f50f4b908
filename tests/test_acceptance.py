"""Acceptance battery: one test per criterion, every comparison exact.

Each test is a self-contained statement of the property it certifies, run
at the full advertised ranges. There are no tolerances anywhere; every
equality below is over Z, Q, or exact Laurent data.
"""

from fractions import Fraction
from math import factorial
from random import Random

from cherpoi.commutative_oracle import (
    coinvariant_multiplicities,
    ideal_power_dims,
    jbar_dims,
    parity_check,
)
from cherpoi.exact_poly import (
    ExactRationalFunction,
    LaurentPoly,
    expand_window,
    q_factorial,
    q_factorial_poly,
    rf_equal,
)
from cherpoi.graded_free import (
    MonomialAlgebra,
    diagonal_idempotent,
    extract_homogeneous_basis,
    random_unipotent_idempotent,
)
from cherpoi.hilbert_series import (
    bigraded_J,
    jbar_closed,
    jbar_via_specialization,
    mbar_series,
    nbar_series,
)
from cherpoi.macdonald import kostka_fake_degree_identity, kostka_macdonald
from cherpoi.partition_core import enumerate_partitions, nstat, num_syt, transpose
from cherpoi.sn_rep import fake_degree, fake_degree_maj

from _reference import image_dims_by_elimination

V = ("v",)
ST = ("s", "t")


def _vpow(k: int) -> LaurentPoly:
    return LaurentPoly.var_power(V, "v", k)


def test_ac01_fake_degree_suite():
    """Hook and maj routes agree, transpose inversion and the factorial sum
    hold, for every partition of n <= 8."""
    for n in range(1, 9):
        parts = enumerate_partitions(n)
        big_n = n * (n - 1) // 2
        total = LaurentPoly.zero(V)
        for mu in parts:
            f = fake_degree(mu)
            assert f == fake_degree_maj(mu)
            assert f.invert_variables().shift((big_n,)) == fake_degree(transpose(mu))
            total = total + f.invert_variables() * num_syt(mu)
        qfac = q_factorial_poly(n).invert_variables()
        assert total == qfac


def test_ac02_coinvariant_oracle():
    """Brute-force graded multiplicities in the coinvariant algebra equal the
    fake-degree coefficients for n <= 4."""
    for n in range(2, 5):
        mults = coinvariant_multiplicities(n)
        expected: dict[int, dict] = {}
        for mu in enumerate_partitions(n):
            for exps, coeff in fake_degree(mu).terms.items():
                expected.setdefault(exps[0], {})[mu] = int(coeff)
        assert mults == expected


def test_ac03_kostka_macdonald_sanity():
    """For n <= 5 all Kostka coefficients lie in N[q,t], specialize at
    q = t = 1 to irreducible dimensions with column sums n!, and the n = 2
    matrix is [[1, q], [t, 1]]."""
    one = {"q": Fraction(1), "t": Fraction(1)}
    for n in range(2, 6):
        matrix = kostka_macdonald(n)
        for mu in enumerate_partitions(n):
            column_sum = 0
            for lam in enumerate_partitions(n):
                poly = matrix.entry(lam, mu)
                assert all(
                    coeff > 0 and coeff.denominator == 1
                    and all(e >= 0 for e in exps)
                    for exps, coeff in poly.terms.items()
                ), f"K[{lam},{mu}] is not in N[q,t]: {poly}"
                value = poly.evaluate(one)
                assert value == num_syt(lam)
                column_sum += value * num_syt(lam)
            assert column_sum == factorial(n)
    m2 = kostka_macdonald(2)
    q = LaurentPoly.var_power(("q", "t"), "q", 1)
    t = LaurentPoly.var_power(("q", "t"), "t", 1)
    one_p = LaurentPoly.one(("q", "t"))
    assert m2.entry((2,), (2,)) == one_p
    assert m2.entry((1, 1), (2,)) == q
    assert m2.entry((2,), (1, 1)) == t
    assert m2.entry((1, 1), (1, 1)) == one_p


def test_ac04_trivial_target_collapse():
    """The full weighted sum over partitions collapses to the bigraded series
    of the polynomial ring, 1/((1-s)(1-t))^(n-1), for n = 2, 3, 4."""
    s = LaurentPoly.var_power(ST, "s", 1)
    t = LaurentPoly.var_power(ST, "t", 1)
    one = LaurentPoly.one(ST)
    for n in range(2, 5):
        target = ExactRationalFunction(
            one, ((one - s), (one - t)) * (n - 1)
        )
        assert rf_equal(bigraded_J(n, 0), target)


def test_ac05_oracle_vs_formula():
    """Windowed expansion of the closed bigraded series equals the
    brute-force ideal-power dimension table: n = 2 for d <= 3 on a 10 x 10
    window, n = 3 for d <= 2 with total degree <= 8."""
    grids = [(2, 3, (10, 10), None), (3, 2, (8, 8), 8)]
    for n, d_max, window, total in grids:
        for d in range(d_max + 1):
            table = ideal_power_dims(n, d, window, total)
            series = expand_window(
                bigraded_J(n, d), "ascending", ((0, window[0]), (0, window[1]))
            )
            for (a, b), dim in sorted(table.table.items()):
                assert series.coefficient((a, b)) == dim, (n, d, a, b)


def test_ac06_jbar_chain():
    """The closed quotient series matches the specialization route for
    n <= 5, d <= 3, and its expansion matches the oracle's certified
    diagonal sums for n <= 3, d <= 2."""
    for n in range(2, 6):
        for d in range(4):
            assert rf_equal(jbar_closed(n, d), jbar_via_specialization(n, d)), (n, d)
    grids = [(2, (8, 8), None), (3, (7, 7), 10)]
    for n, window, total in grids:
        for d in range(3):
            result = jbar_dims(n, d, window, total)
            sums = result.saturated_sums()
            assert sums, f"no certified diagonals for n={n}, d={d}"
            series = expand_window(
                jbar_closed(n, d), "descending", (min(sums), max(sums))
            )
            for g, value in sums.items():
                assert series.coefficient((g,)) == value, (n, d, g)


def test_ac07_shifted_quotient_matches_direct_series():
    """v^(kN) times the closed quotient series equals the independently
    built direct series in the E-grading, for n <= 5, k <= 3."""
    for n in range(2, 6):
        big_n = n * (n - 1) // 2
        for k in range(4):
            left = jbar_closed(n, k) * _vpow(k * big_n)
            right = nbar_series(n, k, "E")
            assert rf_equal(left, right), (n, k)


def test_ac08_factorial_quotient():
    """The symmetrized series equals v^(kN) times the closed series one step
    down, divided by the v-factorial, for n <= 5 and 1 <= k <= 3."""
    for n in range(2, 6):
        big_n = n * (n - 1) // 2
        for k in range(1, 4):
            left = mbar_series(n, k, "E")
            right = jbar_closed(n, k - 1) * _vpow(k * big_n) / q_factorial(n)
            assert rf_equal(left, right), (n, k)


def test_ac09_parity():
    """The correct-parity isotypic part of each ideal power equals the
    alternant filtration on the oracle window, n <= 3, d <= 3."""
    for n in range(2, 4):
        for d in range(4):
            assert parity_check(n, d, (6, 6), 8) is True, (n, d)


def test_ac10_graded_free_extractor():
    """Identity and projection idempotents return exact bases; 50 seeded
    random unipotent-conjugated projections over k[x] and k[x,y] at cutoff
    12 extract free bases whose Hilbert function matches the image in every
    certified degree. The image's Hilbert function is eliminated here, not
    read off the extractor, whose image_dims are the trace of E."""
    algebra = MonomialAlgebra(2, 12)
    identity = diagonal_idempotent(algebra, (2, 1, 0), (1, 1, 1))
    assert sorted(p.degree for p in extract_homogeneous_basis(identity).generators) == [0, 1, 2]

    line = MonomialAlgebra(1, 12)
    projection = diagonal_idempotent(line, (1, 0, 0), (1, 0, 1))
    assert sorted(p.degree for p in extract_homogeneous_basis(projection).generators) == [0, 1]

    rng = Random(1729)
    for trial in range(50):
        alg = line if trial < 25 else algebra
        size = rng.randint(2, 4)
        shifts = tuple(
            sorted((rng.randint(0, 3) for _ in range(size)), reverse=True)
        )
        rank = rng.randint(0, size)
        idem = random_unipotent_idempotent(alg, shifts, rank, rng)
        result = extract_homogeneous_basis(idem)
        assert len(result.generators) == rank
        degrees = [p.degree for p in result.generators]
        image = image_dims_by_elimination(idem, result.horizon)
        assert result.image_dims == image, trial
        for g in range(min(shifts), result.horizon + 1):
            free_count = sum(alg.dim(g - e) for e in degrees)
            assert image[g] == free_count, (trial, g)


def test_ac11_identity_variants():
    """Of the two readings of the graded character identity, exactly one
    holds for every partition of n <= 5, and the surviving reading is the
    one the quotient-series chain is built on."""
    verdicts = {}
    for variant in ("printed", "lam"):
        verdicts[variant] = all(
            ok
            for n in range(2, 6)
            for ok in kostka_fake_degree_identity(n, variant).values()
        )
    assert sum(verdicts.values()) == 1, verdicts
    assert verdicts["printed"] is True
    # the surviving reading is the one jbar_via_specialization computes
    # with, so the chain equality must close with it
    assert rf_equal(jbar_closed(3, 1), jbar_via_specialization(3, 1))
