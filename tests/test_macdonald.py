from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from cherpoi.errors import ResourceError
from cherpoi.exact_poly import (
    ExactRationalFunction,
    LaurentPoly,
    rf_equal,
)
from cherpoi.macdonald import (
    ARGUMENT_ORDERS,
    MAX_KOSTKA_N,
    SymmetricFunction,
    _default_order,
    _hhl_column,
    _kostka_column,
    inner_product,
    integral_form_scalar,
    kostka_fake_degree_identity,
    kostka_macdonald,
    kostka_numbers,
    line_bundle_fiber,
    macdonald_J,
    macdonald_P,
    omega,
    omega_factors,
    procesi_fiber,
    to_basis,
)
from cherpoi.partition_core import (
    cells,
    dominance_leq,
    enumerate_partitions,
    nstat,
    transpose,
)
from cherpoi.sn_rep import dim_irr

QT = ("q", "t")
ONE = LaurentPoly.one(QT)


def qp(k):
    return LaurentPoly.var_power(QT, "q", k)


def tp(k):
    return LaurentPoly.var_power(QT, "t", k)


def test_basis_conversion_roundtrip():
    for n in range(1, 6):
        for mu in enumerate_partitions(n):
            f = SymmetricFunction(n, "monomial", {mu: ExactRationalFunction(ONE)})
            g = to_basis(to_basis(f, "power-sum"), "monomial")
            assert set(g.coeffs) == {mu}
            assert rf_equal(g.coeffs[mu], ExactRationalFunction(ONE))


def test_inner_product_power_sums():
    # <p_2, p_2> = 2 (1-q^2)/(1-t^2) for n = 2
    f = SymmetricFunction(2, "power-sum", {(2,): ExactRationalFunction(ONE)})
    val = inner_product(f, f)
    want = ExactRationalFunction(
        LaurentPoly.const(QT, 2) * (ONE - qp(2)), [ONE - tp(2)]
    )
    assert rf_equal(val, want)


def test_macdonald_p_is_unitriangular():
    # full sweep through n = 4; at n = 5 the tail of the dominance order
    # gets expensive, so probe two mid-order columns instead
    cases = [mu for n in range(2, 5) for mu in enumerate_partitions(n)]
    cases += [(2, 2, 1), (3, 2)]
    for mu in cases:
        p = macdonald_P(mu)
        assert rf_equal(p.coefficient(mu), ExactRationalFunction(ONE))
        for lam in p.coeffs:
            assert dominance_leq(lam, mu)


def test_macdonald_p_orthogonality():
    for n in range(2, 5):
        parts = enumerate_partitions(n)
        ps = {mu: macdonald_P(mu) for mu in parts}
        zero = ExactRationalFunction(LaurentPoly.zero(QT))
        for i, mu in enumerate(parts):
            for lam in parts[i + 1 :]:
                assert rf_equal(inner_product(ps[mu], ps[lam]), zero)


def test_order_independence_small_ranks():
    # dominance is a total order for n <= 5, so the linear extension is
    # unique; running the only extension twice pins determinism, and
    # orthogonality plus unit triangularity already determine P uniquely
    for n in range(2, 5):
        order = _default_order(n)
        for mu in enumerate_partitions(n):
            a = macdonald_P(mu)
            b = macdonald_P(mu, order=order)
            assert a.coeffs.keys() == b.coeffs.keys()
            for lam in a.coeffs:
                assert rf_equal(a.coeffs[lam], b.coeffs[lam])


def test_order_independence_first_incomparable_pair():
    # first genuinely different linear extensions occur at n = 6
    order = _default_order(6)
    a, b = (2, 2, 2), (3, 1, 1, 1)
    ia, ib = order.index(a), order.index(b)
    assert abs(ia - ib) == 1
    assert not dominance_leq(a, b) and not dominance_leq(b, a)
    swapped = list(order)
    swapped[ia], swapped[ib] = swapped[ib], swapped[ia]
    target = order[max(ia, ib)]
    p1 = macdonald_P(target)
    p2 = macdonald_P(target, order=tuple(swapped))
    assert p1.coeffs.keys() == p2.coeffs.keys()
    for lam in p1.coeffs:
        assert rf_equal(p1.coeffs[lam], p2.coeffs[lam])


def test_integral_form_scalar():
    # c_(1,1) = (1 - t^2)(1 - t) and c_(2) = (1 - q t)(1 - t)
    assert integral_form_scalar((1, 1)) == (ONE - tp(2)) * (ONE - tp(1))
    assert integral_form_scalar((2,)) == (ONE - qp(1) * tp(1)) * (ONE - tp(1))


def test_macdonald_j_integrality():
    # J coefficients over monomials clear all denominators for n <= 4
    for n in range(2, 5):
        for mu in enumerate_partitions(n):
            j = macdonald_J(mu)
            for lam, coeff in j.coeffs.items():
                poly = coeff.as_poly()
                assert all(
                    Fraction(c).denominator == 1 for c in poly.terms.values()
                ), (mu, lam)


def test_kostka_n2_matrix():
    matrix = kostka_macdonald(2)
    assert matrix.entry((2,), (2,)) == ONE
    assert matrix.entry((1, 1), (2,)) == qp(1)
    assert matrix.entry((2,), (1, 1)) == tp(1)
    assert matrix.entry((1, 1), (1, 1)) == ONE


def test_hhl_column_matches_gram_schmidt():
    # the two routes to K are called directly, bypassing the disk cache and
    # the in-process memo; at n = 5 Gram-Schmidt is expensive, so only the
    # member of each transpose pair that sits lower in dominance order runs
    zero = LaurentPoly.zero(QT)
    cases = [mu for n in range(1, 5) for mu in enumerate_partitions(n)]
    order = _default_order(5)
    cases += [
        mu for mu in order if order.index(mu) <= order.index(transpose(mu))
    ]
    assert len(cases) == 1 + 2 + 3 + 5 + 4
    for mu in cases:
        hhl = _hhl_column(mu)
        reference = _kostka_column(mu)
        for lam in enumerate_partitions(sum(mu)):
            assert hhl[lam] == reference.get(lam, zero), (lam, mu)


def test_kostka_transpose_duality():
    # K_{lam mu}(q,t) = K_{lam^t mu^t}(t,q); every column is built on its own
    swap = {"q": (0, 1), "t": (1, 0)}
    for n in range(1, MAX_KOSTKA_N + 1):
        matrix = kostka_macdonald(n)
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                dual = matrix.entry(transpose(lam), transpose(mu))
                assert matrix.entry(lam, mu) == dual.substitute_monomials(QT, swap)


def test_kostka_bound():
    assert MAX_KOSTKA_N == 7
    with pytest.raises(ResourceError):
        kostka_macdonald(MAX_KOSTKA_N + 1)


def _count_ssyt(shape, content):
    """Semistandard tableaux by brute force: every word of the content,
    laid into the rows of the shape, checked for weak rows and strict
    columns."""
    word = [v for v, m in enumerate(content) for _ in range(m)]
    count = 0
    for filling in set(permutations(word)):
        rows, start = [], 0
        for length in shape:
            rows.append(filling[start : start + length])
            start += length
        weak_rows = all(row[j] <= row[j + 1] for row in rows for j in range(len(row) - 1))
        strict_columns = all(
            rows[i][j] < rows[i + 1][j]
            for i in range(len(rows) - 1)
            for j in range(len(rows[i + 1]))
        )
        count += weak_rows and strict_columns
    return count


def test_kostka_numbers_count_tableaux():
    for n in range(1, 7):
        numbers = kostka_numbers(n)
        parts = enumerate_partitions(n)
        assert set(numbers) == set(parts)
        for lam in parts:
            assert numbers[lam][lam] == 1
            for nu in parts:
                assert numbers[lam][nu] == _count_ssyt(lam, nu), (lam, nu)
                if numbers[lam][nu]:
                    assert dominance_leq(nu, lam)


def test_kostka_specializations():
    for n in range(2, MAX_KOSTKA_N + 1):
        matrix = kostka_macdonald(n)
        one = {"q": Fraction(1), "t": Fraction(1)}
        for mu in enumerate_partitions(n):
            col = 0
            for lam in enumerate_partitions(n):
                entry = matrix.entry(lam, mu)
                assert all(
                    c == int(c) and c >= 0 and all(e >= 0 for e in exps)
                    for exps, c in entry.terms.items()
                )
                value = entry.evaluate(one)
                assert value == dim_irr(lam)
                col += value * dim_irr(lam)
            assert col == factorial(n)


def test_omega_factors():
    # cells of (2): (arm, leg) = (1, 0) and (0, 0) in the s, t weights
    factors = omega_factors((2,))
    vars_st = ("s", "t")
    one = LaurentPoly.one(vars_st)

    def mono(a, b):
        return LaurentPoly.monomial(vars_st, (a, b))

    expected = [
        one - mono(1, -1),
        one - mono(0, 2),
        one - mono(1, 0),
        one - mono(0, 1),
    ]
    assert sorted(map(str, factors)) == sorted(map(str, expected))
    product = one
    for f in factors:
        product = product * f
    assert rf_equal(omega((2,)), ExactRationalFunction(product))


def test_line_bundle_fiber():
    for n in range(2, 5):
        for mu in enumerate_partitions(n):
            fiber = line_bundle_fiber(mu)
            assert fiber == LaurentPoly.monomial(("s", "t"), (nstat(mu), nstat(transpose(mu))))


def test_procesi_fiber_dimension_and_orders():
    assert tuple(ARGUMENT_ORDERS) == ("positional", "swapped")
    for mu in enumerate_partitions(3):
        fiber = procesi_fiber(mu)
        value = fiber.num.evaluate({"s": Fraction(1), "t": Fraction(1)})
        den = Fraction(1)
        for f in fiber.den:
            den *= f.evaluate({"s": Fraction(1), "t": Fraction(1)})
        assert value / den == 6
    with pytest.raises(ValueError):
        procesi_fiber((2,), argument_order="sideways")


def test_procesi_fiber_n2_values():
    vars_st = ("s", "t")
    one = LaurentPoly.one(vars_st)
    s = LaurentPoly.var_power(vars_st, "s", 1)
    t = LaurentPoly.var_power(vars_st, "t", 1)
    assert rf_equal(procesi_fiber((2,)), ExactRationalFunction(one + t))
    assert rf_equal(procesi_fiber((1, 1)), ExactRationalFunction(one + s))


def test_kostka_fake_degree_identity_variants():
    for n in range(2, 5):
        printed = kostka_fake_degree_identity(n, variant="printed")
        lam_variant = kostka_fake_degree_identity(n, variant="lam")
        assert all(printed.values())
        assert not all(lam_variant.values())
    with pytest.raises(ValueError):
        kostka_fake_degree_identity(3, variant="other")
