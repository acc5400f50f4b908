from fractions import Fraction
from math import comb

import pytest

from cherpoi.exact_poly import (
    CExponent,
    ExactRationalFunction,
    LaurentPoly,
    expand_window,
    q_factorial,
    rf_equal,
)
from cherpoi.hilbert_series import (
    GRADINGS,
    bigraded_J,
    bigraded_JJ,
    canonical_weight,
    e_standard_series,
    jbar_closed,
    jbar_via_specialization,
    mbar_series,
    munder_series,
    nbar_series,
    nunder_series,
    shift_amount,
    sign_first_occurrence,
    standard_series_W,
    triv_first_occurrence,
)
from cherpoi.partition_core import enumerate_partitions, nstat, num_syt, transpose
from cherpoi.sn_rep import fake_degree
from cherpoi.suites_macdonald import _collapse_target

V = ("v",)
ST = ("s", "t")
ONE_V = LaurentPoly.one(V)


def vp(k):
    return LaurentPoly.var_power(V, "v", k)


def big_n(n):
    return n * (n - 1) // 2


def st_target(n):
    one = LaurentPoly.one(ST)
    s1 = one - LaurentPoly.var_power(ST, "s", 1)
    t1 = one - LaurentPoly.var_power(ST, "t", 1)
    return ExactRationalFunction(one, [s1, t1] * (n - 1))


def test_canonical_weight():
    assert canonical_weight((3,)) == CExponent(Fraction(1), -3)
    assert canonical_weight((1, 1, 1)) == CExponent(Fraction(1), 3)
    assert canonical_weight((2, 1)) == CExponent(Fraction(1), 0)


def test_shift_amount():
    assert shift_amount(2, 2, (3, 1)) == 0
    assert shift_amount(3, 1, (3,)) == 2 * (0 - 3)
    assert shift_amount(1, 0, (2, 1)) == 0
    with pytest.raises(ValueError):
        shift_amount(0, 1, (2, 1))
    # couplings are ints proper: a float or a bool once passed as one
    with pytest.raises(TypeError, match="i and j"):
        shift_amount(1.5, 0.5, (3,))
    with pytest.raises(TypeError, match="i and j"):
        shift_amount(True, 0, (2, 1))


def test_standard_series_first_occurrences():
    for n in range(2, 6):
        for mu in enumerate_partitions(n):
            series = standard_series_W(mu)
            sign = series.components[(1,) * n]
            assert min(sign.num.terms) == (nstat(transpose(mu)),)
            triv = series.components[(n,)]
            assert min(triv.num.terms) == (nstat(mu),)
            offset = CExponent(Fraction(nstat(transpose(mu))), 0)
            assert sign_first_occurrence(mu) == canonical_weight(mu) + offset
            offset = CExponent(Fraction(nstat(mu)), 0)
            assert triv_first_occurrence(mu) == canonical_weight(mu) + offset


def test_standard_series_total_dimension():
    for n in range(2, 5):
        for mu in enumerate_partitions(n):
            series = standard_series_W(mu)
            total = ExactRationalFunction(LaurentPoly.zero(V))
            for lam, component in series.components.items():
                total = total + component * num_syt(lam)
            want = ExactRationalFunction(
                LaurentPoly.const(V, num_syt(mu)),
                [ONE_V - vp(1)] * (n - 1),
            )
            assert rf_equal(total, want)


def test_e_standard_series_examples():
    series = e_standard_series((2,))
    assert series.prefix == CExponent(Fraction(1, 2), -1)
    assert rf_equal(series.body, ExactRationalFunction(ONE_V, [ONE_V - vp(2)]))
    for n in range(2, 6):
        col = e_standard_series((1,) * n)
        assert min(col.body.num.terms) == (big_n(n),)


def test_bigraded_jj_relation():
    one = LaurentPoly.one(ST)
    cross = (one - LaurentPoly.var_power(ST, "s", 1)) * (
        one - LaurentPoly.var_power(ST, "t", 1)
    )
    for n in (2, 3):
        for d in (0, 1):
            assert rf_equal(bigraded_JJ(n, d) * cross, bigraded_J(n, d))
    box = expand_window(bigraded_JJ(2, 0), "ascending", ((0, 2), (0, 2)))
    assert box.coefficient((0, 0)) == 1


def test_bigraded_j_largest_oracle_window_fits_the_expansion_budget():
    # bigraded_J(4, 0) on (24, 24) is the largest comparison the oracle's
    # caps allow; expand_window raises ResourceError past _EXPANSION_BUDGET
    box = expand_window(bigraded_J(4, 0), "ascending", ((0, 24), (0, 24)))
    assert box.terms == {(a, b): comb(a + 2, 2) * comb(b + 2, 2) for a in range(25) for b in range(25)}


def test_bigraded_j_trivial_target():
    for n in (2, 3, 4):
        assert rf_equal(bigraded_J(n, 0), st_target(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bigraded_j_argument_order_selects_the_collapse(n):
    target = _collapse_target(n)
    assert rf_equal(bigraded_J(n, 0, "positional"), target)
    assert not rf_equal(bigraded_J(n, 0, "swapped"), target)


def test_bigraded_j_rejects_an_unknown_argument_order():
    with pytest.raises(ValueError, match="argument_order"):
        bigraded_J(2, 0, "reversed")


def test_jbar_closed_n2():
    want = ExactRationalFunction(ONE_V + vp(1), [ONE_V - vp(-1)])
    assert rf_equal(jbar_closed(2, 0), want)
    # general d: (v^d + v^{-1-d})(1+v)/(1-v^{-2})
    for d in range(4):
        num = (vp(d) + vp(-1 - d)) * (ONE_V + vp(1))
        want = ExactRationalFunction(num, [ONE_V - vp(-2)])
        assert rf_equal(jbar_closed(2, d), want)


def test_jbar_chain():
    for n in range(2, 6):
        for d in range(4):
            assert rf_equal(jbar_closed(n, d), jbar_via_specialization(n, d))


def test_rank_one_rejected():
    with pytest.raises(ValueError):
        jbar_closed(1, 0)
    with pytest.raises(ValueError):
        nbar_series(1, 0)
    with pytest.raises(ValueError):
        bigraded_J(1, 0)


TWISTED_SERIES = [
    jbar_closed, jbar_via_specialization, bigraded_JJ, bigraded_J,
    nbar_series, nunder_series, mbar_series, munder_series,
]


@pytest.mark.parametrize("series", TWISTED_SERIES)
@pytest.mark.parametrize("n, k", [(2, True), (2, 1.0), (2, 1.5), (True, 1), (2.0, 1), (Fraction(2), 1)])
def test_series_refuse_a_bool_or_float_for_an_int(series, n, k):
    # True once passed for k = 1, and 1.0 failed deep in the exponent check
    series(2, 1)
    with pytest.raises(TypeError, match="must be ints"):
        series(n, k)


def test_gradings():
    assert GRADINGS == ("h", "E")
    with pytest.raises(ValueError):
        nbar_series(2, 1, "f")


def test_nbar_series():
    # k = 0 h-grading coincides with the d = 0 quotient series
    for n in range(2, 6):
        assert rf_equal(nbar_series(n, 0, "h"), jbar_closed(n, 0))
    # E over h ratio is exactly v^{kN}
    for n in (2, 3, 4):
        for k in (1, 2):
            shift = ExactRationalFunction(vp(k * big_n(n)))
            assert rf_equal(nbar_series(n, k, "E"), nbar_series(n, k, "h") * shift)


def test_nbar_matches_shifted_quotient():
    for n in range(2, 6):
        for k in range(4):
            lhs = jbar_closed(n, k) * vp(k * big_n(n))
            assert rf_equal(lhs, nbar_series(n, k, "E"))


def test_nunder_series():
    # n=2, k=0: (1+v)/(1-v^2) = 1/(1-v)
    got = nunder_series(2, 0)
    want = ExactRationalFunction(ONE_V, [ONE_V - vp(1)])
    assert rf_equal(got, want)
    # numerator counts group elements at v = 1 (denominators vanish there,
    # so only the numerator is evaluated)
    for n in range(2, 6):
        total = sum(num_syt(mu) ** 2 for mu in enumerate_partitions(n))
        series = nunder_series(n, 0)
        assert series.num.evaluate({"v": Fraction(1)}) == total


def test_nbar_rearrangement_identity():
    # the same series through the inverted-variable arrangement
    for n in range(2, 5):
        for k in range(3):
            direct = nbar_series(n, k, "h")
            total = ExactRationalFunction(LaurentPoly.zero(V))
            den = [ONE_V - vp(-1)] * (n - 1)
            for mu in enumerate_partitions(n):
                shift = k * (nstat(mu) - nstat(transpose(mu)))
                num = fake_degree(mu) * LaurentPoly.const(V, num_syt(mu)) * vp(shift)
                total = total + ExactRationalFunction(num, den)
            assert rf_equal(direct, total)


def test_mbar_series():
    with pytest.raises(ValueError):
        mbar_series(2, 0)
    # n=2, k=1 h-grading: (1+v^{-1})/(1-v^{-2}) = 1/(1-v^{-1})
    got = mbar_series(2, 1, "h")
    want = ExactRationalFunction(ONE_V, [ONE_V - vp(-1)])
    assert rf_equal(got, want)


def test_mbar_factorial_quotient():
    for n in range(2, 6):
        for k in (1, 2, 3):
            lhs = mbar_series(n, k, "E")
            rhs = jbar_closed(n, k - 1) * vp(k * big_n(n)) / q_factorial(n)
            assert rf_equal(lhs, rhs)


def test_munder_series():
    with pytest.raises(ValueError):
        munder_series(2, 0)
    # n=2, k=1: (1 + v^{-1})/(1 - v), not 2/(1 - v)
    got = munder_series(2, 1, "h")
    want = ExactRationalFunction(ONE_V + vp(-1), [ONE_V - vp(1)])
    assert rf_equal(got, want)
    two = ExactRationalFunction(LaurentPoly.const(V, 2), [ONE_V - vp(1)])
    assert not rf_equal(got, two)


def test_munder_e_grading_ratio():
    for n in (2, 3):
        for k in (1, 2):
            shift = ExactRationalFunction(vp(k * big_n(n)))
            assert rf_equal(munder_series(n, k, "E"), munder_series(n, k, "h") * shift)
