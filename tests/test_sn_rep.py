from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
import sympy
from hypothesis import given, strategies as st

from cherpoi.exact_poly import LaurentPoly, q_factorial_poly
from cherpoi.partition_core import enumerate_partitions, enumerate_syt, hooks, nstat, num_syt, transpose
from cherpoi.errors import ResourceError
from cherpoi.sn_rep import (
    MAX_TABLE_N,
    centralizer_order,
    character_table,
    character_value,
    class_average,
    fake_degree,
    fake_degree_maj,
    kronecker,
)

from _reference import character_by_partitions

V = ("v",)


def test_character_table_s3():
    table = character_table(3)
    values = {
        ((3,), (1, 1, 1)): 1,
        ((2, 1), (1, 1, 1)): 2,
        ((1, 1, 1), (1, 1, 1)): 1,
        ((2, 1), (2, 1)): 0,
        ((2, 1), (3,)): -1,
        ((1, 1, 1), (2, 1)): -1,
    }
    for (mu, rho), want in values.items():
        assert table.chi(mu, rho) == want


def test_character_value_murnaghan_nakayama():
    assert character_value((4, 1), (5,)) == -1
    assert character_value((3, 2), (1, 1, 1, 1, 1)) == 5
    assert character_value((2, 2), (2, 2)) == 2


@pytest.mark.parametrize("n", range(1, 11))
def test_character_value_matches_the_recursion_on_partitions(n):
    # a sign slip or a wrong bead move in the beta-set recursion changes
    # some value against the route that reads a partition back at each step
    parts = enumerate_partitions(n)
    for lam in parts:
        for rho in parts:
            assert character_value(lam, rho) == character_by_partitions(lam, rho), (lam, rho)


def test_centralizers_and_signs():
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((3,)) == 3
    assert centralizer_order((2, 1)) == 2


@given(st.integers(1, 7))
def test_class_equation(n):
    assert sum(factorial(n) // centralizer_order(r) for r in enumerate_partitions(n)) == factorial(n)


@given(st.integers(1, 6))
def test_character_orthogonality(n):
    table = character_table(n)
    parts = table.partitions
    for lam in parts:
        for mu in parts:
            inner = sum(
                Fraction(table.chi(lam, rho) * table.chi(mu, rho), centralizer_order(rho))
                for rho in parts
            )
            assert inner == (1 if lam == mu else 0)


def test_class_average_certifies_a_nonnegative_integer():
    n = 4
    chi = character_table(n).values
    assert class_average(n, lambda rho: 1, "the trivial multiplicity") == 1
    for lam in enumerate_partitions(n):
        assert class_average(n, lambda rho: chi[(lam, rho)] ** 2, "a norm") == 1
    # 1 on the identity class alone averages to 1/n!
    with pytest.raises(ArithmeticError, match="the identity indicator is not a nonnegative integer: 1/24"):
        class_average(n, lambda rho: int(rho == (1,) * n), "the identity indicator")
    with pytest.raises(ArithmeticError, match="minus the trivial character .*: -1"):
        class_average(n, lambda rho: -1, "minus the trivial character")


def test_num_syt_matches_identity_column():
    # the number of standard tableaux is the dimension of the irreducible
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            assert num_syt(mu) == character_value(mu, (1,) * n)


def test_kronecker_and_tensor():
    # sign (x) sign = triv for S_3
    assert kronecker((1, 1, 1), (1, 1, 1), (3,)) == 1
    assert kronecker((1, 1, 1), (1, 1, 1), (2, 1)) == 0
    decomp = {nu: k for nu in enumerate_partitions(3) if (k := kronecker((2, 1), (2, 1), nu))}
    assert decomp == {(3,): 1, (2, 1): 1, (1, 1, 1): 1}


def test_sign_appears_only_in_transpose_tensor():
    for n in range(2, 6):
        sign = (1,) * n
        for mu in enumerate_partitions(n):
            for nu in enumerate_partitions(n):
                mult = kronecker(mu, nu, sign)
                assert mult == (1 if nu == transpose(mu) else 0)


def test_fake_degree_examples():
    assert fake_degree((3,)) == LaurentPoly.one(V)
    assert fake_degree((1, 1, 1)) == LaurentPoly.var_power(V, "v", 3)
    f21 = fake_degree((2, 1))
    assert f21 == LaurentPoly.var_power(V, "v", 1) + LaurentPoly.var_power(V, "v", 2)


@given(st.integers(1, 7))
def test_fake_degree_properties(n):
    total = LaurentPoly.zero(V)
    for mu in enumerate_partitions(n):
        f = fake_degree(mu)
        # hook route equals the maj route
        assert f == fake_degree_maj(mu)
        # lowest exponent is n(mu), the coefficient sum counts tableaux
        assert min(f.terms) == (nstat(mu),)
        assert sum(f.terms.values()) == num_syt(mu)
        total = total + f * num_syt(mu)
    # graded dimension of the coinvariant algebra
    assert total == q_factorial_poly(n)


@given(st.integers(1, 7))
def test_fake_degree_transpose_inversion(n):
    big_n = n * (n - 1) // 2
    shift = LaurentPoly.var_power(V, "v", big_n)
    for mu in enumerate_partitions(n):
        assert fake_degree(mu) == shift * fake_degree(transpose(mu)).invert_variables()


def _coefficients(f: LaurentPoly) -> dict[int, int]:
    return {e: c for (e,), c in f.terms.items()}


@pytest.mark.parametrize("n", range(1, 9))
def test_maj_recursion_matches_tableau_enumeration(n):
    # enumerate_syt and Tableau.maj are the definition the recursion must meet
    for mu in enumerate_partitions(n):
        assert _coefficients(fake_degree_maj(mu)) == Counter(t.maj for t in enumerate_syt(mu))


@pytest.mark.parametrize("n", range(1, 7))
def test_fake_degree_matches_sympy_cancel(n):
    v = sympy.Symbol("v")
    for mu in enumerate_partitions(n):
        quotient = sympy.cancel(
            v ** nstat(mu)
            * sympy.prod([1 - v**i for i in range(1, n + 1)])
            / sympy.prod([1 - v**h for h in hooks(mu)])
        )
        want = {e: int(c) for (e,), c in sympy.Poly(quotient, v).terms()}
        assert _coefficients(fake_degree(mu)) == want


def _binomials(exponents) -> LaurentPoly:
    """prod (1 - v^e) over the exponents, multiplied out."""
    one, out = LaurentPoly.one(V), LaurentPoly.one(V)
    for e in exponents:
        out = out * (one - LaurentPoly.var_power(V, "v", e))
    return out


@pytest.mark.parametrize("n", range(1, 11))
def test_fake_degree_matches_the_uncancelled_quotient(n):
    # multiplied back, no division: f_mu prod_h (1 - v^h) = v^n(mu) prod_i (1 - v^i)
    for mu in enumerate_partitions(n):
        num = LaurentPoly.monomial(V, (nstat(mu),)) * _binomials(range(1, n + 1))
        assert fake_degree(mu) * _binomials(hooks(mu)) == num


@pytest.mark.parametrize("n", range(1, MAX_TABLE_N + 1))
def test_binomial_hook_quotient_matches_divexact(n):
    # the same product with the factors that {1..n} and the hooks share
    # cancelled as multisets, up to the largest table
    span = Counter(range(1, n + 1))
    for mu in enumerate_partitions(n):
        hook_count = Counter(hooks(mu))
        num = LaurentPoly.monomial(V, (nstat(mu),)) * _binomials((span - hook_count).elements())
        assert fake_degree(mu) * _binomials((hook_count - span).elements()) == num


def test_character_table_bounds():
    with pytest.raises(ValueError):
        character_table(0)
    with pytest.raises(ResourceError):
        character_table(13)
