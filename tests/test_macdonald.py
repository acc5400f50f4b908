from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial

import pytest
import sympy
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from cherpoi.errors import ResourceError
from cherpoi.exact_poly import (
    ExactRationalFunction,
    LaurentPoly,
    _add_into,
    _mul_packed,
    _pack,
)
from cherpoi.macdonald import (
    MAX_KOSTKA_N,
    KostkaMacdonaldMatrix,
    _hhl_columns,
    integral_form_scalar,
    kostka_fake_degree_identity,
    kostka_macdonald,
    kostka_numbers,
    omega_factors,
    procesi_fiber,
)
from cherpoi.partition_core import (
    dominance_leq,
    enumerate_partitions,
    num_syt,
    transpose,
)
from cherpoi.sn_rep import centralizer_order, character_table
from cherpoi.suites_macdonald import _swapped_fiber

from _reference import (
    charge,
    fake_degree_identity_by_reading,
    hhl_column_by_enumeration,
    reading_word,
    semistandard_tableaux,
    swapped_fiber,
)


QT = ("q", "t")
ONE = LaurentPoly.one(QT)


def qp(k):
    return LaurentPoly.var_power(QT, "q", k)


def tp(k):
    return LaurentPoly.var_power(QT, "t", k)


def test_integral_form_scalar():
    # c_(1,1) = (1 - t^2)(1 - t) and c_(2) = (1 - q t)(1 - t)
    assert integral_form_scalar((1, 1)) == (ONE - tp(2)) * (ONE - tp(1))
    assert integral_form_scalar((2,)) == (ONE - qp(1) * tp(1)) * (ONE - tp(1))


def test_kostka_n2_matrix():
    matrix = kostka_macdonald(2)
    assert matrix.entry((2,), (2,)) == ONE
    assert matrix.entry((1, 1), (2,)) == qp(1)
    assert matrix.entry((2,), (1, 1)) == tp(1)
    assert matrix.entry((1, 1), (1, 1)) == ONE


# ---------------------------------------------------------------------------
# K against Macdonald's definition (Symmetric Functions and Hall Polynomials,
# 2nd ed., VI (8.11)), as identities in Z[q,t] on int dicts keyed by
# LaurentPoly's packed exponents; test_exact_poly pins _mul_packed against
# the tuple reference ref_mul
# ---------------------------------------------------------------------------


@cache
def _p_to_m(n):
    """p_rho = sum_lam _p_to_m(n)[rho][lam] m_lam: p_rho expanded as a
    polynomial in n variables, read at the exponents of each lam."""
    parts = enumerate_partitions(n)
    out = {}
    for rho in parts:
        poly = {0: 1}
        for r in rho:
            poly = _mul_packed(poly, {_pack([r if j == i else 0 for j in range(n)]): 1 for i in range(n)})
        out[rho] = {lam: poly.get(_pack(lam + (0,) * (n - len(lam))), 0) for lam in parts}
    return out


def _one_minus(exps):
    return {0: 1, _pack(exps): -1}


def _product(factors):
    acc = {0: 1}
    for f in factors:
        acc = _mul_packed(acc, f)
    return acc


def _power_sum_data(matrix):
    """A_rho(mu) = sum_lam K_{lam mu} chi_lam(rho) and w_rho = n!/z_rho."""
    parts = matrix.partitions
    table = character_table(matrix.n)
    a = {}
    for rho in parts:
        for mu in parts:
            acc = {}
            for lam in parts:
                chi = table.values[(lam, rho)]
                if chi:
                    _add_into(acc, matrix.entries[(lam, mu)].packed, chi)
            a[rho, mu] = acc
    w = {rho: factorial(matrix.n) // centralizer_order(rho) for rho in parts}
    return a, w


def _scaled_j(matrix, a, w):
    """[m_nu](n! J_mu) = sum_rho w_rho T_rho A_rho(mu) [m_nu]p_rho, keyed (nu, mu),
    with T_rho = prod_i (1 - t^{rho_i})."""
    parts = matrix.partitions
    p2m = _p_to_m(matrix.n)
    out = {}
    for mu in parts:
        terms = {rho: _mul_packed(_product(_one_minus((0, r)) for r in rho), a[rho, mu]) for rho in parts}
        for nu in parts:
            acc = {}
            for rho in parts:
                if p2m[rho][nu]:
                    _add_into(acc, terms[rho], w[rho] * p2m[rho][nu])
            out[nu, mu] = acc
    return out


def _definition_failures(matrix) -> set[str]:
    """The identities of the definition that K violates.

    J_mu = sum_lam K_{lam mu} s_lam[X(1-t)] must be triangular in dominance
    order with [m_mu]J_mu = c_mu, integral in the monomial basis, and
    orthogonal: n! <J_lam, J_mu> = sum_rho w_rho prod_i (1-q^{rho_i})(1-t^{rho_i})
    A_rho(lam) A_rho(mu) = 0 for lam != mu. Since A_rho(mu) = sum_kappa
    K_{kappa mu} chi_kappa(rho), that pairing is sum_kappa K_{kappa mu} n!
    <J_lam, s_kappa[X(1-t)]>, and the second factors are sums over rho with
    no product: five times fewer term products at n = 7.
    """
    n, parts = matrix.n, matrix.partitions
    a, w = _power_sum_data(matrix)
    j = _scaled_j(matrix, a, w)
    failures = set()
    for (nu, mu), coeff in j.items():
        if coeff and not dominance_leq(nu, mu):
            failures.add("triangularity")
        if any(c % factorial(n) for c in coeff.values()):
            failures.add("integrality")
    for mu in parts:
        lead = {e: factorial(n) * c for e, c in integral_form_scalar(mu).packed.items()}
        if j[mu, mu] != lead:
            failures.add("leading term")
    qt = {rho: _product(_one_minus(e) for r in rho for e in ((r, 0), (0, r))) for rho in parts}
    chi = character_table(n).values
    for i, lam in enumerate(parts):
        weighted = {rho: _mul_packed(qt[rho], a[rho, lam]) for rho in parts}
        against_s = {}  # kappa -> n! <J_lam, s_kappa[X(1-t)]>
        for kappa in parts:
            acc = {}
            for rho in parts:
                if chi[(kappa, rho)]:
                    _add_into(acc, weighted[rho], w[rho] * chi[(kappa, rho)])
            against_s[kappa] = acc
        for mu in parts[i + 1 :]:
            pairing = {}
            for kappa in parts:
                _add_into(pairing, _mul_packed(against_s[kappa], matrix.entries[(kappa, mu)].packed))
            if pairing:
                failures.add("orthogonality")
    return failures


@pytest.mark.parametrize("n", range(1, MAX_KOSTKA_N + 1))
def test_kostka_macdonald_satisfies_the_definition(n):
    # the conditions fix P_mu for the dominance order itself, not for a
    # chosen linear extension, so they also pin order independence, from the
    # first incomparable pair (2,2,2), (3,1,1,1) at n = 6 on
    assert _definition_failures(kostka_macdonald(n)) == set()


def _mutant(matrix, entries):
    return KostkaMacdonaldMatrix(matrix.n, matrix.partitions, {**matrix.entries, **entries})


def test_definition_rejects_corrupted_kostka():
    matrix = kostka_macdonald(5)
    parts = matrix.partitions
    a, b = (3, 2), (2, 2, 1)
    bumped = _mutant(matrix, {(a, b): matrix.entries[(a, b)] + ONE})
    swap = {"q": (0, 1), "t": (1, 0)}
    flipped = _mutant(matrix, {(lam, a): matrix.entries[(lam, a)].substitute_monomials(QT, swap) for lam in parts})
    exchanged = _mutant(
        matrix,
        {(lam, x): matrix.entries[(lam, y)] for lam in parts for x, y in ((a, b), (b, a))},
    )
    assert _definition_failures(bumped) == {"triangularity", "leading term", "orthogonality"}
    assert _definition_failures(flipped) == {"triangularity", "leading term", "orthogonality"}
    # J_a and J_b trade places, so every pair stays orthogonal
    assert _definition_failures(exchanged) == {"triangularity", "leading term"}
    # the unmodified matrix, next to its mutants, passes
    assert _definition_failures(matrix) == set()


def _sympy_m_in_p(n):
    """[p_rho] m_lam at entry (lam, rho), rows and columns in enumeration order:
    sympy's inverse of p_rho expanded in n variables."""
    xs = sympy.symbols(f"x1:{n + 1}")
    parts = enumerate_partitions(n)

    def exponents(lam):
        return tuple(lam) + (0,) * (n - len(lam))

    p_in_m = sympy.Matrix(
        [
            [
                sympy.Poly(sympy.Mul(*(sum(x**r for x in xs) for r in rho)), *xs).coeff_monomial(exponents(lam))
                for lam in parts
            ]
            for rho in parts
        ]
    )
    return p_in_m.inv()


def _sympy_gram_schmidt_P(n):
    """P_mu for every mu |- n by Gram-Schmidt on the monomial basis, in sympy.

    Dominance is a total order for n <= 5, so the unitriangular orthogonal
    basis is unique.
    """
    q, t = sympy.symbols("q t")
    field = QQ.frac_field(q, t)
    parts = enumerate_partitions(n)  # largest first
    m_in_p = _sympy_m_in_p(n)
    norms = []
    for rho in parts:
        z = sympy.prod(i ** rho.count(i) * sympy.factorial(rho.count(i)) for i in set(rho))
        norms.append(field.from_sympy(z * sympy.prod((1 - q**r) / (1 - t**r) for r in rho)))
    k = len(parts)
    gram = [
        [sum((field.convert(m_in_p[i, r] * m_in_p[j, r]) * norms[r] for r in range(k)), field.zero) for j in range(k)]
        for i in range(k)
    ]
    out = {}
    for i, mu in enumerate(parts):
        lower = range(i + 1, k)
        coeffs = {mu: field.one}
        if lower:
            system = DomainMatrix([[gram[a][b] for a in lower] for b in lower], (len(lower), len(lower)), field)
            rhs = DomainMatrix([[-gram[i][b]] for b in lower], (len(lower), 1), field)
            solution = system.lu_solve(rhs).to_Matrix()
            coeffs.update({parts[a]: field.from_sympy(solution[c, 0]) for c, a in enumerate(lower)})
        out[mu] = {lam: c for lam, c in coeffs.items() if c}
    return field, out


def _rf_to_sympy(rf):
    q, t = sympy.symbols("q t")

    def poly(p):
        return sum(sympy.Rational(c) * q**a * t**b for (a, b), c in p.terms.items())

    return poly(rf.num) / sympy.prod(poly(f) for f in rf.den)


def test_hhl_column_matches_gram_schmidt():
    # HHL is called directly, bypassing kostka_macdonald's in-process memo,
    # and each column is read off its own fillings, not its conjugate's.
    # K is read off the sympy reference: with J_mu = c_mu P_mu,
    # K_{lam mu} = sum_rho chi_lam(rho) [p_rho]J_mu / prod_i (1-t^{rho_i})
    q, t = sympy.symbols("q t")
    for n in range(1, 5):
        field, reference = _sympy_gram_schmidt_P(n)
        m_in_p = _sympy_m_in_p(n)
        parts = enumerate_partitions(n)
        table = character_table(n)
        for mu, p_mu in reference.items():
            c_mu = field.from_sympy(_rf_to_sympy(ExactRationalFunction(integral_form_scalar(mu))))
            j_in_p = [
                sum((field.convert(m_in_p[parts.index(nu), r]) * c_mu * c for nu, c in p_mu.items()), field.zero)
                for r in range(len(parts))
            ]
            hhl = _hhl_columns(mu)[mu]
            for lam in parts:
                want = field.zero
                for r, rho in enumerate(parts):
                    t_rho = field.from_sympy(sympy.prod(1 - t**k for k in rho))
                    want += field.convert(table.values[(lam, rho)]) * j_in_p[r] / t_rho
                assert field.from_sympy(_rf_to_sympy(ExactRationalFunction(hhl[lam]))) == want, (lam, mu)


def test_both_columns_of_every_conjugate_pair_match_the_enumeration():
    # kostka_macdonald counts only one shape of each pair, by row
    # transfer, and reads its conjugate's column off it; the reference
    # enumerates every filling of both shapes on its own
    for n in range(1, 8):
        matrix = kostka_macdonald(n)
        for mu in matrix.partitions:
            column = hhl_column_by_enumeration(mu)
            assert {lam: matrix.entries[(lam, mu)] for lam in matrix.partitions} == column, mu


def test_kostka_transpose_duality():
    # K_{lam mu}(q,t) = K_{lam^t mu^t}(t,q); the build reads each column of a
    # conjugate pair off the other through K~_{lam mu^t}(q,t) = K~_{lam mu}(t,q),
    # so this tests how the two symmetries fit together, not either alone
    swap = {"q": (0, 1), "t": (1, 0)}
    for n in range(1, MAX_KOSTKA_N + 1):
        matrix = kostka_macdonald(n)
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                dual = matrix.entry(transpose(lam), transpose(mu))
                assert matrix.entry(lam, mu) == dual.substitute_monomials(QT, swap)


def test_kostka_bound():
    assert MAX_KOSTKA_N == 8
    with pytest.raises(ResourceError):
        kostka_macdonald(MAX_KOSTKA_N + 1)


def _charge_failures(matrix, top_first=True):
    """The (lam, mu) at which K_{lam mu}(0,t) is not the sum of t^charge(T)
    over the semistandard tableaux T of shape lam and content mu, which is
    the Kostka-Foulkes polynomial K_{lam mu}(t) (Lascoux-Schutzenberger;
    Macdonald, III.6 and VI.8): a route that shares nothing with the
    filling counts."""
    failures = set()
    for lam in matrix.partitions:
        for mu in matrix.partitions:
            tableaux = semistandard_tableaux(lam, mu)
            want = Counter(charge(reading_word(tableau, top_first)) for tableau in tableaux)
            at_q_zero = {b: c for (a, b), c in matrix.entries[(lam, mu)].terms.items() if a == 0}
            if at_q_zero != dict(want):
                failures.add((lam, mu))
    return failures


@pytest.mark.parametrize("n", range(1, MAX_KOSTKA_N + 1))
def test_kostka_at_q_zero_is_the_charge_generating_function(n):
    assert _charge_failures(kostka_macdonald(n)) == set()


def test_the_charge_check_rejects_corrupted_kostka():
    matrix = kostka_macdonald(4)
    parts = matrix.partitions
    mu = (2, 1, 1)
    swap = {"q": (0, 1), "t": (1, 0)}
    flipped = _mutant(matrix, {(lam, mu): matrix.entries[(lam, mu)].substitute_monomials(QT, swap) for lam in parts})
    bumped = _mutant(matrix, {((3, 1), mu): matrix.entries[((3, 1), mu)] + tp(2)})
    # the column reads t^3, t + t^2 + q t^3, t + q t^2, 1 + q t + q t^2, q
    # down lam = (4), ..., (1,1,1,1); swapped, only (2,1,1) keeps its q-free part
    assert _charge_failures(flipped) == {(lam, mu) for lam in parts if lam != mu}
    assert _charge_failures(bumped) == {((3, 1), mu)}
    assert _charge_failures(matrix, top_first=False) != set()
    assert _charge_failures(matrix) == set()


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


@pytest.mark.parametrize("n", range(1, 9))
def test_kostka_numbers_match_the_character_route(n):
    # s_lam = sum_rho chi_lam(rho) p_rho / z_rho, read in the monomial basis
    parts = enumerate_partitions(n)
    chi = character_table(n).values
    p2m = _p_to_m(n)
    want = {
        lam: {nu: sum(Fraction(chi[(lam, rho)] * p2m[rho][nu], centralizer_order(rho)) for rho in parts) for nu in parts}
        for lam in parts
    }
    assert kostka_numbers(n) == want


def test_kostka_specializations():
    for n in range(2, MAX_KOSTKA_N + 1):
        matrix = kostka_macdonald(n)
        for mu in enumerate_partitions(n):
            col = 0
            for lam in enumerate_partitions(n):
                entry = matrix.entry(lam, mu)
                assert all(
                    c == int(c) and c >= 0 and all(e >= 0 for e in exps)
                    for exps, c in entry.terms.items()
                )
                value = sum(entry.terms.values())  # the entry at q = t = 1
                assert value == num_syt(lam)
                col += value * num_syt(lam)
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
    want = one
    for f in expected:
        want = want * f
    assert product == want


def test_procesi_fiber_dimension_and_orders():
    for mu in enumerate_partitions(3):
        fiber = procesi_fiber(mu)
        assert isinstance(fiber, LaurentPoly)
        assert sum(fiber.terms.values()) == 6
    # one reading of K: the memo door takes mu and nothing else
    with pytest.raises(TypeError):
        procesi_fiber((2,), "swapped")


def test_procesi_fiber_n2_values():
    vars_st = ("s", "t")
    one = LaurentPoly.one(vars_st)
    s = LaurentPoly.var_power(vars_st, "s", 1)
    t = LaurentPoly.var_power(vars_st, "t", 1)
    assert procesi_fiber((2,)) == one + t
    assert procesi_fiber((1, 1)) == one + s


def test_kostka_fake_degree_identity_variants():
    for n in range(2, 5):
        readings = kostka_fake_degree_identity(n)
        assert all(readings["printed"].values())
        assert not all(readings["lam"].values())


@pytest.mark.parametrize("n", range(1, 8))
def test_one_pass_fake_degree_identity_matches_each_reading_alone(n):
    assert kostka_fake_degree_identity(n) == {
        "printed": fake_degree_identity_by_reading(n, "printed"),
        "lam": fake_degree_identity_by_reading(n, "lam"),
    }


def _swapped_fiber_mismatches(fiber) -> list:
    """The mu, over every n <= MAX_KOSTKA_N, whose fiber(mu) is not the
    swapped reading read straight off K."""
    return [
        mu
        for n in range(1, MAX_KOSTKA_N + 1)
        for mu in enumerate_partitions(n)
        if fiber(mu) != swapped_fiber(mu)
    ]


def test_the_argument_order_control_reads_the_swapped_fiber():
    assert _swapped_fiber_mismatches(_swapped_fiber) == []


def test_the_swapped_fiber_comparison_rejects_a_missing_st_shift():
    def unshifted(mu):
        # the substitution s -> 1/t, t -> 1/s without the (st)^{n(mu)} factor
        return procesi_fiber(mu).substitute_monomials(("s", "t"), {"s": (0, -1), "t": (-1, 0)})

    # caught at every mu but the one-row shapes, whose n(mu) is 0
    every = [mu for n in range(1, MAX_KOSTKA_N + 1) for mu in enumerate_partitions(n)]
    assert _swapped_fiber_mismatches(unshifted) == [mu for mu in every if len(mu) > 1]
