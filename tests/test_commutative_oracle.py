"""Brute-force oracle checks: small frozen tables plus structural laws."""

import itertools
import sys
from fractions import Fraction
from math import comb, factorial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cherpoi import commutative_oracle as oracle
from cherpoi._linalg import EchelonSpan
from cherpoi.commutative_oracle import (
    BigradedDims,
    _engine,
    _window_cells,
    class_representative,
    coinvariant_multiplicities,
    ideal_power_dims,
    jbar_dims,
    parity_check,
    perm_sign,
)
from cherpoi.errors import ResourceError
from cherpoi.exact_poly import _add_into, expand_window, q_factorial_poly
from cherpoi.hilbert_series import jbar_closed
from cherpoi.partition_core import enumerate_partitions, num_syt
from cherpoi.sn_rep import fake_degree

from _reference import ref_mul


def _matmul(a, b):
    m = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(m))
        for i in range(m)
    )


def _identity(m):
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


def _det(a):
    m = len(a)
    if m == 1:
        return a[0][0]
    total = 0
    for j in range(m):
        minor = tuple(row[:j] + row[j + 1 :] for row in a[1:])
        total += (-1) ** j * a[0][j] * _det(minor)
    return total


def _transpositions(n):
    """The adjacent transpositions s_1..s_{n-1} as permutations."""
    out = []
    for k in range(n - 1):
        perm = list(range(n))
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
        out.append(tuple(perm))
    return out


def _side_matrices(perm, n):
    """The matrices of sigma on h and on h*, read off the linear forms that the
    engine multiplies: column j holds the u-coordinates of sigma(u_{j+1}),
    respectively the w-coordinates of sigma(w_{j+1})."""
    m = n - 1
    forms = oracle._Engine(n)._linear_images(perm)
    mats = []
    for side in range(2):
        keys = [oracle._origin(side * m + i, 1) for i in range(m)]
        cols = forms[side * m : (side + 1) * m]
        assert all(set(col) <= set(keys) for col in cols)  # no side mixes into the other
        mats.append(tuple(tuple(col.get(k, 0) for col in cols) for k in keys))
    return tuple(mats)


def test_reflection_generators_frozen_n3():
    on_h, on_h_dual = zip(*(_side_matrices(p, 3) for p in _transpositions(3)))
    assert on_h == (((-1, 1), (0, 1)), ((1, 0), (1, -1)))
    assert on_h_dual == (((-1, 0), (1, 1)), ((1, 1), (0, -1)))


def test_reflection_generators_are_involutions_with_det_minus_one():
    for n in range(2, 5):
        eye = _identity(n - 1)
        for p in _transpositions(n):
            for g in _side_matrices(p, n):
                assert _matmul(g, g) == eye
                assert _det(g) == -1


def test_coxeter_braid_and_commutation():
    for side in range(2):
        s = [_side_matrices(p, 4)[side] for p in _transpositions(4)]
        eye = _identity(3)
        for i in range(2):
            prod = _matmul(s[i], s[i + 1])
            assert _matmul(prod, _matmul(prod, prod)) == eye
        far = _matmul(s[0], s[2])
        assert _matmul(far, far) == eye


def test_action_is_a_homomorphism_and_det_is_the_sign():
    for n in range(2, oracle.MAX_ACTION_N + 1):
        generators = [_side_matrices(tau, n) for tau in _transpositions(n)]
        for sigma in itertools.permutations(range(n)):
            mats = _side_matrices(sigma, n)
            for g in mats:
                assert _det(g) == perm_sign(sigma)
            for tau, gens in zip(_transpositions(n), generators):
                comp = _side_matrices(tuple(sigma[t] for t in tau), n)
                for side in range(2):
                    assert comp[side] == _matmul(mats[side], gens[side])


def test_dual_action_preserves_the_pairing():
    for n in range(2, oracle.MAX_ACTION_N + 1):
        eye = _identity(n - 1)
        for sigma in itertools.permutations(range(n)):
            on_h, on_h_dual = _side_matrices(sigma, n)
            assert _matmul(tuple(zip(*on_h_dual)), on_h) == eye


def test_u_images_are_the_permuted_differences():
    """sum_i M[i][j] (x_i - x_{i+1}) = x_{sigma(j)} - x_{sigma(j+1)}; with the
    pairing this pins both sides of the action."""
    for n in range(2, oracle.MAX_ACTION_N + 1):
        for sigma in itertools.permutations(range(n)):
            on_h = _side_matrices(sigma, n)[0]
            for j in range(n - 1):
                x = [0] * n
                for i in range(n - 1):
                    x[i] += on_h[i][j]
                    x[i + 1] -= on_h[i][j]
                assert x == [(k == sigma[j]) - (k == sigma[j + 1]) for k in range(n)]


def test_class_representatives():
    for n in range(2, 6):
        for rho in enumerate_partitions(n):
            rep = class_representative(rho, n)
            assert sorted(rep) == list(range(n))
            assert perm_sign(rep) == (-1) ** (n - len(rho))


def _alternants_dims(n, window, total=None):
    """dim A^1 per cell of the window, read off the engine's A^1 bases."""
    return {(a, b): len(_engine(n).a_basis(1, a, b)) for a, b in _window_cells(*window, total)}


def test_alternants_corner_dims():
    cases = [(2, (4, 4), None), (3, (4, 4), None), (4, (6, 6), 8)]
    for n, window, total in cases:
        dims = _alternants_dims(n, window, total)
        big_n = n * (n - 1) // 2
        assert dims[(0, 0)] == 0
        assert dims[(big_n, 0)] == 1
        assert dims[(0, big_n)] == 1
        for a in range(big_n):
            assert dims[(a, 0)] == 0


def test_ideal_power_zero_is_the_full_ring():
    for n in (2, 3):
        m = n - 1
        dims = ideal_power_dims(n, 0, (4, 4))
        for (a, b), value in dims.table.items():
            assert value == comb(a + m - 1, m - 1) * comb(b + m - 1, m - 1)


def test_ideal_powers_frozen_n2():
    j1 = ideal_power_dims(2, 1, (3, 3))
    for (a, b), value in j1.table.items():
        assert value == (0 if a + b == 0 else 1)
    j2 = ideal_power_dims(2, 2, (3, 3))
    for (a, b), value in j2.table.items():
        assert value == (0 if a + b < 2 else 1)


def test_ideal_power_chain_is_decreasing_and_contains_delta_powers():
    for n in (2, 3):
        big_n = n * (n - 1) // 2
        tables = [ideal_power_dims(n, d, (4, 4)).table for d in range(4)]
        for prev, nxt in zip(tables, tables[1:]):
            for cell, value in prev.items():
                assert nxt[cell] <= value
        for d in range(4):
            col = ideal_power_dims(n, d, (d * big_n, 0))
            assert col.dim(d * big_n, 0) >= 1
    assert ideal_power_dims(4, 1, (6, 0), total=6).dim(6, 0) == 1


def test_alternants_sit_inside_the_first_ideal_power():
    for n in (2, 3):
        alts = _alternants_dims(n, (4, 4))
        j1 = ideal_power_dims(n, 1, (4, 4))
        for cell, value in alts.items():
            assert value <= j1.table[cell]


def test_parity_check_small_grid():
    for n in (2, 3):
        for d in range(4):
            assert parity_check(n, d, (4, 4)) is True
    for d in (0, 1):
        assert parity_check(4, d, (4, 4), total=8) is True


def test_jbar_dims_frozen_n2_d0():
    result = jbar_dims(2, 0, (6, 6))
    for (a, b), value in result.quotient.table.items():
        assert value == (1 if a <= 1 else 0)
    assert result.sums[1] == 1
    assert all(result.sums[g] == 0 for g in range(2, 7))
    assert all(result.sums[g] == 2 for g in range(-5, 1))
    assert result.saturated[-6] is False
    assert result.sums[-6] == 1
    sat = result.saturated_sums()
    assert -6 not in sat
    assert sat[0] == 2 and sat[-5] == 2 and sat[1] == 1


def test_jbar_saturated_diagonals_match_the_closed_form():
    for d in range(3):
        result = jbar_dims(2, d, (6, 6))
        sat = result.saturated_sums()
        assert sat, "no certified diagonals"
        lo, hi = min(sat), max(sat)
        series = expand_window(jbar_closed(2, d), "descending", (lo, hi))
        for g, total in sat.items():
            assert series.coefficient((g,)) == total


def test_coinvariant_multiplicities_frozen():
    assert coinvariant_multiplicities(2) == {0: {(2,): 1}, 1: {(1, 1): 1}}
    assert coinvariant_multiplicities(3) == {
        0: {(3,): 1},
        1: {(2, 1): 1},
        2: {(2, 1): 1},
        3: {(1, 1, 1): 1},
    }


def test_coinvariant_multiplicities_match_fake_degrees():
    for n in range(2, 6):
        mults = coinvariant_multiplicities(n)
        for mu in enumerate_partitions(n):
            f = fake_degree(mu)
            for deg in range(n * (n - 1) // 2 + 1):
                expected = f.coefficient((deg,))
                assert mults.get(deg, {}).get(mu, 0) == expected


def test_coinvariant_degree_totals_match_the_q_factorial():
    for n in range(2, 6):
        mults = coinvariant_multiplicities(n)
        qfac = q_factorial_poly(n)
        for deg, row in mults.items():
            total = sum(num_syt(mu) * mult for mu, mult in row.items())
            assert total == qfac.coefficient((deg,))
        assert sum(
            num_syt(mu) * m for row in mults.values() for mu, m in row.items()
        ) == factorial(n)


def test_bigraded_dims_validation_and_helpers():
    dims = BigradedDims(2, 2, None, {(0, 0): 1, (1, 0): 2, (0, 2): 1})
    assert dims.dim(1, 0) == 2
    assert dims.dim(5, 5) == 0
    with pytest.raises(ValueError):
        BigradedDims(1, 1, None, {(1, 0): -1})
    with pytest.raises(ValueError):
        BigradedDims(1, 1, None, {(0, 0): 2})
    # an immutable value
    other = BigradedDims(2, 2, None, {(0, 0): 1, (1, 0): 2, (0, 2): 1})
    assert dims == other
    with pytest.raises(AttributeError):
        dims.amax = 3


def test_argument_validation():
    with pytest.raises(ValueError):
        ideal_power_dims(1, 0, (2, 2))
    with pytest.raises(ValueError):
        ideal_power_dims(2, -1, (2, 2))
    with pytest.raises(ValueError):
        ideal_power_dims(2, 0, (-1, 2))
    with pytest.raises(ValueError):
        ideal_power_dims(2, 0, (2, 2), total=-1)
    with pytest.raises(ValueError):
        coinvariant_multiplicities(1)


def test_budget_limits():
    with pytest.raises(ResourceError):
        ideal_power_dims(5, 0, (2, 2))
    with pytest.raises(ResourceError):
        ideal_power_dims(2, 4, (2, 2))
    with pytest.raises(ResourceError):
        ideal_power_dims(4, 1, (2, 2))  # no total cap
    with pytest.raises(ResourceError):
        ideal_power_dims(4, 1, (2, 2), total=9)
    with pytest.raises(ResourceError):
        ideal_power_dims(4, 2, (2, 2), total=8)
    with pytest.raises(ResourceError):
        ideal_power_dims(2, 0, (25, 0))
    with pytest.raises(ResourceError, match="n <= 3"):
        jbar_dims(4, 0, (2, 2), total=8)
    with pytest.raises(ResourceError):
        coinvariant_multiplicities(6)


@pytest.mark.parametrize("window, total", [
    ((2, 2), 1.5), ((2, 2), True), ((2, 2), Fraction(2)), ((2.0, 2), None), ((2, False), None),
])
@pytest.mark.parametrize("operation", [ideal_power_dims, jbar_dims, parity_check])
def test_window_bounds_and_totals_must_be_ints(operation, window, total):
    with pytest.raises(TypeError, match="must be ints"):
        operation(2, 0, window, total)


@pytest.mark.parametrize("n, d", [(2.0, 0), (True, 0), (Fraction(2), 0), (2, 1.0), (2, True), (2, "1")])
@pytest.mark.parametrize("operation", [ideal_power_dims, jbar_dims, parity_check])
def test_n_and_d_must_be_ints(operation, n, d):
    # a float equal to an int would otherwise pass for that int, or fail deep
    # in the engine; True is no int here either
    with pytest.raises(TypeError, match="n and d must be ints"):
        operation(n, d, (2, 2))


@pytest.mark.parametrize("n", [3.0, True, Fraction(3), "3"])
def test_the_coinvariant_n_must_be_an_int(n):
    with pytest.raises(TypeError, match="n must be an int"):
        coinvariant_multiplicities(n)


def test_bad_input_is_told_apart_from_a_budget():
    # the input check raises no ResourceError, even past a cap, and a value
    # past a cap that is also bad input is reported as bad input
    oracle._check_bigraded_input(5, 4, (30, 30), None)
    with pytest.raises(ValueError, match="window bounds must be nonnegative"):
        ideal_power_dims(5, 0, (-1, 2))
    with pytest.raises(ValueError, match="total-degree cap must be nonnegative"):
        parity_check(4, 2, (2, 2), -1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_power_sums_are_n_to_the_k_times_the_sum_of_powers(n):
    # the reference writes x_i = sum_j ([j >= i] - j/n) u_j with Fraction
    # coefficients on tuple keys and clears n^k at the end
    units = [tuple(int(r == j) for r in range(n - 1)) for j in range(n - 1)]
    xs = [
        {units[j - 1]: Fraction(int(j >= i)) - Fraction(j, n) for j in range(1, n)}
        for i in range(1, n + 1)
    ]
    for k in range(n + 1):
        total = {}
        for x in xs:
            power = {(0,) * (n - 1): Fraction(1)}
            for _ in range(k):
                power = ref_mul(power, x)
            _add_into(total, power)
        reference = {e: c * n**k for e, c in total.items()}
        assert all(c.denominator == 1 for c in reference.values())
        pk = oracle._power_sum_poly(n, k)
        assert all(type(c) is int for c in pk.values()), (n, k)
        decoded = {_decode(key, n - 1): c for key, c in pk.items()}
        assert decoded == {(e, 0): c for e, c in reference.items()}, (n, k)

def test_every_exponent_fits_its_key_slot():
    # two monomials share a packed key, or a product carries into the next
    # variable, once an exponent reaches 2**_SLOT_BITS
    width = 2**oracle._SLOT_BITS
    assert oracle.MAX_WINDOW_BOUND + 4 < width  # jbar_dims's +4 window
    n = oracle.MAX_ACTION_N
    assert n * (n - 1) // 2 < width  # the top coinvariant degree


@pytest.mark.parametrize("n", [2, 3, 4])
def test_molien_counts_are_the_ranks_of_all_symmetrized_monomials(n):
    # the count at which a_basis and parity_check stop, against the rank of
    # every monomial's image with no stop
    eng = oracle._Engine(n)
    for a, b in _window_cells(6, 6, 8 if n == 4 else None):
        for d, sign in ((0, 1), (1, -1)):
            span = EchelonSpan()
            for e in eng.cell(a, b)[0]:
                img = eng.symmetrized({e: 1}, sign)
                if img:
                    span.add(eng.to_vec(img, a, b))
            assert oracle._molien_dim(n, d, a, b) == span.rank, (d, a, b)


def test_a_molien_count_one_short_changes_the_ideal_table(monkeypatch):
    # A^1(3, 0) at n = 3 is the line of the Vandermonde; a count of 0 there
    # drops it, and the J^1 table shows it
    assert oracle._molien_dim(3, 1, 3, 0) == 1
    true_count = oracle._molien_dim
    eng = oracle._Engine(3)
    monkeypatch.setattr(oracle, "_engine", lambda n: eng)
    monkeypatch.setattr(
        oracle,
        "_molien_dim",
        lambda n, d, a, b: true_count(n, d, a, b) - ((n, d, a, b) == (3, 1, 3, 0)),
    )
    table = ideal_power_dims(3, 1, (6, 6), 8).table
    assert table != _frozen_table(J3_FROZEN[1])
    assert table[(3, 0)] == 0


# n = 3 tables on the bench's (6, 6) window with total 8: rows a = 0..6,
# columns b = 0..min(6, 8 - a)
J3_FROZEN = {
    0: [[1, 2, 3, 4, 5, 6, 7], [2, 4, 6, 8, 10, 12, 14], [3, 6, 9, 12, 15, 18, 21],
        [4, 8, 12, 16, 20, 24], [5, 10, 15, 20, 25], [6, 12, 18, 24], [7, 14, 21]],
    1: [[0, 0, 0, 1, 2, 3, 4], [0, 1, 3, 5, 7, 9, 11], [0, 3, 6, 9, 12, 15, 18],
        [1, 5, 9, 13, 17, 21], [2, 7, 12, 17, 22], [3, 9, 15, 21], [4, 11, 18]],
    2: [[0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 3, 5], [0, 0, 1, 3, 6, 9, 12],
        [0, 0, 3, 7, 11, 15], [0, 1, 6, 11, 16], [0, 3, 9, 15], [1, 5, 12]],
}

# jbar_dims(3, d, (6, 6), 8): sums on diagonals 6, 5, ..., -6 and the
# saturated diagonals
JBAR3_FROZEN = {
    0: ([0, 0, 0, 1, 4, 9, 15, 21, 27, 26, 31, 20, 7], {-2, -1, 0, 1, 2, 3, 4, 5, 6}),
    1: ([1, 2, 3, 4, 7, 12, 17, 19, 24, 20, 25, 14, 4], {0, 1, 2, 3, 4, 5, 6}),
    2: ([1, 4, 6, 6, 10, 11, 17, 13, 18, 10, 14, 5, 1], {2, 4}),
}


def _frozen_table(rows):
    return {(a, b): value for a, row in enumerate(rows) for b, value in enumerate(row)}


@pytest.mark.parametrize("d", sorted(J3_FROZEN))
def test_ideal_powers_frozen_n3(d):
    assert ideal_power_dims(3, d, (6, 6), 8).table == _frozen_table(J3_FROZEN[d])


@pytest.mark.parametrize("d", sorted(JBAR3_FROZEN))
def test_jbar_dims_frozen_n3(d):
    result = jbar_dims(3, d, (6, 6), 8)
    sums, saturated = JBAR3_FROZEN[d]
    assert result.sums == dict(zip(range(6, -7, -1), sums))
    assert {g for g, ok in result.saturated.items() if ok} == saturated
    assert set(result.saturated) == set(range(-6, 7))


def _jbar_by_window_sums(n, d, window, total):
    """The full saturation certificate: the quotient dimension of every cell
    of the +4 window, and a diagonal is saturated when its sums over the
    base, +2 and +4 windows agree. Returns (sums, saturated, table)."""
    eng = _engine(n)
    amax, bmax = window
    big_total = None if total is None else total + 4
    qdim = {}
    for a, b in _window_cells(amax + 4, bmax + 4, big_total):
        jdim = len(eng.j_basis(d, a, b))
        if jdim == 0:
            qdim[(a, b)] = 0
            continue
        span = eng._invariant_multiples(a, b, lambda a, b: eng.j_basis(d, a, b))
        qdim[(a, b)] = jdim - span.rank

    def window_sums(extra):
        t = None if total is None else total + extra
        sums = {}
        for a, b in _window_cells(amax + extra, bmax + extra, t):
            sums[a - b] = sums.get(a - b, 0) + qdim[(a, b)]
        return sums

    base, plus2, plus4 = window_sums(0), window_sums(2), window_sums(4)
    saturated = {g: base[g] == plus2.get(g, 0) == plus4.get(g, 0) for g in base}
    table = {c: qdim[c] for c in _window_cells(amax, bmax, total)}
    return base, saturated, table


JBAR_GRIDS = [
    (2, (6, 6), None),
    (2, (8, 8), None),
    (3, (3, 3), 5),
    (3, (4, 4), 6),
    (3, (6, 6), 8),
    (3, (5, 2), None),
]


@pytest.mark.parametrize("n, window, total", JBAR_GRIDS)
def test_jbar_dims_equal_the_full_window_sum_certificate(n, window, total):
    for d in range(3):
        result = jbar_dims(n, d, window, total)
        sums, saturated, table = _jbar_by_window_sums(n, d, window, total)
        assert result.sums == sums, d
        assert result.saturated == saturated, d
        assert result.quotient.table == table, d
        assert False in saturated.values(), d


def _count_invariant_multiples(monkeypatch, eng, override=None):
    """Record the cells of eng._invariant_multiples's calls; `override`
    may replace the span a call returns."""
    calls = []
    real = eng._invariant_multiples

    def counting(a, b, lower):
        calls.append((a, b))
        span = real(a, b, lower)
        return override(a, b, span) if override else span

    monkeypatch.setattr(eng, "_invariant_multiples", counting)
    return calls


def test_jbar_dims_spans_only_the_cells_a_verdict_reads(monkeypatch):
    eng = oracle._Engine(3)
    monkeypatch.setattr(oracle, "_engine", lambda n: eng)
    calls = _count_invariant_multiples(monkeypatch, eng)
    jbar_dims(3, 2, (6, 6), 8)
    assert len(calls) == 38
    assert all(-6 <= a - b <= 6 for a, b in calls)


# (diagonal, cell): a saturated diagonal of jbar_dims(3, 2, (6, 6), 8) and
# its cell of the +4 window that lies outside the +2 window
@pytest.mark.parametrize("g, cell", [(2, (7, 5)), (4, (8, 4))])
def test_a_nonzero_outer_ring_cell_unsaturates_its_diagonal(monkeypatch, g, cell):
    clean = jbar_dims(3, 2, (6, 6), 8)
    saturated = {h for h, ok in clean.saturated.items() if ok}
    assert g in saturated
    eng = oracle._Engine(3)
    monkeypatch.setattr(oracle, "_engine", lambda n: eng)

    # a rank one short at `cell`: quotient dimension 1 where it is 0
    calls = _count_invariant_multiples(
        monkeypatch,
        eng,
        lambda a, b, span: SimpleNamespace(rank=span.rank - 1) if (a, b) == cell else span,
    )
    mutant = jbar_dims(3, 2, (6, 6), 8)
    assert cell in calls
    assert mutant.sums == clean.sums
    assert {h for h, ok in mutant.saturated.items() if ok} == saturated - {g}


def test_parity_check_frozen_n3():
    assert [parity_check(3, d, (6, 6), 8) for d in range(4)] == [True] * 4


def test_parity_check_refuses_the_wrong_parity(monkeypatch):
    # a symmetrizer of the wrong parity puts the other isotypic part of J^d
    # against A^d, which has other dimensions; the mutant keeps its images
    # apart from the ones A^d is spanned from
    eng = oracle._Engine(2)
    monkeypatch.setattr(oracle, "_engine", lambda n: eng)
    image = oracle._cell_image
    monkeypatch.setattr(oracle, "_cell_image", lambda eng, images, f, sign: image(eng, {}, f, -sign))
    assert [parity_check(2, d, (4, 4)) for d in range(3)] == [False] * 3


def _capped_engine(monkeypatch, cap):
    """A fresh n = 2 engine behind _engine, storing at most cap basis entries."""
    eng = oracle._Engine(2)
    monkeypatch.setattr(oracle, "_engine", lambda n: eng)
    monkeypatch.setattr(oracle, "_ENTRY_CAP", cap)
    return eng


def test_the_entry_budget_keeps_the_finished_cells(monkeypatch):
    # J^1 at n = 2 on (5, 5) stores 37 basis entries; a cap of 15 stops the
    # closure partway, and the cells finished before it are the uncapped ones
    uncapped = _capped_engine(monkeypatch, oracle._ENTRY_CAP)
    full = ideal_power_dims(2, 1, (5, 5)).table
    assert uncapped._entries == 37
    _capped_engine(monkeypatch, 15)
    with pytest.raises(ResourceError, match="exceeded 15 entries") as caught:
        ideal_power_dims(2, 1, (5, 5))
    partial = caught.value.partial
    assert partial and len(partial) < len(full)
    assert partial == {cell: full[cell] for cell in partial}


def test_a_tripped_entry_budget_skips_the_oracle_checks(monkeypatch):
    from cherpoi.verifier_cli import run_suite

    _capped_engine(monkeypatch, 0)
    report = run_suite("oracle-J", {"n": 2, "d_max": 1, "window": (5, 5)})
    assert [c.verdict for c in report.checks] == ["skipped", "skipped"]
    assert all("oracle basis store exceeded 0 entries" in c.left for c in report.checks)
    assert report.status == "partial" and report.exit_code == 2


# -- the engine's candidate rules, each on a fresh _Engine(3), so that no
#    result depends on what ran before in the process


def test_full_cells_never_build_their_invariants(monkeypatch):
    eng = oracle._Engine(3)
    monkeypatch.setattr(oracle, "_engine", lambda n: eng)
    ideal_power_dims(3, 0, (4, 4))
    assert len(eng._jbasis) == 25
    assert [key for key in eng._abasis if key[0] == 0] == [(0, 0, 0)]


def _decode(key: int, width: int) -> tuple[tuple[int, ...], int]:
    """(e, i) with key = sum_r _origin(r, e_r) + _origin(width, i). A packed
    monomial key decodes to its exponent tuple and i = 0; a packed origin
    names the monomial and the index of its A^d element."""
    mask = (1 << oracle._SLOT_BITS) - 1
    e = tuple((key >> (oracle._SLOT_BITS * r)) & mask for r in range(width))
    return e, key >> (oracle._SLOT_BITS * width)


def _tuple_keyed(eng, poly):
    """An engine polynomial with its packed keys decoded to exponent tuples."""
    out = {}
    for key, c in poly.items():
        e, rest = _decode(key, eng.width)
        assert rest == 0, key
        out[e] = c
    return out


def _tuple_vec(eng, poly, a, b):
    """The column vector of a tuple-keyed polynomial in cell (a, b)."""
    index = {_decode(key, eng.width)[0]: i for i, key in enumerate(eng.cell(a, b)[0])}
    return {index[e]: c for e, c in poly.items()}


def test_alternant_squares_have_the_rank_of_all_ordered_products():
    # a_basis(2) keeps products only, so equal ranks mean equal spans
    eng = oracle._Engine(3)
    for a, b in itertools.product(range(7), repeat=2):
        span = EchelonSpan()
        for ap, bp in itertools.product(range(a + 1), range(b + 1)):
            for f in eng.a_basis(1, ap, bp):
                for g in eng.a_basis(1, a - ap, b - bp):
                    product = ref_mul(_tuple_keyed(eng, f), _tuple_keyed(eng, g))
                    span.add(_tuple_vec(eng, product, a, b))
        assert len(eng.a_basis(2, a, b)) == span.rank, (a, b)


def test_stored_ideal_bases_match_the_closure_without_early_stop(monkeypatch):
    # the reference offers A^d(a, b) as its generators for every d: the
    # engine's generator products for d >= 2 must give the same bases
    for n, window, total in ((2, (8, 8), None), (3, (5, 5), 7)):
        eng = oracle._Engine(n)
        monkeypatch.setattr(oracle, "_engine", lambda n: eng)
        for d in range(4):
            ideal_power_dims(n, d, window, total)
        units = [tuple(int(i == r) for i in range(eng.width)) for r in range(eng.width)]
        memo = {}

        def reference(d, a, b):
            """Every x_j f and y_j f, then A^d(a, b), each kept if independent."""
            if a < 0 or b < 0:
                return []
            if (d, a, b) not in memo:
                span = EchelonSpan()
                shifted = [
                    ref_mul(f, {unit: 1})
                    for r, unit in enumerate(units)
                    for f in (reference(d, a - 1, b) if r < eng.m else reference(d, a, b - 1))
                ]
                alternants = [_tuple_keyed(eng, g) for g in eng.a_basis(d, a, b)]
                memo[(d, a, b)] = [
                    p for p in shifted + alternants if p and span.add(_tuple_vec(eng, p, a, b))
                ]
            return memo[(d, a, b)]

        assert len(eng._jbasis) == 4 * len(_window_cells(*window, total))
        for key, basis in eng._jbasis.items():
            assert [_tuple_keyed(eng, f) for f in basis] == reference(*key), (n, key)


def test_a_generator_dropped_from_the_products_changes_the_ideal_table(monkeypatch):
    # G^1(3, 0) at n = 3 is the Vandermonde alone, and J^2(6, 0) is the line
    # of its square; without it in the product list, the J^2 table shows it
    eng = oracle._Engine(3)
    monkeypatch.setattr(oracle, "_engine", lambda n: eng)
    assert len(eng._generators(1, 3, 0)) == 1
    true_generators = eng._generators
    monkeypatch.setattr(
        eng,
        "_generators",
        lambda d, a, b: [] if (d, a, b) == (1, 3, 0) else true_generators(d, a, b),
    )
    table = ideal_power_dims(3, 2, (6, 6), 8).table
    assert table != _frozen_table(J3_FROZEN[2])
    assert table[(6, 0)] == 0


def test_ideal_powers_never_build_alternant_powers(monkeypatch):
    eng = oracle._Engine(3)
    monkeypatch.setattr(oracle, "_engine", lambda n: eng)
    ideal_power_dims(3, 2, (6, 6), 8)
    jbar_dims(3, 2, (3, 3), 5)
    assert eng._abasis
    assert [key for key in eng._abasis if key[0] >= 2] == []


def test_cell_local_images_are_the_symmetrized_polynomials():
    eng = oracle._Engine(3)
    for d, a, b in [(0, 2, 1), (1, 3, 2), (2, 3, 3), (3, 4, 5)]:
        sign = -1 if d % 2 else 1
        images = {}
        basis = eng.j_basis(d, a, b)
        assert basis
        for f in basis:
            assert oracle._cell_image(eng, images, f, sign) == eng.symmetrized(f, sign)
        assert set(images) <= set(eng.cell(a, b)[0])


def test_duplicate_origins_are_skipped(monkeypatch):
    eng = oracle._Engine(3)
    monkeypatch.setattr(oracle, "_engine", lambda n: eng)
    adds = 0

    class CountingSpan(EchelonSpan):
        def add(self, vec):
            nonlocal adds
            # only the candidates that j_basis offers; a_basis has rules of its own
            adds += sys._getframe(1).f_code.co_name == "j_basis"
            return super().add(vec)

    monkeypatch.setattr(oracle, "EchelonSpan", CountingSpan)
    ideal_power_dims(3, 2, (5, 5), 7)
    # stored entries, as without the rule: J^2, and the J^1 and A^1 cells
    # that its generator products read
    assert eng._entries == 1082
    assert adds == 201

    # replay each cell's shifted candidates by origin, up to where the cell
    # filled: the duplicates among them are the adds the rule saved
    def shifted_origins(d, a, b):
        for r in range(4):
            below = (d, a - 1, b) if r < 2 else (d, a, b - 1)
            for o in eng._jorigins.get(below, ()):
                yield o + oracle._origin(r, 1)

    skipped = 0
    for key, origins in eng._jorigins.items():
        stop = origins[-1] if len(origins) == len(eng.cell(*key[1:])[0]) else None
        seen = set()
        for o in shifted_origins(*key):
            skipped += o in seen
            seen.add(o)
            if o == stop:
                break
    assert adds + skipped == 266  # the add calls j_basis makes without the rule

    # every stored element is x^e times the i-th candidate of a generator
    # stage: A^1 for J^1, the generator products for J^2
    assert {key[0] for key in eng._jbasis} == {1, 2}
    for (d, a, b), basis in eng._jbasis.items():
        for f, origin in zip(basis, eng._jorigins[(d, a, b)], strict=True):
            e, i = _decode(origin, 4)
            cell = (d, a - e[0] - e[1], b - e[2] - e[3])
            stage = eng.a_basis(*cell) if d == 1 else eng._split_products(*cell, eng._generators)
            g = next(itertools.islice(stage, i, None))
            assert _tuple_keyed(eng, f) == ref_mul({e: 1}, _tuple_keyed(eng, g)), (d, a, b)


def test_cell_bases_do_not_depend_on_which_operation_builds_them(monkeypatch):
    runs = {
        "jbar": lambda d: jbar_dims(3, d, (3, 3), 5),
        "ideal": lambda d: ideal_power_dims(3, d, (6, 6), 8),
        "parity": lambda d: parity_check(3, d, (5, 5), 7),
    }
    stores = []
    for first in runs:
        eng = oracle._Engine(3)
        monkeypatch.setattr(oracle, "_engine", lambda n: eng)
        for d in (1, 2):
            for name in [first] + [k for k in runs if k != first]:
                runs[name](d)
        stores.append((eng._jbasis, eng._jorigins, eng._abasis, eng._entries))
    assert stores[0] == stores[1] == stores[2]


def _reference_image(n: int, perm, poly):
    """sum of c * sigma(u-part) * sigma(w-part), each part a product of the
    images of u_j and w_j read off the reflection matrices."""
    m = n - 1
    matrices = _side_matrices(perm, n)
    units = [tuple(int(r == i) for r in range(2 * m)) for i in range(2 * m)]
    out = {}
    for e, c in poly.items():
        parts = []
        for side, mat in enumerate(matrices):
            part = {(0,) * (2 * m): 1}
            for j in range(m):
                linear = {units[side * m + i]: mat[i][j] for i in range(m) if mat[i][j]}
                for _ in range(e[side * m + j]):
                    part = ref_mul(part, linear)
            parts.append(part)
        _add_into(out, ref_mul(*parts), c)
    return out


@st.composite
def bihomogeneous(draw):
    n = draw(st.integers(2, 4))
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    monos = oracle._engine(n).cell(a, b)[0]
    terms = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    return n, {e: draw(st.integers(-3, 3).filter(bool)) for e in terms}


@settings(deadline=None, max_examples=40)
@given(bihomogeneous())
def test_apply_is_the_product_of_the_two_side_images(case):
    n, poly = case
    eng = oracle._Engine(n)
    for perm, _ in eng.group:
        image = {}
        for e, c in poly.items():
            _add_into(image, eng._monomial_image(perm, e), c)
        assert _tuple_keyed(eng, image) == _reference_image(n, perm, _tuple_keyed(eng, poly))
