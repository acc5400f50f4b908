import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from math import factorial

from cherpoi.exact_poly import q_factorial, q_factorial_poly
from cherpoi.macdonald import kostka_fake_degree_identity, kostka_macdonald, kostka_numbers, omega_factors, procesi_fiber
from cherpoi.partition_core import (
    Tableau,
    cell_data,
    cells,
    check_partition,
    dominance_leq,
    enumerate_partitions,
    enumerate_syt,
    hook_product,
    hooks,
    nstat,
    num_syt,
    transpose,
)
from cherpoi.sn_rep import character_table, character_value, fake_degree


def partitions(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.sampled_from(enumerate_partitions(n))
    )


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition(())
    with pytest.raises(ValueError):
        check_partition((3, 0))
    with pytest.raises(ValueError):
        check_partition((1, 2))
    assert check_partition([2, 1]) == (2, 1)


@pytest.mark.parametrize("mu", [[2.7, 1.2], ["2", "1"], [2.0, 1], [True], [Fraction(2), 1]])
def test_check_partition_rejects_parts_that_are_not_ints(mu):
    with pytest.raises(ValueError, match="must be integers"):
        check_partition(mu)


# every public memo behind partition_core.memo, with the partition argument
# first; character_value's second partition is its class
PARTITION_KEYED = {
    "transpose": transpose,
    "nstat": nstat,
    "num_syt": num_syt,
    "fake_degree": fake_degree,
    "procesi_fiber": procesi_fiber,
    "omega_factors": omega_factors,
    "character_value": lambda mu: character_value(mu, (1,) * int(sum(mu))),
}
# every memo behind memo_n's door, then kostka_fake_degree_identity, which
# takes its n through kostka_macdonald's
N_KEYED = {
    "enumerate_partitions": enumerate_partitions,
    "kostka_numbers": kostka_numbers,
    "kostka_macdonald": kostka_macdonald,
    "character_table": character_table,
    "q_factorial": q_factorial,
    "q_factorial_poly": q_factorial_poly,
    "kostka_fake_degree_identity": kostka_fake_degree_identity,
}


@pytest.mark.parametrize("name", PARTITION_KEYED)
def test_a_list_and_a_tuple_share_one_memo_entry(name):
    # character_value once raised TypeError on a list: unhashable
    function = PARTITION_KEYED[name]
    assert function([2, 1]) is function((2, 1))


@pytest.mark.parametrize("mu", [(1, 2), (0, 3), (), (2.0,), (True,)])
@pytest.mark.parametrize("name", PARTITION_KEYED)
def test_the_memo_door_refuses_a_non_partition(name, mu):
    # with (1,) cached, a memo asked first would answer (True,) from it
    PARTITION_KEYED[name]((1,))
    with pytest.raises(ValueError):
        PARTITION_KEYED[name](mu)


@pytest.mark.parametrize("lam, rho", [((2, 1), (0, 3)), ((2, 1), (1, 2)), ((3,), (1, 1)), ((2,), ())])
def test_character_value_refuses_a_bad_class_or_a_size_mismatch(lam, rho):
    # each once answered 0
    with pytest.raises(ValueError):
        character_value(lam, rho)


@pytest.mark.parametrize("n", [True, 2.0, Fraction(2)])
@pytest.mark.parametrize("name", N_KEYED)
def test_a_bool_or_float_n_is_refused_after_the_int_is_cached(name, n):
    # True, 2.0 and Fraction(2) hash and compare equal to 1 and 2, so a memo
    # asked first answers them from the int's entry; q_factorial_poly(True)
    # was 1 and kostka_fake_degree_identity(True) was {(1,): True}
    N_KEYED[name](1)
    N_KEYED[name](2)
    with pytest.raises(TypeError, match="n must be an int"):
        N_KEYED[name](n)


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("name", N_KEYED)
def test_the_door_refuses_an_n_below_one(name, n):
    with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
        N_KEYED[name](n)


def test_every_memo_n_function_is_n_keyed():
    package = Path(__file__).resolve().parent.parent / "src" / "cherpoi"
    behind_memo_n = {
        node.name
        for path in package.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(d, ast.Name) and d.id == "memo_n" for d in node.decorator_list)
    }
    assert behind_memo_n <= N_KEYED.keys()


def test_enumerate_partitions_revlex():
    assert enumerate_partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(enumerate_partitions(6)) == 11
    assert len(enumerate_partitions(8)) == 22


def test_transpose_examples():
    assert transpose((4, 2, 1)) == (3, 2, 1, 1)
    assert transpose((3,)) == (1, 1, 1)
    assert transpose((2, 2)) == (2, 2)


@given(partitions())
def test_transpose_involution(mu):
    assert transpose(transpose(mu)) == mu
    assert sum(transpose(mu)) == sum(mu)


def test_cell_data_example():
    c = cell_data((4, 2, 1), 0, 0)
    assert (c.arm, c.leg) == (3, 2)
    with pytest.raises(IndexError):
        cell_data((4, 2, 1), 1, 3)


def test_hooks_match_cell_data_row_by_row():
    for n in range(1, 9):
        for mu in enumerate_partitions(n):
            arms_and_legs = [cell_data(mu, i, j) for i, j in cells(mu)]
            assert hooks(mu) == [1 + c.arm + c.leg for c in arms_and_legs]
    with pytest.raises(ValueError):
        hooks((1, 2))


def test_cell_and_tableau_are_immutable_values():
    c = cell_data((2, 1), 0, 0)
    assert c == cell_data((2, 1), 0, 0) and hash(c) == hash(cell_data((2, 1), 0, 0))
    assert repr(c) == "Cell(row=0, col=0, arm=1, leg=1)"
    t = enumerate_syt((2, 1))[0]
    for record, field in ((c, "arm"), (t, "shape")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


def test_hooks_and_syt_count():
    assert sorted(hooks((2, 2))) == [1, 2, 2, 3]
    assert num_syt((2, 2)) == 2
    assert num_syt((3, 2)) == 5


@given(partitions(7))
def test_hook_length_formula_consistency(mu):
    n = sum(mu)
    assert num_syt(mu) * hook_product(mu) == factorial(n)
    assert len(enumerate_syt(mu)) == num_syt(mu)


@given(partitions())
def test_nstat_via_cells(mu):
    # n(mu) counts 0-based row indices over cells, and equals the leg sum
    rows = sum(i for i, _ in cells(mu))
    legs = sum(cell_data(mu, i, j).leg for i, j in cells(mu))
    assert nstat(mu) == rows == legs
    # hook sum decomposes into size plus both statistics
    assert sum(hooks(mu)) == sum(mu) + nstat(mu) + nstat(transpose(mu))


def test_statistics_accept_any_iterable():
    # the cached statistics key on the validated tuple, not on the input
    for mu in ([2, 1], iter((2, 1)), (2, 1)):
        assert nstat(mu) == 1
    assert transpose([3, 1]) == (2, 1, 1)
    assert num_syt([3, 1]) == 3
    assert hooks([2, 1]) == [3, 1, 1]


def test_nstat_examples():
    assert nstat((3,)) == 0
    assert nstat((1, 1, 1)) == 3
    assert nstat((2, 1)) == 1


def test_dominance_chain():
    chain = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    for a, b in zip(chain, chain[1:]):
        assert dominance_leq(a, b)
        assert not dominance_leq(b, a)
    with pytest.raises(ValueError):
        dominance_leq((2, 1), (2, 2))


def test_dominance_first_incomparable_pair():
    assert not dominance_leq((3, 1, 1, 1), (2, 2, 2))
    assert not dominance_leq((2, 2, 2), (3, 1, 1, 1))


@given(st.integers(1, 7))
def test_dominance_extremes_and_revlex_refinement(n):
    parts = enumerate_partitions(n)
    top, bottom = (n,), (1,) * n
    for mu in parts:
        assert dominance_leq(mu, top)
        assert dominance_leq(bottom, mu)
    for i, lam in enumerate(parts):
        for j, mu in enumerate(parts):
            if lam != mu and dominance_leq(lam, mu):
                assert i > j


@given(partitions(6))
def test_dominance_reverses_under_transpose(lam):
    n = sum(lam)
    for mu in enumerate_partitions(n):
        if dominance_leq(lam, mu):
            assert dominance_leq(transpose(mu), transpose(lam))


def test_maj_extremes():
    row = enumerate_syt((4,))
    assert len(row) == 1 and row[0].maj == 0
    col = enumerate_syt((1, 1, 1, 1))
    assert len(col) == 1 and col[0].maj == 6


def test_syt_are_standard():
    for t in enumerate_syt((3, 2)):
        assert isinstance(t, Tableau)
        flat = sorted(x for row in t.rows for x in row)
        assert flat == [1, 2, 3, 4, 5]
        for row in t.rows:
            assert list(row) == sorted(row)
