"""EchelonSpan against sympy: verdicts, normal forms and row invariants."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cherpoi._linalg import EchelonSpan

SMALL = st.integers(-3, 3)
RATIONAL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def matrices(draw, entries=SMALL):
    cols = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 7))
    return [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]


def _sympy_rank(rows) -> int:
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]).rank()


def _rank_increments(rows) -> list[bool]:
    ranks = [0] + [_sympy_rank(rows[: k + 1]) for k in range(len(rows))]
    return [b > a for a, b in zip(ranks, ranks[1:])]


def _sparse(row) -> dict[int, int]:
    return {i: x for i, x in enumerate(row) if x}


def _check_row_invariants(span: EchelonSpan):
    for pivot, row in span.rows.items():
        assert all(type(x) is int and x for x in row.values())
        assert min(row) == pivot and row[pivot] > 0
        assert math.gcd(*row.values()) == 1
        assert all(row.get(q, 0) == 0 for q in span.rows if q != pivot)


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_integer_verdicts_match_sympy_rank(rows):
    span = EchelonSpan(len(rows[0]))
    assert [span.add(r) for r in rows] == _rank_increments(rows)
    _check_row_invariants(span)


@settings(deadline=None, max_examples=60)
@given(matrices(RATIONAL))
def test_fraction_verdicts_match_sympy_rank(rows):
    span = EchelonSpan(len(rows[0]))
    assert [span.add(r) for r in rows] == _rank_increments(rows)
    _check_row_invariants(span)


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_dense_and_sparse_inputs_agree(rows):
    dense, sparse = EchelonSpan(len(rows[0])), EchelonSpan(len(rows[0]))
    assert [dense.add(r) for r in rows] == [sparse.add(_sparse(r)) for r in rows]
    assert dense.rows == sparse.rows


@settings(deadline=None, max_examples=60)
@given(matrices(), st.lists(SMALL, min_size=5, max_size=5))
def test_normal_form_is_a_representative_zero_at_pivots(rows, vec):
    length = len(rows[0])
    vec = vec[:length]
    span = EchelonSpan(length)
    for r in rows:
        span.add(r)
    ints, scale = span.normal_form(_sparse(vec))
    assert scale > 0
    assert all(ints.get(p, 0) == 0 for p in span.rows)
    # vec - ints/scale lies in the span of the inserted rows
    diff = [Fraction(x) - Fraction(ints.get(i, 0), scale) for i, x in enumerate(vec)]
    assert _sympy_rank(rows + [diff]) == _sympy_rank(rows)
    assert span.normal_form(vec) == span.normal_form(_sparse(vec))


def test_rank_is_not_decided_modulo_a_large_prime():
    # [1, 1] and [1, 1 + p] agree modulo p = 2**61 - 1 but are independent over Q
    span = EchelonSpan(2)
    assert span.add([1, 1])
    assert span.add([1, 1 + (2**61 - 1)])
    assert span.rank == 2


def test_shape_errors():
    span = EchelonSpan(3)
    with pytest.raises(ValueError):
        span.add([1, 2])
    with pytest.raises(ValueError):
        span.add({3: 1})
    assert not span.add({0: 0}) and not span.add([0, 0, 0])
    assert span.rank == 0
