"""EchelonSpan against sympy: verdicts, normal forms and row invariants;
and `add` as the one way in, so that wrapping it sees every insert."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import sympy
from hypothesis import given, settings, strategies as st

from cherpoi import commutative_oracle as oracle
from cherpoi._linalg import EchelonSpan

SMALL = st.integers(-3, 3)
RATIONAL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def matrices(draw, entries=SMALL):
    cols = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 7))
    return [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]


def _sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator) for x in r] for r in rows])


def _sympy_rank(rows) -> int:
    return _sympy_matrix(rows).rank()


def _rank_increments(rows) -> list[bool]:
    ranks = [0] + [_sympy_rank(rows[: k + 1]) for k in range(len(rows))]
    return [b > a for a, b in zip(ranks, ranks[1:])]


def _sparse(row) -> dict:
    """row as the fresh integer vector that EchelonSpan takes: cleared by the
    lcm of its denominators, which keeps its Q-span, with zeros dropped."""
    lcm = math.lcm(*(Fraction(x).denominator for x in row))
    return {i: int(x * lcm) for i, x in enumerate(row) if x}


def _check_row_invariants(span: EchelonSpan, rows):
    """Row-echelon form: each row is a primitive integer vector that starts at
    its pivot with a positive entry, and the pivots are those of the rref of
    the inserted rows."""
    for pivot, row in span.rows.items():
        assert all(type(x) is int and x for x in row.values())
        assert min(row) == pivot and row[pivot] > 0
        assert math.gcd(*row.values()) == 1
    _, pivots = _sympy_matrix(rows).rref()
    assert sorted(span.rows) == list(pivots)


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_integer_verdicts_match_sympy_rank(rows):
    span = EchelonSpan()
    assert [span.add(_sparse(r)) for r in rows] == _rank_increments(rows)
    _check_row_invariants(span, rows)


@settings(deadline=None, max_examples=60)
@given(matrices(RATIONAL))
def test_fraction_verdicts_match_sympy_rank(rows):
    span = EchelonSpan()
    assert [span.add(_sparse(r)) for r in rows] == _rank_increments(rows)
    _check_row_invariants(span, rows)


def _rational_normal_form(span: EchelonSpan, vec) -> dict:
    ints, scale = span.normal_form(_sparse(vec))
    return {i: Fraction(x, scale) for i, x in ints.items()}


@settings(deadline=None, max_examples=60)
@given(st.data(), matrices(st.one_of(SMALL, RATIONAL)))
def test_verdicts_do_not_depend_on_insertion_order(data, rows):
    order = data.draw(st.permutations(range(len(rows))))
    vec = data.draw(st.lists(RATIONAL, min_size=len(rows[0]), max_size=len(rows[0])))
    spans = []
    for sequence in (rows, [rows[i] for i in order]):
        span = EchelonSpan()
        accepted = sum(span.add(_sparse(r)) for r in sequence)
        assert accepted == span.rank
        spans.append(span)
    first, second = spans
    assert sorted(first.rows) == sorted(second.rows)
    assert _rational_normal_form(first, vec) == _rational_normal_form(second, vec)


@settings(deadline=None, max_examples=60)
@given(matrices(), st.lists(SMALL, min_size=5, max_size=5))
def test_normal_form_is_a_representative_zero_at_pivots(rows, vec):
    length = len(rows[0])
    vec = vec[:length]
    span = EchelonSpan()
    for r in rows:
        span.add(_sparse(r))
    ints, scale = span.normal_form(_sparse(vec))
    assert scale > 0
    assert all(ints.get(p, 0) == 0 for p in span.rows)
    # vec - ints/scale lies in the span of the inserted rows
    diff = [Fraction(x) - Fraction(ints.get(i, 0), scale) for i, x in enumerate(vec)]
    assert _sympy_rank(rows + [diff]) == _sympy_rank(rows)


def test_rank_is_not_decided_modulo_a_large_prime():
    # [1, 1] and [1, 1 + p] agree modulo p = 2**61 - 1 but are independent over Q
    span = EchelonSpan()
    assert span.add({0: 1, 1: 1})
    assert span.add({0: 1, 1: 1 + (2**61 - 1)})
    assert span.rank == 2


def test_shape_errors():
    span = EchelonSpan()
    assert not span.add({0: 0}) and not span.add({})
    assert span.rank == 0


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cherpoi"


def test_no_module_reaches_past_add():
    # the bench traces EchelonSpan.add; a caller of a private method would
    # insert out of its sight
    private = {"_insert", "_ints"} | {
        name for name in vars(EchelonSpan) if name.startswith("_") and not name.startswith("__")
    }
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "_linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in private:
                calls.append(f"{path.name}:{node.lineno}:{node.func.attr}")
    assert calls == []


def test_a_wrapped_add_sees_every_oracle_insert(monkeypatch):
    # wrapped on the class, as the bench's trace launcher does: every vector
    # that to_vec builds for jbar_dims reaches it, once
    made, added = [], []
    to_vec, add = oracle._Engine.to_vec, EchelonSpan.add

    def recording_to_vec(self, poly, a, b):
        made.append(to_vec(self, poly, a, b))
        return made[-1]

    def recording_add(self, v):
        added.append(v)
        return add(self, v)

    eng = oracle._Engine(3)
    monkeypatch.setattr(oracle, "_engine", lambda n: eng)
    monkeypatch.setattr(oracle._Engine, "to_vec", recording_to_vec)
    monkeypatch.setattr(EchelonSpan, "add", recording_add)
    oracle.jbar_dims(3, 1, (4, 4), 6)
    assert made and len(added) == len(made)
    assert all(x is y for x, y in zip(added, made))
