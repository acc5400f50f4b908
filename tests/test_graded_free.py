"""Degreewise idempotent presentations: extraction and certificates."""

import math
from fractions import Fraction
from random import Random

import pytest

from cherpoi import _linalg
from cherpoi.errors import CertificationError
from cherpoi.graded_free import (
    GradedIdempotent,
    HomogeneousVector,
    MonomialAlgebra,
    diagonal_idempotent,
    extract_homogeneous_basis,
    identity_matrix,
    matrix_multiply,
    module_scale,
    random_unipotent_idempotent,
    unipotent_inverse,
)
from cherpoi.graded_free import _exact, _layout, _scaled_qvector
from cherpoi.verifier_cli import run_suite

from _reference import image_dims_by_elimination

ONE = Fraction(1)


def _to_qvector(offsets, vec: HomogeneousVector) -> dict:
    """vec as a sparse {column: coefficient} vector in the Q-basis of F_g,
    g = vec.degree, whose row blocks start at offsets (from _layout)."""
    return {
        offset + idx: c for offset, row in zip(offsets, vec.rows) for idx, c in row.items()
    }


def _apply_matrix(algebra, shifts, entries, vec: HomogeneousVector) -> HomogeneousVector:
    """The degree-zero matrix applied to vec, row by row."""
    rows = []
    for i, row in enumerate(entries):
        acc = {}
        for j, (entry, comp) in enumerate(zip(row, vec.rows)):
            if entry and comp:
                prod = algebra.multiply(shifts[j] - shifts[i], entry, vec.degree - shifts[j], comp)
                for k, c in prod.items():
                    acc[k] = acc.get(k, 0) + c
        rows.append({k: c for k, c in acc.items() if c})
    return HomogeneousVector(vec.degree, tuple(rows))


def test_polynomial_algebra_dimensions():
    line = MonomialAlgebra(1, 6)
    assert [line.dim(d) for d in range(7)] == [1] * 7
    plane = MonomialAlgebra(2, 5)
    assert [plane.dim(d) for d in range(6)] == [1, 2, 3, 4, 5, 6]
    assert plane.dim(-1) == 0 and plane.dim(6) == 0
    chopped = MonomialAlgebra(1, 5, 3)
    assert [chopped.dim(d) for d in range(6)] == [1, 1, 1, 1, 0, 0]
    square_free = MonomialAlgebra(2, 5, 3)
    assert [square_free.dim(d) for d in range(6)] == [1, 2, 3, 4, 0, 0]


def test_multiplication_and_cutoff():
    alg = MonomialAlgebra(2, 4)
    x = {0: ONE}
    y = {1: ONE}
    xy = alg.multiply(1, x, 1, y)
    assert xy == {alg.basis[2].index((1, 1)): ONE}
    with pytest.raises(ValueError):
        alg.multiply(3, {0: ONE}, 2, {0: ONE})


def test_monomial_algebras_are_associative_by_construction():
    for alg in (MonomialAlgebra(2, 5), MonomialAlgebra(2, 6, 3)):
        for i in range(alg.cutoff + 1):
            for j in range(alg.cutoff + 1 - i):
                for a in range(alg.dim(i)):
                    for b in range(alg.dim(j)):
                        ab = alg.multiply(i, {a: ONE}, j, {b: ONE})
                        assert ab == alg.multiply(j, {b: ONE}, i, {a: ONE})
                        for l in range(alg.cutoff + 1 - i - j):
                            for c in range(alg.dim(l)):
                                bc = alg.multiply(j, {b: ONE}, l, {c: ONE})
                                assert alg.multiply(i + j, ab, l, {c: ONE}) == alg.multiply(
                                    i, {a: ONE}, j + l, bc
                                )


def test_algebra_arguments_are_checked():
    with pytest.raises(ValueError, match="cutoff"):
        MonomialAlgebra(1, -1)
    with pytest.raises(ValueError, match="variable"):
        MonomialAlgebra(0, 3)
    with pytest.raises(ValueError, match="truncation"):
        MonomialAlgebra(2, 3, -1)


def test_idempotent_validation():
    alg = MonomialAlgebra(1, 6)
    x = {0: ONE}
    unit = alg.unit()
    with pytest.raises(ValueError, match="not idempotent"):
        GradedIdempotent(alg, (1, 0), ((dict(unit), {}), (dict(x), dict(unit))))
    with pytest.raises(ValueError, match="shape"):
        GradedIdempotent(alg, (0, 0), ((dict(unit),),))
    with pytest.raises(ValueError, match="spread"):
        GradedIdempotent(alg, (7, 0), (({}, {}), ({}, {})))
    # entry (0, 1) would need degree -1, so it must vanish
    with pytest.raises(ValueError, match="vanish"):
        GradedIdempotent(alg, (1, 0), ((dict(unit), dict(x)), ({}, {})))
    with pytest.raises(ValueError, match="indexes outside"):
        GradedIdempotent(alg, (0, 0), (({3: ONE}, {}), ({}, {})))


def test_unipotent_inverse():
    alg = MonomialAlgebra(1, 8)
    shifts = (1, 0)
    unit = alg.unit()
    x = {0: ONE}
    U = ((dict(unit), {}), (dict(x), dict(unit)))
    V = unipotent_inverse(alg, shifts, U)
    assert matrix_multiply(alg, shifts, U, V) == identity_matrix(alg, 2)
    assert matrix_multiply(alg, shifts, V, U) == identity_matrix(alg, 2)
    with pytest.raises(ValueError, match="unipotent"):
        unipotent_inverse(alg, shifts, (({}, {}), (dict(x), dict(unit))))
    with pytest.raises(ValueError, match="triangular"):
        unipotent_inverse(alg, (0, 1), ((dict(unit), dict(x)), ({}, dict(unit))))


def test_unipotent_inverse_reaches_the_last_power_of_n():
    # every entry below the diagonal is nonzero, one, two, three and four
    # steps down; N^4 at (4, 0) is N_43 N_32 N_21 N_10, a product of nonzero
    # polynomials, so an inverse stopped one step early fails both products
    alg = MonomialAlgebra(2, 8)
    shifts = (4, 3, 2, 1, 0)
    rng = Random(3)
    U = tuple(
        tuple(
            alg.unit() if i == j else {k: rng.choice((-2, -1, 1, 2)) for k in range(alg.dim(i - j))} if i > j else {}
            for j in range(5)
        )
        for i in range(5)
    )
    V = unipotent_inverse(alg, shifts, U)
    assert matrix_multiply(alg, shifts, U, V) == identity_matrix(alg, 5)
    assert matrix_multiply(alg, shifts, V, U) == identity_matrix(alg, 5)


def test_hand_worked_rank_one_projection():
    # U = [[1, 0], [x, 1]] conjugating diag(1, 0) gives E = [[1, 0], [x, 0]]
    alg = MonomialAlgebra(1, 12)
    x = {0: ONE}
    E = GradedIdempotent(
        alg, (1, 0), ((dict(alg.unit()), {}), (dict(x), {}))
    )
    result = extract_homogeneous_basis(E)
    assert result.horizon == 11
    (gen,) = result.generators
    assert gen.degree == 1
    assert gen.rows == ({0: ONE}, {0: ONE})  # u_1 + x u_2
    assert result.image_dims[0] == 0
    assert all(result.image_dims[g] == 1 for g in range(1, 12))


def test_identity_idempotent_recovers_the_shifts():
    alg = MonomialAlgebra(2, 10)
    E = diagonal_idempotent(alg, (2, 1, 0), (1, 1, 1))
    result = extract_homogeneous_basis(E)
    assert sorted(p.degree for p in result.generators) == [0, 1, 2]
    for p in result.generators:
        assert sum(bool(r) for r in p.rows) == 1


def test_coordinate_projection():
    alg = MonomialAlgebra(1, 9)
    E = diagonal_idempotent(alg, (1, 0, 0), (1, 0, 1))
    result = extract_homogeneous_basis(E)
    assert sorted(p.degree for p in result.generators) == [0, 1]
    assert result.horizon == 8


def test_extraction_is_deterministic():
    alg = MonomialAlgebra(2, 8)
    rng = Random(99)
    E = random_unipotent_idempotent(alg, (2, 1, 0, 0), 2, rng)
    assert extract_homogeneous_basis(E) == extract_homogeneous_basis(E)


def test_records_are_immutable_with_value_equality():
    # named tuples: equal fields make equal records, and the dicts in the
    # fields make them unhashable
    alg = MonomialAlgebra(1, 6)
    E = diagonal_idempotent(alg, (1, 0), (True, False))
    result = extract_homogeneous_basis(E)
    vec = HomogeneousVector(1, ({0: 1}, {}))
    twin = HomogeneousVector(1, ({0: 1}, {}))
    assert vec == twin and vec != HomogeneousVector(1, ({0: 2}, {}))
    assert repr(vec) == "HomogeneousVector(degree=1, rows=({0: 1}, {}))"
    for record, field in ((E, "shifts"), (vec, "degree"), (result, "horizon")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    assert E == diagonal_idempotent(alg, (1, 0), (True, False))
    assert result == extract_homogeneous_basis(diagonal_idempotent(alg, (1, 0), (True, False)))


def _assert_normal_form(elements):
    for element in elements:
        for c in element.values():
            assert c != 0
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def _entries(M):
    return [e for row in M for e in row]


@pytest.mark.parametrize("num_vars, shifts, rank, seed", [
    (1, (3, 2, 1, 0), 2, 1),
    (2, (2, 1, 1, 0), 3, 7),
    (2, (3, 1, 0), 1, 42),
])
def test_coefficients_stay_in_normal_form(num_vars, shifts, rank, seed):
    # integer data never produces a Fraction with denominator 1
    alg = MonomialAlgebra(num_vars, 9)
    rng = Random(seed)
    E = random_unipotent_idempotent(alg, shifts, rank, rng)
    _assert_normal_form(_entries(E.entries))
    U = [list(row) for row in identity_matrix(alg, len(shifts))]
    for i in range(len(shifts)):
        for j in range(i):
            U[i][j] = {k: c for k in range(alg.dim(shifts[j] - shifts[i])) if (c := rng.randint(-3, 3))}
    U = tuple(tuple(row) for row in U)
    V = unipotent_inverse(alg, shifts, U)
    _assert_normal_form(_entries(V))
    _assert_normal_form(_entries(matrix_multiply(alg, shifts, U, V)))
    _assert_normal_form(_entries(matrix_multiply(alg, shifts, E.entries, V)))
    result = extract_homogeneous_basis(E)
    assert len(result.generators) == rank
    _assert_normal_form([row for p in result.generators for row in p.rows])


def test_rational_input_keeps_fractions():
    # E = [[1, 0], [3/2 x, 0]]: the generator u_1 + 3/2 x u_2
    alg = MonomialAlgebra(1, 8)
    E = GradedIdempotent(alg, (1, 0), ((alg.unit(), {}), ({0: Fraction(3, 2)}, {})))
    (gen,) = extract_homogeneous_basis(E).generators
    assert gen.rows == ({0: 1}, {0: Fraction(3, 2)})
    assert [type(row[0]) for row in gen.rows] == [int, Fraction]


@pytest.mark.parametrize("algebra", [MonomialAlgebra(2, 7), MonomialAlgebra(2, 7, 3)])
def test_scaled_qvector_matches_the_scaled_vector(algebra):
    # the extractor's Q-vectors, written directly, against module_scale and
    # _to_qvector, up to the positive scalar that clears denominators;
    # conjugating by diag(1, 2, 3) puts Fractions in the entries, as an
    # idempotent read by basis --input may carry them
    shifts = (2, 1, 0)
    rng = Random(7)
    fractions = 0
    for _ in range(4):
        E = random_unipotent_idempotent(algebra, shifts, 2, rng)
        scaled = tuple(
            tuple({k: _exact(c * Fraction(j + 1, i + 1)) for k, c in entry.items()} for j, entry in enumerate(row))
            for i, row in enumerate(E.entries)
        )
        fractions += sum(type(c) is Fraction for row in scaled for entry in row for c in entry.values())
        for entries in (E.entries, GradedIdempotent(algebra, shifts, scaled).entries):
            for j, s in enumerate(shifts):
                column = HomogeneousVector(s, tuple(row[j] for row in entries))
                for e in range(4):
                    offsets = _layout(algebra, shifts, s + e)
                    for idx in range(algebra.dim(e)):
                        want = _to_qvector(offsets, module_scale(algebra, shifts, column, e, {idx: 1}))
                        got = _scaled_qvector(algebra, shifts, offsets, column, e, idx)
                        scale = math.lcm(*(Fraction(c).denominator for c in want.values()))
                        assert got == {i: c * scale for i, c in want.items()}
                        assert all(type(c) is int for c in got.values())
    assert fractions


def test_random_battery():
    rng = Random(1729)
    for trial in range(10):
        num_vars = 1 + trial % 2
        alg = MonomialAlgebra(num_vars, 10)
        size = rng.randint(2, 4)
        shifts = tuple(sorted((rng.randint(0, 3) for _ in range(size)), reverse=True))
        rank = rng.randint(0, size)
        E = random_unipotent_idempotent(alg, shifts, rank, rng)
        result = extract_homogeneous_basis(E)
        assert len(result.generators) == rank
        for p in result.generators:
            assert _apply_matrix(alg, shifts, E.entries, p) == p


def test_random_idempotent_requires_sorted_shifts():
    alg = MonomialAlgebra(1, 6)
    with pytest.raises(ValueError, match="decreasing"):
        random_unipotent_idempotent(alg, (0, 1), 1, Random(0))
    with pytest.raises(ValueError, match="rank"):
        random_unipotent_idempotent(alg, (1, 0), 3, Random(0))


def test_certification_fails_when_the_cutoff_is_too_small():
    alg = MonomialAlgebra(1, 1)
    E = diagonal_idempotent(alg, (2, 2), (1, 1))
    with pytest.raises(CertificationError, match="cutoff too small"):
        extract_homogeneous_basis(E)


BATTERY_ALGEBRAS = [
    MonomialAlgebra(1, 10),
    MonomialAlgebra(2, 9),
    MonomialAlgebra(3, 6),
    MonomialAlgebra(1, 10, 3),
    MonomialAlgebra(2, 8, 2),
    MonomialAlgebra(2, 9, 4),
]


def test_image_dims_are_the_eliminated_image_rank():
    # image_dims is the trace of E; eliminating the image vectors, a route
    # that does not read the trace, must give the same ranks. Each random
    # idempotent is run as drawn and conjugated by diag(1, ..., size), which
    # puts Fractions in its entries: 720 idempotents in all
    rng = Random(20261020)
    fractions = 0
    for algebra in BATTERY_ALGEBRAS:
        for size in range(1, 6):
            for _ in range(12):
                shifts = tuple(sorted((rng.randint(0, 3) for _ in range(size)), reverse=True))
                E = random_unipotent_idempotent(algebra, shifts, rng.randint(0, size), rng)
                conjugate = tuple(
                    tuple(
                        {k: _exact(c * Fraction(i + 1, j + 1)) for k, c in entry.items()}
                        for j, entry in enumerate(row)
                    )
                    for i, row in enumerate(E.entries)
                )
                fractions += any(Fraction in map(type, entry.values()) for entry in _entries(conjugate))
                for idem in (E, GradedIdempotent(algebra, shifts, conjugate)):
                    result = extract_homogeneous_basis(idem)
                    assert all(type(v) is int for v in result.image_dims.values())
                    assert result.image_dims == image_dims_by_elimination(idem, result.horizon)
                    for g, dim in result.image_dims.items():
                        assert dim == sum(algebra.dim(g - p.degree) for p in result.generators)
    assert fractions


def test_a_rational_projector_has_an_integral_trace():
    # [[1/2, 1/2], [1/2, 1/2]] projects onto the diagonal u_1 + u_2: its trace
    # on F_g is dim A_g / 2 + dim A_g / 2, held as an int
    alg = MonomialAlgebra(1, 6)
    half = {0: Fraction(1, 2)}
    E = GradedIdempotent(alg, (0, 0), ((half, half), (half, half)))
    result = extract_homogeneous_basis(E)
    assert result.image_dims == image_dims_by_elimination(E, result.horizon) == dict.fromkeys(range(7), 1)
    assert all(type(v) is int for v in result.image_dims.values())
    (gen,) = result.generators
    assert gen.degree == 0 and gen.rows == (half, half)


def test_a_trace_that_is_not_a_rank_is_a_program_fault():
    # no GradedIdempotent holds [[1/2]], since E^2 = E is checked; one built
    # past that check reaches the trace, which must not certify it
    alg = MonomialAlgebra(1, 4)
    E = GradedIdempotent._make((alg, (0,), (({0: Fraction(1, 2)},),)))
    with pytest.raises(ArithmeticError, match="trace 1/2"):
        extract_homogeneous_basis(E)


def test_the_graded_free_suite_eliminates_in_one_span_per_degree(monkeypatch):
    # EchelonSpan.add calls over the default graded-free grid (seed 1729); a
    # second span that eliminates the whole image in every degree makes 6,728
    calls = []
    add = _linalg.EchelonSpan.add
    monkeypatch.setattr(_linalg.EchelonSpan, "add", lambda span, v: calls.append(1) or add(span, v))
    assert run_suite("graded-free").status == "pass"
    assert len(calls) == 2092
