"""Degreewise idempotent presentations: extraction, splittings, certificates."""

import copy
from fractions import Fraction
from random import Random

import pytest

from cherpoi.errors import CertificationError, InvalidSplittingError
from cherpoi.graded_free import (
    ConnectedGradedAlgebra,
    GradedIdempotent,
    HomogeneousVector,
    apply_matrix,
    diagonal_idempotent,
    eilenberg_homogenize,
    extract_homogeneous_basis,
    identity_matrix,
    matrix_multiply,
    minimal_expression,
    module_scale,
    polynomial_algebra,
    random_unipotent_idempotent,
    truncated_polynomial_algebra,
    unipotent_inverse,
)

ONE = Fraction(1)


def _vec_eq(u: HomogeneousVector, v: HomogeneousVector) -> bool:
    return u.degree == v.degree and u.rows == v.rows


def test_polynomial_algebra_dimensions():
    line = polynomial_algebra(1, 6)
    assert [line.dim(d) for d in range(7)] == [1] * 7
    plane = polynomial_algebra(2, 5)
    assert [plane.dim(d) for d in range(6)] == [1, 2, 3, 4, 5, 6]
    assert plane.dim(-1) == 0 and plane.dim(6) == 0
    chopped = truncated_polynomial_algebra(1, 5, 3)
    assert [chopped.dim(d) for d in range(6)] == [1, 1, 1, 1, 0, 0]
    square_free = truncated_polynomial_algebra(2, 5, 3)
    assert [square_free.dim(d) for d in range(6)] == [1, 2, 3, 4, 0, 0]


def test_multiplication_and_cutoff():
    alg = polynomial_algebra(2, 4)
    x = {0: ONE}
    y = {1: ONE}
    xy = alg.multiply(1, x, 1, y)
    assert xy == {alg.basis[2].index((1, 1)): ONE}
    with pytest.raises(ValueError):
        alg.multiply(3, {0: ONE}, 2, {0: ONE})


def test_corrupted_products_fail_associativity():
    good = polynomial_algebra(2, 3)
    products = copy.deepcopy(good.products)
    products[(1, 1)][0][1] = {}  # kill x*y but keep y*x
    with pytest.raises(ValueError, match="associative"):
        ConnectedGradedAlgebra(good.cutoff, good.basis, products, "broken")


def test_monomial_algebras_are_associative_by_construction():
    # the monomial constructors skip the construction-time check, so run it here
    for alg in (polynomial_algebra(2, 5), truncated_polynomial_algebra(2, 6, 3)):
        ConnectedGradedAlgebra._check_associative(alg)


def test_connectedness_is_required():
    good = polynomial_algebra(1, 2)
    basis = (((0,), "ghost"),) + good.basis[1:]
    with pytest.raises(ValueError, match="connected"):
        ConnectedGradedAlgebra(2, basis, good.products, "fat")
    with pytest.raises(ValueError):
        ConnectedGradedAlgebra(-1, good.basis, good.products)
    with pytest.raises(ValueError, match="per degree"):
        ConnectedGradedAlgebra(3, good.basis, good.products)


def test_idempotent_validation():
    alg = polynomial_algebra(1, 6)
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
    alg = polynomial_algebra(1, 8)
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


def test_hand_worked_rank_one_projection():
    # U = [[1, 0], [x, 1]] conjugating diag(1, 0) gives E = [[1, 0], [x, 0]]
    alg = polynomial_algebra(1, 12)
    x = {0: ONE}
    E = GradedIdempotent(
        alg, (1, 0), ((dict(alg.unit()), {}), (dict(x), {}))
    )
    result = extract_homogeneous_basis(E)
    assert result.horizon == 11
    assert len(result) == 1
    gen = result.generators[0]
    assert gen.degree == 1
    assert gen.rows == ({0: ONE}, {0: ONE})  # u_1 + x u_2
    assert result.image_dims[0] == 0
    assert all(result.image_dims[g] == 1 for g in range(1, 12))


def test_identity_idempotent_recovers_the_shifts():
    alg = polynomial_algebra(2, 10)
    E = diagonal_idempotent(alg, (2, 1, 0), (1, 1, 1))
    result = extract_homogeneous_basis(E)
    assert sorted(p.degree for p in result) == [0, 1, 2]
    for p in result:
        assert sum(bool(r) for r in p.rows) == 1


def test_coordinate_projection():
    alg = polynomial_algebra(1, 9)
    E = diagonal_idempotent(alg, (1, 0, 0), (1, 0, 1))
    result = extract_homogeneous_basis(E)
    assert sorted(p.degree for p in result) == [0, 1]
    assert result.horizon == 8


def test_extraction_is_deterministic():
    alg = polynomial_algebra(2, 8)
    rng = Random(99)
    E = random_unipotent_idempotent(alg, (2, 1, 0, 0), 2, rng)
    first = extract_homogeneous_basis(E)
    second = extract_homogeneous_basis(E)
    assert first.horizon == second.horizon
    assert first.image_dims == second.image_dims
    assert len(first) == len(second)
    assert all(_vec_eq(u, v) for u, v in zip(first, second))


def test_random_battery():
    rng = Random(1729)
    for trial in range(10):
        num_vars = 1 + trial % 2
        alg = polynomial_algebra(num_vars, 10)
        size = rng.randint(2, 4)
        shifts = tuple(sorted((rng.randint(0, 3) for _ in range(size)), reverse=True))
        rank = rng.randint(0, size)
        E = random_unipotent_idempotent(alg, shifts, rank, rng)
        result = extract_homogeneous_basis(E)
        assert len(result) == rank
        for p in result:
            assert _vec_eq(apply_matrix(alg, shifts, E.entries, p), p)


def test_random_idempotent_requires_sorted_shifts():
    alg = polynomial_algebra(1, 6)
    with pytest.raises(ValueError, match="decreasing"):
        random_unipotent_idempotent(alg, (0, 1), 1, Random(0))
    with pytest.raises(ValueError, match="rank"):
        random_unipotent_idempotent(alg, (1, 0), 3, Random(0))


def test_certification_fails_when_the_cutoff_is_too_small():
    alg = polynomial_algebra(1, 1)
    E = diagonal_idempotent(alg, (2, 2), (1, 1))
    with pytest.raises(CertificationError, match="cutoff too small"):
        extract_homogeneous_basis(E)


def _hand_example():
    alg = polynomial_algebra(1, 12)
    x = {0: ONE}
    E = GradedIdempotent(alg, (1, 0), ((dict(alg.unit()), {}), (dict(x), {})))
    return alg, E


def test_homogenize_drops_off_degree_junk():
    alg, E = _hand_example()
    # E itself, presented inhomogeneously with junk components mixed in
    splitting = [
        [{0: {0: ONE}, 3: {0: Fraction(5)}}, {}],
        [{1: {0: ONE}, 2: {0: Fraction(-7)}}, {4: {0: ONE}}],
    ]
    homog = eilenberg_homogenize(E, splitting)
    assert homog == E.entries


def test_homogenize_accepts_any_splitting_correction():
    # T = E + (I - E) R splits the surjection for every R of matching pattern
    alg, E = _hand_example()
    eye = identity_matrix(alg, 2)
    complement = tuple(
        tuple(
            {
                k: v
                for k in set(eye[i][j]) | set(E.entries[i][j])
                if (v := eye[i][j].get(k, 0) - E.entries[i][j].get(k, 0))
            }
            for j in range(2)
        )
        for i in range(2)
    )
    R = (({}, {}), ({0: Fraction(3)}, {0: ONE}))
    T = matrix_multiply(alg, E.shifts, complement, R)
    T = tuple(
        tuple(
            {
                k: v
                for k in set(E.entries[i][j]) | set(T[i][j])
                if (v := E.entries[i][j].get(k, 0) + T[i][j].get(k, 0))
            }
            for j in range(2)
        )
        for i in range(2)
    )
    degrees = ((0, None), (1, 0))
    splitting = [
        [({degrees[i][j]: T[i][j]} if T[i][j] else {}) for j in range(2)]
        for i in range(2)
    ]
    homog = eilenberg_homogenize(E, splitting, target_degrees=(1, 0))
    composed = matrix_multiply(alg, E.shifts, E.entries, homog)
    assert matrix_multiply(alg, E.shifts, composed, E.entries) == E.entries


def test_homogenize_rejects_bad_input():
    alg, E = _hand_example()
    zero = [[{}, {}], [{}, {}]]
    with pytest.raises(InvalidSplittingError):
        eilenberg_homogenize(E, zero)
    with pytest.raises(ValueError, match="generator degrees"):
        eilenberg_homogenize(E, zero, target_degrees=(0, 1))
    with pytest.raises(ValueError, match="shape"):
        eilenberg_homogenize(E, [[{}, {}]])


def test_minimal_expression_single_generator():
    alg = polynomial_algebra(1, 10)
    E = diagonal_idempotent(alg, (0,), (1,))
    basis = list(extract_homogeneous_basis(E))
    x_vec = HomogeneousVector(3, ({0: Fraction(2)},))
    expr = minimal_expression(alg, (0,), x_vec, basis)
    assert len(expr) == 1
    idx, coeff = expr[0]
    assert idx == 0 and coeff == {0: Fraction(2)}


def test_minimal_expression_round_trip():
    alg = polynomial_algebra(2, 10)
    rng = Random(7)
    shifts = (1, 1, 0)
    E = random_unipotent_idempotent(alg, shifts, 2, rng)
    basis = list(extract_homogeneous_basis(E))
    for p in basis:
        target = module_scale(alg, shifts, p, 2, {1: Fraction(3)})
        expr = minimal_expression(alg, shifts, target, basis)
        rebuilt = HomogeneousVector(target.degree, ({},) * len(shifts))
        for idx, coeff in expr:
            term = module_scale(
                alg, shifts, basis[idx], target.degree - basis[idx].degree, coeff
            )
            rebuilt = HomogeneousVector(
                target.degree,
                tuple(
                    {
                        k: v
                        for k in set(a) | set(b)
                        if (v := a.get(k, 0) + b.get(k, 0))
                    }
                    for a, b in zip(rebuilt.rows, term.rows)
                ),
            )
        assert _vec_eq(rebuilt, target)


def test_minimal_expression_detects_out_of_span():
    alg = polynomial_algebra(1, 8)
    E = diagonal_idempotent(alg, (0, 0), (1, 0))
    basis = list(extract_homogeneous_basis(E))
    outside = HomogeneousVector(2, ({}, {0: ONE}))
    with pytest.raises(ValueError, match="span"):
        minimal_expression(alg, (0, 0), outside, basis)


def test_zero_vector_needs_no_terms():
    alg = polynomial_algebra(1, 8)
    E = diagonal_idempotent(alg, (0,), (1,))
    basis = list(extract_homogeneous_basis(E))
    zero = HomogeneousVector(4, ({},))
    assert minimal_expression(alg, (0,), zero, basis) == []
