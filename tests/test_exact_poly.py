import itertools
import operator
import time
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cherpoi.exact_poly import (
    CExponent,
    ExactDivisionError,
    ExactRationalFunction,
    ExpansionDirectionError,
    LaurentPoly,
    expand_window,
    poly_terms_from_json,
    poly_terms_to_json,
    q_factorial,
    q_factorial_poly,
    rf_equal,
    rf_from_json,
    rf_to_json,
)
from cherpoi.errors import ResourceError
from cherpoi.exact_poly import _binomial_quotient, _divexact_binomial, _sum_denominator
from cherpoi.partition_core import enumerate_partitions, hooks

from _reference import ref_mul

V = ("v",)
ST = ("s", "t")


def vp(k):
    return LaurentPoly.var_power(V, "v", k)


def small_polys(variables=ST):
    exps = st.tuples(*(st.integers(-2, 2) for _ in variables))
    term = st.tuples(exps, st.integers(-4, 4))
    return st.lists(term, max_size=5).map(
        lambda terms: sum(
            (LaurentPoly.monomial(variables, e, c) for e, c in terms),
            LaurentPoly.zero(variables),
        )
    )


@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero(ST) == a
    assert a * LaurentPoly.one(ST) == a


@given(small_polys())
def test_invert_variables_involution(a):
    assert a.invert_variables().invert_variables() == a


@given(small_polys())
def test_shift_is_monomial_multiplication(a):
    assert a.shift((1, -2)) == a * LaurentPoly.monomial(ST, (1, -2))


def test_coefficient():
    f = LaurentPoly(ST, {(1, 0): 2, (0, -1): -3})
    assert f.coefficient((1, 0)) == 2
    assert f.coefficient((5, 5)) == 0


# -- the sparse kernel against sympy --------------------------------------

XYZ = ("x", "y", "z")
COEFF = st.integers(-40, 40).filter(bool)


def kernel_polys(variables):
    """Polys with nonzero int coefficients and negative exponents; five or
    more terms put both operands of a product on the packed path."""
    exps = st.tuples(*(st.integers(-3, 3) for _ in variables))
    return st.dictionaries(exps, COEFF, min_size=5, max_size=8).map(
        lambda terms: LaurentPoly(variables, terms)
    )


def to_sympy(poly: LaurentPoly):
    syms = sympy.symbols(poly.vars)
    return sum(
        (sympy.Integer(c) * sympy.Mul(*(x**e for x, e in zip(syms, exps)))
         for exps, c in poly.terms.items()),
        sympy.Integer(0),
    )


@st.composite
def kernel_pair(draw):
    variables = XYZ[: draw(st.integers(1, 3))]
    return (draw(kernel_polys(variables)), draw(kernel_polys(variables)))


@settings(deadline=None, max_examples=60)
@given(kernel_pair())
def test_packed_product_matches_sympy(pair):
    f, g = pair
    assert min(len(f.terms), len(g.terms)) > 4
    assert sympy.expand(to_sympy(f * g) - to_sympy(f) * to_sympy(g)) == 0
    assert sympy.expand(to_sympy(f + g) - to_sympy(f) - to_sympy(g)) == 0


def test_substitute_monomials():
    f = LaurentPoly(ST, {(1, 1): 1})
    g = f.substitute_monomials(V, {"s": (1,), "t": (-1,)})
    assert g == LaurentPoly.one(V)


@given(small_polys(), small_polys())
def test_rf_equal_respects_common_scaling(a, b):
    scale = LaurentPoly.one(ST) - LaurentPoly.monomial(ST, (1, 1))
    f = ExactRationalFunction(a, [b] if not b.is_zero() else [])
    g = ExactRationalFunction(a * scale, ([b] if not b.is_zero() else []) + [scale])
    assert rf_equal(f, g)


def test_sum_denominator_keeps_the_order_of_each_list():
    one = LaurentPoly.one(V)
    a, b, c = (one - vp(k) for k in (1, 2, 3))
    # the second a is a fresh copy: factors match by structure, not identity
    den, mine, theirs = _sum_denominator((a, b, one - vp(1), c), (a, c, c))
    # the shared factors by first appearance in the first list, then the
    # rest of each list in its own order
    assert (mine, theirs) == ((b, a), (c,))
    assert den == (a, c, b, a, c)
    f = ExactRationalFunction(one, (a, b, one - vp(1), c))
    assert (f + ExactRationalFunction(one, (a, c, c))).den == den


def test_rf_equal_detects_inequality():
    one = LaurentPoly.one(V)
    f = ExactRationalFunction(one - vp(2), [one - vp(1)])
    assert rf_equal(f, ExactRationalFunction(one + vp(1)))
    assert not rf_equal(f, ExactRationalFunction(one - vp(1)))


def test_rf_equal_takes_laurent_polynomials_on_either_side():
    one = LaurentPoly.one(V)
    assert rf_equal(one + vp(1), vp(1) + one)
    assert not rf_equal(one + vp(1), one - vp(1))


@pytest.mark.parametrize("f, g", [
    (LaurentPoly.one(V), LaurentPoly.one(ST)),
    (LaurentPoly.one(V), ExactRationalFunction(LaurentPoly.one(ST))),
    (ExactRationalFunction(LaurentPoly.one(V)), LaurentPoly.one(ST)),
    (ExactRationalFunction(LaurentPoly.one(V)), ExactRationalFunction(LaurentPoly.one(ST))),
])
def test_rf_equal_refuses_mixed_variable_sets(f, g):
    if type(f) is type(g):
        with pytest.raises(ValueError, match="mixed variable sets"):
            rf_equal(f, g)
    else:  # a polynomial and a rational function do not subtract at all
        with pytest.raises(TypeError):
            rf_equal(f, g)


def test_only_the_operand_forms_the_library_uses_are_defined():
    one = LaurentPoly.one(V)
    p = one - vp(1)
    f = ExactRationalFunction(one, [p])
    removed = {
        "1 + p": lambda: 1 + p,
        "1 - p": lambda: 1 - p,
        "2 * p": lambda: 2 * p,
        "p + 1": lambda: p + 1,
        "f + p": lambda: f + p,
        "p - f": lambda: p - f,
        "f * 2": lambda: f * 2,
        "2 * f": lambda: 2 * f,
        "expand_window(p)": lambda: expand_window(p, "ascending", ((0, 3),)),
    }
    for form, apply in removed.items():
        with pytest.raises(TypeError):
            apply()
            pytest.fail(f"{form} is defined")
    # the forms that stay
    assert p * 2 == p + p
    assert rf_equal(f * p, ExactRationalFunction(one))
    assert rf_equal((f + f) / f, ExactRationalFunction(one + one))
    assert rf_equal(f - f, ExactRationalFunction(LaurentPoly.zero(V)))


def test_only_the_forms_the_callers_pass_are_accepted():
    # expand_window takes one direction string for every variable and one
    # (lo, hi) pair per variable; LaurentPoly has no const and no evaluate
    one = LaurentPoly.one(ST)
    f = ExactRationalFunction(one, [one - LaurentPoly.var_power(ST, "s", 1)])
    with pytest.raises(ValueError, match="direction must be ascending or descending"):
        expand_window(f, {"s": "ascending", "t": "ascending"}, ((0, 3), (0, 3)))
    g = ExactRationalFunction(LaurentPoly.one(V), [LaurentPoly.one(V) - vp(1)])
    with pytest.raises(ValueError, match="variable count"):
        expand_window(g, "ascending", (0, 3))
    with pytest.raises(AttributeError):
        LaurentPoly.const(V, 2)
    with pytest.raises(AttributeError):
        vp(1).evaluate({"v": 1})
    # the forms that stay
    assert expand_window(g, "ascending", ((0, 3),)) == LaurentPoly(V, {(k,): 1 for k in range(4)})
    assert LaurentPoly.one(V) * 2 == LaurentPoly.monomial(V, (0,), 2)


def test_rational_arithmetic():
    one = LaurentPoly.one(V)
    half = ExactRationalFunction(one, [one - vp(1)])
    total = half + half
    assert rf_equal(total, ExactRationalFunction(one + one, [one - vp(1)]))
    assert rf_equal(half * (one - vp(1)), ExactRationalFunction(one))
    assert rf_equal(half / half, ExactRationalFunction(one))
    assert rf_equal(ExactRationalFunction(one) / half, ExactRationalFunction(one - vp(1)))


def test_q_factorial():
    assert q_factorial_poly(2) == LaurentPoly.one(V) + vp(1)
    f3 = q_factorial_poly(3)
    assert sum(f3.terms.values()) == 6
    assert f3.coefficient((0,)) == 1 and f3.coefficient((3,)) == 1
    assert rf_equal(q_factorial(4), ExactRationalFunction(q_factorial_poly(4)))


def test_expand_window_geometric_series():
    one = LaurentPoly.one(V)
    f = ExactRationalFunction(one, [one - vp(1)])
    box = expand_window(f, "ascending", ((0, 5),))
    assert all(box.coefficient((k,)) == 1 for k in range(6))

    g = ExactRationalFunction(one, [one - vp(-1)])
    box = expand_window(g, "descending", ((-5, 0),))
    assert all(box.coefficient((-k,)) == 1 for k in range(6))


def test_expand_window_two_variables():
    one = LaurentPoly.one(ST)
    s1 = one - LaurentPoly.var_power(ST, "s", 1)
    t1 = one - LaurentPoly.var_power(ST, "t", 1)
    f = ExactRationalFunction(one, [s1, t1])
    box = expand_window(f, "ascending", ((0, 3), (0, 3)))
    assert all(box.coefficient((a, b)) == 1 for a in range(4) for b in range(4))

    # mixed directions go through t -> t^-1: 1/(1 - s t^{-1}) with t
    # descending is 1/(1 - s t) with t ascending, supported on a = -b
    flip_t = {"s": (1, 0), "t": (0, -1)}
    mixed = ExactRationalFunction(one, [one - LaurentPoly.monomial(ST, (1, -1))])
    box = expand_window(mixed.substitute_monomials(ST, flip_t), "ascending", ((0, 3), (0, 3)))
    box = box.substitute_monomials(ST, flip_t)
    assert box.coefficient((2, -2)) == 1
    assert box.coefficient((2, -1)) == 0


def test_expand_window_rejects_bad_direction():
    one = LaurentPoly.one(V)
    f = ExactRationalFunction(one, [one * 2 - vp(1)])
    with pytest.raises(ExpansionDirectionError):
        expand_window(f, "ascending", ((0, 3),))


def test_expand_window_refuses_bad_windows():
    f = ExactRationalFunction(LaurentPoly.one(V), [LaurentPoly.one(V) - vp(1)])
    for bounds in [(0, 2.9), (0.5, 2.9), (False, 3), (Fraction(0), 3), ("0", 3)]:
        with pytest.raises(TypeError):
            expand_window(f, "ascending", [bounds])
    with pytest.raises(ValueError, match="variable count"):
        expand_window(f, "ascending", [(0, 3), (0, 3)])
    g = ExactRationalFunction(LaurentPoly.one(ST))
    with pytest.raises(ValueError, match="variable count"):
        expand_window(g, "ascending", [(0, 3)])
    with pytest.raises(ValueError, match="empty window"):
        expand_window(f, "ascending", [(3, 2)])
    with pytest.raises(ValueError, match="empty window"):
        expand_window(g, "ascending", ((0, 3), (1, -1)))


def test_expand_window_steep_tail_stays_out_of_the_window():
    # a tail's step reaches far past the window: t^17 s^a is dropped, and
    # never read as a term inside it, such as s^(a+1) t
    one = LaurentPoly.one(ST)
    f = ExactRationalFunction(one, [one - LaurentPoly.var_power(ST, "s", 1), one - LaurentPoly.var_power(ST, "t", 17)])
    box = expand_window(f, "ascending", ((0, 3), (0, 3)))
    assert box.terms == {(a, 0): 1 for a in range(4)}


def test_expand_window_finite_numerator_truncation():
    # numerator terms outside the window are dropped, inside kept exactly
    f = ExactRationalFunction(vp(-2) + vp(2))
    box = expand_window(f, "ascending", ((0, 3),))
    assert box.coefficient((2,)) == 1
    assert box.coefficient((-2,)) == 0


def test_cexponent():
    a = CExponent(Fraction(1, 2), -1)
    b = CExponent(Fraction(1, 2), 1)
    assert (a + b) == CExponent(Fraction(1), 0)
    assert "c" in str(a)


def test_rf_json_roundtrip():
    one = LaurentPoly.one(ST)
    f = ExactRationalFunction(
        one + LaurentPoly.monomial(ST, (1, -2), -3),
        [one - LaurentPoly.var_power(ST, "s", 1)],
    )
    doc = rf_to_json(f)
    g = rf_from_json(doc)
    assert rf_equal(f, g)
    assert doc["vars"] == ["s", "t"]
    # coefficients are decimal strings, terms in lex order of exponents
    assert doc["num"] == [["1", [0, 0]], ["-3", [1, -2]]]
    assert doc["den"] == [[["1", [0, 0]], ["-1", [1, 0]]]]


# -- coefficients are nonzero ints, and nothing else is accepted


def mixed_polys(variables=ST, max_terms=5):
    exps = st.tuples(*(st.integers(-2, 2) for _ in variables))
    return st.dictionaries(exps, COEFF, max_size=max_terms).map(lambda terms: LaurentPoly(variables, terms))


def assert_normal_form(poly: LaurentPoly):
    for c in poly.terms.values():
        assert type(c) is int and c != 0, repr(c)


@settings(deadline=None, max_examples=80)
@given(mixed_polys(), mixed_polys(), st.integers(-40, 40))
def test_coefficients_stay_in_normal_form(a, b, c):
    one = LaurentPoly.one(ST)
    results = [
        a,
        a + b,
        a - b,
        a * b,
        a * c,
        a + one * c,
        a.invert_variables(),
        a.shift((1, -2)),
        a.substitute_monomials(V, {"s": (1,), "t": (-1,)}),
        poly_terms_from_json(ST, poly_terms_to_json(a)),
    ]
    # each factor's lex-lowest term is 1 in its direction: t -> t^-1 flips
    # s*t to exponent (1, -1)
    flip_t = {"s": (1, 0), "t": (0, -1)}
    up = one - LaurentPoly.monomial(ST, (0, 1), 2) + LaurentPoly.monomial(ST, (1, -1), c)
    mixed = one + LaurentPoly.monomial(ST, (1, 1), c) - LaurentPoly.monomial(ST, (1, 0), 3)
    results.append(expand_window(ExactRationalFunction(a, [up]), "ascending", ((-2, 2), (-3, 3))))
    results.append(expand_window(ExactRationalFunction(a, [mixed]).substitute_monomials(ST, flip_t), "ascending",
                                 ((-2, 2), (-2, 2))))
    for poly in results:
        assert_normal_form(poly)


def test_exponents_stay_within_64_bits():
    big = vp(2**62)
    with pytest.raises(OverflowError):
        LaurentPoly(V, {(2**63,): 1})
    with pytest.raises(OverflowError):
        big * big
    with pytest.raises(OverflowError):
        big.shift((-(2**62),)).invert_variables().shift((-(2**63),))


def test_float_coefficients_are_refused():
    # an integral Fraction, a rational, a string, a float and a bool are not ints
    for c in (Fraction(2), Fraction(1, 2), "3", 0.5, True):
        with pytest.raises(TypeError):
            LaurentPoly(V, {(0,): c})
        with pytest.raises(TypeError):
            LaurentPoly.monomial(V, (1,), c)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(vp(1), c)
            with pytest.raises(TypeError):
                op(c, vp(1))
            with pytest.raises(TypeError):
                op(ExactRationalFunction(vp(1)), c)
    with pytest.raises(TypeError):
        poly_terms_from_json(V, [[2.5, [1]]])


def test_non_int_exponents_are_refused():
    f = LaurentPoly(ST, {(1, 1): 2})
    for bad in (2.9, Fraction(2), True, "2"):
        with pytest.raises(TypeError):
            LaurentPoly(V, {(bad,): 1})
        with pytest.raises(TypeError):
            f.shift((bad, 0))
        with pytest.raises(TypeError):
            f.coefficient((1, bad))
        with pytest.raises(TypeError):
            f.substitute_monomials(V, {"s": (bad,), "t": (1,)})
    # JSON exponents must be integers, not floats or true
    for bad in (2.5, True):
        with pytest.raises(TypeError):
            poly_terms_from_json(V, [["3", [bad]]])
    # a wrong-length vector is a caller's error, not an absent term
    with pytest.raises(ValueError):
        f.coefficient((1,))
    with pytest.raises(ValueError):
        f.shift((1,))
    # a term beyond the exponent range is truly absent
    assert f.coefficient((2**63, 0)) == 0
    assert f.coefficient((1, 1)) == 2 and type(f.coefficient((0, 0))) is int


# -- rf_equal and expand_window against sympy --------------------------------


def rf_to_sympy(f: ExactRationalFunction):
    den = sympy.Mul(*(to_sympy(fac) for fac in f.den))
    return to_sympy(f.num) / den


def nonzero_polys(variables=ST):
    return mixed_polys(variables).filter(bool)


rational_functions = st.builds(
    ExactRationalFunction, mixed_polys(), st.lists(nonzero_polys(), max_size=2)
)


@settings(deadline=None, max_examples=40)
@given(rational_functions, rational_functions, nonzero_polys(), st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
def test_rf_equal_matches_sympy_cancel(f, g, h, e):
    def sympy_equal(x, y):
        return sympy.cancel(rf_to_sympy(x) - rf_to_sympy(y)) == 0

    # an equal pair with a different representation: f times h/h
    same = ExactRationalFunction(f.num * h, (h,) + f.den)
    assert rf_equal(f, same) and sympy_equal(f, same)
    # an unequal pair: f plus a nonzero monomial
    other = same + ExactRationalFunction(LaurentPoly.monomial(ST, e))
    assert not rf_equal(f, other) and not sympy_equal(f, other)
    # an unrelated pair, usually unequal
    assert rf_equal(f, g) == sympy_equal(f, g)


SHIFT = 20  # beyond any pole order the strategy below draws


def sympy_window(f: ExactRationalFunction, direction: str, lo: int, hi: int) -> dict:
    """{exponent: coefficient} of f's series in v on [lo, hi], by sympy.series;
    descending expands f(1/w) at w = 0 and reads w^k as v^-k."""
    v, w = sympy.symbols("v w")
    if direction == "ascending":
        x, expr, sign, top = v, rf_to_sympy(f), 1, hi
    else:
        x, expr, sign, top = w, rf_to_sympy(f).subs(v, 1 / w), -1, -lo
    # times x^SHIFT, the Laurent series becomes a power series, truncated
    # above x^(top + SHIFT)
    series = sympy.series(expr * x**SHIFT, x, 0, top + SHIFT + 1).removeO()
    shifted = sympy.Poly(sympy.expand(series), x)
    out = {sign * (k - SHIFT): c for (k,), c in shifted.terms()}
    return {k: Fraction(int(c.p), int(c.q)) for k, c in out.items() if lo <= k <= hi}


@st.composite
def univariate_windows(draw):
    """(f, direction, lo, hi) with every factor's first term +-1 in the direction."""
    direction = draw(st.sampled_from(["ascending", "descending"]))
    step = 1 if direction == "ascending" else -1
    factors = []
    for _ in range(draw(st.integers(1, 2))):
        k0 = draw(st.integers(-1, 2))
        tail = draw(st.dictionaries(st.integers(1, 3), COEFF, min_size=1, max_size=2))
        terms = {(k0,): draw(st.sampled_from([1, -1]))}
        terms.update({(k0 + step * d,): c for d, c in tail.items()})
        factors.append(LaurentPoly(V, terms))
    num = draw(mixed_polys(V, max_terms=3))
    lo = draw(st.integers(-4, 1))
    return ExactRationalFunction(num, factors), direction, lo, lo + draw(st.integers(0, 5))


@settings(deadline=None, max_examples=40)
@given(univariate_windows())
def test_expand_window_matches_sympy_series(case):
    f, direction, lo, hi = case
    box = expand_window(f, direction, ((lo, hi),))
    assert {e: c for (e,), c in box.terms.items()} == sympy_window(f, direction, lo, hi)


def sympy_window_2d(f: ExactRationalFunction, signs, box) -> dict:
    """{exponent: coefficient} of f on box, by iterated sympy.series: after
    s -> 1/s and t -> 1/t on the descending variables, expand in s at 0, then
    each s-coefficient in t at 0, which is the lex field with s outermost."""
    s, t = sympy.symbols(ST)
    flips = {x: 1 / x for x, sign in zip((s, t), signs) if sign < 0}
    expr = rf_to_sympy(f).subs(flips, simultaneous=True)
    (plo, phi), (qlo, qhi) = [(lo, hi) if sign > 0 else (-hi, -lo) for (lo, hi), sign in zip(box, signs)]
    outer = sympy.expand(sympy.series(expr * s**SHIFT, s, 0, phi + SHIFT + 1).removeO())
    out = {}
    for p in range(plo, phi + 1):
        coeff = sympy.cancel(outer.coeff(s, p + SHIFT))
        inner = sympy.series(coeff * t**SHIFT, t, 0, qhi + SHIFT + 1).removeO()
        for (k,), c in sympy.Poly(sympy.expand(inner), t).terms():
            if qlo <= k - SHIFT <= qhi and c:
                out[(signs[0] * p, signs[1] * (k - SHIFT))] = Fraction(int(c.p), int(c.q))
    return out


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)], ids=["s+t+", "s+t-", "s-t+", "s-t-"])
def test_expand_window_two_variables_matches_sympy_series(signs):
    """Tails s^2 t^-1 and s^3 t^-2 (in the flipped coordinates) drop the second
    exponent by 1/2 and 2/3 per unit of the first, so the prune's slope is the
    non-integral 2/3; numerator terms above the box must survive it."""

    def mono(i, j, c=1):  # s^i t^j in the flipped coordinates
        return LaurentPoly.monomial(ST, (signs[0] * i, signs[1] * j), c)

    one = LaurentPoly.one(ST)
    num = one + mono(0, 3) + mono(1, 4, -2) + mono(2, 5, 3)
    f = ExactRationalFunction(num, [one - mono(2, -1), one - mono(3, -2), mono(0, 1) - one])
    box = [(0, 6), (-3, 2)]
    box = [(lo, hi) if sign > 0 else (-hi, -lo) for (lo, hi), sign in zip(box, signs)]
    # one direction for both variables, s's: a t of the other direction is
    # flipped by t -> t^-1 before the expansion and after it
    flip = {"s": (1, 0), "t": (0, signs[0] * signs[1])}
    direction = "ascending" if signs[0] > 0 else "descending"
    t_box = box[1] if signs[0] == signs[1] else (-box[1][1], -box[1][0])
    series = expand_window(f.substitute_monomials(ST, flip), direction, (box[0], t_box))
    series = series.substitute_monomials(ST, flip)
    expected = sympy_window_2d(f, signs, box)
    assert len(expected) > 20
    assert series.terms == expected


# -- packed keys against a tuple-dict reference -------------------------------

NEAR = 2**62
KEY_EXPONENT = st.one_of(
    st.integers(-3, 3), st.integers(NEAR - 3, NEAR + 3), st.integers(-NEAR - 3, -NEAR + 3)
)


def ref_clean(terms: dict) -> dict:
    """terms without zeros; OverflowError if an exponent leaves the 64-bit range."""
    out = {e: c for e, c in terms.items() if c}
    if any(abs(x) >= 2**63 for e in out for x in e):
        raise OverflowError
    return out


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return out


def ref_substitute(a: dict, images: list) -> dict:
    out = {}
    for e, c in a.items():
        new = tuple(sum(x * image[j] for x, image in zip(e, images)) for j in range(len(images[0])))
        out[new] = out.get(new, 0) + c
    return out


def agrees(op, reference) -> None:
    """op() equals the reference's terms, or both overflow."""
    try:
        expected = ref_clean(reference)
    except OverflowError:
        with pytest.raises(OverflowError):
            op()
        return
    poly = op()
    assert poly.terms == expected
    assert poly.sorted_terms() == sorted(poly.terms.items())


@st.composite
def key_case(draw):
    k = draw(st.integers(1, 3))
    terms = st.dictionaries(st.tuples(*[KEY_EXPONENT] * k), COEFF, max_size=4)
    width = draw(st.integers(1, 3))
    images = [draw(st.tuples(*[st.integers(-5, 5)] * width)) for _ in range(k)]
    return k, draw(terms), draw(terms), draw(st.tuples(*[KEY_EXPONENT] * k)), images


@settings(deadline=None, max_examples=300)
@given(key_case())
def test_packed_keys_match_tuple_arithmetic(case):
    k, a, b, step, images = case
    variables, new_vars = XYZ[:k], ("u", "v", "w")[: len(images[0])]
    f, g = LaurentPoly(variables, a), LaurentPoly(variables, b)
    assert f.terms == ref_clean(a) and f.sorted_terms() == sorted(f.terms.items())
    agrees(lambda: f + g, ref_add(a, b))
    agrees(lambda: f * g, ref_mul(a, b))
    agrees(lambda: f.shift(step), {tuple(x + s for x, s in zip(e, step)): c for e, c in a.items()})
    agrees(lambda: f.invert_variables(), {tuple(-x for x in e): c for e, c in a.items()})
    agrees(lambda: f.substitute_monomials(new_vars, dict(zip(variables, images))), ref_substitute(a, images))


def test_substitute_monomials_on_wide_slots():
    # these images take the exponents to 4 (2^63 - 1) and past it, beyond
    # what a 66-bit slot holds; substitute_monomials maps exponent tuples, so
    # the sums are exact and the result cancels back into range or, for the
    # last two images, overflows. Read off a 66-bit key, v = 8 (2^63 - 1) =
    # 2^66 - 8 would be v = -8 and u + 1
    big = 2**63 - 1
    a = {(big, big): 3, (big, big - 1): -1, (1, 2): 2, (-big, 1 - big): 5}
    f = LaurentPoly(("x", "y"), a)
    wide = ([(2,), (-2,)], [(5, -3), (-5, 3)], [(-1, 4, 2), (1, -4, -2)], [(1,), (1,)], [(0, 5), (0, 3)])
    for images in wide:
        new_vars = ("u", "v", "w")[: len(images[0])]
        agrees(lambda: f.substitute_monomials(new_vars, dict(zip("xy", images))), ref_substitute(a, images))
    assert f.substitute_monomials(("u",), {"x": (2,), "y": (-2,)}).terms == {(0,): 3, (2,): -1, (-2,): 7}


def test_substitute_monomials_from_no_variables():
    # a polynomial in no variables is a constant, and lands at exponent 0
    f = LaurentPoly((), {(): 3})
    assert f.substitute_monomials(("u", "v"), {}).terms == {(0, 0): 3}
    assert f.substitute_monomials((), {}).terms == {(): 3}


def test_substitute_monomials_cancels_past_2_63():
    # both terms land on u^(2^64 - 2), past the 64-bit range, and cancel
    big = 2**63 - 1
    f = LaurentPoly(("x", "y"), {(big, 0): 5, (0, big): -5, (1, 1): 2})
    assert f.substitute_monomials(("u",), {"x": (2,), "y": (2,)}).terms == {(4,): 2}


def test_substitute_monomials_refuses_a_surviving_exponent_past_2_63():
    big = 2**63 - 1
    f = LaurentPoly(("x", "y"), {(big, 0): 5, (0, big): -4})
    with pytest.raises(OverflowError):
        f.substitute_monomials(("u",), {"x": (2,), "y": (2,)})
    with pytest.raises(OverflowError):
        f.substitute_monomials(("u", "v"), {"x": (0, 2), "y": (0, 2)})


@pytest.mark.parametrize("order", [0, 1])
def test_expand_window_layers_past_2_65(order):
    # 1/((1 - s t^-M)(1 - t^M)): its layers reach q = -6M < -2^65 before
    # t^M lifts them back into the window, wider than a LaurentPoly key's
    # 66-bit slot
    m = 2**63 - 1
    one = LaurentPoly.one(ST)
    den = [one - LaurentPoly(ST, {(1, -m): 1}), one - LaurentPoly(ST, {(0, m): 1})]
    f = ExactRationalFunction(one, den[order:] + den[:order])
    series = expand_window(f, "ascending", ((0, 6), (-m, m)))
    assert series.terms == {(i, j * m): 1 for i in range(7) for j in (-1, 0, 1) if i + j >= 0}


def _dense(poly, length):
    return [poly.coefficient((k,)) for k in range(length)]


@settings(deadline=None, max_examples=150)
@given(st.lists(st.integers(-9, 9), max_size=12), st.integers(1, 6), st.booleans())
def test_binomial_division_matches_divexact(coeffs, h, multiple):
    # a multiple of 1 - v^h divides; most other lists do not, and sympy's
    # remainder must then be nonzero exactly when the kernel refuses
    binom = LaurentPoly.one(V) - vp(h)
    a = LaurentPoly(V, {(k,): c for k, c in enumerate(coeffs)})
    if multiple:
        a = a * binom
    length = len(coeffs) + (h if multiple else 0)
    v = sympy.Symbol("v")
    quotient, remainder = sympy.div(to_sympy(a), 1 - v**h, v)
    if remainder != 0:
        with pytest.raises(ExactDivisionError):
            _divexact_binomial(_dense(a, length), h)
        return
    got = _divexact_binomial(_dense(a, length), h)
    assert sympy.expand(sum(c * v**k for k, c in enumerate(got)) - quotient) == 0
    assert len(got) == max(length - h, 0)


def test_binomial_division_rejects_a_remainder():
    # (1 - v^4) / (1 - v^2) = 1 + v^2; changing any coefficient leaves a remainder
    assert _divexact_binomial([1, 0, 0, 0, -1], 2) == [1, 0, 1]
    for k in range(5):
        mutant = [1, 0, 0, 0, -1]
        mutant[k] += 1
        with pytest.raises(ExactDivisionError):
            _divexact_binomial(mutant, 2)
    with pytest.raises(ExactDivisionError):
        _divexact_binomial([3], 2)


@pytest.mark.parametrize("n", range(1, 8))
def test_q_factorial_counts_permutations_by_inversions(n):
    inversions = Counter(
        sum(a > b for a, b in itertools.combinations(sigma, 2)) for sigma in itertools.permutations(range(n))
    )
    assert q_factorial_poly(n) == LaurentPoly(V, {(k,): c for k, c in inversions.items()})


@pytest.mark.parametrize("n", range(1, 8))
def test_binomial_quotient_refuses_a_factor_left_uncancelled(n):
    # a kernel that drops a shared factor from top but leaves it in bottom
    # divides [n]_v! or a fake degree by one more binomial 1 - v^h; neither
    # vanishes at v = 1 (n! and dim mu), so neither is divisible
    cases = [(list(range(1, n + 1)), [1] * n)]
    cases += [(list(range(1, n + 1)), hooks(mu)) for mu in enumerate_partitions(n)]
    for top, bottom in cases:
        for shared in set(top) & set(bottom):
            short = list(top)
            short.remove(shared)
            with pytest.raises(ExactDivisionError):
                _binomial_quotient(short, bottom)


def test_expand_window_budget_stops_a_runaway_expansion():
    # the numerator sits 2^62 layers of 1/(1 - s) below the window, so the
    # expansion would never end; the budget makes it a ResourceError
    one = LaurentPoly.one(ST)
    den = [one - LaurentPoly.var_power(ST, "s", 1), one - LaurentPoly.var_power(ST, "t", 1)]
    f = ExactRationalFunction(LaurentPoly.monomial(ST, (-(2**62), 0)), den)
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="term products"):
        expand_window(f, "ascending", ((-5, 5), (0, 4)))
    assert time.perf_counter() - start < 15
