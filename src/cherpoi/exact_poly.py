"""Exact Laurent polynomials and rational functions with factored denominators.

Coefficients are exact rationals in one normal form: an int when integral, a
fractions.Fraction with denominator other than 1 otherwise, never a float.
Most polynomials here are integral, so most arithmetic runs on ints.
Rational functions keep their denominator as a list of unexpanded factors and
are never reduced by a polynomial gcd, so equality is decided by
cross-multiplication and series expansion can orient each factor separately.

One private sparse kernel on plain {exponent tuple: coefficient} dicts does
the arithmetic, here and in macdonald and commutative_oracle: _mul (packed
multiply, int or Fraction coefficients), _add_into (scaled accumulate) and
_divexact_int (lex-peeling exact division over Z). divexact clears
denominators and divides by the divisor's integer content before peeling.
_mul packs its factors' exponent tuples into ints over the product's box,
multiplies them by _mul_packed, whose keys add, and unpacks the result;
commutative_oracle keeps its polynomials packed and calls _mul_packed
directly. _add_into works on either kind of key.

Window expansion semantics: a direction choice (ascending or descending per
variable) selects signs for the exponents; after flipping, f is expanded in
the lexicographic Laurent field determined by the variable order (first
variable outermost, so for vars (s, t) this is Q((t))((s)) in the flipped
exponents). Each denominator factor must have lowest term with coefficient
+1 or -1 in that order, which is the usual geometric-series condition.
Each factor is then 1 - g up to a sign and a monomial, and the numerator is
multiplied by sum_k g^k one layer g^k at a time. A term that lies past the
window and cannot come back into it is dropped as soon as it appears, and
so are all its multiples; the expansion stops at the first empty layer. The
layers and their sum are plain {(p, q): coefficient} dicts, a single
variable being p with q = 0, and only the result becomes a LaurentPoly.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

MAX_EXPONENT = 2**63  # exponents are conceptually signed 64-bit; beyond is a hard error


class ExpansionDirectionError(ValueError):
    """A denominator factor cannot be series-expanded in the chosen direction."""


class ExactDivisionError(ArithmeticError):
    """Polynomial division that was expected to be exact failed."""


def _as_fraction(c) -> int | Fraction:
    """c as a coefficient in normal form: int if integral, else Fraction."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, str):
        c = Fraction(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"not an exact rational: {c!r}")


# ---------------------------------------------------------------------------
# Sparse kernel on plain {exponent tuple: coefficient} dicts, shared by
# LaurentPoly, the power sums in macdonald and the commutative oracle
# ---------------------------------------------------------------------------


def _box(terms) -> list[tuple[int, int]]:
    """Per-variable (min, max) exponent of a nonzero sparse polynomial."""
    return [(min(xs), max(xs)) for xs in zip(*terms)]


def _packing(box, radix):
    """(pack, unpack) between exponent tuples and ints.

    pack is linear (packed exponents add as tuples do) with the mixed-radix
    strides of the box radix, so it is injective and lex-monotone on radix.
    unpack(key) is the tuple inside box that packs to key, or None when there
    is none; box must fit inside a translate of radix.
    """
    strides = [1] * len(radix)
    for i in range(len(radix) - 1, 0, -1):
        lo, hi = radix[i]
        strides[i - 1] = strides[i] * (hi - lo + 1)
    base = sum(lo * s for (lo, _), s in zip(box, strides))
    digits = [(s, lo, hi - lo) for (lo, hi), s in zip(box, strides)]

    def pack(e) -> int:
        return sum(map(operator.mul, e, strides))

    def unpack(key):
        rem = key - base
        if rem < 0:
            return None
        e = []
        for s, lo, top in digits:
            d, rem = divmod(rem, s)
            if d > top:
                return None
            e.append(lo + d)
        return tuple(e)

    return pack, unpack


def _mul(a: dict, b: dict) -> dict:
    """Product of two sparse polynomials; coefficients may be ints or Fractions."""
    if not a or not b:
        return {}
    small, big = (a, b) if len(a) < len(b) else (b, a)
    out: dict = {}
    if len(small) <= 4:
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                e = tuple(map(operator.add, e1, e2))
                acc = out.get(e)
                s = c1 * c2 if acc is None else acc + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return out
    # pack exponent tuples into single ints over the product's box, so the
    # inner loop adds ints, not tuples
    box = [(l1 + l2, h1 + h2) for (l1, h1), (l2, h2) in zip(_box(small), _box(big))]
    pack, unpack = _packing(box, box)
    out = _mul_packed(
        {pack(e): c for e, c in small.items()}, {pack(e): c for e, c in big.items()}
    )
    return {unpack(key): c for key, c in out.items()}


def _mul_packed(a: dict, b: dict) -> dict:
    """Product of two sparse polynomials keyed by packed ints, under a
    packing in which a product's key is the sum of its factors' keys (no
    exponent overflows its slot)."""
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = k1 + k2
            acc = out.get(key)
            s = c1 * c2 if acc is None else acc + c1 * c2
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def _add_into(acc: dict, p: dict, scale=1) -> None:
    """acc += scale * p, in place; scale is nonzero."""
    for e, c in p.items():
        if scale != 1:
            c = scale * c
        old = acc.get(e)
        if old is None:
            acc[e] = c
        else:
            s = old + c
            if s == 0:
                del acc[e]
            else:
                acc[e] = s


def _clear_denominators(polys) -> tuple[list[dict], int]:
    """(ints, lcm): each Fraction-coefficient dict times the lcm of every
    coefficient denominator in polys, as int-coefficient dicts."""
    lcm = math.lcm(*(c.denominator for p in polys for c in p.values()))
    return [{e: c.numerator * (lcm // c.denominator) for e, c in p.items()} for p in polys], lcm


def _divexact_int(a: dict, b: dict) -> dict:
    """Exact quotient a/b of int-coefficient sparse polynomials, by lex peeling.

    A true quotient lies in the box [min a - min b, max a - max b] (per
    variable) and lex-above min a - min b; a peeled term outside either, a
    coefficient that does not divide, or an exhausted step budget raises
    ExactDivisionError.
    """
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return {}
    box_a, box_b = _box(a), _box(b)
    qbox = [(la - lb, ha - hb) for (la, ha), (lb, hb) in zip(box_a, box_b)]
    if any(lo > hi for lo, hi in qbox):
        raise ExactDivisionError("not exactly divisible")
    # the remainder stays inside box_a, where max of packed keys is lex max;
    # unpack certifies each quotient exponent inside qbox before it is used
    pack, unpack = _packing(qbox, box_a)
    lead_b = max(b)
    cb = b[lead_b]
    lead_key = pack(lead_b)
    qlow = pack(min(a)) - pack(min(b))
    if unpack(qlow) is None:
        raise ExactDivisionError("not exactly divisible")
    b_p = [(pack(e), c) for e, c in b.items()]
    rem = {pack(e): c for e, c in a.items()}
    quotient: dict = {}
    budget = 4 * (len(a) + len(b)) + 10_000_000 // len(b)
    while rem:
        top = max(rem)
        qkey = top - lead_key
        eq = unpack(qkey)
        cq, r = divmod(rem[top], cb)
        if eq is None or qkey < qlow or r:
            raise ExactDivisionError("not exactly divisible")
        quotient[eq] = cq
        for kb, c in b_p:
            key = qkey + kb
            s = rem.get(key, 0) - cq * c
            if s:
                rem[key] = s
            else:
                del rem[key]
        budget -= 1
        if budget < 0:
            raise ExactDivisionError("division budget exceeded; input likely not divisible")
    return quotient


class LaurentPoly:
    """A Laurent polynomial: map from integer exponent vectors to nonzero
    coefficients, each an int or a non-integral Fraction."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: tuple[str, ...], terms: Mapping[tuple[int, ...], int | Fraction | str]):
        self.vars = tuple(variables)
        clean: dict[tuple[int, ...], int | Fraction] = {}
        k = len(self.vars)
        for exps, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != k:
                raise ValueError(f"exponent vector {exps} does not match vars {self.vars}")
            if any(abs(e) >= MAX_EXPONENT for e in exps):
                raise OverflowError(f"exponent out of 64-bit range: {exps}")
            clean[exps] = coeff
        self.terms = clean

    @classmethod
    def _build(cls, variables: tuple[str, ...], terms: dict) -> "LaurentPoly":
        """Wrap a fresh dict built by arithmetic on valid polys: its exponent
        vectors already have the right arity and int entries, and it holds no
        zero. Only integral Fractions and the exponent bound are checked."""
        for e, c in terms.items():
            if type(c) is not int and c.denominator == 1:
                terms[e] = c.numerator
        for lo, hi in _box(terms):
            if lo <= -MAX_EXPONENT or hi >= MAX_EXPONENT:
                raise OverflowError(f"exponent out of 64-bit range: {(lo, hi)}")
        poly = object.__new__(cls)
        poly.vars = variables
        poly.terms = terms
        return poly

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "LaurentPoly":
        return cls(tuple(variables), {})

    @classmethod
    def const(cls, variables, c) -> "LaurentPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): _as_fraction(c)})

    @classmethod
    def one(cls, variables) -> "LaurentPoly":
        return cls.const(variables, 1)

    @classmethod
    def monomial(cls, variables, exps, coeff=1) -> "LaurentPoly":
        return cls(tuple(variables), {tuple(exps): _as_fraction(coeff)})

    @classmethod
    def var_power(cls, variables, name: str, power: int, coeff=1) -> "LaurentPoly":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = power
        return cls.monomial(variables, exps, coeff)

    # -- basic structure -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def _check_same_vars(self, other: "LaurentPoly"):
        if self.vars != other.vars:
            raise ValueError(f"mixed variable sets: {self.vars} vs {other.vars}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_same_vars(other)
        out = dict(self.terms)
        _add_into(out, other.terms)
        return LaurentPoly._build(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._build(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return LaurentPoly.zero(self.vars)
            return LaurentPoly._build(self.vars, {e: cc * c for e, cc in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_same_vars(other)
        return LaurentPoly._build(self.vars, _mul(self.terms, other.terms))

    __rmul__ = __mul__

    def shift(self, exps: tuple[int, ...]) -> "LaurentPoly":
        """Multiply by the monomial with the given exponent vector."""
        exps = tuple(int(x) for x in exps)
        if len(exps) != len(self.vars):
            raise ValueError(f"exponent vector {exps} does not match vars {self.vars}")
        return LaurentPoly._build(self.vars, {tuple(map(operator.add, e, exps)): c for e, c in self.terms.items()})

    # -- substitution and evaluation ------------------------------------

    def substitute_monomials(self, new_vars, mapping: Mapping[str, tuple[int, ...]]) -> "LaurentPoly":
        """Map each variable to a monomial (exponent vector over new_vars)."""
        new_vars = tuple(new_vars)
        images = []
        for name in self.vars:
            if name not in mapping:
                raise ValueError(f"no image for variable {name}")
            images.append(tuple(mapping[name]))
        out: dict[tuple[int, ...], int | Fraction] = {}
        for e, coeff in self.terms.items():
            new_e = [0] * len(new_vars)
            for power, image in zip(e, images):
                for i, ei in enumerate(image):
                    new_e[i] += power * ei
            key = tuple(new_e)
            acc = out.get(key)
            tot = coeff if acc is None else acc + coeff
            if tot == 0:
                out.pop(key, None)
            else:
                out[key] = tot
        return LaurentPoly(new_vars, out)

    def invert_variables(self) -> "LaurentPoly":
        """Substitute every variable x by x^(-1)."""
        return LaurentPoly._build(self.vars, {tuple(-x for x in e): c for e, c in self.terms.items()})

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        """Full evaluation at exact rational points (nonzero where exponents are negative)."""
        # Fraction, not int, so that x**power stays exact for negative powers
        vals = [Fraction(_as_fraction(values[name])) for name in self.vars]
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for x, power in zip(vals, e):
                if power:
                    if x == 0 and power < 0:
                        raise ZeroDivisionError("negative exponent at zero")
                    term *= x**power
            total += term
        return total

    # -- term access ------------------------------------------------------

    def coefficient(self, exps) -> int | Fraction:
        return self.terms.get(tuple(exps), 0)

    def lowest_term_lex(self) -> tuple[tuple[int, ...], int | Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no lowest term")
        e = min(self.terms)
        return e, self.terms[e]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        return sorted(self.terms.items())

    # -- rendering ---------------------------------------------------------

    def _render(self, mul: str, pow_open: str, pow_close: str) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = []
            for name, power in zip(self.vars, e):
                if power == 0:
                    continue
                if power == 1:
                    mono.append(name)
                else:
                    mono.append(f"{name}^{pow_open}{power}{pow_close}")
            ms = mul.join(mono)
            if not ms:
                piece = str(abs(c))
            elif abs(c) == 1:
                piece = ms
            else:
                piece = f"{abs(c)}{mul}{ms}" if mul else f"{abs(c)}{ms}"
            bits.append(("- " if c < 0 else "+ ") + piece)
        s = " ".join(bits)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def __str__(self) -> str:
        return self._render("*", "", "")

    def latex(self) -> str:
        return self._render("", "{", "}")

    def __repr__(self) -> str:
        return f"LaurentPoly({self.vars}, {self})"


def divexact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division a/b of Laurent polynomials, peeling lex-leading terms.

    Raises ExactDivisionError when the division cannot complete. Intended for
    divisions that are exact by construction (fraction-free elimination).
    """
    a._check_same_vars(b)
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return LaurentPoly.zero(a.vars)
    (ai,), la = _clear_denominators([a.terms])
    (bi,), lb = _clear_denominators([b.terms])
    # Gauss's lemma: a primitive integer divisor divides over Q exactly when
    # it divides over Z, so the peeling below stays in the integers
    g = math.gcd(*bi.values())
    q = _divexact_int(ai, {e: c // g for e, c in bi.items()})
    scale = Fraction(lb, la * g)
    return LaurentPoly._build(a.vars, {e: c * scale for e, c in q.items()})


class CExponent(NamedTuple):
    """A formal exponent const + c_coeff*c used as a global degree prefix."""

    const: Fraction
    c_coeff: int

    def __add__(self, other: "CExponent") -> "CExponent":
        return CExponent(self.const + other.const, self.c_coeff + other.c_coeff)

    def __str__(self) -> str:
        if self.c_coeff == 0:
            return str(self.const)
        cpart = "c" if self.c_coeff == 1 else ("-c" if self.c_coeff == -1 else f"{self.c_coeff}*c")
        if self.const == 0:
            return cpart
        sign = "+" if self.c_coeff > 0 else "-"
        mag = abs(self.c_coeff)
        return f"{self.const} {sign} {'' if mag == 1 else str(mag) + '*'}c"


def _factor_key(p: LaurentPoly):
    return tuple(sorted(p.terms.items()))


class ExactRationalFunction:
    """numerator / product of denominator factors, all exact, never reduced."""

    __slots__ = ("vars", "num", "den")

    def __init__(self, num: LaurentPoly, den: Iterable[LaurentPoly] = ()):
        self.num = num
        self.den = tuple(den)
        self.vars = num.vars
        for f in self.den:
            if f.vars != self.vars:
                raise ValueError(f"mixed variable sets: {f.vars} vs {self.vars}")
            if f.is_zero():
                raise ZeroDivisionError("zero denominator factor")

    def den_product(self) -> LaurentPoly:
        return _product(self.vars, self.den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other) -> "ExactRationalFunction":
        if isinstance(other, ExactRationalFunction):
            return other
        if isinstance(other, LaurentPoly):
            return ExactRationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return ExactRationalFunction(LaurentPoly.const(self.vars, other))
        raise TypeError(f"cannot combine with {other!r}")

    def __add__(self, other):
        other = self._coerce(other)
        if self.vars != other.vars:
            raise ValueError(f"mixed variable sets: {self.vars} vs {other.vars}")
        common, mine, theirs = _split_common_factors(self.den, other.den)
        num = self.num * _product(self.vars, theirs) + other.num * _product(self.vars, mine)
        return ExactRationalFunction(num, common + mine + theirs)

    __radd__ = __add__

    def __neg__(self):
        return ExactRationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = self._coerce(other)
        if not isinstance(other, ExactRationalFunction):
            return NotImplemented
        return ExactRationalFunction(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        num = self.num * other.den_product()
        return ExactRationalFunction(num, self.den + (other.num,))

    def substitute_monomials(self, new_vars, mapping) -> "ExactRationalFunction":
        return ExactRationalFunction(
            self.num.substitute_monomials(new_vars, mapping),
            [f.substitute_monomials(new_vars, mapping) for f in self.den],
        )

    def as_poly(self) -> LaurentPoly:
        """Clear the denominator by exact division; error if not a polynomial."""
        return divexact(self.num, self.den_product())

    def __str__(self) -> str:
        num = str(self.num)
        if not self.den:
            return num
        dens = ")(".join(str(f) for f in self.den)
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num}/(({dens}))" if len(self.den) > 1 else f"{num}/({dens})"

    def latex(self) -> str:
        num = self.num.latex()
        if not self.den:
            return num
        dens = "".join(f"({f.latex()})" for f in self.den)
        return rf"\frac{{{num}}}{{{dens}}}"

    def __repr__(self) -> str:
        return f"ExactRationalFunction({self})"


def _product(variables, factors) -> LaurentPoly:
    prod = LaurentPoly.one(variables)
    for f in factors:
        prod = prod * f
    return prod


def _split_common_factors(a: tuple[LaurentPoly, ...], b: tuple[LaurentPoly, ...]):
    """Multiset intersection of factor lists by structural equality (not gcd)."""
    ca = Counter(_factor_key(f) for f in a)
    cb = Counter(_factor_key(f) for f in b)
    common_keys = ca & cb
    lookup = {_factor_key(f): f for f in a}
    common = []
    for key, mult in common_keys.items():
        common.extend([lookup[key]] * mult)
    rest_a, taken = [], Counter(common_keys)
    for f in a:
        k = _factor_key(f)
        if taken[k] > 0:
            taken[k] -= 1
        else:
            rest_a.append(f)
    rest_b, taken = [], Counter(common_keys)
    for f in b:
        k = _factor_key(f)
        if taken[k] > 0:
            taken[k] -= 1
        else:
            rest_b.append(f)
    return tuple(common), tuple(rest_a), tuple(rest_b)


def rf_equal(f: ExactRationalFunction, g: ExactRationalFunction) -> bool:
    """Equality by cross-multiplication after cancelling structurally equal factors."""
    if isinstance(f, LaurentPoly):
        f = ExactRationalFunction(f)
    if isinstance(g, LaurentPoly):
        g = ExactRationalFunction(g)
    if f.vars != g.vars:
        raise ValueError(f"mixed variable sets: {f.vars} vs {g.vars}")
    _, mine, theirs = _split_common_factors(f.den, g.den)
    lhs = f.num * _product(f.vars, theirs)
    rhs = g.num * _product(g.vars, mine)
    return (lhs - rhs).is_zero()


def q_factorial(n: int) -> ExactRationalFunction:
    """[n]_v! as prod_{i=1..n}(1 - v^i) over (1 - v)^n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    v = ("v",)
    one = LaurentPoly.one(v)
    num = LaurentPoly.one(v)
    for i in range(1, n + 1):
        num = num * (one - LaurentPoly.var_power(v, "v", i))
    den = [one - LaurentPoly.var_power(v, "v", 1)] * n
    return ExactRationalFunction(num, den)


def q_factorial_poly(n: int) -> LaurentPoly:
    """[n]_v! in expanded polynomial form."""
    return q_factorial(n).as_poly()


# ---------------------------------------------------------------------------
# Windowed expansion
# ---------------------------------------------------------------------------


def _normalize_direction(variables: tuple[str, ...], direction) -> tuple[int, ...]:
    if isinstance(direction, str):
        direction = {name: direction for name in variables}
    signs = []
    for name in variables:
        d = direction[name]
        if d not in ("ascending", "descending"):
            raise ValueError(f"direction must be ascending or descending, got {d!r}")
        signs.append(1 if d == "ascending" else -1)
    return tuple(signs)


def _normalize_window(variables: tuple[str, ...], window) -> list[tuple[int, int]]:
    if isinstance(window, Mapping):
        boxes = [window[name] for name in variables]
    elif len(variables) == 1 and len(window) == 2 and all(isinstance(x, int) for x in window):
        boxes = [window]
    else:
        boxes = list(window)
    if len(boxes) != len(variables):
        raise ValueError("window does not match variable count")
    out = []
    for lo, hi in boxes:
        if lo > hi:
            raise ValueError(f"empty window [{lo}..{hi}]")
        out.append((int(lo), int(hi)))
    return out


def _flip(poly: LaurentPoly, signs: tuple[int, ...]) -> LaurentPoly:
    return LaurentPoly._build(poly.vars, {tuple(s * x for s, x in zip(signs, e)): c for e, c in poly.terms.items()})


def expand_window(f, direction, window) -> LaurentPoly:
    """Exact coefficients of f inside an exponent box, per-variable directions.

    After flipping descending variables, expansion happens in the lex Laurent
    field with the first variable outermost. Every denominator factor must
    have a lex-lowest term with coefficient +-1.
    """
    if isinstance(f, LaurentPoly):
        f = ExactRationalFunction(f)
    variables = f.vars
    if len(variables) not in (1, 2):
        raise ValueError("window expansion supports one or two variables")
    signs = _normalize_direction(variables, direction)
    boxes = _normalize_window(variables, window)
    fboxes = []
    for (lo, hi), s in zip(boxes, signs):
        fboxes.append((lo, hi) if s == 1 else (-hi, -lo))

    num = _flip(f.num, signs)
    if num.is_zero():
        return LaurentPoly.zero(variables)

    # the layers below work on pairs (p, q); with one variable q stays 0
    pad = (0,) * (2 - len(variables))
    # peel each factor into sign, monomial shift, and tail g with lex(g) > 0
    shift_p = shift_q = 0
    sign_flip = 1
    tails: list[list] = []  # each g as a list of ((p, q), coefficient)
    for factor in f.den:
        fac = _flip(factor, signs)
        low_e, low_c = fac.lowest_term_lex()
        if low_c not in (1, -1):
            raise ExpansionDirectionError(
                f"factor {factor} has lowest-term coefficient {low_c}, not +-1, in the chosen direction"
            )
        if low_c == -1:
            sign_flip = -sign_flip
        lp, lq = (*low_e, *pad)
        shift_p -= lp
        shift_q -= lq
        # g = 1 - fac/(low_c * mono): strictly lex-positive support; low_c is
        # +-1, so dividing by it is multiplying by it
        tail = []
        for e, c in fac.terms.items():
            p, q = (*e, *pad)
            if (p, q) != (lp, lq):
                tail.append(((p - lp, q - lq), -c * low_c))
        tails.append(tail)

    # a term (p, q) is kept while p <= p_cap and q <= q_cap + rho (p_cap - p),
    # rho the largest possible future drop of q per unit of p; compared in
    # integers
    p_cap = fboxes[0][1]
    q_cap = fboxes[1][1] if pad == () else 0
    rho = Fraction(0)
    for tail in tails:
        for (p, q), _ in tail:
            if p > 0 and q < 0:
                rho = max(rho, Fraction(-q, p))
    rho_num, rho_den = rho.numerator, rho.denominator

    result: dict = {}
    for e, c in num.terms.items():
        p, q = (*e, *pad)
        p += shift_p
        q += shift_q
        if p <= p_cap and (q - q_cap) * rho_den <= rho_num * (p_cap - p):
            result[(p, q)] = sign_flip * c

    for tail in tails:
        # result *= sum_k g^k, with hereditary pruning; terms once pruned can
        # never re-enter the window because tails are lex-nonnegative in the
        # first coordinate and second-coordinate drops consume first-coordinate
        # budget at rate at most rho
        acc = dict(result)
        layer = result
        while layer:
            nxt: dict = {}
            for (p1, q1), c1 in layer.items():
                for (p2, q2), c2 in tail:
                    p = p1 + p2
                    q = q1 + q2
                    if p > p_cap or (q - q_cap) * rho_den > rho_num * (p_cap - p):
                        continue
                    s = nxt.get((p, q), 0) + c1 * c2
                    if s:
                        nxt[(p, q)] = s
                    else:
                        del nxt[(p, q)]
            _add_into(acc, nxt)
            layer = nxt
        result = acc

    final = {}
    for e, c in result.items():
        e = e[: len(variables)]
        if all(lo <= x <= hi for x, (lo, hi) in zip(e, fboxes)):
            final[tuple(s * x for s, x in zip(signs, e))] = c
    return LaurentPoly._build(variables, final)


# ---------------------------------------------------------------------------
# JSON serialization (schema "cherpoi-rf-1")
# ---------------------------------------------------------------------------


def poly_terms_to_json(poly: LaurentPoly) -> list:
    return [[str(c), list(e)] for e, c in poly.sorted_terms()]


def poly_terms_from_json(variables, data) -> LaurentPoly:
    terms = {}
    for coeff_str, exps in data:
        e = tuple(int(x) for x in exps)
        terms[e] = terms.get(e, Fraction(0)) + Fraction(coeff_str)
    return LaurentPoly(tuple(variables), terms)


def rf_to_json(f: ExactRationalFunction) -> dict:
    return {
        "schema": "cherpoi-rf-1",
        "vars": list(f.vars),
        "num": poly_terms_to_json(f.num),
        "den": [poly_terms_to_json(fac) for fac in f.den],
    }


def rf_from_json(data: Mapping) -> ExactRationalFunction:
    variables = tuple(data["vars"])
    num = poly_terms_from_json(variables, data["num"])
    den = [poly_terms_from_json(variables, fac) for fac in data.get("den", [])]
    return ExactRationalFunction(num, den)
