"""Exact Laurent polynomials and rational functions with factored denominators.

Coefficients are ints: the paper's series live in Z[q, t] and Z[v^(+-1)],
and a coefficient or exponent of any other type (bool, float, Fraction,
str) raises TypeError. Rational functions keep their denominator as a list
of unexpanded factors and are never reduced by a polynomial gcd, so equality
is decided by cross-multiplication and series expansion can orient each
factor separately.

Every polynomial is a {packed key: coefficient} dict in one key format: the
exponents e of k variables pack to key(e) = sum_i e_i 2^(66(k-1-i)), first
variable most significant (one variable is its own exponent), in signed,
balanced 66-bit slots, the one slot width of every key. Exponents stay
below 2^63 in absolute value, so a product's exponents fit their slots: its
key is the sum of its factors' keys, int order of keys is lex order of
exponents, and negating a key inverts every variable. One private kernel
works on these dicts: _mul_packed (multiply) and _add_into (scaled
accumulate), both on int coefficients; outside this module only
commutative_oracle calls them, on keys of its own packing. Exponent tuples
appear only where a caller reads exponents: LaurentPoly.terms, coefficient,
sorted_terms, rendering, JSON, substitute_monomials, expand_window, and
_build's overflow scan; _unpack is the one decoder of a key.

The one exact division is _binomial_quotient: prod (1 - v^i) over
prod (1 - v^h) for multisets of i and h, on a dense one-variable
coefficient list. It gives the hook quotients of sn_rep's fake degrees,
q_factorial_poly's [n]_v! and q_factorial's numerator prod (1 - v^i), and
no other code multiplies out a product of binomials in v. _from_coeffs is
the one constructor that turns such a dense list, with its lowest
exponent, into a LaurentPoly.

Window expansion semantics: one direction (ascending or descending) for
every variable selects the sign of the exponents, and the window is one
(lo, hi) pair per variable; after flipping, f is expanded in the
lexicographic Laurent field determined by the variable order (first
variable outermost, so for vars (s, t) this is Q((t))((s)) in the flipped
exponents). Each denominator factor must have lowest term with coefficient
+1 or -1 in that order, which is the usual geometric-series condition.
Each factor is then 1 - g up to a sign and a monomial, and the numerator is
multiplied by sum_k g^k one layer g^k at a time. A term that lies past the
window and cannot come back into it is dropped as soon as it appears, and
so are all its multiples; the expansion stops at the first empty layer. The
numerator, the factors and the layers are {(p, q): coefficient} dicts in
the flipped exponents, a single variable being p with q = 0, and only the
window's coefficients become a LaurentPoly, through its constructor.
"""

from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, TypeVar

from .errors import ResourceError
from .partition_core import memo_n

_V = ("v",)
MAX_EXPONENT = 2**63  # exponents are conceptually signed 64-bit; beyond is a hard error
_SLOT = 66  # bits per exponent in a packed key
_HALF = 1 << (_SLOT - 1)
# term products one expand_window may make; bigraded_J(4, 0) on (24, 24),
# the largest comparison the oracle's caps allow, makes about 306,000
_EXPANSION_BUDGET = 1_000_000


class ExpansionDirectionError(ValueError):
    """A denominator factor cannot be series-expanded in the chosen direction."""


class ExactDivisionError(ArithmeticError):
    """Polynomial division that was expected to be exact failed."""


# ---------------------------------------------------------------------------
# Packed keys and the sparse kernel on {key: coefficient} dicts, shared by
# LaurentPoly and the commutative oracle
# ---------------------------------------------------------------------------


def _pack(e) -> int:
    """The key of exponent vector e."""
    key = 0
    for x in e:
        key = (key << _SLOT) + x
    return key


def _unpack(key: int, k: int) -> tuple[int, ...]:
    """The exponent vector of k variables that packs to key, every exponent
    but the first below 2^65 in absolute value: the one decoder of the key
    layout, for every reader of exponent tuples."""
    if k < 2:
        return (key,)[:k]
    tail = ()
    for _ in range(k - 1):
        rest = (key + _HALF) >> _SLOT  # the key of all but the last variable
        tail = (key - (rest << _SLOT),) + tail
        key = rest
    return (key,) + tail


def _mul_packed(a: dict, b: dict) -> dict:
    """Product of two sparse polynomials with int coefficients keyed by
    packed ints, under a packing in which a product's key is the sum of its
    factors' keys (no exponent overflows its slot)."""
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
    """acc += scale * p, in place, on int coefficients; scale is a nonzero int."""
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


def _divexact_binomial(a: list, h: int) -> list:
    """Exact quotient of a(v) by 1 - v^h, h >= 1, on dense coefficient lists
    (a[k] the coefficient of v^k), by the recurrence q_k = a_k + q_{k-h} in
    O(len(a)) steps; a nonzero remainder raises ExactDivisionError."""
    q = list(a)
    for k in range(h, len(q)):
        q[k] += q[k - h]
    # past the quotient's degree the recurrence yields the remainder
    cut = max(len(q) - h, 0)
    if any(q[cut:]):
        raise ExactDivisionError("not exactly divisible")
    return q[:cut]


def _binomial_quotient(top: Iterable[int], bottom: Iterable[int]) -> list[int]:
    """prod_{i in top} (1 - v^i) / prod_{h in bottom} (1 - v^h), for
    multisets of positive ints, as a dense coefficient list (entry k the
    coefficient of v^k). The factors both multisets hold cancel first; the
    rest of top is multiplied out, and each rest of bottom divided off by
    _divexact_binomial, which raises ExactDivisionError on a remainder."""
    top, bottom = Counter(top), Counter(bottom)
    coeffs = [1]
    for i in (top - bottom).elements():
        coeffs += [0] * i
        for k in range(len(coeffs) - 1, i - 1, -1):
            coeffs[k] -= coeffs[k - i]
    for h in (bottom - top).elements():
        coeffs = _divexact_binomial(coeffs, h)
    return coeffs


class LaurentPoly:
    """A Laurent polynomial: map from packed exponent keys (see the module
    docstring) to nonzero int coefficients. reach bounds the absolute value
    of every exponent."""

    __slots__ = ("vars", "packed", "reach")

    def __init__(self, variables: tuple[str, ...], terms: Mapping[tuple[int, ...], int]):
        self.vars = tuple(variables)
        clean: dict[int, int] = {}
        reach = 0
        for exps, coeff in terms.items():
            if type(coeff) is not int:
                raise TypeError(f"coefficient {coeff!r} is not an int")
            if coeff == 0:
                continue
            exps = self._exponents(exps)
            reach = max(reach, max(map(abs, exps), default=0))
            if reach >= MAX_EXPONENT:
                raise OverflowError(f"exponent out of 64-bit range: {exps}")
            clean[_pack(exps)] = coeff
        self.packed = clean
        self.reach = reach

    @classmethod
    def _build(cls, variables: tuple[str, ...], packed: dict, reach: int = 0) -> "LaurentPoly":
        """Wrap a fresh packed dict of nonzero coefficients whose exponents are
        at most reach (below 2^65) in absolute value. From MAX_EXPONENT on,
        reach is checked term by term."""
        if reach >= MAX_EXPONENT:
            k = len(variables)
            reach = max((abs(x) for key in packed for x in _unpack(key, k)), default=0)
            if reach >= MAX_EXPONENT:
                raise OverflowError("exponent out of 64-bit range")
        poly = object.__new__(cls)
        poly.vars = variables
        poly.packed = packed
        poly.reach = reach
        return poly

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "LaurentPoly":
        return cls._build(tuple(variables), {})

    @classmethod
    def one(cls, variables) -> "LaurentPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): 1})

    @classmethod
    def monomial(cls, variables, exps, coeff: int = 1) -> "LaurentPoly":
        return cls(tuple(variables), {tuple(exps): coeff})

    @classmethod
    def var_power(cls, variables, name: str, power: int, coeff=1) -> "LaurentPoly":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = power
        return cls.monomial(variables, exps, coeff)

    # -- basic structure -------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """{exponent tuple: coefficient}, unpacked afresh on every read."""
        k = len(self.vars)
        return {_unpack(key, k): c for key, c in self.packed.items()}

    def is_zero(self) -> bool:
        return not self.packed

    def __bool__(self) -> bool:
        return bool(self.packed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.packed == other.packed

    def __hash__(self):
        return hash((self.vars, frozenset(self.packed.items())))

    def _check_same_vars(self, other: "LaurentPoly"):
        if self.vars != other.vars:
            raise ValueError(f"mixed variable sets: {self.vars} vs {other.vars}")

    def _exponents(self, exps) -> tuple[int, ...]:
        """exps as a tuple of ints, one per variable: TypeError on a non-int
        entry, ValueError on a wrong length."""
        exps = tuple(exps)
        if any(type(x) is not int for x in exps):
            raise TypeError(f"exponent vector {exps} has an entry that is not an int")
        if len(exps) != len(self.vars):
            raise ValueError(f"exponent vector {exps} does not match vars {self.vars}")
        return exps

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_same_vars(other)
        out = dict(self.packed)
        _add_into(out, other.packed)
        return LaurentPoly._build(self.vars, out, max(self.reach, other.reach))

    def __neg__(self):
        return LaurentPoly._build(self.vars, {key: -c for key, c in self.packed.items()}, self.reach)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is int:
            if other == 0:
                return LaurentPoly.zero(self.vars)
            return LaurentPoly._build(self.vars, {key: c * other for key, c in self.packed.items()}, self.reach)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_same_vars(other)
        return LaurentPoly._build(self.vars, _mul_packed(self.packed, other.packed), self.reach + other.reach)

    def shift(self, exps: tuple[int, ...]) -> "LaurentPoly":
        """Multiply by the monomial with the given exponent vector."""
        exps = self._exponents(exps)
        # |shift| >= 2^64 leaves the range from every term; below, exponents stay under 2^65
        top = max(map(abs, exps), default=0)
        if self.packed and top >= 2 * MAX_EXPONENT:
            raise OverflowError(f"exponent out of 64-bit range: {exps}")
        step = _pack(exps)
        return LaurentPoly._build(self.vars, {key + step: c for key, c in self.packed.items()}, self.reach + top)

    # -- substitution ----------------------------------------------------

    def substitute_monomials(self, new_vars, mapping: Mapping[str, tuple[int, ...]]) -> "LaurentPoly":
        """Map each variable to a monomial (exponent vector over new_vars):
        the terms whose images coincide are summed."""
        new_vars = tuple(new_vars)
        width = len(new_vars)
        images = []
        for name in self.vars:
            if name not in mapping:
                raise ValueError(f"no image for variable {name}")
            image = tuple(mapping[name])
            if any(type(x) is not int for x in image):
                raise TypeError(f"image {image} of {name} has an entry that is not an int")
            if len(image) > width:
                raise ValueError(f"image {image} of {name} does not match vars {new_vars}")
            images.append(image + (0,) * (width - len(image)))
        # a term e goes to exponent j = sum_i e_i image_i[j], read off column
        # j; with no variables the columns are empty and every term goes to 0
        columns = [tuple(image[j] for image in images) for j in range(width)]
        out: dict = {}
        for exps, coeff in self.terms.items():
            new = tuple(sum(map(operator.mul, exps, column)) for column in columns)
            out[new] = out.get(new, 0) + coeff
        # the constructor drops cancelled sums and refuses survivors past 2^63
        return LaurentPoly(new_vars, out)

    def invert_variables(self) -> "LaurentPoly":
        """Substitute every variable x by x^(-1)."""
        return LaurentPoly._build(self.vars, {-key: c for key, c in self.packed.items()}, self.reach)

    # -- term access ------------------------------------------------------

    def coefficient(self, exps) -> int:
        exps = self._exponents(exps)
        if any(abs(x) >= MAX_EXPONENT for x in exps):  # no term has such an exponent
            return 0
        return self.packed.get(_pack(exps), 0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        k = len(self.vars)
        return [(_unpack(key, k), self.packed[key]) for key in sorted(self.packed)]

    # -- rendering ---------------------------------------------------------

    def _render(self, mul: str, pow_open: str, pow_close: str) -> str:
        if not self.packed:
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

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        if not isinstance(other, ExactRationalFunction):
            return NotImplemented
        if self.vars != other.vars:
            raise ValueError(f"mixed variable sets: {self.vars} vs {other.vars}")
        den, mine, theirs = _sum_denominator(self.den, other.den)
        num = self.num * _product(self.vars, theirs) + other.num * _product(self.vars, mine)
        return ExactRationalFunction(num, den)

    def __neg__(self):
        return ExactRationalFunction(-self.num, self.den)

    def __sub__(self, other):
        if not isinstance(other, ExactRationalFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return ExactRationalFunction(self.num * other, self.den)

    def __truediv__(self, other):
        if not isinstance(other, ExactRationalFunction):
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        num = self.num * _product(self.vars, other.den)
        return ExactRationalFunction(num, self.den + (other.num,))

    def substitute_monomials(self, new_vars, mapping) -> "ExactRationalFunction":
        return ExactRationalFunction(
            self.num.substitute_monomials(new_vars, mapping),
            [f.substitute_monomials(new_vars, mapping) for f in self.den],
        )

    def __str__(self) -> str:
        num = str(self.num)
        if not self.den:
            return num
        dens = ")(".join(str(f) for f in self.den)
        if len(self.num.packed) > 1:
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


def _sum_denominator(a: tuple[LaurentPoly, ...], b: tuple[LaurentPoly, ...]):
    """The denominator factors of a sum of a term over a and a term over b,
    in the one order every such sum uses: the factors a and b share (a
    multiset intersection by structural equality, not gcd) in order of first
    appearance in a, then the rest of a and the rest of b, each in order.
    Returned with the rest of a and the rest of b, whose products scale the
    other term's numerator."""
    common = Counter(a) & Counter(b)
    mine, theirs = _without(a, common), _without(b, common)
    return tuple(common.elements()) + mine + theirs, mine, theirs


def _without(factors: tuple[LaurentPoly, ...], drop: Counter) -> tuple[LaurentPoly, ...]:
    """factors in order, less the first drop[f] copies of each f."""
    drop = Counter(drop)
    kept = []
    for f in factors:
        if drop[f]:
            drop[f] -= 1
        else:
            kept.append(f)
    return tuple(kept)


_Same = TypeVar("_Same", ExactRationalFunction, LaurentPoly)


def rf_equal(f: _Same, g: _Same) -> bool:
    """Equality of two rational functions, or of two Laurent polynomials, in
    one set of variables: their difference is zero. Subtraction cancels the
    shared denominator factors and cross-multiplies the rest. A rational
    function and a polynomial do not subtract: TypeError."""
    return (f - g).is_zero()


def _from_coeffs(coeffs: list[int], low: int = 0) -> LaurentPoly:
    """sum_k coeffs[k] v^(low + k) for an int low >= 0, as a LaurentPoly in v."""
    return LaurentPoly._build(_V, {low + k: c for k, c in enumerate(coeffs) if c}, low + len(coeffs))


@memo_n
def q_factorial(n: int) -> ExactRationalFunction:
    """[n]_v! as prod_{i=1..n}(1 - v^i) over (1 - v)^n."""
    return ExactRationalFunction(_from_coeffs(_binomial_quotient(range(1, n + 1), ())), [_from_coeffs([1, -1])] * n)


@memo_n
def q_factorial_poly(n: int) -> LaurentPoly:
    """[n]_v! in expanded polynomial form, the quotient q_factorial states."""
    return _from_coeffs(_binomial_quotient(range(1, n + 1), [1] * n))


# ---------------------------------------------------------------------------
# Windowed expansion
# ---------------------------------------------------------------------------


def _normalize_direction(direction) -> int:
    if direction not in ("ascending", "descending"):
        raise ValueError(f"direction must be ascending or descending, got {direction!r}")
    return 1 if direction == "ascending" else -1


def _normalize_window(variables: tuple[str, ...], window) -> list[tuple[int, int]]:
    """One (lo, hi) pair of ints per variable. TypeError on a bound that is
    not an int, ValueError on a wrong variable count or lo > hi."""
    if len(window) != len(variables):
        raise ValueError("window does not match variable count")
    out = []
    for lo, hi in window:
        if type(lo) is not int or type(hi) is not int:
            raise TypeError(f"window bounds {(lo, hi)} are not both ints")
        if lo > hi:
            raise ValueError(f"empty window [{lo}..{hi}]")
        out.append((lo, hi))
    return out


def expand_window(f: ExactRationalFunction, direction: str, window) -> LaurentPoly:
    """Exact coefficients of f inside an exponent box, one (lo, hi) pair per
    variable, every variable in one direction.

    After flipping a descending direction, expansion happens in the lex
    Laurent field with the first variable outermost. Every denominator factor
    must have a lex-lowest term with coefficient +-1. An expansion that would
    make more than _EXPANSION_BUDGET term products raises ResourceError.
    """
    if not isinstance(f, ExactRationalFunction):
        raise TypeError(f"expand_window takes an ExactRationalFunction, got {type(f).__name__}")
    variables = f.vars
    k = len(variables)
    if k not in (1, 2):
        raise ValueError("window expansion supports one or two variables")
    sign = _normalize_direction(direction)
    boxes = [(lo, hi) if sign == 1 else (-hi, -lo) for lo, hi in _normalize_window(variables, window)]
    (plo, p_cap), (qlo, q_cap) = boxes + [(0, 0)] * (2 - k)

    def flipped(poly: LaurentPoly) -> dict:
        """poly's terms as {(p, q): c} in the flipped exponents, q = 0 for one variable."""
        if k == 1:
            return {(sign * p, 0): c for (p,), c in poly.terms.items()}
        return {(sign * p, sign * q): c for (p, q), c in poly.terms.items()}

    num = flipped(f.num)
    if not num:
        return LaurentPoly.zero(variables)
    # peel each factor into sign, monomial shift, and tail g with lex(g) > 0
    shift_p = shift_q = 0
    sign_flip = 1
    tails: list[list] = []  # each g as [((p, q), coefficient)]
    for factor in f.den:
        fac = flipped(factor)
        low = min(fac)
        low_c = fac[low]
        if low_c not in (1, -1):
            raise ExpansionDirectionError(
                f"factor {factor} has lowest-term coefficient {low_c}, not +-1, in the chosen direction"
            )
        if low_c == -1:
            sign_flip = -sign_flip
        lp, lq = low
        shift_p -= lp
        shift_q -= lq
        # g = 1 - fac/(low_c * mono): strictly lex-positive support; low_c is
        # +-1, so dividing by it is multiplying by it
        tails.append([((p - lp, q - lq), -c * low_c) for (p, q), c in fac.items() if (p, q) != low])

    # a term (p, q) is kept while p <= p_cap and q <= q_cap + rho (p_cap - p),
    # rho the largest possible future drop of q per unit of p; in integers,
    # while rho_num p + rho_den q <= cap
    rho = max((Fraction(-q, p) for tail in tails for (p, q), _ in tail if p > 0 and q < 0), default=Fraction(0))
    rho_num, rho_den = rho.numerator, rho.denominator
    cap = rho_num * p_cap + rho_den * q_cap
    result = {}
    for (p, q), c in num.items():
        p, q = p + shift_p, q + shift_q
        if p <= p_cap and rho_num * p + rho_den * q <= cap:
            result[p, q] = sign_flip * c

    # the layers a factor needs grow with the numerator's distance from the
    # window, not with the window, so the products they make are budgeted
    budget = _EXPANSION_BUDGET
    for tail in tails:
        # result *= sum_k g^k, with hereditary pruning; terms once pruned can
        # never re-enter the window because tails are lex-nonnegative in the
        # first coordinate and second-coordinate drops consume first-coordinate
        # budget at rate at most rho
        acc = dict(result)
        layer = result
        while layer:
            budget -= len(layer) * len(tail)
            if budget < 0:
                raise ResourceError(f"window expansion needs more than {_EXPANSION_BUDGET} term products")
            nxt: dict = {}
            for (p1, q1), c1 in layer.items():
                for (p2, q2), c2 in tail:
                    p, q = p1 + p2, q1 + q2
                    if p > p_cap or rho_num * p + rho_den * q > cap:
                        continue
                    s = nxt.get((p, q), 0) + c1 * c2
                    if s:
                        nxt[p, q] = s
                    else:
                        del nxt[p, q]
            _add_into(acc, nxt)
            layer = nxt
        result = acc

    return LaurentPoly(variables, {
        (sign * p, sign * q)[:k]: c for (p, q), c in result.items() if plo <= p <= p_cap and qlo <= q <= q_cap
    })


# ---------------------------------------------------------------------------
# JSON serialization (schema "cherpoi-rf-1")
# ---------------------------------------------------------------------------


def poly_terms_to_json(poly: LaurentPoly) -> list:
    return [[str(c), list(e)] for e, c in poly.sorted_terms()]


def poly_terms_from_json(variables, data) -> LaurentPoly:
    terms = {}
    for coeff_str, exps in data:
        if type(coeff_str) is not str:  # int() would truncate a JSON float
            raise TypeError(f"coefficient {coeff_str!r} is not a string")
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + int(coeff_str)
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
