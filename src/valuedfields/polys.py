"""Sparse multivariate polynomials and rational functions.

MPoly stores terms as a sorted tuple of (exponent tuple, coefficient) pairs,
e.g. X^2*Y - 3 over vars ("X", "Y") is (((0, 0), -3), ((2, 1), 1)).  The
coefficient type is generic: anything with +, *, unary -, times_int() and
is_exact_zero() works, which covers both FieldElement and Series.  Exactly
zero coefficients are dropped on construction, so the zero polynomial has no
terms.

A product over Q or F_p packs each operand into one integer, one slot per
monomial, and multiplies the two (Kronecker substitution, von zur Gathen
and Gerhard, Modern Computer Algebra, section 8.4), where the cost rule
_kronecker_pays says it pays; other products loop over the term pairs.
_pack, _unpack, _kronecker and that rule are the slot kernel that series
multiplies F_p((t)) with too.

RatFn is a quotient num/den of FieldElement-coefficient polynomials with a
nonzero denominator.  No gcd machinery: equality is decided by
cross-multiplication and evaluation signals poles instead of cancelling.

cramer, det and adjugate work over any commutative ring whose elements
support +, - and * (ints, FieldElement, Series): they never divide.
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import ParamError, PoleError, UnsupportedError
from .fields import FieldDesc, FieldElement, FiniteField, RationalField, _power

__all__ = ["MPoly", "RatFn", "mpoly", "const_poly", "var_poly", "cramer", "det", "adjugate"]


# The most terms a power of a polynomial may expand to, by the bound
# prod over the variables v of (k*deg_v + 1), checked before any product is
# formed; beyond it MPoly.__pow__ raises ParamError.  The goldens reach 601
# ((x1 - 2)^600), the benchmark workloads 561 (a 15-term power in two
# variables); (1 + t)^2499 at the budget takes 0.015 s over F_1000003 and
# 0.7 s over Q, its products packed by Kronecker substitution.
_MAX_POWER_TERMS = 2500

# The cost rule of the Kronecker kernel, for series products and MPoly
# products alike: it pays when the slots of the product window it reads
# back are fewer than _PAIR_COST times the term pairs the pair loop would
# form.  Both kernels were timed, with the slots read back by
# memoryview.cast, on 660 random operand pairs over F_3, F_101 and
# F_(2^61 - 1): 2 to 128 terms, 1 to 24 slots per term, exact and cut, in
# two sweeps.  Kronecker won every case with fewer than 0.05 slots per pair
# and was the faster in the median up to 0.35; the pair loop won in the
# median above.  0.2 keeps the total time within 9 % of always picking the
# faster kernel (0.1: 11 %, 0.25: 16 %).
_PAIR_COST = 0.2


@dataclass(frozen=True)
class MPoly:
    vars: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], object], ...]

    @staticmethod
    def make(vars, term_map) -> "MPoly":
        vars = tuple(vars)
        merged: dict[tuple[int, ...], object] = {}
        for exps, coef in (term_map.items() if isinstance(term_map, dict) else term_map):
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(vars):
                raise UnsupportedError(f"exponent tuple {exps} does not match vars {vars}")
            if any(e < 0 for e in exps):
                raise UnsupportedError("negative exponents belong in RatFn or Series")
            if exps in merged:
                merged[exps] = merged[exps] + coef
            else:
                merged[exps] = coef
        clean = {e: c for e, c in merged.items() if not c.is_exact_zero()}
        return MPoly(vars, tuple(sorted(clean.items(), key=lambda t: t[0])))

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "MPoly"):
        if self.vars != other.vars:
            raise UnsupportedError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        # both sides are canonical, so only their common exponents can cancel
        acc = dict(self.terms)
        for e, c in other.terms:
            old = acc.get(e)
            if old is None:
                acc[e] = c
            elif (old := old + c).is_exact_zero():
                del acc[e]
            else:
                acc[e] = old
        return MPoly(self.vars, tuple(sorted(acc.items(), key=lambda t: t[0])))

    def __neg__(self) -> "MPoly":
        return MPoly(self.vars, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        product = _mul_packed(self, other)
        if product is not None:
            return product
        acc: dict[tuple[int, ...], object] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc[e] = acc[e] + prod if e in acc else prod
        return MPoly.make(self.vars, acc)

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise UnsupportedError("negative power of a polynomial")
        if not self.terms and k == 0:
            raise UnsupportedError("0^0 is undefined")
        if len(self.terms) == 1 and k > 0:
            # a monomial in one step: exponents times k, coefficient c ** k
            (e, c), = self.terms
            return MPoly.make(self.vars, ((tuple(a * k for a in e), c ** k),))
        bound = 1
        for i in range(len(self.vars)):
            bound *= k * max((e[i] for e, _ in self.terms), default=0) + 1
        if bound > _MAX_POWER_TERMS:
            raise ParamError(
                f"a {len(self.terms)}-term polynomial to the power {k} may have more "
                f"than {_MAX_POWER_TERMS} terms, the budget"
            )
        if k == 0:
            # the caller must scale by a genuine one; handled by RatFn
            raise UnsupportedError("use an explicit constant for the empty product")
        return _power(self, k, MPoly.__mul__)

    def scale(self, coef) -> "MPoly":
        return MPoly.make(self.vars, tuple((e, c * coef) for e, c in self.terms))

    def partial(self, var: str) -> "MPoly":
        """Formal partial derivative."""
        i = self.vars.index(var)
        out = []
        for e, c in self.terms:
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            out.append((ne, c.times_int(e[i])))
        return MPoly.make(self.vars, out)

    def total_degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def subst(self, values: dict[str, FieldElement], field: FieldDesc) -> "MPoly | FieldElement":
        """Substitute FieldElements for a subset of the variables.

        Full substitution returns a FieldElement; partial substitution folds
        the substituted powers into the coefficients and returns an MPoly in
        the remaining variables.  (Series substitution lives with Series.)
        """
        remaining = tuple(v for v in self.vars if v not in values)
        keep_idx = [i for i, v in enumerate(self.vars) if v not in values]
        out = []
        for e, c in self.terms:
            for v, exp in zip(self.vars, e):
                if exp and v in values:
                    c = c * values[v] ** exp
            out.append((tuple(e[i] for i in keep_idx), c))
        result = MPoly.make(remaining, out)
        if remaining:
            return result
        return result.terms[0][1] if result.terms else field.zero()

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in reversed(self.terms):
            factors = []
            for v, exp in zip(self.vars, e):
                if exp == 1:
                    factors.append(v)
                elif exp > 1:
                    factors.append(f"{v}^{exp}")
            cs = str(c)
            if factors and cs == "1":
                parts.append("*".join(factors))
            elif factors:
                base = f"({cs})" if ("+" in cs[1:] or "-" in cs[1:]) else cs
                parts.append(base + "*" + "*".join(factors))
            else:
                parts.append(cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"MPoly({self})"


def mpoly(vars, term_map) -> MPoly:
    return MPoly.make(vars, term_map)


def const_poly(vars, c) -> MPoly:
    if c.is_exact_zero():
        return MPoly(tuple(vars), ())
    return MPoly.make(vars, {(0,) * len(tuple(vars)): c})


def var_poly(vars, name, field: FieldDesc) -> MPoly:
    vars = tuple(vars)
    i = vars.index(name)
    e = tuple(1 if j == i else 0 for j in range(len(vars)))
    return MPoly.make(vars, {e: field.one()})


@dataclass(frozen=True)
class RatFn:
    """Quotient of FieldElement-coefficient polynomials, denominator nonzero."""

    num: MPoly
    den: MPoly

    @staticmethod
    def make(num: MPoly, den: MPoly) -> "RatFn":
        num._check(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        return RatFn(num, den)

    @staticmethod
    def from_poly(p: MPoly, field: FieldDesc) -> "RatFn":
        return RatFn.make(p, const_poly(p.vars, field.one()))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RatFn") -> "RatFn":
        return RatFn.make(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "RatFn") -> "RatFn":
        return RatFn.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFn") -> "RatFn":
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFn.make(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> "RatFn":
        if k == 0:
            if self.num.is_zero():
                raise UnsupportedError("0^0 is undefined")
            return RatFn.make(self.den, self.den)  # den/den = 1
        if k < 0:
            if self.num.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFn.make(self.den ** (-k), self.num ** (-k))
        return RatFn.make(self.num ** k, self.den ** k)

    def eq(self, other: "RatFn") -> bool:
        """Equality by cross-multiplication (no gcd machinery)."""
        return (self.num * other.den - other.num * self.den).is_zero()

    def subst(self, values: dict[str, FieldElement], field: FieldDesc) -> FieldElement:
        den_v = self.den.subst(values, field)
        num_v = self.num.subst(values, field)
        if not isinstance(den_v, FieldElement) or not isinstance(num_v, FieldElement):
            raise UnsupportedError("substitution must cover every variable")
        if den_v.is_zero():
            raise PoleError("denominator vanishes at the evaluation point")
        return num_v / den_v

    def __str__(self):
        if self.den.total_degree() == 0 and len(self.den.terms) == 1 and str(
            self.den.terms[0][1]
        ) == "1":
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFn({self})"


# ---------------------------------------------------------------------------
# Kronecker substitution: polynomials with int coefficients as one integer


# memoryview.cast formats of the slot widths it reads and writes natively,
# by byte count; a cast reads native byte order, so big-endian hosts use
# none and fall back to int.to_bytes and int.from_bytes per slot
_CAST = {struct.calcsize(f): f for f in "BHIQ"} if sys.byteorder == "little" else {}


def _slot_width(bound: int) -> int:
    """Bytes per slot for slot values up to bound, rounded up to a width
    memoryview.cast reads when one is wide enough."""
    width = (bound.bit_length() + 7) // 8
    for w in _CAST:  # ascending
        if w >= width:
            return w
    return width


def _pack(xs: list, ks: list, low: int, size: int, width: int) -> int:
    """The integer of size slots of width bytes, low slot first, whose slot
    x - low holds k for each slot x and value 0 <= k < 2^(8*width) of xs
    and ks, and whose other slots hold 0."""
    buf = bytearray(size * width)
    fmt = _CAST.get(width)
    if fmt:
        view = memoryview(buf).cast(fmt)
        for x, k in zip(xs, ks):
            view[x - low] = k
        view.release()
    else:
        for x, k in zip(xs, ks):
            i = (x - low) * width
            buf[i:i + width] = k.to_bytes(width, "little")
    return int.from_bytes(buf, "little")


def _unpack(value: int, size: int, width: int) -> list:
    """The values of the low size slots of width bytes of value >= 0, low
    slot first: the inverse of _pack."""
    raw = memoryview(value.to_bytes(max(size * width, (value.bit_length() + 7) // 8), "little"))
    fmt = _CAST.get(width)
    if fmt:
        return raw[:size * width].cast(fmt).tolist()
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, size * width, width)]


def _kronecker_pays(xa: list, xb: list, limit) -> bool:
    """Whether the Kronecker kernel is cheaper than the pair loop on the
    increasing slot lists xa, xb with the slot bound limit (None when
    exact)."""
    base = xa[0] + xb[0]
    slots = xa[-1] + xb[-1] - base + 1
    pairs = len(xa) * len(xb)
    if limit is not None:
        slots = min(slots, limit - base)
        if slots < _PAIR_COST * pairs:  # count the pairs below the limit
            pairs = sum(bisect_left(xb, limit - x) for x in xa)
    return slots < _PAIR_COST * pairs


def _kronecker(xa: list, ka: list, xb: list, kb: list, size: int, bound: int) -> list:
    """The low size coefficients, from X^(xa[0] + xb[0]) up, of the product
    of the polynomials sum k*X^x over the increasing slots xs and int values
    ks of each operand, where no coefficient of the product exceeds bound in
    absolute value.  Each operand becomes one integer with its value k in
    slot x - xs[0] (_pack), and one big-integer product does the work.

    Signed values are packed as their positive part minus their negative
    part, and each slot of the product is read back with a bias of half its
    range: slot sum s is read as s + 2^(8*width - 1) and the bias taken
    off again."""
    signed = min(ka) < 0 or min(kb) < 0
    width = _slot_width(2 * bound if signed else bound)
    packed = []
    for xs, ks in ((xa, ka), (xb, kb)):
        low, span = xs[0], xs[-1] - xs[0] + 1
        value = _pack(xs, [k if k > 0 else 0 for k in ks] if signed else ks, low, span, width)
        if signed:
            value -= _pack(xs, [-k if k < 0 else 0 for k in ks], low, span, width)
        packed.append(value)
    value = packed[0] * packed[1]
    if not signed:
        return _unpack(value, size, width)
    half = 1 << 8 * width - 1
    bias = int.from_bytes(half.to_bytes(width, "little") * size, "little")
    value = value + bias & (1 << 8 * width * size) - 1
    return [s - half for s in _unpack(value, size, width)]


def _mul_packed(a: MPoly, b: MPoly) -> MPoly | None:
    """a * b by Kronecker substitution, or None where it does not apply or
    _kronecker_pays says it does not pay.

    It applies over Q and F_p to two operands of two terms or more; a
    one-term factor only shifts and scales the other.  Variable i has the
    stride prod over j > i of (deg_j a + deg_j b + 1), so the slot
    sum(e_i * stride_i) of an exponent tuple e orders as e does, and the
    slots of a product add.  Over Q each operand is scaled to integers by
    the least common denominator of its coefficients, and the product
    divided by both; over F_p the slot sums are reduced mod p once."""
    na, nb = len(a.terms), len(b.terms)
    if na < 2 or nb < 2:
        return None
    ca, cb = a.terms[0][1], b.terms[0][1]
    # Series coefficients, F_{p^n} and a field mismatch (which the pair loop
    # reports) stay on the pair loop
    if type(ca) is not FieldElement or type(cb) is not FieldElement or cb.field != ca.field:
        return None
    field = ca.field
    if type(field) is FiniteField and field.n > 1:
        return None
    strides, stride = [], 1
    for i in reversed(range(len(a.vars))):
        strides.append(stride)
        stride *= max(e[i] for e, _ in a.terms) + max(e[i] for e, _ in b.terms) + 1
    strides.reverse()
    xa, xb = ([sum(map(mul, e, strides)) for e, _ in t.terms] for t in (a, b))
    if not _kronecker_pays(xa, xb, None):
        return None
    base = xa[0] + xb[0]
    size = xa[-1] + xb[-1] - base + 1
    if type(field) is RationalField:
        den_a, den_b = (lcm(*(c.data.denominator for _, c in t.terms)) for t in (a, b))
        ka = [c.data.numerator * (den_a // c.data.denominator) for _, c in a.terms]
        kb = [c.data.numerator * (den_b // c.data.denominator) for _, c in b.terms]
        bound = min(na, nb) * max(map(abs, ka)) * max(map(abs, kb))
    else:
        ka, kb = ([c.data[0] for _, c in t.terms] for t in (a, b))
        bound = min(na, nb) * (field.p - 1) ** 2
    sums = enumerate(_kronecker(xa, ka, xb, kb, size, bound), base)
    if type(field) is RationalField:
        den = den_a * den_b
        coeffs = [(x, FieldElement(field, Fraction(s, den))) for x, s in sums if s]
    else:
        p = field.p
        coeffs = [(x, FieldElement(field, (k,))) for x, s in sums if (k := s % p)]
    return MPoly(a.vars, tuple((_digits(x, strides), c) for x, c in coeffs))


def _digits(x: int, strides: list) -> tuple[int, ...]:
    """The exponent tuple of slot x: its digits in the mixed radix of strides."""
    out = []
    for stride in strides:
        e, x = divmod(x, stride)
        out.append(e)
    return tuple(out)


# ---------------------------------------------------------------------------
# division-free determinant and adjugate


def _charpoly(m, zero, one) -> list:
    """Coefficients [1, c1, ..., cn] of det(x*I - m), highest degree first.

    Berkowitz's recurrence (Inf. Process. Lett. 18, 1984): bordering the
    leading k x k block A with column C, row R and corner a turns its
    coefficients q into the Toeplitz convolution of (1, -a, -R*C, -R*A*C,
    ..., -R*A^(k-1)*C) with q.  O(n^4) ring operations, no division."""
    coeffs = [one]
    for k in range(len(m)):
        block = [row[:k] for row in m[:k]]
        row = m[k][:k]
        col = [m[i][k] for i in range(k)]
        toeplitz = [one, zero - m[k][k]]
        for _ in range(k):
            toeplitz.append(zero - _dot(row, col, zero))
            col = [_dot(b, col, zero) for b in block]
        coeffs = [
            sum((toeplitz[i - j] * coeffs[j] for j in range(min(i, k) + 1)), zero)
            for i in range(k + 2)
        ]
    return coeffs


def _dot(xs, ys, zero):
    return sum((x * y for x, y in zip(xs, ys)), zero)


def cramer(m, vecs, zero, one):
    """det(m) and [adj(m)*v for v in vecs] from one characteristic
    polynomial, so m*x = det(m)*v has the solution x = adj(m)*v.

    By Cayley-Hamilton, adj(m) = (-1)^(n+1) * (m^(n-1) + c1*m^(n-2) + ...
    + c_(n-1)*I) with c_i from the characteristic polynomial; each product
    adj(m)*v is evaluated by Horner's rule in n-1 matrix-vector products.
    A 1x1 matrix is its own determinant, with adjugate 1."""
    n = len(m)
    if n == 1:
        return m[0][0], [list(v) for v in vecs]
    c = _charpoly(m, zero, one)
    out = []
    for v in vecs:
        w = list(v)
        for ci in c[1:n]:
            w = [_dot(row, w, zero) + ci * vi for row, vi in zip(m, v)]
        out.append(w if n % 2 else [zero - x for x in w])
    return (c[-1] if n % 2 == 0 else zero - c[-1]), out


def det(m, zero, one):
    """Determinant of a square matrix (a sequence of rows) over a commutative
    ring with the given zero and one; det of the empty matrix is one."""
    return cramer(m, (), zero, one)[0]


def adjugate(m, zero, one) -> list:
    """Adjugate (transposed cofactor matrix), so m*adj = adj*m = det(m)*I;
    its columns are adj(m) times the unit vectors."""
    units = [[one if i == j else zero for i in range(len(m))] for j in range(len(m))]
    return [list(row) for row in zip(*cramer(m, units, zero, one)[1])]
