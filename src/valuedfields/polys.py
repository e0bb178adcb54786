"""Sparse multivariate polynomials and rational functions.

MPoly stores terms as a sorted tuple of (exponent tuple, coefficient) pairs,
e.g. X^2*Y - 3 over vars ("X", "Y") is (((0, 0), -3), ((2, 1), 1)).  The
coefficient type is generic: anything with +, *, unary -, times_int() and
is_exact_zero() works, which covers both FieldElement and Series.  Exactly
zero coefficients are dropped on construction, so the zero polynomial has no
terms.

RatFn is a quotient num/den of FieldElement-coefficient polynomials with a
nonzero denominator.  No gcd machinery: equality is decided by
cross-multiplication and evaluation signals poles instead of cancelling.

cramer, det and adjugate work over any commutative ring whose elements
support +, - and * (ints, FieldElement, Series): they never divide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParamError, PoleError, UnsupportedError
from .fields import FieldDesc, FieldElement, _power

__all__ = ["MPoly", "RatFn", "mpoly", "const_poly", "var_poly", "cramer", "det", "adjugate"]


# The most terms a power of a polynomial may expand to, by the bound
# prod over the variables v of (k*deg_v + 1), checked before any product is
# formed; beyond it MPoly.__pow__ raises ParamError.  The tests, goldens,
# demos and benchmark workloads reach 561 (a 15-term power in two
# variables); (1 + t)^2499 at the budget takes about 11 s over F_1000003,
# as the products are term by term.
_MAX_POWER_TERMS = 2500


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
