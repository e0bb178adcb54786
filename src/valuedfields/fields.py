"""Coefficient fields: exact rationals and small finite fields.

Finite fields F_{p^n} are realized as F_p[x]/(modulus) where the modulus is
the lexicographically least monic irreducible polynomial of degree n: among
x^n + sum c_i x^i the one minimizing the base-p integer sum c_i p^i (constant
coefficient least significant).  The scan visits candidates in that order
and decides each with Ben-Or's irreducibility test (Ben-Or, "Probabilistic
algorithms in finite fields", FOCS 1981), which is deterministic and
polynomial in n.  Two runs always agree on the representation.  Elements
are coefficient tuples of length n; for n = 1 the modulus is x and the
arithmetic is plain mod-p.

The canonical generator of F_{p^n} is the class of x for n >= 2 and 1 for
n = 1.  Frobenius, trace to the prime field, and inverse Frobenius (p-th
roots, always exact since the fields are perfect) are provided, along with
deterministic subfield enumeration used for embeddings between finite fields;
that enumeration lists every element, so it refuses subfields of more than
2^16 elements with ParamError.  GF itself refuses, with ParamError, degrees
above _MAX_DEGREE and modulus scans past _MAX_SCAN_WORK units of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CharacteristicError,
    FieldMismatchError,
    GroupLawError,
    ParamError,
    UnsupportedError,
)

__all__ = [
    "FieldDesc",
    "RationalField",
    "FiniteField",
    "FieldElement",
    "QQ",
    "GF",
    "frobenius",
    "inverse_frobenius",
    "trace_to_prime",
    "embed",
    "subfield_elements",
]


# ---------------------------------------------------------------------------
# mod-p polynomial helpers on int tuples (low degree first)


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    return _poly_trim(
        tuple(((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n))
    )


def _poly_divmod(a, m, p):
    """Quotient and remainder of a by m over F_p, both trimmed."""
    dm = len(m) - 1
    if len(a) <= dm:
        return (), _poly_trim(a)
    a = list(a)
    q = [0] * max(1, len(a) - dm)
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        f = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        q[shift] = f
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - f * c) % p
        a.pop()
    return _poly_trim(q), _poly_trim(a)


def _power(x, k, mul):
    """x^k for k >= 1 by square and multiply, with the product mul."""
    result = None
    while True:
        if k & 1:
            result = x if result is None else mul(result, x)
        k >>= 1
        if not k:
            return result
        x = mul(x, x)


def _poly_powmod(a, e, m, p):
    """a^e mod m over F_p, for e >= 1."""
    def mulmod(x, y):
        return _poly_divmod(_poly_mul(x, y, p), m, p)[1]

    return _power(_poly_divmod(a, m, p)[1], e, mulmod)


def _poly_gcd(a, b, p):
    """The monic gcd of a and b over F_p, () when both are zero."""
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    if not a:
        return a
    inv_lead = pow(a[-1], -1, p)
    return tuple(c * inv_lead % p for c in a)


def _is_irreducible(f, p) -> bool:
    """Ben-Or's test: monic f of degree n is irreducible over F_p iff
    gcd(f, x^(p^i) - x) = 1 for every i <= n/2.  A reducible f has a factor
    of degree at most n/2, so it usually fails at a small i."""
    xq = (0, 1)
    for _ in range((len(f) - 1) // 2):
        xq = _poly_powmod(xq, p, f, p)  # x^(p^i) mod f
        if len(_poly_gcd(f, _poly_sub(xq, (0, 1), p), p)) > 1:
            return False
    return True


def _poly_roots(f, p) -> list[int]:
    """The distinct roots in F_p of a nonzero f over F_p, ascending.

    g = gcd(f, x^p - x) is the product of x - r over them, and equal-degree
    splitting takes it apart (Cantor and Zassenhaus, Math. Comp. 1981): for
    a random a, gcd(h, (x + a)^((p-1)/2) - 1) splits h with probability
    about 1/2.  The seed is fixed, and the roots are sorted anyway.  Over
    F_2, g divides x^2 - x and needs no split.  The work is polynomial in
    deg f and log p."""
    f = _poly_trim(f)
    if len(f) < 2:
        return []
    g = _poly_gcd(f, _poly_sub(_poly_powmod((0, 1), p, f, p), (0, 1), p), p)
    rng = random.Random(0)
    roots, todo = [], [g] if len(g) > 1 else []
    while todo:
        h = todo.pop()
        if len(h) == 2:  # x + c, monic
            roots.append(-h[0] % p)
            continue
        if p == 2:  # x^2 + x
            roots += [0, 1]
            continue
        while True:
            d = _poly_gcd(h, _poly_sub(_poly_powmod((rng.randrange(p), 1), (p - 1) // 2, h, p), (1,), p), p)
            if 1 < len(d) < len(h):
                break
        todo += [d, _poly_divmod(h, d, p)[0]]
    return sorted(roots)


def _digits(m: int, p: int, n: int) -> tuple[int, ...]:
    """The n base-p digits of m, least significant first."""
    out = []
    for _ in range(n):
        m, d = divmod(m, p)
        out.append(d)
    return tuple(out)


# budgets of GF(p, n), each ParamError beyond: the degree, checked before any
# Ben-Or work (a Ben-Or step squares and reduces degree-n polynomials, and
# GF(2, 400) already takes 6 s), and the work of the modulus scan (x^n + c
# with 0 <= c < p are all reducible for some p and n, so the scan could run
# through p of them).  A candidate is charged its first Ben-Or step, about
# bits(p) squarings of degree-n polynomials, as bits(p) * (n + 8)^2 units,
# the 8 standing for the per-call overhead that dominates at small n.  Each
# budget is at least four times what the tests, gallery and benchmark reach
# (n = 200; 4.0 million units, the 46 candidates of GF(2, 200)); F_{1031^3}
# tests 1035 candidates, 1.4 million units
_MAX_DEGREE = 800
_MAX_SCAN_WORK = 18_000_000

# Budget of a rational power q^k in bits, ParamError beyond: |k| times the
# bit length of q's numerator or denominator, whichever is longer, bounds
# the bits of the result, so _check_power_bits runs before the power is
# formed; 0 and +-1 are exempt.  Tier-1, the goldens, the demos and the
# workloads reach 42 bits; 2^(2^19) forms in about 2 ms, and 2^15000, past
# the digits CPython prints, stays within it.
_MAX_POWER_BITS = 1 << 20


def _check_power_bits(q: Fraction, e: int):
    bits = abs(e) * max(q.numerator.bit_length(), q.denominator.bit_length())
    if bits > _MAX_POWER_BITS and q and abs(q) != 1:
        raise ParamError(
            f"a rational power of up to {bits} bits is above the budget of {_MAX_POWER_BITS}"
        )


def _least_irreducible(p: int, n: int) -> tuple[int, ...]:
    """The first monic irreducible of degree n in base-p counter order; x for n = 1."""
    candidates = _MAX_SCAN_WORK // (p.bit_length() * (n + 8) ** 2)
    for m in range(candidates):
        f = _digits(m, p, n) + (1,)
        if _is_irreducible(f, p):
            return f
    raise ParamError(
        f"no irreducible modulus of degree {n} over F_{p} among the first {candidates} "
        "candidates, the scan budget"
    )


# Miller-Rabin to the first 13 prime bases decides primality for every n
# below _MR_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; p at or above _MR_BOUND raises ParamError,
    so no answer is uncertain."""
    if p >= _MR_BOUND:
        raise ParamError(f"primality of {p} is not decided: p must be below {_MR_BOUND}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# descriptors


class FieldDesc:
    """Base class for coefficient field descriptors."""

    characteristic: int

    def zero(self) -> "FieldElement":
        raise NotImplementedError

    def one(self) -> "FieldElement":
        raise NotImplementedError

    def elem(self, data) -> "FieldElement":
        raise NotImplementedError


@dataclass(frozen=True)
class RationalField(FieldDesc):
    characteristic = 0

    def elem(self, data) -> "FieldElement":
        if type(data) not in (int, Fraction):  # not a bool, a float, a str or a Decimal
            raise UnsupportedError(f"{type(data).__name__} {data!r} is not an exact rational")
        return FieldElement(self, Fraction(data))

    def zero(self):
        return self.elem(0)

    def one(self):
        return self.elem(1)

    def __str__(self):
        return "Q"


QQ = RationalField()


@dataclass(frozen=True)
class FiniteField(FieldDesc):
    p: int
    n: int
    modulus: tuple[int, ...]

    @property
    def characteristic(self):
        return self.p

    @property
    def order(self):
        return self.p ** self.n

    def elem(self, data) -> "FieldElement":
        if type(data) is int:  # the common case, without building a Fraction
            return FieldElement(self, (data % self.p,) + (0,) * (self.n - 1))
        if type(data) is Fraction:
            if data.denominator % self.p == 0:
                raise GroupLawError(f"denominator {data.denominator} not invertible mod {self.p}")
            v = (data.numerator * pow(data.denominator, -1, self.p)) % self.p
            return FieldElement(self, (v,) + (0,) * (self.n - 1))
        # otherwise only a list or tuple of ints: coordinates on 1, u, u^2, ...
        if type(data) not in (list, tuple) or any(type(x) is not int for x in data):
            raise UnsupportedError(f"{type(data).__name__} {data!r} is not an exact element of {self}")
        vec = tuple(x % self.p for x in data)
        if len(vec) > self.n:
            vec = _poly_divmod(vec, self.modulus, self.p)[1]
        vec = vec + (0,) * (self.n - len(vec))
        return FieldElement(self, vec[: self.n])

    def zero(self):
        return FieldElement(self, (0,) * self.n)

    def one(self):
        return self.elem(1)

    def generator(self) -> "FieldElement":
        """Canonical generator: the class of x for n >= 2, and 1 for n = 1."""
        if self.n == 1:
            return self.one()
        return FieldElement(self, (0, 1) + (0,) * (self.n - 2))

    def elements(self):
        """Deterministic enumeration: base-p counter, constant digit fastest."""
        for m in range(self.order):
            yield FieldElement(self, _digits(m, self.p, self.n))

    def __str__(self):
        return f"F_{self.order}"


_GF_CACHE: dict[tuple[int, int], FiniteField] = {}


def GF(p: int, n: int = 1) -> FiniteField:
    """Construct F_{p^n} over the least irreducible modulus of degree n,
    validating p prime; n above _MAX_DEGREE raises ParamError before any
    irreducibility test."""
    key = (p, n)
    if key in _GF_CACHE:
        return _GF_CACHE[key]
    if not _is_prime(p):
        raise UnsupportedError(f"{p} is not prime")
    if n < 1:
        raise UnsupportedError("extension degree must be >= 1")
    if n > _MAX_DEGREE:
        raise ParamError(f"extension degree {n} is above the budget of {_MAX_DEGREE}")
    modulus = _least_irreducible(p, n)
    fld = FiniteField(p, n, modulus)
    _GF_CACHE[key] = fld
    return fld


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class FieldElement:
    field: FieldDesc
    data: object

    def _check(self, other):
        if type(other) is FieldElement and other.field is self.field:
            return
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise FieldMismatchError(
                f"field mismatch: {self.field} vs {getattr(other, 'field', other)}"
            )

    def is_zero(self) -> bool:
        if type(self.field) is RationalField:
            return self.data == 0
        return not any(self.data)

    # the protocol shared with Series so polynomials stay coefficient-generic
    def is_exact_zero(self) -> bool:
        return self.is_zero()

    def times_int(self, n: int) -> "FieldElement":
        return self * self.field.elem(n)

    def __add__(self, other):
        self._check(other)
        f = self.field
        if type(f) is RationalField:
            return FieldElement(f, self.data + other.data)
        p = f.p
        if f.n == 1:
            return FieldElement(f, ((self.data[0] + other.data[0]) % p,))
        return FieldElement(f, tuple((a + b) % p for a, b in zip(self.data, other.data)))

    def __neg__(self):
        if isinstance(self.field, RationalField):
            return FieldElement(self.field, -self.data)
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.data))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        if type(f) is RationalField:
            return FieldElement(f, self.data * other.data)
        if f.n == 1:
            return FieldElement(f, (self.data[0] * other.data[0] % f.p,))
        prod = _poly_mul(self.data, other.data, f.p)
        _, red = _poly_divmod(prod, f.modulus, f.p)
        return FieldElement(f, red + (0,) * (f.n - len(red)))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if isinstance(self.field, RationalField):
            return FieldElement(self.field, 1 / self.data)
        f = self.field
        # extended Euclid in F_p[x]: s0 * self = r0 (mod modulus) at exit
        r0, r1 = f.modulus, _poly_trim(self.data)
        s0, s1 = (), (1,)
        while r1:
            q, r = _poly_divmod(r0, r1, f.p)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1, f.p), f.p)
        if len(r0) != 1:  # pragma: no cover
            raise ZeroDivisionError("element not invertible")
        inv_lead = pow(r0[0], -1, f.p)
        return f.elem(tuple((c * inv_lead) % f.p for c in s0))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e: int):
        f = self.field
        if type(f) is RationalField:
            q = self.data
            if e < 0 and not q:
                raise ZeroDivisionError("inverse of zero")
            _check_power_bits(q, e)
            return FieldElement(f, q ** e)
        if type(f) is FiniteField and f.n == 1:
            if e < 0 and not self.data[0]:
                raise ZeroDivisionError("inverse of zero")
            return FieldElement(f, (pow(self.data[0], e, f.p),))
        if e < 0:
            return self.inverse() ** (-e)
        return _power(self, e, FieldElement.__mul__) if e else f.one()

    def __str__(self):
        if isinstance(self.field, RationalField):
            return str(self.data)
        terms = []
        for i in range(self.field.n - 1, -1, -1):
            c = self.data[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("u" if c == 1 else f"{c}*u")
            else:
                terms.append(f"u^{i}" if c == 1 else f"{c}*u^{i}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"FieldElement({self})"


# ---------------------------------------------------------------------------
# Frobenius machinery


def _require_finite(a: FieldElement) -> FiniteField:
    if not isinstance(a.field, FiniteField):
        raise CharacteristicError("operation requires positive characteristic")
    return a.field


def frobenius(a: FieldElement) -> FieldElement:
    """a -> a^p; the identity over F_p, where c^p = c."""
    f = _require_finite(a)
    return a if f.n == 1 else a ** f.p


def inverse_frobenius(a: FieldElement) -> FieldElement:
    """The unique p-th root: a -> a^(p^(n-1)).  Exact (finite fields are perfect)."""
    f = _require_finite(a)
    return a ** (f.p ** (f.n - 1))


def trace_to_prime(a: FieldElement) -> FieldElement:
    """Trace to F_p: sum of a^(p^i) for 0 <= i < n (lands in the prime field)."""
    f = _require_finite(a)
    acc = f.zero()
    x = a
    for _ in range(f.n):
        acc = acc + x
        x = frobenius(x)
    return acc


# ---------------------------------------------------------------------------
# subfields and embeddings


def _frob_power_matrix(field: FiniteField, d: int) -> list[list[int]]:
    """Matrix of x -> x^(p^d) on the basis 1, u, ..., u^(n-1), columns = images."""
    cols = []
    for i in range(field.n):
        basis_vec = (0,) * i + (1,) + (0,) * (field.n - 1 - i)
        img = field.elem(basis_vec) ** (field.p ** d)
        cols.append(list(img.data))
    return cols


# the subfield is listed element by element, so its size is budgeted
_MAX_SUBFIELD_ELEMENTS = 2 ** 16


def subfield_elements(field: FiniteField, d: int) -> list[FieldElement]:
    """Elements of the subfield F_{p^d} inside F_{p^n} (requires d | n).

    Kernel of (Frobenius^d - id) as an F_p-linear map, enumerated in
    deterministic coefficient order; more than _MAX_SUBFIELD_ELEMENTS
    elements raise ParamError.
    """
    if field.n % d != 0:
        raise UnsupportedError(f"F_{field.p}^{d} does not embed in {field}")
    p, n = field.p, field.n
    if p ** d > _MAX_SUBFIELD_ELEMENTS:
        raise ParamError(
            f"F_{p}^{d} has {p ** d} elements; listing more than {_MAX_SUBFIELD_ELEMENTS} is refused"
        )
    cols = _frob_power_matrix(field, d)
    mat = [[(cols[j][i] - (1 if i == j else 0)) % p for j in range(n)] for i in range(n)]
    kernel = _nullspace_mod_p(mat, p)
    elems = []
    for m in range(p ** len(kernel)):
        vec = [0] * n
        for c, basis_vec in zip(_digits(m, p, len(kernel)), kernel):
            if c:
                vec = [(v + c * b) % p for v, b in zip(vec, basis_vec)]
        elems.append(field.elem(tuple(vec)))
    elems.sort(key=lambda e: e.data)
    return elems


def _nullspace_mod_p(mat, p):
    rows = [row[:] for row in mat]
    n = len(rows[0]) if rows else 0
    pivots = {}
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for c, pr in pivots.items():
            vec[c] = (-rows[pr][fc]) % p
        basis.append(vec)
    return basis


_EMBED_CACHE: dict[tuple[FiniteField, FiniteField], FieldElement] = {}


def _horner(coeffs, x):
    """coeffs (low degree first) evaluated at x; FieldElement and Series
    share the + and * it needs.  An exact-zero coefficient adds nothing."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x if c.is_exact_zero() else acc * x + c
    return acc


def embed(a: FieldElement, big: FiniteField) -> FieldElement:
    """Embed a in a larger finite field, mapping the small generator to the
    least root of the small modulus (deterministic element order)."""
    small = _require_finite(a)
    if small == big:
        return a
    key = (small, big)
    if key not in _EMBED_CACHE:
        if big.p != small.p or big.n % small.n != 0:
            raise UnsupportedError(f"{small} does not embed in {big}")
        modulus = [big.elem(c) for c in small.modulus]
        _EMBED_CACHE[key] = next(
            r for r in subfield_elements(big, small.n) if _horner(modulus, r).is_zero()
        )
    return _horner([big.elem(c) for c in a.data], _EMBED_CACHE[key])
