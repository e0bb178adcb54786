"""Ordered abelian value groups with exact arithmetic.

Three concrete families cover every value group used by this package:

* ``RationalGroup`` -- subgroups of Q cut out by a denominator law: all of Q,
  (1/m)Z for a fixed m >= 1, or the p-divisible hull (1/p^inf)Z.
* ``LexGroup(r)`` -- integer vectors Z^r ordered lexicographically with the
  first coordinate dominant.
* ``QuadGroup`` -- numbers a + b*sqrt(2) with rational a, b, ordered as real
  numbers.  Comparison is decided exactly by sign analysis of a^2 - 2*b^2,
  never by floating point.

Elements are immutable and carry their descriptor; mixing descriptors raises
``FamilyMismatchError``.  The total order is compatible with addition in each
family, which downstream modules rely on for valuation arithmetic.

Elements are immutable values and may be shared: ``ZZ_GROUP`` keeps its
elements 0 <= e < _SHARED_Z (256) in one tuple, built at import (about
25 kB, tracemalloc on CPython 3.11), and every element of it made from an
int in that range is one of them, so that the exponents of a series over
Z allocate nothing (``one_over_m(1)`` is ``ZZ_GROUP``).  Other elements,
of Z or of any other group, are built each time.  Callers compare elements
with ==; identity is a fast path at most.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, neg, sub

from .errors import (
    ExprError,
    FamilyMismatchError,
    GroupLawError,
    IterationCapError,
    SpanError,
    UnsupportedError,
)
from .expr import expr_to_ratfn
from .fields import QQ, _is_prime
from .polys import det

__all__ = [
    "GroupDesc",
    "RationalGroup",
    "LexGroup",
    "QuadGroup",
    "GroupElem",
    "GroupInvariants",
    "PerronResult",
    "cmp",
    "divisible_by",
    "invariants",
    "perron_basis",
    "parse_elem",
    "QQ_GROUP",
    "ZZ_GROUP",
    "one_over_m",
    "p_power_hull",
]


# ---------------------------------------------------------------------------
# descriptors


class GroupDesc:
    """Base class for group descriptors.

    native_order says whether the data of the elements is ordered by Python
    as the group orders them."""

    native_order = True

    def zero(self) -> "GroupElem":
        raise NotImplementedError

    def elem(self, data) -> "GroupElem":
        raise NotImplementedError

    def above_every_multiple(self, a: "GroupElem", b: "GroupElem") -> bool:
        """Whether a > n*b for every integer n, for positive a and b: a lies
        in a higher archimedean class than b."""
        raise NotImplementedError


@dataclass(frozen=True)
class RationalGroup(GroupDesc):
    """A subgroup of Q given by a denominator law.

    law = "all":        every rational
    law = "one_over_m": rationals with denominator dividing m
    law = "p_power":    rationals whose denominator is a power of p
    """

    law: str = "all"
    m: int | None = None
    p: int | None = None

    def __post_init__(self):
        if self.law not in ("all", "one_over_m", "p_power"):
            raise GroupLawError(f"unknown rational-group law {self.law!r}")
        if self.law == "one_over_m" and (self.m is None or self.m < 1):
            raise GroupLawError("one_over_m law needs m >= 1")
        if self.law == "p_power" and (self.p is None or not _is_prime(self.p)):
            raise GroupLawError(f"p_power law needs a prime p, got {self.p}")

    def admits(self, q: Fraction) -> bool:
        if self.law == "all":
            return True
        if self.law == "one_over_m":
            return self.m % q.denominator == 0
        d = q.denominator
        while d % self.p == 0:
            d //= self.p
        return d == 1

    @property
    def int_data(self) -> bool:
        """Whether elements store int data (Z) rather than Fractions."""
        return self.law == "one_over_m" and self.m == 1

    def elem(self, data) -> "GroupElem":
        if type(data) is int and self.int_data:
            return self._of(data)
        if type(data) not in (int, Fraction):  # not a bool, a float, a str or a Decimal
            raise GroupLawError(f"{type(data).__name__} {data!r} is not an exact element of {self}")
        q = Fraction(data)
        if not self.admits(q):
            raise GroupLawError(f"{q} violates the {self.law} law of {self}")
        return self._of(q.numerator if self.int_data else q)

    def _of(self, x) -> "GroupElem":
        """The element with data x, unchecked: an int over Z, a Fraction
        otherwise.  The one constructor of rational elements: ZZ_GROUP's
        shared element for 0 <= x < _SHARED_Z."""
        if self is ZZ_GROUP and 0 <= x < _SHARED_Z:
            return _ZZ_ELEMS[x]
        return GroupElem(self, x)

    def zero(self) -> "GroupElem":
        return self._of(0 if self.int_data else Fraction(0))

    def above_every_multiple(self, a: "GroupElem", b: "GroupElem") -> bool:
        return False  # archimedean: one class

    def __str__(self):
        if self.law == "all":
            return "Q"
        if self.law == "one_over_m":
            return f"(1/{self.m})Z"
        return f"(1/{self.p}^inf)Z"


@dataclass(frozen=True)
class LexGroup(GroupDesc):
    """Z^r with the lexicographic order, first coordinate dominant."""

    r: int

    def __post_init__(self):
        if self.r < 1:
            raise GroupLawError("lex rank must be >= 1")

    def elem(self, data) -> "GroupElem":
        try:
            vec = tuple(data)
        except TypeError:
            raise GroupLawError(f"expected {self.r} coordinates, got {data!r}") from None
        if len(vec) != self.r:
            raise GroupLawError(f"expected {self.r} coordinates, got {len(vec)}")
        if any(type(x) is not int for x in vec):
            vec = tuple(_lex_coordinate(x, self) for x in vec)
        return GroupElem(self, vec)

    def zero(self) -> "GroupElem":
        return GroupElem(self, (0,) * self.r)

    def above_every_multiple(self, a: "GroupElem", b: "GroupElem") -> bool:
        # the class of a positive element is its first nonzero coordinate
        lead_a, lead_b = (next(i for i, x in enumerate(g.data) if x) for g in (a, b))
        return lead_a < lead_b

    def __str__(self):
        return f"Z^{self.r} lex"


def _exact_coordinate(x, group: GroupDesc):
    """x when it is an int or a Fraction; a bool, a float, a str, a Decimal
    or any other kind raises GroupLawError."""
    if type(x) not in (int, Fraction):
        raise GroupLawError(f"{type(x).__name__} {x!r} is not an exact coordinate of {group}")
    return x


def _lex_coordinate(x, group: "LexGroup") -> int:
    """An int or an integral Fraction as an int; any other fraction raises
    GroupLawError rather than being truncated."""
    if _exact_coordinate(x, group).denominator != 1:
        raise GroupLawError(f"lex coordinate {x} is not an integer")
    return int(x)


@dataclass(frozen=True)
class QuadGroup(GroupDesc):
    """Rational combinations a + b*sqrt(2) with the real-number order."""

    native_order = False

    def elem(self, data) -> "GroupElem":
        try:
            a, b = data
        except (TypeError, ValueError):
            raise GroupLawError(f"expected coordinates (a, b) of {self}, got {data!r}") from None
        return GroupElem(self, tuple(Fraction(_exact_coordinate(x, self)) for x in (a, b)))

    def zero(self) -> "GroupElem":
        return GroupElem(self, (Fraction(0), Fraction(0)))

    def above_every_multiple(self, a: "GroupElem", b: "GroupElem") -> bool:
        return False  # a subgroup of R: one class

    def __str__(self):
        return "Q + Q*sqrt2"


QQ_GROUP = RationalGroup("all")
ZZ_GROUP = RationalGroup("one_over_m", m=1)
# ZZ_GROUP keeps its elements 0 <= e < _SHARED_Z, _ZZ_ELEMS below
_SHARED_Z = 256


def one_over_m(m: int) -> RationalGroup:
    return ZZ_GROUP if m == 1 else RationalGroup("one_over_m", m=m)


def p_power_hull(p: int) -> RationalGroup:
    return RationalGroup("p_power", p=p)


# ---------------------------------------------------------------------------
# elements


def _sign_frac(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def _quad_sign(a: Fraction, b: Fraction) -> int:
    # sign of a + b*sqrt(2), exactly
    if b == 0:
        return _sign_frac(a)
    if a == 0:
        return _sign_frac(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    s = _sign_frac(a * a - 2 * b * b)
    return s if a > 0 else -s


@dataclass(frozen=True, eq=False)
class GroupElem:
    """An element of one of the three group families.

    The data is one representation per group: an int for Z, a Fraction for
    Q, (1/m)Z with m > 1 and (1/p^inf)Z (even at integral values), a tuple
    of ints for Z^r lex and a pair of Fractions for Q + Q*sqrt2.  It is the
    element's only coordinate form; _integer_rows reads it directly.  Ints and
    Fractions of one value compare, hash and print alike, so readers of the
    data need not tell them apart; only true division must, as int / int is
    a float.

    The order is native: rationals compare as Fractions or ints and lex
    vectors as tuples, with no difference built; only Q + Q*sqrt2 takes the
    exact sign of the difference.  Equality and hashing look only at the
    data, once the families agree."""

    group: GroupDesc
    data: object

    def _check(self, other: "GroupElem"):
        if type(other) is GroupElem and other.group is self.group:
            return
        if not isinstance(other, GroupElem) or other.group != self.group:
            raise FamilyMismatchError(
                f"group mismatch: {self.group} vs {getattr(other, 'group', other)}"
            )

    def _keys(self, other: "GroupElem"):
        """The one comparator: stand-ins for self and other that Python
        orders as the group does."""
        self._check(other)
        g = self.group
        if not g.native_order:  # Q + Q*sqrt2
            (a, b), (c, d) = self.data, other.data
            return _quad_sign(a - c, b - d), 0
        return self.data, other.data

    def __lt__(self, other):
        x, y = self._keys(other)
        return x < y

    def __le__(self, other):
        x, y = self._keys(other)
        return x <= y

    def __gt__(self, other):
        x, y = self._keys(other)
        return x > y

    def __ge__(self, other):
        x, y = self._keys(other)
        return x >= y

    def __eq__(self, other):
        if type(other) is not GroupElem:
            return NotImplemented
        return (other.group is self.group or other.group == self.group) and other.data == self.data

    def __hash__(self):
        return hash(self.data)

    def __add__(self, other: "GroupElem") -> "GroupElem":
        self._check(other)
        g = self.group
        x, y = self.data, other.data
        if type(g) is RationalGroup:
            return g._of(x + y)
        return GroupElem(g, tuple(map(add, x, y)))

    def __neg__(self) -> "GroupElem":
        g, x = self.group, self.data
        if type(g) is RationalGroup:
            return g._of(-x)
        return GroupElem(g, tuple(map(neg, x)))

    def __sub__(self, other: "GroupElem") -> "GroupElem":
        self._check(other)
        g = self.group
        x, y = self.data, other.data
        if type(g) is RationalGroup:
            return g._of(x - y)
        return GroupElem(g, tuple(map(sub, x, y)))

    def scale(self, n: int) -> "GroupElem":
        """Integer multiple n*self (n may be negative or zero); an n that is
        not an int, a bool included, raises GroupLawError."""
        if type(n) is not int:
            raise GroupLawError(f"{type(n).__name__} {n!r} is not an integer multiplier")
        g, x = self.group, self.data
        if type(g) is RationalGroup:
            return g._of(x * n)
        return GroupElem(g, tuple(n * c for c in x))

    def sign(self) -> int:
        g, x = self.group, self.data
        if type(g) is QuadGroup:
            return _quad_sign(*x)
        if type(g) is LexGroup:
            x = next((c for c in x if c), 0)
        return (x > 0) - (x < 0)

    def is_zero(self) -> bool:
        return self.sign() == 0

    def __str__(self):
        if isinstance(self.group, RationalGroup):
            return str(self.data)
        if isinstance(self.group, LexGroup):
            return "(" + ",".join(str(x) for x in self.data) + ")"
        a, b = self.data
        return f"{a}+{b}*sqrt2"

    def __repr__(self):
        return f"GroupElem({self})"


_ZZ_ELEMS = tuple(GroupElem(ZZ_GROUP, e) for e in range(_SHARED_Z))


def cmp(a: GroupElem, b: GroupElem) -> int:
    """-1, 0 or 1 as a < b, a = b, a > b.  Exact in every family."""
    x, y = a._keys(b)
    return (x > y) - (x < y)


def parse_elem(group: GroupDesc, text: str) -> GroupElem:
    """Parse the textual element forms: a number, "(n1,...,nr)" with a
    number per coordinate, and a + b*sqrt2.  A number is an expression of
    the expression grammar in the integers, and in sqrt2 for Q + Q*sqrt2;
    text of another form raises GroupLawError."""
    text = text.strip()
    if isinstance(group, LexGroup):
        if not (text.startswith("(") and text.endswith(")")):
            raise GroupLawError(f"lex element must look like (n1,...,n{group.r})")
    try:
        if isinstance(group, LexGroup):
            return group.elem([_affine(x, ())[0] for x in text[1:-1].split(",")])
        if isinstance(group, RationalGroup):
            return group.elem(_affine(text, ())[0])
        return group.elem(_affine(text, ("sqrt2",)))
    except (ExprError, ValueError, ZeroDivisionError):
        raise GroupLawError(f"malformed element {text!r} of {group}") from None


def _affine(text: str, names: tuple) -> list:
    """The rationals a (and b) with text = a (+ b*name) for the one name in
    names, read over Q.  ExprError where text has a higher power of the
    name or a denominator that is not constant; ValueError where a number
    is longer than CPython prints, so that every element read prints."""
    rf = expr_to_ratfn(text, names, QQ)
    if rf.den.total_degree() or rf.num.total_degree() > 1:
        raise ExprError(f"{text!r} is not affine in {names}")
    (_, d), = rf.den.terms
    coords = [0] * (1 + len(names))
    for e, c in rf.num.terms:
        coords[sum(e)] = c.data / d.data
    str(coords)  # ValueError past the digits CPython prints
    return coords


# ---------------------------------------------------------------------------
# membership

def divisible_by(gamma: GroupElem, n: int) -> GroupElem | None:
    """The beta in gamma's descriptor with gamma = n*beta, or None."""
    if n == 0:
        raise GroupLawError("division by zero")
    g = gamma.group
    if isinstance(g, RationalGroup):
        beta = Fraction(gamma.data, n)
        return g.elem(beta) if g.admits(beta) else None
    if isinstance(g, LexGroup):
        if all(x % n == 0 for x in gamma.data):
            return g.elem(x // n for x in gamma.data)
        return None
    a, b = gamma.data
    # Q + Q*sqrt2 is divisible
    return GroupElem(g, (a / n, b / n))


# ---------------------------------------------------------------------------
# invariants

@dataclass(frozen=True)
class GroupInvariants:
    rank: int
    rational_rank: int


def invariants(group: GroupDesc) -> GroupInvariants:
    """Rank (number of proper convex subgroups) and rational rank.

    Rank never exceeds rational rank; archimedean groups have rank 1.
    """
    if isinstance(group, RationalGroup):
        return GroupInvariants(1, 1)
    if isinstance(group, LexGroup):
        return GroupInvariants(group.r, group.r)
    return GroupInvariants(1, 2)


# ---------------------------------------------------------------------------
# integer linear algebra helpers (exact, small)


def _hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form: echelon basis, positive pivots, reduced above."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    basis: list[list[int]] = []
    for col in range(ncols):
        live = [r for r in work if r[col] != 0]
        if not live:
            continue
        rest = [r for r in work if r[col] == 0]
        # gcd-combine all rows with a nonzero entry in this column
        pivot = live[0]
        for r in live[1:]:
            a, b = pivot[col], r[col]
            while b:
                q = a // b
                pivot, r = r, [x - q * y for x, y in zip(pivot, r)]
                a, b = pivot[col], r[col]
            if any(r):
                rest.append(r)
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        work = rest
        if not work:
            break
    # reduce entries above each pivot
    for i in range(len(basis) - 1, -1, -1):
        pcol = next(k for k, x in enumerate(basis[i]) if x != 0)
        for j in range(i):
            q = basis[j][pcol] // basis[i][pcol]
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    return basis


def _integer_rows(elems) -> tuple[list[list[int]], int]:
    """The coordinate rows of elems as integers, scaled by one common
    denominator, and that denominator.  The data is the row: a lex or quad
    tuple as it stands, and a rational as a one-tuple."""
    rows = [(g.data,) if type(g.group) is RationalGroup else g.data for g in elems]
    denom = lcm(*(c.denominator for row in rows for c in row))
    return [[c.numerator * (denom // c.denominator) for c in row] for row in rows], denom


def _from_integer_row(group: GroupDesc, row, denom: int) -> GroupElem:
    """The element of group with coordinates row / denom, the inverse of
    _integer_rows, in the family's own data type."""
    if type(group) is RationalGroup:
        return group._of(row[0] // denom if group.int_data else Fraction(row[0], denom))
    if type(group) is LexGroup:
        return GroupElem(group, tuple(x // denom for x in row))
    return GroupElem(group, tuple(Fraction(x, denom) for x in row))


def _solve_int_coords(basis: list[list[int]], target: list[int]) -> list[int] | None:
    """Integer coordinates of target over an echelon basis, or None."""
    t = list(target)
    coords = []
    for row in basis:
        pcol = next(k for k, x in enumerate(row) if x != 0)
        if t[pcol] % row[pcol] != 0:
            return None
        c = t[pcol] // row[pcol]
        coords.append(c)
        t = [x - c * y for x, y in zip(t, row)]
    if any(t):
        return None
    return coords


# ---------------------------------------------------------------------------
# Perron positivity algorithm

@dataclass(frozen=True)
class PerronResult:
    """Positive basis with non-negative coefficients for the given targets.

    basis            -- tuple of positive GroupElems, a Z-basis of the span
    coeffs           -- coeffs[i][j] >= 0 with targets[i] = sum coeffs[i][j]*basis[j]
    change_of_basis  -- unimodular integer matrix T with basis = T * B0, where
                        B0 is the Hermite-normal-form basis derived from the
                        generators (deterministic; equal to the generator tuple
                        whenever that tuple is already a triangular basis)
    """

    basis: tuple[GroupElem, ...]
    coeffs: tuple[tuple[int, ...], ...]
    change_of_basis: tuple[tuple[int, ...], ...]


def perron_basis(generators, positives) -> PerronResult:
    """Find a positive basis expressing the positive targets non-negatively.

    Input: generators spanning a finitely generated subgroup G of one family,
    and targets alpha_i > 0 lying in G.  Output basis gamma_j > 0 of G with
    alpha_i = sum n_ij gamma_j, n_ij >= 0.

    Rank-one spans are immediate (primitive positive generator).  The
    quadratic family uses repeated subtraction on the basis pair (replace the
    larger element by the difference), a whole run at a time; it ends because
    the pair's ratio is irrational.  Lex spans shear along the convex
    filtration, in place, from the smallest convex subgroup up: each basis
    row loses multiples of the rows below it until the targets of its level
    have non-negative coefficients.  Both procedures change the basis rows,
    the transform T and the target coordinates together, one shear at a time.

    Postconditions (unimodularity, positivity, non-negative coefficients,
    exact reconstruction) are machine-checked on every call.
    """
    generators = list(generators)
    positives = list(positives)
    if not generators:
        raise SpanError("no generators")
    group = generators[0].group
    for x in generators + positives:
        if x.group != group:
            raise FamilyMismatchError("all generators and targets must share one group")
    for a in positives:
        if a.sign() <= 0:
            raise SpanError(f"target {a} is not positive")

    int_rows, denom = _integer_rows(generators + positives)
    int_rows, targets_int = int_rows[: len(generators)], int_rows[len(generators):]
    base = _hnf(int_rows)
    if not base:
        raise SpanError("generators span the trivial group")
    rho = len(base)

    def to_elem(int_row) -> GroupElem:
        return _from_integer_row(group, int_row, denom)

    coords = []
    for a, trow in zip(positives, targets_int):
        c = _solve_int_coords(base, trow)
        if c is None:
            raise SpanError(f"target {a} is not in the span of the generators")
        coords.append(c)

    # current basis as integer rows + transform T from B0, maintained together
    rows = [list(r) for r in base]
    T = [[1 if i == j else 0 for j in range(rho)] for i in range(rho)]

    # sign-normalize: make every basis row positive in the group order
    for i in range(rho):
        if to_elem(rows[i]).sign() < 0:
            rows[i] = [-x for x in rows[i]]
            T[i] = [-x for x in T[i]]
            for c in coords:
                c[i] = -c[i]

    if all(all(x >= 0 for x in c) for c in coords):
        pass  # already done
    elif rho == 1:
        # coords are integer multiples of a positive generator; positive
        # targets force positive coefficients, so reaching here is a bug
        raise SpanError("rank-one span with positive targets cannot have negative coords")
    elif isinstance(group, QuadGroup):
        _fix_pair_subtractive(rows, T, coords, to_elem)
    elif isinstance(group, LexGroup):
        _fix_lex(rows, T, coords)
    else:
        raise UnsupportedError(f"no positivity procedure for {group} at rank {rho}")

    basis_elems = tuple(to_elem(r) for r in rows)
    d = det(T, 0, 1)
    if d not in (1, -1):
        raise IterationCapError(f"transform determinant {d} is not a unit")
    for g in basis_elems:
        if g.sign() <= 0:
            raise IterationCapError(f"basis element {g} is not positive")
    for a, c in zip(positives, coords):
        if any(x < 0 for x in c):
            raise IterationCapError(f"negative coefficient remains for target {a}")
        acc = group.zero()
        for x, g in zip(c, basis_elems):
            acc = acc + g.scale(x)
        if cmp(acc, a) != 0:
            raise SpanError(f"reconstruction failed for target {a}")
    return PerronResult(
        basis=basis_elems,
        coeffs=tuple(tuple(c) for c in coords),
        change_of_basis=tuple(tuple(row) for row in T),
    )


def _fix_pair_subtractive(rows, T, coords, to_elem):
    """Repeated subtraction on a positive basis pair of an archimedean span,
    a whole run at a time: the smaller element is subtracted from the larger q
    times, q the largest k with big > k*small, or fewer when an earlier step
    leaves every coefficient non-negative, which gives the basis of one step
    at a time.  The ratio of a rank-2 span of Q + Q*sqrt2 is irrational, so no
    run ends in a tie and the pair's cone grows until it holds every target.
    Each run is one shear of the larger row by the smaller."""
    while not all(x >= 0 for c in coords for x in c):
        u, v = to_elem(rows[0]), to_elem(rows[1])
        if cmp(u, v) > 0:
            big, small, steps = 0, 1, _run_length(u, v)
        else:
            big, small, steps = 1, 0, _run_length(v, u)
        # a step adds c[big] to c[small]; with every c[big] >= 0 the run ends at
        # the first step leaving every c[small] >= 0 (c[big] = 0 forces c[small] > 0)
        if all(c[big] >= 0 for c in coords):
            steps = min(steps, max(-(c[small] // c[big]) for c in coords if c[big]))
        _shear(rows, T, coords, big, small, steps)


def _shear(rows, T, coords, i, j, k):
    """Row i loses k times row j, in the basis and in T; every target gains
    k*c[i] in coordinate j, so it stays the same sum over the new basis."""
    rows[i] = [x - k * y for x, y in zip(rows[i], rows[j])]
    T[i] = [x - k * y for x, y in zip(T[i], T[j])]
    for c in coords:
        c[j] += k * c[i]


def _run_length(big: GroupElem, small: GroupElem) -> int:
    """The largest k with big > k*small, for 0 < small < big: doubling, then
    bisection."""
    k = 1
    while cmp(big, small.scale(2 * k)) > 0:
        k *= 2
    step = k // 2
    while step:
        if cmp(big, small.scale(k + step)) > 0:
            k += step
        step //= 2
    return k


def _fix_lex(rows, T, coords):
    """Shears along the convex filtration of a lex span, in place.  The rows
    are echelon with positive pivots, so the targets whose coordinates before
    lo vanish lie in the convex subgroup spanned by rows[lo:], and there
    c[lo] >= 0.  From the smallest such subgroup up, row lo loses k times
    each lower row j, k the least amount that leaves c[j] >= 0 for every
    target of that subgroup with c[lo] > 0; the shear moves neither row lo's
    pivot nor the coordinates fixed at the levels below."""
    for lo in range(len(rows) - 2, -1, -1):
        level = [c for c in coords if c[lo] > 0 and not any(c[:lo])]
        for j in range(lo + 1, len(rows)):
            k = max((-(c[j] // c[lo]) for c in level if c[j] < 0), default=0)
            if k:
                _shear(rows, T, coords, lo, j, k)
