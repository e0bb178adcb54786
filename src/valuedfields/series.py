"""Truncated generalized power series over an ordered value group.

A Series is a finite sum of terms c*t^(e) with exponents e drawn from an
ordered abelian group and coefficients from an exact field, together with a
precision bound: the series is known modulo terms of exponent >= precision.
Precision None means the sum is exact.  All arithmetic tracks precision
soundly: a result never carries a term the inputs do not determine.

Valuation is the least exponent present.  A series with no terms is either
exactly zero (infinite precision) or merely zero to its precision bound; the
two are never conflated.

Every Series checks its invariants once, on construction: exponents in its
group and strictly increasing, nonzero coefficients in its field, each term
below a precision that lies in its group.  The exponents compare by their
data wherever the group orders its data natively (all but Q + Q*sqrt2).  A
sum is one merge of the two sorted term lists, each cut below the precision
of the sum by bisection; make_series, which sorts, is for unsorted input.

_newton is the one certified Newton iteration every lift goes through:
unit_nth_root here, and hensel_lift and implicit_solve in the hensel
module.  It runs on a precision ladder, each pass correcting and reading
only as far as the next one can certify, and inversion is a Newton
iteration of its own; mul_series never forms a product beyond its precision.
A lift to precision N so costs about N^2 coefficient products, not N^3.

mul_series scales exponents to slots once and has two kernels.  Over a
subgroup of Q the slot of an exponent e is the integer m*e, with m the lcm
of the denominators of both operands and of the product's precision; over
lex and quad groups the slot is the exponent itself.  Each operand is cut to
the terms whose products can fall below the precision.  The term-pair loop
adds and compares slots, sums the products per slot in a dict (over F_p as
plain ints, reduced mod p once per slot) and sorts the slots once.  Over F_p
with slots in Z, Kronecker substitution packs each operand into one Python
integer, and CPython's Karatsuba multiplies them.  One cost rule,
polys._kronecker_pays, picks the kernel: Kronecker when the slots of the
product window it reads back are fewer than polys._PAIR_COST times the
pairs the loop would form, as for MPoly products.  A one-term
factor only shifts and scales the other.  _mul_slots is that product on slot
lists and raw coefficients: mul_series calls it once, and invert runs every
rung of its Newton ladder on it and builds one Series at the end.  The slots
live only inside mul_series, invert and _horner_packed; a Series has one
representation.

polys._pack and polys._unpack are the one pair of routines that put
coefficients into the fixed-width slots of one integer and read them back,
by memoryview.cast where a slot is 1, 2, 4 or 8 bytes wide.  polys._kronecker
multiplies with them, for mul_series as for MPoly products, and
_horner_packed evaluates a polynomial at a series below t^N with them:
each operand is packed once, Horner's rule runs on the integers, and the
slots are reduced mod p once, so a dense evaluation builds one Series where
the plain Horner builds two per degree.

Series.__pow__ is the one power routine.  A product has precision
min(Pa + vb, Pb + va) (P the precision, v the least exponent, or P for a
series zero to precision), so a ** k has P + (k-1)v whatever the order of
the products, and every route below gives that result.  A one-term c*t^v
gives the one term c^k*t^(kv).  In characteristic p a p-th power is the
Frobenius, (sum c*t^e)^p = sum c^p*t^(pe), so a ** k with p | k takes
frobenius_series in work linear in the terms, cut to P + (p-1)v, and then
the (k/p)-th power; the rest squares through mul_series.

The stream catalog at the bottom provides named infinite series that can be
materialized at any requested truncation.
"""

from __future__ import annotations

import inspect
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .errors import (
    CharacteristicError,
    FamilyMismatchError,
    HypothesisError,
    IterationCapError,
    ParamError,
    PrecisionError,
)
from .fields import (
    GF, FieldDesc, FieldElement, FiniteField, _check_power_bits, _is_prime, _power, embed, frobenius,
)
from .groups import GroupDesc, GroupElem, RationalGroup, ZZ_GROUP, QQ_GROUP, p_power_hull
from .polys import _kronecker, _kronecker_pays, _pack, _slot_width, _unpack, cramer

__all__ = [
    "Series",
    "ValuationKind",
    "ValuationResult",
    "Signal",
    "POLE",
    "ZERO",
    "make_series",
    "zero_series",
    "one_series",
    "t_pow",
    "add_series",
    "sub_series",
    "mul_series",
    "invert",
    "valuation",
    "residue",
    "truncate",
    "shift",
    "scale_series",
    "frobenius_series",
    "unit_nth_root",
    "render_series",
    "series_to_json",
    "Stream",
    "StreamMeta",
    "theta_defect",
    "frobenius_root",
    "bad_value_group",
    "bad_residue",
    "z_series",
    "stream_from_params",
    "stream_expand",
    "DEFAULT_STREAM_CAP",
]


# ---------------------------------------------------------------------------
# valuation results and the residue sentinels


class ValuationKind(Enum):
    EXACT = "exact"
    INFINITY = "infinity"  # the series is exactly zero
    AT_LEAST = "at_least"  # zero to the precision of the series


@dataclass(frozen=True)
class ValuationResult:
    """Exact(g), Infinity (exact zero), or AtLeast(g) (zero to precision g)."""

    kind: ValuationKind
    value: GroupElem | None

    @staticmethod
    def exact(g: GroupElem) -> "ValuationResult":
        return ValuationResult(ValuationKind.EXACT, g)

    @staticmethod
    def infinity() -> "ValuationResult":
        return ValuationResult(ValuationKind.INFINITY, None)

    @staticmethod
    def at_least(g: GroupElem) -> "ValuationResult":
        return ValuationResult(ValuationKind.AT_LEAST, g)

    @property
    def is_exact(self) -> bool:
        return self.kind is ValuationKind.EXACT

    def __str__(self):
        if self.kind is ValuationKind.EXACT:
            return str(self.value)
        if self.kind is ValuationKind.INFINITY:
            return "oo"
        return f">= {self.value}"

    def __repr__(self):
        return f"ValuationResult({self})"


class Signal:
    """A residue sentinel, named after the module constant that holds it:
    POLE for negative value, ZERO for positive value.  A copy or an
    unpickled sentinel is that constant itself."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name

    def __reduce__(self):
        return self.name


POLE = Signal("POLE")
ZERO = Signal("ZERO")


# ---------------------------------------------------------------------------
# the series type


@dataclass(frozen=True)
class Series:
    field: FieldDesc
    group: GroupDesc
    terms: tuple[tuple[GroupElem, FieldElement], ...]
    precision: GroupElem | None  # None = exact

    def __post_init__(self):
        group, field, prec = self.group, self.field, self.precision
        if prec is not None:
            _check_precision(group, prec)
        # exponents of one group compare by their data where it orders natively
        native = group.native_order
        bound = None if prec is None else prec.data if native else prec
        prev = None
        for e, c in self.terms:
            if e.group is not group and e.group != group:
                raise FamilyMismatchError(f"exponent {e} not in group {group}")
            if c.field is not field and c.field != field:
                raise FamilyMismatchError(f"coefficient {c} not in field {field}")
            if c.is_zero():
                raise FamilyMismatchError("zero coefficient stored in a series")
            x = e.data if native else e
            if prev is not None and not prev < x:
                raise FamilyMismatchError("exponents not strictly increasing")
            if bound is not None and not x < bound:
                raise FamilyMismatchError("term at or beyond the precision bound")
            prev = x

    def is_zero_to_precision(self) -> bool:
        return not self.terms

    def is_exact_zero(self) -> bool:
        return not self.terms and self.precision is None

    def times_int(self, n: int) -> "Series":
        return scale_series(self, self.field.elem(n))

    def __add__(self, other):
        return add_series(self, other)

    def __sub__(self, other):
        return sub_series(self, other)

    def __neg__(self):
        return Series(self.field, self.group, tuple((e, -c) for e, c in self.terms), self.precision)

    def __mul__(self, other):
        return mul_series(self, other)

    def __pow__(self, k: int):
        """self^k below P + (k-1)v, P the precision and v the least
        exponent: one term c^k*t^(kv) for a one-term c*t^v, the Frobenius
        for p | k, else square and multiply (see the module docstring)."""
        if k < 0:
            return invert(self) ** (-k)
        if k == 0:
            return one_series(self.field, self.group)
        if k == 1:
            return self
        if len(self.terms) == 1:
            (e, c), = self.terms
            prec = self.precision
            if prec is not None:
                prec = prec + e.scale(k - 1)
            return Series(self.field, self.group, ((e.scale(k), c ** k),), prec)
        p = self.field.characteristic
        if p and k % p == 0:
            prec = self.precision
            if prec is not None:
                prec = prec + _low_bound(self).scale(p - 1)
            return truncate(frobenius_series(self), prec) ** (k // p)
        if not p and self.terms:  # c^k leads: check its size first
            _check_power_bits(self.terms[0][1].data, k)
        return _power(self, k, mul_series)

    def __str__(self):
        return render_series(self)

    def __repr__(self):
        return f"Series({render_series(self)})"


def _check_precision(group: GroupDesc, prec):
    """A precision bound must lie in the series' group: the checks and cuts
    that read exponent data natively cannot tell a foreign bound."""
    if not (type(prec) is GroupElem and (prec.group is group or prec.group == group)):
        raise FamilyMismatchError(f"precision {prec} not in group {group}")


def _as_group_elem(group: GroupDesc, e) -> GroupElem:
    return e if isinstance(e, GroupElem) else group.elem(e)


def make_series(field: FieldDesc, group: GroupDesc, terms, precision=None) -> Series:
    """Canonical constructor: merges duplicate exponents, drops zeros and
    terms at or beyond the precision bound."""
    prec = None if precision is None else _as_group_elem(group, precision)
    acc: dict[GroupElem, FieldElement] = {}
    for e, c in terms:
        if type(e) is not GroupElem:
            e = group.elem(e)
        if type(c) is not FieldElement:
            c = field.elem(c)
        old = acc.get(e)
        acc[e] = c if old is None else old + c
    kept = [
        (e, c)
        for e, c in acc.items()
        if not c.is_zero() and (prec is None or e < prec)
    ]
    kept.sort(key=(lambda t: t[0].data) if group.native_order else (lambda t: t[0]))
    return Series(field, group, tuple(kept), prec)


def zero_series(field: FieldDesc, group: GroupDesc, precision=None) -> Series:
    return make_series(field, group, (), precision)


def one_series(field: FieldDesc, group: GroupDesc, precision=None) -> Series:
    return make_series(field, group, [(group.zero(), field.one())], precision)


def t_pow(field: FieldDesc, group: GroupDesc, e, c=1, precision=None) -> Series:
    """The monomial c*t^(e)."""
    return make_series(field, group, [(e, c)], precision)


# ---------------------------------------------------------------------------
# precision combinators


def _prec_min(p1: GroupElem | None, p2: GroupElem | None) -> GroupElem | None:
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    return p1 if p1 < p2 else p2


def _low_bound(a: Series) -> GroupElem | None:
    """Lower bound for the valuation: least exponent, else the precision
    bound, else None for the exact zero (valuation +oo)."""
    if a.terms:
        return a.terms[0][0]
    return a.precision


def _check_same_ring(a: Series, b: Series):
    same_field = a.field is b.field or a.field == b.field  # identity first
    if not (same_field and (a.group is b.group or a.group == b.group)):
        raise FamilyMismatchError(
            f"series rings differ: {a.field}/{a.group} vs {b.field}/{b.group}"
        )


def _below(terms, prec: GroupElem | None):
    """The leading terms of a strictly increasing term tuple with exponent
    below prec (all of them for None), found by bisection."""
    if prec is None:
        return terms
    if prec.group.native_order:
        return terms[:bisect_left(terms, prec.data, key=_exp_data)]
    return terms[:bisect_left(terms, prec, key=itemgetter(0))]


def _exp_data(term):
    return term[0].data


def add_series(a: Series, b: Series) -> Series:
    """a + b by one merge of the two increasing term lists, each first cut
    below the precision of the sum; equal exponents add their coefficients,
    and a sum that vanishes drops out."""
    _check_same_ring(a, b)
    prec = _prec_min(a.precision, b.precision)
    ta, tb = _below(a.terms, prec), _below(b.terms, prec)
    native = a.group.native_order
    out = []
    i = j = 0
    na, nb = len(ta), len(tb)
    while i < na and j < nb:
        ea, ca = ta[i]
        eb, cb = tb[j]
        x, y = (ea.data, eb.data) if native else (ea, eb)
        if x < y:
            out.append(ta[i])
            i += 1
        elif y < x:
            out.append(tb[j])
            j += 1
        else:
            c = ca + cb
            if not c.is_zero():
                out.append((ea, c))
            i += 1
            j += 1
    out.extend(ta[i:])
    out.extend(tb[j:])
    return Series(a.field, a.group, tuple(out), prec)


def sub_series(a: Series, b: Series) -> Series:
    return add_series(a, -b)


def mul_series(a: Series, b: Series) -> Series:
    """a*b below the precision min(Pa + v(b), Pb + v(a)), with P the
    precision and v the least exponent of each factor.

    A one-term factor shifts and scales the other (_mul_monomial).  Any
    other product maps its exponents to slots (_slot_lists) and its
    coefficients to raw data (_raw_coeffs) once, and _mul_slots cuts each
    operand to the terms whose products can fall below the precision and
    takes the kernel the cost rule picks: Kronecker substitution over F_p
    with slots in Z, the term-pair loop otherwise.  The result is built
    once."""
    _check_same_ring(a, b)
    la, lb = _low_bound(a), _low_bound(b)
    field, group, ta, tb = a.field, a.group, a.terms, b.terms
    if la is None or lb is None:
        # an exact zero annihilates regardless of the other factor
        return Series(field, group, (), None)
    cand1 = None if a.precision is None else a.precision + lb
    cand2 = None if b.precision is None else b.precision + la
    prec = _prec_min(cand1, cand2)
    if not (ta and tb):
        return Series(field, group, (), prec)
    if len(tb) == 1:
        ta, tb = tb, ta
    if len(ta) == 1:
        return _mul_monomial(ta[0], tb, prec)
    m, (xa, xb), limit = _slot_lists(group, (ta, tb), prec)
    p, zero, (ca, cb) = _raw_coeffs(field, (ta, tb))
    return _from_slots(field, group, m, _mul_slots(xa, ca, xb, cb, limit, m, p, zero), prec)


def _mul_slots(xa: list, ca: list, xb: list, cb: list, limit, m, p: int, zero) -> list:
    """The one slot-level product, behind mul_series and invert: the
    increasing slots xa and xb with their raw coefficients ca and cb (as
    _slot_lists, with scale m, and _raw_coeffs, with p and zero, give them),
    multiplied below the slot limit (None: all of it).  Returns the
    product's nonzero coefficients as increasing (slot, raw coefficient)
    pairs.

    Each operand is cut to the terms whose products can fall below limit,
    the cost rule picks the kernel (Kronecker over F_p with slots in Z, the
    term-pair loop otherwise), and each slot's sum is reduced mod p once."""
    if limit is not None:
        # a term matters only if its product with the other's first is below;
        # each first term is, as every term lies below its series' precision
        na, nb = bisect_left(xa, limit - xb[0]), bisect_left(xb, limit - xa[0])
        xa, xb, ca, cb = xa[:na], xb[:nb], ca[:na], cb[:nb]
    if p and m and _kronecker_pays(xa, xb, limit):
        return [(x, k) for x, s in _mul_kronecker(xa, ca, xb, cb, limit, p) if (k := s % p)]
    sums = _mul_pairs(xa, ca, xb, cb, limit, zero)
    if p:
        items = [(x, k) for x, s in sums if (k := s % p)]
    elif type(zero) is FieldElement:
        items = [(x, c) for x, c in sums if not c.is_zero()]
    else:
        items = [(x, c) for x, c in sums if c]
    items.sort(key=itemgetter(0) if m or not xa[0].group.native_order else _exp_data)
    return items


def _raw_coeffs(field: FieldDesc, term_lists):
    """(p, zero, the coefficients of each term tuple as the slot kernels
    hold them): ints mod p over F_p, with p the prime; elements over
    F_{p^n} and Fraction data over Q, with p 0.  zero starts a sum."""
    if type(field) is not FiniteField:
        return 0, 0, [[c.data for _, c in ts] for ts in term_lists]
    if field.n == 1:
        return field.p, 0, [[c.data[0] for _, c in ts] for ts in term_lists]
    return 0, field.zero(), [[c for _, c in ts] for ts in term_lists]


def _from_slots(field: FieldDesc, group: GroupDesc, m, items: list, prec) -> Series:
    """The Series whose terms are the (slot, raw coefficient) items, in slot
    order: slot x is the exponent x/m over a subgroup of Q, and the
    exponent itself over lex and quad groups (m None); a raw coefficient is
    as _raw_coeffs holds it."""
    if type(field) is not FiniteField:
        items = [(x, FieldElement(field, c)) for x, c in items]
    elif field.n == 1:
        items = [(x, FieldElement(field, (k,))) for x, k in items]
    if not m:
        terms = items
    elif group.int_data:
        terms = [(GroupElem(group, x), c) for x, c in items]
    else:
        terms = [(GroupElem(group, Fraction(x, m)), c) for x, c in items]
    return Series(field, group, tuple(terms), prec)


def _mul_monomial(term, terms, prec) -> Series:
    """c*t^(e) times the series with the given terms, below prec: a shift
    and a scaling, whose exponents stay distinct and, in a field, whose
    coefficients stay nonzero, so it needs no slots and no merge."""
    (e1, c1), field, group = term, term[1].field, term[0].group
    if type(group) is RationalGroup:
        x1 = e1.data
        if prec is not None:
            terms = terms[:bisect_left(terms, prec.data - x1, key=_exp_data)]
        exps = [GroupElem(group, x1 + e.data) for e, _ in terms]
    else:
        if prec is not None:
            terms = _below(terms, prec - e1)
        exps = [e1 + e for e, _ in terms]
    if type(field) is not FiniteField:
        q = c1.data
        coeffs = [FieldElement(field, q * c.data) for _, c in terms]
    elif field.n == 1:
        k, p = c1.data[0], field.p
        coeffs = [FieldElement(field, (k * c.data[0] % p,)) for _, c in terms]
    else:
        coeffs = [c1 * c for _, c in terms]
    return Series(field, group, tuple(zip(exps, coeffs)), prec)


def _slot_lists(group: GroupDesc, term_lists, prec: GroupElem | None):
    """(m, the slots of each term tuple, slot of prec or None).  Over a
    subgroup of Q the slot of e is the integer m*e, m the lcm of the
    denominators of every exponent and of the precision (1 over Z, whose
    data are ints); over a lex or quad group it is e itself, and m is None."""
    if type(group) is not RationalGroup:
        return None, [[e for e, _ in ts] for ts in term_lists], prec
    if group.int_data:
        return 1, [[e.data for e, _ in ts] for ts in term_lists], None if prec is None else prec.data
    dens = {e.data.denominator for ts in term_lists for e, _ in ts}
    if prec is not None:
        dens.add(prec.data.denominator)
    m = lcm(*dens)
    slots = [[e.data.numerator * (m // e.data.denominator) for e, _ in ts] for ts in term_lists]
    limit = None if prec is None else prec.data.numerator * (m // prec.data.denominator)
    return m, slots, limit


def _mul_pairs(xa: list, ca: list, xb: list, cb: list, limit, zero):
    """The one term-pair loop: every product of a slot of xa and one of xb
    below limit (None: all of them), summed per slot, as (slot, sum) pairs
    in no particular order.  Rows shrink as xa grows, so each row is cut by
    bisection."""
    acc = {}
    get = acc.get
    tb = list(zip(xb, cb))
    row = tb
    for x1, c1 in zip(xa, ca):
        if limit is not None:
            row = tb[:bisect_left(xb, limit - x1, 0, len(row))]
        for x2, c2 in row:
            x = x1 + x2
            acc[x] = get(x, zero) + c1 * c2
    return acc.items()


def _mul_kronecker(xa: list, ca: list, xb: list, cb: list, limit, p: int) -> list:
    """The product over F_p by Kronecker substitution (polys._kronecker): a
    slot holds the sum of at most min(len xa, len xb) products below p^2.
    The slots below limit come back as sorted (slot, sum) pairs, the sums
    not yet reduced mod p."""
    base = xa[0] + xb[0]
    size = xa[-1] + xb[-1] - base + 1
    if limit is not None:
        size = min(size, limit - base)
    bound = min(len(xa), len(xb)) * (p - 1) ** 2
    return list(zip(range(base, base + size), _kronecker(xa, ca, xb, cb, size, bound)))


def _horner_packed(coeffs, a: Series, below: GroupElem) -> Series | None:
    """truncate(_horner(coeffs, a), below) by one packed pass, or None where
    the pass does not apply or the cost rule says it does not pay.

    It applies over F_p with exponents in a subgroup of Q when a and every
    coefficient have no term of negative exponent and are known modulo
    t^(below), below > 0: the result below t^(below) then depends only on
    the operands below it.  Each operand is packed once into the slots of
    t^0 .. t^(below) (exclusive), and Horner's rule runs on the integers,
    acc <- (acc * A mod 2^(width*slots)) + C.  The slot width holds the
    largest unreduced sum, so no slot carries and the low slots of each
    product are the truncated product; the slots are read back and reduced
    mod p once."""
    field, group = a.field, a.group
    if not (type(field) is FiniteField and field.n == 1 and type(group) is RationalGroup):
        return None
    c0 = coeffs[0]  # the coefficients share one ring; the plain Horner reports a foreign a
    if not ((c0.field is field or c0.field == field) and (c0.group is group or c0.group == group)):
        return None
    bound = below.data
    if bound <= 0:
        return None
    cut = []
    for s in (a, *coeffs):
        terms = s.terms
        if terms and terms[0][0].data < 0 or s.precision is not None and s.precision.data < bound:
            return None
        cut.append(_below(terms, below))
    m, slots, limit = _slot_lists(group, cut, below)
    p = field.p
    # the largest slot of acc after each step, from c_d: acc*A adds at most
    # len(cut[0]) products of two slots
    top = p - 1
    for _ in coeffs[1:]:
        top = top * (p - 1) * len(cut[0]) + p - 1
    width = _slot_width(top)
    if not _packing_pays(list(map(len, cut)), limit, width):
        return None
    packed_a, *packed_cs = [
        _pack(xs, [c.data[0] for _, c in terms], 0, limit, width) for xs, terms in zip(slots, cut)
    ]
    mask = (1 << 8 * width * limit) - 1
    acc = packed_cs[-1]
    for packed_c in reversed(packed_cs[:-1]):
        acc = (acc * packed_a & mask) + packed_c
    sums = _unpack(acc, limit, width)
    items = [(x, k) for x, total in enumerate(sums) if (k := total % p)]
    return _from_slots(field, group, m, items, below)


# The cost rule of the packed evaluation: it pays when the slots it reads
# back plus the 8-byte words its big-integer products cover are fewer than
# _PACK_COST times a lower bound on the terms the plain Horner builds.  Both
# were timed on 1836 random evaluations over F_3, F_101 and F_(2^61 - 1):
# 4 to 512 slots, degree 1 to 8, points and coefficients from one term to
# every slot, exact and cut.  With 3 the rule's total time is 0.76 times the
# plain Horner's; where it packs and loses by more than 1.3x (31 cases), the
# degree is 1, or 2 with 512 slots, and the loss at most 2.9x or 0.5 ms.
_PACK_COST = 3


def _packing_pays(counts: list, limit: int, width: int) -> bool:
    """Whether one packed pass over limit slots of width bytes is cheaper
    than the plain Horner on operands with the given term counts, point
    first.  Each plain step builds acc*a + c, which has at least
    |acc| + |a| - 1 and |c| terms (sums of two sets of integers), and at
    most limit."""
    na, *ncs = counts
    terms = built = 0
    for nc in reversed(ncs):
        if terms and na:
            terms += na - 1
        terms = min(limit, max(terms, nc))
        built += terms
    # limit + words < _PACK_COST * built, times 8 to stay in integers
    return 8 * limit + (len(ncs) - 1) * limit * width < 8 * _PACK_COST * built


def truncate(a: Series, precision) -> Series:
    if precision is None:
        return a
    prec = _as_group_elem(a.group, precision)
    _check_precision(a.group, prec)
    if a.precision is not None and not prec < a.precision:
        return a  # nothing to cut, and a Series is immutable
    return Series(a.field, a.group, _below(a.terms, prec), prec)


def shift(a: Series, g) -> Series:
    """Multiply by the monomial t^(g)."""
    g = _as_group_elem(a.group, g)
    prec = None if a.precision is None else a.precision + g
    return Series(a.field, a.group, tuple((e + g, c) for e, c in a.terms), prec)


def scale_series(a: Series, c: FieldElement) -> Series:
    if c.field != a.field:
        raise FamilyMismatchError("scalar from the wrong field")
    if c.is_zero():
        return zero_series(a.field, a.group)
    return Series(a.field, a.group, tuple((e, k * c) for e, k in a.terms), a.precision)


# ---------------------------------------------------------------------------
# valuation, residue, inversion


def valuation(a: Series) -> ValuationResult:
    if a.terms:
        return ValuationResult.exact(a.terms[0][0])
    if a.precision is None:
        return ValuationResult.infinity()
    return ValuationResult.at_least(a.precision)


def residue(a: Series):
    """Image in the residue field: 0 for positive valuation, the t^0
    coefficient for valuation 0, POLE for negative valuation."""
    v = valuation(a)
    if v.kind is ValuationKind.INFINITY:
        return a.field.zero()
    if v.kind is ValuationKind.AT_LEAST:
        if v.value.sign() > 0:
            return a.field.zero()
        raise PrecisionError(
            f"residue undecidable: series known only to O(t^({v.value}))"
        )
    s = v.value.sign()
    if s > 0:
        return a.field.zero()
    if s < 0:
        return POLE
    return a.terms[0][1]


def invert(a: Series, precision=None) -> Series:
    """Multiplicative inverse by Newton iteration on the 1-unit part.

    Write a = c*t^(g)*(1 + u) with v(u) > 0.  The inverse s of w = 1 + u is
    refined by s <- s + s*(1 - w*s), which doubles the precision it is
    right to, on the ladder v(u), 2v(u), 4v(u), ... up to the target: about
    log2(target/v(u)) rungs of two products each.  Each rung's s is the
    unique inverse of w modulo t^(rung).

    The ladder runs on the slot lists of the kernels: the exponents of a
    map to slots and its coefficients to raw data once, every product is a
    _mul_slots call, and one Series, the result, is built at the end.  On a
    rung, w*s is 1 below t^(previous rung), where s stops, so the error is
    the rest of w*s negated, and s*(error) extends s past its last term.

    The result precision is capped by what the input determines: an input
    known modulo t^(P) with valuation g pins its inverse only modulo
    t^(P - 2g).  Inverting an exact series with more than one term needs an
    explicit precision bound.  A bound that no multiple of v(u) reaches (a
    higher archimedean class, as in Z^2 lex) would need infinitely many
    terms and raises PrecisionError; a ladder longer than 64 rungs, or an
    inverse with more than _MAX_TERMS terms, raises IterationCapError.
    """
    v = valuation(a)
    if not v.is_exact:
        raise PrecisionError(f"cannot invert a series with valuation {v}")
    field, group, g = a.field, a.group, v.value
    cinv = a.terms[0][1].inverse()
    inherent = None if a.precision is None else a.precision - g - g
    target = _prec_min(
        None if precision is None else _as_group_elem(group, precision), inherent
    )
    if target is None:
        if len(a.terms) == 1:
            return Series(field, group, ((-g, cinv),), None)
        raise PrecisionError("inverting an exact multi-term series needs a precision bound")
    # 1/a = c^(-1) t^(-g) s with s = 1/w, w = 1 + u, needed modulo t^(rel)
    rel = target + g
    if rel.sign() <= 0:
        return Series(field, group, (), target)
    terms = _below(a.terms, rel + g)  # a's terms that w has below t^(rel)
    vu = terms[1][0] - g if len(terms) > 1 else rel
    if vu < rel and group.above_every_multiple(rel, vu):
        raise PrecisionError(
            f"inverse has infinitely many terms below t^({target}): no multiple of "
            f"v(u) = {vu} reaches it"
        )
    m, (xs,), limit = _slot_lists(group, (terms,), target)
    p, zero, (cs, (ci,)) = _raw_coeffs(field, (terms, ((g, cinv),)))
    # w in slots and raw coefficients, its one in slot 0; rx the slot of rel
    gx, rx = xs[0], limit + xs[0]
    wx = [x - gx for x in xs]
    wc = [ci * k % p for k in cs] if p else [ci * k for k in cs]
    known = wx[1] if len(wx) > 1 else rx  # s*w = 1 modulo t^(known)
    ladder = []
    while known < rx:
        if len(ladder) == _MAX_STEPS:
            raise IterationCapError(f"inverse needs more than {_MAX_STEPS} Newton steps")
        known = _prec_min(known + known, rx)
        ladder.append(known)
    sx, sc = wx[:1], wc[:1]  # s = 1
    for known in ladder:
        n = bisect_left(wx, known)
        ws = _mul_slots(wx[:n], wc[:n], sx, sc, known, m, p, zero)
        if len(ws) > 1:  # ws[0] is the one: the error 1 - w*s is the rest negated
            ex = [x for x, _ in ws[1:]]
            ec = [p - k for _, k in ws[1:]] if p else [-k for _, k in ws[1:]]
            ds = _mul_slots(sx, sc, ex, ec, known, m, p, zero)
            sx = sx + [x for x, _ in ds]
            sc = sc + [k for _, k in ds]
        if len(sx) > _MAX_TERMS:
            raise IterationCapError(
                f"inverse has more than {_MAX_TERMS} terms below t^({target})"
            )
    if p:
        items = [(x - gx, ci * k % p) for x, k in zip(sx, sc)]
    else:
        items = [(x - gx, ci * k) for x, k in zip(sx, sc)]
    return _from_slots(field, group, m, items, target)


def frobenius_series(a: Series) -> Series:
    """Termwise p-th power: coefficients c -> c^p, exponents g -> p*g."""
    p = a.field.characteristic
    if p == 0:
        raise CharacteristicError("frobenius needs positive characteristic")
    prec = None if a.precision is None else a.precision.scale(p)
    terms = tuple((e.scale(p), frobenius(c)) for e, c in a.terms)
    return Series(a.field, a.group, terms, prec)


def unit_nth_root(u: Series, n: int, precision=None) -> Series:
    """The unique n-th root with residue 1 of a 1-unit, for n prime to the
    characteristic, by Newton iteration on X^n - u starting at 1."""
    if n < 1:
        raise ParamError("root index must be positive")
    p = u.field.characteristic
    if p and n % p == 0:
        raise CharacteristicError(f"root index {n} is divisible by the characteristic {p}")
    r = residue(u)
    if r is POLE or not (r - u.field.one()).is_zero():
        raise HypothesisError("unit_nth_root needs a 1-unit (residue exactly 1)")
    if n == 1:
        return u
    target = _prec_min(
        None if precision is None else _as_group_elem(u.group, precision), u.precision
    )
    if target is None:
        if len(u.terms) == 1:
            return one_series(u.field, u.group)
        raise PrecisionError("exact multi-term input needs an explicit precision bound")
    (root,), _ = _newton(
        lambda a: [a[0] ** n - u], lambda a: [[(a[0] ** (n - 1)).times_int(n)]],
        [one_series(u.field, u.group)], target,
    )
    return root


# ---------------------------------------------------------------------------
# Newton iteration

_MAX_STEPS = 64
# the most terms an inverse, or a Newton approximant or residual, may carry:
# 1/(1 + t^(1/2^k)) over F_2 has 2^k terms below t^1, and each rung or step of
# a ladder can double the count, so the budget is what stops such inputs fast.
# invert checks it on the slot lists its ladder runs on, after every rung, so
# an oversized inverse fails before any Series is built
_MAX_TERMS = 1024


def _newton(residuals, jacobian, start, target: GroupElem):
    """The Newton iteration a <- a - J(a)^(-1) * f(a) behind every lift.

    residuals(a) returns the vector f(a) and jacobian(a) the matrix J(a) at
    the vector a; det J(a) must be a unit, and each correction solves
    J * d = f by Cramer's rule with one inverted determinant.  The iteration
    stops when every residual is zero below the target; before each
    correction it logs the least exact residual valuation w and checks the
    certificate v(f(a_next)) >= 2*v(f(a)).  Returns the root vector and the
    logged valuations.

    Each pass corrects a and reads f at the result, on a precision ladder:
    after residual valuation w the correction is computed modulo t^(cut),
    cut = min(target, 4w), with J(a) and 1/det modulo t^(cut - w), and the
    next residual modulo t^(min(target, 8w)), or further when it is zero to,
    or too close to, that precision.  A valuation that reaches the cut may
    be an artifact of it, so the pass corrects a again at the target.  A
    residual, det J(a) or correction known to less than it was computed to
    (inputs known to less than the target, coefficients of negative
    valuation) sets full, the one flag that outlives a pass, and every later
    step runs at the target.  No rung reaches a target in a higher
    archimedean class than w (Z^r lex), so such a correction runs at the
    target, where an inverse needing infinitely many terms raises
    PrecisionError.  More than _MAX_TERMS terms in an approximant or
    residual raise IterationCapError."""
    a = tuple(truncate(s, target) for s in start)
    zero, one = zero_series(a[0].field, a[0].group), one_series(a[0].field, a[0].group)
    full = False

    def read(a, at, cut):
        """(f(a), its least exact valuation or None if f(a) is zero) read
        modulo t^(at) or further; None when that valuation reaches a cut
        below the target."""
        nonlocal full
        while True:  # at rises, and a read at the target returns
            point = tuple(truncate(x, at) for x in a)
            res = [truncate(r, at) for r in residuals(point)]
            if any(len(x.terms) > _MAX_TERMS for x in (*point, *res)):
                raise IterationCapError(
                    f"Newton approximant or residual has more than {_MAX_TERMS} terms "
                    f"below t^({target})"
                )
            w = min((v.value for v in map(valuation, res) if v.is_exact), default=None)
            if any(r.precision is not None and r.precision < at for r in res):
                full = True
                if at < target:
                    at = target
                    continue
            if cut < target and (w is None or not w < cut):
                return None
            if at < target and (w is None or at < w.scale(4)):
                at = target if w is None else _prec_min(target, w.scale(4))
                continue
            return res, w

    def correct(a, res, w, cut):
        """(a - J(a)^(-1) * f(a) modulo t^(cut), read to the target, and the
        cut, which a loss of precision raises to the target)."""
        nonlocal full
        while True:  # a second pass, with full set, returns
            jet = target if full else cut - w
            d, (adj_res,) = cramer(
                jacobian(tuple(truncate(x, jet) for x in a)), [[truncate(r, cut) for r in res]],
                zero, one,
            )
            if full or d.precision is None or not d.precision < jet:
                inv_d = invert(d, jet)
                nxt = tuple(
                    truncate(sub_series(ai, mul_series(x, inv_d)), cut) for ai, x in zip(a, adj_res)
                )
                if full or all(x.precision == cut for x in nxt):
                    if cut < target:  # an approximant cut by the ladder alone is read to the target
                        nxt = tuple(Series(x.field, x.group, x.terms, target) for x in nxt)
                    return nxt, cut
            full, cut = True, target
            res, _ = read(a, target, target)

    steps: list[GroupElem] = []
    res, w = read(a, target, target)
    while w is not None:
        if steps and w < steps[-1].scale(2):
            raise HypothesisError(f"convergence certificate failed: v went {steps[-1]} -> {w}")
        steps.append(w)
        gap = w.sign() > 0 and w.group.above_every_multiple(target, w)
        nxt, cut = correct(a, res, w, target if full or gap else _prec_min(target, w.scale(4)))
        if len(steps) == _MAX_STEPS:
            raise IterationCapError("Newton iteration did not reach the target")
        got = read(nxt, target if full else _prec_min(target, w.scale(8)), cut)
        if got is None:  # maybe an artifact of the cut
            res, w = read(a, target, target)
            nxt, _ = correct(a, res, w, target)
            got = read(nxt, target if full else _prec_min(target, w.scale(8)), target)
        a, (res, w) = nxt, got
    return a, tuple(steps)


# ---------------------------------------------------------------------------
# rendering and JSON


def render_series(a: Series) -> str:
    parts = [f"{c}*t^({e})" for e, c in a.terms]
    if a.precision is not None:
        parts.append(f"O(t^({a.precision}))")
    if not parts:
        return "0"
    return " + ".join(parts)


def series_to_json(a: Series) -> dict:
    return {
        "field": str(a.field),
        "group": str(a.group),
        "terms": [[str(e), str(c)] for e, c in a.terms],
        "precision": None if a.precision is None else str(a.precision),
    }


# ---------------------------------------------------------------------------
# stream catalog
#
# Streams are named infinite series with a deterministic term generator;
# expansions at increasing precision agree on common terms.


@dataclass(frozen=True)
class StreamMeta:
    """Declared place-theoretic data of the valued object the stream models:
    whether the value group its exponents generate is finitely generated,
    and whether the residue extension it contributes is."""

    value_group_fg: bool
    residue_fg: bool


@dataclass(frozen=True)
class Stream:
    name: str
    params: tuple[tuple[str, object], ...]
    field: FieldDesc | None  # None when the coefficient field depends on the truncation
    group: GroupDesc
    meta: StreamMeta

    def param(self, key):
        for k, v in self.params:
            if k == key:
                return v
        raise ParamError(f"stream {self.name} has no param {key!r}")

    def __str__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({ps})"


def theta_defect(p: int) -> Stream:
    """Sum of t^(-1/p^i) for i >= 1, exponents in (1/p^oo)Z."""
    _check_prime(p)
    return Stream(
        "ThetaDefect",
        (("p", p),),
        GF(p),
        p_power_hull(p),
        StreamMeta(False, True),
    )


def frobenius_root(p: int) -> Stream:
    """Sum of (-t)^(p^i) for i >= 0, exponents in Z."""
    _check_prime(p)
    return Stream(
        "FrobeniusRoot",
        (("p", p),),
        GF(p),
        ZZ_GROUP,
        StreamMeta(True, True),
    )


def bad_value_group(p: int, S) -> Stream:
    """Sum of t^(-1/n) over n in S, each n prime to p; exponents in Q."""
    _check_prime(p)
    if not isinstance(S, (list, tuple)) or not all(_is_int(n) for n in S):
        raise ParamError(f"denominator set must be a list of integers, got {S!r}")
    S = tuple(sorted(set(S)))
    if not S:
        raise ParamError("empty denominator set")
    for n in S:
        if n < 1 or gcd(n, p) != 1:
            raise ParamError(f"denominator {n} must be positive and prime to {p}")
    return Stream(
        "BadValueGroup",
        (("p", p), ("S", S)),
        GF(p),
        QQ_GROUP,
        StreamMeta(False, True),
    )


# The largest degree L of the field F_{p^L} that hosts BadResidue's
# coefficients; embedding lists subfields element by element, and the hosts
# grow as lcm(1..N).
_MAX_HOST_DEGREE = 60


def bad_residue(p: int) -> Stream:
    """Sum of a_n*t^n with a_n the canonical generator of F_{p^n}, all
    embedded into F_{p^L}; L is lcm(1..N) for the truncation's largest N.
    L above _MAX_HOST_DEGREE raises ParamError."""
    _check_prime(p)
    return Stream(
        "BadResidue",
        (("p", p),),
        None,
        ZZ_GROUP,
        StreamMeta(True, False),
    )


def z_series(p: int) -> Stream:
    """Sum of t^(p^(nu_i) - 1/p^(nu_i)) with nu_i = i(i+1)/2, exponents in
    (1/p^oo)Z."""
    _check_prime(p)
    return Stream(
        "ZSeries",
        (("p", p),),
        GF(p),
        p_power_hull(p),
        StreamMeta(False, True),
    )


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_prime(p):
    if not (_is_int(p) and _is_prime(p)):
        raise ParamError(f"p must be a prime integer, got {p!r}")


def _theta_defect_terms(s: Stream):
    p = s.param("p")
    one = s.field.one()
    for i in itertools.count(1):
        yield s.group.elem(Fraction(-1, p ** i)), one


def _frobenius_root_terms(s: Stream):
    p = s.param("p")
    coeff = s.field.one() if p == 2 else -s.field.one()
    for i in itertools.count(0):
        yield s.group.elem(p ** i), coeff


def _bad_value_group_terms(s: Stream):
    one = s.field.one()
    for n in s.param("S"):
        yield s.group.elem(Fraction(-1, n)), one


def _bad_residue_terms(s: Stream):
    for n in itertools.count(1):
        yield s.group.elem(n), n


def _z_series_terms(s: Stream):
    p = s.param("p")
    one = s.field.one()
    for i in itertools.count(1):
        nu = i * (i + 1) // 2
        yield s.group.elem(p ** nu - Fraction(1, p ** nu)), one


# The stream registry: name -> (constructor, term generator).  A generator
# yields (exponent, coefficient) in increasing exponent order; BadResidue's
# yields the degree n of its coefficient in place of the coefficient, since
# the field that hosts them depends on the truncation.
_STREAMS = {
    "ThetaDefect": (theta_defect, _theta_defect_terms),
    "FrobeniusRoot": (frobenius_root, _frobenius_root_terms),
    "BadValueGroup": (bad_value_group, _bad_value_group_terms),
    "BadResidue": (bad_residue, _bad_residue_terms),
    "ZSeries": (z_series, _z_series_terms),
}

DEFAULT_STREAM_CAP = 64


def _registry_entry(name):
    if not isinstance(name, str) or name not in _STREAMS:
        raise ParamError(f"unknown stream {name!r}")
    return _STREAMS[name]


def stream_from_params(name, params) -> Stream:
    """Build a catalog stream from its name and a mapping of constructor
    parameters (the JSON form); a bad name, a missing or unknown parameter,
    or an ill-typed value raises ParamError."""
    build, _ = _registry_entry(name)
    if not isinstance(params, dict):
        raise ParamError(f"params of stream {name} must be an object, got {params!r}")
    try:
        inspect.signature(build).bind(**params)
    except TypeError as exc:
        raise ParamError(f"stream {name}: {exc}") from None
    return build(**params)


def stream_expand(s: Stream, precision, max_terms: int | None = None) -> Series:
    """Materialize the stream below the requested precision, up to max_terms
    terms (default DEFAULT_STREAM_CAP).  When the term cap bites first, the
    reported precision is the first omitted exponent, so the result is exact
    below its own bound."""
    cap = DEFAULT_STREAM_CAP if max_terms is None else max_terms
    if cap < 1:
        raise ParamError("max_terms must be positive")
    prec = _as_group_elem(s.group, precision)
    _, terms = _registry_entry(s.name)
    kept = []
    honest = prec
    for e, c in terms(s):
        if not e < prec:
            break
        if len(kept) == cap:
            honest = e  # first omitted exponent
            break
        kept.append((e, c))
    field = s.field
    if field is None:  # BadResidue: host the kept degrees n in F_(p^L)
        p, L = s.param("p"), lcm(*(n for _, n in kept))
        if L > _MAX_HOST_DEGREE:
            raise ParamError(
                f"degree-1..{kept[-1][1]} coefficients need a host of degree {L}, above the budget of {_MAX_HOST_DEGREE}"
            )
        field = GF(p, L)
        kept = [(e, embed(GF(p, n).generator(), field)) for e, n in kept]
    return Series(field, s.group, tuple(kept), honest)
