"""Places of rational function fields K(x1,...,xn) given by finite data.

A place is described declaratively and evaluated exactly:

* ``TrivialPlace``   -- value 0 on every nonzero function, residue the
  function itself.
* ``EvalPlace``      -- evaluation at a point; the value is the vector of
  vanishing orders along the listed coordinates (first listed dominates).
  Each order is the least k with a nonzero Taylor coefficient at (x - a)^k (a
  Hasse derivative): the value at a, term by term, and where that is zero
  synthetic division, dividing by (x - a) until a remainder is nonzero,
  each division one Horner pass, on plain ints over Q and F_p.  Degrees
  above 1280 at a nonzero point raise ParamError.
* ``MonomialPlace``  -- prescribed positive, rationally independent values
  on some variables and fresh residue indeterminates for the others; the
  value of a polynomial is the least weighted exponent sum over its
  monomials, and the residue is the sum of the minimal monomials' images.
* ``SeriesEmbedPlace`` -- substitute explicit series or catalog streams for
  the variables and read value and residue off the resulting series.  Each
  polynomial, numerator, denominator or that of an inner stage, expands the
  streams of the variables it contains round by round until its own value
  is decided, and, at a place with no truncated assignment, cuts its exact
  assignments of several terms on the same ladder while the rung is at most
  their top exponent times the polynomial's degree in their variable.
* ``ComposePlace``   -- a flat tuple of stages, each a place on the residue
  field of the stage before it; values are lexicographic tuples with earlier
  stages dominant.

Composite values are flattened to integer lex tuples, so every stage of a
composition must have an integer-coordinate value group, and all its stages
lie over one field.  ``compose`` concatenates stages, so it is associative.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul

from .errors import (
    ExprError,
    FieldMismatchError,
    HypothesisError,
    ParamError,
    PoleError,
    PrecisionError,
    SpanError,
    UnsupportedError,
)
from .expr import expr_to_ratfn
from .fields import GF, QQ, FieldDesc, FieldElement, RationalField
from .groups import (
    GroupDesc,
    GroupElem,
    LexGroup,
    QQ_GROUP,
    QuadGroup,
    RationalGroup,
    ZZ_GROUP,
    _from_integer_row,
    _hnf,
    _integer_rows,
    one_over_m,
    p_power_hull,
    parse_elem,
)
from .groups import invariants as group_invariants
from .hensel import eval_poly_at_series
from .polys import MPoly, RatFn, det, var_poly
from .series import (
    DEFAULT_STREAM_CAP,
    POLE,
    ZERO,
    Series,
    Stream,
    ValuationKind,
    ValuationResult,
    make_series,
    stream_expand,
    stream_from_params,
    truncate,
    valuation,
)

__all__ = [
    "ZERO",
    "TrivialPlace",
    "EvalPlace",
    "MonomialPlace",
    "SeriesEmbedPlace",
    "ComposePlace",
    "PlaceInvariants",
    "UniformizationWitness",
    "place_vars",
    "residue_vars",
    "value_group",
    "place_value",
    "place_residue",
    "place_value_residue",
    "compose",
    "place_invariants",
    "verify_uniformization_witness",
    "place_to_json",
    "place_from_json",
]


REFINE_ROUNDS = 4
BASE_PRECISION = 8


# ---------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class TrivialPlace:
    vars: tuple[str, ...]
    field: FieldDesc

    def __post_init__(self):
        _check_distinct(self.vars)


@dataclass(frozen=True)
class EvalPlace:
    field: FieldDesc
    assignments: tuple[tuple[str, FieldElement], ...]

    def __post_init__(self):
        if not self.assignments:
            raise ParamError("an evaluation place needs at least one assigned variable")
        _check_distinct([v for v, _ in self.assignments])
        for v, a in self.assignments:
            if a.field != self.field:
                raise FieldMismatchError(f"point coordinate {v} lies in {a.field}")


@dataclass(frozen=True)
class MonomialPlace:
    field: FieldDesc
    group: GroupDesc
    values: tuple[tuple[str, GroupElem], ...]
    residues: tuple[tuple[str, str], ...] = ()
    # ({variable: its value's coordinate row}, d): the rows are integers over
    # one common denominator d, as _integer_rows gives them
    _rows: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [v for v, _ in self.values] + [v for v, _ in self.residues]
        _check_distinct(names)
        _check_distinct([z for _, z in self.residues])
        for _, z in self.residues:
            if z in names:
                raise ParamError(f"residue indeterminate {z} collides with a variable")
        if not self.values:
            raise ParamError("a monomial place needs at least one valued variable")
        for v, g in self.values:
            if g.group != self.group:
                raise ParamError(f"value of {v} lies outside the declared group")
            if g.sign() <= 0:
                raise ParamError(f"value of {v} must be positive")
        # the values are rationally independent when their rows have full rank
        rows, denom = _integer_rows(g for _, g in self.values)
        if len(_hnf(rows)) < len(rows):
            values = ", ".join(str(g) for _, g in self.values)
            raise SpanError(f"the values {values} are rationally dependent")
        object.__setattr__(self, "_rows", ({v: r for (v, _), r in zip(self.values, rows)}, denom))


@dataclass(frozen=True)
class SeriesEmbedPlace:
    field: FieldDesc
    group: GroupDesc
    assignments: tuple[tuple[str, Series | Stream], ...]

    def __post_init__(self):
        _check_distinct([v for v, _ in self.assignments])
        for v, s in self.assignments:
            if isinstance(s, Stream):
                if s.group != self.group:
                    raise ParamError(f"stream for {v} lives in {s.group}, place in {self.group}")
                if s.field is not None and s.field != self.field:
                    raise FieldMismatchError(f"stream for {v} has coefficients in {s.field}")
            else:
                if s.group != self.group or s.field != self.field:
                    raise FieldMismatchError(f"series for {v} lies in a different ring")


@dataclass(frozen=True)
class ComposePlace:
    """Two or more places applied in turn, none itself a composition: each
    stage but the last must have residue indeterminates, the next stage must
    act on exactly those and lie over the same field, and every stage must
    have an integer-coordinate value group."""

    stages: tuple["PlaceDesc", ...]

    def __post_init__(self):
        if len(self.stages) < 2 or any(isinstance(s, ComposePlace) for s in self.stages):
            raise ParamError("a composition needs two or more stages, none itself a composition")
        for earlier, later in zip(self.stages, self.stages[1:]):
            inner = residue_vars(earlier)
            if not inner:
                raise UnsupportedError("the first place has a trivial residue field description")
            if set(inner) != set(place_vars(later)):
                raise ParamError(
                    f"second place acts on {place_vars(later)}, residue field has {inner}"
                )
            if later.field != earlier.field:
                raise FieldMismatchError(
                    f"a stage over {later.field} follows one over {earlier.field}"
                )
        for stage in self.stages:
            _width(stage)  # reject stages whose values do not flatten to integers


PlaceDesc = TrivialPlace | EvalPlace | MonomialPlace | SeriesEmbedPlace | ComposePlace


def _check_distinct(names):
    seen = set()
    for n in names:
        if n in seen:
            raise ParamError(f"repeated name {n!r}")
        seen.add(n)


# ---------------------------------------------------------------------------
# structural accessors


def place_vars(P: PlaceDesc) -> tuple[str, ...]:
    if isinstance(P, TrivialPlace):
        return P.vars
    if isinstance(P, (EvalPlace, SeriesEmbedPlace)):
        return tuple(v for v, _ in P.assignments)
    if isinstance(P, MonomialPlace):
        return tuple(v for v, _ in P.values) + tuple(v for v, _ in P.residues)
    return place_vars(P.stages[0])


def residue_vars(P: PlaceDesc) -> tuple[str, ...]:
    """Indeterminates of the residue field description (empty when the
    residue field is the coefficient field)."""
    if isinstance(P, TrivialPlace):
        return P.vars
    if isinstance(P, MonomialPlace):
        return tuple(z for _, z in P.residues)
    if isinstance(P, ComposePlace):
        return residue_vars(P.stages[-1])
    return ()


def base_field(P: PlaceDesc) -> FieldDesc:
    return P.stages[0].field if isinstance(P, ComposePlace) else P.field


def value_group(P: PlaceDesc) -> GroupDesc:
    if isinstance(P, TrivialPlace):
        return ZZ_GROUP
    if isinstance(P, EvalPlace):
        n = len(P.assignments)
        return ZZ_GROUP if n == 1 else LexGroup(n)
    if isinstance(P, (MonomialPlace, SeriesEmbedPlace)):
        return P.group
    return LexGroup(sum(_width(stage) for stage in P.stages))


def _width(stage: PlaceDesc) -> int:
    """Number of lex coordinates a stage contributes to a composite value."""
    group = value_group(stage)
    if group == ZZ_GROUP:
        return 1
    if isinstance(group, LexGroup):
        return group.r
    raise UnsupportedError(f"{group} has non-integer coordinates; it cannot join a composition")


# ---------------------------------------------------------------------------
# polynomial preliminaries


# the highest degree in one variable at a nonzero point: the Taylor coefficients
# up to the k-th take k synthetic divisions of each row, so the work grows as
# the square of the degree (over Q as its cube in bit operations), and a
# degree far beyond any real input fails fast.  At 1280 the order 1280 of
# (x - a)^1280 * (x - a - 1) takes 0.13 s at a = 2, 0.33-0.39 s at -7/3 and
# 0.92-0.97 s at 100/37, and that of (x - a)^1280 over F_9 0.83-0.93 s
_MAX_SHIFT_DEGREE = 1280


def _lowest_taylor_coeff(g: MPoly, var: str, a: FieldElement) -> tuple[int, MPoly]:
    """The least k such that (var - a)^k has a nonzero coefficient in g, with
    that coefficient, a polynomial in the other variables: the k-th Hasse
    derivative of g in var at a.

    The terms of g that share their other exponents form one row, a
    polynomial in var.  Its 0-th Taylor coefficient is its value at a,
    summed term by term with powers of a shared by all rows, so a row of
    few terms costs its terms, not its degree.  When every row vanishes at
    a, the k-th remainder of dividing a row by (var - a) again and again is
    its k-th Taylor coefficient: each division is one Horner pass over the
    dense row, and k is the least at which some row leaves a nonzero
    remainder.  The rows hold the slots of _taylor_rule: plain ints over Q
    and F_p, and coordinate tuples over F_{p^n}."""
    if var not in g.vars:
        return 0, g
    i = g.vars.index(var)
    others = g.vars[:i] + g.vars[i + 1:]
    if a.is_zero():
        # only a^0: no degree budget, and k is the least exponent of var
        k = min(exps[i] for exps, _ in g.terms)
        return k, MPoly(others, tuple(sorted(
            (exps[:i] + exps[i + 1:], c) for exps, c in g.terms if exps[i] == k
        )))
    top = max(exps[i] for exps, _ in g.terms)
    if top > _MAX_SHIFT_DEGREE:
        raise ParamError(
            f"degree {top} in {var} exceeds the Taylor shift budget of {_MAX_SHIFT_DEGREE}"
        )
    slot, value, step, zero, unslot = _taylor_rule(g, a, top)
    by_rest: dict[tuple[int, ...], list] = {}
    for exps, c in g.terms:
        by_rest.setdefault(exps[:i] + exps[i + 1:], []).append((exps[i], c))
    k = 0
    lowest = [(rest, r) for rest, terms in by_rest.items() if (r := value(terms)) != zero]
    if not lowest:
        rows = {}
        for rest, terms in by_rest.items():
            d = max(e for e, _ in terms)
            row = rows[rest] = [zero] * (d + 1)
            for e, c in terms:
                row[d - e] = slot(e, c)
        # a row of degree d has a nonzero d-th remainder, its leading slot,
        # so every row keeps a slot until k is found; the first pass only
        # repeats the zero values, for the quotients
        k = -1
        while not lowest:
            k += 1
            for rest, row in rows.items():
                quotient = list(accumulate(row, step))
                r = quotient.pop()
                rows[rest] = quotient
                if r != zero:
                    lowest.append((rest, r))
    return k, MPoly(others, tuple(sorted((rest, unslot(r, k)) for rest, r in lowest)))


def _taylor_rule(g: MPoly, a: FieldElement, top: int):
    """The slot rule of _lowest_taylor_coeff for the field of a, as
    (slot, value, step, zero, unslot).  slot(e, c) is the slot of the term
    c * var^e; value(terms) is the slot of the value at a of the row of the
    (e, c) terms, from powers of a shared by all rows; step(acc, s) is one
    Horner step, acc * a + s; zero is the zero slot, and unslot(r, k) the
    field element of the k-th remainder r.

    Over F_p a slot is the int of an element, reduced mod p at each step.
    Over Q at a = n/m it is an integer of G(y) = L * m^top * g(y/m), with L
    the least common denominator of the coefficients, and the step
    multiplies by n: the k-th Taylor coefficient of G at n is
    L * m^(top-k) times that of g at a.  Over F_{p^n} a slot is the
    coordinate tuple of an element, and the step multiplies it by the
    matrix of multiplication by a."""
    field = a.field
    powers: dict[int, object] = {}  # the shared weight of each exponent
    if type(field) is RationalField:
        n, m = a.data.numerator, a.data.denominator
        den = lcm(*(c.data.denominator for _, c in g.terms))
        slot = lambda e, c: c.data.numerator * (den // c.data.denominator) * m ** (top - e)

        def value(terms):
            total = 0
            for e, c in terms:
                if (w := powers.get(e)) is None:
                    w = powers[e] = n ** e * m ** (top - e)
                total += c.data.numerator * (den // c.data.denominator) * w
            return total

        step = lambda acc, c: acc * n + c
        zero = 0
        unslot = lambda r, k: FieldElement(field, Fraction(r * m ** k, den * m ** top))
    elif field.n == 1:
        p, b = field.p, a.data[0]
        slot = lambda e, c: c.data[0]

        def value(terms):
            total = 0
            for e, c in terms:
                if (w := powers.get(e)) is None:
                    w = powers[e] = pow(b, e, p)
                total += c.data[0] * w
            return total % p

        step = lambda acc, c: (acc * b + c) % p
        zero = 0
        unslot = lambda r, k: FieldElement(field, (r,))
    else:
        p = field.p
        # column j of the matrix is the coordinate tuple of a * u^j
        units = (FieldElement(field, tuple(int(d == j) for d in range(field.n))) for j in range(field.n))
        matrix = list(zip(*((a * u).data for u in units)))
        slot = lambda e, c: c.data

        def value(terms):
            total = field.zero()
            for e, c in terms:
                if (w := powers.get(e)) is None:
                    w = powers[e] = a ** e
                total = total + c * w
            return total.data

        step = lambda acc, c: tuple([(sum(map(mul, row, acc)) + x) % p for row, x in zip(matrix, c)])
        zero = (0,) * field.n
        unslot = lambda r, k: FieldElement(field, r)
    return slot, value, step, zero, unslot


def _sorted_terms(terms: dict) -> tuple:
    """The terms of a polynomial from a dict of distinct exponent tuples to
    coefficients, as MPoly keeps them: zeros dropped, exponents sorted."""
    return tuple(sorted((e, c) for e, c in terms.items() if not c.is_exact_zero()))


def _const_value(g: MPoly) -> FieldElement | None:
    """The coefficient when g is a nonzero constant polynomial, else None."""
    if len(g.terms) == 1 and not any(g.terms[0][0]):
        return g.terms[0][1]
    return None


# ---------------------------------------------------------------------------
# exact leading data (value + residue representative), per variant


def _lead(P: PlaceDesc, g: MPoly):
    """For nonzero g return (value, leading), where leading represents the
    residue of g divided by its value part: a FieldElement for Eval and
    SeriesEmbed, an MPoly over the residue indeterminates for Trivial and
    Monomial, and whatever the final stage yields for Compose.  The value is
    a GroupElem of value_group(P), except at a SeriesEmbedPlace, where it is
    the ValuationResult of g(series) and leading is None unless it is exact."""
    if not g.terms:
        raise ParamError("the zero polynomial has no value")
    if isinstance(P, TrivialPlace):
        return ZZ_GROUP.zero(), g
    if isinstance(P, EvalPlace):
        return _eval_lead(P, g)
    if isinstance(P, MonomialPlace):
        return _monomial_lead(P, g)
    if isinstance(P, SeriesEmbedPlace):
        return _embed_lead(P, g)
    # each stage but the last has residue indeterminates, so the leading data
    # it passes on is a polynomial; no stage is a composition
    coords, lead = [], g
    for stage in P.stages:
        v, lead = _lead(stage, lead)
        if isinstance(stage, SeriesEmbedPlace):
            if not v.is_exact:
                raise PrecisionError(f"value of an inner stage undecidable: {v}")
            v = v.value
        # _width admitted only integer groups: an int or a tuple of ints
        coords += v.data if type(v.data) is tuple else (v.data,)
    return LexGroup(len(coords)).elem(coords), lead


def _eval_lead(P: EvalPlace, g: MPoly):
    coords = []
    for var, a in P.assignments:
        k, g = _lowest_taylor_coeff(g, var, a)
        coords.append(k)
    vg = value_group(P)
    return (vg.elem(coords[0]) if vg == ZZ_GROUP else vg.elem(tuple(coords))), _const_value(g)


def _monomial_lead(P: MonomialPlace, g: MPoly):
    """The least value of a term of g, one integer combination of the rows
    of the place per term, and the sum of the least terms' images in the
    residue indeterminates.  The common denominator d > 0 keeps the order,
    so the scaled values compare as int tuples where the group orders its
    data natively, and else as elements of the group with int data."""
    rows, denom = P._rows
    zero = [0] * len(rows[P.values[0][0]])
    # weights[j] holds coordinate j of the row of each of g's variables
    cols = [rows.get(name, zero) for name in g.vars]
    weights = [tuple(c[j] for c in cols) for j in range(len(zero))]
    residues = [v for v, _ in P.residues]
    zsrc = [g.vars.index(v) if v in g.vars else None for v in residues]
    uncovered = [i for i, v in enumerate(g.vars) if v not in rows and v not in residues]
    wrap = None if P.group.native_order else P.group
    best = None
    collided: dict[tuple[int, ...], FieldElement] = {}
    for exps, coeff in g.terms:
        for i in uncovered:
            if exps[i]:
                raise ParamError(f"variable {g.vars[i]} is not covered by the place")
        val = tuple([sum(map(mul, exps, w)) for w in weights])
        if wrap:
            val = GroupElem(wrap, val)
        if best is None or val < best:
            best, collided = val, {}
        elif val != best:
            continue
        key = tuple([0 if i is None else exps[i] for i in zsrc])
        acc = collided.get(key)
        collided[key] = coeff if acc is None else acc + coeff
    lead = _sorted_terms(collided)
    if not lead:
        raise HypothesisError(
            "minimal monomials cancel; the independence hypothesis fails"
        )
    value = _from_integer_row(P.group, best.data if wrap else best, denom)
    return value, MPoly(tuple(z for _, z in P.residues), lead)


# ---------------------------------------------------------------------------
# series embedding with adaptive stream refinement


def _degree(g: MPoly, v: str) -> int:
    """The degree of g in v, 0 when g does not contain v: only the streams
    of variables of positive degree are expanded."""
    if v not in g.vars:
        return 0
    i = g.vars.index(v)
    return max(exps[i] for exps, _ in g.terms)


def _substitute(P: SeriesEmbedPlace, g: MPoly, round_: int):
    """(g at the assignments, whether the round left a term out).  Round r
    expands the streams g uses below t^(BASE_PRECISION * 2^r).  Rounds before
    the last also cut there each exact assignment of several terms whose top
    exponent times g's degree in its variable reaches that rung, over a
    subgroup of Q, so that its precision rises with the rung as a stream's
    does; below the rung the cut would drop no term and only lower the
    precision.  At a place with a truncated assignment, whose precision
    stays put, nothing is cut.  One-term assignments stay whole."""
    rung = BASE_PRECISION * (2 ** round_)
    cut = (
        round_ < REFINE_ROUNDS - 1
        and type(P.group) is RationalGroup
        and all(isinstance(s, Stream) or s.precision is None for _, s in P.assignments)
    )
    values, left_out = {}, False
    for v, s in P.assignments:
        if isinstance(s, Stream):
            if _degree(g, v):
                values[v] = stream_expand(s, rung, DEFAULT_STREAM_CAP * (2 ** round_))
                left_out = True
        elif cut and len(s.terms) > 1 and s.terms[-1][0].data * _degree(g, v) >= rung:
            values[v], left_out = truncate(s, rung), True
        else:
            values[v] = s
    return eval_poly_at_series(g, values, P.field, P.group), left_out


def _embed_lead(P: SeriesEmbedPlace, g: MPoly):
    """(v(g(series)), its leading coefficient or None), by the rounds of
    _substitute until the value is exact or infinite, or REFINE_ROUNDS have
    run; a round that left no term out is the whole substitution, and the
    last.  Each cut is honest, so a value decided on the ladder is the true
    one."""
    for r in range(REFINE_ROUNDS):
        s, left_out = _substitute(P, g, r)
        v = valuation(s)
        if v.kind is not ValuationKind.AT_LEAST:
            return v, s.terms[0][1] if s.terms else None
        if not left_out:
            break
    return v, None


# ---------------------------------------------------------------------------
# public evaluation


def _nonzero_ratfn(P: PlaceDesc, f: RatFn | MPoly, zero_message: str) -> RatFn:
    if isinstance(f, MPoly):
        f = RatFn.from_poly(f, base_field(P))
    covered = set(place_vars(P))
    for name in f.num.vars:
        if name not in covered:
            raise ParamError(f"variable {name} is not covered by the place")
    if not f.num.terms:
        raise ParamError(zero_message)
    return f


def place_value(P: PlaceDesc, f: RatFn | MPoly) -> ValuationResult:
    """Value of a nonzero rational function: v(num) - v(den)."""
    f = _nonzero_ratfn(P, f, "the zero function has no value")
    return _value(P, _lead(P, f.num)[0], _lead(P, f.den)[0])


def _value(P: PlaceDesc, v_num, v_den) -> ValuationResult:
    """v_num - v_den from the values _lead gives num and den; only at an
    embedding can num be in the kernel or bounded only from below, and den
    vanish or stay undecided."""
    if not isinstance(P, SeriesEmbedPlace):
        return ValuationResult.exact(v_num - v_den)
    if v_den.kind is ValuationKind.INFINITY:
        raise PoleError("denominator vanishes under the embedding")
    if not v_den.is_exact:
        raise PrecisionError(f"denominator valuation undecidable: {v_den} after refinement")
    if v_num.kind is ValuationKind.INFINITY:
        return v_num
    return ValuationResult(v_num.kind, v_num.value - v_den.value)  # exact or at least


def place_residue(P: PlaceDesc, f: RatFn | MPoly):
    """ZERO for positive value, POLE for negative, and the exact residue at
    value zero: a FieldElement, or a polynomial/rational function in the
    residue indeterminates."""
    return _value_residue(P, _nonzero_ratfn(P, f, "the zero function has no residue data"))[1]


def place_value_residue(P: PlaceDesc, f: RatFn | MPoly):
    """(place_value(P, f), place_residue(P, f)), with the leading data of
    num and den computed once; an error is the one place_value, or else
    place_residue, raises."""
    return _value_residue(P, _nonzero_ratfn(P, f, "the zero function has no value"))


def _value_residue(P: PlaceDesc, f: RatFn):
    v_num, lead_num = _lead(P, f.num)
    v_den, lead_den = _lead(P, f.den)
    v = _value(P, v_num, v_den)
    if v.kind is ValuationKind.INFINITY:
        return v, ZERO
    s = v.value.sign()
    if s <= 0 and not v.is_exact:  # num bounded below by no more than den's value
        raise PrecisionError(
            f"residue undecidable: numerator value only known to be >= {v_num.value}"
        )
    residue = ZERO if s > 0 else POLE if s < 0 else _leading_ratio(lead_num, lead_den)
    return v, residue


def _leading_ratio(lead_num, lead_den):
    if isinstance(lead_num, FieldElement) and isinstance(lead_den, FieldElement):
        return lead_num / lead_den
    cn, cd = _const_value(lead_num), _const_value(lead_den)
    if cn is not None and cd is not None:
        return cn / cd
    if cd is not None:
        return lead_num.scale(cd.inverse())
    return RatFn.make(lead_num, lead_den)


# ---------------------------------------------------------------------------
# composition


def compose(Q: PlaceDesc, Qbar: PlaceDesc) -> PlaceDesc:
    """Place Qbar on the residue field of Q, applied after Q: the stages of
    both concatenated, a place that is not a composition being one stage, so
    compose is associative.  Each call checks every adjacent pair again and
    costs O(stages); build a long chain with one ComposePlace call."""
    stages = [P.stages if isinstance(P, ComposePlace) else (P,) for P in (Q, Qbar)]
    return ComposePlace(stages[0] + stages[1])


# ---------------------------------------------------------------------------
# invariants


@dataclass(frozen=True)
class PlaceInvariants:
    rank: int
    rational_rank: int
    dim: int
    is_abhyankar: bool
    is_maximal_rank: bool
    ambient_trdeg: int
    value_group_fg: bool = True
    residue_fg: bool = True


def _invariants(P: PlaceDesc) -> tuple[int, int, int, bool, bool]:
    """(rank, rational rank, dim, value group f.g., residue field f.g.) of P
    on the rational function field in its variables."""
    if isinstance(P, TrivialPlace):
        return 0, 0, len(P.vars), True, True
    if isinstance(P, EvalPlace):
        n = len(P.assignments)
        return n, n, 0, True, True
    if isinstance(P, MonomialPlace):
        # __post_init__ checked the values rationally independent; in lex
        # their echelon basis has n distinct pivots, so n convex subgroups,
        # and a group other than lex is archimedean
        n = len(P.values)
        return n if isinstance(P.group, LexGroup) else 1, n, len(P.residues), True, True
    if isinstance(P, SeriesEmbedPlace):
        # the residue field lies in the coefficient field, algebraic over the base
        gi = group_invariants(P.group)
        metas = [s.meta for _, s in P.assignments if isinstance(s, Stream)]
        return (
            gi.rank,
            gi.rational_rank,
            0,
            all(m.value_group_fg for m in metas),
            all(m.residue_fg for m in metas),
        )
    ranks, rrs, dims, vfgs, rfgs = zip(*map(_invariants, P.stages))
    return sum(ranks), sum(rrs), dims[-1], all(vfgs), all(rfgs)


def place_invariants(P: PlaceDesc) -> PlaceInvariants:
    """The invariants of P on the rational function field in place_vars(P),
    checked against Abhyankar's inequality rr + dim <= trdeg."""
    ambient_trdeg = len(place_vars(P))
    rank, rr, dim, vfg, rfg = _invariants(P)
    if ambient_trdeg < dim + rr:
        raise HypothesisError(
            f"declared data violates trdeg >= dim + rational rank: "
            f"{ambient_trdeg} < {dim} + {rr}"
        )
    return PlaceInvariants(
        rank=rank,
        rational_rank=rr,
        dim=dim,
        is_abhyankar=(ambient_trdeg == dim + rr),
        is_maximal_rank=(rank == ambient_trdeg),
        ambient_trdeg=ambient_trdeg,
        value_group_fg=vfg,
        residue_fg=rfg,
    )


# ---------------------------------------------------------------------------
# smooth-center witness


@dataclass(frozen=True)
class UniformizationWitness:
    """Transcendence part (variable names), algebraic generators (variable
    names with known images under the place), and one polynomial per
    generator, written over trans_vars + gen_vars."""

    trans_vars: tuple[str, ...]
    gen_vars: tuple[str, ...]
    polys: tuple[MPoly, ...]

    def __post_init__(self):
        if len(self.polys) != len(self.gen_vars):
            raise ParamError("need exactly one polynomial per generator")
        _check_distinct(self.trans_vars + self.gen_vars)


def _residue_as_field_elem(P: PlaceDesc, g: MPoly, field: FieldDesc) -> FieldElement:
    r = place_residue(P, g)
    if r is ZERO:
        return field.zero()
    if r is POLE:
        raise HypothesisError("witness element has a pole at the place")
    if not isinstance(r, FieldElement):
        raise UnsupportedError("witness residues must land in the coefficient field")
    return r


def verify_uniformization_witness(w: UniformizationWitness, P: PlaceDesc) -> dict:
    """Check triangularity, vanishing at the generators, and nonvanishing of
    the Jacobian residue; smooth_center is their conjunction."""
    field = base_field(P)
    all_vars = place_vars(P)
    for name in w.trans_vars + w.gen_vars:
        if name not in all_vars:
            raise ParamError(f"witness element {name} is not a place variable")
        v = place_value(P, var_poly(all_vars, name, field))
        if v.kind is ValuationKind.EXACT and v.value.sign() < 0:
            raise HypothesisError(f"witness element {name} has negative value")

    n = len(w.gen_vars)
    u1 = True
    for i in range(n):
        fi = w.polys[i]
        for j in range(i + 1, n):
            later = w.gen_vars[j]
            if later in fi.vars:
                idx = fi.vars.index(later)
                if any(exps[idx] for exps, _ in fi.terms):
                    u1 = False

    u2 = True
    for fi in w.polys:
        if not fi.terms:
            continue
        v = place_value(P, fi)
        if v.kind is ValuationKind.EXACT:
            u2 = False

    if n == 0:
        u3 = True
    else:
        entries = [
            [w.polys[i].partial(w.gen_vars[j]) for j in range(n)] for i in range(n)
        ]
        residues = []
        for row in entries:
            residues.append(
                [
                    field.zero() if not e.terms else _residue_as_field_elem(P, e, field)
                    for e in row
                ]
            )
        u3 = not det(residues, field.zero(), field.one()).is_zero()

    return {"U1": u1, "U2": u2, "U3": u3, "smooth_center": u1 and u2 and u3}


# ---------------------------------------------------------------------------
# JSON descriptors


def _field_to_json(f: FieldDesc):
    if isinstance(f, RationalField):
        return {"kind": "Q"}
    return {"kind": "GF", "p": f.p, "n": f.n}


def _field_from_json(blob) -> FieldDesc:
    kind = _get(blob, "kind", str, "field")
    if kind == "Q":
        return QQ
    if kind == "GF":
        return GF(_get(blob, "p", int, "field"), _get(blob, "n", int, "field", 1))
    raise ParamError(f"unknown field kind {kind!r}")


def _group_to_json(g: GroupDesc):
    if isinstance(g, RationalGroup):
        if g.law == "all":
            return {"kind": "Q"}
        if g.law == "one_over_m":
            return {"kind": "one_over_m", "m": g.m}
        return {"kind": "p_power", "p": g.p}
    if isinstance(g, LexGroup):
        return {"kind": "lex", "r": g.r}
    return {"kind": "quad"}


def _group_from_json(blob) -> GroupDesc:
    kind = _get(blob, "kind", str, "group")
    if kind == "Q":
        return QQ_GROUP
    if kind == "one_over_m":
        return one_over_m(_get(blob, "m", int, "group"))
    if kind == "p_power":
        return p_power_hull(_get(blob, "p", int, "group"))
    if kind == "lex":
        return LexGroup(_get(blob, "r", int, "group"))
    if kind == "quad":
        return QuadGroup()
    raise ParamError(f"unknown group kind {kind!r}")


def _coeff_to_json(c: FieldElement):
    if isinstance(c.field, RationalField):
        return str(c.data)
    return list(c.data)


def _coeff_from_json(field: FieldDesc, blob) -> FieldElement:
    if isinstance(blob, str):
        try:
            return expr_to_ratfn(blob, (), field).subst({}, field)
        except (ExprError, ZeroDivisionError):
            raise ParamError(f"malformed coefficient {blob!r}") from None
    if isinstance(blob, int) and not isinstance(blob, bool):
        return field.elem(blob)
    if (
        isinstance(blob, list)
        and not isinstance(field, RationalField)
        and all(isinstance(x, int) and not isinstance(x, bool) for x in blob)
    ):
        return field.elem(blob)
    raise ParamError(f"coefficient over {field} must be a string, an integer or a digit list")


def _assignment_to_json(s: Series | Stream):
    if isinstance(s, Stream):
        return {"stream": s.name, "params": {k: v for k, v in s.params}}
    return {
        "terms": [[str(e), _coeff_to_json(c)] for e, c in s.terms],
        "precision": None if s.precision is None else str(s.precision),
    }


def _assignment_from_json(field: FieldDesc, group: GroupDesc, blob):
    if isinstance(blob, dict) and "stream" in blob:
        return stream_from_params(blob["stream"], blob.get("params", {}))
    terms = [
        (_elem_from_json(group, e, "series term"), _coeff_from_json(field, c))
        for e, c in _pairs(blob, "terms", "series assignment")
    ]
    prec = blob.get("precision")
    prec_elem = None if prec is None else _elem_from_json(group, prec, "series precision")
    return make_series(field, group, terms, prec_elem)


_MISSING = object()
_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _get(blob, key, kind, where, default=_MISSING):
    """blob[key], checked to be JSON of the given kind (dict, list, str or
    int).  A blob that is not an object, a missing key without a default, or
    a value of another kind raises ParamError naming where it occurred."""
    if not isinstance(blob, dict):
        raise ParamError(f"{where} must be a JSON object")
    if key not in blob:
        if default is _MISSING:
            raise ParamError(f"{where} is missing key {key!r}")
        return default
    value = blob[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParamError(f"{where}: {key!r} must be {_JSON_KINDS[kind]}")
    return value


def _pairs(blob, key, where, default=_MISSING) -> list:
    """blob[key] as a list of [name, value] pairs with string names."""
    pairs = _get(blob, key, list, where, default)
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)):
            raise ParamError(f"{where}: {key!r} must be a list of [name, value] pairs")
    return pairs


def _elem_from_json(group: GroupDesc, text, where) -> GroupElem:
    if not isinstance(text, str):
        raise ParamError(f"{where}: group element must be a string, got {text!r}")
    return parse_elem(group, text)


# The most stages a place file may compose.  Tier-1, the goldens and the demos
# reach 3.  Building and evaluating a composition loop over its stages, but the
# file form nests one level per stage, and the JSON decoder and encoder recurse
# per level; the budget keeps every file far below their depth limits, and
# place_to_json writes no file that place_from_json refuses.
_MAX_COMPOSE_STAGES = 16
_TOO_MANY_STAGES = f"place composes more than {_MAX_COMPOSE_STAGES} stages, the budget"


def place_to_json(P: PlaceDesc) -> dict:
    if isinstance(P, TrivialPlace):
        return {"variant": "trivial", "field": _field_to_json(P.field), "vars": list(P.vars)}
    if isinstance(P, EvalPlace):
        return {
            "variant": "eval",
            "field": _field_to_json(P.field),
            "assignments": [[v, _coeff_to_json(a)] for v, a in P.assignments],
        }
    if isinstance(P, MonomialPlace):
        return {
            "variant": "monomial",
            "field": _field_to_json(P.field),
            "group": _group_to_json(P.group),
            "values": [[v, str(g)] for v, g in P.values],
            "residues": [[v, z] for v, z in P.residues],
        }
    if isinstance(P, SeriesEmbedPlace):
        return {
            "variant": "series_embed",
            "field": _field_to_json(P.field),
            "group": _group_to_json(P.group),
            "assignments": [[v, _assignment_to_json(s)] for v, s in P.assignments],
        }
    if len(P.stages) > _MAX_COMPOSE_STAGES:
        raise ParamError(_TOO_MANY_STAGES)
    # nested to the right, folded from the last stage
    blob = place_to_json(P.stages[-1])
    for stage in reversed(P.stages[:-1]):
        blob = {"variant": "compose", "first": place_to_json(stage), "second": blob}
    return blob


def place_from_json(blob) -> PlaceDesc:
    """Inverse of place_to_json.  The blob usually comes from a file: one that
    is not an object, lacks a key or holds a value of the wrong type raises
    ParamError."""
    variant = _get(blob, "variant", str, "place")
    if variant == "trivial":
        names = _get(blob, "vars", list, "place")
        if not all(isinstance(v, str) for v in names):
            raise ParamError("place: 'vars' must be a list of strings")
        return TrivialPlace(tuple(names), _field_from_json(_get(blob, "field", dict, "place")))
    if variant == "eval":
        field = _field_from_json(_get(blob, "field", dict, "place"))
        points = _pairs(blob, "assignments", "place")
        return EvalPlace(field, tuple((v, _coeff_from_json(field, a)) for v, a in points))
    if variant == "monomial":
        field = _field_from_json(_get(blob, "field", dict, "place"))
        group = _group_from_json(_get(blob, "group", dict, "place"))
        values = _pairs(blob, "values", "place")
        residues = _pairs(blob, "residues", "place", [])
        if not all(isinstance(z, str) for _, z in residues):
            raise ParamError("place: residue indeterminates must be strings")
        return MonomialPlace(
            field,
            group,
            tuple((v, _elem_from_json(group, g, "place value")) for v, g in values),
            tuple((v, z) for v, z in residues),
        )
    if variant == "series_embed":
        field = _field_from_json(_get(blob, "field", dict, "place"))
        group = _group_from_json(_get(blob, "group", dict, "place"))
        return SeriesEmbedPlace(
            field,
            group,
            tuple(
                (v, _assignment_from_json(field, group, s))
                for v, s in _pairs(blob, "assignments", "place")
            ),
        )
    if variant == "compose":
        # the stages in order, whatever the nesting, read with a stack and
        # stopping past the budget
        stages, todo = [], [blob]
        while todo:
            if len(stages) + len(todo) > _MAX_COMPOSE_STAGES:
                raise ParamError(_TOO_MANY_STAGES)
            b = todo.pop()
            if _get(b, "variant", str, "place") == "compose":
                todo += [_get(b, "second", dict, "place"), _get(b, "first", dict, "place")]
            else:
                stages.append(place_from_json(b))
        return ComposePlace(tuple(stages))
    raise ParamError(f"unknown place variant {variant!r}")
