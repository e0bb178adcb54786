"""Places of rational function fields K(x1,...,xn) given by finite data.

A place is described declaratively and evaluated exactly:

* ``TrivialPlace``   -- value 0 on every nonzero function, residue the
  function itself.
* ``EvalPlace``      -- evaluation at a point; the value is the vector of
  vanishing orders along the listed coordinates (first listed dominates).
  Each order is the least k with a nonzero Taylor coefficient at (x - a)^k (a
  Hasse derivative), found in one pass over the terms held as integer slots
  (coordinate tuples over F_{p^n}), one variable after the other: for each
  row of terms sharing their other exponents, its value at a, summed term
  by term, and where every row vanishes the sum of c * C(e, k) * a^(e-k)
  over a row's terms, or synthetic division for a row of nearly as many
  terms as its degree.  Degrees above 1280 at a nonzero point raise
  ParamError.  Each evaluation forms its own powers of the point: over Q
  n^1280 at a = 100/37 alone is 1 KiB and all of them near 0.7 MB, and
  over F_p a table kept on the place showed no gain on the benchmark.
* ``MonomialPlace``  -- prescribed positive, rationally independent values
  on some variables and fresh residue indeterminates for the others; the
  value of a polynomial is the least weighted exponent sum over its
  monomials, and the residue is the sum of the minimal monomials' images.
  The place keeps one layout per variable tuple it has evaluated (weight
  rows, residue indices), so a call costs g's terms, not the set-up.  The
  functions it admits are in its own variables, so each tuple is an
  ordering of a subset of them: a place of n variables could keep up to
  about e*n! layouts, each O(n * rank) ints, but keeps one per variable
  order its callers use, and nothing evicts them.
* ``SeriesEmbedPlace`` -- substitute explicit series or catalog streams for
  the variables and read value and residue off the resulting series.  Each
  polynomial, numerator, denominator or that of an inner stage, expands the
  streams of the variables it contains round by round until its own value
  is decided, and, at a place with no truncated assignment, cuts its exact
  assignments of several terms on the same ladder while the rung is at most
  their top exponent times the polynomial's degree in their variable.  A
  monomial embedding, every assignment one term, has nothing to expand or
  cut and keeps each power x^e it has formed, itself one term, for every
  later evaluation: one term per (variable, exponent) pair used, kept as
  long as the place lives, with no limit.  The term for c t^q holds c^e,
  so a high power keeps a large coefficient: x -> (2/5) t evaluated on
  x^5000 keeps 2^5000/5^5000, about 4 KB, on the place.
* ``ComposePlace``   -- a flat tuple of stages, each a place on the residue
  field of the stage before it; values are lexicographic tuples with earlier
  stages dominant.

Composite values are flattened to integer lex tuples, so every stage of a
composition must have an integer-coordinate value group, and all its stages
lie over one field.  ``compose`` concatenates stages, so it is associative.

At every place but an embedding a value stays an integer row until the
answer: the coordinates times a denominator d that the place fixes when it
is built, with its value group.  Values of numerator and denominator are
subtracted as rows and the residue's case is read off the row's sign, so
``place_value`` builds one group element per answer and ``place_residue``
none.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
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
from .fields import GF, QQ, FieldDesc, FieldElement, RationalField, _poly_divmod, _poly_powmod
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
    _quad_sign,
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


# Every place but an embedding keeps, as _frame, (its value group, d): _lead
# gives a value as a row of ints, the coordinates of the value times d.
# Every place keeps, as _vars, the frozenset of its variables.


@dataclass(frozen=True)
class TrivialPlace:
    vars: tuple[str, ...]
    field: FieldDesc
    _vars: frozenset = dataclasses.field(init=False, repr=False, compare=False)
    _frame = (ZZ_GROUP, 1)

    def __post_init__(self):
        _check_distinct(self.vars)
        object.__setattr__(self, "_vars", frozenset(self.vars))


@dataclass(frozen=True)
class EvalPlace:
    field: FieldDesc
    assignments: tuple[tuple[str, FieldElement], ...]
    _vars: frozenset = dataclasses.field(init=False, repr=False, compare=False)
    _frame: tuple = dataclasses.field(init=False, repr=False, compare=False)
    # per coordinate (var, b, p, m), what _eval_lead reads of the point: b
    # None at 0, else over Q the numerator with p = 0 and m the denominator,
    # over F_p the int and p, over F_{p^n} the element and p, with m = 1
    _points: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.assignments:
            raise ParamError("an evaluation place needs at least one assigned variable")
        _check_distinct([v for v, _ in self.assignments])
        for v, a in self.assignments:
            if a.field != self.field:
                raise FieldMismatchError(f"point coordinate {v} lies in {a.field}")
        n = len(self.assignments)
        object.__setattr__(self, "_vars", frozenset(v for v, _ in self.assignments))
        object.__setattr__(self, "_frame", (ZZ_GROUP if n == 1 else LexGroup(n), 1))
        field, points = self.field, []
        for v, a in self.assignments:
            if a.is_zero():
                points.append((v, None, 0, 1))
            elif type(field) is RationalField:
                points.append((v, a.data.numerator, 0, a.data.denominator))
            elif field.n == 1:
                points.append((v, a.data[0], field.p, 1))
            else:
                points.append((v, a, field.p, 1))
        object.__setattr__(self, "_points", tuple(points))


@dataclass(frozen=True)
class MonomialPlace:
    field: FieldDesc
    group: GroupDesc
    values: tuple[tuple[str, GroupElem], ...]
    residues: tuple[tuple[str, str], ...] = ()
    _vars: frozenset = dataclasses.field(init=False, repr=False, compare=False)
    _frame: tuple = dataclasses.field(init=False, repr=False, compare=False)
    # {variable: its value's coordinate row}: integers over the one common
    # denominator d of _frame, as _integer_rows gives them
    _rows: dict = dataclasses.field(init=False, repr=False, compare=False)
    # {a polynomial's variable tuple: its layout}, filled by _monomial_layout
    _layouts: dict = dataclasses.field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_vars", frozenset(names))
        object.__setattr__(self, "_frame", (self.group, denom))
        object.__setattr__(self, "_rows", {v: r for (v, _), r in zip(self.values, rows)})
        object.__setattr__(self, "_layouts", {})


@dataclass(frozen=True)
class SeriesEmbedPlace:
    field: FieldDesc
    group: GroupDesc
    assignments: tuple[tuple[str, Series | Stream], ...]
    _vars: frozenset = dataclasses.field(init=False, repr=False, compare=False)
    # {(variable, exponent): the power of its assignment} when every
    # assignment is a one-term Series, filled by eval_poly_at_series and
    # never emptied; else None
    _powers: dict | None = dataclasses.field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_vars", frozenset(v for v, _ in self.assignments))
        monomial = all(isinstance(s, Series) and len(s.terms) == 1 for _, s in self.assignments)
        object.__setattr__(self, "_powers", {} if monomial else None)


@dataclass(frozen=True)
class ComposePlace:
    """Two or more places applied in turn, none itself a composition: each
    stage but the last must have residue indeterminates, the next stage must
    act on exactly those and lie over the same field, and every stage must
    have an integer-coordinate value group."""

    stages: tuple["PlaceDesc", ...]
    _vars: frozenset = dataclasses.field(init=False, repr=False, compare=False)
    _frame: tuple = dataclasses.field(init=False, repr=False, compare=False)

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
        # _width rejects stages whose values do not flatten to integers; the
        # groups it admits have int data, so every stage's d is 1
        width = sum(_width(stage) for stage in self.stages)
        object.__setattr__(self, "_vars", self.stages[0]._vars)
        object.__setattr__(self, "_frame", (LexGroup(width), 1))


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
    return P.group if isinstance(P, SeriesEmbedPlace) else P._frame[0]


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


# the highest degree in one variable at a nonzero point: a dense row reaches
# its k-th Taylor coefficient after k + 1 synthetic divisions, so the work
# grows as the square of the degree (over Q as its cube in bit operations),
# and a degree far beyond any real input fails fast.  At 1280 the order 1279
# of (x - a)^1279 * (x - a - 1) takes 0.10-0.22 s at a = 2, 0.30-0.58 s at
# -7/3 and 0.87-1.52 s at 100/37, and the order 1280 of (x - a)^1280 over
# F_9 0.81-1.73 s (in process, the fastest and slowest of 3 runs in each
# of four processes, on a shared 2-core machine)
_MAX_SHIFT_DEGREE = 1280

# A row of s terms and degree D takes its k-th Taylor coefficient, k >= 1,
# as the sparse sum of slot * C(e, k) * a^(e-k) over its terms while
# s * (k + 1) < _SPARSE_TAYLOR_REACH * D, and else by synthetic division,
# one Horner pass over its D + 1 dense slots per order.  A term of the sum
# costs 2.5 to 4 Horner steps at k = 1, more as k and C(e, k) grow, and a
# dense row pays its calls at every order.  Timed in process on rows
# (x - a)^K * h, h of 1 to 16 random terms, over F_7, F_1000003 and Q at 2
# and -7/3: of degree 40 to 650 the routes break even near s * (k + 1) =
# 1.5 * D to 2 * D, and of degree at most 16 the sums win up to 2 * D to
# 4 * D.  With 2, 180 rows of the first kind took within 3 % of their time
# with 1 (on two seeds), and the vanishing eval7 polynomials of the
# places-eval benchmark 6-9 % less.  A dense row, s = D + 1, such as (x - 2)^1200 *
# (x + 1), divides from k = 1 on.
_SPARSE_TAYLOR_REACH = 2


def _taylor_coeffs(rows: dict, b, p: int):
    """(k, [(rest, coefficient)]) for the rows {rest: [(e, slot)]} of one
    variable at a nonzero point: the least k at which some row has a
    nonzero k-th Taylor coefficient (a Hasse derivative), and the slots of
    those rows' k-th coefficients.  Over F_p b is the point's int and p the
    prime; over Q b is the point's numerator and p is 0, no reduction;
    over F_{p^n} b is the point, a FieldElement, and the slots are
    coordinate tuples.

    Order 0, the value at the point, is the sparse sum for every row, from
    powers shared by all rows, so a row of few terms costs its terms, not
    its degree.  Only when every row vanishes does the search go on, each
    row by the route _SPARSE_TAYLOR_REACH picks at each order.  A row of
    degree D has a nonzero D-th coefficient, its leading slot, so the
    search ends by the least degree of a row."""
    powers: dict = {}
    lowest = _sparse_coeffs(rows.items(), 0, b, p, powers)
    if lowest:
        return 0, lowest
    zero = 0 if type(b) is int else (0,) * b.field.n
    step = b if type(b) is int else _times_matrix(b)
    dense: dict[tuple[int, ...], list] = {}
    k = 0
    while not lowest:
        k += 1
        sparse = []
        for rest, row in list(rows.items()):
            degree = max([e for e, _ in row])
            if len(row) * (k + 1) < _SPARSE_TAYLOR_REACH * degree:
                sparse.append((rest, row))
            else:
                dense[rest] = _dense_quotient(rows.pop(rest), degree, k, step, p, zero)
        lowest = _sparse_coeffs(sparse, k, b, p, powers)
        for rest, quotient in dense.items():
            dense[rest], r = _divide(quotient, step, p)
            if r != zero:
                lowest.append((rest, r))
    return k, lowest


def _sparse_coeffs(rows, k: int, b, p: int, powers: dict) -> list:
    """The (rest, coefficient) pairs of the (rest, row) pairs whose k-th
    Taylor coefficient at b is nonzero: the sum of slot * C(e, k) * b^(e-k)
    over the row's (e, slot) terms, reduced mod p when p, with the powers
    of b kept in powers."""
    out = []
    if type(b) is int:
        for rest, row in rows:
            total = 0
            for e, s in row:
                if e >= k:
                    if (w := powers.get(e - k)) is None:
                        w = powers[e - k] = pow(b, e - k, p) if p else b ** (e - k)
                    total += s * w * comb(e, k) if k else s * w
            if p:
                total %= p
            if total:
                out.append((rest, total))
        return out
    # over F_{p^n} the products of coordinate tuples add up unreduced, as
    # polynomials in the generator, and each row is reduced once
    n, modulus = b.field.n, b.field.modulus
    for rest, row in rows:
        total = [0] * (2 * n - 1)
        for e, s in row:
            if e >= k and (c := comb(e, k) % p):
                if (w := powers.get(e - k)) is None:
                    w = powers[e - k] = _poly_powmod(b.data, e - k, modulus, p) if e > k else (1,)
                for i, x in enumerate(s):
                    if x:
                        for j, y in enumerate(w):
                            total[i + j] += c * x * y
        r = _poly_divmod([t % p for t in total], modulus, p)[1]
        if r:
            out.append((rest, r + (0,) * (n - len(r))))
    return out


def _times_matrix(b: FieldElement) -> list:
    """The rows of the matrix of multiplication by b on coordinate tuples:
    column j is the coordinate tuple of b * x^j, x the generator."""
    n, modulus, p = b.field.n, b.field.modulus, b.field.p
    columns = [_poly_divmod((0,) * j + b.data, modulus, p)[1] for j in range(n)]
    return list(zip(*[c + (0,) * (n - len(c)) for c in columns]))


def _dense_quotient(row: list, degree: int, k: int, step, p: int, zero) -> list:
    """The dense slots of the row of (e, slot) terms, highest first, divided
    k times by (var - point): the row's coefficients of the orders below k
    are zero, so each remainder is."""
    quotient = [zero] * (degree + 1)
    for e, s in row:
        quotient[degree - e] = s
    for _ in range(k):
        quotient = _divide(quotient, step, p)[0]
    return quotient


def _divide(row: list, step, p: int):
    """(quotient, remainder) of the dense row, highest slot first, divided
    by (var - point) in one Horner pass: step is the point's int, reduced
    mod p when p, or over F_{p^n} the rows of its multiplication matrix."""
    quotient = []
    append = quotient.append
    if type(step) is not int:
        acc = (0,) * len(step)
        for c in row:
            acc = tuple([(sum(map(mul, r, acc)) + x) % p for r, x in zip(step, c)])
            append(acc)
    elif p:
        acc = 0
        for c in row:
            acc = (acc * step + c) % p
            append(acc)
    else:
        acc = 0
        for c in row:
            acc = acc * step + c
            append(acc)
    return quotient, quotient.pop()


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
    Monomial, and whatever the final stage yields for Compose.

    The value stays an integer row until the answer: a tuple of ints, the
    coordinates of the value in P._frame's group times its denominator d --
    the least term's row at a monomial place, the orders of vanishing at an
    evaluation place, (0,) at a trivial place and the stage rows
    concatenated at a composition.  Only _answer builds the element, once
    per answer.  At a SeriesEmbedPlace the value is the ValuationResult of
    g(series), and leading is None unless it is exact."""
    if not g.terms:
        raise ParamError("the zero polynomial has no value")
    if isinstance(P, TrivialPlace):
        return (0,), g
    if isinstance(P, EvalPlace):
        return _eval_lead(P, g)
    if isinstance(P, MonomialPlace):
        return _monomial_lead(P, g)
    if isinstance(P, SeriesEmbedPlace):
        return _embed_lead(P, g)
    # each stage but the last has residue indeterminates, so the leading data
    # it passes on is a polynomial; no stage is a composition.  Each stage's
    # d is 1, so its row is its coordinates, an embedding's the data of an
    # int or lex element
    row, lead = (), g
    for stage in P.stages:
        v, lead = _lead(stage, lead)
        if isinstance(stage, SeriesEmbedPlace):
            if not v.is_exact:
                raise PrecisionError(f"value of an inner stage undecidable: {v}")
            v = v.value.data if type(v.value.data) is tuple else (v.value.data,)
        row += v
    return row, lead


def _eval_lead(P: EvalPlace, g: MPoly):
    """The orders of vanishing of g along P's coordinates, as an int row,
    and the lowest Taylor coefficient, a FieldElement.

    One pass over g's terms held as slots: ints mod p over F_p, ints over Q
    over one common denominator den carried to the end, and coordinate
    tuples over F_{p^n}.  For each coordinate the (exponents, slot) pairs
    are grouped into rows by their other exponents.  At 0 the order is the
    least exponent of the variable; elsewhere _taylor_coeffs finds it, and
    the (rest, coefficient) pairs of the rows that reach it go straight on
    to the next variable.  No polynomial is built between the variables,
    and only the answer builds a field element.

    Over Q at a = n/m the rows hold G(y) = m^top * g(y/m), top the degree
    of g in the variable: the slot of c * x^e is c * m^(top-e), and the
    k-th Taylor coefficient of G at n is m^(top-k) times that of g at a,
    a factor den takes on.  Each call forms its own powers of the point:
    the place keeps none."""
    field = P.field
    names, den = g.vars, 1
    if type(field) is RationalField:
        den = lcm(*[c.data.denominator for _, c in g.terms])
        terms = [(exps, c.data.numerator * (den // c.data.denominator)) for exps, c in g.terms]
    elif field.n == 1:
        terms = [(exps, c.data[0]) for exps, c in g.terms]
    else:
        terms = [(exps, c.data) for exps, c in g.terms]
    coords = []
    for var, b, p, m in P._points:
        if var not in names:
            coords.append(0)
            continue
        i = names.index(var)
        names = names[:i] + names[i + 1:]
        if b is None:
            # only a^0: no degree budget, and k is the least exponent of var
            k = min([exps[i] for exps, _ in terms])
            terms = [(exps[:i] + exps[i + 1:], s) for exps, s in terms if exps[i] == k]
            coords.append(k)
            continue
        top = max([exps[i] for exps, _ in terms])
        if top > _MAX_SHIFT_DEGREE:
            raise ParamError(
                f"degree {top} in {var} exceeds the Taylor shift budget of {_MAX_SHIFT_DEGREE}"
            )
        rows: dict[tuple[int, ...], list] = {}
        scale: dict[int, int] = {}
        for exps, s in terms:
            e = exps[i]
            if m != 1:
                if (w := scale.get(e)) is None:
                    w = scale[e] = m ** (top - e)
                s *= w
            rows.setdefault(exps[:i] + exps[i + 1:], []).append((e, s))
        k, terms = _taylor_coeffs(rows, b, p)
        if m != 1:
            den *= m ** (top - k)
        coords.append(k)
    # _nonzero_ratfn refuses a variable P does not cover, and a composition
    # stage acts on exactly the residue names of the stage before it, so
    # every variable is gone and one constant term is left
    s = terms[0][1]
    if type(field) is RationalField:
        return tuple(coords), FieldElement(field, Fraction(s, den))
    return tuple(coords), field._residue(s) if field.n == 1 else FieldElement(field, s)


def _monomial_layout(P: MonomialPlace, vars: tuple[str, ...]):
    """What _monomial_lead reads of P for a polynomial in vars, built once
    per variable tuple and kept in P._layouts: (weights, zsrc, uncovered,
    wrap, names).  weights[j] holds coordinate j of the row of each
    variable, zsrc the index in vars of each residue variable (None when
    absent), uncovered the indices of the variables P does not cover, wrap
    the group when its data do not order natively, and names the residue
    indeterminates.  The functions a place admits, and the leading data a
    composition stage passes on, are in the place's own variables, so the
    keys are orderings of subsets of them, one per order a caller uses."""
    layout = P._layouts.get(vars)
    if layout is None:
        rows = P._rows
        zero = [0] * len(rows[P.values[0][0]])
        cols = [rows.get(name, zero) for name in vars]
        residues = [v for v, _ in P.residues]
        layout = P._layouts[vars] = (
            [tuple(c[j] for c in cols) for j in range(len(zero))],
            [vars.index(v) if v in vars else None for v in residues],
            [i for i, v in enumerate(vars) if v not in rows and v not in residues],
            None if P.group.native_order else P.group,
            tuple(z for _, z in P.residues),
        )
    return layout


def _monomial_lead(P: MonomialPlace, g: MPoly):
    """The least value of a term of g, one integer combination of the rows
    of the place per term, as that row, and the sum of the least terms'
    images in the residue indeterminates.  The common denominator d > 0
    keeps the order, so the scaled values compare as int tuples where the
    group orders its data natively, and else as elements of the group with
    int data."""
    weights, zsrc, uncovered, wrap, names = _monomial_layout(P, g.vars)
    best, lead = None, []
    for exps, coeff in g.terms:
        for i in uncovered:
            if exps[i]:
                raise ParamError(f"variable {g.vars[i]} is not covered by the place")
        val = tuple([sum(map(mul, exps, w)) for w in weights])
        if wrap:
            val = GroupElem(wrap, val)
        if best is None or val < best:
            best, lead = val, []
        elif val != best:
            continue
        # the values are independent, so two terms of one value differ in
        # their residue exponents: each image is one term of g, and none cancel
        lead.append((tuple([0 if i is None else exps[i] for i in zsrc]), coeff))
    return best.data if wrap else best, MPoly(names, tuple(sorted(lead)))


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
    stays put, nothing is cut.  One-term assignments stay whole; at a
    monomial embedding P._powers carries their powers from call to call."""
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
    return eval_poly_at_series(g, values, P.field, P.group, P._powers), left_out


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
    for name in f.num.vars:
        if name not in P._vars:
            raise ParamError(f"variable {name} is not covered by the place")
    if not f.num.terms:
        raise ParamError(zero_message)
    return f


def place_value(P: PlaceDesc, f: RatFn | MPoly) -> ValuationResult:
    """Value of a nonzero rational function: v(num) - v(den)."""
    f = _nonzero_ratfn(P, f, "the zero function has no value")
    return _answer(P, _value(P, _lead(P, f.num)[0], _lead(P, f.den)[0]))


def _value(P: PlaceDesc, v_num, v_den):
    """v_num - v_den from the values _lead gives num and den: a row, or at
    an embedding a ValuationResult.  Only at an embedding can num be in the
    kernel or bounded only from below, and den vanish or stay undecided."""
    if not isinstance(P, SeriesEmbedPlace):
        return tuple([a - b for a, b in zip(v_num, v_den)])
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
    v, residue = _value_residue(P, _nonzero_ratfn(P, f, "the zero function has no value"))
    return _answer(P, v), residue


def _answer(P: PlaceDesc, v) -> ValuationResult:
    """The ValuationResult of a value _value gives: at an embedding v
    itself, and else the one element built per answer, the row over d."""
    if isinstance(P, SeriesEmbedPlace):
        return v
    group, d = P._frame
    return ValuationResult.exact(_from_integer_row(group, v, d))


def _value_residue(P: PlaceDesc, f: RatFn):
    """(the value as _value gives it, the residue).  The denominator d > 0
    keeps the sign of a row: that of its first nonzero entry, or of
    a + b*sqrt2 for Q + Q*sqrt2."""
    v_num, lead_num = _lead(P, f.num)
    v_den, lead_den = _lead(P, f.den)
    v = _value(P, v_num, v_den)
    if isinstance(P, SeriesEmbedPlace):
        if v.kind is ValuationKind.INFINITY:
            return v, ZERO
        s = v.value.sign()
        if s <= 0 and not v.is_exact:  # num bounded below by no more than den's value
            raise PrecisionError(
                f"residue undecidable: numerator value only known to be >= {v_num.value}"
            )
    elif type(P._frame[0]) is QuadGroup:
        s = _quad_sign(*v)
    else:
        s = next((x for x in v if x), 0)
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
