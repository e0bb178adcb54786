"""Root analysis for X^p - X - c over series fields of characteristic p.

The constant c decides everything through its valuation:

* v(c) > 0: the polynomial splits; all p roots lift from the constants.
* v(c) = 0: a root exists in the base iff the residue of c has absolute
  trace 0; the trace is returned as the witness otherwise.
* v(c) < 0 and v(c) not divisible by p inside the value group: any root has
  value v(c)/p, which forces ramification.
* v(c) < 0 and v(c) = p*g inside the group: surgery rewrites c by
  c - (b^p - b) with b = (lead coeff)^(1/p) * t^g, removing the leading term
  at the cost of one of value g.  Over (1/m)Z the iteration always reaches
  one of the shapes above; over (1/p^oo)Z and Q it can go on forever, and a
  fixed step budget raises IterationCapError there.

Translation by any b replaces c by c - (b^p - b) and shifts the root set
by b; each surgery step is one such translation.  Every routine takes the
series c alone and reads p as its characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import (
    HypothesisError,
    IterationCapError,
    ParamError,
    PrecisionError,
    UnsupportedError,
)
from .fields import FieldElement, inverse_frobenius, trace_to_prime
from .groups import (
    GroupDesc,
    GroupElem,
    QQ_GROUP,
    RationalGroup,
    divisible_by,
    one_over_m,
)
from .polys import MPoly
from .series import (
    Series,
    ValuationKind,
    frobenius_series,
    residue,
    series_to_json,
    sub_series,
    t_pow,
    valuation,
    zero_series,
)
from .hensel import SeriesPoly, hensel_lift

__all__ = [
    "Split",
    "LiftedRoot",
    "NoResidueRoot",
    "Ramified",
    "NormalForm",
    "SurgeryStep",
    "classify",
    "analyze",
    "surgery",
    "translate",
    "as_poly",
    "poly_to_series",
    "POSITIVE_VALUE",
    "ZERO_VALUE",
    "NEGATIVE_UNRAMIFIED",
    "NEGATIVE_RAMIFIED",
]

POSITIVE_VALUE = "PositiveValue"
ZERO_VALUE = "ZeroValue"
NEGATIVE_UNRAMIFIED = "NegativeUnramified"
NEGATIVE_RAMIFIED = "NegativeRamified"


# Budget of p for X^p - X - c, whose p + 1 coefficients are stored densely and
# whose automatic start searches a residue polynomial of degree p.  Tier-1,
# the goldens, the demos and the workloads reach p = 5; G1 at p = 251 and
# precision 8 answers in about 0.2 s, at p = 1009 in about 1 s.
_MAX_AS_DEGREE = 256


def _characteristic(c: Series) -> int:
    p = c.field.characteristic
    if p == 0:
        raise HypothesisError("Artin-Schreier analysis needs positive characteristic")
    return p


def as_poly(c: Series) -> SeriesPoly:
    """X^p - X - c for p the characteristic of c, stored densely: p above
    _MAX_AS_DEGREE raises ParamError."""
    p = _characteristic(c)
    if p > _MAX_AS_DEGREE:
        raise ParamError(
            f"X^p - X - c has degree p = {p}, above the budget of {_MAX_AS_DEGREE}"
        )
    field, group = c.field, c.group
    coeffs = [-c, t_pow(field, group, group.zero(), -1)]
    coeffs += [zero_series(field, group)] * (p - 2)
    coeffs.append(t_pow(field, group, group.zero(), 1))
    return SeriesPoly(tuple(coeffs))


# ---------------------------------------------------------------------------
# outcomes


class _Outcome:
    """Serializes as its variant, the class name, then each field in order."""

    def to_json(self) -> dict:
        out = {"variant": type(self).__name__}
        for f in fields(self):
            out[f.name] = _to_json(getattr(self, f.name))
        return out


def _to_json(x):
    if isinstance(x, Series):
        return series_to_json(x)
    if isinstance(x, tuple):
        return [_to_json(item) for item in x]
    if isinstance(x, SurgeryStep):
        return vars(x)
    return x if isinstance(x, (int, str)) else str(x)


@dataclass(frozen=True)
class Split(_Outcome):
    roots: tuple[Series, ...]


@dataclass(frozen=True)
class LiftedRoot(_Outcome):
    root: Series


@dataclass(frozen=True)
class NoResidueRoot(_Outcome):
    trace: FieldElement


@dataclass(frozen=True)
class Ramified(_Outcome):
    root_value: GroupElem
    note: str


@dataclass(frozen=True)
class SurgeryStep:
    index: int
    eliminated_exponent: str
    b: str


@dataclass(frozen=True)
class NormalForm(_Outcome):
    case: str  # classification of the rewritten constant
    partial: Series  # the B with residual = c - (B^p - B)
    residual: Series
    iterations: int
    trace: tuple[SurgeryStep, ...]


# ---------------------------------------------------------------------------
# classification


def classify(c: Series) -> str:
    p = _characteristic(c)
    v = valuation(c)
    if v.kind is ValuationKind.AT_LEAST:
        raise PrecisionError(
            f"sign of v(c) undecidable: known only to be >= {v.value}"
        )
    if v.kind is ValuationKind.INFINITY:
        return POSITIVE_VALUE  # c = 0 splits like any positive-value constant
    s = v.value.sign()
    if s > 0:
        return POSITIVE_VALUE
    if s == 0:
        return ZERO_VALUE
    if divisible_by(v.value, p) is not None:
        return NEGATIVE_UNRAMIFIED
    return NEGATIVE_RAMIFIED


def analyze(c: Series, target):
    """Classify c, then run the matching case; returns (case, outcome)."""
    case = classify(c)
    if case == POSITIVE_VALUE:
        return case, _split(c, target)
    if case == ZERO_VALUE:
        return case, _residue(c, target)
    if case == NEGATIVE_RAMIFIED:
        return case, _ramified(c)
    return case, surgery(c)


def _split(c: Series, target) -> Split:
    """All p roots when v(c) > 0: one lifted from the residue root 0, the
    rest shifted by the prime-field constants."""
    field, group = c.field, c.group
    f = as_poly(c)  # refuses p above the budget before the p roots are built
    if c.is_exact_zero():
        base = zero_series(field, group)
    else:
        base = hensel_lift(f, zero_series(field, group), target).root
    p = field.characteristic
    return Split(tuple(base + t_pow(field, group, group.zero(), i) for i in range(p)))


def _residue(c: Series, target) -> LiftedRoot | NoResidueRoot:
    """Decide root existence at v(c) = 0 by the absolute-trace criterion and
    lift the root when it exists."""
    r = residue(c)
    tr = trace_to_prime(r)
    if not tr.is_zero():
        return NoResidueRoot(tr)
    # trace 0: b^p - b = r has a root in the residue field, and every root is
    # simple; the lift starts from the least root
    return LiftedRoot(hensel_lift(as_poly(c), None, target).root)


def _p_divided_group(group: GroupDesc, p: int) -> GroupDesc:
    """The ambient of v(c)/p for a ramified v(c): (1/m)Z goes to (1/mp)Z and
    any other rational group to Q.  Q, (1/p^oo)Z and Q + Q*sqrt2 contain
    v(c)/p, so classify never calls a v(c) in them ramified."""
    if isinstance(group, RationalGroup):
        return one_over_m(group.m * p) if group.law == "one_over_m" else QQ_GROUP
    raise UnsupportedError(f"no canonical p-divided ambient for {group}")


def _ramified(c: Series) -> Ramified:
    """The forced root value v(c)/p when v(c) < 0 is not p-divisible in the
    group; the value lives in the p-divided ambient group."""
    p = c.field.characteristic
    vc = valuation(c).value
    ambient = _p_divided_group(c.group, p)
    root_value = ambient.elem(Fraction(vc.data, p))
    note = (
        f"any root has value {root_value}, outside the base group {c.group}; "
        f"the value-group index is at least {p}"
    )
    return Ramified(root_value, note)


# ---------------------------------------------------------------------------
# surgery


def poly_to_series(q: MPoly, group: GroupDesc) -> Series:
    """View a univariate polynomial as the exact series sum of its
    monomials.  q's terms are merged, nonzero and in increasing order, so
    they become the series' terms as they stand."""
    if len(q.vars) != 1:
        raise UnsupportedError("only univariate polynomials convert to series")
    if not q.terms:
        raise UnsupportedError("zero polynomial has no coefficient field")
    # tuple([...]), not tuple(generator): see the series module docstring
    return Series(q.terms[0][1].field, group, tuple([(group.elem(e), c) for (e,), c in q.terms]), None)


def translate(c: Series, b: Series) -> Series:
    """Roots shift by b: X^p - X - c becomes X^p - X - (c - (b^p - b))."""
    return sub_series(c, sub_series(frobenius_series(b), b))


# Over (1/m)Z the surgery loop ends by itself: a negative leading exponent
# rises and a positive one falls at every step, and all of them lie in
# (1/m)Z.  Over (1/p^oo)Z and Q it need not end (t^(-1) goes on forever),
# and over Z a pole of order p^k takes k steps.  Tier-1, the goldens, the
# demos and the workloads reach 20 steps; 256 steps of t^(-1) over the hull
# take about 0.06 s.
_MAX_SURGERY_STEPS = 256


def surgery(c: Series) -> NormalForm:
    """Repeatedly eliminate the leading term while its exponent is a nonzero
    p-th multiple inside the group: subtract b^p - b for b the exact p-th
    root of that term.  Returns the NormalForm the loop ends in; a run past
    _MAX_SURGERY_STEPS raises IterationCapError."""
    p = _characteristic(c)
    partial = zero_series(c.field, c.group)
    trace: list[SurgeryStep] = []
    current = c
    while _eliminable_front(current, p):
        if len(trace) == _MAX_SURGERY_STEPS:
            raise IterationCapError(
                f"surgery over {c.group} did not end within the budget of {_MAX_SURGERY_STEPS} steps"
            )
        lead_exp, lead = current.terms[0]
        g = divisible_by(lead_exp, p)
        b = t_pow(c.field, c.group, g, inverse_frobenius(lead))
        # b^p reproduces the leading term exactly, so the step only trades
        # the exponent lead_exp for the smaller-in-absolute-value exponent g
        current = translate(current, b)
        partial = partial + b
        trace.append(SurgeryStep(len(trace) + 1, str(lead_exp), str(b)))
    # the front is now zero, of value 0, or of a value not divisible by p
    return NormalForm(classify(current), partial, current, len(trace), tuple(trace))


def _eliminable_front(c: Series, p: int) -> bool:
    v = valuation(c)
    if v.kind is ValuationKind.AT_LEAST:
        raise PrecisionError("surgery front undecidable at this precision")
    if v.kind is ValuationKind.INFINITY or v.value.is_zero():
        return False
    return divisible_by(v.value, p) is not None
