"""Root analysis for X^p - X - c over series fields of characteristic p.

The constant c decides everything through its valuation:

* v(c) > 0: the polynomial splits; all p roots lift from the constants.
* v(c) = 0: a root exists in the base iff the residue of c has absolute
  trace 0; the trace is returned as the witness otherwise.
* v(c) < 0 and v(c) not divisible by p inside the value group: any root has
  value v(c)/p, which forces ramification.
* v(c) < 0 and v(c) = p*g inside the group: surgery rewrites c by
  c - (b^p - b) with b = (lead coeff)^(1/p) * t^g, removing the leading term
  at the cost of one of value g.  Iterating either reaches one of the shapes
  above or keeps going forever; a bounded run that never terminates returns
  the partial sum and residual as a defect suspect, not a proof.

Transforms: translation by any b replaces c by c - (b^p - b) and shifts the
root set by b; the scale X = cY turns the polynomial into
Y^p - c^(1-p)Y - c^(1-p) whose constant has positive value; and for
c = 1/t + f(t) the generator swap expresses t as a root of
X*f(X) - W*X + 1 over the root field, W standing for the exact value
theta^p - theta = c.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    HypothesisError,
    PrecisionError,
    UnsupportedError,
    WrongCaseError,
)
from .fields import FieldElement, FiniteField, inverse_frobenius, trace_to_prime
from .groups import (
    GroupDesc,
    GroupElem,
    QQ_GROUP,
    QuadGroup,
    RationalGroup,
    ZZ_GROUP,
    divisible_by,
    from_coords,
    one_over_m,
)
from .polys import MPoly, mpoly
from .series import (
    Series,
    ValuationKind,
    frobenius_series,
    invert,
    make_series,
    residue,
    series_to_json,
    sub_series,
    t_pow,
    valuation,
    zero_series,
)
from .hensel import SeriesPoly, hensel_lift

__all__ = [
    "ASInstance",
    "Split",
    "LiftedRoot",
    "NoResidueRoot",
    "Ramified",
    "DefectSuspect",
    "NormalForm",
    "SurgeryStep",
    "TransformRecord",
    "classify",
    "root_split",
    "residue_case",
    "ramified_root_value",
    "surgery",
    "poly_to_series",
    "translation_instance",
    "abhyankar_scale",
    "inversion_minimal_poly",
    "transforms",
    "analyze",
    "POSITIVE_VALUE",
    "ZERO_VALUE",
    "NEGATIVE_UNRAMIFIED",
    "NEGATIVE_RAMIFIED",
]

POSITIVE_VALUE = "PositiveValue"
ZERO_VALUE = "ZeroValue"
NEGATIVE_UNRAMIFIED = "NegativeUnramified"
NEGATIVE_RAMIFIED = "NegativeRamified"


@dataclass(frozen=True)
class ASInstance:
    """The polynomial X^p - X - c with c a series in characteristic p."""

    p: int
    c: Series

    def __post_init__(self):
        if self.c.field.characteristic != self.p:
            raise HypothesisError(
                f"characteristic {self.c.field.characteristic} differs from p = {self.p}"
            )

    @property
    def group(self) -> GroupDesc:
        return self.c.group

    @property
    def field(self):
        return self.c.field

    def poly(self) -> SeriesPoly:
        field, group = self.field, self.group
        coeffs = [-self.c, _const(field, group, -1)]
        coeffs += [zero_series(field, group)] * (self.p - 2)
        coeffs.append(_const(field, group, 1))
        return SeriesPoly(tuple(coeffs))


def _const(field, group, value) -> Series:
    return make_series(field, group, [(group.zero(), value)])


# ---------------------------------------------------------------------------
# outcomes


@dataclass(frozen=True)
class Split:
    roots: tuple[Series, ...]

    def to_json(self):
        return {"variant": "Split", "roots": [series_to_json(r) for r in self.roots]}


@dataclass(frozen=True)
class LiftedRoot:
    root: Series

    def to_json(self):
        return {"variant": "LiftedRoot", "root": series_to_json(self.root)}


@dataclass(frozen=True)
class NoResidueRoot:
    trace: FieldElement

    def to_json(self):
        return {"variant": "NoResidueRoot", "trace": str(self.trace)}


@dataclass(frozen=True)
class Ramified:
    root_value: GroupElem
    extension_note: str

    def to_json(self):
        return {
            "variant": "Ramified",
            "root_value": str(self.root_value),
            "note": self.extension_note,
        }


@dataclass(frozen=True)
class SurgeryStep:
    index: int
    eliminated_exponent: str
    b: str


@dataclass(frozen=True)
class DefectSuspect:
    partial: Series  # accumulated B with c_k = c - (B^p - B)
    residual: Series
    iterations: int
    trace: tuple[SurgeryStep, ...]

    def to_json(self):
        return {
            "variant": "DefectSuspect",
            "partial": series_to_json(self.partial),
            "residual": series_to_json(self.residual),
            "iterations": self.iterations,
            "trace": [vars(s) for s in self.trace],
        }


@dataclass(frozen=True)
class NormalForm:
    case: str  # classification of the rewritten constant
    partial: Series
    residual: Series
    iterations: int
    trace: tuple[SurgeryStep, ...]

    def to_json(self):
        return {
            "variant": "NormalForm",
            "case": self.case,
            "partial": series_to_json(self.partial),
            "residual": series_to_json(self.residual),
            "iterations": self.iterations,
            "trace": [vars(s) for s in self.trace],
        }


# ---------------------------------------------------------------------------
# classification


def classify(inst: ASInstance) -> str:
    v = valuation(inst.c)
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
    if divisible_by(v.value, inst.p).member:
        return NEGATIVE_UNRAMIFIED
    return NEGATIVE_RAMIFIED


def root_split(inst: ASInstance, target) -> Split:
    """All p roots when v(c) > 0: one lifted from the residue root 0, the
    rest shifted by the prime-field constants."""
    if classify(inst) != POSITIVE_VALUE:
        raise WrongCaseError("root_split needs v(c) > 0")
    field, group = inst.field, inst.group
    if inst.c.is_exact_zero():
        base = zero_series(field, group)
    else:
        base = hensel_lift(inst.poly(), zero_series(field, group), target).root
    roots = tuple(base + _const(field, group, i) for i in range(inst.p))
    return Split(roots)


def residue_case(inst: ASInstance, target) -> LiftedRoot | NoResidueRoot:
    """Decide root existence at v(c) >= 0 by the absolute-trace criterion and
    lift the root when it exists."""
    if classify(inst) not in (POSITIVE_VALUE, ZERO_VALUE):
        raise WrongCaseError("residue criterion needs v(c) >= 0")
    if not isinstance(inst.field, FiniteField):
        raise UnsupportedError("residue criterion needs a finite residue field")
    r = residue(inst.c)
    tr = trace_to_prime(r)
    if not tr.is_zero():
        return NoResidueRoot(tr)
    # trace 0: b^p - b = r has a root in the residue field, and every root is
    # simple; the lift starts from 0 when r = 0, else from the least root
    start = zero_series(inst.field, inst.group) if r.is_zero() else None
    return LiftedRoot(hensel_lift(inst.poly(), start, target).root)


def _p_divided_group(group: GroupDesc, p: int) -> GroupDesc:
    if isinstance(group, RationalGroup):
        if group.law == "all":
            return QQ_GROUP
        if group.law == "one_over_m":
            return one_over_m(group.m * p)
        if group.law == "p_power":
            return group if group.p == p else QQ_GROUP
    if isinstance(group, QuadGroup):
        return group
    raise UnsupportedError(f"no canonical p-divided ambient for {group}")


def ramified_root_value(inst: ASInstance, target=None) -> Ramified:
    """The forced root value v(c)/p when v(c) < 0 is not p-divisible in the
    group; the value lives in the p-divided ambient group."""
    case = classify(inst)
    if case != NEGATIVE_RAMIFIED:
        raise WrongCaseError(f"ramified_root_value called in case {case}")
    vc = valuation(inst.c).value
    ambient = _p_divided_group(inst.group, inst.p)
    root_value = from_coords(ambient, [Fraction(x, inst.p) for x in vc.coords()])
    note = (
        f"any root has value {root_value}, outside the base group {inst.group}; "
        f"the value-group index is at least {inst.p}"
    )
    return Ramified(root_value, note)


# ---------------------------------------------------------------------------
# surgery


def poly_to_series(q: MPoly, group: GroupDesc) -> Series:
    """View a univariate polynomial as the series sum of its monomials."""
    if len(q.vars) != 1:
        raise UnsupportedError("only univariate polynomials convert to series")
    if not q.terms:
        raise UnsupportedError("zero polynomial has no coefficient field")
    field = q.terms[0][1].field
    return make_series(field, group, [(e[0], c) for e, c in q.terms])


def surgery(c: Series | MPoly, max_iter: int, group: GroupDesc | None = None):
    """Repeatedly eliminate the leading term when its exponent is a nonzero
    p-th multiple inside the group: subtract b^p - b for b the exact p-th
    root of that term.  Returns a NormalForm once the leading exponent stops
    being eliminable, or a DefectSuspect after max_iter rounds."""
    if isinstance(c, MPoly):
        c = poly_to_series(c, group if group is not None else ZZ_GROUP)
    p = c.field.characteristic
    if p == 0:
        raise HypothesisError("surgery needs positive characteristic")
    if not isinstance(c.field, FiniteField):
        raise UnsupportedError("surgery takes p-th roots, needs a finite field")
    if max_iter < 0:
        raise HypothesisError("max_iter must be nonnegative")
    partial = zero_series(c.field, c.group)
    trace: list[SurgeryStep] = []
    current = c
    while len(trace) < max_iter and _eliminable_front(current, p):
        lead_exp, lead = current.terms[0]
        g = divisible_by(lead_exp, p).witness
        b = t_pow(c.field, c.group, g, inverse_frobenius(lead))
        # b^p reproduces the leading term exactly, so the step only trades
        # the exponent lead_exp for the smaller-in-absolute-value exponent g
        current = sub_series(current, sub_series(frobenius_series(b), b))
        partial = partial + b
        trace.append(SurgeryStep(len(trace) + 1, str(lead_exp), str(b)))
    if _eliminable_front(current, p):  # stopped by the iteration cap, not shape
        return DefectSuspect(partial, current, len(trace), tuple(trace))
    case = _residual_case(current, p)
    return NormalForm(case, partial, current, len(trace), tuple(trace))


def _eliminable_front(c: Series, p: int) -> bool:
    v = valuation(c)
    if v.kind is ValuationKind.AT_LEAST:
        raise PrecisionError("surgery front undecidable at this precision")
    if v.kind is ValuationKind.INFINITY or v.value.is_zero():
        return False
    return divisible_by(v.value, p).member


def _residual_case(c: Series, p: int) -> str:
    v = valuation(c)
    if v.kind is ValuationKind.AT_LEAST:
        raise PrecisionError("residual classification undecidable")
    if v.kind is ValuationKind.INFINITY or v.value.sign() > 0:
        return POSITIVE_VALUE
    if v.value.is_zero():
        return ZERO_VALUE
    return NEGATIVE_RAMIFIED


# ---------------------------------------------------------------------------
# transforms


@dataclass(frozen=True)
class TransformRecord:
    translation: ASInstance
    scaled: SeriesPoly | None
    inversion: MPoly | None


def translation_instance(inst: ASInstance, b: Series) -> ASInstance:
    """Roots shift by b: X^p - X - c becomes X^p - X - (c - (b^p - b))."""
    shifted = sub_series(inst.c, sub_series(frobenius_series(b), b))
    return ASInstance(inst.p, shifted)


def abhyankar_scale(inst: ASInstance, precision=None) -> SeriesPoly:
    """Under X = cY the polynomial becomes Y^p - c^(1-p)Y - c^(1-p), whose
    constant has value (1-p)v(c) > 0 when v(c) < 0."""
    v = valuation(inst.c)
    if not (v.is_exact and v.value.sign() < 0):
        raise WrongCaseError(f"scaling needs v(c) < 0, have {v}")
    field, group = inst.field, inst.group
    c_power = inst.c ** (inst.p - 1)
    small = invert(c_power, precision)
    vs = valuation(small)
    expected = v.value.scale(1 - inst.p)
    if not (vs.is_exact and vs.value == expected):
        raise HypothesisError(
            f"v(c^(1-p)) = {vs}, expected {expected}"
        )  # pragma: no cover - arithmetic guarantees this
    coeffs = [-small, -small]
    coeffs += [zero_series(field, group)] * (inst.p - 2)
    coeffs.append(_const(field, group, 1))
    return SeriesPoly(tuple(coeffs), var="Y")


def inversion_minimal_poly(inst: ASInstance) -> MPoly:
    """For c = 1/t + f(t) with f polynomial, t satisfies
    X*f(X) - W*X + 1 = 0 over the root field, where W stands for the exact
    value theta^p - theta = c.  Substituting X -> t and W -> c gives the
    identically zero series."""
    c = inst.c
    if c.precision is not None:
        raise PrecisionError("generator swap needs the exact constant")
    terms = list(c.terms)
    if not terms:
        raise WrongCaseError("constant is zero, no pole to invert")
    e0, c0 = terms[0]
    minus_one = e0.group.elem(-1) if isinstance(e0.group, RationalGroup) else None
    if minus_one is None or e0 != minus_one or not (c0 - c.field.one()).is_zero():
        raise WrongCaseError("constant must have the shape 1/t + f(t)")
    f_terms = []
    for e, coeff in terms[1:]:
        q = e.coords()[0]
        if q.denominator != 1 or q < 0:
            raise WrongCaseError("tail of the constant must be a polynomial in t")
        f_terms.append((int(q), coeff))
    vars = ("X", "W")
    poly_terms: dict[tuple[int, int], FieldElement] = {}
    for j, coeff in f_terms:
        poly_terms[(j + 1, 0)] = coeff  # X * f(X)
    poly_terms[(1, 1)] = -c.field.one()  # -W*X
    poly_terms[(0, 0)] = c.field.one()  # +1
    return mpoly(vars, poly_terms)


def transforms(inst: ASInstance, b: Series, precision=None) -> TransformRecord:
    """Translation always; the scale and generator swap only where their
    preconditions hold."""
    translated = translation_instance(inst, b)
    v = valuation(inst.c)
    scaled = None
    if v.is_exact and v.value.sign() < 0:
        try:
            scaled = abhyankar_scale(inst, precision)
        except PrecisionError:
            scaled = None
    inversion = None
    try:
        inversion = inversion_minimal_poly(inst)
    except (WrongCaseError, PrecisionError):
        inversion = None
    return TransformRecord(translated, scaled, inversion)


# ---------------------------------------------------------------------------
# orchestration


def analyze(inst: ASInstance, target, max_iter: int = 16):
    """Classify, then run the matching analysis; returns (case, outcome)."""
    case = classify(inst)
    if case == POSITIVE_VALUE:
        return case, root_split(inst, target)
    if case == ZERO_VALUE:
        return case, residue_case(inst, target)
    if case == NEGATIVE_RAMIFIED:
        return case, ramified_root_value(inst)
    return case, surgery(inst.c, max_iter)