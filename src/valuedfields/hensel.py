"""Newton/Hensel lifting over truncated series rings.

hensel_lift finds a simple root of a univariate polynomial with series
coefficients, starting either from a supplied initial approximation or from
an automatically located simple residue root.  newton_system does the same
for square systems via the Jacobian, and implicit_solve re-solves the
trailing coordinates of a known common zero after the leading coordinates
are perturbed, with an explicit, reported perturbation threshold.  A system
is passed as its polynomials, their variables and the start, and
implicit_solve forms only the partials in the trailing variables.

Each of them checks its own preconditions and then runs the one Newton
iteration of series._newton, as does series.unit_nth_root: every step logs
the residual valuation, asserts the quadratic-convergence certificate
v(f(a_next)) >= 2*v(f(a)), and solves with the Jacobian's adjugate and one
inverted determinant.  The steps run on a precision ladder: after residual
valuation w a step needs f(a) only modulo t^(4w) and J(a) modulo t^(3w)
(both capped at the target), so the callbacks here see approximants
truncated that far until something loses precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .errors import (
    HypothesisError,
    NoResidueRootError,
    ParamError,
    PerturbationError,
    PrecisionError,
    SingularPointError,
    UnsupportedError,
)
from .fields import FieldDesc, FieldElement, FiniteField, RationalField, _horner, _poly_roots
from .groups import GroupDesc, GroupElem
from .polys import MPoly, adjugate, det
from .series import (
    POLE,
    _horner_packed,
    _prec_min,
    Series,
    ValuationKind,
    _newton,
    make_series,
    mul_series,
    one_series,
    residue,
    series_to_json,
    sub_series,
    truncate,
    valuation,
    zero_series,
)

__all__ = [
    "SeriesPoly",
    "LiftResult",
    "NewtonResult",
    "ImplicitResult",
    "hensel_lift",
    "newton_system",
    "implicit_solve",
    "eval_poly_at_series",
]

@dataclass(frozen=True)
class SeriesPoly:
    """Univariate polynomial with Series coefficients, low degree first."""

    coeffs: tuple[Series, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise UnsupportedError("empty coefficient list")
        f0 = self.coeffs[0]
        for c in self.coeffs:
            if c.field != f0.field or c.group != f0.group:
                raise UnsupportedError("coefficients from different series rings")

    @property
    def field(self) -> FieldDesc:
        return self.coeffs[0].field

    @property
    def group(self) -> GroupDesc:
        return self.coeffs[0].group

    def eval(self, a: Series, below=None) -> Series:
        """The value at a, cut below t^(below) when below is given.  Over
        F_p that cut value may come from one packed pass
        (series._horner_packed); it equals the plain Horner value cut."""
        if below is None:
            return _horner(self.coeffs, a)
        below = below if isinstance(below, GroupElem) else self.group.elem(below)
        out = _horner_packed(self.coeffs, a, below)
        return truncate(_horner(self.coeffs, a), below) if out is None else out

    def derivative(self) -> "SeriesPoly":
        zero = zero_series(self.field, self.group)
        return SeriesPoly(tuple(_derivative(self.coeffs, zero)))


@dataclass(frozen=True)
class LiftResult:
    root: Series
    steps: tuple[GroupElem, ...]  # residual valuation before each correction

    def to_json(self) -> dict:
        return {
            "result": series_to_json(self.root),
            "steps": [str(v) for v in self.steps],
        }


@dataclass(frozen=True)
class NewtonResult:
    roots: tuple[Series, ...]
    steps: tuple[GroupElem, ...]  # min residual valuation before each correction


@dataclass(frozen=True)
class ImplicitResult:
    solved: tuple[Series, ...]  # the re-solved trailing coordinates
    alpha: GroupElem  # perturbations must exceed 2*alpha in value
    steps: tuple[GroupElem, ...]


# ---------------------------------------------------------------------------
# residue-root search for the automatic start


def _coeff_residues(coeffs) -> list[FieldElement]:
    out = []
    for c in coeffs:
        r = residue(c)
        if r is POLE:
            raise HypothesisError("coefficient with negative valuation")
        out.append(r)
    return out


def _derivative(coeffs, zero) -> list:
    """Derivative coefficients (FieldElement or Series), low degree first;
    [zero] for a constant."""
    return [c.times_int(i) for i, c in enumerate(coeffs) if i >= 1] or [zero]


# Budget of the rational-root search in trial divisions, isqrt(|c|) + isqrt(|l|)
# for the constant c and leading coefficient l of the residue polynomial; 5
# million take about 0.4 s.  Tier-1, the goldens and the demos reach 3, and
# the timing test's constant 10^12 reaches 10^6 + 1.
_MAX_TRIAL_DIVISIONS = 5_000_000
# Budget of the candidates p/q it forms, one per pair of a divisor p of c and
# a divisor q of l.  Tier-1, the goldens, the demos and the workloads reach
# 169 pairs (the 10^12 test); 963761198400 with l = 1 makes 6720.
_MAX_CANDIDATE_PAIRS = 10_000
# Budget of the residue-root search over F_{p^n}, n > 1, in field elements,
# each tried by one Horner pass.  Tier-1, the goldens, the demos and the
# workloads reach F_81; F_{2^12} takes about 0.1 s and F_{2^16} took 2.7 s.
_MAX_RESIDUE_SEARCH = 2 ** 12


def _divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, ascending, by trial division up to isqrt(|n|)."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _rational_candidates(residues: list[FieldElement]) -> list[FieldElement]:
    """Candidate rational roots (rational-root theorem), ascending."""
    field = residues[0].field
    fracs = [c.data for c in residues]
    den = lcm(*(q.denominator for q in fracs))
    ints = [int(q * den) for q in fracs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return []
    cands = set()
    low = next(i for i, c in enumerate(ints) if c != 0)
    if low > 0:
        cands.add(Fraction(0))
    lead, const = ints[-1], ints[low]
    if isqrt(abs(const)) + isqrt(abs(lead)) > _MAX_TRIAL_DIVISIONS:
        raise ParamError(
            "the rational roots of this residue polynomial need more than "
            f"{_MAX_TRIAL_DIVISIONS} trial divisions, the budget"
        )
    lead_divisors, const_divisors = _divisors(lead), _divisors(const)
    pairs = len(lead_divisors) * len(const_divisors)
    if pairs > _MAX_CANDIDATE_PAIRS:
        raise ParamError(
            f"the rational roots of this residue polynomial need {pairs} divisor pairs, "
            f"above the budget of {_MAX_CANDIDATE_PAIRS}"
        )
    for p in const_divisors:
        for q in lead_divisors:
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))
    return [field.elem(c) for c in sorted(cands)]


def _find_residue_root(coeffs) -> FieldElement:
    """Least simple root of the residue polynomial, in the deterministic
    element order of the residue field.  Over F_p the candidates are the
    roots found by fields._poly_roots, in polynomial time; F_{p^n} with
    n > 1 tries every element, and more than _MAX_RESIDUE_SEARCH of them
    raise ParamError.  The zero polynomial has no simple root, as its
    derivative vanishes too."""
    residues = _coeff_residues(coeffs)
    field = residues[0].field
    deriv = _derivative(residues, field.zero())
    if isinstance(field, FiniteField) and field.n == 1:
        candidates = [field.elem(r) for r in _poly_roots([c.data[0] for c in residues], field.p)]
    elif isinstance(field, FiniteField):
        if field.order > _MAX_RESIDUE_SEARCH:
            raise ParamError(
                f"the residue-root search tries every element of {field}; "
                f"more than {_MAX_RESIDUE_SEARCH} is refused"
            )
        candidates = field.elements()
    elif isinstance(field, RationalField):
        candidates = _rational_candidates(residues)
    else:
        raise UnsupportedError(f"no residue-root search over {field}")
    for r in candidates:
        if _horner(residues, r).is_zero():
            if not _horner(deriv, r).is_zero():
                return r
    raise NoResidueRootError("residue polynomial has no simple root in the residue field")


# ---------------------------------------------------------------------------
# single-variable lifting


def _require_precision(series_list, target: GroupElem):
    for s in series_list:
        if s.precision is not None and s.precision < target:
            raise PrecisionError(
                f"input known only to O(t^({s.precision})), below target {target}"
            )


def hensel_lift(f: SeriesPoly, b: Series | None, target) -> LiftResult:
    """Lift a simple root to the target precision.

    Preconditions: coefficients have valuation >= 0 and precision >= target;
    a supplied start b has v(f(b)) > 0 and v(f'(b)) = 0.  With b = None, the
    start is the least simple root of the residue polynomial, lifted from a
    constant, which meets both conditions by construction.
    """
    field, group = f.field, f.group
    target = target if isinstance(target, GroupElem) else group.elem(target)
    if not target.sign() > 0:
        raise HypothesisError("target precision must be positive")
    for c in f.coeffs:
        v = valuation(c)
        if v.is_exact and v.value.sign() < 0:
            raise HypothesisError(f"coefficient valuation {v.value} is negative")
        if v.kind is ValuationKind.AT_LEAST and v.value.sign() < 0:
            raise PrecisionError("coefficient sign undecidable at this precision")
    _require_precision(f.coeffs, target)
    fd = f.derivative()
    if b is None:
        # a simple root of the residue polynomial: v(f(b)) > 0 and v(f'(b)) = 0
        b = make_series(field, group, [(group.zero(), _find_residue_root(f.coeffs))])
    else:
        _require_precision([b], target)
        # cut at the target, each value keeps what its check reads (a valuation
        # 0, or one <= 0); the message prints the uncut valuation
        vd = valuation(fd.eval(b, target))
        if not (vd.is_exact and vd.value.is_zero()):
            raise HypothesisError(f"v(f'(start)) = {valuation(fd.eval(b))}, need exactly 0")
        v0 = valuation(f.eval(b, target))
        if v0.is_exact and not v0.value.sign() > 0:
            raise HypothesisError(f"v(f(start)) = {v0.value}, need > 0")

    (root,), steps = _newton(
        lambda a: [f.eval(a[0], a[0].precision)], lambda a: [[fd.eval(a[0], a[0].precision)]],
        [b], target,
    )
    return LiftResult(root, steps)


# ---------------------------------------------------------------------------
# systems


def _system(polys, vars, start):
    """polys, vars and start as tuples, once start has a value for each
    variable and every polynomial is in exactly vars."""
    polys, vars, start = tuple(polys), tuple(vars), tuple(start)
    if len(start) != len(vars):
        raise UnsupportedError("start vector length differs from variable count")
    for p in polys:
        if p.vars != vars:
            raise UnsupportedError(f"poly vars {p.vars} differ from system vars {vars}")
    return polys, vars, start


def eval_poly_at_series(p: MPoly, values: dict[str, Series], field, group) -> Series:
    """Evaluate an MPoly with Series (or plain scalar) coefficients at Series
    arguments.  Each power values[v] ** e is formed once per call and each
    monomial's product of powers by mul_series; a Series coefficient
    multiplies that product, a scalar one scales it, and a constant term is
    the one term c*t^0.  One make_series sums the terms below the least
    precision among them."""
    powers = {}
    terms, prec = [], None
    for exps, coeff in p.terms:
        term = None
        for v, e in zip(p.vars, exps):
            if e:
                power = powers.get((v, e))
                if power is None:
                    power = powers[v, e] = values[v] ** e
                term = power if term is None else mul_series(term, power)
        if isinstance(coeff, Series):
            term = coeff if term is None else mul_series(coeff, term)
            terms.extend(term.terms)
        elif term is None:
            terms.append((group.zero(), coeff))
            continue
        else:
            terms.extend([(e, coeff * c) for e, c in term.terms])
        prec = _prec_min(prec, term.precision)
    return make_series(field, group, terms, prec)


def _eval_matrix(rows, vars, point, field, group):
    values = dict(zip(vars, point))
    return [[eval_poly_at_series(m, values, field, group) for m in row] for row in rows]


def _residuals(polys, vars, point, field, group, target):
    values = dict(zip(vars, point))
    return [truncate(eval_poly_at_series(p, values, field, group), target) for p in polys]


def newton_system(polys, vars, start, target) -> NewtonResult:
    """Newton iteration on a square system from a start whose residuals have
    positive valuation and whose Jacobian determinant is a unit."""
    polys, vars, start = _system(polys, vars, start)
    if len(polys) != len(vars):
        raise UnsupportedError("newton_system needs a square system")
    field, group = start[0].field, start[0].group
    target = target if isinstance(target, GroupElem) else group.elem(target)
    for r in _residuals(polys, vars, start, field, group, target):
        v = valuation(r)
        if v.is_exact and not v.value.sign() > 0:
            raise HypothesisError(f"start residual has valuation {v.value}, need > 0")
    jacobian = [[p.partial(v) for v in vars] for p in polys]
    jac0 = _eval_matrix(jacobian, vars, start, field, group)
    vdet = valuation(det(jac0, zero_series(field, group), one_series(field, group)))
    if not (vdet.is_exact and vdet.value.is_zero()):
        raise SingularPointError(f"v(det J(start)) = {vdet}, need exactly 0")
    roots, steps = _newton(
        lambda a: _residuals(polys, vars, a, field, group, target),
        lambda a: _eval_matrix(jacobian, vars, a, field, group),
        start, target,
    )
    return NewtonResult(roots, steps)


def implicit_solve(polys, vars, start, perturbed_prefix, target) -> ImplicitResult:
    """Re-solve the trailing n coordinates after perturbing the first l - n.

    start is a known common zero of the n polys in the l variables vars.
    The trailing n x n Jacobian block at the start must be a unit; the
    report includes the threshold alpha, and every perturbation must change
    its coordinate by valuation > 2*alpha.
    """
    polys, vars, start = _system(polys, vars, start)
    n, ell = len(polys), len(vars)
    if n >= ell:
        raise UnsupportedError("implicit_solve needs more variables than equations")
    perturbed_prefix = tuple(perturbed_prefix)
    if len(perturbed_prefix) != ell - n:
        raise UnsupportedError("perturbed prefix length must be l - n")
    field, group = start[0].field, start[0].group
    target = target if isinstance(target, GroupElem) else group.elem(target)

    block = [[p.partial(v) for v in vars[ell - n:]] for p in polys]
    block_val = _eval_matrix(block, vars, start, field, group)
    zero, one = zero_series(field, group), one_series(field, group)
    vdet = valuation(det(block_val, zero, one))
    if not (vdet.is_exact and vdet.value.is_zero()):
        raise SingularPointError(f"v(det of trailing Jacobian block) = {vdet}, need 0")

    alpha = group.zero()
    for row in adjugate(block_val, zero, one):
        for entry in row:
            v = valuation(entry)
            if v.is_exact and alpha < v.value:
                alpha = v.value
    threshold = alpha.scale(2)

    for old, new in zip(start, perturbed_prefix):
        diff = sub_series(new, old)
        if diff.is_exact_zero():
            continue
        v = valuation(diff)
        if v.value is None or not threshold < v.value:  # None: diff is exactly zero
            raise PerturbationError(
                f"perturbation valuation {v} does not exceed threshold 2*alpha = {threshold}"
            )

    # the system at (perturbed prefix, a) is a system in the trailing
    # coordinates a, and its Jacobian there is the trailing block
    start_tail = start[ell - n:]
    for r in _residuals(polys, vars, perturbed_prefix + start_tail, field, group, target):
        v = valuation(r)
        if v.is_exact and not v.value.sign() > 0:
            raise PerturbationError(
                f"perturbation too large: residual valuation {v.value} not positive"
            )
    solved, steps = _newton(
        lambda a: _residuals(polys, vars, perturbed_prefix + a, field, group, target),
        lambda a: _eval_matrix(block, vars, perturbed_prefix + a, field, group),
        start_tail, target,
    )
    return ImplicitResult(solved, alpha, steps)
