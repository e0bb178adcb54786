"""Catalogued end-to-end computations, each emitting a structured report.

Nine scenarios exercise the library against concrete identities:

  G1 FrobeniusRoot  lift the root of X^p - X - t, match the catalog stream
  G2 DefectTower    tower of ramified degree-p steps below an order-one pole
  G3 BadValueGroup  recover t^(1/k) from a series with denominators prime to p
  G4 BadResidue     extract coefficients of strictly growing residue degree
  G5 ZSeries        fractional gap values of the sparse mixed-exponent series
  G6 NonIsoMIE      two pole towers differing by a rootless constant
  G7 Puiseux        fractional value denominators and residues over Q
  G8 SchmidtDefect  sampled value/residue invariance of a degree-p model step
  G9 CuspIFT        the cusp y^2 = x^3: value 3/2, kernel, witness checks

Every claim is decided by exact series and field arithmetic at an explicit
truncation.  Statements whose full content is a limit (a value group equal
to the whole p-divisible hull, an unbounded residue tower, a positive
defect) are certified only as monotone finite-level evidence and labeled
"finite-level" or "finite-sample" in the claim text; no report asserts a
limit.  A claim whose truncation is too short to decide is marked
indeterminate and fails its scenario.

Each scenario states its parameters once, in its schema: a type, a default
and an optional constraint, which `list` shows, and a check.  make_scenario
walks the schema in order, takes each given value or else the default (G1's
precision and G3's S are computed from the parameters before them), checks
it, and then reports any unknown names.

Reports are deterministic: identical (name, params) produce identical
claims, ramification rows, and pass flags; only the elapsed_ms timing field
varies between runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from random import Random

from .artinschreier import NEGATIVE_RAMIFIED, analyze, as_poly
from .errors import HypothesisError, ParamError, PrecisionError
from .fields import GF, QQ, _is_prime, embed, frobenius
from .groups import QQ_GROUP, ZZ_GROUP, one_over_m, p_power_hull
from .hensel import hensel_lift
from .places import (
    SeriesEmbedPlace,
    UniformizationWitness,
    place_residue,
    place_value,
    verify_uniformization_witness,
)
from .polys import RatFn, mpoly
from .series import (
    _MAX_HOST_DEGREE,
    ValuationResult,
    _below,
    _prec_min,
    add_series,
    bad_residue,
    bad_value_group,
    frobenius_root,
    frobenius_series,
    invert,
    make_series,
    mul_series,
    one_series,
    render_series,
    residue,
    scale_series,
    shift,
    stream_expand,
    sub_series,
    t_pow,
    theta_defect,
    truncate,
    unit_nth_root,
    valuation,
    z_series,
    zero_series,
)

__all__ = [
    "Claim",
    "RamificationRow",
    "Scenario",
    "Report",
    "make_scenario",
    "run_scenario",
    "list_scenarios",
    "report_to_json",
    "SCENARIO_NAMES",
]


# ---------------------------------------------------------------------------
# report structure

@dataclass(frozen=True)
class Claim:
    """One checked identity: both sides rendered, plus the exact verdict.

    indeterminate marks a claim whose truncation was too short to decide;
    such a claim never counts as a match.
    """

    description: str
    lhs: str
    rhs: str
    exact_match: bool
    indeterminate: bool = False

    def to_json(self) -> dict:
        out = {
            "description": self.description,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "exact_match": self.exact_match,
        }
        if self.indeterminate:
            out["indeterminate"] = True
        return out


@dataclass(frozen=True)
class RamificationRow:
    """Degree bookkeeping n = d*e*f for one extension step."""

    level: str
    n: int
    e: int
    f: int
    d: int

    def __post_init__(self):
        for name, v in (("n", self.n), ("e", self.e), ("f", self.f), ("d", self.d)):
            if not isinstance(v, int) or v < 1:
                raise HypothesisError(f"ramification entry {name} = {v!r} must be a positive integer")
        if self.n != self.d * self.e * self.f:
            raise HypothesisError(
                f"ramification row violates n = d*e*f: {self.n} != {self.d}*{self.e}*{self.f}"
            )

    def to_json(self) -> dict:
        return {"level": self.level, "n": self.n, "e": self.e, "f": self.f, "d": self.d}


@dataclass(frozen=True)
class Scenario:
    """A catalog entry name plus validated, fully defaulted parameters."""

    name: str
    params: tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class Report:
    scenario: str
    params: tuple[tuple[str, object], ...]
    claims: tuple[Claim, ...]
    ramification_data: tuple[RamificationRow, ...] | None
    passed: bool
    elapsed_ms: int


def report_to_json(r: Report) -> dict:
    out = {
        "scenario": r.scenario,
        "params": {k: _param_json(v) for k, v in r.params},
        "claims": [c.to_json() for c in r.claims],
        "pass": r.passed,
        "elapsed_ms": r.elapsed_ms,
    }
    if r.ramification_data is not None:
        out["ramification_data"] = [row.to_json() for row in r.ramification_data]
    return out


def _param_json(v):
    return list(v) if isinstance(v, tuple) else v


def _claim(description: str, fn) -> Claim:
    """Run one claim body; a PrecisionError marks the claim indeterminate."""
    try:
        lhs, rhs, ok = fn()
    except PrecisionError as exc:
        return Claim(description, f"indeterminate: {exc}", "(not decided at this truncation)", False, True)
    return Claim(description, str(lhs), str(rhs), bool(ok))


def _equal(description: str, compute, want) -> Claim:
    """A claim that compute() == want, both sides printed with str.
    compute runs before _equal returns, so it may read loop variables."""

    def verdict():
        got = compute()
        return got, want, got == want

    return _claim(description, verdict)


def _ram_row(level: str, n: int, e: int, f: int, p: int) -> RamificationRow:
    d, rem = divmod(n, e * f)
    if rem:
        raise HypothesisError(f"degree {n} is not divisible by e*f = {e * f}")
    q = d
    while q % p == 0:
        q //= p
    if q != 1:
        raise HypothesisError(f"computed defect {d} is neither 1 nor a power of {p}")
    return RamificationRow(level, n, e, f, d)


# ---------------------------------------------------------------------------
# parameter validation: each check takes (name, value, earlier params) and
# returns the value to keep

# Budgets of k_max, each at least 4x above what tier-1, the goldens, the
# demos and the workloads reach (G2: k_max 5; G5: k_max 6 and 112 bits; G7:
# k_max 12).  G2 grows about like k^2, and faster with the bits of p, since
# level k works on exponents with denominator p^k: within the budget it
# takes up to about 0.5 s (k_max = 100 with p near 2^61 or 2^81).  G5 grows
# about like k^3.5: within the budget it takes up to about 0.4 s (p = 101,
# k_max = 24).  G7 is cheap, but its claims print lcm(1..k_max), which
# passes the 4300 digits CPython converts to str at k_max = 9859.
_G2_MAX_K = 100
_G5_MAX_K = 24
_G5_MAX_BITS = 8192
_G7_MAX_K = 1000


def _prime(name: str, v, P=None) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < 2:
        raise ParamError(f"{name} must be a prime integer, got {v!r}")
    if not _is_prime(v):
        raise ParamError(f"{name} must be prime, got {v}")
    return v


def _int_at_least(low: int, budget: int | None = None):
    def check(name: str, v, P=None) -> int:
        if not isinstance(v, int) or isinstance(v, bool) or v < low:
            raise ParamError(f"{name} must be an integer >= {low}, got {v!r}")
        if budget is not None and v > budget:
            raise ParamError(f"{name} = {v} is above the budget of {budget}")
        return v

    return check


def _odd_prime(name: str, v, P) -> int:
    if _prime(name, v) == 2:
        raise ParamError("p must be an odd prime: the witness Jacobian uses the derivative 2y")
    return v


def _g3_k_max(name: str, k, P) -> int:
    _int_at_least(1)(name, k)
    if gcd(k, P["p"]) != 1:
        raise ParamError(f"the recovered denominator k_max = {k} must be prime to p = {P['p']}")
    return k


def _g3_s(name: str, s_raw, P) -> tuple[int, ...]:
    try:
        items = list(s_raw)
    except TypeError:  # not a collection
        items = None
    # a float, a str or a bool is refused, never truncated to an integer; the
    # check comes before set(), which would fold 4.0 into 4 and True into 1
    if items is None or any(type(n) is not int for n in items):
        raise ParamError(f"S must be a collection of integers, got {s_raw!r}")
    S = tuple(sorted(set(items)))
    for n in S:
        if n < 1 or gcd(n, P["p"]) != 1:
            raise ParamError(f"every denominator in S must be positive and prime to {P['p']}; got {n}")
    if P["k_max"] not in S:
        raise ParamError(f"S must contain the recovered denominator {P['k_max']}")
    return S


def _g5_k_max(name: str, k_max, P) -> int:
    _int_at_least(1, _G5_MAX_K)(name, k_max)
    # about the bits of the numerator of p^((k+1)^2) - 1/p^(k+1) at k = k_max,
    # the largest exponent G5 prints
    bits = P["p"].bit_length() * ((k_max + 1) ** 2 + k_max + 1)
    if bits > _G5_MAX_BITS:
        raise ParamError(
            f"k_max = {k_max} with p = {P['p']} makes exponents of about {bits} bits, "
            f"above the budget of {_G5_MAX_BITS}"
        )
    return k_max


def _g4_k_max(name: str, k_max, P) -> int:
    _int_at_least(1)(name, k_max)
    host_degree = 1
    for k in range(2, k_max + 1):  # stops at the first k over the budget
        host_degree = lcm(host_degree, k)
        if host_degree > _MAX_HOST_DEGREE:
            raise ParamError(
                f"k_max = {k_max} needs a host field of degree lcm(1..{k}) = {host_degree} "
                f"or more, above the budget of {_MAX_HOST_DEGREE}"
            )
    return k_max


# ---------------------------------------------------------------------------
# scenario builders

def _vanishes_below(s, bound) -> bool:
    """True when s has no terms below bound and its precision certifies that."""
    for e, _ in s.terms:
        if e < bound:
            return False
    if s.precision is not None and s.precision < bound:
        raise PrecisionError(
            f"precision {s.precision} is below the required bound {bound}"
        )
    return True


def _run_g1(P: dict):
    p, target = P["p"], P["precision"]
    field, group = GF(p), ZZ_GROUP
    bound = group.elem(target)
    fpoly = as_poly(t_pow(field, group, 1))
    lifted = hensel_lift(fpoly, None, bound)
    root = lifted.root
    claims = []

    def identity():
        residual = fpoly.eval(root)
        ok = _vanishes_below(residual, bound)
        return render_series(truncate(residual, bound)), f"O(t^({target}))", ok

    claims.append(_claim(
        f"the lifted root a of X^{p} - X - t satisfies a^{p} - a - t = 0 below t^({target})",
        identity,
    ))

    def stream_match():
        st = stream_expand(frobenius_root(p), bound)
        rt = truncate(root, bound)
        return render_series(rt), render_series(st), rt.terms == st.terms

    claims.append(_claim(
        f"the lifted root matches the FrobeniusRoot catalog stream term-exactly below t^({target})",
        stream_match,
    ))

    def doubling():
        steps = lifted.steps
        ok = all(
            not steps[i + 1] < min(steps[i].scale(2), bound)
            for i in range(len(steps) - 1)
        )
        chain = " -> ".join(str(v) for v in steps)
        return chain, f"residual value at least doubles until {target}", ok

    claims.append(_claim("the lift certificate shows doubling residual values", doubling))
    return claims, None


def _run_g2(P: dict):
    p, k_max = P["p"], P["k_max"]
    field, hull = GF(p), p_power_hull(p)
    theta = stream_expand(theta_defect(p), 0, max_terms=k_max + 2)
    pole = t_pow(field, hull, -1)
    claims, rows = [], []
    for k in range(1, k_max + 1):
        theta_k = make_series(field, hull, theta.terms[:k])
        claims.append(_equal(
            f"level {k}: theta_{k}^{p} - theta_{k} - t^(-1) = -t^(-1/{p ** k})",
            lambda: sub_series(sub_series(theta_k ** p, theta_k), pole),
            t_pow(field, hull, Fraction(-1, p ** k), -1),
        ))
        claims.append(_equal(
            f"level {k}: v(theta - theta_{k}) = -1/{p ** (k + 1)} by stream subtraction",
            lambda: valuation(sub_series(theta, theta_k)),
            ValuationResult.exact(hull.elem(Fraction(-1, p ** (k + 1)))),
        ))

        level_group = one_over_m(p ** k)
        # the ramified case lifts nothing, so any target does
        case, ramified = analyze(t_pow(field, level_group, Fraction(-1, p ** k)), 1)
        if case != NEGATIVE_RAMIFIED:
            raise HypothesisError(f"level {k} is not in the ramified case")
        rv = ramified.root_value
        claims.append(_equal(
            f"level {k}: the step value group is (1/{p ** (k + 1)})Z (finite-level evidence)",
            lambda: rv.group,
            one_over_m(p ** (k + 1)),
        ))

        e = next(m for m in (1, p) if level_group.admits(rv.scale(m).data))
        f = _coeff_field_degree(theta_k)
        rows.append(_ram_row(f"k={k}", p, e, f, p))
    return claims, tuple(rows)


def _coeff_field_degree(s) -> int:
    """Degree over the prime field generated by all coefficients of s."""
    degree = 1
    for _, c in s.terms:
        degree = lcm(degree, _frob_orbit_size(c))
    return degree


def _frob_orbit_size(x) -> int:
    n = 1
    y = frobenius(x)
    while y != x:
        y = frobenius(y)
        n += 1
    return n


def _run_g3(P: dict):
    p, k, S, prec = P["p"], P["k_max"], P["S"], P["precision"]
    field, group = GF(p), QQ_GROUP
    full = stream_expand(bad_value_group(p, S), 0, max_terms=len(S))
    cut = group.elem(Fraction(-1, k))
    tail = make_series(field, group, [(e, c) for e, c in full.terms if not e < cut])
    claims = [_equal(
        f"the tail of the stream from denominator {k} on has value -1/{k}",
        lambda: valuation(tail),
        ValuationResult.exact(cut),
    )]

    unit = add_series(
        one_series(field, group),
        sub_series(shift(tail, Fraction(1, k)), one_series(field, group)),
    )
    recovered = mul_series(unit, invert(tail, precision=group.elem(prec)))
    claims.append(_equal(
        f"the recovered root has value 1/{k}",
        lambda: valuation(recovered),
        ValuationResult.exact(group.elem(Fraction(1, k))),
    ))
    bound = group.elem(prec)
    claims.append(_equal(
        f"((1 + c) * tail^(-1))^{k} = t below t^({prec}): the tail recovers t^(1/{k})",
        lambda: truncate(recovered ** k, bound),
        truncate(t_pow(field, group, 1), bound),
    ))
    return claims, None


def _run_g4(P: dict):
    p, k_max = P["p"], P["k_max"]
    # the terms below t^(k_max + 1) are hosted in F_(p^lcm(1..k_max))
    zeta = stream_expand(bad_residue(p), k_max + 1)
    big = zeta.field
    host_degree = big.n
    claims = []
    running = 1

    def tail_coeff(n: int):
        head = make_series(big, ZZ_GROUP, zeta.terms[: n - 1])
        return residue(shift(sub_series(zeta, head), -n))

    for k in range(1, k_max + 1):
        claims.append(_equal(
            f"the coefficient at t^({k}) is the canonical degree-{k} generator inside "
            f"the degree-{host_degree} host field",
            lambda: tail_coeff(k),
            embed(GF(p, k).generator(), big),
        ))
        claims.append(_equal(
            f"the coefficient at t^({k}) has degree {k} over the prime field",
            lambda: _frob_orbit_size(tail_coeff(k)),
            k,
        ))
        running = lcm(running, k)
        claims.append(_equal(
            f"the residue field after level {k} has degree lcm(1..{k}) = {running} (finite-level evidence)",
            lambda: lcm(*(_frob_orbit_size(tail_coeff(n)) for n in range(1, k + 1))),
            running,
        ))
    return claims, None


def _gap_inverse_value(gap, shift_by: int):
    """v(t^shift_by * gap^(-1)), with gap inverted one past its value."""
    v = valuation(gap)
    if not v.is_exact:
        raise PrecisionError("the gap valuation is undecided at this truncation")
    inv = invert(gap, precision=v.value + gap.group.elem(1))
    return valuation(shift(inv, shift_by))


def _run_g5(P: dict):
    p, k_max = P["p"], P["k_max"]
    field, hull = GF(p), p_power_hull(p)
    nu = lambda i: i * (i + 1) // 2
    exp_bound = (k_max + 1) ** 2 + 1
    z = stream_expand(z_series(p), p ** exp_bound, max_terms=2 * (k_max + 2))
    claims = []
    power = z
    for k in range(1, k_max + 1):
        for _ in range(nu(k) - nu(k - 1)):  # z^(p^nu(k-1)) -> z^(p^nu(k))
            power = power ** p
        head = make_series(
            field, hull, [(e, c) for e, c in power.terms if e.data.denominator == 1]
        )
        gap = sub_series(power, head)
        claims.append(_equal(
            f"level {k}: the first fractional exponent of z^({p ** nu(k)}) is "
            f"{p ** ((k + 1) ** 2)} - 1/{p ** (k + 1)}",
            lambda: valuation(gap),
            ValuationResult.exact(hull.elem(p ** ((k + 1) ** 2) - Fraction(1, p ** (k + 1)))),
        ))
        claims.append(_equal(
            f"level {k}: v(t^({p ** ((k + 1) ** 2)}) * (z^({p ** nu(k)}) - integer head)^(-1)) "
            f"= 1/{p ** (k + 1)}",
            lambda: _gap_inverse_value(gap, p ** ((k + 1) ** 2)),
            ValuationResult.exact(hull.elem(Fraction(1, p ** (k + 1)))),
        ))
    return claims, None


def _run_g6(P: dict):
    p, k_max = P["p"], P["k_max"]
    small, big, hull = GF(p), GF(p, p), p_power_hull(p)
    claims = [_equal(
        f"X^{p} - X - 1 has no root in the prime field F_{p}",
        lambda: len([b for b in small.elements() if frobenius(b) - b == small.one()]),
        0,
    )]

    shiftc = next(b for b in big.elements() if frobenius(b) - b == big.one())
    theta = stream_expand(theta_defect(p), 0, max_terms=k_max)
    theta_k = make_series(big, hull, [(e, embed(c, big)) for e, c in theta.terms])
    theta_c = add_series(theta_k, make_series(big, hull, [(0, shiftc)]))
    diff = sub_series(theta_c, theta_k)
    claims.append(_equal(
        f"(theta_c - theta)^{p} - (theta_c - theta) = 1 exactly at truncation depth {k_max}",
        lambda: sub_series(diff ** p, diff),
        make_series(big, hull, [(0, big.one())]),
    ))
    claims.append(_equal(
        f"the translation constant generates a degree-{p} extension of the prime field",
        lambda: _frob_orbit_size(shiftc),
        p,
    ))
    return claims, None


def _denominator_lcm(k_max: int) -> int:
    """The lcm of the value denominators of t^(1/k) + t^2 over Q, k = 1..k_max."""
    got = 1
    for k in range(1, k_max + 1):
        v = valuation(add_series(t_pow(QQ, QQ_GROUP, Fraction(1, k)), t_pow(QQ, QQ_GROUP, 2)))
        if not v.is_exact:
            raise PrecisionError("value undecided")
        got = lcm(got, v.value.data.denominator)
    return got


def _run_g7(P: dict):
    k_max = P["k_max"]
    field, group = QQ, QQ_GROUP
    claims = []
    running = 1
    for k in range(1, k_max + 1):
        x = add_series(t_pow(field, group, Fraction(1, k)), t_pow(field, group, 2))
        claims.append(_equal(
            f"v(t^(1/{k}) + t^(2)) = 1/{k}",
            lambda: valuation(x),
            ValuationResult.exact(group.elem(Fraction(1, k))),
        ))
        claims.append(_equal(
            f"the value-0 normalization at denominator {k} has residue 1 in the coefficient field",
            lambda: residue(shift(x, Fraction(-1, k))),
            field.one(),
        ))
        running = lcm(running, k)

    claims.append(_equal(
        f"realized value denominators cover 1..{k_max}: their lcm is {running} (finite-level evidence)",
        lambda: _denominator_lcm(k_max),
        running,
    ))
    # x is the last sample, at denominator k_max
    claims.append(_equal(
        f"inversion realizes negative denominators: v((t^(1/{k_max}) + t^(2))^(-1)) = -1/{k_max}",
        lambda: valuation(invert(x, precision=group.elem(3))),
        ValuationResult.exact(group.elem(Fraction(-1, k_max))),
    ))
    return claims, None


def _sample_value(terms, powers, table):
    """The sum of c*t^a*y^b over a sample's ((a, b), c) terms, with y^b =
    powers[b].  Each product t^a*y^b is built on first use and kept in
    table, so the samples of one run share their monomials; a sum is one
    add_series per term, scaled only where c is not 1."""
    field, group = powers[0].field, powers[0].group
    one, acc = field.one(), zero_series(field, group)
    for (a, b), c in terms:
        m = table.get((a, b))
        if m is None:
            m = table[a, b] = mul_series(t_pow(field, group, a), powers[b])
        c = field.elem(c)
        acc = add_series(acc, m if c == one else scale_series(m, c))
    return acc


def _run_g8(P: dict):
    p, samples, seed = P["p"], P["k_max"], P["seed"]
    field, group = GF(p), ZZ_GROUP
    x = stream_expand(frobenius_root(p), p ** 9, max_terms=16)
    s = frobenius_series(x)
    claims = []

    def model():
        d = sub_series(x ** p, s)
        ok = _vanishes_below(d, group.elem(p ** 9))
        return render_series(d), f"O(t^({p ** 9})) or finer", ok

    claims.append(_claim(
        f"the model step satisfies x^{p} = s exactly below t^({p ** 9})",
        model,
    ))

    claims.append(_equal(
        "the step divides the designated value by p: v(x) = v(s)/p",
        lambda: f"v(x) = {valuation(x)}, v(s) = {valuation(s)}",
        f"v(x) = 1, v(s) = {p}",
    ))

    rng = Random(seed)
    xs = [one_series(field, group), x, mul_series(x, x), mul_series(mul_series(x, x), x)]
    ss = [one_series(field, group), s, mul_series(s, s), mul_series(mul_series(s, s), s)]

    def sample_poly():
        while True:
            terms = [
                ((a, b), rng.randrange(p))
                for a in range(4)
                for b in range(4)
                if rng.random() < 0.3
            ]
            terms = [(e, c) for e, c in terms if c]
            if terms:
                return terms

    drawn = [sample_poly() for _ in range(samples)]
    # t^a*x^b and t^a*s^b, each built once for all samples
    x_table, s_table = {}, {}

    # h(t, x) for each sample, shared by the three claims below
    values = [_sample_value(terms, xs, x_table) for terms in drawn]

    def decided():
        """The samples' values; an undecided one makes the claim indeterminate."""
        vs = [valuation(w) for w in values]
        if not all(v.is_exact for v in vs):
            raise PrecisionError("a sampled value is undecided at this truncation")
        return vs

    def residues():
        decided()
        return [w.terms[0][1] for w in values]  # the residues of w/t^v(w)

    def matches_counterpart(terms, w) -> bool:
        counterpart = _sample_value([((a * p, b), pow(c, p)) for (a, b), c in terms], ss, s_table)
        w_p = w ** p
        prec = _prec_min(w_p.precision, counterpart.precision)
        return _below(w_p.terms, prec) == _below(counterpart.terms, prec)

    def every_sample(description, count, what):
        """A claim that count() of the samples pass, printed as a tally."""
        claims.append(_equal(
            description, lambda: f"{count()} of {samples} {what}", f"{samples} of {samples} {what}",
        ))

    every_sample(
        f"value-group invariance on {samples} sampled polynomials in (t, x): every value stays in Z "
        "(finite-sample evidence)",
        lambda: sum(v.value.data.denominator == 1 for v in decided()),
        "integral",
    )
    every_sample(
        f"residue invariance on {samples} samples: value-0 normalizations have residues in the "
        "prime field (finite-sample evidence)",
        lambda: sum(frobenius(r) == r for r in residues()),
        "residues fixed by Frobenius",
    )
    every_sample(
        f"each sampled h(t, x)^{p} equals the counterpart polynomial in (t, s) exactly at truncation",
        lambda: sum(map(matches_counterpart, drawn, values)),
        "p-th powers match their (t, s)-counterparts",
    )

    rows = (_ram_row(f"degree-{p} model step x^{p} = s (finite-sample evidence)", p, 1, 1, p),)
    return claims, rows


def _run_g9(P: dict):
    p = P["p"]
    half = one_over_m(2)
    origin = SeriesEmbedPlace(
        QQ, half, (("x", t_pow(QQ, half, 1)), ("y", t_pow(QQ, half, Fraction(3, 2)))),
    )
    curve_q = mpoly(("x", "y"), {(0, 2): QQ.one(), (3, 0): -QQ.one()})

    claims = [
        _equal(
            "v(y) = 3/2 under the parameterization x -> t of y^2 = x^3",
            lambda: place_value(origin, mpoly(("x", "y"), {(0, 1): QQ.one()})),
            ValuationResult.exact(half.elem(Fraction(3, 2))),
        ),
        _equal(
            "the curve equation y^2 - x^3 lies in the kernel: value oo",
            lambda: place_value(origin, curve_q),
            ValuationResult.infinity(),
        ),
        _equal(
            "the unit y^2/x^3 has residue 1 along the parameterization",
            lambda: place_residue(origin, RatFn.make(
                mpoly(("x", "y"), {(0, 2): QQ.one()}), mpoly(("x", "y"), {(3, 0): QQ.one()}),
            )),
            QQ.one(),
        ),
    ]

    out0 = verify_uniformization_witness(UniformizationWitness(("x",), ("y",), (curve_q,)), origin)
    claims.append(_equal(
        "at the origin the generator relation vanishes field-level (U2)", lambda: out0["U2"], True,
    ))
    claims.append(_equal(
        "at the singular origin the Jacobian residue check U3 fails (expected failure)",
        lambda: out0["U3"],
        False,
    ))
    claims.append(_equal(
        "the origin is not certified as a smooth center", lambda: out0["smooth_center"], False,
    ))

    field = GF(p)
    xs = make_series(field, ZZ_GROUP, [(0, 1), (1, 1)])
    ys = unit_nth_root(mul_series(mul_series(xs, xs), xs), 2, precision=8)
    smooth = SeriesEmbedPlace(field, ZZ_GROUP, (("x", xs), ("y", ys)))
    curve_p = mpoly(("x", "y"), {(0, 2): field.one(), (3, 0): -field.one()})
    out1 = verify_uniformization_witness(
        UniformizationWitness(("x",), ("y",), (curve_p,)), smooth,
    )

    claims.append(_equal(
        f"the same curve passes every witness check at the smooth center x = 1 over F_{p}",
        lambda: ", ".join(f"{k}={v}" for k, v in out1.items()),
        "U1=True, U2=True, U3=True, smooth_center=True",
    ))
    return claims, None


# ---------------------------------------------------------------------------
# catalog

_REGISTRY = {
    "G1": {
        "title": "FrobeniusRoot",
        "builder": _run_g1,
        "schema": {
            "p": {"type": "prime", "default": 2, "check": _prime},
            "precision": {
                "type": "int >= 2",
                "default": "p^4",
                "derive": lambda P: P["p"] ** 4,
                "check": _int_at_least(2),
            },
        },
        "anchor": (
            "the power-series root of X^p - X - t with residue 0, lifted by certified "
            "doubling Newton steps and matched term-exactly against the catalog stream"
        ),
    },
    "G2": {
        "title": "DefectTower",
        "builder": _run_g2,
        "schema": {
            "p": {"type": "prime", "default": 2, "check": _prime},
            "k_max": {"type": "int >= 1", "default": 3, "check": _int_at_least(1, _G2_MAX_K)},
        },
        "anchor": (
            "a tower of degree-p steps below an order-one pole: each level satisfies "
            "theta_k^p - theta_k - t^(-1) = -t^(-1/p^k) and multiplies the value-group "
            "index by p; reported per finite level, never as a limit"
        ),
    },
    "G3": {
        "title": "BadValueGroup",
        "builder": _run_g3,
        "schema": {
            "p": {"type": "prime", "default": 3, "check": _prime},
            "k_max": {"type": "int >= 1, gcd(k_max, p) = 1", "default": 4, "check": _g3_k_max},
            "S": {
                "type": "set of positive ints",
                "default": "the window max(1, k_max - 2)..k_max + 2 restricted to gcd(n, p) = 1",
                "constraint": "gcd(n, p) = 1 for every n in S",
                "derive": lambda P: tuple(
                    n for n in range(max(1, P["k_max"] - 2), P["k_max"] + 3) if gcd(n, P["p"]) == 1
                ),
                "check": _g3_s,
            },
            "precision": {"type": "int >= 1", "default": 3, "check": _int_at_least(1)},
        },
        "anchor": (
            "recovering t^(1/k) as a unit multiple of the inverted tail of the series "
            "with support {-1/n : n in S}; every denominator in S is prime to p"
        ),
    },
    "G4": {
        "title": "BadResidue",
        "builder": _run_g4,
        "schema": {
            "p": {"type": "prime", "default": 2, "check": _prime},
            "k_max": {"type": "int >= 1", "default": 3, "check": _g4_k_max},
        },
        "anchor": (
            "coefficients of strictly growing degree over the prime field, extracted as "
            "residues of shifted tails inside the fixed host field of degree lcm(1..k_max)"
        ),
    },
    "G5": {
        "title": "ZSeries",
        "builder": _run_g5,
        "schema": {
            "p": {"type": "prime", "default": 2, "check": _prime},
            "k_max": {"type": "int >= 1", "default": 2, "check": _g5_k_max},
        },
        "anchor": (
            "the sparse series mixing huge integer exponents with tiny fractional ones: "
            "powering, head removal, and inversion recover the gap values 1/p^(k+1)"
        ),
    },
    "G6": {
        "title": "NonIsoMIE",
        "builder": _run_g6,
        "schema": {
            "p": {"type": "prime", "default": 2, "check": _prime},
            "k_max": {"type": "int >= 1 (truncation depth)", "default": 3, "check": _int_at_least(1)},
        },
        "anchor": (
            "two pole towers differing by a constant with no root of X^p - X - 1 in the "
            "prime field; the difference identity is checked exactly at truncation"
        ),
    },
    "G7": {
        "title": "Puiseux",
        "builder": _run_g7,
        "schema": {
            "k_max": {"type": "int >= 1", "default": 6, "check": _int_at_least(1, _G7_MAX_K)},
        },
        "anchor": (
            "fractional-exponent elements over Q realize every value denominator up to "
            "k_max, and value-0 normalizations have residues in the coefficient field"
        ),
    },
    "G8": {
        "title": "SchmidtDefect",
        "builder": _run_g8,
        "schema": {
            "p": {"type": "prime", "default": 2, "check": _prime},
            "k_max": {"type": "int >= 1 (sample count)", "default": 16, "check": _int_at_least(1)},
            "seed": {"type": "int >= 0", "default": 0, "check": _int_at_least(0)},
        },
        "anchor": (
            "a degree-p model step x^p = s with s the index-shifted catalog stream, "
            "designated transcendental; sampled value and residue invariance with exact "
            "p-th-power counterpart comparisons"
        ),
    },
    "G9": {
        "title": "CuspIFT",
        "builder": _run_g9,
        "schema": {
            "p": {"type": "odd prime (smooth-center coefficient field)", "default": 7, "check": _odd_prime},
        },
        "anchor": (
            "the cusp y^2 = x^3: value 3/2 at the origin parameterization, the curve "
            "equation in the kernel, and the uniformization witness passing at a smooth "
            "center while failing the Jacobian check at the cusp"
        ),
    },
}

SCENARIO_NAMES = tuple(_REGISTRY)
_DISPLAY_KEYS = ("type", "default", "constraint")  # what list shows of a schema entry


def make_scenario(name: str, params: dict | None = None) -> Scenario:
    if name not in _REGISTRY:
        raise ParamError(f"unknown scenario {name!r}; known scenarios: {', '.join(SCENARIO_NAMES)}")
    given = dict(params) if params else {}
    P = {}
    for key, spec in _REGISTRY[name]["schema"].items():
        if key in given:
            value = given.pop(key)
        else:
            value = spec["derive"](P) if "derive" in spec else spec["default"]
        P[key] = spec["check"](key, value, P)
    if given:
        raise ParamError(f"unknown params for {name}: {sorted(given)}")
    return Scenario(name, tuple(sorted(P.items())))


def run_scenario(name: str, params: dict | None = None) -> Report:
    sc = make_scenario(name, params)
    start = time.monotonic()
    claims, rows = _REGISTRY[sc.name]["builder"](dict(sc.params))
    elapsed_ms = int(round((time.monotonic() - start) * 1000))
    passed = all(c.exact_match for c in claims)
    return Report(sc.name, sc.params, tuple(claims), rows, passed, elapsed_ms)


def list_scenarios() -> tuple[dict, ...]:
    out = []
    for name in SCENARIO_NAMES:
        entry = _REGISTRY[name]
        out.append({
            "name": name,
            "title": entry["title"],
            "anchor": entry["anchor"],
            "params": {
                pn: {k: v for k, v in ps.items() if k in _DISPLAY_KEYS}
                for pn, ps in entry["schema"].items()
            },
        })
    return tuple(out)
