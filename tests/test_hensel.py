import gc
import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from valuedfields import hensel, series
from valuedfields.errors import (
    HypothesisError,
    IterationCapError,
    NoResidueRootError,
    ParamError,
    PerturbationError,
    PrecisionError,
    SingularPointError,
    UnsupportedError,
    ValuedFieldError,
)
from valuedfields.fields import GF, QQ, _power, _poly_roots
from valuedfields.groups import LexGroup, QuadGroup, ZZ_GROUP, one_over_m
from valuedfields.hensel import (
    ImplicitResult,
    LiftResult,
    SeriesPoly,
    _divisors,
    _find_residue_root,
    eval_poly_at_series,
    hensel_lift,
    implicit_solve,
)
from valuedfields.places import place_from_json, place_value_residue
from valuedfields.polys import adjugate, det, mpoly
from valuedfields.series import (
    Series,
    _newton,
    _prec_min,
    add_series,
    frobenius_root,
    make_series,
    mul_series,
    one_series,
    stream_expand,
    sub_series,
    t_pow,
    truncate,
    unit_nth_root,
    valuation,
    zero_series,
)


def _const(field, c):
    return make_series(field, ZZ_GROUP, [(0, c)])


def _artin_schreier_poly(field, p):
    """X^p - X - t over field((t))."""
    coeffs = [t_pow(field, ZZ_GROUP, 1, -1)]
    coeffs += [_const(field, -1)]
    coeffs += [zero_series(field, ZZ_GROUP)] * (p - 2)
    coeffs += [_const(field, 1)]
    return SeriesPoly(tuple(coeffs))


def test_lift_artin_schreier_char2():
    F = GF(2)
    f = _artin_schreier_poly(F, 2)
    out = hensel_lift(f, zero_series(F, ZZ_GROUP), 8)
    assert out.root == make_series(F, ZZ_GROUP, [(1, 1), (2, 1), (4, 1)], 8)
    assert out.root == stream_expand(frobenius_root(2), 8)
    assert [str(v) for v in out.steps] == ["1", "2", "4"]
    # residual really vanishes to target
    r = f.eval(out.root)
    assert not r.terms and str(r.precision) == "8"


def test_lift_matches_unit_nth_root():
    # X^2 - (1+t) through all three entry points of the one Newton iteration
    F = GF(3)
    one = one_series(F, ZZ_GROUP)
    u = make_series(F, ZZ_GROUP, [(0, 1), (1, 1)])
    f = SeriesPoly((-u, zero_series(F, ZZ_GROUP), _const(F, 1)))
    out = hensel_lift(f, one, 9)
    system = implicit_solve([mpoly(("X",), {(2,): one, (0,): -u})], ("X",), (one,), (), 9)
    assert out.root == unit_nth_root(u, 2, 9) == system.solved[0]
    assert out.steps == system.steps
    assert [str(v) for v in out.steps] == ["1", "2", "4", "8"]


def test_newton_step_cap(monkeypatch):
    F = GF(2)
    monkeypatch.setattr("valuedfields.series._MAX_STEPS", 2)
    with pytest.raises(IterationCapError, match="did not reach the target"):
        hensel_lift(_artin_schreier_poly(F, 2), zero_series(F, ZZ_GROUP), 16)
    one = one_series(F, ZZ_GROUP)
    f = mpoly(("X",), {(2,): one, (1,): -one, (0,): -t_pow(F, ZZ_GROUP, 1)})
    monkeypatch.setattr("valuedfields.series._MAX_STEPS", 1)
    with pytest.raises(IterationCapError, match="did not reach the target"):
        implicit_solve([f], ("X",), (zero_series(F, ZZ_GROUP),), (), 8)


def test_target_above_every_multiple_of_the_residual_value_fails_fast():
    # X^2 - (1 + t^(0,1)) from 1 over Z^2 lex: the residual has value (0,1),
    # and no multiple of it reaches the target (1,0), so no ladder rung is
    # tried; the correction runs at the target, where 1/f'(a) = 1/(2 + ...)
    # needs infinitely many terms
    F, lex = GF(5), LexGroup(2)
    one = one_series(F, lex)
    f = SeriesPoly(
        (make_series(F, lex, [((0, 0), -1), ((0, 1), -1)]), zero_series(F, lex), one)
    )
    start = time.perf_counter()
    with pytest.raises(PrecisionError, match=r"no multiple of v\(u\) = \(0,1\) reaches it"):
        hensel_lift(f, one, (1, 0))
    assert time.perf_counter() - start < 0.2


def test_lift_auto_start():
    F = GF(2)
    f = _artin_schreier_poly(F, 2)
    auto = hensel_lift(f, None, 8)
    explicit = hensel_lift(f, zero_series(F, ZZ_GROUP), 8)
    assert auto.root == explicit.root


def test_lift_auto_start_rational():
    # X^2 - (4 + t): residue roots are -2 and 2; the least simple root wins
    f = SeriesPoly(
        (make_series(QQ, ZZ_GROUP, [(0, -4), (1, -1)]), zero_series(QQ, ZZ_GROUP), _const(QQ, 1))
    )
    out = hensel_lift(f, None, 6)
    assert out.root.terms[0] == (ZZ_GROUP.zero(), QQ.elem(-2))
    check = f.eval(out.root)
    assert not check.terms


def _square_root_poly(c):
    """X^2 - (c + t) over Q((t))."""
    return SeriesPoly(
        (make_series(QQ, ZZ_GROUP, [(0, -c), (1, -1)]), zero_series(QQ, ZZ_GROUP), _const(QQ, 1))
    )


def test_divisors_match_the_full_scan():
    for n in list(range(1, 400)) + [-12, 2 ** 10, 3 ** 7 * 5 ** 2, 9973 ** 2]:
        naive = [d for d in range(1, abs(n) + 1) if n % d == 0] if abs(n) < 10 ** 6 else [1, 9973, n]
        assert _divisors(n) == naive


def test_lift_auto_start_rational_large_constant_is_fast():
    # the divisors of 10^12 come from trial division up to 10^6
    start = time.perf_counter()
    out = hensel_lift(_square_root_poly(10 ** 12), None, 4)
    assert time.perf_counter() - start < 1.0
    assert out.root.terms[0] == (ZZ_GROUP.zero(), QQ.elem(-10 ** 6))
    assert not _square_root_poly(10 ** 12).eval(out.root).terms


def test_lift_auto_start_rational_over_budget_fails_fast():
    start = time.perf_counter()
    with pytest.raises(ParamError, match="trial divisions"):
        hensel_lift(_square_root_poly(10 ** 14), None, 4)
    assert time.perf_counter() - start < 0.5


def test_lift_auto_start_rational_over_the_pair_budget_fails_fast():
    # 5040*X^2 + 963761198400: 60 x 6720 divisor pairs, each a candidate root
    f = SeriesPoly((
        make_series(QQ, ZZ_GROUP, [(0, 963761198400), (1, 1)]), zero_series(QQ, ZZ_GROUP),
        _const(QQ, 5040),
    ))
    start = time.perf_counter()
    with pytest.raises(ParamError, match="403200 divisor pairs, above the budget"):
        hensel_lift(f, None, 4)
    assert time.perf_counter() - start < 1


def test_no_residue_root():
    # X^2 - 8 has no rational residue root
    f = SeriesPoly(
        (make_series(QQ, ZZ_GROUP, [(0, -8), (1, 1)]), zero_series(QQ, ZZ_GROUP), _const(QQ, 1))
    )
    with pytest.raises(NoResidueRootError):
        hensel_lift(f, None, 4)


def test_lift_preconditions():
    F = GF(2)
    # derivative vanishes identically: X^2 - t
    f = SeriesPoly((t_pow(F, ZZ_GROUP, 1, -1), zero_series(F, ZZ_GROUP), _const(F, 1)))
    with pytest.raises(HypothesisError):
        hensel_lift(f, zero_series(F, ZZ_GROUP), 4)
    # coefficient with a pole
    g = SeriesPoly((t_pow(F, ZZ_GROUP, -1), _const(F, 1)))
    with pytest.raises(HypothesisError):
        hensel_lift(g, zero_series(F, ZZ_GROUP), 4)
    # start residual is a unit: X^2 - X - 1 from 0 over F_2
    h = SeriesPoly((_const(F, -1), _const(F, -1), _const(F, 1)))
    with pytest.raises(HypothesisError):
        hensel_lift(h, zero_series(F, ZZ_GROUP), 4)


def test_lift_refuses_insufficient_precision():
    F = GF(2)
    short_t = make_series(F, ZZ_GROUP, [(1, -1)], 3)
    f = SeriesPoly((short_t, _const(F, -1), _const(F, 1)))
    with pytest.raises(PrecisionError):
        hensel_lift(f, zero_series(F, ZZ_GROUP), 8)


def _random_admissible(rng, p):
    """Random monic polynomial over F_p[t] with valuation->0 coefficients."""
    F = GF(p)
    d = rng.randrange(2, 5)
    coeffs = []
    for i in range(d):
        terms = [(j, rng.randrange(p)) for j in range(3)]
        coeffs.append(make_series(F, ZZ_GROUP, terms))
    coeffs.append(_const(F, 1))
    return SeriesPoly(tuple(coeffs)), F


def test_lift_random_roots_verify():
    rng = random.Random(31)
    found = 0
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        f, F = _random_admissible(rng, p)
        try:
            out = hensel_lift(f, None, 12)
        except (NoResidueRootError, PrecisionError, HypothesisError):
            continue
        found += 1
        r = f.eval(out.root)
        assert not r.terms
        for earlier, later in zip(out.steps, out.steps[1:]):
            assert not later < earlier.scale(2)
    assert found >= 20


def test_lift_uniqueness_under_start_perturbation():
    F = GF(3)
    f = _artin_schreier_poly(F, 3)
    base = hensel_lift(f, zero_series(F, ZZ_GROUP), 9)
    rng = random.Random(32)
    for _ in range(10):
        wobble = make_series(
            F, ZZ_GROUP, [(rng.randrange(1, 4), rng.randrange(3)) for _ in range(2)]
        )
        out = hensel_lift(f, wobble, 9)
        assert out.root == base.root


def test_newton_system_pair():
    F = GF(5)
    one = one_series(F, ZZ_GROUP)
    t = t_pow(F, ZZ_GROUP, 1)
    f1 = mpoly(("X", "Y"), {(2, 0): one, (0, 0): -(one + t)})
    f2 = mpoly(("X", "Y"), {(0, 2): one, (1, 0): -one, (0, 0): -t})
    out = implicit_solve([f1, f2], ("X", "Y"), (one, one), (), 6)
    x, y = out.solved
    assert x == unit_nth_root(one + t, 2, 6)
    vals = {"X": x, "Y": y}
    for f in (f1, f2):
        r = truncate(eval_poly_at_series(f, vals, F, ZZ_GROUP), 6)
        assert not r.terms


def _add_chain(p, values, field, group):
    """The reference: each term's powers formed afresh, summed by a chain of
    add_series."""
    acc = zero_series(field, group)
    for exps, coeff in p.terms:
        term = coeff if isinstance(coeff, Series) else make_series(field, group, [(group.zero(), coeff)])
        for v, e in zip(p.vars, exps):
            if e:
                term = mul_series(term, values[v] ** e)
        acc = add_series(acc, term)
    return acc


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_eval_poly_at_series_matches_the_add_chain(field):
    rng = random.Random(41)
    group = one_over_m(2)

    def coefficient():
        return Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)) if field is QQ else rng.randrange(3)

    def series(low):
        terms = [(Fraction(rng.randrange(low, 12), 2), coefficient()) for _ in range(rng.randrange(4))]
        prec = None if rng.random() < 0.4 else Fraction(rng.randrange(4, 16), 2)
        return make_series(field, group, terms, prec)

    for _ in range(40):
        scalar = rng.random() < 0.3
        terms = {}
        for _ in range(rng.randrange(1, 7)):
            exps = (rng.randrange(4), rng.randrange(3))
            terms[exps] = field.elem(coefficient() or 1) if scalar else series(-2)
        p = mpoly(("X", "Y"), terms)
        values = {"X": series(-1), "Y": series(0)}
        assert eval_poly_at_series(p, values, field, group) == _add_chain(p, values, field, group)


def _fold(p, values, field, group):
    """The reference evaluator, term by term: a one-term Series per scalar
    coefficient, each power by square and multiply through mul_series
    (fields._power), each product by mul_series, one make_series."""
    powers = {}
    terms, prec = [], None
    for exps, coeff in p.terms:
        term = coeff if isinstance(coeff, Series) else make_series(field, group, [(group.zero(), coeff)])
        for v, e in zip(p.vars, exps):
            if e:
                if (v, e) not in powers:
                    powers[v, e] = _power(values[v], e, mul_series)
                term = mul_series(term, powers[v, e])
        terms.extend(term.terms)
        prec = _prec_min(prec, term.precision)
    return make_series(field, group, terms, prec)


_DIFF_FIELDS = [QQ, GF(5), GF(5, 2)]
_DIFF_GROUPS = [ZZ_GROUP, one_over_m(2), LexGroup(2), QuadGroup()]


def _random_exponent(rng, group, low):
    if group == ZZ_GROUP:
        return rng.randrange(low, 6)
    if group == one_over_m(2):
        return Fraction(rng.randrange(2 * low, 12), 2)
    if isinstance(group, LexGroup):
        return (rng.randrange(low, 4), rng.randrange(-2, 3))
    return (Fraction(rng.randrange(low, 4)), Fraction(rng.randrange(-2, 3), rng.randrange(1, 3)))


def _random_value(rng, field, group, kind):
    """A series of kind one-exact, one-cut, many-exact or many-cut (two
    terms), with exponents from -1 and any cut from 2."""
    count = 1 if kind.startswith("one") else 2
    terms = [(_random_exponent(rng, group, -1), _nonzero(rng, field)) for _ in range(count)]
    prec = None if kind.endswith("exact") else _random_exponent(rng, group, 2)
    s = make_series(field, group, terms, prec)
    return s if len(s.terms) == count else _random_value(rng, field, group, kind)


def _nonzero(rng, field):
    while True:
        if field == QQ:
            c = field.elem(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
        else:
            c = field.elem(tuple(rng.randrange(field.p) for _ in range(field.n)))
        if not c.is_zero():
            return c


def test_eval_poly_at_series_matches_the_term_by_term_fold():
    rng = random.Random(27)
    kinds = ("one-exact", "one-cut", "many-exact", "many-cut")
    cases = Counter()
    for i in range(520):
        field, group = _DIFF_FIELDS[i % 3], _DIFF_GROUPS[i // 3 % 4]
        values = {v: _random_value(rng, field, group, rng.choice(kinds)) for v in "XY"}
        series_coeffs = rng.random() < 0.3
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            # exponents up to 2p + 1 for p = 5, the multiples of 5 among them
            exps = tuple(rng.choice((5, 10, 11)) if rng.random() < 0.1
                         else rng.randrange(4) for _ in "XY")
            if series_coeffs:
                terms[exps] = _random_value(rng, field, group, rng.choice(kinds))
            else:
                terms[exps] = _nonzero(rng, field)
        p = mpoly(("X", "Y"), terms)
        got, want = eval_poly_at_series(p, values, field, group), _fold(p, values, field, group)
        assert (got.terms, got.precision) == (want.terms, want.precision), (p, values)
        cases[field, group, series_coeffs] += 1
    assert len(cases) == 24


@pytest.mark.parametrize("field", _DIFF_FIELDS, ids=str)
def test_one_term_power_matches_square_and_multiply(field):
    rng = random.Random(5)
    for group in _DIFF_GROUPS:
        for kind in ("one-exact", "one-cut"):
            s = _random_value(rng, field, group, kind)
            for k in range(1, 12):  # 1 .. 2p + 1
                got, want = s ** k, _power(s, k, mul_series)
                assert (got.terms, got.precision) == (want.terms, want.precision), (s, k)


def test_cusp_evaluation_forms_each_product_once(monkeypatch):
    # x -> t, y -> t^(3/2), and each power 1..4 of x and of y: every power of
    # a one-term value is one term, so the products are only the four
    # monomials' x^a * y^b (the term-by-term fold makes 18)
    group = one_over_m(2)
    values = {"x": t_pow(QQ, group, 1), "y": t_pow(QQ, group, Fraction(3, 2))}
    p = mpoly(("x", "y"), {e: QQ.elem(c) for e, c in {(1, 3): -1, (2, 2): 3, (3, 1): 5, (4, 4): 2}.items()})
    products, powered = [], []
    monkeypatch.setattr(hensel, "mul_series", lambda a, b: products.append(1) or mul_series(a, b))
    monkeypatch.setattr(series, "_power", lambda x, k, mul: powered.append(x) or _power(x, k, mul))
    got = eval_poly_at_series(p, values, QQ, group)
    assert str(got) == "5*t^(9/2) + 3*t^(5) + -1*t^(11/2) + 2*t^(10)"
    assert len(products) == 4
    assert not [x for x in powered if len(x.terms) == 1]
    assert got == _fold(p, values, QQ, group)


def test_newton_system_matches_hensel_n1():
    F = GF(2)
    one = one_series(F, ZZ_GROUP)
    t = t_pow(F, ZZ_GROUP, 1)
    f = mpoly(("X",), {(2,): one, (1,): -one, (0,): -t})
    out = implicit_solve([f], ("X",), (zero_series(F, ZZ_GROUP),), (), 8)
    lift = hensel_lift(_artin_schreier_poly(F, 2), zero_series(F, ZZ_GROUP), 8)
    assert out.solved[0] == lift.root
    assert out.steps == lift.steps


def test_newton_exact_root_unchanged():
    F = GF(3)
    one = one_series(F, ZZ_GROUP)
    t = t_pow(F, ZZ_GROUP, 1)
    f = mpoly(("X",), {(1,): one, (0,): -t})  # X - t
    out = implicit_solve([f], ("X",), (t,), (), 5)
    assert out.steps == ()
    assert out.solved[0] == truncate(t, 5)


def test_newton_singular_jacobian():
    F = GF(2)
    one = one_series(F, ZZ_GROUP)
    t = t_pow(F, ZZ_GROUP, 1)
    f = mpoly(("X",), {(2,): one, (0,): -t})  # derivative 2X = 0
    with pytest.raises(SingularPointError):
        implicit_solve([f], ("X",), (zero_series(F, ZZ_GROUP),), (), 4)


def test_system_shape_errors():
    # a start of the wrong length is named before a polynomial in other
    # variables; vars and start may be any sequence
    F = GF(5)
    one = one_series(F, ZZ_GROUP)
    g = mpoly(("X",), {(1,): one, (0,): -t_pow(F, ZZ_GROUP, 1)})
    length = "^start vector length differs from variable count$"
    other_vars = r"^poly vars \('X',\) differ from system vars \('X', 'Y'\)$"
    for solve in (lambda *a: implicit_solve(*a, (), 4), lambda *a: implicit_solve(*a, (one,), 4)):
        with pytest.raises(UnsupportedError, match=length):
            solve([g], ("X", "Y"), (one,))
        with pytest.raises(UnsupportedError, match=other_vars):
            solve([g], ("X", "Y"), (one, one))
    assert implicit_solve([g], ["X"], [zero_series(F, ZZ_GROUP)], [], 4).solved == (
        t_pow(F, ZZ_GROUP, 1, precision=4),
    )


def test_a_system_with_no_equations_is_refused():
    F = GF(5)
    one, t = one_series(F, ZZ_GROUP), t_pow(F, ZZ_GROUP, 1)
    for args in (([], [], [], ()), ([], ("X",), (one,), (one + t,))):
        with pytest.raises(UnsupportedError, match="^a system needs at least one equation$"):
            implicit_solve(*args, 4)


def test_a_start_that_is_no_common_zero_is_named_before_the_perturbation():
    # Y^2 - X^3 at (2, 2) over F_7 is 4 - 8 = 3: the start is at fault, not
    # the small perturbation 2 + t^3 of X
    F = GF(7)
    f, _ = _cusp_system(F)
    two = _const(F, 2)
    x_new = make_series(F, ZZ_GROUP, [(0, 2), (3, 1)])
    message = "^start residual has valuation 0, need > 0$"
    with pytest.raises(HypothesisError, match=message):
        implicit_solve([f], ("X", "Y"), (two, two), (x_new,), 6)
    with pytest.raises(HypothesisError, match=message):
        implicit_solve([f.subst({"X": two}, F)], ("Y",), (two,), (), 6)


def _dense_system_8x8():
    """The dense coupled system f_0..f_7 in X0..X7 over F_5, built under
    random.Random(8), with the common zero 0 to valuation 1.  Each f_i has a
    constant with terms at t^1..t^4; every linear monomial, whose
    coefficients have residues forming a matrix of nonzero determinant and
    terms at t^1..t^3; and every quadratic monomial, with terms at t^0..t^3.
    Each coefficient but a linear residue is drawn from 1..4."""
    F, rng = GF(5), random.Random(8)
    names = tuple(f"X{i}" for i in range(8))

    def coeff(low, high, residue=0):
        terms = [(0, residue)] + [(e, rng.randrange(1, 5)) for e in range(low, high + 1)]
        return make_series(F, ZZ_GROUP, terms)

    while True:
        linear = [[F.elem(rng.randrange(5)) for _ in names] for _ in names]
        if not det(linear, F.zero(), F.one()).is_zero():
            break
    units = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    polys = []
    for row in linear:
        terms = {(0,) * 8: coeff(1, 4)}
        for u, c in zip(units, row):
            terms[u] = coeff(1, 3, c)
        for i in range(8):
            for j in range(i, 8):
                terms[tuple(a + b for a, b in zip(units[i], units[j]))] = coeff(0, 3)
        polys.append(mpoly(names, terms))
    return polys, names, (zero_series(F, ZZ_GROUP),) * 8


def test_dense_8x8_system_solves_with_an_empty_prefix():
    polys, names, start = _dense_system_8x8()
    out = implicit_solve(polys, names, start, (), 16)
    assert [str(v) for v in out.steps] == ["1", "2", "4", "8"]
    assert out.alpha == ZZ_GROUP.zero()
    values = dict(zip(names, out.solved))
    for f in polys:
        r = truncate(eval_poly_at_series(f, values, GF(5), ZZ_GROUP), 16)
        assert not r.terms and str(r.precision) == "16"


def test_newton_elimination_path():
    # five decoupled square roots: a 5x5 Jacobian solve (adjugate and one
    # inverted determinant, the same path as every smaller system)
    F = GF(3)
    one = one_series(F, ZZ_GROUP)
    t = t_pow(F, ZZ_GROUP, 1)
    names = tuple(f"X{i}" for i in range(5))
    polys = []
    for i in range(5):
        e = tuple(2 if j == i else 0 for j in range(5))
        polys.append(mpoly(names, {e: one, (0,) * 5: -(one + t)}))
    out = implicit_solve(polys, names, (one,) * 5, (), 4)
    root = unit_nth_root(one + t, 2, 4)
    for r in out.solved:
        assert r == root


def _cusp_system(F):
    one = one_series(F, ZZ_GROUP)
    f = mpoly(("X", "Y"), {(0, 2): one, (3, 0): -one})  # Y^2 - X^3
    return f, one


def test_implicit_cusp_smooth_center():
    F = GF(7)
    f, one = _cusp_system(F)
    start = (_const(F, 2), _const(F, 1))  # 2^3 = 1 = 1^2 in F_7
    x_new = make_series(F, ZZ_GROUP, [(0, 2), (1, 1)])  # 2 + s
    out = implicit_solve([f], ("X", "Y"), start, (x_new,), 6)
    assert out.alpha == ZZ_GROUP.zero()
    y = out.solved[0]
    check = truncate(
        eval_poly_at_series(f, {"X": x_new, "Y": y}, F, ZZ_GROUP), 6
    )
    assert not check.terms
    assert y.terms[0] == (ZZ_GROUP.zero(), F.elem(1))


def test_implicit_singular_center():
    F = GF(7)
    f, one = _cusp_system(F)
    start = (zero_series(F, ZZ_GROUP), zero_series(F, ZZ_GROUP))
    with pytest.raises(SingularPointError):
        implicit_solve([f], ("X", "Y"), start, (t_pow(F, ZZ_GROUP, 1),), 6)


def test_implicit_zero_perturbation_is_identity():
    F = GF(7)
    f, one = _cusp_system(F)
    start = (_const(F, 2), _const(F, 1))
    out = implicit_solve([f], ("X", "Y"), start, (start[0],), 6)
    assert out.steps == ()
    assert out.solved[0] == truncate(start[1], 6)


def test_implicit_solution_is_fixed_point():
    F = GF(7)
    f, one = _cusp_system(F)
    start = (_const(F, 2), _const(F, 1))
    x_new = make_series(F, ZZ_GROUP, [(0, 2), (1, 1)])
    first = implicit_solve([f], ("X", "Y"), start, (x_new,), 6)
    second = implicit_solve([f], ("X", "Y"), (x_new, first.solved[0]), (x_new,), 6)
    assert second.steps == ()
    assert second.solved[0] == first.solved[0]


def test_implicit_perturbation_threshold():
    F = GF(7)
    f, one = _cusp_system(F)
    start = (_const(F, 2), _const(F, 1))
    bad = make_series(F, ZZ_GROUP, [(0, 3), (1, 1)])  # changes the residue
    with pytest.raises(PerturbationError):
        implicit_solve([f], ("X", "Y"), start, (bad,), 6)


def test_implicit_threshold_from_a_jacobian_block_with_a_positive_adjugate_entry():
    # X + t*Y - U and Y - U over F_5 at the origin: the trailing block
    # [[1, t], [0, 1]] has adjugate [[1, -t], [0, 1]], so alpha = 1 and a
    # perturbation of U must have valuation above 2
    F = GF(5)
    one = one_series(F, ZZ_GROUP)
    t = t_pow(F, ZZ_GROUP, 1)
    vars = ("U", "X", "Y")
    f1 = mpoly(vars, {(0, 1, 0): one, (0, 0, 1): t, (1, 0, 0): -one})
    f2 = mpoly(vars, {(0, 0, 1): one, (1, 0, 0): -one})
    zero = zero_series(F, ZZ_GROUP)
    out = implicit_solve([f1, f2], vars, (zero, zero, zero), (t_pow(F, ZZ_GROUP, 3),), 10)
    assert out.alpha == ZZ_GROUP.elem(1)
    x, y = out.solved
    assert x == make_series(F, ZZ_GROUP, [(3, 1), (4, 4)], 10)
    assert y == make_series(F, ZZ_GROUP, [(3, 1)], 10)
    with pytest.raises(PerturbationError, match="threshold 2"):
        implicit_solve([f1, f2], vars, (zero, zero, zero), (t_pow(F, ZZ_GROUP, 2),), 10)


def _reference_implicit_solve(polys, vars, start, prefix, target):
    """implicit_solve as first written: substitute the perturbed prefix into
    the polynomials, then differentiate the reduced system in the trailing
    variables again."""
    n, ell = len(polys), len(vars)
    field, group = start[0].field, start[0].group
    target = group.elem(target)
    head, trailing = vars[: ell - n], vars[ell - n:]
    zero, one = zero_series(field, group), one_series(field, group)
    for r in hensel._residuals(polys, vars, start, field, group, target):
        v = valuation(r)
        if v.is_exact and not v.value.sign() > 0:
            raise HypothesisError(f"start residual has valuation {v.value}, need > 0")
    block = hensel._eval_matrix(
        [[p.partial(v) for v in trailing] for p in polys], vars, start, field, group
    )
    vdet = valuation(det(block, zero, one))
    if not (vdet.is_exact and vdet.value.is_zero()):
        raise SingularPointError(f"v(det J(start)) = {vdet}, need exactly 0")
    alpha = group.zero()
    for row in adjugate(block, zero, one):
        for entry in row:
            v = valuation(entry)
            if v.is_exact and alpha < v.value:
                alpha = v.value
    threshold = alpha.scale(2)
    for old, new in zip(start, prefix):
        diff = sub_series(new, old)
        if diff.is_exact_zero():
            continue
        v = valuation(diff)
        if v.value is None or not threshold < v.value:
            raise PerturbationError(
                f"perturbation valuation {v} does not exceed threshold 2*alpha = {threshold}"
            )
    reduced = [p.subst(dict(zip(head, prefix)), field) for p in polys]
    assert all(q.vars == trailing for q in reduced)
    tail = start[ell - n:]
    for r in hensel._residuals(reduced, trailing, tail, field, group, target):
        v = valuation(r)
        if v.is_exact and not v.value.sign() > 0:
            raise PerturbationError(
                f"perturbation too large: residual valuation {v.value} not positive"
            )
    jac = [[q.partial(v) for v in trailing] for q in reduced]
    solved, steps = _newton(
        lambda a: hensel._residuals(reduced, trailing, a, field, group, target),
        lambda a: hensel._eval_matrix(jac, trailing, a, field, group),
        tail, target,
    )
    return solved, alpha, steps


def _random_series(rng, field, group, low=0, cut=False):
    """A short series with exponents in (1/m)Z from low up; cut ones are
    known to a precision a little above their last term."""
    m = 2 if group == one_over_m(2) else 1
    exps = sorted({Fraction(rng.randrange(low * m, low * m + 4), m) for _ in range(rng.randint(0, 3))})
    terms = [(group.elem(e), rng.randrange(1, field.p)) for e in exps]
    prec = None
    if cut:
        prec = group.elem(Fraction(rng.randrange(low * m + 6 * m, low * m + 12 * m), m))
    return make_series(field, group, terms, prec)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValuedFieldError as exc:
        return type(exc).__name__, str(exc)


def test_implicit_solve_matches_the_substituting_reference():
    # random systems over F_3, F_5 and F_7 in Z and (1/2)Z, with exact or cut
    # coefficients: the same solved series, alpha, steps or error
    rng = random.Random(2025)
    kinds = Counter()
    for _ in range(320):
        field = GF(rng.choice([3, 5, 7]))
        group = rng.choice([ZZ_GROUP, one_over_m(2)])
        n, k = rng.choice([(1, 1), (1, 2), (2, 1)])
        names = tuple(f"U{i}" for i in range(k)) + tuple(f"X{i}" for i in range(n))
        cut = rng.random() < 0.5
        start = tuple(_random_series(rng, field, group) for _ in names)
        values = dict(zip(names, start))
        polys = []
        for i in range(n):
            terms = {}
            # a unit on its own trailing variable keeps the block mostly invertible
            if rng.random() < 0.8:
                terms[tuple(int(v == names[k + i]) for v in names)] = one_series(field, group)
            # a pole on a leading variable: a perturbation past the threshold
            # can still leave a residual of valuation <= 0
            if rng.random() < 0.3:
                terms[tuple(int(v == names[0]) for v in names)] = _random_series(
                    rng, field, group, -rng.randint(2, 5))
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randrange(3) for _ in names)
                terms[exps] = _random_series(rng, field, group, rng.choice([0, 0, 0, 1, -1]), cut)
            f = mpoly(names, terms)
            # make the start a common zero, or nearly one, or leave it
            if rng.random() < 0.85:
                value = eval_poly_at_series(f, values, field, group)
                if rng.random() < 0.8:  # drop the terms from t^below on, keep the precision
                    below = group.elem(rng.choice([1, 2, 3, 5]))
                    value = Series(field, group, tuple(x for x in value.terms if x[0] < below),
                                   value.precision)
                f = f - mpoly(names, {(0,) * len(names): value})
            polys.append(f)
        shift = rng.choice([0, 1, 2, 3, 4, 5])
        prefix = tuple(
            add_series(x, _random_series(rng, field, group, shift)) if shift else x
            for x in start[:k]
        )
        target = rng.choice([4, 6, 9])
        got = _outcome(implicit_solve, polys, names, start, prefix, target)
        want = _outcome(_reference_implicit_solve, polys, names, start, prefix, target)
        if isinstance(got, ImplicitResult):
            got = (got.solved, got.alpha, got.steps)
            kinds["solved" if got[2] else "fixed"] += 1
        elif got[0] == "SingularPointError":
            kinds["singular, " + ("inexact" if ">=" in got[1] or "oo" in got[1] else "exact")] += 1
        elif got[0] == "PerturbationError":
            kinds["perturbation, " + ("threshold" if "threshold" in got[1] else "residual")] += 1
        else:
            kinds[got[0]] += 1
        assert got == want
    assert kinds["solved"] >= 50, kinds
    for kind in ("singular, exact", "singular, inexact", "perturbation, threshold",
                 "perturbation, residual"):
        assert kinds[kind] >= 5, kinds


def test_automatic_start_lifts_as_the_same_start_supplied():
    # the unchecked automatic start lifts as the checked supplied one
    rng = random.Random(2026)
    lifted = 0
    for _ in range(320):
        field = GF(rng.choice([2, 3, 5, 7]))
        group = rng.choice([ZZ_GROUP, one_over_m(2)])
        cut = rng.random() < 0.5
        degree = rng.randint(1, 4)
        coeffs = [_random_series(rng, field, group, 0, cut) for _ in range(degree)]
        coeffs.append(one_series(field, group) if rng.random() < 0.7
                      else _random_series(rng, field, group, 0, cut))
        f = SeriesPoly(tuple(coeffs))
        target = rng.choice([3, 5, 8])
        auto = _outcome(hensel_lift, f, None, target)
        try:
            r = _find_residue_root(f.coeffs)
        except ValuedFieldError:
            assert isinstance(auto, tuple)
            continue
        start = make_series(field, group, [(0, r)])
        supplied = _outcome(hensel_lift, f, start, target)
        assert auto == supplied
        lifted += isinstance(auto, LiftResult)
    assert lifted >= 120, lifted


def test_formal_derivative_consistency():
    rng = random.Random(33)
    F = GF(3)
    for _ in range(40):
        coeffs = tuple(
            make_series(F, ZZ_GROUP, [(j, rng.randrange(3)) for j in range(3)])
            for _ in range(rng.randrange(2, 5))
        )
        f = SeriesPoly(coeffs)
        a = make_series(F, ZZ_GROUP, [(j, rng.randrange(3)) for j in range(2)])
        eps = make_series(
            F, ZZ_GROUP, [(rng.randrange(1, 4), rng.randrange(1, 3))]
        )
        lhs = f.eval(a + eps) - f.eval(a) - eps * f.derivative().eval(a)
        v = valuation(lhs)
        ve = valuation(eps).value
        if v.is_exact:
            assert not v.value < ve.scale(2)


def _enumerated_root(field, ints):
    """The least simple root of a residue polynomial over F_p by trying
    every element, the reference for the polynomial-time search."""
    p = field.p
    for r in range(p):
        if sum(c * r ** i for i, c in enumerate(ints)) % p == 0:
            if sum(i * c * r ** (i - 1) for i, c in enumerate(ints) if i) % p:
                return field.elem(r)
    return None


def _poly_from_roots(roots, p):
    out = [1]
    for r in roots:
        out = [((out[i - 1] if i else 0) - r * (out[i] if i < len(out) else 0)) % p for i in range(len(out) + 1)]
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_residue_root_matches_enumeration(p):
    field = GF(p)
    rng = random.Random(7 * p)
    polys = [[0], [3 % p or 1], [0, 0, 1]]
    for _ in range(60):
        polys.append([rng.randrange(p) for _ in range(rng.randint(1, 7))])
        # only multiple roots, and multiple roots beside simple ones
        doubled = [rng.randrange(p) for _ in range(rng.randint(1, 3))]
        polys.append(_poly_from_roots(doubled * 2, p))
        polys.append(_poly_from_roots(doubled * 2 + [rng.randrange(p)], p))
        # a unit times a product of linear factors, maybe times x^2 - c
        lin = _poly_from_roots([rng.randrange(p) for _ in range(rng.randint(0, 4))], p)
        unit = rng.randrange(1, p)
        poly = [c * unit % p for c in lin]
        if rng.random() < 0.5:
            poly = [c % p for c in _mul_int_polys(poly, [-rng.randrange(p), 0, 1])]
        polys.append(poly)
    outcomes = set()
    for ints in polys:
        coeffs = [_const(field, c) for c in ints]
        expect = _enumerated_root(field, ints)
        if expect is None:
            with pytest.raises(NoResidueRootError, match="^residue polynomial has no simple root"):
                _find_residue_root(coeffs)
        else:
            assert _find_residue_root(coeffs) == expect, ints
        outcomes.add(expect is None)
    assert outcomes == {True, False}


def _mul_int_polys(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("p", [3, 5, 101, 1000003])
def test_poly_roots_are_every_root(p):
    # times x^2 - n for a non-residue n (Euler's criterion), which has no root
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    rng = random.Random(p)
    for _ in range(40):
        roots = sorted({rng.randrange(p) for _ in range(rng.randint(1, 6))})
        f = _mul_int_polys(_poly_from_roots(roots * 2, p), [-n, 0, 1])
        assert _poly_roots([c % p for c in f], p) == roots


def test_lifts_solves_and_place_values_leave_no_cyclic_garbage():
    # objects in a reference cycle, such as a local function that calls
    # itself, wait for the cyclic collector and raise the peak memory between
    # its runs; these paths free everything they make by reference counting
    F = GF(5)
    one, t = one_series(F, ZZ_GROUP), t_pow(F, ZZ_GROUP, 1)
    f1 = mpoly(("X", "Y"), {(2, 0): one, (0, 0): -(one + t)})
    f2 = mpoly(("X", "Y"), {(0, 2): one, (1, 0): -one, (0, 0): -t})
    place = place_from_json(json.loads(
        (Path(__file__).parent / "golden" / "places" / "frobenius_root_mixed.json").read_text()
    ))
    g = mpoly(("x1", "x2", "x3"), {(1, 0, 1): GF(2).one(), (0, 1, 0): GF(2).one()})
    gc.collect()
    gc.disable()
    try:
        for k in range(1, 21):
            c = make_series(F, ZZ_GROUP, [(0, -1), (k, 1)])
            hensel_lift(SeriesPoly((c, zero_series(F, ZZ_GROUP), one)), None, 32)
        implicit_solve([f1, f2], ("X", "Y"), (one, one), (), 16)
        place_value_residue(place, g)
        assert gc.collect() == 0
    finally:
        gc.enable()
