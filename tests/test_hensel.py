import random
import time
from fractions import Fraction

import pytest

from valuedfields.errors import (
    HypothesisError,
    IterationCapError,
    NoResidueRootError,
    ParamError,
    PerturbationError,
    PrecisionError,
    SingularPointError,
)
from valuedfields.fields import GF, QQ, _poly_roots
from valuedfields.groups import LexGroup, ZZ_GROUP, one_over_m
from valuedfields.hensel import (
    SeriesPoly,
    _divisors,
    _find_residue_root,
    eval_poly_at_series,
    hensel_lift,
    implicit_solve,
    make_system,
    newton_system,
)
from valuedfields.polys import mpoly
from valuedfields.series import (
    Series,
    add_series,
    frobenius_root,
    make_series,
    mul_series,
    one_series,
    stream_expand,
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
    sysi = make_system([mpoly(("X",), {(2,): one, (0,): -u})], ("X",), (one,))
    system = newton_system(sysi, 9)
    assert out.root == unit_nth_root(u, 2, 9) == system.roots[0]
    assert out.steps == system.steps
    assert [str(v) for v in out.steps] == ["1", "2", "4", "8"]


def test_newton_step_cap(monkeypatch):
    F = GF(2)
    monkeypatch.setattr("valuedfields.series._MAX_STEPS", 2)
    with pytest.raises(IterationCapError, match="did not reach the target"):
        hensel_lift(_artin_schreier_poly(F, 2), zero_series(F, ZZ_GROUP), 16)
    one = one_series(F, ZZ_GROUP)
    f = mpoly(("X",), {(2,): one, (1,): -one, (0,): -t_pow(F, ZZ_GROUP, 1)})
    sysi = make_system([f], ("X",), (zero_series(F, ZZ_GROUP),))
    monkeypatch.setattr("valuedfields.series._MAX_STEPS", 1)
    with pytest.raises(IterationCapError, match="did not reach the target"):
        newton_system(sysi, 8)


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
    sysi = make_system([f1, f2], ("X", "Y"), (one, one))
    out = newton_system(sysi, 6)
    x, y = out.roots
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


def test_newton_system_matches_hensel_n1():
    F = GF(2)
    one = one_series(F, ZZ_GROUP)
    t = t_pow(F, ZZ_GROUP, 1)
    f = mpoly(("X",), {(2,): one, (1,): -one, (0,): -t})
    sysi = make_system([f], ("X",), (zero_series(F, ZZ_GROUP),))
    out = newton_system(sysi, 8)
    lift = hensel_lift(_artin_schreier_poly(F, 2), zero_series(F, ZZ_GROUP), 8)
    assert out.roots[0] == lift.root
    assert out.steps == lift.steps


def test_newton_exact_root_unchanged():
    F = GF(3)
    one = one_series(F, ZZ_GROUP)
    t = t_pow(F, ZZ_GROUP, 1)
    f = mpoly(("X",), {(1,): one, (0,): -t})  # X - t
    sysi = make_system([f], ("X",), (t,))
    out = newton_system(sysi, 5)
    assert out.steps == ()
    assert out.roots[0] == truncate(t, 5)


def test_newton_singular_jacobian():
    F = GF(2)
    one = one_series(F, ZZ_GROUP)
    t = t_pow(F, ZZ_GROUP, 1)
    f = mpoly(("X",), {(2,): one, (0,): -t})  # derivative 2X = 0
    sysi = make_system([f], ("X",), (zero_series(F, ZZ_GROUP),))
    with pytest.raises(SingularPointError):
        newton_system(sysi, 4)


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
    sysi = make_system(polys, names, (one,) * 5)
    out = newton_system(sysi, 4)
    root = unit_nth_root(one + t, 2, 4)
    for r in out.roots:
        assert r == root


def _cusp_system(F):
    one = one_series(F, ZZ_GROUP)
    f = mpoly(("X", "Y"), {(0, 2): one, (3, 0): -one})  # Y^2 - X^3
    return f, one


def test_implicit_cusp_smooth_center():
    F = GF(7)
    f, one = _cusp_system(F)
    start = (_const(F, 2), _const(F, 1))  # 2^3 = 1 = 1^2 in F_7
    sysi = make_system([f], ("X", "Y"), start)
    x_new = make_series(F, ZZ_GROUP, [(0, 2), (1, 1)])  # 2 + s
    out = implicit_solve(sysi, (x_new,), 6)
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
    sysi = make_system([f], ("X", "Y"), start)
    with pytest.raises(SingularPointError):
        implicit_solve(sysi, (t_pow(F, ZZ_GROUP, 1),), 6)


def test_implicit_zero_perturbation_is_identity():
    F = GF(7)
    f, one = _cusp_system(F)
    start = (_const(F, 2), _const(F, 1))
    sysi = make_system([f], ("X", "Y"), start)
    out = implicit_solve(sysi, (start[0],), 6)
    assert out.steps == ()
    assert out.solved[0] == truncate(start[1], 6)


def test_implicit_solution_is_fixed_point():
    F = GF(7)
    f, one = _cusp_system(F)
    start = (_const(F, 2), _const(F, 1))
    sysi = make_system([f], ("X", "Y"), start)
    x_new = make_series(F, ZZ_GROUP, [(0, 2), (1, 1)])
    first = implicit_solve(sysi, (x_new,), 6)
    sys2 = make_system([f], ("X", "Y"), (x_new, first.solved[0]))
    second = implicit_solve(sys2, (x_new,), 6)
    assert second.steps == ()
    assert second.solved[0] == first.solved[0]


def test_implicit_perturbation_threshold():
    F = GF(7)
    f, one = _cusp_system(F)
    start = (_const(F, 2), _const(F, 1))
    sysi = make_system([f], ("X", "Y"), start)
    bad = make_series(F, ZZ_GROUP, [(0, 3), (1, 1)])  # changes the residue
    with pytest.raises(PerturbationError):
        implicit_solve(sysi, (bad,), 6)


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
    sysi = make_system([f1, f2], vars, (zero, zero, zero))
    out = implicit_solve(sysi, (t_pow(F, ZZ_GROUP, 3),), 10)
    assert out.alpha == ZZ_GROUP.elem(1)
    x, y = out.solved
    assert x == make_series(F, ZZ_GROUP, [(3, 1), (4, 4)], 10)
    assert y == make_series(F, ZZ_GROUP, [(3, 1)], 10)
    with pytest.raises(PerturbationError, match="threshold 2"):
        implicit_solve(sysi, (t_pow(F, ZZ_GROUP, 2),), 10)


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
            with pytest.raises(NoResidueRootError) as info:
                _find_residue_root(coeffs)
            assert info.value.witness == [str(field.elem(c)) for c in ints]
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
