"""Newton inversion and the precision ladder.

invert is checked term by term against a geometric-series reference kept
in this file, on random inputs over several value groups and coefficient
fields.  The cost of inversion and lifting is pinned by counting the
products formed, which is deterministic where wall time is not: the calls
of mul_series, and the slot-level products invert's ladder forms directly.
"""

import random
import time
from fractions import Fraction
from math import ceil, log2

import pytest

from valuedfields import hensel, series
from valuedfields.errors import IterationCapError, PrecisionError
from valuedfields.fields import GF, QQ
from valuedfields.groups import QQ_GROUP, ZZ_GROUP, LexGroup, one_over_m, p_power_hull
from valuedfields.hensel import SeriesPoly, hensel_lift, make_system, newton_system
from valuedfields.polys import mpoly
from valuedfields.series import (
    invert, make_series, mul_series, one_series, sub_series, t_pow, zero_series,
)

GROUPS = [ZZ_GROUP, one_over_m(2), QQ_GROUP, p_power_hull(3)]
FIELDS = [GF(5), GF(2, 4), QQ]
DENOMINATORS = {ZZ_GROUP: [1], one_over_m(2): [1, 2], QQ_GROUP: [1, 2, 3, 5], p_power_hull(3): [1, 3, 9]}


def _geometric_inverse(a, target):
    """1/a modulo t^(target) as {exponent: coefficient}, by summing the
    powers of -u for a = c t^(g) (1 + u), one convolution at a time."""
    (g, c), rest = a.terms[0], a.terms[1:]
    cinv = c.inverse()
    rel = target + g
    zero, one = a.group.zero(), a.field.one()
    neg_u = {e - g: -(cinv * k) for e, k in rest if e - g < rel}
    total, power = ({zero: one} if zero < rel else {}), {zero: one}
    while power:
        nxt = {}
        for e1, c1 in power.items():
            for e2, c2 in neg_u.items():
                if e1 + e2 < rel:
                    nxt[e1 + e2] = nxt.get(e1 + e2, a.field.zero()) + c1 * c2
        power = {e: k for e, k in nxt.items() if not k.is_zero()}
        for e, k in power.items():
            total[e] = total.get(e, a.field.zero()) + k
    return {e - g: cinv * k for e, k in total.items() if not k.is_zero()}


def _random_element(rng, field):
    if field is QQ:
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 5]))
    while True:
        c = field.elem([rng.randrange(field.p) for _ in range(field.n)])
        if not c.is_zero():
            return c


def _random_exponent(rng, group, low, high):
    den = rng.choice(DENOMINATORS[group])
    return group.elem(Fraction(rng.randrange(low * den, high * den), den))


@pytest.mark.parametrize("seed", range(8))
def test_invert_matches_geometric_reference(seed):
    rng = random.Random(seed)
    for _ in range(25):
        group, field = rng.choice(GROUPS), rng.choice(FIELDS)
        terms = [(_random_exponent(rng, group, -3, 8), _random_element(rng, field))
                 for _ in range(rng.randrange(2, 6))]
        exact = rng.random() < 0.5
        known = None if exact else _random_exponent(rng, group, 2, 14)
        a = make_series(field, group, terms, known)
        if len(a.terms) < 2:
            continue
        n = _random_exponent(rng, group, -2, 10) if exact else _random_exponent(rng, group, 2, 20)
        g = a.terms[0][0]
        cap = n if exact else min(n, known - g - g)  # the inherent cap P - 2g
        inv = invert(a, n)
        assert inv.precision == cap
        assert dict(inv.terms) == _geometric_inverse(a, cap)
        check = sub_series(mul_series(a, inv), one_series(field, group))
        assert not check.terms  # a * invert(a) = 1 to the precision the product carries


LADDER_FIELDS = [GF(3), GF(101), GF(2**61 - 1), GF(2, 4), QQ]
LEX = LexGroup(2)
LADDER_GROUPS = {ZZ_GROUP: [1], one_over_m(6): [1, 2, 3, 6], p_power_hull(2): [1, 2, 4, 8], LEX: None}


def _ladder_exponent(rng, group, low, high):
    if group is LEX:  # mostly in the class of (0,1), now and then a class above
        return group.elem((int(rng.random() < 0.15), rng.randrange(low, high)))
    den = rng.choice(LADDER_GROUPS[group])
    return group.elem(Fraction(rng.randrange(low * den, high * den), den))


@pytest.mark.parametrize("seed", range(6))
def test_invert_ladder_matches_geometric_reference(seed):
    # every way the slot kernels hold coefficients (ints mod p, packed in
    # slots of up to 8 bytes and wider ones, F_{p^n} elements, Fractions),
    # and every kind of slot: m*e over Z, (1/m)Z and a p-power hull, lex
    # vectors
    rng = random.Random(1000 + seed)
    for _ in range(30):
        group, field = rng.choice(list(LADDER_GROUPS)), rng.choice(LADDER_FIELDS)
        terms = [(_ladder_exponent(rng, group, -2, 10), _random_element(rng, field))
                 for _ in range(rng.randrange(2, 14))]
        known = None if rng.random() < 0.5 else _ladder_exponent(rng, group, 2, 16)
        a = make_series(field, group, terms, known)
        if len(a.terms) < 2:
            continue
        g = a.terms[0][0]
        n = _ladder_exponent(rng, group, -1, 24)
        cap = n if known is None else min(n, known - g - g)
        u = a.terms[1][0] - g
        if group is LEX and u.data[0] == 0 and (cap + g).data[0] > 0 and u < cap + g:
            # no multiple of v(u) reaches the bound: infinitely many terms
            with pytest.raises(PrecisionError, match="infinitely many terms"):
                invert(a, n)
            continue
        inv = invert(a, n)
        assert inv.precision == cap
        assert dict(inv.terms) == _geometric_inverse(a, cap)


def test_invert_errors_are_pinned():
    f5 = GF(5)
    # the term cap: 1/(1 + t^(1/2^40)) fills a slot per 1/2^40 below t^1
    start = time.perf_counter()
    with pytest.raises(IterationCapError) as info:
        invert(make_series(f5, QQ_GROUP, [(0, 1), (Fraction(1, 2**40), 1)]), 1)
    assert time.perf_counter() - start < 1
    assert str(info.value) == "inverse has more than 1024 terms below t^(1)"
    # 70 rungs from 1/2^70 to 1
    with pytest.raises(IterationCapError) as info:
        invert(make_series(f5, QQ_GROUP, [(0, 1), (Fraction(1, 2**70), 1)]), 1)
    assert str(info.value) == "inverse needs more than 64 Newton steps"
    # a lex bound in the class above v(u)
    with pytest.raises(PrecisionError) as info:
        invert(make_series(f5, LEX, [((0, 0), 1), ((0, 1), 1)]), LEX.elem((1, 0)))
    assert str(info.value) == (
        "inverse has infinitely many terms below t^((1,0)): no multiple of v(u) = (0,1) reaches it"
    )


def test_invert_bound_in_higher_archimedean_class_fails_fast():
    lex = LexGroup(2)
    a = make_series(QQ, lex, [((0, 0), 1), ((0, 1), 1)])
    with pytest.raises(PrecisionError, match="infinitely many terms") as info:
        invert(a, precision=lex.elem((1, 0)))
    assert "\n" not in str(info.value)
    # in the same class the ladder is finite: 1/(1 + t^(0,1)) to t^(0,5)
    inv = invert(a, precision=lex.elem((0, 5)))
    assert [str(e) for e, _ in inv.terms] == [f"(0,{k})" for k in range(5)]
    b = make_series(QQ, lex, [((0, 0), 1), ((1, 0), 1), ((1, 3), 2)])
    inv = invert(b, precision=lex.elem((3, 0)))
    assert not sub_series(mul_series(b, inv), one_series(QQ, lex)).terms


def test_invert_term_budget_fails_fast():
    # 1/(1 + t^(1/2^k)) over F_2 has 2^k terms below t^1, one rung per doubling
    def unit(k):
        return make_series(GF(2), QQ_GROUP, [(0, 1), (Fraction(1, 2 ** k), 1)])

    assert len(invert(unit(10), 1).terms) == 1024
    start = time.perf_counter()
    with pytest.raises(IterationCapError, match=f"more than {series._MAX_TERMS} terms") as info:
        invert(unit(40), 1)
    assert time.perf_counter() - start < 5
    assert "\n" not in str(info.value)


def test_lex_lift_beyond_the_class_of_its_residuals_fails_fast():
    # the root of X^2 = 1 + t^(0,1) over F_5 has infinitely many terms below
    # t^(1,0): each ladder step used to double them until the 64-step cap
    lex, field = LexGroup(2), GF(5)
    one, y = one_series(field, lex), t_pow(field, lex, (0, 1))
    start = time.perf_counter()
    with pytest.raises((PrecisionError, IterationCapError)) as info:
        hensel_lift(SeriesPoly((-(one + y), zero_series(field, lex), one)), one, lex.elem((1, 0)))
    assert time.perf_counter() - start < 2
    assert "\n" not in str(info.value)
    # a root with finitely many terms there is still reached, in one step
    out = hensel_lift(SeriesPoly((-y, one)), zero_series(field, lex), lex.elem((1, 0)))
    assert [str(v) for v in out.steps] == ["(0,1)"]
    assert out.root.terms == y.terms


def _count_products(monkeypatch):
    """A list that gains one entry per product formed: each mul_series call,
    and each slot-level product formed outside mul_series (invert's ladder)."""
    calls, inside = [], []
    mul_slots = series._mul_slots

    def counting(a, b):
        calls.append(1)
        inside.append(1)
        try:
            return mul_series(a, b)
        finally:
            inside.pop()

    def counting_slots(*args):
        if not inside:
            calls.append(1)
        return mul_slots(*args)

    monkeypatch.setattr(series, "mul_series", counting)
    monkeypatch.setattr(hensel, "mul_series", counting)
    monkeypatch.setattr(series, "_mul_slots", counting_slots)
    return calls


def _dense(rng, field, low, n, unit=False):
    terms = [(e, rng.randrange(1, field.p)) for e in range(low, n)]
    return make_series(field, ZZ_GROUP, ([(0, 1)] if unit else []) + terms, n)


def test_invert_uses_logarithmically_many_products(monkeypatch):
    # the geometric expansion took 64 products here
    u = _dense(random.Random(7), GF(3), 1, 64, unit=True)
    calls = _count_products(monkeypatch)
    inv = invert(u, 64)
    assert 0 < len(calls) <= 2 * ceil(log2(64)) + 2
    assert dict(inv.terms) == _geometric_inverse(u, ZZ_GROUP.elem(64))


def test_invert_builds_one_series(monkeypatch):
    # the ladder runs on slot lists; only the result is a Series
    built = []
    check = series.Series.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    u = _dense(random.Random(8), GF(5), 1, 40, unit=True)
    monkeypatch.setattr(series.Series, "__post_init__", counting)
    inv = invert(u, 40)
    assert built == [inv]
    assert len(inv.terms) > 30


def test_dense_cubic_lift_uses_fewer_products(monkeypatch):
    # a full-precision Newton step with geometric inversion took 440
    # products for this lift
    rng = random.Random(11)
    field = GF(3)
    coeffs = (_dense(rng, field, 1, 64),) + tuple(_dense(rng, field, 0, 64) for _ in range(3))
    calls = _count_products(monkeypatch)
    out = hensel_lift(SeriesPoly(coeffs), None, 64)
    assert [str(v) for v in out.steps] == ["1", "2", "4", "8", "16", "32"]
    assert len(calls) < 440


def test_ladder_keeps_steps_when_newton_converges_early():
    # a linear f is solved by one correction, and X^4 + X + c over F_2
    # quadruples its residual valuation: both outrun the ladder's margin,
    # so the ladder must redo a correction rather than log a truncation
    rng = random.Random(3)
    f5, f2 = GF(5), GF(2)
    linear = SeriesPoly((_dense(rng, f5, 2, 40), _dense(rng, f5, 0, 40)))
    c = _dense(rng, f2, 1, 64)
    zero = make_series(f2, ZZ_GROUP, [], None)
    quartic = SeriesPoly((c, make_series(f2, ZZ_GROUP, [(0, 1)]), zero, zero,
                          make_series(f2, ZZ_GROUP, [(0, 1)])))
    for f, n, steps in ((linear, 40, ["2"]), (quartic, 64, ["1", "4", "16"])):
        out = hensel_lift(f, None, n)
        assert [str(v) for v in out.steps] == steps
        assert not f.eval(out.root).terms


def test_ladder_widens_a_residual_evaluated_too_close_to_its_precision(monkeypatch):
    # X^3 - X - t over F_3 converges faster than quadratically: the residual
    # after the first step is zero below t^8, so it is read again to t^12
    # rather than at the target, and the ladder stays on to t^81
    field = GF(3)
    s = lambda *terms: make_series(field, ZZ_GROUP, list(terms))
    f = SeriesPoly((s((1, -1)), s((0, -1)), s(), s((0, 1))))
    belows = []
    plain = SeriesPoly.eval

    def recording(poly, a, below=None):
        belows.append(int(str(below)))
        return plain(poly, a, below)

    monkeypatch.setattr(SeriesPoly, "eval", recording)
    out = hensel_lift(f, None, 81)
    assert [str(v) for v in out.steps] == ["1", "3", "9", "27"]
    # the automatic start is not checked: the first residual at the target,
    # then residuals and derivatives
    assert belows == [81, 3, 8, 12, 9, 24, 36, 27, 72, 81, 54, 81]


def test_ladder_keeps_the_precision_of_a_start_known_to_less_than_the_target():
    # X^2 = 1 + t, Y^2 = X + t over F_5 from Y known only to O(t^(p)): the
    # roots carry what the start determines, as at full precision
    field = GF(5)
    one = one_series(field, ZZ_GROUP)
    t = make_series(field, ZZ_GROUP, [(1, 1)])
    f1 = mpoly(("X", "Y"), {(2, 0): one, (0, 0): -(one + t)})
    f2 = mpoly(("X", "Y"), {(0, 2): one, (1, 0): -one, (0, 0): -t})
    for p, precisions, steps in ((3, ["4", "3"], ["1", "2"]), (5, ["6", "5"], ["1", "2", "4"])):
        start = (one, make_series(field, ZZ_GROUP, [(0, 1)], p))
        out = newton_system(make_system([f1, f2], ("X", "Y"), start), 16)
        assert [str(r.precision) for r in out.roots] == precisions
        assert [str(v) for v in out.steps] == steps


def test_ladder_keeps_the_precision_lost_to_coefficients_of_negative_valuation():
    # t^(-k) times a variable of positive valuation costs J(a), det J(a) or
    # the correction precision when the ladder cuts a; the roots carry the
    # precision and the steps of a lift run at the target throughout
    def case(p, f1, f2, start, n):
        field = GF(p)
        s = lambda *terms: make_series(field, ZZ_GROUP, list(terms))
        one = one_series(field, ZZ_GROUP)
        polys = [mpoly(("X", "Y"), {m: s(*c) if c else one for m, c in f.items()})
                 for f in (f1, f2)]
        out = newton_system(make_system(polys, ("X", "Y"), tuple(s(*x) for x in start)), n)
        return [str(r.precision) for r in out.roots], [str(v) for v in out.steps]

    # X = t, t^-1*X*Y + Y + Y^2 = 2t + t^2 + t^3 from (t, t): J(a) loses
    assert case(5, {(1, 0): (), (0, 0): ((1, -1),)},
                {(1, 1): ((-1, 1),), (0, 1): (), (0, 2): (), (0, 0): ((1, -2), (2, -1), (3, -1))},
                (((1, 1),), ((1, 1),)), 32) == (["32", "32"], ["3", "6", "12", "24"])
    # X + t^-2*Y^2 = t^4 + t^6 + t^9, Y + X*Y = t^3 + t^7 + 2t^8: the correction loses
    f1 = {(1, 0): (), (0, 2): ((-2, 1),), (0, 0): ((4, -1), (6, -1), (9, -1))}
    f2 = {(0, 1): (), (1, 1): (), (0, 0): ((3, -1), (7, -1), (8, -2))}
    for n in (14, 20):
        assert case(3, f1, f2, (((4, 1),), ((3, 1),)), n) == ([str(n)] * 2, ["4", "11"])
    # X = t^4, Y + t^-3*X*Y + Y^2 = t + t^3 from (t^4, 0): det J(a) loses
    # all of its precision on the first rung
    assert case(3, {(1, 0): (), (0, 0): ((4, -1),)},
                {(0, 1): (), (1, 1): ((-3, 1),), (0, 2): (), (0, 0): ((1, -1), (3, -1))},
                (((4, 1),), ()), 16) == (["16", "14"], ["1", "2", "4", "8"])


def test_ladder_turns_off_when_a_residual_is_known_to_less_than_it_was_read_to():
    # X + 2t^4 = 0, Y + t^-3*X*Y^2 + 2t = 0 over F_3 from exact (0, 0): once X
    # is read to a precision, the factor t^-3 leaves the second residual known
    # to less than that, so the ladder turns off and the lift runs at the
    # target from then on
    field = GF(3)
    s = lambda *terms: make_series(field, ZZ_GROUP, list(terms))
    one = one_series(field, ZZ_GROUP)
    f1 = mpoly(("X", "Y"), {(1, 0): one, (0, 0): s((4, 2))})
    f2 = mpoly(("X", "Y"), {(0, 1): one, (1, 2): s((-3, 1)), (0, 0): s((1, 2))})
    out = newton_system(make_system([f1, f2], ("X", "Y"), (s(), s())), 16)
    x, y = out.roots
    assert x == make_series(field, ZZ_GROUP, [(4, 1)], 16)
    assert y == make_series(field, ZZ_GROUP, [(1, 1), (3, 2), (5, 2), (7, 1), (9, 2)], 15)
    assert [str(v) for v in out.steps] == ["1", "3", "7"]
    residuals = [hensel.eval_poly_at_series(f, {"X": x, "Y": y}, field, ZZ_GROUP)
                 for f in (f1, f2)]
    assert [(r.terms, str(r.precision)) for r in residuals] == [((), "16"), ((), "15")]
