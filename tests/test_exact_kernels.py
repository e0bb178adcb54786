"""The integer kernels of exact polynomials against the loops they replaced.

places._eval_lead finds the orders of vanishing at a point in one pass over
the slots of a polynomial: the value of each row of slots there and, where
every row vanishes, the sparse sum of its Taylor coefficient or synthetic
division on its dense slots.  MPoly.__mul__ multiplies by the slot product
it shares with Series, polys._mul_slots: Kronecker substitution over Q and
F_p, the term-pair loop otherwise.  The references below are the
term-by-term forms: the sum of c * C(e, k) * a^(e-k) over the terms, one
variable at a time, and the loop over every term pair.  Both sides must
give identical orders and coefficients, and identical polynomials, term for
term.
"""

import math
import random
import time
from fractions import Fraction
from math import comb

import pytest

from valuedfields import places, polys
from valuedfields.errors import FieldMismatchError, ParamError
from valuedfields.fields import GF, QQ
from valuedfields.groups import ZZ_GROUP
from valuedfields.places import EvalPlace, place_residue, place_value, place_value_residue
from valuedfields.polys import MPoly, RatFn
from valuedfields.series import POLE, ZERO, make_series, mul_series


def _reference_taylor(g, var, a):
    """The least k with a nonzero coefficient of (var - a)^k in g, and that
    coefficient: sum of c * C(e, k) * a^(e-k) * rest over the terms."""
    if var not in g.vars:
        return 0, g
    i = g.vars.index(var)
    terms = [(exps[i], exps[:i] + exps[i + 1:], c) for exps, c in g.terms]
    a_pow = [a.field.one()]
    if a.is_zero():
        k = min(e for e, _, _ in terms)
    else:
        for _ in range(max(e for e, _, _ in terms)):
            a_pow.append(a_pow[-1] * a)
        k = 0
    while True:
        coeff = {}
        for e, rest, c in terms:
            if 0 <= e - k < len(a_pow):
                x = (c * a_pow[e - k]).times_int(comb(e, k))
                coeff[rest] = coeff[rest] + x if rest in coeff else x
        lowest = tuple(sorted((e, c) for e, c in coeff.items() if not c.is_exact_zero()))
        if lowest:
            return k, MPoly(g.vars[:i] + g.vars[i + 1:], lowest)
        k += 1


def _reference_product(a, b):
    """a * b by the loop over every term pair."""
    acc = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    return MPoly.make(a.vars, acc)


def _draw(rng, field):
    """A random element, often zero or small, over Q with fractions too."""
    if field == QQ:
        return field.elem(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7))))
    if field.n == 1:
        return field.elem(rng.randrange(field.p))
    return field.elem([rng.randrange(field.p) for _ in range(field.n)])


def _random_poly(rng, field, names, count, top):
    terms = {tuple(rng.randint(0, top) for _ in names): _draw(rng, field) for _ in range(count)}
    return MPoly.make(names, terms)


def _linear(names, v, a):
    """names[v] - a."""
    one = a.field.one()
    unit = tuple(int(j == v) for j in range(len(names)))
    return MPoly.make(names, {unit: one, (0,) * len(names): -a})


_FIELDS = [QQ, GF(2), GF(5), GF(7), GF(3, 2)]


def _taylor_case(rng, field):
    names = ("x", "y", "z")[: rng.randint(1, 3)]
    # over F_p the degree may pass p, where the binomials vanish mod p
    top = 3 if field == QQ else rng.choice((3, field.p + 2))
    g = MPoly(names, ())
    while g.is_zero():
        g = _random_poly(rng, field, names, rng.randint(1, 5), top)
    v = rng.randrange(len(names))
    a = _draw(rng, field) if rng.random() < 0.85 else field.zero()
    for _ in range(rng.randint(0, 4)):
        g = g * _linear(names, v, a)
    if field != QQ and rng.random() < 0.2:
        g = g * _linear(names, v, a) ** field.p
    var = names[v] if rng.random() < 0.95 else "w"
    return g, var, a


def _reference_lead(P, g):
    """The orders of g along P's coordinates and its lowest coefficient, by
    _reference_taylor one variable at a time; the shift budget is checked
    on the polynomial each variable before leaves."""
    coords = []
    for var, a in P.assignments:
        if var in g.vars and not a.is_zero():
            i = g.vars.index(var)
            top = max(exps[i] for exps, _ in g.terms)
            if top > places._MAX_SHIFT_DEGREE:
                raise ParamError(
                    f"degree {top} in {var} exceeds the Taylor shift budget of {places._MAX_SHIFT_DEGREE}"
                )
        k, g = _reference_taylor(g, var, a)
        coords.append(k)
    return tuple(coords), g.terms[0][1]


def _place_first(rng, field, var, a, names):
    """An evaluation place assigning var -> a first, then the other names in
    a shuffled order at random points, zero now and then."""
    rest = [v for v in names if v != var]
    rng.shuffle(rest)
    return EvalPlace(field, ((var, a),) + tuple(
        (v, _draw(rng, field) if rng.random() < 0.8 else field.zero()) for v in rest
    ))


@pytest.mark.parametrize("field", _FIELDS, ids=str)
def test_taylor_kernel_matches_the_binomial_sum(field):
    rng = random.Random(f"taylor/{field}")
    orders = set()
    for _ in range(220):
        g, var, a = _taylor_case(rng, field)
        P = _place_first(rng, field, var, a, g.vars)
        got = places._eval_lead(P, g)
        assert got == _reference_lead(P, g), (g, P)
        orders.add(got[0][0])
    assert max(orders) >= 4  # the cases reach high orders of vanishing


def test_taylor_kernel_at_fractional_points_over_q():
    # G(y) = m^top * g(y/m) runs over Z; the coefficients scale back exactly
    rng = random.Random("taylor/fractions")
    for _ in range(60):
        a = QQ.elem(Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(2, 9)))
        g = _random_poly(rng, QQ, ("x", "y"), rng.randint(1, 4), 4)
        if g.is_zero():
            continue
        g = g * _linear(("x", "y"), 0, a) ** rng.randint(1, 6)
        P = _place_first(rng, QQ, "x", a, g.vars)
        assert places._eval_lead(P, g) == _reference_lead(P, g)


def _sparse_high_rows(field):
    """x^1280 * (y + ... + y^300) + 1: 301 rows in x, 300 of them one term
    of degree 1280."""
    one = field.one()
    return MPoly.make(("x", "y"), {**{(1280, j): one for j in range(1, 301)}, (0, 0): one})


_SPARSE_POINTS = ((QQ, Fraction(-7, 3)), (GF(7), 3), (GF(3, 2), [1, 2]))


def test_sparse_rows_of_high_degree_cost_their_terms():
    # the values at the point, from powers shared by the rows, give k = 0
    # with no dense row of 1281 slots built
    for field, a in _SPARSE_POINTS:
        g = _sparse_high_rows(field)
        P = EvalPlace(field, (("x", field.elem(a)), ("y", field.elem(2))))
        start = time.perf_counter()
        got = places._eval_lead(P, g)
        assert time.perf_counter() - start < 0.05
        assert got == _reference_lead(P, g)
        assert got[0][0] == 0


def _vanishing_rows(field, a, b):
    """(x1^1000 - a^1000) * (x2 + ... + x2^300) at x1 -> a, x2 -> b: 300 rows
    in x1 that all vanish at a, each two terms of degree 1000, so k = 1."""
    one, a = field.one(), field.elem(a)
    top = -(a ** 1000)
    g = MPoly.make(("x1", "x2"), {
        **{(1000, j): one for j in range(1, 301)}, **{(0, j): top for j in range(1, 301)}
    })
    return EvalPlace(field, (("x1", a), ("x2", field.elem(b)))), g


_VANISHING_POINTS = ((QQ, 2, 3), (QQ, Fraction(-7, 3), 3), (GF(7), 2, 3), (GF(1_000_003), 2, 3))


def test_vanishing_sparse_rows_take_no_synthetic_division(monkeypatch):
    # a count guard beside the wall bounds: the order 1 of each row comes
    # from its sparse sum, and no row turns dense
    calls = []
    for name in ("_divide", "_dense_quotient"):
        kernel = getattr(places, name)
        monkeypatch.setattr(
            places, name, lambda *args, name=name, kernel=kernel: calls.append(name) or kernel(*args)
        )
    # over F_7 the x2 row, 3 + ... + 3^300, vanishes too and is dense
    for field, a, b in _VANISHING_POINTS:
        if field != GF(7):
            P, g = _vanishing_rows(field, a, b)
            got = places._eval_lead(P, g)
            assert got == _reference_lead(P, g)
            assert got[0] == (1, 0)
    assert calls == []
    # a dense row does divide: (x - 2)^3 * (x + 1)
    g = _linear(("x",), 0, QQ.elem(2)) ** 3 * _linear(("x",), 0, QQ.elem(-1))
    assert places._eval_lead(EvalPlace(QQ, (("x", QQ.elem(2)),)), g)[0] == (3,)
    assert calls[0] == "_dense_quotient" and "_divide" in calls


def test_a_two_variable_place_builds_no_polynomial_between_its_variables(monkeypatch):
    rng = random.Random("taylor/no-mpoly")
    names = ("x", "y")
    cases = []
    for field in _FIELDS:
        a, b = _draw(rng, field), _draw(rng, field)
        P = EvalPlace(field, (("x", a), ("y", b)))
        for _ in range(10):
            num = MPoly(names, ())
            while num.is_zero():
                num = _random_poly(rng, field, names, rng.randint(1, 4), 3)
            den = _linear(names, 0, a + field.one())
            for _ in range(rng.randint(0, 3)):
                num = num * _linear(names, 0, a)
            for _ in range(rng.randint(0, 2)):
                num, den = num * _linear(names, 1, b), den * _linear(names, 1, b)
            cases.append((P, RatFn.make(num, den)))
    built = []
    init = MPoly.__init__
    monkeypatch.setattr(MPoly, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    MPoly(names, ())
    assert built == [1]  # the spy sees a construction
    built.clear()
    for P, f in cases:
        place_value(P, f), place_residue(P, f), place_value_residue(P, f)
    assert built == []


def test_taylor_degree_budget_fails_before_any_row(monkeypatch):
    rows = []
    coeffs = places._taylor_coeffs
    monkeypatch.setattr(places, "_taylor_coeffs", lambda *args: rows.append(1) or coeffs(*args))
    g = MPoly.make(("x",), {(10**12,): QQ.one(), (0,): QQ.one()})
    start = time.perf_counter()
    with pytest.raises(ParamError, match="Taylor shift budget"):
        places._eval_lead(EvalPlace(QQ, (("x", QQ.elem(2)),)), g)
    assert time.perf_counter() - start < 0.1
    # a degree-1281 row at a nonzero point, after a first variable it passes
    g = MPoly.make(("x", "y"), {(0, 1281): QQ.one(), (1, 0): QQ.one()})
    with pytest.raises(ParamError, match="degree 1281 in y"):
        places._eval_lead(EvalPlace(QQ, (("x", QQ.zero()), ("y", QQ.elem(Fraction(100, 37))))), g)
    assert rows == []


# ---------------------------------------------------------------------------
# evaluation places against the reference, one variable at a time


def _diff_point(rng, field, fractional):
    if rng.random() < 0.2:
        return field.zero()
    if field == QQ and not fractional:
        return QQ.elem(rng.choice((-3, -2, -1, 1, 2, 3)))
    if field == QQ:
        return QQ.elem(Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(2, 9)))
    return _draw(rng, field)


def _diff_poly(rng, field, names, point):
    """A nonzero polynomial in names: random terms, now and then sparse rows
    of high degree or a term past the shift budget, times factors
    (x - a)^k at the point, in characteristic p sometimes (x - a)^p."""
    small = 4 if field == QQ else field.p + 2
    g = MPoly(names, ())
    while g.is_zero():
        g = _random_poly(rng, field, names, rng.randint(1, 5), small)
    shape = rng.random()
    if shape < 0.12:
        v = rng.randrange(len(names))
        top = rng.choice((100, 400, 1280))
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = [rng.randint(0, 2) for _ in names]
            exps[v] = rng.choice((top, rng.randint(0, top)))
            terms[tuple(exps)] = _draw(rng, field)
        g = g + MPoly.make(names, terms)
    elif shape < 0.15:
        exps = [0] * len(names)
        exps[rng.randrange(len(names))] = 1281
        g = g + MPoly.make(names, {tuple(exps): field.one()})
    for v in range(len(names)):
        if rng.random() < 0.6:
            g = g * _linear(names, v, point[v]) ** rng.randint(1, 3)
        if field != QQ and rng.random() < 0.15:
            g = g * _linear(names, v, point[v]) ** field.p
    return g if not g.is_zero() else MPoly.make(names, {(0,) * len(names): field.one()})


def _reference_outcomes(P, f):
    """(value row, residue, both) by _reference_lead on num and den; an error
    stands for all three, as place_value raises it first."""
    try:
        v_num, lead_num = _reference_lead(P, f.num)
        v_den, lead_den = _reference_lead(P, f.den)
    except ParamError as exc:
        return [(ParamError, str(exc))] * 3
    row = tuple([x - y for x, y in zip(v_num, v_den)])
    sign = next((x for x in row if x), 0)
    residue = ZERO if sign > 0 else POLE if sign < 0 else lead_num / lead_den
    return [row, residue, (row, residue)]


def _outcomes(P, f):
    row = lambda v: v.value.data if type(v.value.data) is tuple else (v.value.data,)
    out = []
    for fn in (place_value, place_residue, place_value_residue):
        try:
            got = fn(P, f)
        except ParamError as exc:
            out.append((ParamError, str(exc)))
            continue
        if fn is place_value:
            got = row(got)
        elif fn is place_value_residue:
            got = (row(got[0]), got[1])
        out.append(got)
    return out


_DIFF_KINDS = [(QQ, False), (QQ, True), (GF(2), False), (GF(5), False), (GF(7), False), (GF(3, 2), False)]


@pytest.mark.parametrize("field, fractional", _DIFF_KINDS, ids=["Q", "Q-fractions", "F2", "F5", "F7", "F9"])
def test_evaluation_places_match_the_reference_variable_by_variable(field, fractional):
    # 6 x 180 seeded cases, 1,080 in all, in 1 to 3 variables
    rng = random.Random(f"eval-diff/{field}/{fractional}")
    seen = {"error": 0, "ZERO": 0, "POLE": 0, "residue": 0, "high order": 0}
    for _ in range(180):
        names = ("x", "y", "z")[: rng.randint(1, 3)]
        point = [_diff_point(rng, field, fractional) for _ in names]
        order = list(range(len(names)))
        rng.shuffle(order)
        P = EvalPlace(field, tuple((names[i], point[i]) for i in order))
        num = _diff_poly(rng, field, names, point)
        den = _diff_poly(rng, field, names, point)
        f = RatFn.make(num, den)
        want = _reference_outcomes(P, f)
        assert _outcomes(P, f) == want, (P, f)
        residue = want[1]
        kind = "error" if isinstance(residue, tuple) else (
            "ZERO" if residue is ZERO else "POLE" if residue is POLE else "residue"
        )
        seen[kind] += 1
        seen["high order"] += kind != "error" and max(want[0]) >= 3
    assert all(seen.values()), seen


def test_sparse_vanishing_rows_match_the_reference_on_every_route(monkeypatch):
    # vanishing sparse rows, alone and over x2 - b, and two rows times
    # (x1 - a)^3: the three calls by the rule, and the leads by sparse sums
    # only and by dense rows only, all as the reference gives them
    cases = []
    for field, a, b in _VANISHING_POINTS:
        P, g = _vanishing_rows(field, a, b)
        cases += [(P, RatFn.from_poly(g, field)), (P, RatFn.make(g, _linear(g.vars, 1, field.elem(b))))]
    one = QQ.one()
    for a in (2, Fraction(-7, 3)):
        x = QQ.elem(a)
        row = MPoly.make(("x1", "x2"), {(300, 0): one, (0, 0): -(x ** 300), (2, 1): one})
        g = row * _linear(("x1", "x2"), 0, x) ** 3
        cases.append((EvalPlace(QQ, (("x1", x), ("x2", one))), RatFn.from_poly(g, QQ)))
    for P, f in cases:
        assert _outcomes(P, f) == _reference_outcomes(P, f)
    polys = {f.num: (P, _reference_lead(P, f.num)) for P, f in cases}
    for reach in (math.inf, 0):
        monkeypatch.setattr(places, "_SPARSE_TAYLOR_REACH", reach)
        for g, (P, lead) in polys.items():
            assert places._eval_lead(P, g) == lead, reach


_PRODUCT_FIELDS = [QQ, GF(2), GF(7), GF(2**61 - 1)]


def _product_operand(rng, field, names):
    kind = rng.random()
    if kind < 0.08:
        return MPoly(names, ())
    if kind < 0.16:
        return MPoly.make(names, {(0,) * len(names): _draw(rng, field)})
    if kind < 0.24:  # sparse: exponents up to 10^9
        return _random_poly(rng, field, names, rng.randint(1, 4), 10**9)
    return _random_poly(rng, field, names, rng.randint(1, 12), rng.choice((2, 4, 9)))


@pytest.mark.parametrize("field", _PRODUCT_FIELDS, ids=str)
def test_product_kernel_matches_the_pair_loop(field, monkeypatch):
    rng = random.Random(f"product/{field}")
    cases = []
    for _ in range(60):
        names = ("x", "y", "z")[: rng.randint(1, 3)]
        cases.append((_product_operand(rng, field, names), _product_operand(rng, field, names)))
    for a, b in cases:
        assert a * b == _reference_product(a, b), (a, b)
    # Kronecker wherever it applies, on all but the sparse operands, whose
    # windows of 10^9 slots and more only the cost rule keeps from being built
    monkeypatch.setattr(polys, "_PAIR_COST", math.inf)
    for a, b in cases:
        if max((max(e) for e, _ in a.terms + b.terms), default=0) < 100:
            assert a * b == _reference_product(a, b), (a, b)


def _series_reference(a, b):
    """The terms of the Series product a * b below its precision, by the
    loop over every term pair, with exponents and coefficients as data."""
    prec = min(p + low for p, low in ((a.precision, b.terms[0][0]), (b.precision, a.terms[0][0]))
               if p is not None)
    acc = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            if e1 + e2 < prec:
                e = (e1 + e2).data
                acc[e] = acc.get(e, 0) + c1.data * c2.data
    return sorted((e, c) for e, c in acc.items() if c), prec


def test_product_kernel_reads_signed_slots_back(monkeypatch):
    seen = []
    kronecker = polys._mul_kronecker
    monkeypatch.setattr(polys, "_mul_kronecker", lambda *args: seen.append(1) or kronecker(*args))
    # negative slot sums sit beside positive ones, and every sum cancels in
    # (x - 1)(x + 1)(x^2 + 1) = x^4 - 1 but the outer two
    x = lambda *terms: MPoly.make(("x",), {(e,): QQ.elem(c) for e, c in terms})
    assert x((1, 1), (0, -1)) * x((1, 1), (0, 1)) * x((2, 1), (0, 1)) == x((4, 1), (0, -1))
    a = x(*((e, Fraction((-1) ** e * (e + 1), 3)) for e in range(40)))
    b = x(*((e, Fraction(-(e % 5) - 1, 2)) for e in range(30)))
    assert a * b == _reference_product(a, b)
    # a slot sum of +-2c^2, at the bound, unsigned, and signed at each end of
    # the slot, which is just wide enough: 8 bytes for c = 2^31 - 1, 9 for
    # c = 2^31 and 11 for 2^43 - 1
    for c in (2**31 - 1, 2**31, 2**43 - 1):
        a, cc = x((0, c), (1, c)), c * c
        for b, want in (
            (a, x((0, cc), (1, 2 * cc), (2, cc))),
            (-a, x((0, -cc), (1, -2 * cc), (2, -cc))),
            (x((0, c), (1, c), (2, -c)), x((0, cc), (1, 2 * cc), (3, -cc))),
        ):
            assert a * b == _reference_product(a, b) == want
    # a Q series with mixed denominators and negative coefficients, cut at
    # t^51: the slots at and above the cut are never read back
    a = make_series(QQ, ZZ_GROUP, [(e, Fraction((-1) ** e * (e + 1), e % 4 + 1)) for e in range(40)], 50)
    b = make_series(QQ, ZZ_GROUP, [(e, Fraction(-(e % 5) - 1, e % 3 + 2)) for e in range(1, 30)])
    seen.clear()
    product = mul_series(a, b)
    assert seen == [1]
    assert ([(e.data, c.data) for e, c in product.terms], product.precision) == _series_reference(a, b)
    assert product.precision == ZZ_GROUP.elem(51)


def test_products_with_series_coefficients_match_the_pair_loop():
    F, G = GF(5), ZZ_GROUP
    names = ("x", "y")

    def s(terms, prec=None):
        return make_series(F, G, terms, prec)

    def poly(*terms):
        return MPoly.make(names, dict(terms))

    exact, cut = s([(0, 1), (1, 2)]), s([(0, 3), (2, 1)], 4)
    # (u x + v)(u x - v): the x terms u*(-v) + v*u cancel to the exact zero,
    # which is dropped, where v is exact, and to a series zero to its
    # precision t^4, which is kept, where v is cut
    for v, x_term in ((exact, None), (cut, s([], 4))):
        a = poly(((1, 0), exact), ((0, 0), v))
        b = poly(((1, 0), exact), ((0, 0), -v))
        product = a * b
        assert product == _reference_product(a, b)
        assert dict(product.terms).get((1, 0)) == x_term
        assert len(product.terms) == (2 if x_term is None else 3)
    rng = random.Random("product/series")
    for _ in range(40):
        a, b = (MPoly.make(names, {
            (rng.randint(0, 3), rng.randint(0, 3)): s(
                [(rng.randint(-2, 4), rng.randrange(1, 5)) for _ in range(rng.randint(1, 4))],
                rng.choice((None, None, rng.randint(3, 8))))
            for _ in range(rng.randint(1, 6))}) for _ in range(2))
        assert a * b == _reference_product(a, b), (a, b)


def test_wide_slots_read_back_as_the_slice_reader_reads_them():
    # 16-byte slots are read as pairs of 8-byte words, the rest slice by slice
    rng = random.Random(9)
    for width in range(9, 33):
        size = rng.randint(1, 40)
        xs = sorted(rng.sample(range(size), rng.randint(1, size)))
        ks = [rng.choice((1, (1 << 8 * width) - 1, rng.getrandbits(8 * width))) for _ in xs]
        value = polys._pack(xs, ks, 0, size, width)
        raw = value.to_bytes(size * width, "little")
        sliced = [int.from_bytes(raw[i:i + width], "little") for i in range(0, size * width, width)]
        want = [0] * size
        for x, k in zip(xs, ks):
            want[x] = k
        assert polys._unpack(value, size, width) == sliced == want


def test_dense_products_take_kronecker_and_tiny_ones_the_pair_loop(monkeypatch):
    # MPoly and Series share one slot product: a dense product of either
    # over F_p or Q reaches the one Kronecker kernel, polys._mul_kronecker
    seen = []
    for name in ("_mul_kronecker", "_mul_pairs"):
        kernel = getattr(polys, name)
        monkeypatch.setattr(polys, name, lambda *args, name=name, kernel=kernel: seen.append(name) or kernel(*args))
    F = GF(1000003)
    for field in (F, QQ):
        poly = MPoly.make(("t",), {(e,): field.elem(e + 1) for e in range(50)})
        square = poly * poly
        assert square == _reference_product(poly, poly)
        series = make_series(field, ZZ_GROUP, [(e, e + 1) for e in range(50)], 50)
        want = make_series(field, ZZ_GROUP, [(e, c) for (e,), c in square.terms if e < 50], 50)
        assert mul_series(series, series) == want
    assert seen == ["_mul_kronecker"] * 4
    # a one-term factor, and a 2x2 product with a wide window, stay on the pair loop
    dense = MPoly.make(("t",), {(e,): F.elem(e + 1) for e in range(50)})
    monomial = MPoly.make(("t",), {(3,): F.elem(2)})
    sparse = MPoly.make(("t",), {(0,): F.one(), (10**9,): F.one()})
    assert monomial * dense == _reference_product(monomial, dense)
    start = time.perf_counter()
    assert sparse * sparse == _reference_product(sparse, sparse)
    assert time.perf_counter() - start < 0.1
    assert seen == ["_mul_kronecker"] * 4 + ["_mul_pairs"] * 2


def test_sparse_products_in_three_variables_answer_at_once():
    start = time.perf_counter()
    for field in (QQ, GF(5)):
        names = ("x", "y", "z")
        one, big = field.one(), 10**9
        a = MPoly.make(names, {(big, 0, 1): one, (0, big, 0): field.elem(2), (1, 1, big): one})
        b = MPoly.make(names, {(0, 0, big): field.elem(3), (big, big, 0): one, (0, 0, 0): one})
        assert a * b == _reference_product(a, b)
        assert len((a * b).terms) == 9
    assert time.perf_counter() - start < 0.1


def test_a_product_across_fields_still_reports_the_mismatch():
    a = MPoly.make(("x",), {(0,): QQ.one(), (1,): QQ.elem(2)})
    b = MPoly.make(("x",), {(0,): GF(5).one(), (1,): GF(5).elem(2)})
    with pytest.raises(FieldMismatchError):
        a * b
