"""The packed evaluation of SeriesPoly.eval against the plain Horner.

SeriesPoly.eval(a, below) is truncate(_horner(coeffs, a), below).  Over F_p
with operands of nonnegative valuation known modulo t^(below), and where
the cost rule says it pays, series._horner_packed computes it in one packed
big-integer pass.  These tests check that pass against the plain Horner
value cut, term for term and precision included, on random operands, check
that every other input falls back, and check that lifts take identical
roots and steps either way.
"""

import random
from fractions import Fraction

import pytest

from valuedfields import hensel, series
from valuedfields.errors import ValuedFieldError
from valuedfields.fields import GF, _horner
from valuedfields.groups import ZZ_GROUP, one_over_m
from valuedfields.hensel import SeriesPoly, hensel_lift
from valuedfields.series import _horner_packed, invert, make_series, mul_series, truncate

PRIMES = [2, 3, 7, 2**61 - 1]
HALVES = one_over_m(2)


def _operand(rng, field, group, den, n, tally):
    """A random operand for a value below t^n: the exact zero, a constant,
    or dense or sparse terms from t^0, exact or cut at or past t^n; now and
    then a term at t^(-1/den) or a cut before t^n, where packing must not
    apply."""
    shape = rng.choice(("zero", "constant", "dense", "sparse"))
    tally[shape] += 1
    if shape == "zero":
        return make_series(field, group, [])
    if shape == "constant":
        slots = [0]
    elif shape == "dense":
        slots = range(rng.randrange(n * den // 2, n * den + 6))
    else:
        slots = rng.sample(range(3 * n * den + 4), rng.randrange(1, 5))
    terms = [(Fraction(x, den), rng.randrange(field.p)) for x in slots]
    if rng.random() < 0.05:
        tally["negative"] += 1
        terms.append((Fraction(-1, den), 1))
    prec = None
    if rng.random() < 0.5:
        prec = Fraction(n * den + rng.randrange(4), den)
        tally["cut"] += 1
    if rng.random() < 0.05:
        prec = Fraction(n * den - 1, den)
        tally["short"] += 1
    return make_series(field, group, terms, prec)


def _packs(operands, below):
    """Whether the packed pass applies: no negative exponent, and every
    operand known modulo t^(below)."""
    return all(
        (not s.terms or s.terms[0][0].sign() >= 0)
        and (s.precision is None or not s.precision < below)
        for s in operands
    )


@pytest.mark.parametrize("p", PRIMES)
def test_packed_values_match_the_plain_horner(p, monkeypatch):
    monkeypatch.setattr(series, "_packing_pays", lambda *args: True)
    rng = random.Random(p)
    field = GF(p)
    tally = dict.fromkeys(("zero", "constant", "dense", "sparse", "negative", "cut", "short"), 0)
    packed = fallbacks = 0
    for _ in range(150):
        group, den = rng.choice([(ZZ_GROUP, 1), (HALVES, 2)])
        n = rng.randrange(1, 24)
        below = group.elem(Fraction(n * den - rng.randrange(2) * (den - 1), den))
        coeffs = tuple(_operand(rng, field, group, den, n, tally) for _ in range(rng.randrange(1, 6)))
        a = _operand(rng, field, group, den, n, tally)
        expected = truncate(_horner(coeffs, a), below)
        assert SeriesPoly(coeffs).eval(a, below) == expected
        got = _horner_packed(coeffs, a, below)
        if _packs((a, *coeffs), below):
            assert got == expected
            assert got.precision == below
            packed += 1
        else:
            assert got is None
            fallbacks += 1
    assert packed > 30 and fallbacks > 10
    assert min(tally.values()) > 5, tally


@pytest.mark.parametrize("field", [GF(5), GF(3, 2)], ids=str)
def test_plain_values_below_match_the_plain_horner_cut(field, monkeypatch):
    # where the packed pass does not run, the plain rule runs on a cut below
    # t^(below) unless a term of negative exponent forbids it: the same
    # series, precision included, as the whole value cut
    monkeypatch.setattr(series, "_packing_pays", lambda *args: False)
    rng = random.Random(field.order)
    tally = dict.fromkeys(("zero", "constant", "dense", "sparse", "negative", "cut", "short"), 0)
    for _ in range(150):
        group, den = rng.choice([(ZZ_GROUP, 1), (HALVES, 2)])
        n = rng.randrange(1, 24)
        below = group.elem(Fraction(n * den - rng.randrange(2) * (den - 1), den))
        coeffs = tuple(_operand(rng, field, group, den, n, tally) for _ in range(rng.randrange(1, 6)))
        a = _operand(rng, field, group, den, n, tally)
        assert SeriesPoly(coeffs).eval(a, below) == truncate(_horner(coeffs, a), below)
    assert min(tally.values()) > 5, tally


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(2, 2)], ids=str)
def test_plain_value_from_degree_p_matches_the_plain_horner(field):
    # from degree p on, the plain value is Horner's rule in a^p over blocks
    # of p coefficients: the same series as Horner's rule at a, precision
    # included
    rng = random.Random(field.order)
    tally = dict.fromkeys(("zero", "constant", "dense", "sparse", "negative", "cut", "short"), 0)
    for _ in range(150):
        group, den = rng.choice([(ZZ_GROUP, 1), (HALVES, 2)])
        n = rng.randrange(1, 24)
        degree = rng.randrange(field.p, 3 * field.p + 1)
        coeffs = tuple(_operand(rng, field, group, den, n, tally) for _ in range(degree + 1))
        a = _operand(rng, field, group, den, n, tally)
        assert SeriesPoly(coeffs).eval(a) == _horner(coeffs, a)
    assert min(tally.values()) > 5, tally


def test_packed_slots_hold_the_largest_sums(monkeypatch):
    # every coefficient p - 1 at every slot: the unreduced sums are as large
    # as the slot width allows for
    monkeypatch.setattr(series, "_packing_pays", lambda *args: True)
    for p in PRIMES:
        field = GF(p)
        for n, d in ((1, 1), (8, 3), (40, 6)):
            full = make_series(field, ZZ_GROUP, [(x, p - 1) for x in range(n)], n)
            coeffs = (full,) * (d + 1)
            below = ZZ_GROUP.elem(n)
            assert _horner_packed(coeffs, full, below) == truncate(_horner(coeffs, full), below)


def test_cost_rule_packs_dense_values_and_not_sparse_ones(monkeypatch):
    calls = []
    packed = series._horner_packed

    def spy(*args):
        out = packed(*args)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(hensel, "_horner_packed", spy)
    field = GF(5)
    dense = make_series(field, ZZ_GROUP, [(x, x % 4 + 1) for x in range(32)])
    sparse = make_series(field, ZZ_GROUP, [(0, 1), (7, 2), (40, 3)])
    SeriesPoly((dense,) * 4).eval(dense, 32)
    SeriesPoly((sparse,) * 6).eval(sparse, 64)
    assert calls == [True, False]


def _dense(rng, field, low, n):
    return make_series(field, ZZ_GROUP, [(x, rng.randrange(field.p)) for x in range(low, n + 3)])


def _coefficient(rng, field, low, n):
    """Dense from t^low, exact; or, one time in three, a dense numerator over
    a dense 1-unit denominator, inverted to t^n as the command line does."""
    num = _dense(rng, field, low, n)
    if rng.random() < 1 / 3:
        den = make_series(field, ZZ_GROUP, [(0, 1)] + list(_dense(rng, field, 1, n).terms))
        return mul_series(num, invert(den, n))
    return num


def _outcome(fn):
    try:
        out = fn()
    except ValuedFieldError as exc:
        return type(exc), str(exc)
    return out.root, out.steps


def test_dense_lifts_match_the_plain_horner(monkeypatch):
    # X = 0 is a simple residue root (v(c0) > 0, c1 a unit), so each lifts
    rng = random.Random(15)
    lifted = 0
    for _ in range(50):
        field = GF(rng.choice([3, 5, 7, 101]))
        n = rng.randrange(8, 33)
        c1 = _coefficient(rng, field, 0, n)
        if not c1.terms or c1.terms[0][0].sign():
            c1 = make_series(field, ZZ_GROUP, [(0, 1)]) + c1
        coeffs = (_coefficient(rng, field, 1, n), c1,
                  *(_coefficient(rng, field, 0, n) for _ in range(rng.randrange(1, 4))))
        f = SeriesPoly(coeffs)
        packed = _outcome(lambda: hensel_lift(f, None, n))
        with monkeypatch.context() as mp:
            mp.setattr(hensel, "_horner_packed", lambda *args: None)
            plain = _outcome(lambda: hensel_lift(f, None, n))
        assert packed == plain
        lifted += not isinstance(packed[0], type)
    assert lifted >= 45


def _dense_cubic():
    rng = random.Random(16)
    field = GF(3)
    return SeriesPoly((_dense(rng, field, 1, 32), make_series(field, ZZ_GROUP, [(0, 1)]),
                       _dense(rng, field, 0, 32), _dense(rng, field, 0, 32)))


def test_dense_lift_evaluates_without_products(monkeypatch):
    # products are formed by mul_series and, in invert and Newton's
    # correction, by series._mul_slots directly: spy on both
    f = _dense_cubic()
    products, evals = [], []
    evaluating = []

    def counting(a, b):
        products.append(bool(evaluating))
        return mul_series(a, b)

    mul_slots = series._mul_slots

    def counting_slots(*args):
        products.append(bool(evaluating))
        return mul_slots(*args)

    plain_eval = SeriesPoly.eval

    def spy_eval(self, a, below=None):
        evals.append(below)
        evaluating.append(1)
        try:
            return plain_eval(self, a, below)
        finally:
            evaluating.pop()

    monkeypatch.setattr(series, "mul_series", counting)
    monkeypatch.setattr(hensel, "mul_series", counting)
    monkeypatch.setattr(series, "_mul_slots", counting_slots)
    monkeypatch.setattr(SeriesPoly, "eval", spy_eval)
    out = hensel_lift(f, None, 32)
    assert [str(v) for v in out.steps] == ["1", "2", "4", "8", "16"]
    assert len(evals) > 10 and None not in evals
    assert products and not any(products)


def test_dense_lift_builds_each_series_once(monkeypatch):
    # a correction is one Series, not a product, its negation, a sum and a
    # re-wrap at the target, and a callback reads the approximant whole:
    # this lift built 50 before, and 37 with a cut copy for each callback
    f = _dense_cubic()
    built = []
    check = series.Series.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(series.Series, "__post_init__", counting)
    out = hensel_lift(f, None, 32)
    assert [str(v) for v in out.steps] == ["1", "2", "4", "8", "16"]
    assert len(built) == 30
