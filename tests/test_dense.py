"""The two kernels of mul_series against a plain convolution.

mul_series maps exponents to slots once (integers m*e over a subgroup of Q,
the exponents themselves over lex and quad groups) and multiplies by the
slot product polys._mul_slots, with one of two kernels: the term-pair loop,
or, over Q and F_p with integer slots, Kronecker substitution (one
big-integer product).  A cost rule picks between them.
Products are checked term for term, precision included, against a plain
convolution kept in this file; wherever the Kronecker kernel applies, both
kernels are forced and compared.  Inverses and lifts are checked on both
kernels as well.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from valuedfields import polys
from valuedfields.errors import IterationCapError, ValuedFieldError
from valuedfields.fields import GF, QQ
from valuedfields.groups import LexGroup, QQ_GROUP, QuadGroup, ZZ_GROUP, one_over_m, p_power_hull
from valuedfields.hensel import SeriesPoly, hensel_lift
from valuedfields.series import invert, make_series, mul_series

PRIMES = [2, 3, 5, 101, 2**61 - 1]
# denominators the exponents of each group are drawn with
DENOMINATORS = {
    ZZ_GROUP: [1],
    one_over_m(6): [1, 2, 3, 6],
    QQ_GROUP: [1, 2, 3, 4],
    p_power_hull(2): [1, 2, 4, 8],
}
ORACLE_FIELDS = [GF(2), GF(5), GF(101), GF(2**61 - 1), GF(3, 2), QQ]
LEX, QUAD = LexGroup(2), QuadGroup()
ORACLE_GROUPS = [*DENOMINATORS, LEX, QUAD]


def _reference(a, b):
    """a*b by the definition: every pair of terms, kept below the precision
    min(P(a) + v(b), P(b) + v(a)), as (terms, precision)."""
    low_a = a.terms[0][0] if a.terms else a.precision
    low_b = b.terms[0][0] if b.terms else b.precision
    if low_a is None or low_b is None:  # an exact zero
        return [], None
    bounds = [p + v for p, v in ((a.precision, low_b), (b.precision, low_a)) if p is not None]
    prec = min(bounds, default=None)
    acc = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            e = e1 + e2
            acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    terms = [(e, c) for e, c in acc.items() if not c.is_zero() and (prec is None or e < prec)]
    return sorted(terms, key=lambda t: t[0]), prec


def _operand(rng, field, group, den, n):
    """n terms spread over at most 3n slots of (1/den)Z, exact or truncated."""
    low = rng.randrange(-12, 6) * den
    slots = rng.sample(range(rng.randrange(n, 3 * n + 1)), n)
    terms = [(Fraction(low + k, den), rng.randrange(1, field.p)) for k in slots]
    prec = None if rng.random() < 0.4 else Fraction(low + rng.randrange(-2, 3 * n + 4), den)
    return make_series(field, group, terms, prec)


def _spy_kronecker(monkeypatch):
    calls = []
    kronecker = polys._mul_kronecker

    def spy(*args):
        calls.append(1)
        return kronecker(*args)

    monkeypatch.setattr(polys, "_mul_kronecker", spy)
    return calls


def _force(mp, kernel):
    """Make the cost rule pick the given kernel wherever Kronecker applies."""
    mp.setattr(polys, "_PAIR_COST", math.inf if kernel == "kronecker" else 0)


def _on_each_kernel(monkeypatch, fn):
    """fn() with the Kronecker kernel forced, then with the pair loop forced."""
    out = []
    for kernel in ("kronecker", "pairs"):
        with monkeypatch.context() as mp:
            _force(mp, kernel)
            out.append(fn())
    return out


def _outcome(fn):
    """The result of fn(), or the class and message of what it raised."""
    try:
        return fn()
    except ValuedFieldError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(6))
def test_dense_products_match_the_term_pair_loop(seed, monkeypatch):
    rng = random.Random(seed)
    calls = _spy_kronecker(monkeypatch)
    cases = 50
    for _ in range(cases):
        field = GF(rng.choice(PRIMES))
        group = rng.choice(list(DENOMINATORS))
        dens = DENOMINATORS[group]
        den_a = rng.choice(dens)
        den_b = den_a if rng.random() < 0.8 else rng.choice(dens)
        a = _operand(rng, field, group, den_a, rng.randrange(4, 21))
        b = _operand(rng, field, group, den_b, rng.randrange(4, 21))
        kronecker, pairs = _on_each_kernel(monkeypatch, lambda: mul_series(a, b))
        assert kronecker == pairs == mul_series(a, b)
        assert (list(kronecker.terms), kronecker.precision) == _reference(a, b)
    # every product with terms below its precision took the forced kernel
    assert len(calls) > cases // 2


@pytest.mark.parametrize("p", PRIMES)
def test_dense_slots_hold_the_largest_sums(p, monkeypatch):
    # every coefficient p - 1: the middle slot of the product sums n
    # products (p - 1)^2, the most a slot must hold without carrying
    calls = _spy_kronecker(monkeypatch)
    _force(monkeypatch, "kronecker")
    field = GF(p)
    for n in (4, 15, 16, 64):
        a = make_series(field, ZZ_GROUP, [(k, p - 1) for k in range(n)])
        b = make_series(field, ZZ_GROUP, [(k - 3, p - 1) for k in range(n)], n)
        product = mul_series(a, b)
        assert (list(product.terms), product.precision) == _reference(a, b)
    assert len(calls) == 4


@pytest.mark.parametrize("p", [2, 3, 101])
def test_dense_products_that_cancel(p, monkeypatch):
    # (1 + t + ... + t^7) * (1 - t)(1 + t^8) = 1 - t^16: every middle sum is 0 mod p
    calls = _spy_kronecker(monkeypatch)
    _force(monkeypatch, "kronecker")
    field = GF(p)
    a = make_series(field, ZZ_GROUP, [(k, 1) for k in range(8)])
    b = make_series(field, ZZ_GROUP, [(0, 1), (1, -1), (8, 1), (9, -1)])
    assert mul_series(a, b) == make_series(field, ZZ_GROUP, [(0, 1), (16, -1)])
    # truncated, below t^16 or t^6, only the constant is left
    one = make_series(field, ZZ_GROUP, [(0, 1)])
    b_cut, a_cut = make_series(field, ZZ_GROUP, b.terms, 16), make_series(field, ZZ_GROUP, a.terms, 6)
    assert mul_series(a, b_cut) == make_series(field, ZZ_GROUP, one.terms, 16)
    assert mul_series(a_cut, b) == make_series(field, ZZ_GROUP, one.terms, 6)
    assert len(calls) == 3


@pytest.mark.parametrize("seed", range(4))
def test_dense_inverses_match_the_term_pair_loop(seed, monkeypatch):
    rng = random.Random(100 + seed)
    calls = _spy_kronecker(monkeypatch)
    for _ in range(10):
        field = GF(rng.choice(PRIMES))
        group = rng.choice(list(DENOMINATORS))
        den = rng.choice(DENOMINATORS[group])
        a = _operand(rng, field, group, den, rng.randrange(4, 20))
        target = Fraction(rng.randrange(8, 40), den)
        kronecker, pairs = _on_each_kernel(monkeypatch, lambda: _outcome(lambda: invert(a, target)))
        assert kronecker == pairs == _outcome(lambda: invert(a, target))
    assert calls


@pytest.mark.parametrize("seed", range(4))
def test_dense_lifts_match_the_term_pair_loop(seed, monkeypatch):
    rng = random.Random(200 + seed)
    calls = _spy_kronecker(monkeypatch)
    for _ in range(2):
        field = GF(rng.choice([3, 5, 7, 101]))
        group, den = rng.choice([(ZZ_GROUP, 1), (one_over_m(6), 2)])
        n = rng.randrange(12, 33)

        def coeff(low):
            terms = [(Fraction(k, den), rng.randrange(field.p)) for k in range(low, n * den)]
            return make_series(field, group, terms, n)

        f = SeriesPoly((coeff(1),) + tuple(coeff(0) for _ in range(rng.randrange(2, 5))))
        kronecker, pairs = _on_each_kernel(monkeypatch, lambda: _outcome(lambda: hensel_lift(f, None, n)))
        assert kronecker == pairs
    assert calls


def test_lift_with_dense_iterates_in_a_fine_group_fails_fast(monkeypatch):
    # the Newton iterates of X^2 = 1 + t^(1/2^40) fill consecutive slots of
    # (1/2^40)Z, so the cost rule runs them dense and they reach the term
    # budget at once
    calls = _spy_kronecker(monkeypatch)
    field, group = GF(5), p_power_hull(2)
    one = make_series(field, group, [(0, 1)])
    f = SeriesPoly((-make_series(field, group, [(0, 1), (Fraction(1, 2**40), 1)]),
                    make_series(field, group, []), one))
    start = time.perf_counter()
    with pytest.raises(IterationCapError, match="more than 1024 terms"):
        hensel_lift(f, one, 1)
    assert time.perf_counter() - start < 3
    assert calls


def test_sparse_and_huge_exponents_take_the_term_pair_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("the Kronecker kernel took a sparse product")

    monkeypatch.setattr(polys, "_mul_kronecker", refuse)
    field = GF(2)
    # exponents near 2^49 next to tiny fractions, as in the ZSeries of G5
    hull = p_power_hull(2)
    huge = [0, Fraction(1, 2**49), 1, 2**49 - Fraction(1, 2**49), 2**50]
    a = make_series(field, hull, [(e, 1) for e in huge])
    b = make_series(field, hull, [(e + 1, 1) for e in huge], 2**49)
    # integer exponents 100 slots apart
    c = make_series(GF(3), ZZ_GROUP, [(100 * k, 1) for k in range(6)])
    # operands with three terms, or with one
    d = make_series(GF(3), ZZ_GROUP, [(k, 1) for k in range(3)])
    e = make_series(GF(3), ZZ_GROUP, [(5, 2)], 9)
    for x, y in ((a, b), (c, c), (c, d), (d, d), (c, e), (e, d), (e, e)):
        product = mul_series(x, y)
        assert (list(product.terms), product.precision) == _reference(x, y)


# ---------------------------------------------------------------------------
# the slot kernels in every field and group


def test_one_term_factors_take_neither_kernel(monkeypatch):
    # a monomial factor shifts and scales the other, cut to the precision
    def refuse(*args):
        raise AssertionError("a kernel took a one-term factor")

    monkeypatch.setattr(polys, "_mul_pairs", refuse)
    monkeypatch.setattr(polys, "_mul_kronecker", refuse)
    rng = random.Random(400)
    checked = 0
    for field in ORACLE_FIELDS:
        for group in ORACLE_GROUPS:
            for _ in range(3):
                a = _random_operand(rng, field, group, 1)
                b = _random_operand(rng, field, group, rng.randrange(1, 12))
                for x, y in ((a, b), (b, a)):
                    if len(x.terms) == 1 or len(y.terms) == 1:
                        product = mul_series(x, y)
                        assert (list(product.terms), product.precision) == _reference(x, y)
                        checked += 1
    assert checked > 150


def _exponent(rng, group, low, high):
    """A random exponent of group roughly between low and high."""
    if group is LEX:
        return (rng.randrange(-1, 2), rng.randrange(low, high))
    if group is QUAD:
        return (Fraction(rng.randrange(low, high), 2), Fraction(rng.randrange(-3, 4), 4))
    den = rng.choice(DENOMINATORS[group])
    return Fraction(rng.randrange(low * den, high * den), den)


def _coefficient(rng, field):
    if field is QQ:
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return tuple(rng.randrange(field.p) for _ in range(field.n))


def _random_operand(rng, field, group, n):
    """About n terms with exponents from about -8 to 3n, maybe truncated."""
    terms = [(_exponent(rng, group, -8, 3 * n), _coefficient(rng, field)) for _ in range(n)]
    prec = None if rng.random() < 0.4 else _exponent(rng, group, -4, 3 * n + 4)
    return make_series(field, group, terms, prec)


def _kronecker_applies(field, group):
    return (field is QQ or field.n == 1) and group in DENOMINATORS


@pytest.mark.parametrize("seed", range(4))
def test_slot_kernels_match_a_plain_convolution(seed, monkeypatch):
    rng = random.Random(300 + seed)
    calls = _spy_kronecker(monkeypatch)
    for field in ORACLE_FIELDS:
        for group in ORACLE_GROUPS:
            for _ in range(4):
                a = _random_operand(rng, field, group, rng.randrange(1, 12))
                b = _random_operand(rng, field, group, rng.randrange(1, 12))
                expected = _reference(a, b)
                product = mul_series(a, b)
                assert (list(product.terms), product.precision) == expected
                if _kronecker_applies(field, group):
                    assert _on_each_kernel(monkeypatch, lambda: mul_series(a, b)) == [product] * 2
    assert calls


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
@pytest.mark.parametrize("group", ORACLE_GROUPS, ids=str)
def test_slot_kernels_on_products_that_cancel(field, group, monkeypatch):
    # (1 + t^h + ... + t^(7h)) * (1 - t^h) = 1 - t^(8h), in any group: every
    # middle sum vanishes; cut below t^(8h) only the constant is left
    h = {LEX: (0, 1), QUAD: (Fraction(1, 2), Fraction(1, 4))}.get(group, Fraction(1, 2))
    if group is ZZ_GROUP:
        h = 1
    g = group.elem(h)
    zero, one = group.zero(), field.one()
    a = make_series(field, group, [(g.scale(k), one) for k in range(8)])
    b = make_series(field, group, [(zero, one), (g, -one)])
    ends = [(zero, one), (g.scale(8), -one)]
    kernels = ("kronecker", "pairs") if _kronecker_applies(field, group) else ("pairs",)
    for kernel in kernels:
        with monkeypatch.context() as mp:
            _force(mp, kernel)
            assert mul_series(a, b) == make_series(field, group, ends)
            assert mul_series(b, a) == make_series(field, group, ends)
            cut = make_series(field, group, b.terms, g.scale(8))
            assert mul_series(a, cut) == make_series(field, group, ends[:1], g.scale(8))
            # one factor shifted to negative exponents and cut at t^h
            low = make_series(field, group, [(e - g.scale(5), c) for e, c in a.terms], g)
            product = mul_series(low, a)
            assert (list(product.terms), product.precision) == _reference(low, a)


def test_cost_rule_picks_each_kernel_on_its_side_of_the_boundary(monkeypatch):
    calls = _spy_kronecker(monkeypatch)
    rng = random.Random(5)
    field = GF(3)

    def product(n, slots_per_term, prec=None):
        xs = sorted(rng.sample(range(n * slots_per_term), n))
        a = make_series(field, ZZ_GROUP, [(x, rng.randrange(1, 3)) for x in xs], prec)
        result = mul_series(a, a)
        assert (list(result.terms), result.precision) == _reference(a, a)
        return len(calls)

    # 64 dense terms, exact or cut: far fewer slots than pairs
    assert product(64, 1) == 1
    assert product(64, 1, 64) == 2
    # 8 terms at 12 slots per term: more slots than pairs would cost
    assert product(8, 12) == 2
    # 4 dense terms: too few pairs to pay for the set-up
    assert product(4, 1) == 2
    # the rule sees the operands cut to the product's precision t^10: an
    # exact factor's 60 dense terms beyond it leave 4 by 4 dense terms, for
    # the pair loop
    a = make_series(field, ZZ_GROUP, [(k, 1) for k in range(4)] + [(k, 2) for k in range(1000, 1060)])
    b = make_series(field, ZZ_GROUP, [(k, 1) for k in range(4)], 10)
    result = mul_series(a, b)
    assert (list(result.terms), result.precision) == _reference(a, b)
    assert len(calls) == 2
    # and so does the kernel: forced, Kronecker packs only those 4 terms of a
    seen = []
    with monkeypatch.context() as mp:
        mp.setattr(polys, "_mul_kronecker", lambda xa, *rest: seen.append(xa) or [])
        _force(mp, "kronecker")
        mul_series(a, b)
    assert seen == [[0, 1, 2, 3]]
    # with the constant 100 times larger, a sparse operand takes Kronecker
    with monkeypatch.context() as mp:
        mp.setattr(polys, "_PAIR_COST", polys._PAIR_COST * 100)
        assert product(8, 12) == 3
