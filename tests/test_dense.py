"""The dense path of mul_series against the term-pair loop.

Over F_p with exponents in a subgroup of Q, mul_series multiplies long,
dense operands by Kronecker substitution: one big-integer product.  Its
products are checked term for term, precision included, against the
term-pair loop (the dense path switched off) and against a plain
convolution kept in this file.  Inverses and lifts are checked against the
term-pair loop as well.
"""

import random
import time
from fractions import Fraction

import pytest

from valuedfields import series
from valuedfields.errors import IterationCapError, ValuedFieldError
from valuedfields.fields import GF
from valuedfields.groups import QQ_GROUP, ZZ_GROUP, one_over_m, p_power_hull
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


def _reference(a, b):
    """a*b by the definition: every pair of terms, kept below the precision
    min(P(a) + v(b), P(b) + v(a)), as (terms, precision)."""
    low_a = a.terms[0][0] if a.terms else a.precision
    low_b = b.terms[0][0] if b.terms else b.precision
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


def _spy_dense(monkeypatch):
    calls = []
    dense = series._mul_dense

    def spy(*args):
        calls.append(1)
        return dense(*args)

    monkeypatch.setattr(series, "_mul_dense", spy)
    return calls


def _sparse_only(mp):
    mp.setattr(series, "_dense_scale", lambda *args: None)


def _outcome(fn):
    """The result of fn(), or the class and message of what it raised."""
    try:
        return fn()
    except ValuedFieldError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(6))
def test_dense_products_match_the_term_pair_loop(seed, monkeypatch):
    rng = random.Random(seed)
    calls = _spy_dense(monkeypatch)
    cases = 50
    for _ in range(cases):
        field = GF(rng.choice(PRIMES))
        group = rng.choice(list(DENOMINATORS))
        dens = DENOMINATORS[group]
        den_a = rng.choice(dens)
        den_b = den_a if rng.random() < 0.8 else rng.choice(dens)
        a = _operand(rng, field, group, den_a, rng.randrange(4, 21))
        b = _operand(rng, field, group, den_b, rng.randrange(4, 21))
        dense = mul_series(a, b)
        with monkeypatch.context() as mp:
            _sparse_only(mp)
            sparse = mul_series(a, b)
        assert dense == sparse
        assert (list(dense.terms), dense.precision) == _reference(a, b)
    assert len(calls) > cases // 2  # most of them took the dense path


@pytest.mark.parametrize("p", PRIMES)
def test_dense_slots_hold_the_largest_sums(p, monkeypatch):
    # every coefficient p - 1: the middle slot of the product sums n
    # products (p - 1)^2, the most a slot must hold without carrying
    calls = _spy_dense(monkeypatch)
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
    calls = _spy_dense(monkeypatch)
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
    calls = _spy_dense(monkeypatch)
    for _ in range(10):
        field = GF(rng.choice(PRIMES))
        group = rng.choice(list(DENOMINATORS))
        den = rng.choice(DENOMINATORS[group])
        a = _operand(rng, field, group, den, rng.randrange(4, 20))
        target = Fraction(rng.randrange(8, 40), den)
        dense = _outcome(lambda: invert(a, target))
        with monkeypatch.context() as mp:
            _sparse_only(mp)
            assert _outcome(lambda: invert(a, target)) == dense
    assert calls


@pytest.mark.parametrize("seed", range(4))
def test_dense_lifts_match_the_term_pair_loop(seed, monkeypatch):
    rng = random.Random(200 + seed)
    calls = _spy_dense(monkeypatch)
    for _ in range(2):
        field = GF(rng.choice([3, 5, 7, 101]))
        group, den = rng.choice([(ZZ_GROUP, 1), (one_over_m(6), 2)])
        n = rng.randrange(12, 33)

        def coeff(low):
            terms = [(Fraction(k, den), rng.randrange(field.p)) for k in range(low, n * den)]
            return make_series(field, group, terms, n)

        f = SeriesPoly((coeff(1),) + tuple(coeff(0) for _ in range(rng.randrange(2, 5))))
        dense = _outcome(lambda: hensel_lift(f, None, n))
        with monkeypatch.context() as mp:
            _sparse_only(mp)
            sparse = _outcome(lambda: hensel_lift(f, None, n))
        assert sparse == dense
    assert calls


def test_lift_with_dense_iterates_in_a_fine_group_fails_fast(monkeypatch):
    # the Newton iterates of X^2 = 1 + t^(1/2^40) fill consecutive slots of
    # (1/2^40)Z, so they run dense and reach the term budget at once; on
    # the term-pair loop this took about 12 s
    calls = _spy_dense(monkeypatch)
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
        raise AssertionError("the dense path took a sparse product")

    monkeypatch.setattr(series, "_mul_dense", refuse)
    field = GF(2)
    # exponents near 2^49 next to tiny fractions, as in the ZSeries of G5
    hull = p_power_hull(2)
    huge = [0, Fraction(1, 2**49), 1, 2**49 - Fraction(1, 2**49), 2**50]
    a = make_series(field, hull, [(e, 1) for e in huge])
    b = make_series(field, hull, [(e + 1, 1) for e in huge], 2**49)
    # integer exponents 100 slots apart
    c = make_series(GF(3), ZZ_GROUP, [(100 * k, 1) for k in range(6)])
    # operands with fewer than four terms
    d = make_series(GF(3), ZZ_GROUP, [(k, 1) for k in range(3)])
    for x, y in ((a, b), (c, c), (c, d), (d, d)):
        product = mul_series(x, y)
        assert (list(product.terms), product.precision) == _reference(x, y)
