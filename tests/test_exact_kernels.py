"""The integer kernels of exact polynomials against the loops they replaced.

places._lowest_taylor_coeff finds the order of vanishing at a point from
the value of each row of slots there and, where every row vanishes, by
synthetic division on the dense rows, and MPoly.__mul__ multiplies over Q and
F_p by Kronecker substitution.  The references below are the term-by-term
forms: the sum of c * C(e, k) * a^(e-k) over the terms, and the loop over
every term pair.  Both sides must give identical polynomials, term for term.
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
from valuedfields.polys import MPoly


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


@pytest.mark.parametrize("field", _FIELDS, ids=str)
def test_taylor_kernel_matches_the_binomial_sum(field):
    rng = random.Random(f"taylor/{field}")
    orders = set()
    for _ in range(220):
        g, var, a = _taylor_case(rng, field)
        got = places._lowest_taylor_coeff(g, var, a)
        assert got == _reference_taylor(g, var, a), (g, var, a)
        orders.add(got[0])
    assert max(orders) >= 4  # the cases reach high orders of vanishing


def test_taylor_kernel_at_fractional_points_over_q():
    # G(y) = L * m^top * g(y/m) runs over Z; the remainders scale back exactly
    rng = random.Random("taylor/fractions")
    for _ in range(60):
        a = QQ.elem(Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(2, 9)))
        g = _random_poly(rng, QQ, ("x", "y"), rng.randint(1, 4), 4)
        if g.is_zero():
            continue
        g = g * _linear(("x", "y"), 0, a) ** rng.randint(1, 6)
        assert places._lowest_taylor_coeff(g, "x", a) == _reference_taylor(g, "x", a)


def test_sparse_rows_of_high_degree_cost_their_terms():
    # x^1280 * (y + ... + y^300) + 1 at a nonzero x: 301 rows, 300 of them
    # one term of degree 1280; the values at the point, from powers shared
    # by the rows, give k = 0 with no dense row of 1281 slots built
    for field, a in ((QQ, QQ.elem(Fraction(-7, 3))), (GF(7), GF(7).elem(3)), (GF(3, 2), GF(3, 2).elem([1, 2]))):
        one = field.one()
        g = MPoly.make(("x", "y"), {**{(1280, j): one for j in range(1, 301)}, (0, 0): one})
        start = time.perf_counter()
        got = places._lowest_taylor_coeff(g, "x", a)
        assert time.perf_counter() - start < 0.05
        assert got == _reference_taylor(g, "x", a)
        assert got[0] == 0 and len(got[1].terms) == 301


def test_taylor_degree_budget_fails_before_any_row():
    g = MPoly.make(("x",), {(10**12,): QQ.one(), (0,): QQ.one()})
    start = time.perf_counter()
    with pytest.raises(ParamError, match="Taylor shift budget"):
        places._lowest_taylor_coeff(g, "x", QQ.elem(2))
    assert time.perf_counter() - start < 0.1


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


def test_product_kernel_reads_signed_slots_back():
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


def test_dense_products_take_kronecker_and_tiny_ones_the_pair_loop(monkeypatch):
    seen = []
    kronecker = polys._kronecker
    monkeypatch.setattr(polys, "_kronecker", lambda *args: seen.append(1) or kronecker(*args))
    F = GF(1000003)
    dense = MPoly.make(("t",), {(e,): F.elem(e + 1) for e in range(50)})
    assert dense * dense == _reference_product(dense, dense)
    assert seen == [1]
    # a one-term factor, and a 2x2 product with a wide window, stay on the pair loop
    monomial = MPoly.make(("t",), {(3,): F.elem(2)})
    sparse = MPoly.make(("t",), {(0,): F.one(), (10**9,): F.one()})
    assert monomial * dense == _reference_product(monomial, dense)
    start = time.perf_counter()
    assert sparse * sparse == _reference_product(sparse, sparse)
    assert time.perf_counter() - start < 0.1
    assert seen == [1]


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
