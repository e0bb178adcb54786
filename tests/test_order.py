"""The native order of group elements.

Rational and lex elements compare their data directly; only Q + Q*sqrt2
takes the exact sign of a difference.  Every comparison is checked against
a reference sign of the difference computed here on the raw data, and a
lift is run with differences forbidden inside comparisons.
"""

import random
from fractions import Fraction
from functools import cmp_to_key
from math import isqrt

import pytest

from valuedfields import groups
from valuedfields.errors import FamilyMismatchError
from valuedfields.fields import GF
from valuedfields.groups import (
    GroupElem,
    LexGroup,
    QQ_GROUP,
    QuadGroup,
    RationalGroup,
    ZZ_GROUP,
    cmp,
    one_over_m,
    p_power_hull,
)
from valuedfields.hensel import SeriesPoly, hensel_lift
from valuedfields.series import invert, make_series, one_series, t_pow, zero_series

FAMILIES = [QQ_GROUP, one_over_m(6), p_power_hull(3)] + [LexGroup(r) for r in (1, 2, 3, 4)] + [
    QuadGroup()
]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _quad_reference_sign(p: Fraction, q: Fraction) -> int:
    """Sign of p + q*sqrt2 from integer square roots: with P, Q the
    numerators over a common denominator, 2Q^2 is never a square for Q != 0,
    so r = isqrt(2Q^2) has r < |Q|*sqrt2 < r + 1."""
    den = p.denominator * q.denominator
    P, Q = int(p * den), int(q * den)
    if Q == 0:
        return _sign(P)
    r = isqrt(2 * Q * Q)
    if Q > 0:
        return 1 if P + r >= 0 else -1
    return 1 if P - r - 1 >= 0 else -1


def _reference_cmp(a: GroupElem, b: GroupElem) -> int:
    x, y = a.data, b.data
    if isinstance(a.group, RationalGroup):
        return _sign(x - y)
    if isinstance(a.group, LexGroup):
        return next((_sign(u - v) for u, v in zip(x, y) if u != v), 0)
    return _quad_reference_sign(x[0] - y[0], x[1] - y[1])


def _random_elem(rng, group) -> GroupElem:
    """Small pools, so that ties and shared lex prefixes are common."""
    def small_rational():
        return Fraction(rng.randrange(-4, 5), rng.choice([1, 2, 3, 7]))

    if group is QQ_GROUP:
        return group.elem(small_rational())
    if isinstance(group, RationalGroup) and group.law == "one_over_m":
        return group.elem(Fraction(rng.randrange(-12, 13), group.m))
    if isinstance(group, RationalGroup):
        return group.elem(Fraction(rng.randrange(-9, 10), group.p ** rng.randrange(3)))
    if isinstance(group, LexGroup):
        return group.elem([rng.randrange(-2, 3) for _ in range(group.r)])
    # near-misses of sqrt2: 99/70 and 140/99 are convergents of sqrt2
    a, b = rng.choice([(small_rational(), small_rational()), (Fraction(99, 70), Fraction(-1)),
                       (Fraction(-140, 99), Fraction(1)), (Fraction(3), Fraction(-2))])
    return group.elem((a, b))


@pytest.mark.parametrize("group", FAMILIES, ids=str)
def test_native_order_matches_the_sign_of_the_difference(group):
    rng = random.Random(str(group))
    elems = [_random_elem(rng, group) for _ in range(60)]
    for a in elems:
        for b in elems[:30]:
            ref = _reference_cmp(a, b)
            assert (a < b, a <= b, a > b, a >= b) == (ref < 0, ref <= 0, ref > 0, ref >= 0)
            assert cmp(a, b) == ref
            assert (a == b) == (ref == 0) and (a != b) == (ref != 0)
            if ref == 0:
                assert hash(a) == hash(b)
    reference = sorted(elems, key=cmp_to_key(_reference_cmp))
    assert [e.data for e in sorted(elems)] == [e.data for e in reference]
    assert len({e for e in elems}) == len({e.data for e in elems})


def test_mixed_families_raise():
    rng = random.Random(5)
    for i, g in enumerate(FAMILIES):
        for h in FAMILIES[i + 1:]:
            a, b = _random_elem(rng, g), _random_elem(rng, h)
            for op in (lambda: a < b, lambda: a <= b, lambda: a > b, lambda: a >= b,
                       lambda: cmp(a, b), lambda: a + b, lambda: a - b, lambda: b < a):
                with pytest.raises(FamilyMismatchError):
                    op()
            assert a != b
    with pytest.raises(FamilyMismatchError):
        QQ_GROUP.elem(1) < 1
    with pytest.raises(FamilyMismatchError):
        ZZ_GROUP.elem(1) < QQ_GROUP.elem(1)  # the same rational, two groups


def test_an_equal_descriptor_built_directly_combines():
    # a second descriptor equal to QQ_GROUP: elements fall back to ==
    twin = RationalGroup("all")
    assert twin == QQ_GROUP and twin is not QQ_GROUP
    a, b = twin.elem(Fraction(1, 2)), QQ_GROUP.elem(Fraction(1, 3))
    assert b < a and a > b and cmp(a, b) == 1 and a >= b and not a <= b
    assert a + b == QQ_GROUP.elem(Fraction(5, 6)) and a - b == twin.elem(Fraction(1, 6))
    assert twin.elem(Fraction(1, 2)) == QQ_GROUP.elem(Fraction(1, 2))
    assert hash(twin.elem(Fraction(1, 2))) == hash(QQ_GROUP.elem(Fraction(1, 2)))
    s = make_series(GF(5), QQ_GROUP, [(a, 1), (b, 2)])
    assert [e for e, _ in s.terms] == [b, a]


def _dense(rng, field, low, n):
    return make_series(field, ZZ_GROUP, [(e, rng.randrange(1, field.p)) for e in range(low, n)], n)


def test_comparisons_build_no_difference(monkeypatch):
    """A dense F_3 lift to t^32 and a lex lift and inversion, with __sub__
    and __neg__ of rational and lex elements failing inside comparisons."""
    comparing = []

    def forbidden(name):
        original = vars(GroupElem)[name]

        def guarded(self, *args):
            if comparing and not isinstance(self.group, QuadGroup):
                raise AssertionError(f"a comparison built a difference through {name}")
            return original(self, *args)

        return guarded

    def comparison(original):
        def compare(self, other):
            comparing.append(1)
            try:
                return original(self, other)
            finally:
                comparing.pop()

        return compare

    for name in ("__sub__", "__neg__"):
        monkeypatch.setattr(GroupElem, name, forbidden(name))
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(GroupElem, name, comparison(vars(GroupElem)[name]))
    monkeypatch.setattr(groups, "cmp", comparison(cmp))

    rng = random.Random(11)
    field = GF(3)
    coeffs = (_dense(rng, field, 1, 32),) + tuple(_dense(rng, field, 0, 32) for _ in range(3))
    out = hensel_lift(SeriesPoly(coeffs), None, 32)
    assert [str(v) for v in out.steps] == ["1", "2", "4", "8", "16"]
    assert len(out.root.terms) > 16

    lex, f5 = LexGroup(2), GF(5)
    linear = SeriesPoly((-t_pow(f5, lex, (0, 1)), one_series(f5, lex)))
    out = hensel_lift(linear, zero_series(f5, lex), lex.elem((1, 0)))
    assert [str(v) for v in out.steps] == ["(0,1)"]
    inv = invert(make_series(f5, lex, [((0, 0), 1), ((0, 1), 1)]), lex.elem((0, 5)))
    assert len(inv.terms) == 5
    assert groups.cmp(lex.elem((0, 1)), lex.elem((1, -7))) == -1
