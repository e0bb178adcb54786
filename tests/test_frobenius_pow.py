"""Frobenius powers and the int exponent data of Z.

In characteristic p, Series.__pow__ takes p-th powers termwise (the
Frobenius) and cuts them to the precision P + (k-1)v that repeated
multiplication certifies.  Its results are checked against k-fold
mul_series, precision included.  Elements of Z store int data and every
other rational group Fractions, whichever path makes them.
"""

import random
from fractions import Fraction

import pytest

from valuedfields import polys, series
from valuedfields.errors import GroupLawError, UnsupportedError
from valuedfields.fields import GF, QQ
from valuedfields.groups import (
    QQ_GROUP,
    QuadGroup,
    ZZ_GROUP,
    divisible_by,
    one_over_m,
    p_power_hull,
    parse_elem,
)
from valuedfields.series import (
    frobenius_series,
    invert,
    make_series,
    mul_series,
    shift,
)

FIELDS = [GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2)]


def _groups(p):
    # each group with the denominators its exponents are drawn with
    return [
        (ZZ_GROUP, [1]),
        (QQ_GROUP, [1, 2, 3, 4]),
        (one_over_m(6), [1, 2, 3, 6]),
        (p_power_hull(p), [1, p, p * p]),
    ]


def _rand_input(rng, field, group, dens):
    """Exact or truncated, with negative valuations, zero to precision and
    the exact zero among the shapes."""
    def exp():
        return Fraction(rng.randrange(-6, 7), rng.choice(dens))

    shape = rng.randrange(8)
    prec = None if shape < 2 else exp() + rng.randrange(0, 4)
    count = 0 if shape in (0, 2) else rng.randrange(1, 4 if prec is None else 6)
    terms = []
    for _ in range(count):
        coeffs = tuple(rng.randrange(field.p) for _ in range(field.n))
        terms.append((exp(), field.elem(coeffs)))
    return make_series(field, group, terms, prec)


def test_pow_matches_repeated_multiplication():
    rng = random.Random(7)
    cases = 0
    for _ in range(40):
        for field in FIELDS:
            p = field.p
            ks = {1, 2, p, 2 * p, 3 * p, p * p}
            for group, dens in _groups(p):
                a = _rand_input(rng, field, group, dens)
                ref = a
                for k in range(1, max(ks) + 1):
                    if k > 1:
                        ref = mul_series(ref, a)
                    if k in ks:
                        got = a ** k
                        assert got == ref, (field, group, a, k)
                        assert got.precision == ref.precision, (field, group, a, k)
                        cases += 1
    assert cases >= 1000


def _z_elems():
    z = ZZ_GROUP
    a, b = z.elem(3), z.elem(Fraction(-4))
    dense = make_series(GF(5), z, [(i, i % 4 + 1) for i in range(64)], 64)
    m, (xa, xb), limit = series._slot_lists(z, (dense.terms, dense.terms), z.elem(64))
    assert m == 1 and polys._kronecker_pays(xa, xb, limit)
    t = make_series(GF(5), z, [(1, 1), (2, 3)], 9)
    return [
        ("zero", z.zero()),
        ("int", a),
        ("Fraction", b),
        ("str", parse_elem(z, "7")),
        ("+", a + b),
        ("-", a - b),
        ("neg", -a),
        ("scale", a.scale(5)),
        ("divisible_by", divisible_by(z.elem(6), 3)),
        *(("dense product", e) for e, _ in mul_series(dense, dense).terms),
        ("dense precision", mul_series(dense, dense).precision),
        *(("shift", e) for e, _ in shift(t, 2).terms),
        *(("frobenius", e) for e, _ in frobenius_series(t).terms),
        ("frobenius precision", frobenius_series(t).precision),
        *(("invert", e) for e, _ in invert(t).terms),
        *(("power", e) for e, _ in (t ** 5).terms),
    ]


def test_z_data_is_int_on_every_path():
    for how, e in _z_elems():
        assert type(e.data) is int, how


def test_q_data_stays_fraction_at_integral_values():
    q = QQ_GROUP
    a, b = q.elem(3), q.elem(Fraction(-4))
    dense = make_series(GF(5), q, [(i, i % 4 + 1) for i in range(64)], 64)
    m, (xa, xb), limit = series._slot_lists(q, (dense.terms, dense.terms), q.elem(64))
    assert m == 1 and polys._kronecker_pays(xa, xb, limit)
    made = [
        q.zero(), a, b, parse_elem(q, "7"), a + b, a - b, -a, a.scale(5),
        divisible_by(q.elem(6), 3),
        *(e for e, _ in mul_series(dense, dense).terms),
        *(e for e, _ in frobenius_series(dense).terms),
        one_over_m(6).elem(2), p_power_hull(3).elem(2),
    ]
    for e in made:
        assert type(e.data) is Fraction, e


def test_int_data_prints_and_hashes_as_before():
    assert str(ZZ_GROUP.elem(-3)) == str(Fraction(-3)) == "-3"
    assert hash(ZZ_GROUP.elem(5)) == hash(Fraction(5))


@pytest.mark.parametrize("make", [
    lambda: ZZ_GROUP.elem(0.5),
    lambda: QQ_GROUP.elem(0.5),
    lambda: ZZ_GROUP.elem(2.0),
    lambda: QuadGroup().elem((0.5, 1)),
])
def test_float_group_data_rejected(make):
    with pytest.raises(GroupLawError):
        make()


def test_float_rational_rejected():
    with pytest.raises(UnsupportedError):
        QQ.elem(0.5)
