from __future__ import annotations

import random
from fractions import Fraction

import pytest

from valuedfields.errors import CharacteristicError, FieldMismatchError, ParamError, UnsupportedError
from valuedfields.fields import (
    GF,
    QQ,
    _MR_BOUND,
    _is_prime,
    embed,
    frobenius,
    inverse_frobenius,
    subfield_elements,
    trace_to_prime,
)


def test_rational_arithmetic():
    a = QQ.elem(Fraction(2, 3))
    b = QQ.elem(Fraction(-1, 6))
    assert (a + b).data == Fraction(1, 2)
    assert (a * b).data == Fraction(-1, 9)
    assert (a / b).data == Fraction(-4)
    with pytest.raises(ZeroDivisionError):
        QQ.zero().inverse()


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        QQ.one() + GF(2).one()
    with pytest.raises(FieldMismatchError):
        GF(2).one() + GF(2, 2).one()


def test_f4_spec_example():
    f4 = GF(2, 2)
    assert f4.modulus == (1, 1, 1)  # x^2 + x + 1 is the least irreducible
    u = f4.generator()
    one = f4.one()
    assert (u * (u + one)) == one  # u^2 + u = 1 since u^2 = u + 1
    assert trace_to_prime(u) == f4.one()


def test_f9_modulus():
    f9 = GF(3, 2)
    assert f9.modulus == (1, 0, 1)  # x^2 + 1, least irreducible over F_3


def test_least_modulus_is_deterministic_and_irreducible():
    for p, n in [(2, 3), (2, 4), (2, 6), (3, 3), (5, 2), (7, 2)]:
        f = GF(p, n)
        # no roots in F_p
        for c in range(p):
            val = sum(co * c ** i for i, co in enumerate(f.modulus)) % p
            assert val != 0, (p, n)
        assert GF(p, n).modulus == f.modulus


def test_reducible_modulus_rejected():
    with pytest.raises(UnsupportedError):
        GF(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2


def test_field_axioms_random():
    rng = random.Random(5)
    for field in (GF(2, 4), GF(3, 2), GF(5), GF(2, 1)):
        elems = list(field.elements())
        for _ in range(100):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            if not b.is_zero():
                assert (a / b) * b == a
        for a in elems:
            if not a.is_zero():
                assert a * a.inverse() == field.one()


def test_frobenius_additive_and_inverse():
    rng = random.Random(6)
    for field in (GF(2, 4), GF(3, 3), GF(3, 2)):
        elems = list(field.elements())
        for _ in range(200):
            a, b = rng.choice(elems), rng.choice(elems)
            assert frobenius(a + b) == frobenius(a) + frobenius(b)
        for a in elems:
            assert frobenius(inverse_frobenius(a)) == a
            assert inverse_frobenius(frobenius(a)) == a


def test_frobenius_needs_positive_characteristic():
    with pytest.raises(CharacteristicError):
        frobenius(QQ.one())


def test_trace_lands_in_prime_field_and_is_balanced():
    for q_field in (GF(2, 2), GF(2, 3), GF(3, 2), GF(2, 4), GF(3, 3)):
        zeros = 0
        for a in q_field.elements():
            t = trace_to_prime(a)
            assert all(c == 0 for c in t.data[1:])  # in F_p
            if t.is_zero():
                zeros += 1
        assert zeros == q_field.order // q_field.p


def test_subfield_elements_and_embedding():
    big = GF(2, 4)
    sub = subfield_elements(big, 2)
    assert len(sub) == 4
    # closed under multiplication
    for a in sub:
        for b in sub:
            assert (a * b) in sub
    f4 = GF(2, 2)
    ims = [embed(a, big) for a in f4.elements()]
    assert len(set(i.data for i in ims)) == 4
    for a in f4.elements():
        for b in f4.elements():
            assert embed(a * b, big) == embed(a, big) * embed(b, big)
            assert embed(a + b, big) == embed(a, big) + embed(b, big)


def test_embedding_respects_modulus():
    big = GF(2, 12)
    for n in (2, 3, 4):
        small = GF(2, n)
        g = embed(small.generator(), big)
        acc = big.zero()
        for c in reversed(small.modulus):
            acc = acc * g + big.elem(c)
        assert acc.is_zero()


def test_render():
    f8 = GF(2, 3)
    u = f8.generator()
    assert str(u * u + f8.one()) == "u^2+1"
    assert str(f8.zero()) == "0"
    assert str(QQ.elem(Fraction(-3, 4))) == "-3/4"


def test_is_prime_matches_a_sieve():
    n = 200_000
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for d in range(2, int(n ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, n, d)))
    assert [k for k in range(n) if _is_prime(k)] == [k for k in range(n) if sieve[k]]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 23
    for n in (3215031751, 3825123056546413051):
        assert not _is_prime(n)
    assert _is_prime(2**61 - 1) and _is_prime(2**64 - 59)


def test_is_prime_refuses_the_undecided_range():
    assert not _is_prime(_MR_BOUND - 1)  # even
    for n in (_MR_BOUND, 2**89 - 1):
        with pytest.raises(ParamError):
            _is_prime(n)
