from __future__ import annotations

import random
import re
import time
from decimal import Decimal
from fractions import Fraction
from functools import cache

import pytest

from valuedfields.errors import CharacteristicError, FieldMismatchError, ParamError, UnsupportedError
from valuedfields.fields import (
    GF,
    QQ,
    _MR_BOUND,
    _digits,
    _is_irreducible,
    _is_prime,
    _least_irreducible,
    _poly_divmod,
    _poly_mul,
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


@pytest.mark.parametrize(
    "field, data",
    [
        (QQ, "0.5"), (QQ, 0.5), (GF(5), "12"), (GF(5), 2.5), (GF(7), "1/3"), (GF(2, 2), "10"),
        (QQ, None), (QQ, True), (GF(5), ("1", "2")), (GF(5), None), (GF(5), Decimal("2.5")),
        (GF(5), True), (GF(5, 2), (1, True)),
    ],
)
def test_elem_refuses_text_and_floats(field, data):
    # only an int (not a bool), a Fraction and, over F_(p^n), a list or tuple
    # of ints are exact: text would be read by a second grammar, or as a list
    # of digits, and a float or a Decimal is not exact; UnsupportedError,
    # never a bare TypeError or ValueError
    with pytest.raises(UnsupportedError, match=re.escape(f"{type(data).__name__} {data!r} is not an exact")):
        field.elem(data)


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
    assert not _is_irreducible((1, 0, 1), 2)  # x^2 + 1 = (x+1)^2 over F_2
    assert not _is_irreducible((1, 0, 1, 0, 1), 2)  # (x^2 + x + 1)^2, no root in F_2
    assert not _is_irreducible(_poly_mul((1, 0, 1), (2, 1, 1), 3), 3)  # two quadratics
    assert _is_irreducible((1, 1, 0, 0, 1), 2)  # x^4 + x + 1
    assert _is_irreducible((3, 1), 5)


# Trial division, the sieve that chose moduli before Ben-Or's test: the
# reference for _is_irreducible and _least_irreducible.
@cache
def _reference_irreducibles(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducible polynomials of degree d over F_p, in base-p
    counter order (constant digit fastest)."""
    smaller = [f for e in range(1, d // 2 + 1) for f in _reference_irreducibles(p, e)]
    out = []
    for m in range(p ** d):
        poly = _digits(m, p, d) + (1,)
        if all(_poly_divmod(poly, f, p)[1] for f in smaller):
            out.append(poly)
    return tuple(out)


def _reference_is_irreducible(f, p) -> bool:
    d = len(f) - 1
    return all(
        _poly_divmod(f, g, p)[1] for e in range(1, d // 2 + 1) for g in _reference_irreducibles(p, e)
    )


_PRIMES = (2, 3, 5, 7, 11, 13)
# every monic polynomial is checked up to p^d = 5000 (34 lists), and a seeded
# sample of each list up to p^d = 20000
_EXHAUSTIVE = [(p, d) for p in _PRIMES for d in range(1, 14) if p ** d <= 5000]
_SAMPLED = [(p, d) for p in _PRIMES for d in range(1, 15) if 5000 < p ** d <= 20000]


@pytest.mark.parametrize("p, d", _EXHAUSTIVE)
def test_is_irreducible_matches_trial_division_on_every_polynomial(p, d):
    monic = [_digits(m, p, d) + (1,) for m in range(p ** d)]
    assert tuple(f for f in monic if _is_irreducible(f, p)) == _reference_irreducibles(p, d)
    assert _least_irreducible(p, d) == _reference_irreducibles(p, d)[0]
    assert GF(p, d).modulus == _reference_irreducibles(p, d)[0]


@pytest.mark.parametrize("p, d", _SAMPLED)
def test_is_irreducible_matches_trial_division_on_a_sample(p, d):
    rng = random.Random(p * 100 + d)
    for _ in range(1000):
        f = tuple(rng.randrange(p) for _ in range(d)) + (1,)
        assert _is_irreducible(f, p) == _reference_is_irreducible(f, p), f
    assert _least_irreducible(p, d) == next(
        f for f in (_digits(m, p, d) + (1,) for m in range(p ** d)) if _reference_is_irreducible(f, p)
    )


@pytest.mark.parametrize("p", _PRIMES)
def test_squares_and_products_of_irreducibles_are_reducible(p):
    rng = random.Random(p)
    degrees = [d for d in range(1, 10) if p ** d <= 600]
    for _ in range(60):
        f = rng.choice(_reference_irreducibles(p, rng.choice(degrees)))
        g = rng.choice(_reference_irreducibles(p, rng.choice(degrees)))
        assert not _is_irreducible(_poly_mul(f, f, p), p), f
        assert not _is_irreducible(_poly_mul(f, g, p), p), (f, g)
        assert not _is_irreducible(_poly_mul(_poly_mul(f, g, p), g, p), p), (f, g)


def test_large_degree_modulus_builds_quickly():
    # the sieve needed every irreducible of degree up to 100 here
    start = time.perf_counter()
    f = GF(2, 200)
    assert time.perf_counter() - start < 10
    assert len(f.modulus) == 201 and f.modulus[0] == 1


def test_degree_budget_is_checked_before_any_irreducibility_work():
    start = time.perf_counter()
    with pytest.raises(ParamError, match="degree 1000 is above the budget of 800"):
        GF(2, 1000)
    assert time.perf_counter() - start < 0.1


def test_modulus_scan_budget():
    # x^20 + c is reducible over F_p for every c when 5 does not divide p - 1,
    # so the scan would test p candidates before the first x-coefficient
    assert (1000003 - 1) % 5
    start = time.perf_counter()
    with pytest.raises(ParamError, match="among the first 1147 candidates, the scan budget"):
        _least_irreducible(1000003, 20)
    assert time.perf_counter() - start < 2
    assert all(not _is_irreducible((c,) + (0,) * 19 + (1,), 1000003) for c in range(64))


def test_modulus_scan_budget_admits_many_cheap_candidates():
    # every x^3 + c over F_1031 is reducible (1031 = 2 mod 3, so every element
    # is a cube), so the scan tests more than p candidates, each of them cheap
    p = 1031
    assert all(not _is_irreducible((c, 0, 0, 1), p) for c in range(p))
    # the reference's trial division by linear polynomials, as a root search
    assert GF(p, 3).modulus == next(
        f
        for f in (_digits(m, p, 3) + (1,) for m in range(p ** 3))
        if all((((a + f[2]) * a + f[1]) * a + f[0]) % p for a in range(p))
    )


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


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_frobenius_over_a_prime_field_is_the_p_th_power(p):
    field = GF(p)
    for c in range(p):
        a = field.elem(c)
        assert frobenius(a) == a ** p
        assert frobenius(a).field is field


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


def test_subfield_listing_has_a_budget():
    assert len(subfield_elements(GF(2, 16), 8)) == 256
    with pytest.raises(ParamError):
        subfield_elements(GF(101, 3), 3)  # 101^3 elements
    with pytest.raises(ParamError):
        embed(GF(2, 17).generator(), GF(2, 34))


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


def _pow_loop(c, e):
    """c ** e by square and multiply on FieldElement.__mul__, the reference
    for the one-call power over F_p."""
    if e < 0:
        c, e = c.inverse(), -e
    result = c.field.one()
    while e:
        if e & 1:
            result = result * c
        c = c * c
        e >>= 1
    return result


@pytest.mark.parametrize("p", [2, 5, 101, 2**61 - 1])
def test_prime_field_power_matches_the_loop(p):
    f = GF(p)
    rng = random.Random(p)
    values = sorted({0, 1, p - 1} | {rng.randrange(p) for _ in range(6)})
    exponents = list(range(-5, 71)) + [rng.getrandbits(100) | 1 << 99, -(rng.getrandbits(100) | 1 << 99)]
    for v in values:
        c = f.elem(v)
        for e in exponents:
            if v == 0 and e < 0:
                with pytest.raises(ZeroDivisionError):
                    c ** e
                continue
            assert c ** e == _pow_loop(c, e), (v, e)
        assert c ** 0 == f.one()


def test_extension_and_rational_powers_keep_the_loop():
    f9 = GF(3, 2)
    u = f9.generator()
    for e in range(-5, 20):
        assert u ** e == _pow_loop(u, e)
    q = QQ.elem(Fraction(-2, 3))
    assert q ** -3 == QQ.elem(Fraction(-27, 8)) and q ** 0 == QQ.one()
    for zero in (f9.zero(), QQ.zero()):
        with pytest.raises(ZeroDivisionError):
            zero ** -1
