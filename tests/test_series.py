import random
from fractions import Fraction

import pytest

from valuedfields.errors import (
    CharacteristicError,
    FamilyMismatchError,
    HypothesisError,
    ParamError,
    PrecisionError,
)
from valuedfields import polys
from valuedfields.artinschreier import poly_to_series
from valuedfields.fields import GF, QQ
from valuedfields.groups import QQ_GROUP, ZZ_GROUP, LexGroup, QuadGroup, one_over_m, p_power_hull
from valuedfields.polys import MPoly
from valuedfields.series import (
    POLE,
    Series,
    ValuationKind,
    _prec_min,
    _sub_product,
    add_series,
    bad_residue,
    bad_value_group,
    frobenius_root,
    frobenius_series,
    invert,
    make_series,
    mul_series,
    one_series,
    render_series,
    residue,
    series_to_json,
    stream_expand,
    stream_from_params,
    sub_series,
    t_pow,
    theta_defect,
    truncate,
    unit_nth_root,
    valuation,
    z_series,
    zero_series,
)


def test_make_series_canonical():
    s = make_series(QQ, QQ_GROUP, [(1, 1), (0, 1)])
    assert [(str(e), str(c)) for e, c in s.terms] == [("0", "1"), ("1", "1")]
    assert s.precision is None


def test_make_series_merges_to_zero():
    F = GF(3)
    s = make_series(F, QQ_GROUP, [(1, 1), (1, 2)])
    assert s.is_exact_zero()


def test_make_series_drops_beyond_precision():
    s = make_series(QQ, QQ_GROUP, [(Fraction(-1, 2), 1), (Fraction(3, 2), 1), (3, 7)], Fraction(5, 2))
    assert len(s.terms) == 2
    assert str(s) == "1*t^(-1/2) + 1*t^(3/2) + O(t^(5/2))"


def test_char2_square():
    F = GF(2)
    a = make_series(F, ZZ_GROUP, [(1, 1), (2, 1)])
    sq = a * a
    assert sq == make_series(F, ZZ_GROUP, [(2, 1), (4, 1)])


def test_add_zero_keeps_precision():
    a = make_series(QQ, ZZ_GROUP, [(1, 5)], 7)
    z = zero_series(QQ, ZZ_GROUP)
    assert (a + z) == a


def test_theta2_identity_char2():
    # with theta_2 = t^(-1/2) + t^(-1/4): theta_2^2 - theta_2 - t^(-1) = t^(-1/4) over F_2
    F = GF(2)
    G = p_power_hull(2)
    theta2 = make_series(F, G, [(Fraction(-1, 2), 1), (Fraction(-1, 4), 1)])
    lhs = theta2 * theta2 - theta2 - t_pow(F, G, -1)
    assert lhs == t_pow(F, G, Fraction(-1, 4))


def test_mul_precision_rule():
    # a = t + O(t^3), b = t^(-1) + O(t^0): product known mod t^(min(3-1, 0+1)) = t^1
    a = make_series(QQ, ZZ_GROUP, [(1, 1)], 3)
    b = make_series(QQ, ZZ_GROUP, [(-1, 1)], 0)
    p = a * b
    assert str(p.precision) == "1"
    assert p.terms == ((ZZ_GROUP.zero(), QQ.one()),)


def test_mul_exact_zero_annihilates():
    z = zero_series(QQ, ZZ_GROUP)
    a = make_series(QQ, ZZ_GROUP, [(2, 3)], 5)
    assert (z * a).is_exact_zero()


def test_mul_both_zero_to_precision():
    a = zero_series(QQ, ZZ_GROUP, 2)
    b = zero_series(QQ, ZZ_GROUP, 3)
    p = a * b
    assert not p.terms
    assert str(p.precision) == "5"


def test_valuation_variants():
    v = valuation(make_series(QQ, QQ_GROUP, [(Fraction(-1, 2), 1), (0, 1)]))
    assert v.is_exact and str(v.value) == "-1/2"
    assert valuation(zero_series(QQ, QQ_GROUP)).kind is ValuationKind.INFINITY
    v2 = valuation(zero_series(QQ, QQ_GROUP, 3))
    assert v2.kind is ValuationKind.AT_LEAST and str(v2.value) == "3"


def test_residue_cases():
    assert residue(make_series(QQ, ZZ_GROUP, [(-1, 1)])) is POLE
    assert residue(make_series(QQ, ZZ_GROUP, [(0, 2), (1, 1)])) == QQ.elem(2)
    assert residue(make_series(QQ, ZZ_GROUP, [(3, 5)])) == QQ.zero()
    assert residue(zero_series(QQ, ZZ_GROUP)) == QQ.zero()
    assert residue(zero_series(QQ, ZZ_GROUP, 1)) == QQ.zero()
    with pytest.raises(PrecisionError):
        residue(zero_series(QQ, ZZ_GROUP, 0))
    with pytest.raises(PrecisionError):
        residue(zero_series(QQ, ZZ_GROUP, -2))


def test_invert_geometric():
    a = make_series(QQ, ZZ_GROUP, [(0, 1), (1, 1)])
    inv = invert(a, 4)
    assert inv == make_series(QQ, ZZ_GROUP, [(0, 1), (1, -1), (2, 1), (3, -1)], 4)
    prod = a * inv
    assert prod.terms == ((ZZ_GROUP.zero(), QQ.one()),)


def test_invert_monomial_exact():
    inv = invert(t_pow(QQ, ZZ_GROUP, 1))
    assert inv == t_pow(QQ, ZZ_GROUP, -1)
    assert inv.precision is None


def test_invert_fractional_unit():
    # t^(-1/2)*(1 + t^(1/4)) over F_3, inverted to precision 1
    F = GF(3)
    a = make_series(F, QQ_GROUP, [(Fraction(-1, 2), 1), (Fraction(-1, 4), 1)])
    inv = invert(a, 1)
    prod = a * inv
    assert prod.terms == ((QQ_GROUP.zero(), F.one()),)
    assert valuation(inv).value == QQ_GROUP.elem(Fraction(1, 2))


def test_invert_requires_exact_valuation():
    with pytest.raises(PrecisionError):
        invert(zero_series(QQ, ZZ_GROUP, 5))
    with pytest.raises(PrecisionError):
        invert(zero_series(QQ, ZZ_GROUP))
    with pytest.raises(PrecisionError):
        # exact multi-term input with no bound requested
        invert(make_series(QQ, ZZ_GROUP, [(0, 1), (1, 1)]))


def _rand_series(rng, field, max_terms=4, prec=None):
    n = rng.randrange(max_terms + 1)
    terms = []
    for _ in range(n):
        e = Fraction(rng.randrange(-8, 9), rng.choice([1, 2, 3, 4]))
        c = rng.randrange(1, field.order)
        terms.append((e, c))
    return make_series(field, QQ_GROUP, terms, prec)


def test_ring_axioms_random_exact():
    F = GF(5)
    rng = random.Random(21)
    for _ in range(60):
        a, b, c = (_rand_series(rng, F) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_distributivity_truncated_common_precision():
    F = GF(5)
    rng = random.Random(22)
    for _ in range(60):
        a = _rand_series(rng, F, prec=rng.randrange(2, 6))
        b = _rand_series(rng, F, prec=rng.randrange(2, 6))
        c = _rand_series(rng, F, prec=rng.randrange(2, 6))
        lhs = a * (b + c)
        rhs = a * b + a * c
        common = min(
            [p for p in (lhs.precision, rhs.precision) if p is not None],
            default=None,
        )
        assert truncate(lhs, common) == truncate(rhs, common)


def test_ultrametric_laws_random():
    F = GF(3)
    rng = random.Random(23)
    checked = 0
    for _ in range(200):
        a = _rand_series(rng, F)
        b = _rand_series(rng, F)
        va, vb = valuation(a), valuation(b)
        if not (va.is_exact and vb.is_exact):
            continue
        checked += 1
        assert valuation(a * b).value == va.value + vb.value
        vs = valuation(a + b)
        if va.value != vb.value:
            assert vs.is_exact and vs.value == min(va.value, vb.value)
        elif vs.is_exact:
            assert not vs.value < va.value
    assert checked > 100


def test_invert_roundtrip_random():
    F = GF(7)
    rng = random.Random(24)
    done = 0
    while done < 200:
        a = _rand_series(rng, F)
        if not a.terms:
            continue
        done += 1
        k = rng.randrange(3, 9)
        target = valuation(a).value + QQ_GROUP.elem(k)
        inv = invert(a, target)
        prod = a * inv
        if prod.precision is not None and not prod.precision.sign() > 0:
            assert not prod.terms
        else:
            assert prod.terms == ((QQ_GROUP.zero(), F.one()),)


def test_frobenius_basic():
    F = GF(2)
    a = make_series(F, QQ_GROUP, [(Fraction(1, 2), 1), (1, 1)])
    assert frobenius_series(a) == make_series(F, QQ_GROUP, [(1, 1), (2, 1)])
    # constants map to their p-th power
    F9 = GF(3, 2)
    u = F9.generator()
    c = make_series(F9, ZZ_GROUP, [(0, u)])
    assert frobenius_series(c).terms[0][1] == u ** 3


def test_frobenius_shifts_theta_exponents():
    # frobenius of sum_{i<=k} t^(-1/p^i) is sum_{i<=k} t^(-1/p^(i-1))
    F = GF(2)
    G = p_power_hull(2)
    theta3 = make_series(F, G, [(Fraction(-1, 2 ** i), 1) for i in (1, 2, 3)])
    fr = frobenius_series(theta3)
    assert fr == make_series(F, G, [(Fraction(-1, 2 ** i), 1) for i in (0, 1, 2)])


def test_frobenius_multiplicative_random():
    F = GF(3)
    rng = random.Random(25)
    for _ in range(40):
        a = _rand_series(rng, F)
        b = _rand_series(rng, F)
        assert frobenius_series(a * b) == frobenius_series(a) * frobenius_series(b)


def test_frobenius_char0_rejected():
    with pytest.raises(CharacteristicError):
        frobenius_series(one_series(QQ, ZZ_GROUP))


def test_unit_nth_root_square():
    F = GF(3)
    u = make_series(F, ZZ_GROUP, [(0, 1), (1, 1)])
    a = unit_nth_root(u, 2, 4)
    sq = truncate(a * a, 4)
    assert sq == truncate(u, 4)
    assert residue(a) == F.one()


def test_unit_nth_root_trivial_cases():
    F = GF(5)
    u = make_series(F, ZZ_GROUP, [(0, 1), (2, 3)], 6)
    assert unit_nth_root(u, 1) == u
    assert unit_nth_root(one_series(F, ZZ_GROUP), 3) == one_series(F, ZZ_GROUP)


def test_unit_nth_root_guards():
    F = GF(3)
    with pytest.raises(CharacteristicError):
        unit_nth_root(one_series(F, ZZ_GROUP), 3)
    not_unit = make_series(F, ZZ_GROUP, [(0, 2)])
    with pytest.raises(HypothesisError):
        unit_nth_root(not_unit, 2, 4)
    with pytest.raises(HypothesisError):
        unit_nth_root(t_pow(F, ZZ_GROUP, 1), 2, 4)


def test_unit_nth_root_random():
    F = GF(5)
    rng = random.Random(26)
    for _ in range(30):
        tail = [(rng.randrange(1, 5), rng.randrange(5)) for _ in range(3)]
        u = make_series(F, ZZ_GROUP, [(0, 1)] + tail, 5)
        n = rng.choice([2, 3, 4, 6])
        a = unit_nth_root(u, n)
        assert residue(a) == F.one()
        assert truncate(a ** n, 5) == u


def test_stream_frobenius_root():
    s = stream_expand(frobenius_root(2), 5)
    assert s == make_series(GF(2), ZZ_GROUP, [(1, 1), (2, 1), (4, 1)], 5)
    # odd characteristic keeps the minus signs
    s3 = stream_expand(frobenius_root(3), 10)
    assert s3 == make_series(GF(3), ZZ_GROUP, [(1, -1), (3, -1), (9, -1)], 10)


def test_stream_theta_defect_cap():
    s = stream_expand(theta_defect(2), 0, max_terms=5)
    assert [str(e) for e, _ in s.terms] == ["-1/2", "-1/4", "-1/8", "-1/16", "-1/32"]
    # the cap bit first, so the reported precision is the first omitted exponent
    assert str(s.precision) == "-1/64"


def test_stream_z_series_first_exponents():
    s = stream_expand(z_series(2), 100, max_terms=2)
    assert [str(e) for e, _ in s.terms] == ["3/2", "63/8"]


def test_stream_agreement_on_overlap():
    for stream in (theta_defect(3), frobenius_root(5), z_series(2)):
        small = stream_expand(stream, 2, max_terms=4)
        large = stream_expand(stream, 2, max_terms=8)
        assert large.terms[: len(small.terms)] == small.terms


def test_stream_bad_value_group():
    s = stream_expand(bad_value_group(3, [5, 2, 4]), 0)
    assert [str(e) for e, _ in s.terms] == ["-1/2", "-1/4", "-1/5"]
    with pytest.raises(ParamError):
        bad_value_group(3, [6])
    with pytest.raises(ParamError):
        bad_value_group(4, [3])


def test_stream_bad_residue():
    s = stream_expand(bad_residue(2), 5)
    big = s.field
    assert big.order == 2 ** 12  # lcm(1,2,3,4)
    assert len(s.terms) == 4
    for (e, a), n in zip(s.terms, [1, 2, 3, 4]):
        assert e == ZZ_GROUP.elem(n)
        if n == 1:
            assert a == big.one()
            continue
        # coefficient satisfies the degree-n defining polynomial
        mod = GF(2, n).modulus
        acc = big.zero()
        for i, m in enumerate(mod):
            if m:
                acc = acc + big.elem(m) * a ** i
        assert acc.is_zero()


def test_stream_bad_residue_term_cap():
    # the cap bites before t^10: three terms, with the first omitted exponent
    # as the precision, hosted in F_(2^lcm(1,2,3))
    s = stream_expand(bad_residue(2), 10, max_terms=3)
    assert s.field.order == 2 ** 6
    assert [str(e) for e, _ in s.terms] == ["1", "2", "3"]
    assert s.precision == ZZ_GROUP.elem(4)


def test_stream_bad_residue_host_degree_budget():
    assert stream_expand(bad_residue(2), 7).field.n == 60  # lcm(1..6)
    with pytest.raises(ParamError):
        stream_expand(bad_residue(2), 8)  # lcm(1..7) = 420


def test_stream_from_params_matches_constructors():
    assert stream_from_params("ThetaDefect", {"p": 3}) == theta_defect(3)
    assert stream_from_params("BadValueGroup", {"p": 2, "S": [5, 3]}) == bad_value_group(2, [3, 5])
    assert stream_from_params("BadResidue", {"p": 2}) == bad_residue(2)
    assert stream_from_params("ZSeries", {"p": 2}) == z_series(2)


@pytest.mark.parametrize(
    "name, params",
    [
        ("ThetaDefect", {}),
        ("ThetaDefect", {"p": 3, "q": 1}),
        ("ThetaDefect", {"p": "3"}),
        ("ThetaDefect", {"p": True}),
        ("ThetaDefect", [3]),
        ("FrobeniusRoot", {"p": 4}),
        ("BadValueGroup", {"p": 2, "S": 5}),
        ("BadValueGroup", {"p": 2, "S": ["3"]}),
        ("BadResidue", {"p": 2, "lcm_degree": "6"}),
        ("Sawtooth", {"p": 2}),
        (["ZSeries"], {"p": 2}),
    ],
)
def test_stream_from_params_rejects_bad_input(name, params):
    with pytest.raises(ParamError):
        stream_from_params(name, params)


def test_stream_precision_must_fit_group():
    with pytest.raises(Exception):
        stream_expand(frobenius_root(2), Fraction(1, 2))


def test_render_and_json():
    s = make_series(QQ, QQ_GROUP, [(Fraction(-1, 2), 1), (2, Fraction(1, 3))], 3)
    assert render_series(s) == "1*t^(-1/2) + 1/3*t^(2) + O(t^(3))"
    assert render_series(zero_series(QQ, QQ_GROUP)) == "0"
    assert render_series(zero_series(QQ, QQ_GROUP, 2)) == "O(t^(2))"
    j = series_to_json(s)
    assert j["terms"] == [["-1/2", "1"], ["2", "1/3"]]
    assert j["precision"] == "3"


def test_family_mixing_rejected():
    a = make_series(QQ, ZZ_GROUP, [(1, 1)])
    b = make_series(QQ, QQ_GROUP, [(1, 1)])
    with pytest.raises(FamilyMismatchError):
        a + b
    c = make_series(GF(2), ZZ_GROUP, [(1, 1)])
    with pytest.raises(FamilyMismatchError):
        a * c


# ---------------------------------------------------------------------------
# the merge in add_series against the make_series rebuild it replaced

_QUAD = QuadGroup()
_LEX2 = LexGroup(2)


def _exponent_pool(rng, group):
    """A small pool of exponents, so that random operands share some."""
    if group is _LEX2:
        return [group.elem((rng.randint(-2, 2), rng.randint(-4, 4))) for _ in range(12)]
    if group is _QUAD:
        return [group.elem((Fraction(rng.randint(-6, 6), rng.randint(1, 3)), rng.randint(-3, 3))) for _ in range(12)]
    if group is ZZ_GROUP:
        return [group.elem(rng.randint(-6, 12)) for _ in range(12)]
    den = {"one_over_m": lambda: group.m, "p_power": lambda: 2 ** rng.randint(0, 4)}.get(group.law, lambda: rng.randint(1, 5))
    return [group.elem(Fraction(rng.randint(-20, 40), den())) for _ in range(12)]


def _coefficient(rng, field):
    if field is QQ:
        return QQ.elem(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
    while True:
        c = field.elem(tuple(rng.randrange(field.p) for _ in range(field.n)))
        if not c.is_zero():
            return c


def _random_operand(rng, field, group, pool):
    terms = [(rng.choice(pool), _coefficient(rng, field)) for _ in range(rng.randint(0, 8))]
    prec = None if rng.random() < 0.4 else rng.choice(pool)
    return make_series(field, group, terms, prec)


def _rebuilt_sum(a, b):
    """a + b as the canonical constructor builds it from both term lists."""
    prec = _prec_min(a.precision, b.precision)
    return make_series(a.field, a.group, list(a.terms) + list(b.terms), prec)


_GROUPS = [ZZ_GROUP, one_over_m(6), QQ_GROUP, p_power_hull(2), _LEX2, _QUAD]
_FIELDS = [GF(5), GF(3, 2), QQ]


@pytest.mark.parametrize("group", _GROUPS, ids=str)
@pytest.mark.parametrize("field", _FIELDS, ids=str)
def test_add_series_matches_the_rebuild(field, group):
    rng = random.Random(f"{field}/{group}")
    pool = _exponent_pool(rng, group)
    zero, zero_to = zero_series(field, group), zero_series(field, group, rng.choice(pool))
    for _ in range(60):
        a = _random_operand(rng, field, group, pool)
        b = _random_operand(rng, field, group, pool)
        for x, y in ((a, b), (b, a), (a, a), (a, zero), (zero, a), (a, zero_to), (zero_to, a)):
            assert add_series(x, y) == _rebuilt_sum(x, y)
            assert sub_series(x, y) == _rebuilt_sum(x, -y)
        # full cancellation keeps the precision of the sum
        assert add_series(a, -a) == sub_series(a, a) == zero_series(field, group, a.precision)


def test_add_series_takes_the_precision_of_either_operand():
    F = GF(5)
    a = make_series(F, QQ_GROUP, [(0, 1), (1, 2), (2, 3)], 3)
    b = make_series(F, QQ_GROUP, [(Fraction(1, 2), 1), (1, 3)], Fraction(3, 2))
    expect = make_series(F, QQ_GROUP, [(0, 1), (Fraction(1, 2), 1)], Fraction(3, 2))
    assert add_series(a, b) == add_series(b, a) == expect
    quad = make_series(F, _QUAD, [((0, 0), 1), ((0, 1), 2)], (2, 0))
    cut = make_series(F, _QUAD, [((1, 0), 4)], (0, 1))  # 1 < sqrt2 < 2
    assert add_series(quad, cut) == add_series(cut, quad) == make_series(
        F, _QUAD, [((0, 0), 1), ((1, 0), 4)], (0, 1)
    )


# ---------------------------------------------------------------------------
# the series built once against the series they replaced: sub_series against
# add_series(a, -b), Newton's correction _sub_product against
# truncate(sub_series(a, mul_series(x, y)), cut), and poly_to_series against
# make_series of the same terms

_ONCE_GROUPS = [ZZ_GROUP, one_over_m(2), QQ_GROUP, _LEX2, _QUAD]
_ONCE_FIELDS = [QQ, GF(5), GF(3, 2)]


def _shaped_operand(rng, field, group, pool):
    """An exact, truncated, zero or one-term operand; over a subgroup of Q
    now and then a dense run of terms, which the Kronecker kernel takes."""
    shape = rng.choice(("exact", "truncated", "zero", "one-term", "dense", "dense"))
    prec = None if shape == "exact" or rng.random() < 0.4 else rng.choice(pool)
    if shape == "zero":
        return zero_series(field, group, prec)
    if shape == "dense" and group in _ONCE_GROUPS[:3]:
        den, low = 1 if group is ZZ_GROUP else rng.choice((1, 2)), rng.randint(-4, 4)
        return make_series(field, group, [(Fraction(low + i, den), _coefficient(rng, field))
                                          for i in range(rng.randint(20, 40))], prec)
    count = 1 if shape == "one-term" else rng.randint(2, 8)
    return make_series(field, group, [(rng.choice(pool), _coefficient(rng, field)) for _ in range(count)], prec)


def _outcome(compute):
    try:
        return compute()
    except Exception as exc:  # both sides must refuse alike
        return type(exc), str(exc)


@pytest.mark.parametrize("group", _ONCE_GROUPS, ids=str)
@pytest.mark.parametrize("field", _ONCE_FIELDS, ids=str)
def test_series_built_once_match_the_series_they_replaced(field, group, monkeypatch):
    rng = random.Random(f"once/{field}/{group}")
    pool = _exponent_pool(rng, group)
    kronecker = []
    mul_kronecker = polys._mul_kronecker
    monkeypatch.setattr(polys, "_mul_kronecker", lambda *args: kronecker.append(1) or mul_kronecker(*args))
    for _ in range(30):
        a, x, y = (_shaped_operand(rng, field, group, pool) for _ in range(3))
        assert sub_series(a, x) == add_series(a, -x)
        assert sub_series(x, x) == zero_series(field, group, x.precision)
        cut = rng.choice(pool)
        keep = max(cut, rng.choice(pool))
        want = truncate(sub_series(a, mul_series(x, y)), cut)
        assert _sub_product(a, x, y, cut, cut) == want
        read_to = keep if want.precision == cut else want.precision
        assert _sub_product(a, x, y, cut, keep) == Series(field, group, want.terms, read_to)
        terms = {(rng.randint(0, 30),): _coefficient(rng, field) for _ in range(rng.randint(1, 12))}
        terms.setdefault((rng.randint(0, 30),), field.zero())  # dropped on both sides
        q = MPoly.make(("t",), terms)
        assert _outcome(lambda: poly_to_series(q, group)) == _outcome(
            lambda: make_series(field, group, [(e, c) for (e,), c in q.terms]))
    if field == GF(5) and group in _ONCE_GROUPS[:3]:
        assert kronecker


# ---------------------------------------------------------------------------
# the invariants every Series(...) checks, on a native group and on Q + Q*sqrt2


def _malformed(field, e0, e1, foreign_group, foreign_exponent):
    """(terms, precision) for each invariant a Series checks, with e0 < e1."""
    one = field.one()
    return {
        "unsorted": (((e1, one), (e0, one)), None),
        "duplicate": (((e0, one), (e0, one)), None),
        "at the precision": (((e0, one), (e1, one)), e1),
        "beyond the precision": (((e1, one),), e0),
        "zero coefficient": (((e0, field.zero()),), None),
        "foreign exponent group": (((foreign_exponent, one),), None),
        "foreign coefficient field": (((e0, GF(7).one()),), None),
        "foreign precision group": (((e0, one),), foreign_group.elem(5)),
        "foreign precision group, no terms": ((), foreign_group.elem(5)),
    }


_INVARIANT_CASES = [
    (QQ_GROUP, QQ_GROUP.elem(Fraction(1, 2)), QQ_GROUP.elem(3), ZZ_GROUP, ZZ_GROUP.elem(1)),
    (_QUAD, _QUAD.elem((0, 1)), _QUAD.elem((2, 0)), QQ_GROUP, QQ_GROUP.elem(1)),
]


@pytest.mark.parametrize("group, e0, e1, foreign_group, foreign", _INVARIANT_CASES, ids=["native", "quad"])
@pytest.mark.parametrize("case", list(_malformed(GF(5), 0, 1, ZZ_GROUP, 0)))
def test_series_rejects_each_malformed_input(group, e0, e1, foreign_group, foreign, case):
    F = GF(5)
    terms, prec = _malformed(F, e0, e1, foreign_group, foreign)[case]
    with pytest.raises(FamilyMismatchError):
        Series(F, group, terms, prec)
    # the same exponents, well formed, are accepted
    Series(F, group, ((e0, F.one()), (e1, F.one())), e1 + e1)


def test_truncate_rejects_a_foreign_precision():
    for s in (t_pow(GF(5), QQ_GROUP, 1), make_series(GF(5), _QUAD, [((0, 1), 1)])):
        with pytest.raises(FamilyMismatchError):
            truncate(s, LexGroup(2).elem((1, 0)))
