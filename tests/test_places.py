import copy
import json
import pickle
import random
import re
from collections import Counter
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest

from valuedfields.errors import (
    FieldMismatchError,
    HypothesisError,
    ParamError,
    PoleError,
    PrecisionError,
    SpanError,
    UnsupportedError,
    ValuedFieldError,
)
from valuedfields.fields import GF, QQ
from valuedfields.groups import (
    GroupElem,
    LexGroup,
    QQ_GROUP,
    QuadGroup,
    ZZ_GROUP,
    _from_integer_row,
    one_over_m,
    p_power_hull,
    perron_basis,
)
from valuedfields import places
from valuedfields.hensel import eval_poly_at_series
from valuedfields.places import (
    ComposePlace,
    EvalPlace,
    MonomialPlace,
    SeriesEmbedPlace,
    TrivialPlace,
    UniformizationWitness,
    ZERO,
    compose,
    place_from_json,
    place_invariants,
    place_residue,
    place_to_json,
    place_value,
    place_value_residue,
    place_vars,
    value_group,
    verify_uniformization_witness,
)
from valuedfields.polys import MPoly, RatFn, const_poly, mpoly
from valuedfields.series import (
    POLE,
    Series,
    ValuationKind,
    ValuationResult,
    bad_residue,
    bad_value_group,
    frobenius_root,
    make_series,
    t_pow,
    theta_defect,
    unit_nth_root,
    valuation,
)

QUAD = QuadGroup()


def _poly(vars, term_map, field=QQ):
    out = {}
    for exps, c in term_map.items():
        out[exps] = field.elem(c) if isinstance(c, (int, Fraction)) else c
    return MPoly.make(tuple(vars), out)


def _rf(num, den=None, field=QQ):
    if den is None:
        return RatFn.from_poly(num, field)
    return RatFn.make(num, den)


def _quad_place(field=QQ):
    return MonomialPlace(
        field,
        QUAD,
        (("x1", QUAD.elem((1, 0))), ("x2", QUAD.elem((0, 1)))),
    )


# ---------------------------------------------------------------------------
# monomial places


def test_monomial_quad_value_positive():
    P = _quad_place()
    f = _rf(_poly(("x1", "x2"), {(3, 0): 1}), _poly(("x1", "x2"), {(0, 2): 1}))
    v = place_value(P, f)
    assert v.is_exact and str(v.value) == "3+-2*sqrt2"
    assert v.value.sign() > 0
    assert place_residue(P, f) is ZERO


def test_monomial_quad_pole_side():
    P = _quad_place()
    f = _rf(_poly(("x1", "x2"), {(1, 0): 1}), _poly(("x1", "x2"), {(0, 1): 1}))
    v = place_value(P, f)
    assert v.value.sign() < 0
    assert place_residue(P, f) is POLE


def test_monomial_value_is_min_over_monomials():
    P = MonomialPlace(QQ, ZZ_GROUP, (("x", ZZ_GROUP.elem(1)),))
    g = _poly(("x",), {(5,): 2, (2,): 3, (7,): -1})
    v = place_value(P, g)
    assert str(v.value) == "2"


def test_monomial_residue_indeterminate():
    P = MonomialPlace(
        QQ, ZZ_GROUP, (("x", ZZ_GROUP.elem(1)),), (("y", "z"),)
    )
    f = _rf(
        _poly(("x", "y"), {(1, 1): 1, (1, 0): 1}),
        _poly(("x", "y"), {(1, 0): 1}),
    )
    r = place_residue(P, f)
    assert isinstance(r, MPoly)
    assert r.vars == ("z",)
    assert sorted((e[0], str(c)) for e, c in r.terms) == [(0, "1"), (1, "1")]


def test_monomial_residue_square_of_indeterminate():
    P = MonomialPlace(QQ, ZZ_GROUP, (("x1", ZZ_GROUP.elem(1)),), (("y", "z"),))
    g = _poly(("x1", "y"), {(0, 2): 1, (1, 0): 1})
    r = place_residue(P, g)
    assert isinstance(r, MPoly)
    assert [(e, str(c)) for e, c in r.terms] == [((2,), "1")]


def test_monomial_rejects_dependent_values():
    with pytest.raises(SpanError):
        MonomialPlace(QQ, QQ_GROUP, (("x1", QQ_GROUP.elem(1)), ("x2", QQ_GROUP.elem(2))))
    with pytest.raises(SpanError):
        MonomialPlace(
            QQ, QUAD, (("x1", QUAD.elem((1, 1))), ("x2", QUAD.elem((2, 2))))
        )
    lex2 = LexGroup(2)
    for dependent in ([(1, -3), (2, -6)], [(1, 0), (2, 0)], [(1, -3), (0, 1), (1, 1)]):
        with pytest.raises(SpanError, match="rationally dependent"):
            MonomialPlace(QQ, lex2, tuple((f"x{i}", lex2.elem(g)) for i, g in enumerate(dependent)))


def test_monomial_accepts_a_perron_basis():
    # perron_basis gives lex bases off the axes; the place takes any
    # rationally independent values, and its value is the least weighted
    # exponent sum over the monomials
    lex2 = LexGroup(2)
    basis = perron_basis([lex2.elem((1, 0)), lex2.elem((0, 1))], [lex2.elem((1, -3)), lex2.elem((0, 1))]).basis
    assert [str(g) for g in basis] == ["(1,-3)", "(0,1)"]
    P = MonomialPlace(QQ, lex2, (("x1", basis[0]), ("x2", basis[1])))
    inv = place_invariants(P)
    assert (inv.rank, inv.rational_rank) == (2, 2)
    rng = random.Random(9)
    for _ in range(300):
        terms = {(rng.randrange(6), rng.randrange(6)): rng.randrange(1, 9) for _ in range(rng.randrange(1, 6))}
        least = min(basis[0].scale(a) + basis[1].scale(b) for a, b in terms)
        assert place_value(P, _poly(("x1", "x2"), terms)) == ValuationResult.exact(least)


def test_monomial_rejects_nonpositive_value():
    with pytest.raises(ParamError):
        MonomialPlace(QQ, ZZ_GROUP, (("x", ZZ_GROUP.elem(-1)),))


def test_value_of_zero_function_rejected():
    P = _quad_place()
    with pytest.raises(ParamError):
        place_value(P, _poly(("x1", "x2"), {}))


def test_uncovered_variable_rejected():
    P = MonomialPlace(QQ, ZZ_GROUP, (("x", ZZ_GROUP.elem(1)),))
    with pytest.raises(ParamError):
        place_value(P, _poly(("x", "w"), {(1, 1): 1}))


def test_monomial_substitution_oracle():
    # weighted-minimum value must match substitution of exact monomial series
    rng = random.Random(51)
    P = _quad_place()
    x1 = t_pow(QQ, QUAD, QUAD.elem((1, 0)))
    x2 = t_pow(QQ, QUAD, QUAD.elem((0, 1)))
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = (rng.randint(0, 5), rng.randint(0, 5))
            c = rng.randint(-9, 9)
            if c:
                terms[e] = QQ.elem(c)
        if not terms:
            continue
        g = MPoly.make(("x1", "x2"), terms)
        if not g.terms:
            continue
        v = place_value(P, g)
        s = eval_poly_at_series(g, {"x1": x1, "x2": x2}, QQ, QUAD)
        sv = valuation(s)
        assert sv.is_exact and sv.value == v.value


def test_place_value_laws():
    rng = random.Random(52)
    P = _quad_place()

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            terms[(rng.randint(0, 4), rng.randint(0, 4))] = QQ.elem(rng.randint(1, 9))
        return MPoly.make(("x1", "x2"), terms)

    for _ in range(60):
        f, g = rand_poly(), rand_poly()
        vf = place_value(P, f).value
        vg = place_value(P, g).value
        assert place_value(P, f * g).value == vf + vg
        h = f + g
        if h.terms:
            vh = place_value(P, h).value
            assert not vh < min(vf, vg)
            if vf != vg:
                assert vh == min(vf, vg)


def test_residue_multiplicative_at_value_zero():
    rng = random.Random(53)
    P = EvalPlace(QQ, (("x", QQ.elem(3)),))

    def rand_poly():
        return _poly(
            ("x",),
            {(0,): rng.randint(-5, 5), (1,): rng.randint(-3, 3), (2,): rng.randint(-3, 3)},
        )

    checked = 0
    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        if not (a.terms and b.terms and c.terms):
            continue
        f, g = _rf(a, b), _rf(c, b)
        rf, rg = place_residue(P, f), place_residue(P, g)
        if rf in (ZERO, POLE) or rg in (ZERO, POLE):
            continue
        assert place_residue(P, f * g) == rf * rg
        checked += 1
    assert checked >= 20


def _element_lead(P, g):
    """places._lead with its value row passed through _from_integer_row, the
    one row-to-element routine, as the group element it stands for; an
    embedding's ValuationResult passes as it is."""
    v, lead = places._lead(P, g)
    if isinstance(P, SeriesEmbedPlace):
        return v, lead
    group, d = P._frame
    return _from_integer_row(group, v, d), lead


def _folded_monomial_lead(P, g):
    """The leading data of g at a monomial place folded over group
    elements: each term's value summed from group.zero() by scale and +,
    compared by the group's order, and the lead built by MPoly.make."""
    weights = dict(P.values)
    res_names = dict(P.residues)
    zvars = tuple(z for _, z in P.residues)
    best = None
    collided = {}
    for exps, coeff in g.terms:
        val = P.group.zero()
        zexp = [0] * len(zvars)
        for name, e in zip(g.vars, exps):
            if e == 0:
                continue
            if name in weights:
                val = val + weights[name].scale(e)
            elif name in res_names:
                zexp[zvars.index(res_names[name])] = e
            else:
                raise ParamError(f"variable {name} is not covered by the place")
        if best is None or val < best:
            best = val
            collided = {}
        if val == best:
            key = tuple(zexp)
            acc = collided.get(key)
            collided[key] = coeff if acc is None else acc + coeff
    lead = MPoly.make(zvars, collided)
    if not lead.terms:
        raise HypothesisError("minimal monomials cancel; the independence hypothesis fails")
    return best, lead


def _random_positive_value(rng, group):
    if isinstance(group, LexGroup):
        data = [rng.randint(-3, 3) for _ in range(group.r)]
    elif isinstance(group, QuadGroup):
        data = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(2)]
    elif group.law == "one_over_m":
        return group.elem(Fraction(rng.randint(1, 3 * group.m), group.m))
    elif group.law == "p_power":
        return group.elem(Fraction(rng.randint(1, 30), group.p ** rng.randint(0, 3)))
    else:
        return group.elem(Fraction(rng.randint(1, 20), rng.randint(1, 9)))
    g = group.elem(data)
    return g if g.sign() > 0 else group.elem([-x for x in data]) if g.sign() < 0 else None


def _random_monomial_place(rng, field):
    """A monomial place over Z, (1/m)Z, Q, a p-power hull, Z^2-Z^4 lex or
    Q + Q*sqrt2 with fractional coordinates, with up to two residue
    indeterminates."""
    group = rng.choice([
        ZZ_GROUP, one_over_m(rng.randint(2, 12)), QQ_GROUP, p_power_hull(rng.choice([2, 3, 5])),
        LexGroup(rng.randint(2, 4)), QUAD,
    ])
    rank = group.r if isinstance(group, LexGroup) else 2 if group == QUAD else 1
    residues = tuple((f"y{i}", f"z{i}") for i in range(rng.randint(0, 2)))
    while True:
        values = [_random_positive_value(rng, group) for _ in range(rng.randint(1, rank))]
        if None in values:
            continue
        try:
            return MonomialPlace(field, group, tuple((f"x{i}", g) for i, g in enumerate(values)), residues)
        except SpanError:
            continue


def _lead_outcome(lead, P, g):
    """The value's data, the types in it and its text with the lead, or the
    ParamError text."""
    try:
        v, poly = lead(P, g)
    except ParamError as exc:
        return "ParamError", str(exc)
    types = tuple(map(type, v.data)) if isinstance(v.data, tuple) else type(v.data)
    return v.data, types, str(v), poly


def test_monomial_kernel_matches_the_group_element_fold():
    rng = random.Random(20261020)
    covered = 0
    for _ in range(1200):
        field = rng.choice([QQ, GF(5)])
        P = _random_monomial_place(rng, field)
        # any subset of the place's variables in any order, sometimes with a
        # variable the place does not cover, whose exponents may all be 0
        gvars = [v for v in place_vars(P) if rng.random() < 0.8]
        if rng.random() < 0.15:
            gvars.append("u")
        rng.shuffle(gvars)
        g = MPoly(tuple(gvars), ())
        while not g.terms:
            g = MPoly.make(gvars, {
                tuple(rng.randint(0, 1 if v == "u" else 4) for v in gvars): field.elem(rng.randint(1, 4))
                for _ in range(rng.randint(1, 5))
            })
        want = _lead_outcome(_folded_monomial_lead, P, g)
        assert _lead_outcome(_element_lead, P, g) == want, (P, g)
        # the stored rows stay out of equality, hashing and the place file
        read = place_from_json(place_to_json(P))
        assert read == P and hash(read) == hash(P) and read._rows == P._rows
        covered += want[0] != "ParamError"
    assert covered >= 1000


# ---------------------------------------------------------------------------
# evaluation places


def test_eval_residue_cancels_removable_pole():
    P = EvalPlace(QQ, (("x", QQ.elem(2)),))
    f = _rf(_poly(("x",), {(2,): 1, (0,): -1}), _poly(("x",), {(1,): 1, (0,): 1}))
    v = place_value(P, f)
    assert v.is_exact and str(v.value) == "0"
    assert str(place_residue(P, f)) == "1"


def test_eval_vanishing_order():
    P = EvalPlace(QQ, (("x", QQ.elem(2)),))
    # (x-2)^3 * (x+1)
    g = _poly(("x",), {(4,): 1, (3,): -5, (2,): 6, (1,): 4, (0,): -8})
    v = place_value(P, g)
    assert str(v.value) == "3"
    assert value_group(P) == ZZ_GROUP


def test_eval_two_variables_lex_order():
    P = EvalPlace(QQ, (("x", QQ.elem(0)), ("y", QQ.elem(0))))
    assert value_group(P) == LexGroup(2)
    g = _poly(("x", "y"), {(2, 0): 1, (0, 1): 1})
    v = place_value(P, g)
    assert str(v.value) == "(0,1)"
    h = _poly(("x", "y"), {(2, 0): 1, (1, 3): 1})
    assert str(place_value(P, h).value) == "(1,3)"


def test_eval_residue_is_point_evaluation():
    P = EvalPlace(QQ, (("x", QQ.elem(1)), ("y", QQ.elem(2))))
    g = _poly(("x", "y"), {(1, 1): 1, (0, 0): 5})
    assert str(place_residue(P, g)) == "7"


def test_eval_high_degree_shift():
    # x^1000 at x = 2 over F_5: its lowest Taylor coefficient is read at
    # k = 0 from the powers of the point, and 2^1000 = 1 in F_5
    F5 = GF(5)
    P = EvalPlace(F5, (("x", F5.elem(2)), ("y", F5.elem(0))))
    f = _poly(("x", "y"), {(1000, 0): 1}, F5)
    assert str(place_value(P, f).value) == "(0,0)"
    assert str(place_residue(P, f)) == "1"
    g = _poly(("x", "y"), {(1000, 1): 1, (1, 0): 1, (0, 0): -2}, F5)  # (x - 2) + x^1000 y
    assert str(place_value(P, g).value) == "(0,1)"


def test_eval_degree_budget_fails_fast():
    P = EvalPlace(QQ, (("x", QQ.elem(2)),))
    for d in (1281, 10**12):
        with pytest.raises(ParamError, match="Taylor shift budget of 1280"):
            place_value(P, _poly(("x",), {(d,): 1}))
    # at x = 0 nothing is shifted, so the degree is not bounded there
    P0 = EvalPlace(QQ, (("x", QQ.elem(0)),))
    assert str(place_value(P0, _poly(("x",), {(10**12,): 1})).value) == "1000000000000"


def _x_minus(vars, v, a):
    """x_v - a over vars."""
    return MPoly.make(vars, {tuple(int(w == v) for w in vars): a.field.one()}) - const_poly(vars, a)


def _power(f, e):
    return f**e if e else const_poly(f.vars, f.terms[0][1].field.one())


def _shifted_reference(g, point):
    """g(x + a) expanded by products of the binomials (x + a)^e, one per
    monomial and variable: the naive Taylor shift at every assigned point."""
    binomials = {}
    out = MPoly(g.vars, ())
    for exps, c in g.terms:
        term = const_poly(g.vars, c)
        for v, e in zip(g.vars, exps):
            if e:
                if (v, e) not in binomials:
                    binomials[v, e] = _x_minus(g.vars, v, -point[v]) ** e
                term = term * binomials[v, e]
        out = out + term
    return out


def _random_eval_case(rng, field):
    names = ("x", "y", "z")[: rng.randint(1, 3)]
    if field == QQ:
        draw = lambda: field.elem(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    elif field.n == 1:
        draw = lambda: field.elem(rng.randrange(field.p))
    else:
        draw = lambda: field.elem([rng.randrange(field.p) for _ in range(field.n)])
    point = {v: draw() if rng.random() < 0.7 else field.zero() for v in names}
    # g lives in the first few place variables, so the others are absent from it
    gvars = names[: rng.randint(1, len(names))]
    g = MPoly(gvars, ())
    while not g.terms:
        g = MPoly.make(gvars, {tuple(rng.randint(0, 3) for _ in gvars): draw() for _ in range(4)})
    for v in gvars:
        # vanish to a chosen order, and in characteristic p sometimes through
        # (x - a)^p, whose middle coefficients are 0 mod p
        g = g * _power(_x_minus(gvars, v, point[v]), rng.randint(0, 3))
        if field != QQ and rng.random() < 0.3:
            g = g * _x_minus(gvars, v, point[v]) ** field.p
    return EvalPlace(field, tuple(point.items())), g


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(7), GF(3, 2)], ids=str)
def test_eval_lowest_taylor_coeff_vs_naive_shift(field):
    rng = random.Random(20261018)
    for _ in range(24):
        P, g = _random_eval_case(rng, field)
        point = dict(P.assignments)
        h = _shifted_reference(g, point)
        # the value is the lex-least exponent of g(x + a) along the listed
        # coordinates, a variable absent from g counting as exponent 0
        order = lambda exps: tuple(exps[g.vars.index(v)] if v in g.vars else 0 for v in point)
        want, lead = min(((order(e), c) for e, c in h.terms), key=lambda t: t[0])
        got = place_value(P, g).value
        assert _row(got) == want
        # dividing by the product of the (x - a)^k leaves the lowest coefficient
        den = const_poly(g.vars, field.one())
        for v, k in zip(point, want):
            if v in g.vars:
                den = den * _power(_x_minus(g.vars, v, point[v]), k)
        assert place_residue(P, RatFn.make(g, den)) == lead


# ---------------------------------------------------------------------------
# composition


def _two_step():
    first = MonomialPlace(
        QQ, ZZ_GROUP, (("x1", ZZ_GROUP.elem(1)),), (("x2", "z2"),)
    )
    second = MonomialPlace(QQ, ZZ_GROUP, (("z2", ZZ_GROUP.elem(1)),))
    return compose(first, second)


def test_compose_lex_values():
    P = _two_step()
    assert value_group(P) == LexGroup(2)
    x1 = _poly(("x1", "x2"), {(1, 0): 1})
    x2 = _poly(("x1", "x2"), {(0, 1): 1})
    assert str(place_value(P, x1).value) == "(1,0)"
    assert str(place_value(P, x2).value) == "(0,1)"
    f = _rf(x1, _poly(("x1", "x2"), {(0, 5): 1}))
    v = place_value(P, f)
    assert str(v.value) == "(1,-5)"
    assert v.value.sign() > 0  # first coordinate dominates


def test_compose_residue_is_double_evaluation():
    P = _two_step()
    g = _poly(("x1", "x2"), {(0, 0): 7, (1, 0): 2, (0, 1): 3, (2, 2): 1})
    r = place_residue(P, g)
    assert str(r) == "7"  # g(0, 0)


def test_compose_with_trivial_second_pads_with_zero():
    first = MonomialPlace(QQ, ZZ_GROUP, (("x1", ZZ_GROUP.elem(1)),), (("x2", "z2"),))
    P = compose(first, TrivialPlace(("z2",), QQ))
    x1 = _poly(("x1", "x2"), {(1, 0): 1})
    x2 = _poly(("x1", "x2"), {(0, 1): 1})
    assert str(place_value(P, x1).value) == "(1,0)"
    assert str(place_value(P, x2).value) == "(0,0)"
    r = place_residue(P, x2)
    assert isinstance(r, MPoly) and r.vars == ("z2",)


def test_compose_variable_mismatch():
    first = MonomialPlace(QQ, ZZ_GROUP, (("x1", ZZ_GROUP.elem(1)),), (("x2", "z2"),))
    second = MonomialPlace(QQ, ZZ_GROUP, (("w", ZZ_GROUP.elem(1)),))
    with pytest.raises(ParamError):
        compose(first, second)


def test_compose_needs_residue_variables():
    first = EvalPlace(QQ, (("x", QQ.elem(0)),))
    second = MonomialPlace(QQ, ZZ_GROUP, (("z", ZZ_GROUP.elem(1)),))
    with pytest.raises(UnsupportedError):
        compose(first, second)


def test_compose_rejects_irrational_stage():
    first = MonomialPlace(QQ, ZZ_GROUP, (("x1", ZZ_GROUP.elem(1)),), (("x2", "z2"),))
    second = MonomialPlace(QQ, QUAD, (("z2", QUAD.elem((0, 1))),))
    with pytest.raises(UnsupportedError):
        compose(first, second)


def test_direct_compose_place_raises_what_compose_raises():
    first = MonomialPlace(QQ, ZZ_GROUP, (("x1", ZZ_GROUP.elem(1)),), (("x2", "z2"),))
    refused = [
        (EvalPlace(QQ, (("x1", QQ.elem(2)),)), TrivialPlace(("z",), QQ)),
        (_cusp_place(), TrivialPlace(("z",), QQ)),
        (first, MonomialPlace(QQ, ZZ_GROUP, (("w", ZZ_GROUP.elem(1)),))),
        (first, MonomialPlace(QQ, QUAD, (("z2", QUAD.elem((0, 1))),))),
    ]
    for Q, Qbar in refused:
        with pytest.raises(ValuedFieldError) as via_compose:
            compose(Q, Qbar)
        with pytest.raises(type(via_compose.value), match=re.escape(str(via_compose.value))):
            ComposePlace((Q, Qbar))


def test_eval_agrees_with_composed_coordinate_places():
    # evaluation at the origin is the composition of the coordinate stages
    rng = random.Random(54)
    P_eval = EvalPlace(QQ, (("x1", QQ.elem(0)), ("x2", QQ.elem(0))))
    P_comp = _two_step()
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            terms[(rng.randint(0, 3), rng.randint(0, 3))] = QQ.elem(rng.randint(-5, 5))
        g = MPoly.make(("x1", "x2"), terms)
        if not g.terms:
            continue
        ve = place_value(P_eval, g)
        vc = place_value(P_comp, g)
        assert ve.value.data == vc.value.data


def test_compose_associativity_on_random_functions():
    rng = random.Random(55)
    Q = MonomialPlace(
        QQ, ZZ_GROUP, (("x1", ZZ_GROUP.elem(1)),), (("x2", "y2"), ("x3", "y3"))
    )
    Qb = MonomialPlace(QQ, ZZ_GROUP, (("y2", ZZ_GROUP.elem(1)),), (("y3", "w3"),))
    Qbb = MonomialPlace(QQ, ZZ_GROUP, (("w3", ZZ_GROUP.elem(1)),))
    left = compose(compose(Q, Qb), Qbb)
    right = compose(Q, compose(Qb, Qbb))
    assert left == right
    assert value_group(left) == value_group(right) == LexGroup(3)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 3) for _ in range(3))
            terms[e] = QQ.elem(rng.randint(1, 7))
        return MPoly.make(("x1", "x2", "x3"), terms)

    for _ in range(100):
        f = RatFn.make(rand_poly(), rand_poly())
        vl, vr = place_value(left, f), place_value(right, f)
        assert vl.value.data == vr.value.data
        rl, rr = place_residue(left, f), place_residue(right, f)
        if rl in (ZERO, POLE):
            assert rl is rr
        else:
            assert rl == rr


def _random_stage(rng, field, names, i, last):
    """Stage i, acting on names: monomial or trivial, with residue
    indeterminates unless it is the last; a last stage may also be an
    evaluation or an embedding into F((t)) by polynomials in t."""
    kinds = ["trivial"] + (["monomial"] if last or len(names) > 1 else [])
    kinds += ["eval", "embed"] if last else []
    kind = rng.choice(kinds)
    if kind == "trivial":
        return TrivialPlace(names, field)
    if kind == "eval":
        return EvalPlace(field, tuple((v, field.elem(rng.randint(-2, 2))) for v in names))
    if kind == "embed":
        return SeriesEmbedPlace(field, ZZ_GROUP, tuple(
            (v, make_series(field, ZZ_GROUP, [(rng.randint(0, 2), rng.randint(1, 3))
                                               for _ in range(rng.randint(1, 2))]))
            for v in names
        ))
    k = rng.randint(1, len(names) if last else len(names) - 1)
    valued = rng.sample(names, k)
    group = ZZ_GROUP if k == 1 else LexGroup(k)
    values = tuple(
        (v, group.elem(rng.randint(1, 3)) if k == 1
         else group.elem(tuple(rng.randint(1, 3) if j == axis else 0 for j in range(k))))
        for axis, v in enumerate(valued)
    )
    residues = tuple((v, f"z{i}{v}") for v in names if v not in valued)
    return MonomialPlace(field, group, values, residues)


def _random_stages(rng, field, names, n):
    stages = []
    for i in range(n):
        stages.append(_random_stage(rng, field, names, i, i == n - 1))
        names = places.residue_vars(stages[-1])
    return tuple(stages)


def _bracketings(stages):
    """Every binary tree with the stages as leaves, in order: a tree is a
    stage or a (first, second) pair of trees."""
    if len(stages) == 1:
        return [stages[0]]
    return [
        (a, b)
        for i in range(1, len(stages))
        for a in _bracketings(stages[:i])
        for b in _bracketings(stages[i:])
    ]


def _row(v):
    """The coordinates of a group element as a tuple: its data."""
    return v.data if type(v.data) is tuple else (v.data,)


def _tree_lead(tree, g):
    """Leading data of g at a composition nested as a binary tree, computed
    the way nested compositions were: the first subtree's, then the second
    subtree's on the first one's leading polynomial."""
    if not isinstance(tree, tuple):
        return _element_lead(tree, g)
    v1, lead1 = _tree_lead(tree[0], g)
    v2, lead2 = _tree_lead(tree[1], lead1)
    if isinstance(tree[1], SeriesEmbedPlace):
        if not v2.is_exact:
            raise PrecisionError(f"value of an inner stage undecidable: {v2}")
        v2 = v2.value
    coords = _row(v1) + _row(v2)
    return LexGroup(len(coords)).elem(coords), lead2


def _tree_value_residue(tree, f):
    (v_num, lead_num), (v_den, lead_den) = _tree_lead(tree, f.num), _tree_lead(tree, f.den)
    v = v_num - v_den
    s = v.sign()
    residue = ZERO if s > 0 else POLE if s < 0 else places._leading_ratio(lead_num, lead_den)
    return ValuationResult.exact(v), residue


def test_flat_compositions_match_nested_evaluation():
    rng = random.Random(260)
    names = ("x1", "x2", "x3", "x4")
    errors = 0
    for trial in range(240):
        field = rng.choice([QQ, GF(2), GF(3), GF(5)])
        stages = _random_stages(rng, field, names, rng.choice([3, 4]))
        P = ComposePlace(stages)
        trees = _bracketings(stages)

        def build(tree):
            return compose(build(tree[0]), build(tree[1])) if isinstance(tree, tuple) else tree

        for tree in trees:
            assert build(tree) == P
        assert value_group(P) == LexGroup(sum(places._width(s) for s in stages))
        tree = rng.choice(trees)
        top = 4 if field == QQ else field.p - 1  # coefficients nonzero in the field
        for _ in range(3):
            f = RatFn.make(*(
                MPoly.make(names, {tuple(rng.randint(0, 2) for _ in names): field.elem(rng.randint(1, top))
                                   for _ in range(rng.randint(1, 3))})
                for _ in range(2)
            ))
            got = _outcome(place_value_residue, P, f)
            assert got == _outcome(_tree_value_residue, tree, f)
            errors += isinstance(got[0], type)
    assert 0 < errors < 240


@pytest.mark.parametrize("n", [3, 4])
def test_eval_at_the_origin_is_the_composition_of_coordinate_stages(n):
    rng = random.Random(56 + n)
    names = tuple(f"x{i}" for i in range(1, n + 1))
    P_eval = EvalPlace(QQ, tuple((v, QQ.elem(0)) for v in names))
    stages, acting = [], names
    for i in range(n):  # x1 -> 1, then the residue of x2 -> 1, and so on
        residues = tuple((v, f"y{i}{v}") for v in acting[1:])
        stages.append(MonomialPlace(QQ, ZZ_GROUP, ((acting[0], ZZ_GROUP.elem(1)),), residues))
        acting = tuple(z for _, z in residues)
    P_comp = ComposePlace(tuple(stages))

    def rand_poly():
        return MPoly.make(names, {tuple(rng.randint(0, 2) for _ in names): QQ.elem(rng.randint(-5, 5))
                                  for _ in range(rng.randint(1, 4))})

    checked = 0
    for _ in range(60):
        num, den = rand_poly(), rand_poly()
        if not num.terms or not den.terms:
            continue
        f = RatFn.make(num, den)
        (ve, re_), (vc, rc) = place_value_residue(P_eval, f), place_value_residue(P_comp, f)
        assert ve.value.data == vc.value.data
        assert re_ is rc if re_ in (ZERO, POLE) else re_ == rc
        checked += 1
    assert checked > 40


def test_left_and_right_nested_place_files_read_to_one_place():
    folder = Path(__file__).parent / "golden" / "places"
    left, right = (
        json.loads((folder / f"compose3_{side}.json").read_text(encoding="utf-8"))
        for side in ("left", "right")
    )
    P = place_from_json(left)
    assert P == place_from_json(right)
    assert len(P.stages) == 3
    assert place_to_json(P) == right  # written nested to the right


def test_ten_thousand_stages_build_and_evaluate_without_recursion():
    first = MonomialPlace(QQ, ZZ_GROUP, (("x1", ZZ_GROUP.elem(1)),), (("x2", "z"),))
    P = ComposePlace((first,) + (TrivialPlace(("z",), QQ),) * 9_999)
    assert value_group(P) == LexGroup(10_000)
    v, r = place_value_residue(P, _poly(("x1", "x2"), {(1, 1): 3}))
    assert v.value.data == (1,) + (0,) * 9_999 and r is ZERO
    assert place_invariants(P).rank == 1


@pytest.mark.parametrize("stages", [17, 1_000])
def test_place_to_json_refuses_what_the_reader_refuses(stages):
    first = MonomialPlace(QQ, ZZ_GROUP, (("x1", ZZ_GROUP.elem(1)),), (("x2", "z"),))
    at_budget = ComposePlace((first,) + (TrivialPlace(("z",), QQ),) * 15)
    assert place_from_json(json.loads(json.dumps(place_to_json(at_budget)))) == at_budget
    with pytest.raises(ParamError, match="place composes more than 16 stages, the budget"):
        place_to_json(ComposePlace((first,) + (TrivialPlace(("z",), QQ),) * (stages - 1)))


def test_compose_place_needs_two_or_more_flat_stages():
    P = _two_step()
    message = "a composition needs two or more stages, none itself a composition"
    for stages in ((), P.stages[:1], (P.stages[0], P), (P, P.stages[1])):
        with pytest.raises(ParamError, match=message):
            ComposePlace(stages)


def test_compose_refuses_stages_over_different_fields():
    F5 = GF(5)
    q_first = MonomialPlace(QQ, ZZ_GROUP, (("x1", ZZ_GROUP.elem(1)),), (("x2", "z"),))
    f5_first = MonomialPlace(F5, ZZ_GROUP, (("x1", ZZ_GROUP.elem(1)),), (("x2", "z"),))
    refused = [
        (q_first, MonomialPlace(F5, ZZ_GROUP, (("z", ZZ_GROUP.elem(1)),)), "F_5 follows one over Q"),
        (q_first, EvalPlace(F5, (("z", F5.elem(0)),)), "F_5 follows one over Q"),
        (f5_first, TrivialPlace(("z",), QQ), "Q follows one over F_5"),
    ]
    for Q, Qbar, message in refused:
        for build in (compose, lambda a, b: ComposePlace((a, b))):
            with pytest.raises(FieldMismatchError, match=message):
                build(Q, Qbar)


# ---------------------------------------------------------------------------
# series embeddings


def _cusp_place():
    group = one_over_m(2)
    x = t_pow(QQ, group, 1)
    y = t_pow(QQ, group, Fraction(3, 2))
    return SeriesEmbedPlace(QQ, group, (("x", x), ("y", y)))


def test_series_embed_cusp_value():
    P = _cusp_place()
    y = _poly(("x", "y"), {(0, 1): 1})
    v = place_value(P, y)
    assert v.is_exact and str(v.value) == "3/2"


def test_series_embed_kernel_gives_infinite_value():
    P = _cusp_place()
    rel = _poly(("x", "y"), {(0, 2): 1, (3, 0): -1})  # the defining relation
    v = place_value(P, rel)
    assert v.kind is ValuationKind.INFINITY
    assert place_residue(P, rel) is ZERO


def test_series_embed_ratio_residue():
    P = _cusp_place()
    f = _rf(_poly(("x", "y"), {(0, 2): 1}), _poly(("x", "y"), {(3, 0): 1}))
    v = place_value(P, f)
    assert v.is_exact and str(v.value) == "0"
    assert str(place_residue(P, f)) == "1"


def test_series_embed_denominator_in_kernel_is_a_pole_error():
    P = _cusp_place()
    rel = _poly(("x", "y"), {(0, 2): 1, (3, 0): -1})
    f = RatFn.make(_poly(("x", "y"), {(1, 0): 1}), rel)
    with pytest.raises(PoleError):
        place_value(P, f)


def test_series_embed_stream_refinement_reports_at_least():
    # x satisfies x^2 + x = t exactly, so x^2 + x + t vanishes in char 2;
    # truncations can only ever bound the value from below
    F2 = GF(2)
    s = frobenius_root(2)
    u = t_pow(F2, ZZ_GROUP, 1)
    P = SeriesEmbedPlace(F2, ZZ_GROUP, (("x", s), ("u", u)))
    g = _poly(("x", "u"), {(1, 0): 1}, field=F2)
    assert str(place_value(P, g).value) == "1"
    rel = _poly(("x", "u"), {(2, 0): 1, (1, 0): 1, (0, 1): 1}, field=F2)
    v = place_value(P, rel)
    assert v.kind is ValuationKind.AT_LEAST
    assert place_residue(P, rel) is ZERO


def test_series_embed_exact_series_no_refinement_loop():
    group = ZZ_GROUP
    a = make_series(QQ, group, [(2, 3)], precision=5)
    P = SeriesEmbedPlace(QQ, group, (("x", a),))
    g = _poly(("x",), {(1,): 1, (0,): 0})
    v = place_value(P, g)
    assert v.is_exact and str(v.value) == "2"


F2 = GF(2)


def test_series_embed_expands_only_the_streams_a_polynomial_uses(monkeypatch):
    # no host of degree 420 = lcm(1..7) is within the budget, so the w stream
    # cannot be expanded; it must not be while w is absent from the polynomial
    z = make_series(F2, ZZ_GROUP, [(1, 1)], precision=3)  # t + O(t^3)
    P = SeriesEmbedPlace(
        F2, ZZ_GROUP,
        (("x", frobenius_root(2)), ("y", t_pow(F2, ZZ_GROUP, 1)), ("z", z), ("w", bad_residue(2))),
    )
    xyzw = ("x", "y", "z", "w")
    for g in (
        _poly(("x", "y"), {(1, 0): 1, (0, 1): 1}, field=F2),
        _poly(xyzw, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1}, field=F2),
    ):
        v = place_value(P, g)
        assert v.is_exact and str(v.value) == "2"
    with pytest.raises(ParamError, match="420"):
        place_value(P, _poly(("x", "w"), {(1, 0): 1, (0, 1): 1}, field=F2))
    # y + z uses only explicit series, so its bound is final after round 0
    rounds = []
    substitute = places._substitute
    monkeypatch.setattr(
        places, "_substitute", lambda P, g, r: rounds.append(r) or substitute(P, g, r)
    )
    v = place_value(P, _poly(xyzw, {(0, 1, 0, 0): 1, (0, 0, 1, 0): 1}, field=F2))
    assert v.kind is ValuationKind.AT_LEAST and str(v.value) == "3"
    assert rounds == [0, 0]  # numerator, then the denominator 1


def _frobenius_root_embed():
    """x1 -> FrobeniusRoot(2), x2 -> t over F_2: x2 + x1^2 + x1 vanishes."""
    return SeriesEmbedPlace(
        F2, ZZ_GROUP, (("x1", frobenius_root(2)), ("x2", t_pow(F2, ZZ_GROUP, 1)))
    )


def _frobenius_root_after_monomial():
    """The embedding applied to the residues x1, x2 of a and b after u -> 1."""
    first = MonomialPlace(F2, ZZ_GROUP, (("u", ZZ_GROUP.elem(1)),), (("a", "x1"), ("b", "x2")))
    return compose(first, _frobenius_root_embed())


def _kernel_plus(names, e):
    """b + a^2 + a + b^e in the variables (..., a, b); no b^e term when e is None."""
    n = len(names)
    terms = {(0,) * (n - 1) + (1,): 1, (0,) * (n - 2) + (2, 0): 1, (0,) * (n - 2) + (1, 0): 1}
    if e is not None:
        terms[(0,) * (n - 1) + (e,)] = 1
    return _poly(names, terms, F2)


def test_composed_embedding_stage_agrees_with_the_embedding_alone():
    rng = random.Random(57)
    P, embed = _frobenius_root_after_monomial(), _frobenius_root_embed()
    names = ("u", "a", "b")
    kernel = _kernel_plus(names, None)
    decided = 0
    for _ in range(80):
        g = _poly(names, {tuple(rng.randint(0, 3) for _ in names): 1
                          for _ in range(rng.randint(1, 3))}, F2)
        if rng.random() < 0.7:  # a multiple of the kernel, plus b^e or not
            g = kernel * g
            e = rng.choice([5, 12, 20, 40, 70, None])
            if e:
                g = g + _poly(names, {(0, 0, e): 1}, F2)
        v1, lead = _element_lead(P.stages[0], g)
        w = place_value(embed, lead)
        if w.is_exact:
            assert str(place_value(P, g)) == f"({v1},{w})"
            decided += 1
        else:
            with pytest.raises(PrecisionError) as err:
                place_value(P, g)
            assert str(err.value) == f"value of an inner stage undecidable: {w}"
    assert 20 <= decided < 80


# ---------------------------------------------------------------------------
# invariants


def test_invariants_quad_monomial():
    P = _quad_place()
    inv = place_invariants(P)
    assert (inv.rank, inv.rational_rank, inv.dim, inv.ambient_trdeg) == (1, 2, 0, 2)
    assert inv.is_abhyankar and not inv.is_maximal_rank
    assert inv.value_group_fg and inv.residue_fg


def test_invariants_composite_divisors_maximal_rank():
    P = _two_step()
    inv = place_invariants(P)
    assert (inv.rank, inv.rational_rank, inv.dim, inv.ambient_trdeg) == (2, 2, 0, 2)
    assert inv.is_abhyankar and inv.is_maximal_rank


def test_invariants_bad_value_group_stream():
    F2 = GF(2)
    stream = bad_value_group(2, [3, 5, 7])
    x1 = t_pow(F2, QQ_GROUP, 1)
    P = SeriesEmbedPlace(F2, QQ_GROUP, (("x1", x1), ("x2", stream)))
    inv = place_invariants(P)
    assert (inv.rank, inv.rational_rank, inv.dim, inv.ambient_trdeg) == (1, 1, 0, 2)
    assert not inv.is_abhyankar
    assert not inv.value_group_fg
    assert inv.residue_fg


def test_invariants_trivial_place():
    # the ambient degree is the place's own: one variable gives dim 1, not more
    for names in (("x", "y"), ("x",)):
        inv = place_invariants(TrivialPlace(names, QQ))
        n = len(names)
        assert (inv.rank, inv.rational_rank, inv.dim, inv.ambient_trdeg) == (0, 0, n, n)
        assert inv.is_abhyankar


def test_invariants_reject_a_group_larger_than_the_variables():
    L3 = LexGroup(3)
    P = SeriesEmbedPlace(QQ, L3, (("x", make_series(QQ, L3, [((1, 0, 0), 1)])),))
    with pytest.raises(HypothesisError, match="trdeg >= dim \\+ rational rank: 1 < 0 \\+ 3"):
        place_invariants(P)


def _invariant_places():
    """One place of each kind, with its value group and its (rank, rational
    rank, dim, ambient transcendence degree, value group f.g., residue field
    f.g.)."""
    F4, L2, P2 = GF(2, 2), LexGroup(2), p_power_hull(2)
    y_stage = MonomialPlace(QQ, ZZ_GROUP, (("y2", ZZ_GROUP.elem(1)),), (("y3", "w3"),))
    w_stage = MonomialPlace(QQ, ZZ_GROUP, (("w3", ZZ_GROUP.elem(1)),))
    first = MonomialPlace(QQ, ZZ_GROUP, (("x1", ZZ_GROUP.elem(1)),), (("x2", "y2"), ("x3", "y3")))
    return {
        "trivial": (TrivialPlace(("x", "y"), QQ), ZZ_GROUP, (0, 0, 2, 2, True, True)),
        "eval at one point": (
            EvalPlace(QQ, (("x", QQ.elem(2)),)), ZZ_GROUP, (1, 1, 0, 1, True, True),
        ),
        "eval at two points": (
            EvalPlace(QQ, (("x", QQ.elem(2)), ("y", QQ.elem(0)))), L2, (2, 2, 0, 2, True, True),
        ),
        "monomial lex": (
            MonomialPlace(QQ, L2, (("x", L2.elem((1, 0))), ("y", L2.elem((0, 1)))), (("w", "z"),)),
            L2, (2, 2, 1, 3, True, True),
        ),
        "monomial quad": (_quad_place(), QUAD, (1, 2, 0, 2, True, True)),
        "monomial Z": (first, ZZ_GROUP, (1, 1, 2, 3, True, True)),
        "embed ThetaDefect": (
            SeriesEmbedPlace(F2, P2, (("x", theta_defect(2)), ("y", t_pow(F2, P2, 1)))),
            P2, (1, 1, 0, 2, False, True),
        ),
        "embed FrobeniusRoot": (
            SeriesEmbedPlace(F2, ZZ_GROUP, (("x", frobenius_root(2)),)),
            ZZ_GROUP, (1, 1, 0, 1, True, True),
        ),
        "embed BadResidue": (
            SeriesEmbedPlace(F4, ZZ_GROUP, (("x", bad_residue(2)),)),
            ZZ_GROUP, (1, 1, 0, 1, True, False),
        ),
        "compose two stages": (compose(first, y_stage), L2, (2, 2, 1, 3, True, True)),
        "compose three stages, left": (
            compose(compose(first, y_stage), TrivialPlace(("w3",), QQ)),
            LexGroup(3), (2, 2, 1, 3, True, True),
        ),
        "compose three stages, right": (
            compose(first, compose(y_stage, w_stage)), LexGroup(3), (3, 3, 0, 3, True, True),
        ),
        "compose into an embedding": (
            _frobenius_root_after_monomial(), L2, (2, 2, 0, 3, True, True),
        ),
    }


@pytest.mark.parametrize("name", list(_invariant_places()))
def test_invariants_and_value_group_of_every_place_kind(name):
    P, group, (rank, rr, dim, ambient, vfg, rfg) = _invariant_places()[name]
    assert value_group(P) == group
    assert asdict(place_invariants(P)) == {
        "rank": rank,
        "rational_rank": rr,
        "dim": dim,
        "is_abhyankar": ambient == dim + rr,
        "is_maximal_rank": rank == ambient,
        "ambient_trdeg": ambient,
        "value_group_fg": vfg,
        "residue_fg": rfg,
    }


# ---------------------------------------------------------------------------
# uniformization witness


def _smooth_cusp_place():
    F7 = GF(7)
    group = ZZ_GROUP
    x = make_series(F7, group, [(0, 2), (1, 1)])  # x -> 2 + s
    y = unit_nth_root(x * x * x, 2, precision=8)  # 8 = 1 is a square in F_7
    return SeriesEmbedPlace(F7, group, (("x", x), ("y", y)))


def test_witness_passes_at_smooth_point():
    P = _smooth_cusp_place()
    f = _poly(("x", "y"), {(0, 2): 1, (3, 0): -1}, field=GF(7))
    w = UniformizationWitness(("x",), ("y",), (f,))
    out = verify_uniformization_witness(w, P)
    assert out == {"U1": True, "U2": True, "U3": True, "smooth_center": True}


def test_witness_fails_jacobian_at_singular_origin():
    F7 = GF(7)
    group = one_over_m(2)
    P = SeriesEmbedPlace(
        F7,
        group,
        (("x", t_pow(F7, group, 1)), ("y", t_pow(F7, group, Fraction(3, 2)))),
    )
    f = _poly(("x", "y"), {(0, 2): 1, (3, 0): -1}, field=F7)
    w = UniformizationWitness(("x",), ("y",), (f,))
    out = verify_uniformization_witness(w, P)
    assert out["U1"] and out["U2"]
    assert not out["U3"] and not out["smooth_center"]


def test_witness_empty_algebraic_part_vacuous():
    P = _cusp_place()
    w = UniformizationWitness(("x",), (), ())
    out = verify_uniformization_witness(w, P)
    assert out == {"U1": True, "U2": True, "U3": True, "smooth_center": True}


def test_witness_rejects_negative_value_generator():
    group = ZZ_GROUP
    P = SeriesEmbedPlace(QQ, group, (("x", t_pow(QQ, group, -1)),))
    f = _poly(("x",), {(1,): 1})
    w = UniformizationWitness((), ("x",), (f,))
    with pytest.raises(HypothesisError):
        verify_uniformization_witness(w, P)


def test_witness_triangularity_detected():
    F7 = GF(7)
    P = EvalPlace(F7, (("a", F7.elem(1)), ("b", F7.elem(1))))
    # f1 involves the later generator b: triangularity fails
    f1 = _poly(("a", "b"), {(1, 1): 1, (0, 0): -1}, field=F7)
    f2 = _poly(("a", "b"), {(0, 1): 1, (0, 0): -1}, field=F7)
    w = UniformizationWitness((), ("a", "b"), (f1, f2))
    out = verify_uniformization_witness(w, P)
    assert not out["U1"]
    # positive-but-finite value is point vanishing, not field-level vanishing
    assert not out["U2"]
    assert not out["smooth_center"]


# ---------------------------------------------------------------------------
# JSON round trips


def test_json_roundtrip_all_variants():
    F4 = GF(2, 2)
    g = F4.generator()
    places = [
        TrivialPlace(("x", "y"), QQ),
        EvalPlace(QQ, (("x", QQ.elem(Fraction(2, 3))),)),
        EvalPlace(F4, (("x", g),)),
        _quad_place(),
        MonomialPlace(QQ, ZZ_GROUP, (("x", ZZ_GROUP.elem(1)),), (("y", "z"),)),
        _cusp_place(),
        _two_step(),
    ]
    for P in places:
        blob = place_to_json(P)
        back = place_from_json(blob)
        assert back == P, blob


def test_json_roundtrip_stream_assignment():
    F2 = GF(2)
    P = SeriesEmbedPlace(
        F2,
        QQ_GROUP,
        (("x", t_pow(F2, QQ_GROUP, 1)), ("y", bad_value_group(2, [3, 5]))),
    )
    back = place_from_json(place_to_json(P))
    assert back == P


def test_json_roundtrip_lex_and_p_power_groups():
    L2, P3 = LexGroup(2), p_power_hull(3)
    F3 = GF(3)
    lex = MonomialPlace(QQ, L2, (("x", L2.elem((1, 0))), ("y", L2.elem((0, 1)))), (("w", "z"),))
    embed = SeriesEmbedPlace(
        F3, P3,
        (("x", make_series(F3, P3, [(Fraction(-1, 9), 1), (Fraction(1, 3), 2)], 1)),
         ("y", theta_defect(3))),
    )
    for P, group in ((lex, {"kind": "lex", "r": 2}), (embed, {"kind": "p_power", "p": 3})):
        blob = place_to_json(P)
        assert blob["group"] == group
        assert place_from_json(blob) == P


def test_sentinels_survive_copy_and_pickle():
    for sentinel in (ZERO, POLE):
        assert copy.copy(sentinel) is sentinel
        assert copy.deepcopy(sentinel) is sentinel
        assert pickle.loads(pickle.dumps(sentinel)) is sentinel


@pytest.mark.parametrize("field, text, value", [
    (QQ, "3/4", Fraction(3, 4)),
    (QQ, " -2 ", -2),
    (QQ, "0", 0),
    (QQ, "-1/3", Fraction(-1, 3)),
    (GF(5), "3/4", Fraction(3, 4)),
    (GF(5), "-1/3", Fraction(-1, 3)),
    (GF(5), "12", 12),
    (GF(5), " 7 ", 7),
])
def test_string_coefficients_read_in_the_place_field(field, text, value):
    blob = {"variant": "eval", "field": place_to_json(TrivialPlace(("x1",), field))["field"],
            "assignments": [["x1", text]]}
    assert place_from_json(blob).assignments == (("x1", field.elem(value)),)


def test_json_rejects_unknown_variant():
    with pytest.raises(ParamError):
        place_from_json({"variant": "mystery"})


def test_place_vars_accessors():
    P = _two_step()
    assert place_vars(P) == ("x1", "x2")
    assert place_vars(_cusp_place()) == ("x", "y")


# ---------------------------------------------------------------------------
# value and residue together


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValuedFieldError, ZeroDivisionError) as exc:  # errors must agree too
        return type(exc), str(exc)


def _value_residue_cases():
    """(place, function) pairs over every place kind, with ZERO, POLE and
    nonzero residues, an infinite and a bounded value, and the errors."""
    xy = ("x", "y")
    cusp = _cusp_place()
    F2 = GF(2)
    stream = SeriesEmbedPlace(
        F2, ZZ_GROUP, (("x", frobenius_root(2)), ("u", t_pow(F2, ZZ_GROUP, 1)))
    )
    x12 = ("x1", "x2")
    at_2 = EvalPlace(QQ, (("x1", QQ.elem(2)), ("x2", QQ.elem(0))))
    return [
        (TrivialPlace(x12, QQ), _rf(_poly(x12, {(1, 0): 1}), _poly(x12, {(0, 1): 2}))),
        (_quad_place(), _rf(_poly(x12, {(1, 0): 1}), _poly(x12, {(0, 1): 1}))),
        (_quad_place(), _rf(_poly(x12, {(0, 1): 1}), _poly(x12, {(1, 0): 1}))),
        (at_2, _rf(_poly(x12, {(2, 0): 1, (0, 0): -4}), _poly(x12, {(1, 0): 1, (0, 0): -2}))),
        (at_2, _rf(_poly(x12, {(1, 1): 1}), _poly(x12, {(0, 2): 1}))),
        (_two_step(), _rf(_poly(x12, {(1, 1): 3, (0, 2): 1}), _poly(x12, {(1, 0): 2}))),
        (_two_step(), _rf(_poly(x12, {(1, 1): 3, (2, 0): 1}), _poly(x12, {(1, 1): 2}))),
        (cusp, _rf(_poly(xy, {(0, 2): 1}), _poly(xy, {(3, 0): 1}))),
        (cusp, _rf(_poly(xy, {(0, 2): 1, (3, 0): -1}))),
        (cusp, RatFn.make(_poly(xy, {(1, 0): 1}), _poly(xy, {(0, 2): 1, (3, 0): -1}))),
        (stream, _rf(_poly(("x", "u"), {(2, 0): 1, (1, 0): 1, (0, 1): 1}, F2), None, F2)),
        # the numerator's value is only bounded below, by less than the den's
        (stream, _rf(_poly(("x", "u"), {(2, 0): 1, (1, 0): 1, (0, 1): 1}, F2),
                     _poly(("x", "u"), {(0, 70): 1}, F2))),
        # an inner embedding stage decided after refinement, and one in its kernel
        (_frobenius_root_after_monomial(), _kernel_plus(("u", "a", "b"), 20)),
        (_frobenius_root_after_monomial(), _kernel_plus(("u", "a", "b"), None)),
        (_quad_place(), _rf(_poly(x12, {}))),
        (MonomialPlace(QQ, ZZ_GROUP, (("x", ZZ_GROUP.elem(1)),)), _poly(("x", "w"), {(1, 1): 1})),
    ]


@pytest.mark.parametrize("P, f", _value_residue_cases())
def test_value_residue_matches_value_then_residue(P, f):

    def separately():
        return place_value(P, f), place_residue(P, f)

    assert _outcome(place_value_residue, P, f) == _outcome(separately)


def test_value_residue_reads_leading_data_once(monkeypatch):
    calls = []
    lead = places._lead
    monkeypatch.setattr(places, "_lead", lambda P, g: calls.append(g) or lead(P, g))
    P = EvalPlace(QQ, (("x1", QQ.elem(2)), ("x2", QQ.elem(-1))))
    x12 = ("x1", "x2")
    f = _rf(_poly(x12, {(3, 0): 1, (0, 0): -8}), _poly(x12, {(1, 0): 1, (0, 0): 1}))
    v, r = place_value_residue(P, f)
    assert str(v.value) == "(1,0)" and r is ZERO
    assert calls == [f.num, f.den]


@pytest.mark.parametrize("P, names, value", [
    (_frobenius_root_embed(), ("x1", "x2"), "20"),
    (_frobenius_root_after_monomial(), ("u", "a", "b"), "(0,20)"),
])
def test_series_embed_refines_num_and_den_separately(monkeypatch, P, names, value):
    # the numerator expands the stream until its value 20 is decided (rounds
    # 0, 1, 2), and the denominator 1 stops at round 0
    rounds = []
    substitute = places._substitute
    monkeypatch.setattr(
        places, "_substitute", lambda P, g, r: rounds.append(r) or substitute(P, g, r)
    )
    v, r = place_value_residue(P, _kernel_plus(names, 20))
    assert (str(v), r) == (value, ZERO)
    assert rounds == [0, 1, 2, 0]
    assert str(place_value(P, _kernel_plus(names, 20))) == value


def _golden_place(name):
    folder = Path(__file__).parent / "golden" / "places"
    return place_from_json(json.loads((folder / name).read_text(encoding="utf-8")))


def _g9_smooth_place():
    """Gallery G9's smooth center over F_11: x -> 1 + t exact beside a
    truncated y -> sqrt(x^3)."""
    F11 = GF(11)
    x = make_series(F11, ZZ_GROUP, [(0, 1), (1, 1)])
    return SeriesEmbedPlace(
        F11, ZZ_GROUP, (("x", x), ("y", unit_nth_root(x * x * x, 2, precision=8)))
    )


@pytest.mark.parametrize("P, names, term_map, value, want", [
    # a truncated assignment holds the bound still, so nothing is cut
    (_g9_smooth_place(), ("x", "y"), {(0, 2): 1, (3, 0): -1}, ">= 8", [0]),
    # the cut at t^8 decides a value below it
    (_golden_place("exact_binomial.json"), ("x1",), {(3000,): 1}, "0", [0]),
    (_golden_place("exact_binomial.json"), ("x1",), {(200,): 1, (0,): -1}, "1", [0]),
    # the kernel element x1 - 1 - x2^2 has degree 1 in x1, below every rung,
    # so no cut would drop a term and round 0 is whole; times x1^8 (the last
    # row) its degree 9 reaches the rung t^8 but not t^16
    (_golden_place("exact_binomial.json"), ("x1", "x2"),
     {(1, 0): 1, (0, 0): -1, (0, 2): -1}, "oo", [0]),
    # beside a stream, the rounds are the stream's
    (_golden_place("frobenius_root_mixed.json"), ("x1", "x2", "x3"),
     {(2, 0, 1): 1, (1, 0, 1): -1, (0, 1, 1): -1}, ">= 64", [0, 1, 2, 3]),
    (_golden_place("exact_binomial.json"), ("x1", "x2"),
     {(9, 0): 1, (8, 0): -1, (8, 2): -1}, "oo", [0, 1]),
])
def test_exact_assignments_of_several_terms_on_the_ladder(
    monkeypatch, P, names, term_map, value, want
):
    rounds = []
    substitute = places._substitute
    monkeypatch.setattr(
        places, "_substitute", lambda P, g, r: rounds.append(r) or substitute(P, g, r)
    )
    g = _poly(names, term_map, field=P.field)
    assert str(place_value(P, g)) == value
    assert rounds == want + [0]  # then the denominator 1


# ---------------------------------------------------------------------------
# place-level tables: a place keeps what every evaluation at it reads


def _monomial_embedding(group, field, coeffs, precision=None):
    """A monomial embedding x1, x2, x3 -> c t^e, each one term, the first
    cut at t^(precision) when that is given."""
    return SeriesEmbedPlace(field, group, tuple(
        (f"x{i + 1}", make_series(field, group, [(e, c)], precision if i == 0 else None))
        for i, (e, c) in enumerate(coeffs)
    ))


_L2 = LexGroup(2)
_TABLE_PLACES = {
    "quad": _quad_place,
    "lex": lambda: MonomialPlace(
        QQ, _L2, (("x1", _L2.elem((1, 0))), ("x2", _L2.elem((0, 1)))), (("x3", "z3"),),
    ),
    "compose": lambda: compose(
        MonomialPlace(QQ, ZZ_GROUP, (("x1", ZZ_GROUP.elem(1)),), (("x2", "z2"), ("x3", "z3"))),
        MonomialPlace(QQ, _L2, (("z2", _L2.elem((1, 0))), ("z3", _L2.elem((0, 1))))),
    ),
    "embed_half": lambda: _monomial_embedding(
        one_over_m(2), QQ, [(1, 3), (Fraction(3, 2), Fraction(-2, 5)), (Fraction(1, 2), 7)]
    ),
    # x1 -> 2 t^2 + O(t^5) over F_5, beside an exact constant x3 -> 3
    "embed_z_truncated": lambda: _monomial_embedding(ZZ_GROUP, GF(5), [(2, 2), (3, 4), (0, 3)], 5),
}


def _random_table_function(rng, field, names):
    """A random quotient in a shuffled subset of names, sometimes a
    polynomial."""
    gvars = [v for v in names if rng.random() < 0.75] or [rng.choice(names)]
    rng.shuffle(gvars)

    def poly(count):
        return MPoly.make(tuple(gvars), {
            tuple(rng.randint(0, 3) for _ in gvars): field.elem(rng.randint(-4, 4))
            for _ in range(count)
        })

    num = poly(rng.randint(1, 4))
    while not num.terms:
        num = poly(rng.randint(1, 4))
    if rng.random() < 0.3:
        return num
    den = poly(rng.randint(1, 3))
    while not den.terms:
        den = poly(rng.randint(1, 3))
    return RatFn.make(num, den)


@pytest.mark.parametrize("name", sorted(_TABLE_PLACES))
def test_a_used_place_answers_as_a_fresh_one(name):
    build = _TABLE_PLACES[name]
    P = build()  # one long-lived place, its tables filled as it goes
    field, names = places.base_field(P), place_vars(P)
    rng = random.Random(f"tables-{name}")
    raised = 0
    for _ in range(120):
        f = _random_table_function(rng, field, names)
        for fn in (place_value, place_residue, place_value_residue):
            got = _outcome(fn, P, f)
            assert got == _outcome(fn, build(), f), (fn.__name__, f)
            raised += isinstance(got, tuple) and isinstance(got[0], type)
    assert raised < 360  # not every answer an error
    first, *later = P.stages if isinstance(P, ComposePlace) else (P,)
    if isinstance(first, MonomialPlace):
        assert len(first._layouts) >= 3  # several variable orders were kept
    else:
        assert first._powers and all(len(s.terms) == 1 for s in first._powers.values())
    # a later stage sees only the residue indeterminates of the stage before
    assert all(len(stage._layouts) == 1 for stage in later)


def test_a_second_evaluation_at_a_monomial_embedding_forms_no_power(monkeypatch):
    P = _TABLE_PLACES["embed_half"]()
    names = ("x3", "x1", "x2")
    f = RatFn.make(
        _poly(names, {(2, 3, 0): 5, (0, 0, 2): -1, (4, 0, 1): 2}),
        _poly(names, {(0, 2, 0): 3, (1, 1, 1): 1}),
    )
    powers = []
    power = Series.__pow__
    monkeypatch.setattr(Series, "__pow__", lambda s, e: powers.append(e) or power(s, e))
    first = place_value_residue(P, f)
    assert powers
    del powers[:]
    assert place_value_residue(P, f) == first and place_value(P, f) == first[0]
    assert place_residue(P, f) == first[1]
    assert powers == []


def test_only_monomial_embeddings_keep_powers():
    assert _cusp_place()._powers == {}
    F2 = GF(2)
    stream = SeriesEmbedPlace(
        F2, ZZ_GROUP, (("x", frobenius_root(2)), ("u", t_pow(F2, ZZ_GROUP, 1)))
    )
    zero = SeriesEmbedPlace(QQ, ZZ_GROUP, (("x", make_series(QQ, ZZ_GROUP, [])),))
    for P in (stream, zero, _g9_smooth_place(), _golden_place("exact_binomial.json")):
        assert P._powers is None
        place_value(P, _poly(place_vars(P)[:1], {(2,): 1, (0,): 1}, field=P.field))
        assert P._powers is None


@pytest.mark.parametrize("name", sorted(_TABLE_PLACES))
def test_tables_stay_out_of_equality_hashing_and_the_place_file(name):
    build = _TABLE_PLACES[name]
    P, fresh = build(), build()
    rng = random.Random(f"file-{name}")
    field, names = places.base_field(P), place_vars(P)
    for _ in range(20):
        _outcome(place_value_residue, P, _random_table_function(rng, field, names))
    assert P == fresh and hash(P) == hash(fresh) and repr(P) == repr(fresh)
    assert place_to_json(P) == place_to_json(fresh)
    back = place_from_json(place_to_json(P))
    assert back == P and hash(back) == hash(P)


# ---------------------------------------------------------------------------
# values as integer rows against the group-element fold


def _fold_lead(P, g):
    """The leading data of g over group elements: folded term by term at a
    monomial place, and else as _tree_lead gives it, a composition's stages
    nested to the right."""
    if isinstance(P, MonomialPlace):
        return _folded_monomial_lead(P, g)
    tree = P
    if isinstance(P, ComposePlace):
        tree = P.stages[-1]
        for stage in reversed(P.stages[:-1]):
            tree = (stage, tree)
    return _tree_lead(tree, g)


def _folded_value_residue(P, f, zero_message):
    """(value, residue) of f from _fold_lead: the values subtracted and the
    sign read as group elements, after the checks of a covered, nonzero f."""
    for name in f.num.vars:
        if name not in place_vars(P):
            raise ParamError(f"variable {name} is not covered by the place")
    if not f.num.terms:
        raise ParamError(zero_message)
    (v_num, lead_num), (v_den, lead_den) = _fold_lead(P, f.num), _fold_lead(P, f.den)
    v = v_num - v_den
    s = v.sign()
    residue = ZERO if s > 0 else POLE if s < 0 else places._leading_ratio(lead_num, lead_den)
    return ValuationResult.exact(v), residue


def _described(answer):
    """An answer with the types of its value data and its text beside it,
    as equality alone does not tell 2 from Fraction(2); errors as they are."""
    if isinstance(answer, ValuationResult):
        data = answer.value.data
        types = tuple(map(type, data)) if isinstance(data, tuple) else type(data)
        return answer, data, types, str(answer.value)
    if isinstance(answer, tuple) and isinstance(answer[0], ValuationResult):
        return _described(answer[0]), (answer[1], str(answer[1]))
    return answer if isinstance(answer, tuple) else (answer, str(answer))


def _random_poly(rng, field, gvars, top=3, terms=4):
    g = MPoly(tuple(gvars), ())
    while not g.terms:
        g = MPoly.make(gvars, {
            tuple(rng.randint(0, top) for _ in gvars): field.elem(rng.randint(1, 4))
            for _ in range(rng.randint(1, terms))
        })
    return g


def _row_case(rng, kind):
    """A place of the kind and a function on it: a zero numerator now and
    then, at a monomial place sometimes a variable the place does not cover,
    and denominators that often cancel the numerator's value."""
    if kind == "monomial":
        field = rng.choice([QQ, GF(5)])
        P = _random_monomial_place(rng, field)
        gvars = [v for v in place_vars(P) if rng.random() < 0.8] or [place_vars(P)[0]]
        if rng.random() < 0.1:
            gvars.append("u")
        rng.shuffle(gvars)
        num = _random_poly(rng, field, gvars)
        # one of num's terms, so that the value is 0 as often as not
        den = MPoly(num.vars, (rng.choice(num.terms),)) if rng.random() < 0.5 else (
            _random_poly(rng, field, gvars, terms=2))
    elif kind == "eval":
        field = rng.choice([QQ, GF(5), GF(3, 2)])
        P, num = _random_eval_case(rng, field)
        point = dict(P.assignments)
        v = rng.choice(num.vars)
        den = _power(_x_minus(num.vars, v, point[v]), rng.randint(0, 3)).scale(field.elem(rng.randint(1, 2)))
    elif kind == "trivial":
        field = rng.choice([QQ, GF(3)])
        names = ("x1", "x2", "x3")[: rng.randint(1, 3)]
        P = TrivialPlace(names, field)
        num, den = _random_poly(rng, field, names), _random_poly(rng, field, names, terms=2)
    else:
        field = rng.choice([QQ, GF(2), GF(3), GF(5)])
        names = ("x1", "x2", "x3", "x4")
        P = ComposePlace(_random_stages(rng, field, names, rng.choice([2, 3])))
        top = 4 if field == QQ else field.p - 1
        num, den = (
            MPoly.make(names, {tuple(rng.randint(0, 2) for _ in names): field.elem(rng.randint(1, top))
                               for _ in range(rng.randint(1, 3))})
            for _ in range(2)
        )
    if rng.random() < 0.03:
        num = MPoly(num.vars, ())
    return P, RatFn.make(num, den)


def test_integer_rows_answer_as_the_group_element_fold():
    rng = random.Random(20261021)
    kinds = Counter()
    for kind in ["monomial"] * 420 + ["eval"] * 300 + ["trivial"] * 80 + ["compose"] * 240:
        P, f = _row_case(rng, kind)
        no_value, no_residue = "the zero function has no value", "the zero function has no residue data"
        value = _outcome(place_value, P, f)
        assert _described(value) == _described(_outcome(lambda: _folded_value_residue(P, f, no_value)[0]))
        assert _described(_outcome(place_residue, P, f)) == _described(
            _outcome(lambda: _folded_value_residue(P, f, no_residue)[1]))
        assert _described(_outcome(place_value_residue, P, f)) == _described(
            _outcome(_folded_value_residue, P, f, no_value))
        kinds[kind, value.value.sign() if isinstance(value, ValuationResult) else None] += 1
    # every kind answers with positive, zero and negative values
    assert all(kinds[kind, s] for kind in ("monomial", "eval", "compose") for s in (-1, 0, 1))
    assert kinds["trivial", 0] and sum(kinds.values()) >= 1000


def test_a_value_builds_one_element_and_a_residue_none(monkeypatch):
    # the rows of num and den are subtracted as ints and their sign read
    # off the row: one element is built per value and none per residue
    counts = Counter()
    for name in ("__add__", "__sub__", "__neg__"):
        op = vars(GroupElem)[name]
        monkeypatch.setattr(GroupElem, name, lambda *a, name=name, op=op: counts.update([name]) or op(*a))
    from_row = places._from_integer_row
    monkeypatch.setattr(
        places, "_from_integer_row", lambda *a: counts.update(["_from_integer_row"]) or from_row(*a)
    )
    rng = random.Random(20261022)
    checked = Counter()
    while min(checked[kind] for kind in ("monomial", "eval", "compose")) < 30:
        kind = rng.choice(["monomial", "eval", "compose"])
        P, f = _row_case(rng, kind)
        if isinstance(P, ComposePlace) and any(isinstance(s, SeriesEmbedPlace) for s in P.stages):
            continue  # an embedding stage does series arithmetic on exponents
        if isinstance(_outcome(place_value_residue, P, f)[0], type):
            continue  # an error
        counts.clear()
        place_value(P, f)
        assert counts == {"_from_integer_row": 1}, (P, f)
        counts.clear()
        place_residue(P, f)
        assert not counts, (P, f)
        counts.clear()
        place_value_residue(P, f)
        assert counts == {"_from_integer_row": 1}, (P, f)
        checked[kind] += 1
