import dataclasses
import random
import time
from fractions import Fraction

import pytest

from valuedfields.artinschreier import (
    LiftedRoot,
    NEGATIVE_RAMIFIED,
    NEGATIVE_UNRAMIFIED,
    NoResidueRoot,
    NormalForm,
    POSITIVE_VALUE,
    Ramified,
    Split,
    ZERO_VALUE,
    analyze,
    as_poly,
    classify,
    poly_to_series,
    surgery,
    translate,
)
from valuedfields.errors import (
    HypothesisError,
    IterationCapError,
    ParamError,
    PrecisionError,
    UnsupportedError,
)
from valuedfields.fields import GF, frobenius, trace_to_prime
from valuedfields.groups import QQ_GROUP, ZZ_GROUP, one_over_m, p_power_hull
from valuedfields.polys import mpoly
from valuedfields.series import (
    frobenius_root,
    frobenius_series,
    make_series,
    stream_expand,
    theta_defect,
    valuation,
    zero_series,
)


def _series(field, group, pairs, precision=None):
    return make_series(field, group, pairs, precision)


# ---------------------------------------------------------------------------
# classification


def test_classify_four_cases():
    F2 = GF(2)
    hull = p_power_hull(2)
    assert classify(_series(F2, ZZ_GROUP, [(1, 1)])) == POSITIVE_VALUE
    assert classify(_series(F2, ZZ_GROUP, [(0, 1), (1, 1)])) == ZERO_VALUE
    assert classify(_series(F2, ZZ_GROUP, [(-1, 1)])) == NEGATIVE_RAMIFIED
    assert classify(_series(F2, hull, [(-1, 1)])) == NEGATIVE_UNRAMIFIED


def test_classify_divisible_negative_value_in_integers():
    F3 = GF(3)
    c = _series(F3, ZZ_GROUP, [(-3, 1)])
    assert classify(c) == NEGATIVE_UNRAMIFIED


def test_classify_zero_constant_counts_as_positive():
    F2 = GF(2)
    assert classify(zero_series(F2, ZZ_GROUP)) == POSITIVE_VALUE


def test_classify_rejects_undecidable_sign():
    F2 = GF(2)
    c = zero_series(F2, ZZ_GROUP, precision=-1)
    with pytest.raises(PrecisionError):
        classify(c)


# ---------------------------------------------------------------------------
# splitting at positive value


def test_root_split_matches_fixed_point_stream():
    F2 = GF(2)
    c = _series(F2, ZZ_GROUP, [(1, 1)])
    case, out = analyze(c, target=8)
    assert case == POSITIVE_VALUE
    assert isinstance(out, Split) and len(out.roots) == 2
    expected = stream_expand(frobenius_root(2), 8)
    signs = {str(r) for r in out.roots}
    # one root is the fixed-point series t + t^2 + t^4 + ..., the other differs by 1
    assert str(expected) in signs
    diff = out.roots[1] - out.roots[0]
    assert [(str(e), str(co)) for e, co in diff.terms] == [("0", "1")]


def test_root_split_all_roots_evaluate_to_zero():
    F3 = GF(3)
    c = _series(F3, ZZ_GROUP, [(1, 1), (2, 2)])
    _, out = analyze(c, target=7)
    assert len(out.roots) == 3
    f = as_poly(c)
    for r in out.roots:
        assert f.eval(r).is_zero_to_precision()
    consts = sorted(str((r - out.roots[0]).terms or "0") for r in out.roots)
    assert len(set(consts)) == 3


def test_root_split_zero_constant_gives_prime_field():
    F3 = GF(3)
    _, out = analyze(zero_series(F3, ZZ_GROUP), target=5)
    rendered = sorted(str(r) for r in out.roots)
    assert rendered == ["0", "1*t^(0)", "2*t^(0)"]


# ---------------------------------------------------------------------------
# residue criterion at value zero


def test_residue_case_trace_zero_lifts():
    F4 = GF(2, 2)
    g = F4.generator()
    assert trace_to_prime(F4.one()).is_zero()  # tr(1) = 1 + 1 = 0 in F_4
    c = _series(F4, ZZ_GROUP, [(0, 1), (1, 1)])
    case, out = analyze(c, target=6)
    assert case == ZERO_VALUE
    assert isinstance(out, LiftedRoot)
    assert as_poly(c).eval(out.root).is_zero_to_precision()
    lead = out.root.terms[0][1]
    assert (frobenius(lead) - lead - F4.one()).is_zero()
    # the roots are g and g + 1; the start is the least in element order
    assert lead == g


def test_residue_case_nonzero_trace_reports_witness():
    F2 = GF(2)
    _, out = analyze(_series(F2, ZZ_GROUP, [(0, 1), (1, 1)]), target=6)
    assert isinstance(out, NoResidueRoot)
    assert str(out.trace) == "1"


def test_residue_case_zero_residue_falls_through():
    # a residue 0 is a positive value: the split lifts from the residue root
    # 0 and never searches F_{2^16}, whose 2^16 elements exceed the budget
    start = time.perf_counter()
    F = GF(2, 16)
    c = _series(F, ZZ_GROUP, [(1, F.elem((1,) * 16))])
    case, out = analyze(c, target=6)
    assert case == POSITIVE_VALUE and isinstance(out, Split)
    for root in out.roots:
        assert as_poly(c).eval(root).is_zero_to_precision()
    assert time.perf_counter() - start < 1


def test_residue_case_against_enumeration():
    # the decision must agree with brute force over every residue constant
    for p, n in [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]:
        F = GF(p, n)
        for r in F.elements():
            c = _series(F, ZZ_GROUP, [(0, r), (1, 1)]) if not r.is_zero() else _series(F, ZZ_GROUP, [(1, 1)])
            _, out = analyze(c, target=4)
            solvable = any((frobenius(b) - b - r).is_zero() for b in F.elements())
            if solvable:
                assert isinstance(out, Split if r.is_zero() else LiftedRoot)
            else:
                assert isinstance(out, NoResidueRoot)
                assert out.trace == trace_to_prime(r)


def test_residue_root_search_over_a_large_field_fails_fast():
    # b is a root of X^2 - X - (b^2 + b), but finding it would try every one
    # of the 2^16 elements of F_{2^16}
    start = time.perf_counter()
    F = GF(2, 16)
    b = F.elem((1,) * 16)
    c = _series(F, ZZ_GROUP, [(0, b ** 2 + b)])
    with pytest.raises(ParamError, match="every element of F_65536; more than 4096 is refused"):
        analyze(c, target=4)
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# forced fractional value


def test_ramified_value_halves_the_pole():
    F2 = GF(2)
    case, out = analyze(_series(F2, ZZ_GROUP, [(-1, 1)]), target=4)
    assert case == NEGATIVE_RAMIFIED
    assert isinstance(out, Ramified)
    assert str(out.root_value) == "-1/2"
    assert out.root_value.data == Fraction(-1, 2)
    assert "at least 2" in out.note


def test_ramified_value_in_refined_group():
    F3 = GF(3)
    half = one_over_m(2)
    _, out = analyze(_series(F3, half, [(Fraction(-1, 2), 1)]), target=4)
    assert str(out.root_value) == "-1/6"
    assert out.root_value.group == one_over_m(6)


# ---------------------------------------------------------------------------
# surgery


def test_surgery_builds_defect_tower():
    # over (1/16)Z the tower of t^(-1) stops at the first exponent outside
    # the group; its partial sum is the defect root's first four terms
    F2 = GF(2)
    c = _series(F2, one_over_m(16), [(-1, 1)])
    out = surgery(c)
    assert isinstance(out, NormalForm)
    assert out.case == NEGATIVE_RAMIFIED
    assert out.iterations == 4
    exps = [str(e) for e, _ in out.partial.terms]
    assert exps == ["-1/2", "-1/4", "-1/8", "-1/16"]
    assert [(str(e), str(co)) for e, co in out.residual.terms] == [("-1/16", "1")]
    # partial sum must match the catalog stream to the same depth
    theta = stream_expand(theta_defect(2), 0, max_terms=4)
    assert [(str(e), str(co)) for e, co in theta.terms] == [
        (str(e), str(co)) for e, co in out.partial.terms
    ]


def test_surgery_step_exactness():
    # after any run, c - (B^p - B) equals the residual with no error term
    rng = random.Random(41)
    F4 = GF(2, 2)
    group = one_over_m(8)
    elems = list(F4.elements())
    for _ in range(25):
        pairs = []
        used = set()
        for _ in range(rng.randint(1, 4)):
            e = Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 3))
            if e in used:
                continue
            used.add(e)
            coeff = elems[rng.randint(1, len(elems) - 1)]
            pairs.append((e, coeff))
        if not pairs:
            continue
        c = _series(F4, group, pairs)
        out = surgery(c)
        B = out.partial
        recomputed = c - (frobenius_series(B) - B)
        assert recomputed == out.residual


def test_surgery_positive_front_is_eliminated():
    # x^2 + x^3 rewrites to x + x^3: the leading square moves to its root
    F2 = GF(2)
    q = mpoly(("x",), {(2,): F2.one(), (3,): F2.one()})
    out = surgery(poly_to_series(q, ZZ_GROUP))
    assert isinstance(out, NormalForm)
    assert out.iterations == 1
    assert out.case == POSITIVE_VALUE
    assert [(str(e), str(co)) for e, co in out.residual.terms] == [("1", "1"), ("3", "1")]
    assert [(str(e), str(co)) for e, co in out.partial.terms] == [("1", "1")]


def test_surgery_non_divisible_front_stops_immediately():
    F2 = GF(2)
    out = surgery(_series(F2, ZZ_GROUP, [(-1, 1)]))
    assert isinstance(out, NormalForm)
    assert out.iterations == 0
    assert out.case == NEGATIVE_RAMIFIED


def test_surgery_detects_exact_image():
    # t^-4 + t^-1 = b^2 - b for b = t^-2 + t^-1, so everything cancels
    F2 = GF(2)
    c = _series(F2, ZZ_GROUP, [(-4, 1), (-1, 1)])
    out = surgery(c)
    assert isinstance(out, NormalForm)
    assert out.case == POSITIVE_VALUE
    assert out.iterations == 2
    assert out.residual.is_exact_zero()
    assert [(str(e), str(co)) for e, co in out.partial.terms] == [("-2", "1"), ("-1", "1")]


def test_surgery_takes_coefficient_roots():
    F4 = GF(2, 2)
    g = F4.generator()
    c = _series(F4, ZZ_GROUP, [(-2, g)])
    out = surgery(c)
    assert isinstance(out, NormalForm)
    assert out.case == NEGATIVE_RAMIFIED
    assert out.iterations == 1
    root = out.partial.terms[0][1]
    assert (frobenius(root) - g).is_zero()


@pytest.mark.parametrize(
    "field, group",
    [(GF(2), p_power_hull(2)), (GF(3), p_power_hull(3)), (GF(5), QQ_GROUP)],
    ids=["hull2", "hull3", "Q5"],
)
def test_surgery_raises_at_its_step_budget(field, group):
    # t^(-1) is eliminable at every step over a p-divisible group, so the
    # loop would never end; the budget stops it with one line
    start = time.perf_counter()
    with pytest.raises(IterationCapError, match="budget of 256 steps"):
        surgery(_series(field, group, [(-1, 1)]))
    assert time.perf_counter() - start < 1


def test_surgery_trace_records_steps():
    F3 = GF(3)
    out = surgery(_series(F3, one_over_m(27), [(-1, 1)]))
    assert [s.eliminated_exponent for s in out.trace] == ["-1", "-1/3", "-1/9"]
    assert out.trace[0].b == "1*t^(-1/3)"
    assert [(str(e), str(co)) for e, co in out.residual.terms] == [("-1/27", "1")]


def test_surgery_rejects_multivariate_input():
    # surgery takes a series; the conversion from a polynomial rejects two variables
    F2 = GF(2)
    q = mpoly(("x", "y"), {(1, 1): F2.one()})
    with pytest.raises(UnsupportedError):
        poly_to_series(q, ZZ_GROUP)


def test_surgery_rejects_characteristic_zero():
    # every routine refuses characteristic 0 before it divides a value by p
    from valuedfields.fields import QQ

    for exp in (-1, 0, 1):
        c = make_series(QQ, ZZ_GROUP, [(exp, 1)])
        for run in (surgery, classify, as_poly, lambda c: analyze(c, 4)):
            with pytest.raises(HypothesisError, match="needs positive characteristic"):
                run(c)


# ---------------------------------------------------------------------------
# translation


def test_translation_shifts_constant():
    F2 = GF(2)
    c = _series(F2, ZZ_GROUP, [(1, 1)])
    b = _series(F2, ZZ_GROUP, [(1, 1)])
    moved = translate(c, b)
    assert [(str(e), str(co)) for e, co in moved.terms] == [("2", "1")]


def test_translation_preserves_classification_below_the_pole():
    F2 = GF(2)
    for group, expected in [
        (ZZ_GROUP, NEGATIVE_RAMIFIED),
        (p_power_hull(2), NEGATIVE_UNRAMIFIED),
    ]:
        c = _series(F2, group, [(-1, 1)])
        b = _series(F2, group, [(1, 1), (3, 1)])
        moved = translate(c, b)
        assert classify(moved) == expected
        assert valuation(moved).value == valuation(c).value


def test_translation_by_root_splits_off_zero():
    # translating by an actual root turns the constant into exact zero
    F2 = GF(2)
    hull = p_power_hull(2)
    b = _series(F2, hull, [(Fraction(-1, 2), 1)])
    c = frobenius_series(b) - b
    assert translate(c, b).is_exact_zero()


def test_surgery_is_one_translation_by_its_partial_sum():
    # NormalForm.partial carries the B with residual = c - (B^p - B), the
    # constant of the translation by B
    rng = random.Random(22)
    cases = set()
    for p in (2, 3, 5):
        F = GF(p)
        for group, den in ((ZZ_GROUP, 1), (one_over_m(p ** 2), p ** 2)):
            for _ in range(10):
                pairs = {
                    Fraction(rng.randint(-3 * p, 3), den): rng.randint(1, p - 1)
                    for _ in range(rng.randint(1, 4))
                }
                c = _series(F, group, list(pairs.items()))
                out = surgery(c)
                cases.add(out.case)
                assert translate(c, out.partial) == out.residual
    assert cases == {POSITIVE_VALUE, NEGATIVE_RAMIFIED}


# ---------------------------------------------------------------------------
# dispatch


def test_analyze_routes_all_cases():
    F2 = GF(2)
    hull = p_power_hull(2)
    cases = [
        (_series(F2, ZZ_GROUP, [(1, 1)]), Split),
        (_series(F2, ZZ_GROUP, [(0, 1), (1, 1)]), NoResidueRoot),
        (_series(F2, ZZ_GROUP, [(-1, 1)]), Ramified),
        (_series(F2, ZZ_GROUP, [(-4, 1), (-1, 1)]), NormalForm),
    ]
    for c, kind in cases:
        case, out = analyze(c, target=5)
        assert isinstance(out, kind), (case, out)
    with pytest.raises(IterationCapError):
        analyze(_series(F2, hull, [(-1, 1)]), target=5)


def test_outcomes_serialize():
    # one rule: the variant is the class name, then each field in order
    F2, F4 = GF(2), GF(2, 2)
    outs = [
        analyze(_series(F2, ZZ_GROUP, [(1, 1)]), target=5)[1],
        analyze(_series(F4, ZZ_GROUP, [(0, 1)]), target=5)[1],
        analyze(_series(F2, ZZ_GROUP, [(0, 1)]), target=5)[1],
        analyze(_series(F2, ZZ_GROUP, [(-1, 1)]), target=5)[1],
        analyze(_series(F2, ZZ_GROUP, [(-8, 1), (1, 1)]), target=5)[1],
    ]
    assert [type(o) for o in outs] == [Split, LiftedRoot, NoResidueRoot, Ramified, NormalForm]
    for out in outs:
        blob = out.to_json()
        assert list(blob) == ["variant"] + [f.name for f in dataclasses.fields(out)]
        assert blob["variant"] == type(out).__name__
    split, lifted, none, ramified, normal = (o.to_json() for o in outs)
    assert [r["terms"][0] for r in split["roots"]] == [["1", "1"], ["0", "1"]]
    assert lifted["root"]["field"] == "F_4"
    assert none["trace"] == "1"
    assert ramified["root_value"] == "-1/2" and "at least 2" in ramified["note"]
    assert normal["case"] == NEGATIVE_RAMIFIED and normal["iterations"] == 3
    assert normal["trace"][0] == {"index": 1, "eliminated_exponent": "-8", "b": "1*t^(-4)"}
    assert normal["residual"]["terms"] == [["-1", "1"], ["1", "1"]]
