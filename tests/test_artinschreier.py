import random
from fractions import Fraction

import pytest

from valuedfields.artinschreier import (
    ASInstance,
    DefectSuspect,
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
    classify,
    poly_to_series,
    ramified_root_value,
    residue_case,
    root_split,
    surgery,
    translation_instance,
)
from valuedfields.errors import (
    HypothesisError,
    PrecisionError,
    UnsupportedError,
    WrongCaseError,
)
from valuedfields.fields import GF, frobenius, trace_to_prime
from valuedfields.groups import ZZ_GROUP, one_over_m, p_power_hull
from valuedfields.polys import mpoly
from valuedfields.series import (
    frobenius_root,
    frobenius_series,
    make_series,
    stream_expand,
    theta_defect,
    truncate,
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
    assert classify(ASInstance(2, _series(F2, ZZ_GROUP, [(1, 1)]))) == POSITIVE_VALUE
    assert classify(ASInstance(2, _series(F2, ZZ_GROUP, [(0, 1), (1, 1)]))) == ZERO_VALUE
    assert classify(ASInstance(2, _series(F2, ZZ_GROUP, [(-1, 1)]))) == NEGATIVE_RAMIFIED
    assert classify(ASInstance(2, _series(F2, hull, [(-1, 1)]))) == NEGATIVE_UNRAMIFIED


def test_classify_divisible_negative_value_in_integers():
    F3 = GF(3)
    c = _series(F3, ZZ_GROUP, [(-3, 1)])
    assert classify(ASInstance(3, c)) == NEGATIVE_UNRAMIFIED


def test_classify_zero_constant_counts_as_positive():
    F2 = GF(2)
    assert classify(ASInstance(2, zero_series(F2, ZZ_GROUP))) == POSITIVE_VALUE


def test_classify_rejects_undecidable_sign():
    F2 = GF(2)
    c = zero_series(F2, ZZ_GROUP, precision=-1)
    with pytest.raises(PrecisionError):
        classify(ASInstance(2, c))


def test_instance_rejects_characteristic_mismatch():
    F2 = GF(2)
    with pytest.raises(HypothesisError):
        ASInstance(3, _series(F2, ZZ_GROUP, [(1, 1)]))


# ---------------------------------------------------------------------------
# splitting at positive value


def test_root_split_matches_fixed_point_stream():
    F2 = GF(2)
    c = _series(F2, ZZ_GROUP, [(1, 1)])
    out = root_split(ASInstance(2, c), target=8)
    assert isinstance(out, Split) and len(out.roots) == 2
    expected = stream_expand(frobenius_root(2), 8)
    signs = {str(r) for r in out.roots}
    # one root is the fixed-point series t + t^2 + t^4 + ..., the other differs by 1
    assert str(expected) in signs
    diff = out.roots[1] - out.roots[0]
    assert [(str(e), str(co)) for e, co in diff.terms] == [("0", "1")]


def test_root_split_all_roots_evaluate_to_zero():
    F3 = GF(3)
    inst = ASInstance(3, _series(F3, ZZ_GROUP, [(1, 1), (2, 2)]))
    out = root_split(inst, target=7)
    assert len(out.roots) == 3
    f = inst.poly()
    for r in out.roots:
        assert f.eval(r).is_zero_to_precision()
    consts = sorted(str((r - out.roots[0]).terms or "0") for r in out.roots)
    assert len(set(consts)) == 3


def test_root_split_zero_constant_gives_prime_field():
    F3 = GF(3)
    out = root_split(ASInstance(3, zero_series(F3, ZZ_GROUP)), target=5)
    rendered = sorted(str(r) for r in out.roots)
    assert rendered == ["0", "1*t^(0)", "2*t^(0)"]


def test_root_split_wrong_case():
    F2 = GF(2)
    inst = ASInstance(2, _series(F2, ZZ_GROUP, [(0, 1)]))
    with pytest.raises(WrongCaseError):
        root_split(inst, target=4)


# ---------------------------------------------------------------------------
# residue criterion at value zero


def test_residue_case_trace_zero_lifts():
    F4 = GF(2, 2)
    g = F4.generator()
    assert trace_to_prime(F4.one()).is_zero()  # tr(1) = 1 + 1 = 0 in F_4
    inst = ASInstance(2, _series(F4, ZZ_GROUP, [(0, 1), (1, 1)]))
    out = residue_case(inst, target=6)
    assert isinstance(out, LiftedRoot)
    assert inst.poly().eval(out.root).is_zero_to_precision()
    lead = out.root.terms[0][1]
    assert (frobenius(lead) - lead - F4.one()).is_zero()
    # the roots are g and g + 1; the start is the least in element order
    assert lead == g


def test_residue_case_nonzero_trace_reports_witness():
    F2 = GF(2)
    inst = ASInstance(2, _series(F2, ZZ_GROUP, [(0, 1), (1, 1)]))
    out = residue_case(inst, target=6)
    assert isinstance(out, NoResidueRoot)
    assert str(out.trace) == "1"


def test_residue_case_zero_residue_falls_through():
    F2 = GF(2)
    inst = ASInstance(2, _series(F2, ZZ_GROUP, [(1, 1)]))
    out = residue_case(inst, target=6)
    assert isinstance(out, LiftedRoot)
    assert inst.poly().eval(out.root).is_zero_to_precision()


def test_residue_case_wrong_case():
    F2 = GF(2)
    inst = ASInstance(2, _series(F2, ZZ_GROUP, [(-1, 1)]))
    with pytest.raises(WrongCaseError):
        residue_case(inst, target=4)


def test_residue_case_against_enumeration():
    # the decision must agree with brute force over every residue constant
    for p, n in [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]:
        F = GF(p, n)
        for r in F.elements():
            c = _series(F, ZZ_GROUP, [(0, r), (1, 1)]) if not r.is_zero() else _series(F, ZZ_GROUP, [(1, 1)])
            out = residue_case(ASInstance(p, c), target=4)
            solvable = any((frobenius(b) - b - r).is_zero() for b in F.elements())
            if solvable:
                assert isinstance(out, LiftedRoot)
            else:
                assert isinstance(out, NoResidueRoot)
                assert out.trace == trace_to_prime(r)


# ---------------------------------------------------------------------------
# forced fractional value


def test_ramified_value_halves_the_pole():
    F2 = GF(2)
    inst = ASInstance(2, _series(F2, ZZ_GROUP, [(-1, 1)]))
    out = ramified_root_value(inst)
    assert isinstance(out, Ramified)
    assert str(out.root_value) == "-1/2"
    assert out.root_value.coords()[0] == Fraction(-1, 2)
    assert "at least 2" in out.extension_note


def test_ramified_value_in_refined_group():
    F3 = GF(3)
    half = one_over_m(2)
    inst = ASInstance(3, _series(F3, half, [(Fraction(-1, 2), 1)]))
    out = ramified_root_value(inst)
    assert str(out.root_value) == "-1/6"
    assert out.root_value.group == one_over_m(6)


def test_ramified_value_rejects_divisible_case():
    F3 = GF(3)
    inst = ASInstance(3, _series(F3, ZZ_GROUP, [(-3, 1)]))
    with pytest.raises(WrongCaseError):
        ramified_root_value(inst)


# ---------------------------------------------------------------------------
# surgery


def test_surgery_builds_defect_tower():
    F2 = GF(2)
    hull = p_power_hull(2)
    c = _series(F2, hull, [(-1, 1)])
    out = surgery(c, max_iter=4)
    assert isinstance(out, DefectSuspect)
    assert out.iterations == 4
    exps = [str(e) for e, _ in out.partial.terms]
    assert exps == ["-1/2", "-1/4", "-1/8", "-1/16"]
    assert [(str(e), str(co)) for e, co in out.residual.terms] == [("-1/16", "1")]
    # partial sum must match the catalog stream truncated to the same depth
    theta = stream_expand(theta_defect(2), 0, max_terms=4)
    assert truncate(out.partial, theta.precision) == theta


def test_surgery_step_exactness():
    # after any run, c - (B^p - B) equals the residual with no error term
    rng = random.Random(41)
    F4 = GF(2, 2)
    hull = p_power_hull(2)
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
        c = _series(F4, hull, pairs)
        out = surgery(c, max_iter=6)
        B = out.partial
        recomputed = c - (frobenius_series(B) - B)
        assert recomputed == out.residual


def test_surgery_positive_front_is_eliminated():
    # x^2 + x^3 rewrites to x + x^3: the leading square moves to its root
    F2 = GF(2)
    q = mpoly(("x",), {(2,): F2.one(), (3,): F2.one()})
    out = surgery(poly_to_series(q, ZZ_GROUP), max_iter=10)
    assert isinstance(out, NormalForm)
    assert out.iterations == 1
    assert out.case == POSITIVE_VALUE
    assert [(str(e), str(co)) for e, co in out.residual.terms] == [("1", "1"), ("3", "1")]
    assert [(str(e), str(co)) for e, co in out.partial.terms] == [("1", "1")]


def test_surgery_non_divisible_front_stops_immediately():
    F2 = GF(2)
    out = surgery(_series(F2, ZZ_GROUP, [(-1, 1)]), max_iter=10)
    assert isinstance(out, NormalForm)
    assert out.iterations == 0
    assert out.case == NEGATIVE_RAMIFIED


def test_surgery_detects_exact_image():
    # t^-4 + t^-1 = b^2 - b for b = t^-2 + t^-1, so everything cancels
    F2 = GF(2)
    c = _series(F2, ZZ_GROUP, [(-4, 1), (-1, 1)])
    out = surgery(c, max_iter=10)
    assert isinstance(out, NormalForm)
    assert out.case == POSITIVE_VALUE
    assert out.iterations == 2
    assert out.residual.is_exact_zero()
    assert [(str(e), str(co)) for e, co in out.partial.terms] == [("-2", "1"), ("-1", "1")]


def test_surgery_takes_coefficient_roots():
    F4 = GF(2, 2)
    g = F4.generator()
    c = _series(F4, ZZ_GROUP, [(-2, g)])
    out = surgery(c, max_iter=10)
    assert isinstance(out, NormalForm)
    assert out.case == NEGATIVE_RAMIFIED
    assert out.iterations == 1
    root = out.partial.terms[0][1]
    assert (frobenius(root) - g).is_zero()


def test_surgery_iteration_cap_zero():
    F2 = GF(2)
    hull = p_power_hull(2)
    out = surgery(_series(F2, hull, [(-1, 1)]), max_iter=0)
    assert isinstance(out, DefectSuspect)
    assert out.iterations == 0
    assert out.partial.is_exact_zero()


def test_surgery_trace_records_steps():
    F3 = GF(3)
    hull = p_power_hull(3)
    out = surgery(_series(F3, hull, [(-1, 1)]), max_iter=3)
    assert [s.eliminated_exponent for s in out.trace] == ["-1", "-1/3", "-1/9"]
    assert out.trace[0].b == "1*t^(-1/3)"


def test_surgery_rejects_multivariate_input():
    # surgery takes a series; the conversion from a polynomial rejects two variables
    F2 = GF(2)
    q = mpoly(("x", "y"), {(1, 1): F2.one()})
    with pytest.raises(UnsupportedError):
        poly_to_series(q, ZZ_GROUP)


def test_surgery_rejects_characteristic_zero():
    from valuedfields.fields import QQ

    c = make_series(QQ, ZZ_GROUP, [(-1, 1)])
    with pytest.raises((HypothesisError, UnsupportedError)):
        surgery(c, max_iter=3)


# ---------------------------------------------------------------------------
# translation


def test_translation_shifts_constant():
    F2 = GF(2)
    inst = ASInstance(2, _series(F2, ZZ_GROUP, [(1, 1)]))
    b = _series(F2, ZZ_GROUP, [(1, 1)])
    moved = translation_instance(inst, b)
    assert [(str(e), str(co)) for e, co in moved.c.terms] == [("2", "1")]


def test_translation_preserves_classification_below_the_pole():
    F2 = GF(2)
    for group, expected in [
        (ZZ_GROUP, NEGATIVE_RAMIFIED),
        (p_power_hull(2), NEGATIVE_UNRAMIFIED),
    ]:
        inst = ASInstance(2, _series(F2, group, [(-1, 1)]))
        b = _series(F2, group, [(1, 1), (3, 1)])
        moved = translation_instance(inst, b)
        assert classify(moved) == expected
        assert valuation(moved.c).value == valuation(inst.c).value


def test_translation_by_root_splits_off_zero():
    # translating by an actual root turns the constant into exact zero
    F2 = GF(2)
    hull = p_power_hull(2)
    b = _series(F2, hull, [(Fraction(-1, 2), 1)])
    c = frobenius_series(b) - b
    inst = ASInstance(2, c)
    moved = translation_instance(inst, b)
    assert moved.c.is_exact_zero()


def test_surgery_is_one_translation_by_its_partial_sum():
    # DefectSuspect.partial and NormalForm.partial both carry the B with
    # residual = c - (B^p - B), the constant of the translation by B
    rng = random.Random(22)
    kinds = set()
    for p in (2, 3, 5):
        F = GF(p)
        for group, den in ((ZZ_GROUP, 1), (p_power_hull(p), p ** 2)):
            for _ in range(10):
                pairs = {
                    Fraction(rng.randint(-3 * p, 3), den): rng.randint(1, p - 1)
                    for _ in range(rng.randint(1, 4))
                }
                c = _series(F, group, list(pairs.items()))
                out = surgery(c, max_iter=rng.randint(0, 3))
                kinds.add(type(out))
                moved = translation_instance(ASInstance(p, c), out.partial)
                assert moved.c == out.residual
    assert kinds == {DefectSuspect, NormalForm}


# ---------------------------------------------------------------------------
# dispatch


def test_analyze_routes_all_cases():
    F2 = GF(2)
    hull = p_power_hull(2)
    cases = [
        (_series(F2, ZZ_GROUP, [(1, 1)]), Split),
        (_series(F2, ZZ_GROUP, [(0, 1), (1, 1)]), NoResidueRoot),
        (_series(F2, ZZ_GROUP, [(-1, 1)]), Ramified),
        (_series(F2, hull, [(-1, 1)]), DefectSuspect),
    ]
    for c, kind in cases:
        case, out = analyze(ASInstance(2, c), target=5, max_iter=3)
        assert isinstance(out, kind), (case, out)


def test_outcomes_serialize():
    F2 = GF(2)
    hull = p_power_hull(2)
    _, out = analyze(ASInstance(2, _series(F2, hull, [(-1, 1)])), target=5, max_iter=2)
    blob = out.to_json()
    assert blob["variant"] == "DefectSuspect"
    assert blob["iterations"] == 2
    assert blob["trace"][0]["eliminated_exponent"] == "-1"
