"""Acceptance suite: eleven exact end-to-end checks with runtime bounds.

Each criterion prints one PASS/FAIL line; run with -s to see them live:

    pytest tests/test_acceptance.py -v -s

Every comparison is exact.  Derived values are checked against independent
oracles computed in this file (substitution series, brute-force enumeration,
bounded unimodular search), never against the code path under test alone.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from valuedfields.artinschreier import LiftedRoot, NoResidueRoot, analyze
from valuedfields.errors import ValuedFieldError
from valuedfields.fields import GF, QQ, frobenius
from valuedfields.gallery import SCENARIO_NAMES, run_scenario
from valuedfields.groups import (
    QuadGroup,
    ZZ_GROUP,
    one_over_m,
    p_power_hull,
    parse_elem,
    perron_basis,
)
from valuedfields.hensel import SeriesPoly, hensel_lift
from valuedfields.places import MonomialPlace, SeriesEmbedPlace, place_value
from valuedfields.polys import MPoly, RatFn, var_poly
from valuedfields.series import (
    ValuationKind,
    add_series,
    frobenius_root,
    frobenius_series,
    make_series,
    stream_expand,
    sub_series,
    t_pow,
    theta_defect,
    truncate,
    valuation,
    zero_series,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} ({label}): FAIL")
        raise
    print(f"criterion {num:02d} ({label}): PASS")


# ---------------------------------------------------------------------------
# oracles, written before the criteria that consume them


def vanishes_to(s, bound):
    """Certified s = O(t^(bound)): no terms below bound, precision reaches it."""
    cut = truncate(s, bound)
    if cut.terms:
        return False
    return cut.precision is None or not cut.precision < bound


def qsign(a, b):
    """Sign of a + b*sqrt(2) for rationals a, b, by integer comparisons."""
    if a >= 0 and b >= 0:
        return 1 if (a, b) != (0, 0) else 0
    if a <= 0 and b <= 0:
        return -1
    big = a * a > 2 * b * b
    if a > 0:
        return 1 if big else -1
    return -1 if big else 1


def random_admissible(rng, field, group):
    """Random polynomial with exact coefficients in t plus a constant start
    that is a simple residue root: v(f(start)) > 0 and v(f'(start)) = 0."""
    p = field.characteristic
    while True:
        deg = rng.randrange(2, 5)
        rows = [[rng.randrange(p) for _ in range(4)] for _ in range(deg + 1)]
        b0 = rng.randrange(p)
        value = sum(row[0] * b0 ** i for i, row in enumerate(rows)) % p
        rows[0][0] = (rows[0][0] - value) % p
        deriv = sum(i * rows[i][0] * b0 ** (i - 1) for i in range(1, deg + 1)) % p
        if deriv == 0:
            continue
        coeffs = tuple(
            make_series(field, group, [(j, c) for j, c in enumerate(row) if c])
            if any(row)
            else zero_series(field, group)
            for row in rows
        )
        start = make_series(field, group, [(0, b0)]) if b0 else zero_series(field, group)
        return SeriesPoly(coeffs), start


def random_quad_poly(rng):
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))
        if c:
            terms[(rng.randrange(7), rng.randrange(7))] = QQ.elem(c)
    if not terms:
        return random_quad_poly(rng)
    return MPoly.make(("x", "y"), terms)


def subst_valuation(poly, vx, vy):
    """Substitute x -> t^(vx), y -> t^(vy) into an exact series and read off
    its minimum support; the exponent map is injective, so no cancellation."""
    terms = [(vx.scale(a) + vy.scale(b), c) for (a, b), c in poly.terms]
    v = valuation(make_series(QQ, vx.group, terms))
    assert v.is_exact
    return v.value


def unimodular_candidates(bound):
    """All integer 2x2 matrices with entries up to the bound, determinant
    +-1, and both rows positive as elements a + b*sqrt(2); sorted so small
    matrices are tried first."""
    rows = [
        (m1, m2)
        for m1 in range(-bound, bound + 1)
        for m2 in range(-bound, bound + 1)
        if qsign(m1, m2) == 1
    ]
    out = []
    for r1 in rows:
        for r2 in rows:
            det = r1[0] * r2[1] - r1[1] * r2[0]
            if det in (1, -1):
                out.append((r1, r2, det))
    out.sort(key=lambda m: max(abs(m[0][0]), abs(m[0][1]), abs(m[1][0]), abs(m[1][1])))
    return out


def bounded_feasible(cand, coord_rows):
    """Does some candidate basis give every target non-negative coordinates?
    Candidate rows are basis coordinates in (1, sqrt(2)); target coordinates
    in that basis are the row vector times the inverse matrix."""
    (a1, b1), (a2, b2) = coord_rows
    for (m11, m12), (m21, m22), det in cand:
        n11 = (a1 * m22 - b1 * m21) * det
        n12 = (b1 * m11 - a1 * m12) * det
        if n11 < 0 or n12 < 0:
            continue
        n21 = (a2 * m22 - b2 * m21) * det
        n22 = (b2 * m11 - a2 * m12) * det
        if n21 >= 0 and n22 >= 0:
            return True
    return False


def frobenius_orbit_sum(c, n):
    """Absolute trace recomputed by summing the n Frobenius images."""
    total = c
    image = c
    for _ in range(n - 1):
        image = frobenius(image)
        total = total + image
    return total


def is_power_of(d, p):
    while d % p == 0:
        d //= p
    return d == 1


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_frobenius_root_lift():
    with criterion(1, "lifted root of X^p - X - t vanishes mod t^(p^4), matches the stream"):
        for p in (2, 3, 5):
            start = time.monotonic()
            field, group = GF(p), ZZ_GROUP
            bound = group.elem(p ** 4)
            coeffs = [t_pow(field, group, 1, -1), t_pow(field, group, 0, -1)]
            coeffs += [zero_series(field, group)] * (p - 2)
            coeffs.append(t_pow(field, group, 0, 1))
            f = SeriesPoly(tuple(coeffs))
            lifted = hensel_lift(f, None, bound)
            assert vanishes_to(f.eval(lifted.root), bound)
            want = stream_expand(frobenius_root(p), p ** 4)
            assert truncate(lifted.root, bound).terms == want.terms
            assert time.monotonic() - start < 1.0


def test_criterion_02_tower_identities():
    with criterion(2, "pole-tower identities and tail values, k <= 5, p in {2,3}"):
        start = time.monotonic()
        for p in (2, 3):
            field, hull = GF(p), p_power_hull(p)
            theta = stream_expand(theta_defect(p), 0, max_terms=8)
            pole = t_pow(field, hull, -1)
            for k in range(1, 6):
                tk = make_series(field, hull, theta.terms[:k])
                power = tk ** p
                # independent power path: termwise Frobenius
                assert power == frobenius_series(tk)
                lhs = sub_series(sub_series(power, tk), pole)
                assert lhs == t_pow(field, hull, Fraction(-1, p ** k), -1)
                v = valuation(sub_series(theta, tk))
                assert v.is_exact
                assert v.value == hull.elem(Fraction(-1, p ** (k + 1)))
        assert time.monotonic() - start < 1.0


def test_criterion_03_newton_doubling_certificates():
    with criterion(3, "100 random admissible starts: residual valuation doubles each step"):
        rng = random.Random(20260816)
        group = ZZ_GROUP
        target = group.elem(16)
        failures = 0
        for trial in range(100):
            field = GF((2, 3, 5, 7)[trial % 4])
            f, b = random_admissible(rng, field, group)
            lifted = hensel_lift(f, b, target)
            steps = lifted.steps
            for i in range(len(steps) - 1):
                bound = steps[i].scale(2)
                if target < bound:
                    bound = target
                if steps[i + 1] < bound:
                    failures += 1
            if not vanishes_to(f.eval(lifted.root), target):
                failures += 1
        assert failures == 0


def test_criterion_04_monomial_value_oracle():
    with criterion(4, "500 random rational functions: place value = substitution support"):
        rng = random.Random(41)
        group = QuadGroup()
        vx = parse_elem(group, "1")
        vy = parse_elem(group, "sqrt2")
        place = MonomialPlace(QQ, group, (("x", vx), ("y", vy)))
        mismatches = 0
        for _ in range(500):
            num = random_quad_poly(rng)
            den = random_quad_poly(rng)
            rf = RatFn.make(num, den)
            want = subst_valuation(num, vx, vy) - subst_valuation(den, vx, vy)
            got = place_value(place, rf)
            if not (got.kind is ValuationKind.EXACT and got.value == want):
                mismatches += 1
        assert mismatches == 0


def test_criterion_05_perron_positive_basis():
    with criterion(5, "50 random positive pairs: postconditions + bounded unimodular search"):
        begin = time.monotonic()
        rng = random.Random(7)
        group = QuadGroup()
        gen = (parse_elem(group, "1"), parse_elem(group, "sqrt2"))
        cand = unimodular_candidates(10)
        disagreements = 0
        done = 0
        while done < 50:
            a1, b1 = rng.randint(-20, 20), rng.randint(-20, 20)
            a2, b2 = rng.randint(-20, 20), rng.randint(-20, 20)
            if qsign(a1, b1) != 1 or qsign(a2, b2) != 1:
                continue
            done += 1
            targets = (
                gen[0].scale(a1) + gen[1].scale(b1),
                gen[0].scale(a2) + gen[1].scale(b2),
            )
            bf = bounded_feasible(cand, ((a1, b1), (a2, b2)))
            try:
                result = perron_basis(gen, targets)
            except ValuedFieldError:
                if bf:
                    disagreements += 1
                continue
            T = result.change_of_basis
            assert T[0][0] * T[1][1] - T[0][1] * T[1][0] in (1, -1)
            for g in result.basis:
                ca, cb = g.data
                assert qsign(ca, cb) == 1
            for tgt, row in zip(targets, result.coeffs):
                assert all(isinstance(n, int) and n >= 0 for n in row)
                combo = group.zero()
                for n, g in zip(row, result.basis):
                    combo = combo + g.scale(n)
                assert combo == tgt
            small = all(abs(n) <= 10 for T_row in T for n in T_row)
            if small and not bf:
                disagreements += 1
        assert disagreements == 0
        assert time.monotonic() - begin < 10.0


def test_criterion_06_fractional_root_recovery():
    with criterion(6, "t^(1/k) recovered exactly to t^(3) for p=3, k in {2,4,5,7,8,10}"):
        for k in (2, 4, 5, 7, 8, 10):
            r = run_scenario("G3", {"p": 3, "k_max": k})
            assert r.passed
            final = r.claims[-1]
            assert f"^{k} = t below t^(3)" in final.description
            assert final.lhs == final.rhs == "1*t^(1) + O(t^(3))"


def test_criterion_07_constant_shift_identity():
    with criterion(7, "(shifted tower - tower)^p - (difference) = 1 exactly, p in {2,3}"):
        for p in (2, 3):
            # the right-hand constant 1 has no root b^p - b = 1 in the prime field
            one_p = GF(p).one()
            assert not any(
                (frobenius(b) - b - one_p).is_zero() for b in GF(p).elements()
            )
            field, hull = GF(p, p), p_power_hull(p)
            one = field.one()
            shiftc = next(
                b for b in field.elements() if (frobenius(b) - b - one).is_zero()
            )
            theta = make_series(
                field, hull, [(Fraction(-1, p ** i), one) for i in range(1, 4)]
            )
            theta_c = add_series(theta, make_series(field, hull, [(0, shiftc)]))
            diff = sub_series(theta_c, theta)
            assert sub_series(diff ** p, diff) == make_series(field, hull, [(0, one)])
            r = run_scenario("G6", {"p": p})
            assert r.passed


def test_criterion_08_sparse_series_gap_values():
    with criterion(8, "gap values exactly 1/p^(k+1) for k <= 4, p = 2"):
        # exponent bookkeeping behind the gaps: nu(k) + nu(k+1) = (k+1)^2
        for k in range(1, 5):
            assert k * (k + 1) // 2 + (k + 1) * (k + 2) // 2 == (k + 1) ** 2
        r = run_scenario("G5", {"p": 2, "k_max": 4})
        assert r.passed
        gaps = [c for c in r.claims if "integer head" in c.description]
        assert [c.lhs for c in gaps] == ["1/4", "1/8", "1/16", "1/32"]
        assert all(c.exact_match for c in gaps)


def test_criterion_09_cusp_witness():
    with criterion(9, "cusp branch v(y) = 3/2; witness passes at the F_7 center, fails U3 at the origin"):
        half = one_over_m(2)
        place = SeriesEmbedPlace(
            QQ,
            half,
            (
                ("x", t_pow(QQ, half, 1)),
                ("y", t_pow(QQ, half, Fraction(3, 2))),
            ),
        )
        v = place_value(place, var_poly(("x", "y"), "y", QQ))
        assert v.kind is ValuationKind.EXACT and v.value == half.elem(Fraction(3, 2))
        r = run_scenario("G9", {"p": 7})
        assert r.passed
        u3 = next(c for c in r.claims if "U3" in c.description and "origin" in c.description)
        assert u3.exact_match and u3.lhs == "False"
        smooth = r.claims[-1]
        assert smooth.lhs == smooth.rhs == "U1=True, U2=True, U3=True, smooth_center=True"


def test_criterion_10_residue_root_decision():
    with criterion(10, "residue decision vs brute-force enumeration over eight fields"):
        group = ZZ_GROUP
        target = group.elem(2)
        checked = 0
        for p, n in ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (3, 4)):
            field = GF(p, n)
            for c in field.elements():
                if c.is_zero():
                    continue
                roots = [
                    b for b in field.elements() if (frobenius(b) - b - c).is_zero()
                ]
                _, out = analyze(make_series(field, group, [(0, c)]), target)
                if roots:
                    assert len(roots) == p
                    assert isinstance(out, LiftedRoot)
                    r0 = out.root.terms[0][1]
                    assert (frobenius(r0) - r0 - c).is_zero()
                    assert frobenius_orbit_sum(c, n).is_zero()
                else:
                    assert isinstance(out, NoResidueRoot)
                    assert not out.trace.is_zero()
                    assert not frobenius_orbit_sum(c, n).is_zero()
                checked += 1
        assert checked == 142  # 150 field elements minus the eight zeros


def test_criterion_11_ramification_bookkeeping_and_runtime():
    with criterion(11, "tower rows read (p, p, 1, 1); every d a power of p; catalog < 60 s"):
        for p in (2, 3):
            r = run_scenario("G2", {"p": p, "k_max": 3})
            assert r.passed
            assert r.ramification_data
            for row in r.ramification_data:
                assert (row.n, row.e, row.f, row.d) == (p, p, 1, 1)
        begin = time.monotonic()
        for name in SCENARIO_NAMES:
            rep = run_scenario(name)
            assert rep.passed
            pval = dict(rep.params).get("p")
            for row in rep.ramification_data or ():
                assert row.n == row.d * row.e * row.f
                assert row.d == 1 or (pval is not None and is_power_of(row.d, pval))
        assert time.monotonic() - begin < 60.0
