from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from valuedfields import groups, polys
from valuedfields.errors import (
    FamilyMismatchError,
    GroupLawError,
    SpanError,
)
from valuedfields.groups import (
    GroupElem,
    LexGroup,
    QQ_GROUP,
    QuadGroup,
    ZZ_GROUP,
    cmp,
    divisible_by,
    invariants,
    one_over_m,
    p_power_hull,
    parse_elem,
    perron_basis,
)

QUAD = QuadGroup()
LEX2 = LexGroup(2)


def _sqrt2_cmp_oracle(a: Fraction, b: Fraction) -> int:
    """Sign of a + b*sqrt2 via continued-fraction convergents of sqrt2.

    Convergents p/q of [1;2,2,2,...] satisfy p^2 - 2q^2 = +-1 and alternate
    around sqrt2, so consecutive ones bracket it; refine until the bracket
    decides the sign.
    """
    if b == 0:
        return (a > 0) - (a < 0)
    lo, hi = Fraction(1), Fraction(3, 2)  # 1 < sqrt2 < 3/2
    p0, q0, p1, q1 = 1, 1, 3, 2
    for _ in range(200):
        vals = [a + b * lo, a + b * hi]
        if all(v > 0 for v in vals):
            return 1
        if all(v < 0 for v in vals):
            return -1
        p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
        lo, hi = (Fraction(p0, q0), Fraction(p1, q1))
        if lo > hi:
            lo, hi = hi, lo
    raise AssertionError("oracle failed to decide")  # pragma: no cover


def test_rational_law_enforced():
    g = one_over_m(2)
    g.elem(Fraction(3, 2))
    with pytest.raises(GroupLawError):
        g.elem(Fraction(1, 3))
    h = p_power_hull(2)
    h.elem(Fraction(5, 8))
    with pytest.raises(GroupLawError):
        h.elem(Fraction(1, 6))


@pytest.mark.parametrize(
    "group, data, message",
    [
        (LexGroup(2), (1.5, 2), "lex coordinate 1.5 is not an integer"),
        (LexGroup(2), (Fraction(1, 2), 1), "lex coordinate 1/2 is not an integer"),
        (LexGroup(2), 0, "expected 2 coordinates, got 0"),
        (LexGroup(2), (1, 2, 3), "expected 2 coordinates, got 3"),
        (QuadGroup(), 0, r"expected coordinates \(a, b\) of Q \+ Q\*sqrt2, got 0$"),
        (QuadGroup(), (1, 2, 3), r"of Q \+ Q\*sqrt2, got \(1, 2, 3\)$"),
        (QuadGroup(), (0.5, 1), "float coordinates"),
        (QuadGroup(), ("a", 1), "quad coordinate 'a' is not an integer or a Fraction"),
        (QuadGroup(), (None, 1), "quad coordinate None is not an integer or a Fraction"),
        (QuadGroup(), ("1/2", 1), "quad coordinate '1/2' is not an integer or a Fraction"),
        (QQ_GROUP, "1e5", "str '1e5' is not an exact element of Q"),
        (one_over_m(2), " 1_0.5 ", r"str ' 1_0.5 ' is not an exact element of \(1/2\)Z"),
        (QQ_GROUP, 2.5, "float 2.5 is not an exact element of Q"),
    ],
    ids=[
        "lex_float",
        "lex_fraction",
        "lex_scalar",
        "lex_length",
        "quad_scalar",
        "quad_length",
        "quad_float",
        "quad_word",
        "quad_none",
        "quad_string_fraction",
        "rational_exponent_text",
        "rational_separator_text",
        "rational_float",
    ],
)
def test_elem_refuses_what_it_cannot_hold_exactly(group, data, message):
    # a bad input raises GroupLawError, never a silent truncation or a bare
    # TypeError or ValueError that the command line would not catch
    with pytest.raises(GroupLawError, match=message):
        group.elem(data)


def test_lex_elem_takes_integral_coordinates_of_any_kind():
    assert LexGroup(2).elem((Fraction(4, 2), True)).data == (2, 1)
    assert LexGroup(2).elem(x for x in (3, -1)).data == (3, -1)


@pytest.mark.parametrize("p", [4, 6])
def test_p_power_law_refuses_a_composite_p(p):
    # over p = 4, 1/4 + 1/4 = 1/2 would leave the group
    with pytest.raises(GroupLawError, match=f"needs a prime p, got {p}"):
        p_power_hull(p)


def test_lex_cmp_matches_spec_example():
    a = LEX2.elem((1, -5))
    b = LEX2.elem((0, 0))
    assert cmp(a, b) == 1


def test_above_every_multiple_compares_archimedean_classes():
    lex3 = LexGroup(3)
    e = lex3.elem
    assert lex3.above_every_multiple(e((1, -5, 0)), e((0, 7, 2)))
    assert lex3.above_every_multiple(e((0, 1, -9)), e((0, 0, 4)))
    assert not lex3.above_every_multiple(e((0, 0, 4)), e((0, 1, -9)))
    assert not lex3.above_every_multiple(e((2, 0, 0)), e((1, 3, 0)))  # one class
    assert not QQ_GROUP.above_every_multiple(QQ_GROUP.elem(10**9), QQ_GROUP.elem(Fraction(1, 7)))
    assert not QUAD.above_every_multiple(QUAD.elem((100, 0)), QUAD.elem((3, -2)))


def test_quad_cmp_spec_example():
    a = QUAD.elem((3, -2))  # 3 - 2*sqrt2 > 0 since 9 > 8
    assert cmp(a, QUAD.zero()) == 1


def test_family_mismatch_raises():
    with pytest.raises(FamilyMismatchError):
        cmp(ZZ_GROUP.elem(1), QQ_GROUP.elem(1))
    with pytest.raises(FamilyMismatchError):
        LEX2.elem((1, 0)) + LexGroup(3).elem((1, 0, 0))


def test_quad_cmp_against_convergent_oracle():
    rng = random.Random(20260816)
    for _ in range(1000):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        got = QUAD.elem((a, b)).sign()
        assert got == _sqrt2_cmp_oracle(a, b), (a, b)


def test_order_translation_invariance():
    rng = random.Random(7)
    groups = [QQ_GROUP, LEX2, QUAD]

    def rand_elem(g):
        if g is QQ_GROUP:
            return g.elem(Fraction(rng.randint(-30, 30), rng.randint(1, 10)))
        if g is LEX2:
            return g.elem((rng.randint(-9, 9), rng.randint(-9, 9)))
        return g.elem((rng.randint(-9, 9), rng.randint(-9, 9)))

    for g in groups:
        for _ in range(200):
            a, b, c = rand_elem(g), rand_elem(g), rand_elem(g)
            assert cmp(a, b) == cmp(a + c, b + c)
            # scaling by a positive integer preserves order
            n = rng.randint(1, 6)
            assert cmp(a.scale(n), b.scale(n)) == cmp(a, b)


def test_rank_le_rational_rank():
    for g in (QQ_GROUP, ZZ_GROUP, one_over_m(6), p_power_hull(3), LexGroup(3), QUAD):
        inv = invariants(g)
        assert 1 <= inv.rank <= inv.rational_rank


def test_invariants_specific():
    assert invariants(LexGroup(2)).rank == 2
    assert invariants(QUAD) == type(invariants(QUAD))(1, 2)
    assert invariants(p_power_hull(5)).rational_rank == 1


def test_divisibility_membership():
    g = one_over_m(6)
    assert divisible_by(g.elem(Fraction(1, 3)), 2).data == Fraction(1, 6)
    assert divisible_by(g.elem(Fraction(1, 6)), 5) is None
    lex = LEX2
    assert divisible_by(lex.elem((2, -4)), 2) == lex.elem((1, -2))
    assert divisible_by(lex.elem((2, -3)), 2) is None
    assert divisible_by(QUAD.elem((1, 1)), 3).scale(3) == QUAD.elem((1, 1))


def test_parse_render_roundtrip():
    cases = [
        (QQ_GROUP, "-3/4", Fraction(-3, 4)),
        (LEX2, "(2,-7)", (2, -7)),
        (QUAD, "1+-2*sqrt2", (Fraction(1), Fraction(-2))),
        (QUAD, "3/2+-1/2*sqrt2", (Fraction(3, 2), Fraction(-1, 2))),
        (QUAD, "sqrt2-1", (Fraction(-1), Fraction(1))),
    ]
    for g, text, data in cases:
        e = parse_elem(g, text)
        assert e.data == data
        assert parse_elem(g, str(e)) == e


def test_element_numbers_are_expressions():
    assert parse_elem(QUAD, "(1+sqrt2)/2").data == (Fraction(1, 2), Fraction(1, 2))
    assert parse_elem(QUAD, "2*sqrt2").data == (0, 2)
    assert parse_elem(ZZ_GROUP, "2^10").data == 1024
    assert parse_elem(LEX2, "(2^3, -(1))").data == (8, -1)
    for g, text in ((QUAD, "sqrt2^2"), (QUAD, "1/sqrt2"), (QUAD, "2sqrt2"), (QQ_GROUP, "sqrt2"),
                    (QQ_GROUP, "1.5"), (QQ_GROUP, "1/0"), (QQ_GROUP, "2^15000")):
        with pytest.raises(GroupLawError, match=r"^malformed element "):
            parse_elem(g, text)


# ---------------------------------------------------------------------------
# perron_basis


def _check_perron(result, positives):
    group = positives[0].group
    n = len(result.basis)
    for g in result.basis:
        assert g.sign() > 0
    det = _det(result.change_of_basis)
    assert det in (1, -1)
    for a, row in zip(positives, result.coeffs):
        assert all(x >= 0 for x in row)
        acc = group.zero()
        for x, g in zip(row, result.basis):
            acc = acc + g.scale(x)
        assert cmp(acc, a) == 0


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_perron_integers():
    res = perron_basis([ZZ_GROUP.elem(1)], [ZZ_GROUP.elem(5)])
    assert [e.data for e in res.basis] == [Fraction(1)]
    assert res.coeffs == ((5,),)


def test_perron_lex_identity():
    gens = [LEX2.elem((1, 0)), LEX2.elem((0, 1))]
    res = perron_basis(gens, gens)
    _check_perron(res, gens)
    assert res.coeffs == ((1, 0), (0, 1))


def test_perron_quad_spec_example():
    gens = [QUAD.elem((1, 0)), QUAD.elem((0, 1))]
    pos = [QUAD.elem((1, 0)), QUAD.elem((-1, 1))]  # 1 and sqrt2 - 1
    res = perron_basis(gens, pos)
    _check_perron(res, pos)


def test_perron_not_in_span():
    with pytest.raises(SpanError):
        perron_basis([ZZ_GROUP.elem(2)], [ZZ_GROUP.elem(3)])


def test_perron_rejects_nonpositive_target():
    with pytest.raises(SpanError):
        perron_basis([ZZ_GROUP.elem(1)], [ZZ_GROUP.elem(0)])


def test_perron_lex_negative_tail():
    # target (1, -5) is lex positive but needs a sheared basis
    gens = [LEX2.elem((1, 0)), LEX2.elem((0, 1))]
    pos = [LEX2.elem((1, -5)), LEX2.elem((0, 2))]
    res = perron_basis(gens, pos)
    _check_perron(res, pos)


def test_perron_lex_rank3():
    g3 = LexGroup(3)
    gens = [g3.elem((1, 0, 0)), g3.elem((0, 1, 0)), g3.elem((0, 0, 1))]
    pos = [g3.elem((1, -2, 3)), g3.elem((0, 1, -4)), g3.elem((2, 0, -1))]
    res = perron_basis(gens, pos)
    _check_perron(res, pos)


def _brute_force_quad_oracle(pos, bound=10):
    """Search unimodular combinations of the target pair with bounded entries."""
    a1, a2 = pos
    rng = range(-bound, bound + 1)
    for a, b in itertools.product(rng, rng):
        # g1 depends on (a, b) alone: skip the inner loop when it is not positive
        g1 = a1.scale(a) + a2.scale(b)
        if g1.sign() <= 0:
            continue
        for c, d in itertools.product(rng, rng):
            if a * d - b * c not in (1, -1):
                continue
            g2 = a1.scale(c) + a2.scale(d)
            if g2.sign() <= 0:
                continue
            det = a * d - b * c
            # coords of (a1, a2) over (g1, g2): rows of the inverse of [[a,b],[c,d]]
            inv = [[d * det, -b * det], [-c * det, a * det]]
            if all(x >= 0 for row in inv for x in row):
                return (g1, g2), inv
    return None


def test_perron_quad_random_vs_oracle():
    rng = random.Random(99)
    found = 0
    for _ in range(25):
        while True:
            a1 = QUAD.elem((rng.randint(-20, 20), rng.randint(-20, 20)))
            a2 = QUAD.elem((rng.randint(-20, 20), rng.randint(-20, 20)))
            if a1.sign() > 0 and a2.sign() > 0:
                coords = [list(a1.data), list(a2.data)]
                mat = [[int(c) for c in row] for row in coords]
                if abs(_det(mat)) >= 1:  # independent pair
                    break
        res = perron_basis([a1, a2], [a1, a2])
        _check_perron(res, [a1, a2])
        oracle = _brute_force_quad_oracle([a1, a2])
        if oracle is not None:
            found += 1
    assert found > 0  # the oracle must corroborate at least some instances


def _fix_pair_one_step(rows, T, coords, to_elem, log):
    """Reference: one subtraction per pass, which the runs must reproduce."""
    steps = 0
    while not all(x >= 0 for c in coords for x in c):
        big, small = (0, 1) if cmp(to_elem(rows[0]), to_elem(rows[1])) > 0 else (1, 0)
        rows[big] = [x - y for x, y in zip(rows[big], rows[small])]
        T[big] = [x - y for x, y in zip(T[big], T[small])]
        for c in coords:
            c[small] += c[big]
        steps += 1
    log.append(steps)


def _random_quad(rng, size):
    return QUAD.elem((Fraction(rng.randint(-size, size), rng.randint(1, 4)),
                      Fraction(rng.randint(-size, size), rng.randint(1, 4))))


def _random_quad_case(rng):
    """Two or three random generators of rank 2 and one to three positive
    targets, integer combinations of them."""
    while True:
        gens = [_random_quad(rng, 30) for _ in range(rng.randint(2, 3))]
        if not any(g0.data[0] * g1.data[1] != g0.data[1] * g1.data[0]
                   for g0, g1 in itertools.combinations(gens, 2)):
            continue
        targets, count = [], rng.randint(1, 3)
        while len(targets) < count:
            t = QUAD.zero()
            for g in gens:
                t = t + g.scale(rng.randint(-6, 6))
            if t.sign() > 0:
                targets.append(t)
        return gens, targets


def test_perron_quad_runs_match_one_step_reference(monkeypatch):
    # every pair perron_basis fixes is also fixed one step at a time, from a
    # copy, and the two must leave the same basis, transform and coefficients
    runs = groups._fix_pair_subtractive
    log = []

    def both(rows, T, coords, to_elem):
        ref = ([r[:] for r in rows], [r[:] for r in T], [c[:] for c in coords])
        _fix_pair_one_step(*ref, to_elem, log)
        runs(rows, T, coords, to_elem)
        assert (rows, T, coords) == ref

    monkeypatch.setattr(groups, "_fix_pair_subtractive", both)
    rng = random.Random(20240611)
    for _ in range(400):
        perron_basis(*_random_quad_case(rng))
    # the reference ran on most cases, for several steps on average
    assert len(log) > 280 and sum(log) > 5 * len(log)


def test_perron_quad_long_run_answers():
    # a single run of 141421 subtractions; one step at a time this took
    # longer than any cap worth keeping
    target = QUAD.elem((-141421, 100000))
    start = time.perf_counter()
    res = perron_basis([QUAD.elem((1, 0)), QUAD.elem((0, 100000))], [target])
    assert time.perf_counter() - start < 0.5
    _check_perron(res, [target])
    assert res.basis == (QUAD.elem((1, 0)), target)
    assert res.coeffs == ((0, 1),)


def _lex_fix_recursive(rows, coords):
    """Reference: the convex-filtration recursion with transform matrices.
    Return (rows', M, coords') with rows' = M @ rows and M unimodular; fix the
    tail span for the targets that avoid the head row, re-express the other
    targets over the fixed tail by the adjugate inverse, then shear the head."""
    n = len(rows)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    if n == 0 or all(all(x >= 0 for x in c) for c in coords):
        return [r[:] for r in rows], ident, [c[:] for c in coords]
    if n == 1:
        raise SpanError("single-row lex span with a negative coefficient for a positive target")
    heads = [c[0] for c in coords]
    if any(k < 0 for k in heads):
        raise SpanError("positive lex target with negative dominant coefficient")
    tail_fixed, m_tail, tail_coords = _lex_fix_recursive(
        [r[:] for r in rows[1:]], [c[1:] for c in coords if c[0] == 0])
    d = polys.det(m_tail, 0, 1)
    assert d in (1, -1)
    inv = [[d * x for x in row] for row in polys.adjugate(m_tail, 0, 1)]
    it_fixed = iter(tail_coords)
    reexp = [list(next(it_fixed)) if c[0] == 0 else
             [sum(c[1 + i] * inv[i][j] for i in range(n - 1)) for j in range(n - 1)]
             for c in coords]
    shear = [max([(-c[j] + k - 1) // k for k, c in zip(heads, reexp) if k > 0 and c[j] < 0],
                 default=0) for j in range(n - 1)]
    head = rows[0][:]
    for j in range(n - 1):
        head = [x - shear[j] * y for x, y in zip(head, tail_fixed[j])]
    out_coords = [[k] + [x + k * s for x, s in zip(c, shear)] for k, c in zip(heads, reexp)]
    combo = [sum(shear[j] * m_tail[j][i] for j in range(n - 1)) for i in range(n - 1)]
    m_out = [[1] + [-x for x in combo]] + [[0] + list(r) for r in m_tail]
    return [head] + tail_fixed, m_out, out_coords


def _fix_lex_recursive(rows, T, coords):
    new_rows, M, new_coords = _lex_fix_recursive(rows, [list(c) for c in coords])
    new_T = [[sum(a * b for a, b in zip(row, col)) for col in zip(*T)] for row in M]
    rows[:], T[:] = new_rows, new_T
    for c, nc in zip(coords, new_coords):
        c[:] = nc


def _random_lex_case(rng):
    """Integer generators of a lex span of rank 2-4, rank to rank + 2 of them,
    and one to three lex-positive targets: mostly integer combinations of the
    generators, sometimes random vectors that may fall outside the span."""
    rank = rng.randint(2, 4)
    while True:
        gens = [rng.choices(range(-4, 5), k=rank) for _ in range(rng.randint(rank, rank + 2))]
        if len(groups._hnf(gens)) == rank:
            break
    if rng.random() < 0.5:
        # one more coordinate, an integer combination of the others
        ks, at = rng.choices(range(-2, 3), k=rank), rng.randint(0, rank)
        gens = [g[:at] + [sum(k * x for k, x in zip(ks, g))] + g[at:] for g in gens]
    targets, count = [], rng.randint(1, 3)
    while len(targets) < count:
        if rng.random() < 0.2:
            t = rng.choices(range(-6, 7), k=len(gens[0]))
        else:
            ks = rng.choices(range(-5, 6), k=len(gens))
            t = [sum(k * x for k, x in zip(ks, col)) for col in zip(*gens)]
        head = next((x for x in t if x), 0)
        if head:
            targets.append([x if head > 0 else -x for x in t])
    return gens, targets


def _perron_outcome(gens, targets):
    group = LexGroup(len(gens[0]))
    try:
        return perron_basis([group.elem(g) for g in gens], [group.elem(t) for t in targets])
    except SpanError as exc:
        return type(exc), str(exc)


def test_perron_lex_shears_match_the_recursion(monkeypatch):
    # perron_basis reads its basis, coefficients and transform off the rows,
    # T and target coordinates its lex fix leaves; from the state perron_basis
    # builds, the shears must leave what the recursion leaves, and the
    # recursion must not raise
    rng = random.Random(16)
    cases = [_random_lex_case(rng) for _ in range(2000)]
    sheared = outside = 0
    for gens, targets in cases:
        rows = groups._hnf(gens)
        coords = [groups._solve_int_coords(rows, t) for t in targets]
        if None in coords:  # perron_basis rejects the target before any fix
            outside += 1
            continue
        ident = [[int(i == j) for j in range(len(rows))] for i in range(len(rows))]
        T = [r[:] for r in ident]
        ref = ([r[:] for r in rows], [r[:] for r in T], [c[:] for c in coords])
        _fix_lex_recursive(*ref)
        groups._fix_lex(rows, T, coords)
        assert (rows, T, coords) == ref
        sheared += T != ident
    assert sheared >= len(cases) // 2 and outside > 200
    # end to end on every twentieth case: the same basis, coefficients and
    # transform, or the same error type and message
    some = cases[::20]
    shears = [_perron_outcome(*case) for case in some]
    monkeypatch.setattr(groups, "_fix_lex", _fix_lex_recursive)
    assert [_perron_outcome(*case) for case in some] == shears
