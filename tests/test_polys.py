import itertools
import random
import time
from fractions import Fraction

import pytest

from valuedfields.errors import ParamError, PoleError, UnsupportedError
from valuedfields.fields import GF, QQ
from valuedfields.groups import ZZ_GROUP
from valuedfields.polys import MPoly, RatFn, _charpoly, adjugate, const_poly, cramer, det, mpoly, var_poly
from valuedfields.series import make_series, one_series, zero_series


def test_zero_coefficients_dropped():
    F = GF(3)
    p = mpoly(("X",), {(2,): F.elem(3), (0,): F.elem(1)})
    # 3 == 0 in F_3, so only the constant survives
    assert p.terms == (((0,), F.elem(1)),)


def test_like_terms_merge_and_cancel():
    p = mpoly(("X", "Y"), [((1, 0), QQ.elem(2)), ((1, 0), QQ.elem(-2)), ((0, 1), QQ.elem(5))])
    assert p.terms == (((0, 1), QQ.elem(5)),)


def test_ring_axioms_random():
    F = GF(5)
    rng = random.Random(11)

    def rand_poly():
        n = rng.randrange(4)
        return mpoly(
            ("X", "Y"),
            [((rng.randrange(3), rng.randrange(3)), F.elem(rng.randrange(5))) for _ in range(n)],
        )

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a - a).is_zero()


def test_monomial_power_matches_repeated_multiplication():
    rng = random.Random(7)
    for field in (GF(5), GF(3, 2), QQ):
        for _ in range(20):
            e = (rng.randrange(4), rng.randrange(4))
            c = QQ.elem(Fraction(rng.randrange(-5, 6) or 1, rng.randrange(1, 4))) if field is QQ else rng.choice(list(field.elements())[1:])
            m = mpoly(("X", "Y"), [(e, c)])
            power = m
            for k in range(1, 8):
                assert m ** k == power
                power = power * m


def test_partial_derivative():
    # d/dY of Y^2 - X^3 is 2Y
    p = mpoly(("X", "Y"), {(0, 2): QQ.elem(1), (3, 0): QQ.elem(-1)})
    assert p.partial("Y") == mpoly(("X", "Y"), {(0, 1): QQ.elem(2)})
    assert p.partial("X") == mpoly(("X", "Y"), {(2, 0): QQ.elem(-3)})


def test_derivative_of_product_rule_random():
    F = GF(7)
    rng = random.Random(12)

    def rand_poly():
        n = rng.randrange(1, 4)
        return mpoly(
            ("X",),
            [((rng.randrange(4),), F.elem(rng.randrange(7))) for _ in range(n)],
        )

    for _ in range(40):
        a, b = rand_poly(), rand_poly()
        lhs = (a * b).partial("X")
        rhs = a.partial("X") * b + a * b.partial("X")
        assert lhs == rhs


def test_full_substitution():
    # X^2 + X*Y at X=2, Y=3 over Q is 4 + 6 = 10
    p = mpoly(("X", "Y"), {(2, 0): QQ.elem(1), (1, 1): QQ.elem(1)})
    v = p.subst({"X": QQ.elem(2), "Y": QQ.elem(3)}, QQ)
    assert v == QQ.elem(10)


def test_partial_substitution():
    p = mpoly(("X", "Y"), {(2, 1): QQ.elem(1), (0, 1): QQ.elem(4)})
    q = p.subst({"X": QQ.elem(3)}, QQ)
    assert isinstance(q, MPoly)
    assert q == mpoly(("Y",), {(1,): QQ.elem(13)})


def test_derivative_commutes_with_linear_substitution():
    # for f(X, c) with c constant: (df/dX)(a, c) equals d/dX of f(X, c) at a
    F = GF(5)
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randrange(1, 5)
        p = mpoly(
            ("X", "Y"),
            [((rng.randrange(3), rng.randrange(3)), F.elem(rng.randrange(5))) for _ in range(n)],
        )
        c = F.elem(rng.randrange(5))
        a = F.elem(rng.randrange(5))
        one_var = p.subst({"Y": c}, F)
        lhs = one_var.partial("X").subst({"X": a}, F)
        rhs = p.partial("X").subst({"X": a, "Y": c}, F)
        assert lhs == rhs


def test_ratfn_cancellation_by_cross_multiplication():
    # (X^2 - 1)/(X - 1) equals (X + 1)/1 without any gcd computation
    X = var_poly(("X",), "X", QQ)
    one = const_poly(("X",), QQ.elem(1))
    f = RatFn.make(X * X - one, X - one)
    g = RatFn.from_poly(X + one, QQ)
    assert f.eq(g)
    assert not f.eq(RatFn.from_poly(X, QQ))


def test_ratfn_pole_detection():
    X = var_poly(("X",), "X", QQ)
    one = const_poly(("X",), QQ.elem(1))
    f = RatFn.make(X * X - one, X - one)
    # the unreduced form has a pole at X = 1 even though the reduced form does not
    with pytest.raises(PoleError):
        f.subst({"X": QQ.elem(1)}, QQ)
    assert f.subst({"X": QQ.elem(3)}, QQ) == QQ.elem(4)


def test_ratfn_arithmetic():
    X = var_poly(("X",), "X", QQ)
    one = const_poly(("X",), QQ.elem(1))
    f = RatFn.make(one, X)
    g = RatFn.from_poly(X, QQ)
    s = f + g  # (1 + X^2)/X
    assert s.subst({"X": QQ.elem(2)}, QQ) == QQ.elem(Fraction(5, 2))
    assert (f * g).eq(RatFn.from_poly(one, QQ))
    assert (f / f).eq(RatFn.from_poly(one, QQ))
    assert (f ** -2).eq(RatFn.from_poly(X * X, QQ))
    assert (g ** 0).eq(RatFn.from_poly(one, QQ))


def test_variable_mismatch_rejected():
    p = mpoly(("X",), {(1,): QQ.elem(1)})
    q = mpoly(("Y",), {(1,): QQ.elem(1)})
    with pytest.raises(UnsupportedError):
        p + q


def test_render():
    p = mpoly(("X", "Y"), {(2, 1): QQ.elem(3), (0, 0): QQ.elem(-1)})
    assert str(p) == "3*X^2*Y + -1"
    assert str(MPoly(("X",), ())) == "0"


# ---------------------------------------------------------------------------
# division-free determinant and adjugate against a permutation-sum oracle


def _leibniz(m, zero, one):
    """Brute-force determinant: the signed sum over all n! permutations."""
    n = len(m)
    total = zero
    for perm in itertools.permutations(range(n)):
        term = one
        for i, j in enumerate(perm):
            term = term * m[i][j]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def _leibniz_adjugate(m, zero, one):
    """adj[i][j] = (-1)^(i+j) * det(m without row j and column i)."""
    n = len(m)
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            cof = _leibniz(minor, zero, one)
            row.append(zero - cof if (i + j) % 2 else cof)
        adj.append(row)
    return adj


_RINGS = {
    "int": (0, 1, lambda rng: rng.randint(-9, 9)),
    "GF7": (GF(7).zero(), GF(7).one(), lambda rng: GF(7).elem(rng.randrange(7))),
    "QQ": (
        QQ.zero(),
        QQ.one(),
        lambda rng: QQ.elem(Fraction(rng.randint(-9, 9), rng.randint(1, 5))),
    ),
}


@pytest.mark.parametrize("ring", sorted(_RINGS))
@pytest.mark.parametrize("n", range(7))
def test_det_and_adjugate_match_leibniz(ring, n):
    zero, one, draw = _RINGS[ring]
    rng = random.Random(100 * n + len(ring))
    matrices = [[[draw(rng) for _ in range(n)] for _ in range(n)] for _ in range(3)]
    if n >= 2:
        singular = [row[:] for row in matrices[0]]
        singular[1] = singular[0][:]
        matrices.append(singular)
    for m in matrices:
        d, adj = _leibniz(m, zero, one), _leibniz_adjugate(m, zero, one)
        assert det(m, zero, one) == d
        assert adjugate(m, zero, one) == adj
        vecs = [[draw(rng) for _ in range(n)] for _ in range(2)]
        adj_vecs = [[sum((a * x for a, x in zip(row, v)), zero) for row in adj] for v in vecs]
        assert cramer(m, vecs, zero, one) == (d, adj_vecs)


@pytest.mark.parametrize("n", range(6))
def test_adjugate_identity_over_truncated_series(n):
    F, N = GF(3), 6
    zero, one = zero_series(F, ZZ_GROUP), one_series(F, ZZ_GROUP)
    rng = random.Random(7 + n)

    def entry():
        terms = [(e, rng.randrange(3)) for e in range(rng.randrange(3), N)]
        return make_series(F, ZZ_GROUP, terms, rng.choice([None, N]))

    for _ in range(2):
        m = [[entry() for _ in range(n)] for _ in range(n)]
        d = det(m, zero, one)
        adj = adjugate(m, zero, one)
        if n <= 4:
            assert (d - _leibniz(m, zero, one)).is_zero_to_precision()
        for i in range(n):
            for j in range(n):
                for prod in (
                    sum((m[i][k] * adj[k][j] for k in range(n)), zero),
                    sum((adj[i][k] * m[k][j] for k in range(n)), zero),
                ):
                    gap = prod - d if i == j else prod
                    assert gap.is_zero_to_precision()
                    assert gap.precision is None or not gap.precision < ZZ_GROUP.elem(N)


def test_cramer_on_a_1x1_series_matrix_keeps_value_and_precision():
    # a 1x1 matrix is its own determinant, with the precision Berkowitz gives
    F = GF(5)
    zero, one = zero_series(F, ZZ_GROUP), one_series(F, ZZ_GROUP)
    for prec in (None, 4, 9):
        m = [[make_series(F, ZZ_GROUP, [(0, 2), (3, 1), (7, 4)], prec)]]
        v = [make_series(F, ZZ_GROUP, [(1, 3)], 6)]
        d, (x,) = cramer(m, [v], zero, one)
        berkowitz = zero - _charpoly(m, zero, one)[-1]
        assert (d, d.precision) == (berkowitz, berkowitz.precision) == (m[0][0], m[0][0].precision)
        assert x == v


def test_power_term_budget():
    F = GF(5)
    x, y = var_poly(("x", "y"), "x", F), var_poly(("x", "y"), "y", F)
    one = const_poly(("x", "y"), F.one())
    # the bound prod (k*deg_v + 1) is 50^2 = 2500 at k = 49: within the budget
    assert len(((x + y) ** 49).terms) == 50
    start = time.perf_counter()
    for base, k in ((x + y, 50), (x + one, 2500), (x * x + y, 10 ** 30)):
        with pytest.raises(ParamError):
            base ** k
    assert time.perf_counter() - start < 1
    # a monomial raises in one step, whatever its exponent
    assert (x * y) ** 10 ** 6 == mpoly(("x", "y"), {(10 ** 6, 10 ** 6): F.one()})


def test_exponents_must_be_integral():
    c = QQ.elem(3)
    # int() would truncate these: 1/2 to the constant c, 1.5 to x^1
    for e in (Fraction(1, 2), 1.5):
        with pytest.raises(UnsupportedError, match=f"exponent {e} is not an integer"):
            mpoly(("x",), {(e,): c})
        with pytest.raises(UnsupportedError, match=f"exponent {e} is not an integer"):
            mpoly(("x", "y"), {(2, e): c})
    # integral values of any kind convert as before
    for e, want in ((2.0, 2), (True, 1), (Fraction(4, 2), 2), (0, 0)):
        assert mpoly(("x",), {(e,): c}).terms == (((want,), c),)
    assert mpoly(("x", "y"), [([1, 2], c)]).terms == (((1, 2), c),)
