"""Shared elements of F_p (p <= 256) and of Z (0 <= e < 256).

Each operation that makes an F_p element from an int residue, or a Z
element from an int, is compared with the element built directly by the
class constructor: equal, with the same hash and text, on both sides of
each table's bound.  A fixed lift pins how many elements are still built."""

import copy
import io
import json
import pickle
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from valuedfields import cli, fields, groups
from valuedfields.fields import GF, FieldElement, FiniteField, _SHARED_P
from valuedfields.groups import GroupElem, ZZ_GROUP, _SHARED_Z, _from_integer_row, one_over_m
from valuedfields.places import _taylor_rule
from valuedfields.polys import MPoly, _elements
from valuedfields.series import _from_slots, _mul_monomial, make_series

# 251 is the largest prime at or below the bound, 257 the least above it
PRIMES = (2, 3, 7, 251, 257, 1_000_003)
EXPONENTS = (-300, -257, -256, -1, 0, 1, 2, 127, 254, 255, 256, 257, 300, 10**20)


def test_bounds_are_the_stated_ones():
    assert (_SHARED_P, _SHARED_Z) == (256, 256)
    assert max(p for p in range(2, 257) if fields._is_prime(p)) == 251


def _same(got, want):
    assert type(got) is type(want)
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert (str(got), repr(got)) == (str(want), repr(want))


def _fields(p):
    """GF(p) and an equal field built directly, not through GF."""
    return GF(p), FiniteField(p, 1, (0, 1))


@pytest.mark.parametrize("p", PRIMES)
def test_prime_field_operations_match_direct_elements(p):
    rng = random.Random(p)
    for F in _fields(p):
        direct = lambda k: FieldElement(F, (k % p,))
        ints = [0, 1, p - 1, p, p + 1, -1, -p, 10**30 + 7] + [rng.randrange(-3 * p, 3 * p) for _ in range(40)]
        for k in ints:
            _same(F.elem(k), direct(k))
            _same(F.elem((k,)), direct(k))
            _same(F.elem([k, 0]), direct(k))  # reduced mod the modulus x
            _same(F.elem(Fraction(k, 1)), direct(k))
        _same(F.elem(()), direct(0))
        d = 3 if p == 2 else 2
        _same(F.elem(Fraction(5, d)), direct(5 * pow(d, -1, p)))
        _same(F.zero(), direct(0))
        _same(F.one(), direct(1))
        _same(F.generator(), direct(1))
        for _ in range(60):
            a, b = rng.randrange(p), rng.randrange(p)
            x, y = direct(a), direct(b)
            _same(x + y, direct(a + b))
            _same(-x, direct(-a))
            _same(x - y, direct(a - b))
            _same(x * y, direct(a * b))
            _same(x.times_int(b), direct(a * b))
            e = rng.randrange(-5, 40)
            if a or e >= 0:
                _same(x ** e, direct(pow(a, e, p)))
            if a:
                _same(x.inverse(), direct(pow(a, -1, p)))
                _same(y / x, direct(b * pow(a, -1, p)))


@pytest.mark.parametrize("p", PRIMES)
def test_prime_field_kernels_match_direct_elements(p):
    # the slot kernels' inverse _elements, the series built from slots, the
    # monomial shift and the unslot of the Taylor rule at an evaluation place
    rng = random.Random(p + 1)
    for F in _fields(p):
        direct = lambda k: FieldElement(F, (k % p,))
        items = [(i, rng.randrange(1, p)) for i in range(0, 300, 7)]
        for (x, c), (y, k) in zip(_elements(F, items), items):
            assert x == y
            _same(c, direct(k))
        s = _from_slots(F, ZZ_GROUP, 1, items, None)
        for (e, c), (x, k) in zip(s.terms, items):
            _same(e, GroupElem(ZZ_GROUP, x))
            _same(c, direct(k))
        k1 = rng.randrange(1, p)
        shifted = _mul_monomial((ZZ_GROUP.elem(3), direct(k1)), s.terms, None)
        for (e, c), (x, k) in zip(shifted.terms, items):
            _same(e, GroupElem(ZZ_GROUP, x + 3))
            _same(c, direct(k1 * k))
        g = MPoly.make(("x",), [((e,), F.elem(rng.randrange(p))) for e in range(6)])
        *_, zero, unslot = _taylor_rule(g, direct(rng.randrange(p)), 5)
        assert zero == 0
        for r in range(min(p, 300)):
            _same(unslot(r, 0), direct(r))


@pytest.mark.parametrize("p", PRIMES)
def test_small_fields_share_their_elements(p):
    F, D = _fields(p)
    for fld in (F, D):
        for k in range(min(p, 40)):
            same = fld.elem(k) is fld.elem(k + p)
            assert same == (p <= _SHARED_P)
        assert (fld.one() * fld.one() is fld.one()) == (p <= _SHARED_P)
    if p <= _SHARED_P:  # each field its own table, equal element by element
        assert F.elem(1) is not D.elem(1) and F.elem(1) == D.elem(1)


def test_larger_and_other_fields_build_new_elements():
    for F in (GF(3, 2), GF(257), GF(1_000_003), fields.QQ):
        assert F.elem(1) is not F.elem(1)
        assert F.elem(2) == F.elem(2)
    assert GF(3, 2)._elems is None and GF(257)._elems is None


@pytest.mark.parametrize("p", PRIMES)
def test_a_field_reads_the_same_with_its_table_as_without(p):
    F, D = _fields(p)
    bare = FiniteField(p, 1, (0, 1))
    object.__setattr__(bare, "_elems", None)
    for fld in (F, D):
        assert fld == bare and bare == fld
        assert hash(fld) == hash(bare) == hash((p, 1, (0, 1)))
        assert repr(fld) == repr(bare) == f"FiniteField(p={p}, n=1, modulus=(0, 1))"
        assert str(fld) == str(bare) == f"F_{p}"
    assert (F._elems is not None) == (p <= _SHARED_P)


@pytest.mark.parametrize("p", PRIMES)
def test_copies_of_shared_elements_are_equal(p):
    F = GF(p)
    for x in (F.elem(0), F.elem(1), F.elem(p - 1)):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            _same(y, x)
            _same(y + x, x + x)  # the copied field works on
        assert pickle.loads(pickle.dumps(F)) == F
        assert pickle.loads(pickle.dumps(F))._elems is not None or p > _SHARED_P
    for e in (0, 5, 255, 256, -1):
        x = ZZ_GROUP.elem(e)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            _same(y, x)


def test_integer_operations_match_direct_elements():
    rng = random.Random(7)
    direct = lambda x: GroupElem(ZZ_GROUP, x)
    values = list(EXPONENTS) + [rng.randrange(-600, 600) for _ in range(60)]
    for x in values:
        _same(ZZ_GROUP.elem(x), direct(x))
        _same(ZZ_GROUP.elem(Fraction(x)), direct(x))
        _same(one_over_m(1).elem(x), direct(x))
        _same(_from_integer_row(ZZ_GROUP, [x], 1), direct(x))
        _same(_from_integer_row(ZZ_GROUP, [3 * x], 3), direct(x))
        _same(-direct(x), direct(-x))
        for n in (-2, 0, 1, 3):
            _same(direct(x).scale(n), direct(n * x))
        for y in values[:20]:
            _same(direct(x) + direct(y), direct(x + y))
            _same(direct(x) - direct(y), direct(x - y))
    _same(ZZ_GROUP.zero(), direct(0))
    _same(groups.parse_elem(ZZ_GROUP, "255"), direct(255))


def test_integers_share_below_the_bound_only():
    for e in EXPONENTS:
        shared = ZZ_GROUP.elem(e) is ZZ_GROUP.elem(e)
        assert shared == (0 <= e < _SHARED_Z)
        assert (ZZ_GROUP.elem(e) + ZZ_GROUP.zero() is ZZ_GROUP.elem(e)) == (0 <= e < _SHARED_Z)
    assert one_over_m(1) is ZZ_GROUP
    # other groups keep their own elements, with Fraction data
    for g in (groups.QQ_GROUP, one_over_m(2), groups.p_power_hull(3)):
        assert g.elem(1) is not g.elem(1)
        _same(g.elem(1) + g.elem(2), GroupElem(g, Fraction(3)))
        _same(g.elem(1) - g.elem(2), GroupElem(g, Fraction(-1)))
    # a Z built directly is equal to ZZ_GROUP and its elements to the shared ones
    twin = groups.RationalGroup("one_over_m", m=1)
    assert twin is not ZZ_GROUP
    _same(twin.elem(3), ZZ_GROUP.elem(3))
    _same(twin.elem(3) + twin.elem(4), ZZ_GROUP.elem(7))


def test_lex_and_quad_differences_match_sums_of_negatives():
    lex, quad = groups.LexGroup(3), groups.QuadGroup()
    a, b = lex.elem((1, -2, 5)), lex.elem((4, 0, -1))
    _same(a - b, a + (-b))
    u, v = quad.elem((Fraction(1, 2), 3)), quad.elem((2, Fraction(-1, 3)))
    _same(u - v, u + (-v))
    with pytest.raises(groups.FamilyMismatchError):
        a - u


def test_series_over_small_fields_use_shared_elements():
    F = GF(5)
    s = make_series(F, ZZ_GROUP, [(e, e % 4 + 1) for e in range(20)], 20)
    for e, c in s.terms:
        assert e is ZZ_GROUP.elem(e.data) and c is F.elem(c.data[0])


# ---------------------------------------------------------------------------
# how many elements one fixed lift builds


def _poly_text(coeffs):
    return " + ".join(f"{c}*t^{i}" for i, c in enumerate(coeffs) if c) or "0"


def _mul(a, b, p, n):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[: n - i]):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _fixed_lift(p=3, n=32):
    """lift argv of f = (X - a)(X - b) over F_3, dense a and b of 32 terms
    with distinct residues, the X coefficient given over the denominator
    1 + t + 2t^2 as lift-deep gives two of its shapes."""
    a = [1] + [1 + i * i % 2 for i in range(1, n)]
    b = [2] + [1 + i % 3 % 2 for i in range(1, n)]
    den = [1, 1, 2]
    c0 = _mul(a, b, p, n)
    c1 = _mul([-(x + y) % p for x, y in zip(a, b)], den, p, n)
    texts = [_poly_text(c0), f"({_poly_text(c1)})/({_poly_text(den)})", "1"]
    return ["lift", "--p", str(p), "--precision", str(n), "--json", "--", *texts], a


def test_a_fixed_lift_builds_few_elements(monkeypatch):
    """Every site on the lift path that makes an F_3 element from a residue
    or a Z element from an int takes the shared one, so a site that falls
    off the shared constructor fails here.  The counts are deterministic:
    with every element built anew this lift built 347 field and 385 group
    elements; with the tables it builds 4, all over Q (reading
    --precision), and no group element."""
    argv, root = _fixed_lift()
    cli.main(argv[:4] + ["8", "--json", "--", "-1", "0", "1"])  # GF(3) and imports built
    built = {FieldElement: 0, GroupElem: 0}
    for cls in built:
        init = cls.__init__

        def counted(self, *args, cls=cls, init=init):
            built[cls] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    monkeypatch.undo()
    lifted = [0] * 32
    for e, c in json.loads(out.getvalue())["result"]["terms"]:
        lifted[int(e)] = int(c)
    assert lifted == root
    assert built[FieldElement] <= 16, built
    assert built[GroupElem] <= 16, built
