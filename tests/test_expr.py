"""Expression grammar: tokens, precedence, and conversion to rational functions."""

import random
import time
from fractions import Fraction
from functools import reduce
from operator import add, neg

import pytest

from valuedfields.errors import ExprError, UnsupportedError
from valuedfields.expr import evaluate, expr_to_ratfn
from valuedfields.fields import GF, QQ
from valuedfields.polys import MPoly, RatFn, const_poly, var_poly


def same_fn(a, b):
    # rational functions are kept unreduced, so compare cross-multiplied
    return a.num * b.den == b.num * a.den


def fn(text, vars=("x1", "x2"), field=QQ):
    return expr_to_ratfn(text, vars, field)


class _Record:
    """An evaluator that records what it is asked to build."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args: self.calls.append((name, *args)) or name


def test_reads_kinds_and_positions():
    ev = _Record()
    evaluate("x1 + 23*y2", ev)
    assert ev.calls == [
        ("var", "x1"),
        ("int", 23),
        ("var", "y2"),
        ("product", "int", "*", "var"),
        ("sum", ["var", "product"]),
    ]
    # a ')' put before each token, or at the end, is reported where it stands
    text = "x1 + 23*y2"
    for pos in (0, 3, 5, 7, 8, 10):
        with pytest.raises(ExprError) as info:
            evaluate(text[:pos] + ")" + text[pos:], _Record())
        expected = "unexpected ')'" if pos in (3, 7, 10) else "expected a value"
        assert str(info.value) == f"{expected} at position {pos}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("x1 % 2", "unexpected character '%' at position 3"),
        # str.isdigit accepts a superscript two and an Arabic-Indic three;
        # integers and names take 0-9 only
        ("1+\u00b2", "unexpected character '\u00b2' at position 2"),
        ("t\u00b2", "unexpected character '\u00b2' at position 1"),
        ("\u0663*t", "unexpected character '\u0663' at position 0"),
        ("", "empty expression"),
        ("  ", "empty expression"),
        ("1+", "expected a value at position 2"),
        ("*x1", "expected a value at position 0"),
        ("(1+2", "expected ')' at position 4"),
        ("x1^(1+1)", "expected ')' at position 5"),
        ("x1^(2", "expected ')' at position 5"),
        ("1)", "unexpected ')' at position 1"),
        ("2 x1", "unexpected 'x1' at position 2"),
        ("x1^x2", "exponent must be an integer at position 3"),
        ("x1^-x2", "exponent must be an integer at position 4"),
        ("x1^", "exponent must be an integer at position 3"),
        ("(" * 101 + "t" + ")" * 101, "nesting deeper than 100 levels at position 100"),
        ("-" * 101 + "t", "nesting deeper than 100 levels at position 100"),
        ("t^" + "(" * 101 + "2" + ")" * 101, "nesting deeper than 100 levels at position 102"),
        ("9" * 4301, "4301-digit integer at position 0 is too long"),
        ("t^" + "9" * 4301, "4301-digit integer at position 2 is too long"),
        ("1/(x1-x1) + %", "unexpected character '%' at position 12"),
    ],
    ids=[
        "bad_character",
        "superscript_after_int",
        "superscript_in_name",
        "arabic_indic_three",
        "empty",
        "blank",
        "dangling_plus",
        "leading_star",
        "open_parenthesis",
        "sum_exponent",
        "open_exponent",
        "close_parenthesis",
        "implicit_product",
        "name_exponent",
        "negated_name_exponent",
        "missing_exponent",
        "deep_parentheses",
        "deep_signs",
        "deep_exponent",
        "long_integer",
        "long_exponent",
        "bad_character_before_evaluation",
    ],
)
def test_error_messages(text, message):
    with pytest.raises(ExprError) as info:
        fn(text, ("t", "x1", "x2"))
    assert str(info.value) == message


def test_parse_precedence_mul_over_add():
    assert fn("x1+x2*3") == fn("x1 + 3*x2") != fn("(x1+x2)*3")


def test_parse_precedence_pow_over_mul_and_neg():
    x1 = RatFn.from_poly(var_poly(("x1", "x2"), "x1", QQ), QQ)
    assert fn("2*x1^2") == fn("2") * x1 * x1 != fn("(2*x1)^2")
    # -x^2 means -(x^2)
    assert fn("-x1^2") == -(x1 * x1) != fn("(-x1)^2")


def test_parse_negative_exponents():
    x1 = RatFn.from_poly(var_poly(("x1", "x2"), "x1", QQ), QQ)
    assert fn("x1^-2") == fn("x1^(-2)") == fn("1") / (x1 * x1)


def test_parse_left_associative_sub_and_div():
    assert fn("7-3-1") == fn("3")
    assert same_fn(fn("8/4/2"), fn("1")) and not same_fn(fn("8/4/2"), fn("4"))
    assert fn("x1-x2-1") == fn("x1 - (x2 + 1)") != fn("x1 - (x2 - 1)")
    assert same_fn(fn("x1/x2/x1"), fn("1/x2"))


def test_parse_parentheses_and_unary_plus():
    assert fn("(1+2)*3") == fn("9")
    assert fn("+x1") == fn("x1")
    assert fn("+-+x1") == fn("-x1")


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ExprError):
        fn("2 x1")
    with pytest.raises(ExprError):
        fn("x1 x2")


def test_parse_rejects_empty_and_trailing_and_dangling():
    for text in ("", "  ", "1+", "(1+2", "1)"):
        with pytest.raises(ExprError):
            fn(text)


def test_parse_rejects_non_integer_exponent():
    with pytest.raises(ExprError):
        fn("x1^x2")
    with pytest.raises(ExprError):
        fn("x1^(1+1)")


def test_evaluation_error_before_a_later_syntax_error():
    # the text is read once and evaluated as it is read, so the first error
    # in reading order is raised; a bad character is found before any work
    with pytest.raises(ZeroDivisionError):
        fn("1/(x1-x1) + )")
    with pytest.raises(ExprError, match="unknown variable 'z9'"):
        fn("z9 + )")
    with pytest.raises(ExprError, match="unexpected character '%'"):
        fn("1/(x1-x1) + %")


def test_to_ratfn_monomial_quotient():
    vars = ("x1", "x2")
    got = expr_to_ratfn("x1^3/x2^2", vars, QQ)
    x1 = var_poly(vars, "x1", QQ)
    x2 = var_poly(vars, "x2", QQ)
    assert got == RatFn.make(x1 * x1 * x1, x2 * x2)


def test_to_ratfn_rational_constant():
    vars = ("x1",)
    got = expr_to_ratfn("3/4", vars, QQ)
    assert got == RatFn.make(const_poly(vars, QQ.elem(3)), const_poly(vars, QQ.elem(4)))


def test_to_ratfn_negative_exponent_inverts():
    vars = ("x1",)
    x1 = RatFn.from_poly(var_poly(vars, "x1", QQ), QQ)
    assert expr_to_ratfn("x1^-2", vars, QQ) == RatFn.make(
        const_poly(vars, QQ.one()), var_poly(vars, "x1", QQ) * var_poly(vars, "x1", QQ)
    )
    assert same_fn(expr_to_ratfn("x1^-2", vars, QQ) * x1 * x1, expr_to_ratfn("1", vars, QQ))


def test_to_ratfn_over_prime_field_reduces_constants():
    vars = ("t",)
    # 7 = 2 and 1/2 = 3 in F_5
    assert expr_to_ratfn("7", vars, GF(5)) == expr_to_ratfn("2", vars, GF(5))
    assert same_fn(expr_to_ratfn("1/2", vars, GF(5)), expr_to_ratfn("3", vars, GF(5)))


def test_to_ratfn_unknown_variable_lists_scope():
    with pytest.raises(ExprError) as exc:
        expr_to_ratfn("x1 + z9", ("x1", "x2"), QQ)
    assert "z9" in str(exc.value)
    assert "x1, x2" in str(exc.value)


def test_to_ratfn_zero_division_surfaces():
    with pytest.raises(ZeroDivisionError):
        expr_to_ratfn("1/(x1-x1)", ("x1",), QQ)


def test_to_ratfn_compound_identity():
    # (x+1)^2 - (x-1)^2 = 4x as rational functions
    vars = ("x1",)
    lhs = expr_to_ratfn("(x1+1)^2 - (x1-1)^2", vars, QQ)
    assert lhs == expr_to_ratfn("4*x1", vars, QQ)


def test_to_ratfn_same_text_over_two_fields():
    a = expr_to_ratfn("(t+1)/(t-1)", ("t",), QQ)
    b = expr_to_ratfn("(t+1)/(t-1)", ("t",), GF(3))
    assert str(a) == "(t + 1)/(t + -1)"
    assert b == expr_to_ratfn("(t+1)/(t+2)", ("t",), GF(3))


def test_to_ratfn_folds_long_chains_without_recursion():
    # a flat sum or product nests to the left as deep as it is long; 1200
    # levels are past Python's recursion limit
    vars = ("t",)
    f2 = GF(2)
    assert expr_to_ratfn("+".join(["1"] * 1201), vars, f2) == expr_to_ratfn("1", vars, f2)
    assert expr_to_ratfn("-".join(["t"] * 1200), vars, QQ) == expr_to_ratfn("-1198*t", vars, QQ)
    product = expr_to_ratfn("*".join(["t"] * 1200), vars, f2)
    assert product.num.terms == (((1200,), f2.one()),)
    quotient = expr_to_ratfn("/".join(["t"] * 1200), vars, f2)
    assert quotient.num.terms == (((1,), f2.one()),) and quotient.den.terms == (((1199,), f2.one()),)
    total = expr_to_ratfn("+".join(f"t^{k}" for k in range(200)), vars, f2)
    assert [e for e, _ in total.num.terms] == [(k,) for k in range(200)]
    # the fold keeps the left-to-right order of the recursive evaluation
    x1 = RatFn.from_poly(var_poly(("x1",), "x1", QQ), QQ)
    one = expr_to_ratfn("1", ("x1",), QQ)
    assert expr_to_ratfn("x1 - 1 + x1/x1 * x1", ("x1",), QQ) == (x1 - one) + x1 / x1 * x1


@pytest.mark.parametrize(
    "text",
    ["(" * 3000 + "t" + ")" * 3000, "-" * 3000 + "t", "t^" + "(" * 3000 + "2" + ")" * 3000],
    ids=["parentheses", "signs", "exponent"],
)
def test_parse_nesting_budget(text):
    with pytest.raises(ExprError, match="nesting deeper than 100 levels") as info:
        fn(text, ("t",))
    assert "\n" not in str(info.value)


def test_parse_nesting_within_the_budget():
    t = fn("t", ("t",))
    assert fn("(" * 100 + "t" + ")" * 100, ("t",)) == t
    assert fn("-" * 100 + "t", ("t",)) == t
    assert fn("-" * 99 + "t", ("t",)) == -t
    assert fn("t^" + "(" * 100 + "2" + ")" * 100, ("t",)) == t * t
    # only the depth counts, not the number of nested groups
    assert fn("+".join(["(" * 60 + "t" + ")" * 60] * 3), ("t",)) == fn("3*t", ("t",))


# ---------------------------------------------------------------------------
# the reader against values computed without it

_POINT = {"x1": Fraction(3, 7), "x2": Fraction(-5, 2)}
_NAMES = sorted(_POINT)


class _Valued:
    """Random texts of the grammar with their values at _POINT, computed
    with Fraction arithmetic as the text is written; a value is None where
    the text is undefined at the point (a division by 0, 0 to a power
    k <= 0).  seen names the rules of reading that the text relies on."""

    def __init__(self, rng):
        self.rng = rng
        self.seen = set()
        self.powered = False

    def space(self):
        return self.rng.choice(("", "", "", " ", "  "))

    def join(self, parts, ops, fold):
        # left association: a o b o c is (a o b) o c
        self.seen.update(f"left {op}" for op in ops[:-1] if op in "-/")
        text, value = parts[0]
        for op, (part, v) in zip(ops, parts[1:]):
            text += self.space() + op + self.space() + part
            value = None if value is None or v is None else fold(value, op, v)
        return text, value

    def expr(self, depth):
        parts = [self.term(depth) for _ in range(self.rng.choice((1, 2, 3)))]
        ops = [self.rng.choice("+-") for _ in parts[1:]]
        if ops and any("*" in text or "/" in text for text, _ in parts):
            self.seen.add("precedence")
        return self.join(parts, ops, lambda a, op, b: a + b if op == "+" else a - b)

    def term(self, depth):
        parts = [self.factor(depth) for _ in range(self.rng.choice((1, 1, 2, 3)))]
        ops = [self.rng.choice("***/") for _ in parts[1:]]
        return self.join(parts, ops, _product)

    def factor(self, depth):
        rng = self.rng
        if rng.random() < 0.15:
            sign = rng.choice("-+")
            text, value = self.factor(depth)
            if self.powered:  # -x^2 is -(x^2)
                self.seen.add("sign over power")
            return sign + text, value if sign == "+" or value is None else -value
        r = rng.random()
        if depth == 0 or r < 0.4:
            text = str(rng.randrange(0, 10))
            value = Fraction(int(text))
        elif r < 0.85:
            text = rng.choice(_NAMES)
            value = _POINT[text]
        else:
            text, value = self.expr(depth - 1)
            text = "(" + self.space() + text + self.space() + ")"
        self.powered = rng.random() < 0.25
        if self.powered:
            k = rng.randint(-3, 3)
            exponent = str(k)
            for _ in range(rng.choice((0, 0, 1, 2))):
                exponent = f"({exponent})"
                self.seen.add("parenthesized exponent")
            if k < 0:
                self.seen.add("negative exponent")
            text += "^" + exponent
            value = None if value is None or value == 0 and k <= 0 else value**k
        return text, value


def _product(a, op, b):
    if op == "*":
        return a * b
    return None if b == 0 else a / b


def test_reader_matches_values_computed_without_it():
    gen = _Valued(random.Random(2718))
    point = {v: QQ.elem(q) for v, q in _POINT.items()}
    checked, seen = 0, set()
    for _ in range(2000):
        gen.seen.clear()
        text, value = gen.expr(1)
        if value is None:
            continue
        assert fn(text).subst(point, QQ) == QQ.elem(value), text
        checked += 1
        seen |= gen.seen
    assert checked > 1500
    assert seen == {
        "precedence",
        "left -",
        "left /",
        "sign over power",
        "negative exponent",
        "parenthesized exponent",
    }


# ---------------------------------------------------------------------------
# the evaluator against the fold it replaced

class _Fold:
    """The reference: every leaf a RatFn, every operator RatFn arithmetic."""

    def __init__(self, vars, field):
        self.vars, self.field = vars, field

    def int(self, k):
        return RatFn.from_poly(const_poly(self.vars, self.field.elem(k)), self.field)

    def var(self, name):
        if name not in self.vars:
            known = ", ".join(self.vars) if self.vars else "(none)"
            raise ExprError(f"unknown variable {name!r}; in scope: {known}")
        return RatFn.from_poly(var_poly(self.vars, name, self.field), self.field)

    neg = staticmethod(neg)
    power = staticmethod(pow)

    def sum(self, values):
        return reduce(add, values)

    def product(self, a, op, b):
        return a * b if op == "*" else a / b


def _fold(text, vars, field):
    return evaluate(text, _Fold(vars, field))


def _outcome(evaluate, text, vars, field):
    try:
        rf = evaluate(text, vars, field)
    except (ExprError, UnsupportedError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return rf.num.terms, rf.den.terms


def _random_text(rng, names, depth):
    """A random expression with + - * /, powers with exponents in -3..5,
    parentheses and unary signs; now and then a name out of scope."""
    r = rng.random()
    if depth == 0 or r < 0.25:
        if rng.random() < 0.45:
            return str(rng.randrange(0, 7))
        return "y" if rng.random() < 0.02 else rng.choice(names)
    if r < 0.6:
        parts = [_random_text(rng, names, depth - 1) for _ in range(rng.randint(2, 4))]
        text = parts[0]
        for part in parts[1:]:
            text += rng.choice(" + | - |*|/".split("|")) + part
        return f"({text})" if rng.random() < 0.5 else text
    if r < 0.85:
        k = rng.randint(-3, 5)
        exponent = str(k) if k >= 0 else rng.choice([str(k), f"({k})"])
        base = _random_text(rng, names, depth - 1)
        if not (base.isdigit() or base.isalnum()):
            base = f"({base})"
        return f"{base}^{exponent}"
    return rng.choice("-+") + _random_text(rng, names, depth - 1)


def _random_chain(rng, names):
    """A sum of products of monomial factors: integers, names and their
    powers, with now and then a division, 0^0, a negative power, a name out
    of scope or a parenthesized factor that is not a monomial."""
    summands = []
    for _ in range(rng.randint(1, 4)):
        factors = []
        for _ in range(rng.randint(1, 5)):
            r = rng.random()
            if r < 0.015:
                factor = "y"
            elif r < 0.1:
                factor = f"({_random_text(rng, names, 1)})"
            else:
                factor = str(rng.randrange(0, 5)) if r < 0.45 else rng.choice(names)
                if rng.random() < 0.5:
                    factor += f"^{rng.randint(-1, 4)}"
            factors.append(factor)
        text = factors[0]
        for factor in factors[1:]:
            text += ("/" if rng.random() < 0.15 else "*") + factor
        summands.append(rng.choice(["", "-"]) + text)
    text = summands[0]
    for summand in summands[1:]:
        text += rng.choice([" + ", " - "]) + summand
    return text


DENSE_4096 = "+".join(f"{i + 1}*t^{i}" for i in range(4096))

_FIELDS = {"F5": GF(5), "F9": GF(3, 2), "Q": QQ}


@pytest.mark.parametrize("field_name", sorted(_FIELDS))
@pytest.mark.parametrize("names", [("t",), ("x1", "x2")], ids=["one_var", "two_vars"])
def test_evaluator_matches_the_ratfn_fold(field_name, names):
    field = _FIELDS[field_name]
    rng = random.Random(f"{field_name}/{len(names)}")
    outcomes = {"polynomial", "fraction", ZeroDivisionError}
    for generate, want in [
        (lambda: _random_text(rng, names, 3), outcomes),
        (lambda: _random_chain(rng, names), outcomes | {UnsupportedError, ExprError}),
    ]:
        seen = set()
        for _ in range(100):
            text = generate()
            got = _outcome(expr_to_ratfn, text, names, field)
            assert got == _outcome(_fold, text, names, field), text
            if isinstance(got[0], type):
                seen.add(got[0])
            else:
                seen.add("fraction" if any(any(e) for e, _ in got[1]) else "polynomial")
        assert want <= seen


@pytest.mark.parametrize("field_name", sorted(_FIELDS))
@pytest.mark.parametrize(
    "text, error",
    [
        ("(t - t)^0", UnsupportedError),
        ("t + (2*t - t - t)^-2", ZeroDivisionError),
        ("1 - t/(t^2 - t*t)", ZeroDivisionError),
        ("t^2 + s", ExprError),
        ("(1/t)^0 + t^0 - 1", None),
        ("-(t^2 - 1)^-3*t/(1 + t)^0", None),
        # inside chains of monomial factors
        ("2*t*0^0*t", UnsupportedError),
        ("3*t^2*0^-1 + t", ZeroDivisionError),
        ("t - 2*t*s*t^2", ExprError),
        ("4*t^2*t^-1*3 - t", None),
        ("3*t^2*2*t + 2^3*t + 0*t^5 - -t*t", None),
        ("4*t/(1+t)*t^3 - 2^0*0^3", None),
        ("(2*t)^3*t^0 - (-t)^2/t", None),
    ],
)
def test_evaluator_errors_match_the_ratfn_fold(field_name, text, error):
    field = _FIELDS[field_name]
    want = _outcome(_fold, text, ("t",), field)
    assert _outcome(expr_to_ratfn, text, ("t",), field) == want
    assert (want[0] if isinstance(want[0], type) else None) is error


def test_evaluator_within_the_nesting_budget():
    # 100 nested groups alternating sums, products, quotients and powers
    text = "t"
    for i in range(100):
        text = f"(t + t*{text}/t)" if i % 2 else f"(1 - t*{text})^1"
    f5 = GF(5)
    assert _outcome(expr_to_ratfn, text, ("t",), f5) == _outcome(_fold, text, ("t",), f5)


def test_dense_coefficient_in_linear_time():
    # 1*t^0 + 2*t^1 + ... with 4096 terms; the RatFn fold re-sorted the
    # growing numerator at every '+' and took seconds
    f5 = GF(5)
    start = time.perf_counter()
    rf = expr_to_ratfn(DENSE_4096, ("t",), f5)
    assert time.perf_counter() - start < 1.0
    assert rf.num.terms == tuple(((i,), f5.elem(i + 1)) for i in range(4096) if (i + 1) % 5)
    assert rf.den.terms == (((0,), f5.one()),)


def test_dense_coefficient_builds_a_constant_number_of_mpolys(monkeypatch):
    # each monomial folds to one term and the sum merges them all at once:
    # one MPoly.make for the numerator and one for the constant denominator
    calls = []
    make = MPoly.make
    monkeypatch.setattr(MPoly, "make", staticmethod(lambda v, t: calls.append(v) or make(v, t)))
    rf = expr_to_ratfn(DENSE_4096, ("t",), GF(5))
    assert len(rf.num.terms) == 4096 - 4096 // 5
    assert len(calls) <= 2
