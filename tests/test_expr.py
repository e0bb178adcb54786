"""Expression grammar: tokens, precedence, and conversion to rational functions."""

import random
import time
from operator import add, mul, sub, truediv

import pytest

from valuedfields.errors import ExprError, UnsupportedError
from valuedfields.expr import expr_to_ratfn, parse_expr, to_ratfn, tokenize
from valuedfields.fields import GF, QQ
from valuedfields.polys import MPoly, RatFn, const_poly, var_poly


def same_fn(a, b):
    # rational functions are kept unreduced, so compare cross-multiplied
    return a.num * b.den == b.num * a.den


def test_tokenize_kinds_and_positions():
    toks = tokenize("x1 + 23*y2")
    assert [(t.kind, t.text) for t in toks] == [
        ("name", "x1"),
        ("op", "+"),
        ("int", "23"),
        ("op", "*"),
        ("name", "y2"),
        ("end", ""),
    ]
    assert [t.pos for t in toks] == [0, 3, 5, 7, 8, 10]


def test_tokenize_rejects_unknown_character():
    with pytest.raises(ExprError):
        tokenize("x1 % 2")


@pytest.mark.parametrize(
    "text, char, pos",
    [("1+\u00b2", "\u00b2", 2), ("t\u00b2", "\u00b2", 1), ("\u0663*t", "\u0663", 0)],
    ids=["superscript_after_int", "superscript_in_name", "arabic_indic_three"],
)
def test_tokenize_accepts_ascii_digits_only(text, char, pos):
    # str.isdigit accepts a superscript two and an Arabic-Indic three;
    # integers and names take 0-9 only
    with pytest.raises(ExprError) as info:
        tokenize(text)
    assert str(info.value) == f"unexpected character {char!r} at position {pos}"


def test_parse_precedence_mul_over_add():
    assert parse_expr("1+2*3") == ("add", ("int", 1), ("mul", ("int", 2), ("int", 3)))


def test_parse_precedence_pow_over_mul_and_neg():
    assert parse_expr("2*3^2") == ("mul", ("int", 2), ("pow", ("int", 3), 2))
    # -x^2 means -(x^2)
    assert parse_expr("-x1^2") == ("neg", ("pow", ("var", "x1"), 2))


def test_parse_negative_exponents():
    assert parse_expr("x1^-2") == ("pow", ("var", "x1"), -2)
    assert parse_expr("x1^(-2)") == ("pow", ("var", "x1"), -2)


def test_parse_left_associative_sub_and_div():
    assert parse_expr("7-3-1") == ("sub", ("sub", ("int", 7), ("int", 3)), ("int", 1))
    assert parse_expr("8/4/2") == ("div", ("div", ("int", 8), ("int", 4)), ("int", 2))


def test_parse_parentheses_and_unary_plus():
    assert parse_expr("(1+2)*3") == ("mul", ("add", ("int", 1), ("int", 2)), ("int", 3))
    assert parse_expr("+x1") == ("var", "x1")


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ExprError):
        parse_expr("2 x1")
    with pytest.raises(ExprError):
        parse_expr("x1 x2")


def test_parse_rejects_empty_and_trailing_and_dangling():
    with pytest.raises(ExprError):
        parse_expr("")
    with pytest.raises(ExprError):
        parse_expr("1+")
    with pytest.raises(ExprError):
        parse_expr("(1+2")
    with pytest.raises(ExprError):
        parse_expr("1)")


def test_parse_rejects_non_integer_exponent():
    with pytest.raises(ExprError):
        parse_expr("x1^x2")
    with pytest.raises(ExprError):
        parse_expr("x1^(1+1)")


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


def test_to_ratfn_nested_tree_reuse():
    node = parse_expr("(t+1)/(t-1)")
    a = to_ratfn(node, ("t",), QQ)
    b = to_ratfn(node, ("t",), GF(3))
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
        parse_expr(text)
    assert "\n" not in str(info.value)


def test_parse_nesting_within_the_budget():
    assert parse_expr("(" * 100 + "t" + ")" * 100) == ("var", "t")
    negated = ("var", "t")
    for _ in range(100):
        negated = ("neg", negated)
    assert parse_expr("-" * 100 + "t") == negated
    # only the depth counts, not the number of nested groups
    assert parse_expr("+".join(["(" * 60 + "t" + ")" * 60] * 3)) == (
        "add", ("add", ("var", "t"), ("var", "t")), ("var", "t")
    )


# ---------------------------------------------------------------------------
# the evaluator against the fold it replaced

_BINARY = {"add": add, "sub": sub, "mul": mul, "div": truediv}


def _fold(node, vars, field):
    """The former to_ratfn: every leaf a RatFn, every operator RatFn arithmetic."""
    kind = node[0]
    if kind == "int":
        return RatFn.from_poly(const_poly(vars, field.elem(node[1])), field)
    if kind == "var":
        if node[1] not in vars:
            known = ", ".join(vars) if vars else "(none)"
            raise ExprError(f"unknown variable {node[1]!r}; in scope: {known}")
        return RatFn.from_poly(var_poly(vars, node[1], field), field)
    if kind == "neg":
        return -_fold(node[1], vars, field)
    if kind == "pow":
        return _fold(node[1], vars, field) ** node[2]
    chain = []
    while node[0] in _BINARY:
        chain.append(node)
        node = node[1]
    acc = _fold(node, vars, field)
    for kind, _, rhs in reversed(chain):
        acc = _BINARY[kind](acc, _fold(rhs, vars, field))
    return acc


def _outcome(evaluate, node, vars, field):
    try:
        rf = evaluate(node, vars, field)
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
            node = parse_expr(text)
            got = _outcome(to_ratfn, node, names, field)
            assert got == _outcome(_fold, node, names, field), text
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
    node = parse_expr(text)
    want = _outcome(_fold, node, ("t",), field)
    assert _outcome(to_ratfn, node, ("t",), field) == want
    assert (want[0] if isinstance(want[0], type) else None) is error


def test_evaluator_within_the_nesting_budget():
    # 100 nested groups alternating sums, products, quotients and powers
    text = "t"
    for i in range(100):
        text = f"(t + t*{text}/t)" if i % 2 else f"(1 - t*{text})^1"
    node = parse_expr(text)
    f5 = GF(5)
    assert _outcome(to_ratfn, node, ("t",), f5) == _outcome(_fold, node, ("t",), f5)


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
