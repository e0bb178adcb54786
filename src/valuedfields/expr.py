"""Expression grammar for the command line.

Recognized language, with no implicit multiplication:

    expr     :=  term (('+' | '-') term)*
    term     :=  unary (('*' | '/') unary)*
    unary    :=  ('-' | '+') unary | power
    power    :=  atom ('^' exponent)?
    exponent :=  INT | '-' INT | '(' exponent ')'
    atom     :=  INT | NAME | '(' expr ')'

Names are short lowercase identifiers such as x1, y2, or t; the evaluator
decides which names are in scope.  Integer literals combined with '/' give
rational constants.  Parentheses and unary signs nest at most _MAX_NESTING
levels deep.  Every syntax error raises ExprError carrying the offending
position.  Digits are the ASCII digits 0-9 only, in integers and in names
alike.

There is no syntax tree: evaluate reads the text once, and each grammar
rule returns the value of what it read, built by an evaluator object.
expr_to_ratfn evaluates to rational functions; its cost model:

* a monomial (an integer, a name, a product or negation of monomials, or a
  monomial to a power k >= 0 other than 0^0) is one (exponents,
  coefficient) term, built with O(1) work per factor and no MPoly;
* a sum merges all its summands in one MPoly.make;
* a value stays a polynomial until it meets a division or a negative
  power, and only then does RatFn arithmetic run.

A dense coefficient therefore costs time linear in its length.
"""

import re
from operator import add
from typing import NamedTuple

from .errors import ExprError
from .fields import FieldDesc
from .polys import MPoly, RatFn, const_poly


class Token(NamedTuple):
    kind: str  # "int", "name", "op", "end"
    text: str
    pos: int


# every character falls in one group, so a scan leaves no gaps
_TOKEN = re.compile(
    r"(?P<int>[0-9]+)|(?P<name>[a-z][a-z0-9]*)|(?P<op>[-+*/^()])|(?P<space>\s+)|(?P<bad>.)",
    re.DOTALL,
)


def tokenize(text: str) -> list[Token]:
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            raise ExprError(f"unexpected character {m.group()!r} at position {m.start()}")
        out.append(Token(kind, m.group(), m.start()))
    out.append(Token("end", "", len(text)))
    return out


# how deep parentheses and unary signs may nest; each level costs the
# recursive parser a few stack frames, so this stays well inside Python's
# recursion limit
_MAX_NESTING = 100


class _Parser:
    """Reads the tokens of one text; each rule returns the value of what it
    read, built by the evaluator ev as the rule reads it."""

    def __init__(self, text: str, ev):
        self.tokens = tokenize(text)
        self.ev = ev
        self.i = 0
        self.depth = 0

    def nest(self, t: Token):
        """Enter one level of nesting at token t; leave it with unnest."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ExprError(f"nesting deeper than {_MAX_NESTING} levels at position {t.pos}")

    def unnest(self):
        self.depth -= 1

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, symbol: str) -> Token:
        t = self.peek()
        if t.text != symbol:
            raise ExprError(f"expected {symbol!r} at position {t.pos}")
        return self.take()

    # grammar rules, one method each; an operator text occurs only in an
    # "op" token, so the rules compare texts alone

    def expr(self):
        """A single term as it is; the summands of a sum, subtracted ones
        negated, go to ev.sum at once, in reading order."""
        summands = [self.term()]
        while self.peek().text in ("+", "-"):
            op = self.take().text
            value = self.term()
            summands.append(value if op == "+" else self.ev.neg(value))
        return summands[0] if len(summands) == 1 else self.ev.sum(summands)

    def term(self):
        """Each factor is folded in as soon as it is read."""
        value = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.take().text
            value = self.ev.product(value, op, self.unary())
        return value

    def unary(self):
        t = self.peek()
        if t.text in ("+", "-"):
            self.take()
            self.nest(t)
            value = self.unary()
            self.unnest()
            return value if t.text == "+" else self.ev.neg(value)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().text == "^":
            self.take()
            return self.ev.power(base, self.exponent())
        return base

    def exponent(self) -> int:
        t = self.peek()
        if t.text == "(":
            self.take()
            self.nest(t)
            k = self.exponent()
            self.expect_op(")")
            self.unnest()
            return k
        negate = False
        if t.text == "-":
            self.take()
            negate = True
            t = self.peek()
        if t.kind != "int":
            raise ExprError(f"exponent must be an integer at position {t.pos}")
        self.take()
        k = _int_value(t)
        return -k if negate else k

    def atom(self):
        t = self.take()
        if t.kind == "int":
            return self.ev.int(_int_value(t))
        if t.kind == "name":
            return self.ev.var(t.text)
        if t.text == "(":
            self.nest(t)
            value = self.expr()
            self.expect_op(")")
            self.unnest()
            return value
        raise ExprError(f"expected a value at position {t.pos}")


def _int_value(t: Token) -> int:
    try:  # CPython converts at most 4300 digits by default
        return int(t.text)
    except ValueError:
        raise ExprError(f"{len(t.text)}-digit integer at position {t.pos} is too long") from None


def evaluate(text: str, ev):
    """The value of text, built by the evaluator ev while the text is read.

    ev provides int(k), var(name), neg(a), power(a, k) for an integer k,
    product(a, op, b) for op '*' or '/', and sum(values) for the summands
    of a sum in reading order, subtracted ones already negated.  The whole
    text is tokenized first; after that, the first error in reading order
    is raised, whether a syntax error or one of ev's, and trailing input is
    rejected once the expression is read."""
    if not text.strip():
        raise ExprError("empty expression")
    p = _Parser(text, ev)
    value = p.expr()
    t = p.peek()
    if t.kind != "end":
        raise ExprError(f"unexpected {t.text!r} at position {t.pos}")
    return value


class _Evaluator:
    """Evaluation to rational functions over one variable tuple and field.

    A value is a pair (num, den).  den is None while the value is a
    polynomial, and num is then either an MPoly or a monomial: a plain
    (exponents, coefficient) tuple, the shape of one MPoly term, kept until
    something needs an MPoly.  A monomial may carry a zero coefficient,
    which stands for the zero polynomial.  The numerator and denominator
    are those of folding the same text through RatFn arithmetic.  Names
    outside vars raise ExprError.  Division by the zero function raises
    ZeroDivisionError."""

    def __init__(self, vars, field):
        self.vars = vars
        self.field = field
        self.one = field.one()
        self.zeros = (0,) * len(vars)
        self.units = {v: tuple(int(w == v) for w in vars) for v in vars}

    def poly(self, num) -> MPoly:
        if type(num) is not tuple:
            return num
        return MPoly(self.vars, () if num[1].is_exact_zero() else (num,))

    def ratfn(self, num, den) -> RatFn:
        return RatFn.make(self.poly(num), const_poly(self.vars, self.one) if den is None else den)

    def int(self, k: int):
        return (self.zeros, self.field.elem(k)), None

    def var(self, name: str):
        unit = self.units.get(name)
        if unit is None:
            known = ", ".join(self.vars) if self.vars else "(none)"
            raise ExprError(f"unknown variable {name!r}; in scope: {known}")
        return (unit, self.one), None

    def neg(self, value):
        num, den = value
        return ((num[0], -num[1]) if type(num) is tuple else -num), den

    def power(self, value, k: int):
        """A monomial to a power k >= 0 is a monomial, except 0^0; a
        polynomial keeps its own powers (the 0-th of a nonzero one is the
        constant one); a rational or negative power goes through RatFn."""
        num, den = value
        if type(num) is tuple:
            exps, c = num
            if k > 0 or k == 0 and not c.is_exact_zero():
                return (tuple(e * k for e in exps), c if c is self.one else c ** k), None
            num = self.poly(num)
        if den is None and k > 0:
            return num ** k, None
        if den is None and k == 0 and not num.is_zero():
            return const_poly(self.vars, self.one), None
        r = self.ratfn(num, den) ** k
        return r.num, r.den

    def sum(self, values):
        """Monomials and the terms of polynomial summands are merged by one
        MPoly.make; the rational summands add as n1/d1 + n2/d2 =
        (n1*d2 + n2*d1)/(d1*d2)."""
        terms = []
        frac = None
        for num, den in values:
            if type(num) is tuple:
                terms.append(num)
            elif den is None:
                terms.extend(num.terms)
            elif frac is None:
                frac = num, den
            else:
                frac = frac[0] * den + num * frac[1], frac[1] * den
        poly = MPoly.make(self.vars, terms)
        if frac is None:
            return poly, None
        return frac[0] + poly * frac[1], frac[1]

    def product(self, value, op: str, factor):
        """Monomial factors fold into one monomial, with no MPoly built.  A
        division or a factor that is not a monomial turns the product so far
        into an MPoly, and later factors multiply and divide polynomials and
        RatFns."""
        (num, den), (num2, den2) = value, factor
        if op == "/":
            q = self.ratfn(num, den) / self.ratfn(num2, den2)
            return q.num, q.den
        if type(num) is tuple and type(num2) is tuple:
            # names and their powers carry the shared one: skip c*1
            c = num[1] if num2[1] is self.one else num[1] * num2[1]
            return (tuple(map(add, num[0], num2[0])), c), den
        # a den of None stands for the constant one
        den = den2 if den is None else den if den2 is None else den * den2
        return self.poly(num) * self.poly(num2), den


def expr_to_ratfn(text: str, vars, field: FieldDesc) -> RatFn:
    """The rational function of text in the given variables over field."""
    ev = _Evaluator(tuple(vars), field)
    return ev.ratfn(*evaluate(text, ev))
