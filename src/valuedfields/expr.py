"""Expression grammar for the command line.

Recognized language, with no implicit multiplication:

    expr     :=  term (('+' | '-') term)*
    term     :=  unary (('*' | '/') unary)*
    unary    :=  ('-' | '+') unary | power
    power    :=  atom ('^' exponent)?
    exponent :=  INT | '-' INT | '(' exponent ')'
    atom     :=  INT | NAME | '(' expr ')'

Names are short lowercase identifiers such as x1, y2, or t; the caller
decides which names are in scope when converting to a rational function.
Integer literals combined with '/' give rational constants.  Parentheses
and unary signs nest at most _MAX_NESTING levels deep.  Every failure
raises ExprError carrying the offending position.

Digits are the ASCII digits 0-9 only, in integers and in names alike.

Cost model of to_ratfn:

* a monomial (an integer, a name, a product or negation of monomials, or a
  monomial to a power k >= 0 other than 0^0) is one (exponents,
  coefficient) term, built with O(1) work per factor and no MPoly;
* a sum merges all its summands in one MPoly.make;
* a tree stays a polynomial until it meets a division or a negative
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
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
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
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.take().text
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.take().text
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        t = self.peek()
        if t.text in ("+", "-"):
            self.take()
            self.nest(t)
            inner = self.unary()
            self.unnest()
            return inner if t.text == "+" else ("neg", inner)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().text == "^":
            self.take()
            return ("pow", base, self.exponent())
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
            return ("int", _int_value(t))
        if t.kind == "name":
            return ("var", t.text)
        if t.text == "(":
            self.nest(t)
            node = self.expr()
            self.expect_op(")")
            self.unnest()
            return node
        raise ExprError(f"expected a value at position {t.pos}")


def _int_value(t: Token) -> int:
    try:  # CPython converts at most 4300 digits by default
        return int(t.text)
    except ValueError:
        raise ExprError(f"{len(t.text)}-digit integer at position {t.pos} is too long") from None


def parse_expr(text: str):
    """Parse to a nested-tuple syntax tree; reject trailing input."""
    if not text.strip():
        raise ExprError("empty expression")
    p = _Parser(text)
    node = p.expr()
    t = p.peek()
    if t.kind != "end":
        raise ExprError(f"unexpected {t.text!r} at position {t.pos}")
    return node


def to_ratfn(node, vars: tuple[str, ...], field: FieldDesc) -> RatFn:
    """Evaluate a syntax tree to a rational function in the given variables.

    Monomials fold to single terms, the summands of a sum are merged in one
    pass, and a subtree stays a polynomial until it meets a division or a
    negative power, so a dense n-term polynomial costs time linear in n.
    The numerator and denominator are those of folding the tree through
    RatFn arithmetic.  Names outside `vars` raise ExprError.  Division by
    the zero function raises ZeroDivisionError."""
    ev = _Evaluator(vars, field)
    return ev.ratfn(*ev.eval(node))


class _Evaluator:
    """Evaluation over one variable tuple and field.

    A value is a pair (num, den).  den is None while the value is a
    polynomial, and num is then either an MPoly or a monomial: a plain
    (exponents, coefficient) tuple, the shape of one MPoly term, kept until
    something needs an MPoly.  A monomial may carry a zero coefficient,
    which stands for the zero polynomial."""

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

    def eval(self, node):
        """(num, den) of a syntax tree."""
        kind = node[0]
        if kind == "int":
            return (self.zeros, self.field.elem(node[1])), None
        if kind == "var":
            unit = self.units.get(node[1])
            if unit is None:
                known = ", ".join(self.vars) if self.vars else "(none)"
                raise ExprError(f"unknown variable {node[1]!r}; in scope: {known}")
            return (unit, self.one), None
        if kind == "neg":
            num, den = self.eval(node[1])
            return ((num[0], -num[1]) if type(num) is tuple else -num), den
        if kind == "pow":
            return self.power(*self.eval(node[1]), node[2])
        if kind in ("add", "sub"):
            return self.sum(_chain(node, ("add", "sub")))
        return self.product(_chain(node, ("mul", "div")))

    def power(self, num, den, k: int):
        """A monomial to a power k >= 0 is a monomial, except 0^0; a
        polynomial keeps its own powers (the 0-th of a nonzero one is the
        constant one); a rational or negative power goes through RatFn."""
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

    def sum(self, chain):
        """Monomials and the terms of polynomial summands are merged by one
        MPoly.make; the rational summands add as n1/d1 + n2/d2 =
        (n1*d2 + n2*d1)/(d1*d2)."""
        terms = []
        frac = None
        for kind, node in chain:
            num, den = self.eval(node)
            if type(num) is tuple:
                terms.append(num if kind == "add" else (num[0], -num[1]))
                continue
            if kind == "sub":
                num = -num
            if den is None:
                terms.extend(num.terms)
            elif frac is None:
                frac = num, den
            else:
                frac = frac[0] * den + num * frac[1], frac[1] * den
        poly = MPoly.make(self.vars, terms)
        if frac is None:
            return poly, None
        return frac[0] + poly * frac[1], frac[1]

    def product(self, chain):
        """Monomial factors fold into one monomial, with no MPoly built.  A
        division or a factor that is not a monomial turns the product so far
        into an MPoly, and the rest of the chain multiplies and divides
        polynomials and RatFns."""
        num = den = None
        for kind, node in chain:
            num2, den2 = self.eval(node)
            if kind == "div":
                q = self.ratfn(num, den) / self.ratfn(num2, den2)
                num, den = q.num, q.den
            elif type(num2) is tuple and (num is None or type(num) is tuple):
                if num is None:
                    num = num2
                else:  # names and their powers carry the shared one: skip c*1
                    c = num[1] if num2[1] is self.one else num[1] * num2[1]
                    num = tuple(map(add, num[0], num2[0])), c
            else:
                num, den = _times(self.poly(num), self.poly(num2)), _times(den, den2)
        return num, den


def _chain(node, ops):
    """[(op, operand), ...] of a left-nested chain such as t^0 + t^1 + ...,
    first operand tagged ops[0].  The chain nests as deep as it is long, so
    this walks down its left spine instead of recursing into it."""
    steps = []
    while node[0] in ops:
        steps.append((node[0], node[2]))
        node = node[1]
    steps.append((ops[0], node))
    return steps[::-1]


def _times(a, b):
    """a*b where None stands for the constant one."""
    if a is None:
        return b
    return a if b is None else a * b


def expr_to_ratfn(text: str, vars, field: FieldDesc) -> RatFn:
    """Parse and evaluate in one call."""
    return to_ratfn(parse_expr(text), tuple(vars), field)
