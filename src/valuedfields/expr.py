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

to_ratfn evaluates a tree as a polynomial until it meets a division or a
negative power, and merges the polynomial summands of a sum in one
MPoly.make, so a dense coefficient costs time linear in its length.
"""

from dataclasses import dataclass

from .errors import ExprError
from .fields import FieldDesc
from .polys import MPoly, RatFn, const_poly, var_poly

_OPS = set("+-*/^()")


@dataclass(frozen=True)
class Token:
    kind: str  # "int", "name", "op", "end"
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            out.append(Token("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("int", text[i:j], i))
            i = j
            continue
        if "a" <= ch <= "z":
            j = i
            while j < n and (("a" <= text[j] <= "z") or text[j].isdigit()):
                j += 1
            out.append(Token("name", text[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {ch!r} at position {i}")
    out.append(Token("end", "", n))
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
        if t.kind != "op" or t.text != symbol:
            raise ExprError(f"expected {symbol!r} at position {t.pos}")
        return self.take()

    # grammar rules, one method each

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        t = self.peek()
        if t.kind == "op" and t.text in "+-":
            self.take()
            self.nest(t)
            inner = self.unary()
            self.unnest()
            return inner if t.text == "+" else ("neg", inner)
        return self.power()

    def power(self):
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.take()
            return ("pow", base, self.exponent())
        return base

    def exponent(self) -> int:
        t = self.peek()
        if t.kind == "op" and t.text == "(":
            self.take()
            self.nest(t)
            k = self.exponent()
            self.expect_op(")")
            self.unnest()
            return k
        negate = False
        if t.kind == "op" and t.text == "-":
            self.take()
            negate = True
            t = self.peek()
        if t.kind != "int":
            raise ExprError(f"exponent must be an integer at position {t.pos}")
        self.take()
        k = int(t.text)
        return -k if negate else k

    def atom(self):
        t = self.take()
        if t.kind == "int":
            return ("int", int(t.text))
        if t.kind == "name":
            return ("var", t.text)
        if t.kind == "op" and t.text == "(":
            self.nest(t)
            node = self.expr()
            self.expect_op(")")
            self.unnest()
            return node
        raise ExprError(f"expected a value at position {t.pos}")


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

    A subtree stays a polynomial until it meets a division or a negative
    power, and the polynomial summands of a sum are merged in one pass, so a
    dense n-term polynomial costs time linear in n.  The numerator and
    denominator are those of folding the tree through RatFn arithmetic.
    Names outside `vars` raise ExprError.  Division by the zero function
    raises ZeroDivisionError."""
    return _ratfn(*_eval(node, vars, field), vars, field)


def _ratfn(num, den, vars, field) -> RatFn:
    return RatFn.make(num, const_poly(vars, field.one()) if den is None else den)


def _eval(node, vars, field):
    """(num, den) of a syntax tree; den is None while the tree is a polynomial."""
    kind = node[0]
    if kind == "int":
        return const_poly(vars, field.elem(node[1])), None
    if kind == "var":
        if node[1] not in vars:
            known = ", ".join(vars) if vars else "(none)"
            raise ExprError(f"unknown variable {node[1]!r}; in scope: {known}")
        return var_poly(vars, node[1], field), None
    if kind == "neg":
        num, den = _eval(node[1], vars, field)
        return -num, den
    if kind == "pow":
        return _power(*_eval(node[1], vars, field), node[2], vars, field)
    if kind in ("add", "sub"):
        return _sum(_chain(node, ("add", "sub")), vars, field)
    return _product(_chain(node, ("mul", "div")), vars, field)


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


def _power(num, den, k: int, vars, field):
    """A polynomial keeps its own powers (the 0-th of a nonzero one is the
    constant one); a rational or negative power goes through RatFn."""
    if den is None and k > 0:
        return num ** k, None
    if den is None and k == 0 and not num.is_zero():
        return const_poly(vars, field.one()), None
    r = _ratfn(num, den, vars, field) ** k
    return r.num, r.den


def _sum(chain, vars, field):
    """The polynomial summands are merged by one MPoly.make; the rational
    ones add as n1/d1 + n2/d2 = (n1*d2 + n2*d1)/(d1*d2)."""
    terms = []
    frac = None
    for kind, node in chain:
        num, den = _eval(node, vars, field)
        if kind == "sub":
            num = -num
        if den is None:
            terms.extend(num.terms)
        elif frac is None:
            frac = num, den
        else:
            frac = frac[0] * den + num * frac[1], frac[1] * den
    poly = MPoly.make(vars, terms)
    if frac is None:
        return poly, None
    return frac[0] + poly * frac[1], frac[1]


def _product(chain, vars, field):
    num = den = None
    for kind, node in chain:
        num2, den2 = _eval(node, vars, field)
        if kind == "div":
            q = _ratfn(num, den, vars, field) / _ratfn(num2, den2, vars, field)
            num, den = q.num, q.den
        else:
            num, den = _times(num, num2), _times(den, den2)
    return num, den


def _times(a, b):
    """a*b where None stands for the constant one."""
    if a is None:
        return b
    return a if b is None else a * b


def expr_to_ratfn(text: str, vars, field: FieldDesc) -> RatFn:
    """Parse and evaluate in one call."""
    return to_ratfn(parse_expr(text), tuple(vars), field)
