"""Expression grammar for the command line.

Recognized language, with no implicit multiplication:

    expr     :=  term (('+' | '-') term)*
    term     :=  factor (('*' | '/') factor)*
    factor   :=  ('-' | '+') factor | atom ('^' exponent)?
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
Reading costs one regex scan of the text, which yields the token strings,
and constant Python work per token; the position of a token in the text is
recomputed only for an error that is raised.  expr_to_ratfn evaluates to
rational functions; its cost model:

* a monomial (an integer, a name, a product or negation of monomials, or a
  monomial to a power k >= 0 other than 0^0) is one (exponents,
  coefficient) term, built with O(1) work per factor and no MPoly;
* a sum merges all its summands in one MPoly.make;
* a value stays a polynomial until it meets a division or a negative
  power, and only then does RatFn arithmetic run; a polynomial divided by
  a polynomial is just the pair of the two.

A dense coefficient therefore costs time linear in its length.
"""

import re
from operator import add

from .errors import ExprError
from .fields import FieldDesc
from .polys import MPoly, RatFn, const_poly

# the tokens in reading order: an integer, a name or an operator; white space
# is skipped, and a character outside the grammar starts a last token that
# runs to the end of the text, so one look at the last token finds it
_TOKEN = re.compile(r"[0-9]+|[a-z][a-z0-9]*|[-+*/^()]|[^-+*/^()0-9a-z\s].*", re.DOTALL)
_FIRST = frozenset("0123456789abcdefghijklmnopqrstuvwxyz-+*/^()")

# the token after the last one; white space is never a token
_END = " "

# how deep parentheses and unary signs may nest; each level costs the
# recursive parser a few stack frames, so this stays well inside Python's
# recursion limit
_MAX_NESTING = 100


class _Parser:
    """Reads the token strings of one text with one index; each rule returns
    the value of what it read, built by the evaluator ev as the rule reads
    it.  A token's kind is its first character; its position in the text is
    found again only for an error message."""

    def __init__(self, text: str, tokens: list[str], ev):
        self.text = text
        self.tokens = tokens
        self.ev = ev
        self.i = 0
        self.depth = 0

    def pos(self, i: int) -> int:
        """Where the i-th token starts in the text."""
        for k, m in enumerate(_TOKEN.finditer(self.text)):
            if k == i:
                return m.start()
        return len(self.text)

    def nest(self, i: int):
        """Enter one level of nesting at the i-th token; close leaves a
        parenthesis, and a sign leaves by decrementing depth."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            pos = self.pos(i)
            raise ExprError(f"nesting deeper than {_MAX_NESTING} levels at position {pos}")

    def close(self):
        i = self.i
        if self.tokens[i] != ")":
            raise ExprError(f"expected ')' at position {self.pos(i)}")
        self.i = i + 1
        self.depth -= 1

    def integer(self, i: int) -> int:
        t = self.tokens[i]
        try:  # CPython converts at most 4300 digits by default
            return int(t)
        except ValueError:
            pos = self.pos(i)
            raise ExprError(f"{len(t)}-digit integer at position {pos} is too long") from None

    # grammar rules, one method each

    def expr(self):
        """A single term as it is; the summands of a sum, subtracted ones
        negated, go to ev.sum at once, in reading order."""
        tokens, term, neg = self.tokens, self.term, self.ev.neg
        summands = [term()]
        op = tokens[self.i]
        while op == "+" or op == "-":
            self.i += 1
            value = term()
            summands.append(value if op == "+" else neg(value))
            op = tokens[self.i]
        return summands[0] if len(summands) == 1 else self.ev.sum(summands)

    def term(self):
        """Each factor is folded in as soon as it is read."""
        tokens, factor, product = self.tokens, self.factor, self.ev.product
        value = factor()
        op = tokens[self.i]
        while op == "*" or op == "/":
            self.i += 1
            value = product(value, op, factor())
            op = tokens[self.i]
        return value

    def factor(self):
        i = self.i
        t = self.tokens[i]
        self.i = i + 1
        c = t[0]
        if "0" <= c <= "9":
            value = self.ev.int(self.integer(i))
        elif "a" <= c <= "z":
            value = self.ev.var(t)
        elif t == "(":
            self.nest(i)
            value = self.expr()
            self.close()
        elif t == "-" or t == "+":
            self.nest(i)
            value = self.factor()
            self.depth -= 1
            return value if t == "+" else self.ev.neg(value)
        else:
            raise ExprError(f"expected a value at position {self.pos(i)}")
        if self.tokens[self.i] == "^":
            self.i += 1
            return self.ev.power(value, self.exponent())
        return value

    def exponent(self) -> int:
        i = self.i
        t = self.tokens[i]
        if t == "(":
            self.i = i + 1
            self.nest(i)
            k = self.exponent()
            self.close()
            return k
        negate = t == "-"
        if negate:
            i += 1
            t = self.tokens[i]
        if not "0" <= t[0] <= "9":
            raise ExprError(f"exponent must be an integer at position {self.pos(i)}")
        self.i = i + 1
        k = self.integer(i)
        return -k if negate else k


def evaluate(text: str, ev):
    """The value of text, built by the evaluator ev while the text is read.

    ev provides int(k), var(name), neg(a), power(a, k) for an integer k,
    product(a, op, b) for op '*' or '/', and sum(values) for the summands
    of a sum in reading order, subtracted ones already negated.  The whole
    text is scanned first; after that, the first error in reading order
    is raised, whether a syntax error or one of ev's, and trailing input is
    rejected once the expression is read."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ExprError("empty expression")
    last = tokens[-1]
    if last[0] not in _FIRST:
        raise ExprError(f"unexpected character {last[0]!r} at position {len(text) - len(last)}")
    tokens.append(_END)
    p = _Parser(text, tokens, ev)
    value = p.expr()
    t = tokens[p.i]
    if t != _END:
        raise ExprError(f"unexpected {t!r} at position {p.pos(p.i)}")
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
        RatFns.  A polynomial divided by a nonzero polynomial is the pair
        of the two, with no RatFn built."""
        (num, den), (num2, den2) = value, factor
        if op == "/":
            if den is None and den2 is None:
                num2 = self.poly(num2)
                if num2.is_zero():
                    raise ZeroDivisionError("division by the zero rational function")
                return self.poly(num), num2
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
