"""Reference checks that share no code with the library.

Every check works on plain Python integers and Fractions: dense mod-p
polynomials in t for series roots, weighted minima with integer exact-sign
tests for monomial and series-embedding places, and a direct mod-p Taylor
expansion for evaluation places.  A check returns None when the output is
right and a one-line reason when it is not.
"""

from fractions import Fraction
from math import comb


# ---------------------------------------------------------------------------
# dense mod-p series arithmetic, truncated at t^n


def mul_trunc(a, b, p, n):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return [c % p for c in out]


def add_trunc(a, b, p, n):
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return [(x + y) % p for x, y in zip(a[:n], b[:n])]


def clear_denominators(coeffs, p, n):
    """Coefficients (num, den or None) of f, each scaled by the product of
    all denominators.  Every denominator has a unit constant term, so the
    scaled polynomial has the same roots modulo t^n."""
    dens = [den for _, den in coeffs if den is not None]
    out = []
    for num, den in coeffs:
        acc = num
        for other in dens:
            if other is not den:
                acc = mul_trunc(acc, other, p, n)
        out.append(acc)
    return out


def residual_mod(coeffs, root, p, n):
    """Dense f(root) modulo t^n, f given by clear_denominators' output."""
    acc = list(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = add_trunc(mul_trunc(acc, root, p, n), c, p, n)
    return acc


def series_json_to_dense(blob, p, n):
    """A series_to_json dict over F_p with integer exponents in [0, n)."""
    dense = [0] * n
    for e_text, c_text in blob["terms"]:
        e = Fraction(e_text)
        if e.denominator != 1 or not 0 <= e < n:
            raise ValueError(f"exponent {e_text} outside 0..{n - 1}")
        dense[int(e)] = int(c_text) % p
    return dense


def check_series_root(coeffs, blob, p, n):
    """The root in blob must be known to O(t^n) and make f vanish mod t^n."""
    if blob["precision"] != str(n):
        return f"root precision {blob['precision']}, want {n}"
    try:
        root = series_json_to_dense(blob, p, n)
    except ValueError as exc:
        return str(exc)
    if any(residual_mod(clear_denominators(coeffs, p, n), root, p, n)):
        return f"f(root) does not vanish mod t^{n}"
    return None


# ---------------------------------------------------------------------------
# Laurent polynomials over F_p as {exponent: coefficient} dicts


def laurent_from_json(blob, p):
    out = {}
    for e_text, c_text in blob["terms"]:
        e = Fraction(e_text)
        if e.denominator != 1:
            raise ValueError(f"non-integer exponent {e_text}")
        out[int(e)] = int(c_text) % p
    return out


def as_case(c, p):
    """Case of X^p - X = c from the valuation of the Laurent polynomial c."""
    if not c:
        return "PositiveValue"
    v = min(c)
    if v > 0:
        return "PositiveValue"
    if v == 0:
        return "ZeroValue"
    return "NegativeUnramified" if v % p == 0 else "NegativeRamified"


def check_surgery(c, blob, p):
    """c = B^p - B + residual for the reported partial B and residual.  Over
    F_p, B^p is B with every exponent multiplied by p."""
    try:
        partial = laurent_from_json(blob["partial"], p)
        residual = laurent_from_json(blob["residual"], p)
    except ValueError as exc:
        return str(exc)
    prec = blob["residual"]["precision"]
    bound = None if prec is None else Fraction(prec)
    rebuilt = {}
    for sign, poly in ((1, {p * e: b for e, b in partial.items()}), (-1, partial), (1, residual)):
        for e, x in poly.items():
            rebuilt[e] = (rebuilt.get(e, 0) + sign * x) % p
    want = {e: x % p for e, x in c.items()}
    for e in set(rebuilt) | set(want):
        if (bound is None or e < bound) and rebuilt.get(e, 0) != want.get(e, 0):
            return f"c differs from B^p - B + residual at t^{e}"
    if blob["variant"] == "NormalForm" and blob["case"] != as_case(residual, p):
        return f"normal form case {blob['case']}, residual says {as_case(residual, p)}"
    return None


# ---------------------------------------------------------------------------
# places: values as exact weighted minima


def quad_sign(a, b):
    """Sign of a + b*sqrt(2) for integers a, b, by integer tests only."""
    if a >= 0 and b >= 0:
        return int(a > 0 or b > 0)
    if a <= 0 and b <= 0:
        return -1
    # mixed signs: a*a - 2*b*b is never 0 because sqrt(2) is irrational
    d = a * a - 2 * b * b
    return (1 if d > 0 else -1) * (1 if a > 0 else -1)


def _lead(terms, rank):
    """The monomial of least rank; each place below gives distinct monomials
    distinct ranks, so it is unique."""
    return min(terms, key=rank)


def monomial_expect(num, den, value, rank, sign):
    """(value, residue) at a monomial place whose monomial values are
    distinct: value maps exponents to a value tuple, rank orders them, sign
    is the sign of a value difference.  Residue is 'ZERO', 'POLE', or the
    Fraction ratio of the leading coefficients."""
    en, ed = _lead(num, rank), _lead(den, rank)
    v = tuple(x - y for x, y in zip(value(en), value(ed)))
    s = sign(v)
    if s:
        return v, "ZERO" if s > 0 else "POLE"
    return v, Fraction(num[en], den[ed])


def quad_rank(exps):
    """Sort key realizing the order of a + b*sqrt(2) by exact sign tests."""
    return _QuadKey(exps)


class _QuadKey:
    __slots__ = ("a", "b")

    def __init__(self, exps):
        self.a, self.b = exps

    def __lt__(self, other):
        return quad_sign(self.a - other.a, self.b - other.b) < 0


def lex_sign(v):
    return next(((x > 0) - (x < 0) for x in v if x), 0)


def lex_residue_expect(num, den):
    """Lex place x -> (1,0), y -> (0,1) with z a residue indeterminate w, on
    num in (x, y, z) and den in (x, y): value and residue, the residue a
    {w-exponent: Fraction} dict at value (0,0)."""
    vn = min(e[:2] for e in num)
    ed = _lead(den, lambda e: e[:2])
    v = (vn[0] - ed[0], vn[1] - ed[1])
    s = lex_sign(v)
    if s:
        return v, "ZERO" if s > 0 else "POLE"
    return v, {e[2]: Fraction(c, den[ed]) for e, c in num.items() if e[:2] == vn}


def cusp_expect(num, den):
    """x -> t, y -> t^(3/2): weights 2a + 3b in halves may collide and
    cancel, so the value is the least weight with a nonzero coefficient sum.
    Returns (None, 'ZERO') when num maps to 0."""
    lead_n, lead_d = cancelling_lead(num), cancelling_lead(den)
    if lead_n is None:
        return None, "ZERO"
    v = Fraction(lead_n[0] - lead_d[0], 2)
    if v:
        return v, "ZERO" if v > 0 else "POLE"
    return v, lead_n[1] / lead_d[1]


def cancelling_lead(terms):
    """(least weight 2a + 3b with a nonzero coefficient sum, that sum), or
    None when every weight class cancels."""
    sums = {}
    for (a, b), c in terms.items():
        sums[2 * a + 3 * b] = sums.get(2 * a + 3 * b, 0) + c
    live = sorted(w for w, s in sums.items() if s)
    return (live[0], Fraction(sums[live[0]])) if live else None


def eval_expect(num, den, point, p):
    """Evaluation at a point mod p where den does not vanish: the value is
    num's least shifted monomial (i, j); the residue is num/den at the
    point when the value is (0, 0)."""
    v, c = shifted_lex_lead(num, point, p)
    if v != (0, 0):
        return v, "ZERO"
    return v, c * pow(shifted_lex_lead(den, point, p)[1], -1, p) % p


def shifted_lex_lead(terms, point, p):
    """Least (i, j) in lex order with a nonzero coefficient of u^i w^j in
    f(a + u, b + w) mod p, and that coefficient."""
    a, b = point
    out = {}
    for (ex, ey), c in terms.items():
        for i in range(ex + 1):
            ci = c * comb(ex, i) * pow(a, ex - i, p)
            for j in range(ey + 1):
                key = (i, j)
                out[key] = (out.get(key, 0) + ci * comb(ey, j) * pow(b, ey - j, p)) % p
    live = sorted(k for k, c in out.items() if c)
    return live[0], out[live[0]]
