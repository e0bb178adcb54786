"""Seeded inputs, operations and result checks of the three workloads.

An operation is one user-level call: a command-line run through
``cli.main`` or one ``place_value`` + ``place_residue`` pair.  Inputs come
only from the seed; the library sees nothing else.  Every operation knows
how to check its own output against the reference code in ``oracles``.

The library is reached through module attributes (``cli.main``,
``places.place_value``) at call time, so the tracer's wrappers are seen.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from valuedfields import cli, fields, groups, places, polys, series

import oracles

# (p, degree, precision, X-coefficient is rational).  Every pass runs each
# shape once, so a pass costs about the same for every seed.
LIFT_SHAPES = (
    (3, 2, 32, False),
    (3, 4, 32, True),
    (5, 3, 32, True),
    (5, 2, 32, False),
    (7, 3, 32, False),
    (7, 4, 32, False),
)
LIFT_WARMUP_PRECISION = 8

PLACE_KINDS = ("quad", "lex", "eval7", "cusp", "compose")
PLACES_PER_KIND = 400

# Heavier parameters than the defaults, with the claim count each must
# report.  G8 keeps its default --seed 0: with some other seeds (457, for
# one) a sampled value is undecided at k_max = 64, and the claim honestly
# fails as indeterminate.
GALLERY = (
    (("G1", "--p", "5"), 3),
    (("G2", "--k-max", "5"), 15),
    (("G3", "--p", "5", "--k-max", "8"), 3),
    (("G4", "--k-max", "4"), 12),
    (("G5", "--k-max", "6"), 12),
    (("G6", "--k-max", "5"), 3),
    (("G7", "--k-max", "12"), 26),
    (("G8", "--k-max", "64"), 5),
    (("G9", "--p", "11"), 7),
)
AS_PRECISION = 32


class Workload:
    def __init__(self, name, ops, warmup):
        self.name = name
        self.ops = ops  # one pass, in order
        self.warmup = warmup  # untimed, run once during set-up


def build(name, seed):
    rng = random.Random(f"{name}:{seed}")
    if name == "lift-deep":
        return _lift_deep(rng)
    if name == "places-eval":
        return _places_eval(rng)
    if name == "gallery":
        return _gallery(rng)
    raise ValueError(f"unknown workload {name!r}")


def cli_call(argv):
    """(exit code, stdout, stderr) of one in-process command-line run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _cli_json(result):
    """Parsed stdout of a successful run, or a failure reason string."""
    rc, out, err = result
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    return json.loads(out)


def _poly_text(cs):
    return "+".join(f"{c}*t^{i}" for i, c in enumerate(cs) if c) or "0"


# ---------------------------------------------------------------------------
# lift-deep


class LiftOp:
    """valuedfields lift --json over F_p at precision n; coeffs are
    (numerator, denominator or None) dense coefficient lists in t."""

    def __init__(self, p, n, coeffs):
        self.p, self.n, self.coeffs = p, n, coeffs
        texts = [
            _poly_text(num) if den is None else f"({_poly_text(num)})/({_poly_text(den)})"
            for num, den in coeffs
        ]
        self.argv = ["lift", "--p", str(p), "--precision", str(n), "--json", "--", *texts]
        self.label = f"lift p={p} deg={len(coeffs) - 1} N={n}"

    def run(self):
        return cli_call(self.argv)

    def check(self, result):
        blob = _cli_json(result)
        if isinstance(blob, str):
            return blob
        return oracles.check_series_root(self.coeffs, blob["result"], self.p, self.n)

    def truncated(self, n):
        return LiftOp(self.p, n, [(num[:n], den) for num, den in self.coeffs])


def _eval_low(pairs, a0, a1, p):
    """t^0 and t^1 coefficients of sum c_i X^i at X = a0 + a1 t."""
    c0 = sum(c[0] * pow(a0, i, p) for i, c in enumerate(pairs)) % p
    c1 = sum(
        c[1] * pow(a0, i, p) + (c[0] * i * pow(a0, i - 1, p) * a1 if i else 0)
        for i, c in enumerate(pairs)
    ) % p
    return c0, c1


def _lift_instance(rng, p, d, n, rational):
    """f = (X - a) g with a dense root a and a dense g of degree d - 1, so
    the lifted root has exactly n terms.  Its residue r is the least simple
    root of the residue polynomial, f''(r) is a unit, and f' at r and at
    r + a_1 t has a nonzero t coefficient.  The Newton error a_k - a is then
    (f''(a) / 2f'(a)) (a_(k-1) - a)^2 to leading order, so the residual
    valuations are exactly 1, 2, 4, ..., and every inversion needs the same
    number of terms: a pass costs about the same for every seed."""
    while True:
        r = rng.randrange(p)
        g0 = [rng.randrange(p) for _ in range(d - 1)] + [rng.randrange(1, p)]
        g_at = [sum(c * pow(s, i, p) for i, c in enumerate(g0)) % p for s in range(r + 1)]
        if not all(g_at):
            continue  # r must be simple and no smaller element a root
        root = [r] + [rng.randrange(1, p) for _ in range(n - 1)]
        g = [[c] + [rng.randrange(1, p) for _ in range(n - 1)] for c in g0]
        f = [[0] * n for _ in range(d + 1)]
        for i, gi in enumerate(g):  # f_(i+1) += g_i, f_i -= a g_i
            f[i + 1] = oracles.add_trunc(f[i + 1], gi, p, n)
            f[i] = oracles.add_trunc(f[i], [-x for x in oracles.mul_trunc(root, gi, p, n)], p, n)
        pairs = [(c[0], c[1]) for c in f]
        if not sum(i * (i - 1) * c0 * pow(r, i - 2, p) for i, (c0, _) in enumerate(pairs) if i > 1) % p:
            continue  # f''(r) must be a unit
        deriv = [(i * c0 % p, i * c1 % p) for i, (c0, c1) in enumerate(pairs)][1:]
        if not (_eval_low(deriv, r, 0, p)[1] and _eval_low(deriv, r, root[1], p)[1]):
            continue
        dens = [None] * (d + 1)
        if rational:  # give the X coefficient as (f_1 * den) / den
            dens[1] = [1, rng.randrange(1, p), rng.randrange(1, p)]
            f[1] = oracles.mul_trunc(f[1], dens[1], p, n)
        return LiftOp(p, n, list(zip(f, dens)))


def _lift_deep(rng):
    ops = [_lift_instance(rng, *shape) for shape in LIFT_SHAPES]
    return Workload("lift-deep", ops, [op.truncated(LIFT_WARMUP_PRECISION) for op in ops])


# ---------------------------------------------------------------------------
# gallery


class GalleryOp:
    def __init__(self, args, claims):
        self.argv = ["gallery", *args, "--json"]
        self.claims = claims
        self.label = " ".join(args)

    def run(self):
        return cli_call(self.argv)

    def check(self, result):
        blob = _cli_json(result)
        if isinstance(blob, str):
            return blob
        if len(blob["claims"]) != self.claims:
            return f"{len(blob['claims'])} claims, want {self.claims}"
        bad = [c["description"] for c in blob["claims"] if not c["exact_match"]]
        return f"claims failed: {bad}" if bad else None


class AsOp:
    """valuedfields as --json on c, a Laurent polynomial {exponent: coeff}
    over F_p, whose case the generator chose."""

    def __init__(self, p, c, case):
        self.p, self.c, self.case = p, c, case
        low = min(c)
        num = _poly_text([c.get(e + low, 0) for e in range(max(c) - low + 1)])
        text = f"({num})/t^{-low}" if low < 0 else _poly_text([c.get(e, 0) for e in range(max(c) + 1)])
        self.argv = ["as", "--p", str(p), "--precision", str(AS_PRECISION), "--json", text]
        self.label = f"as {case} p={p}"

    def run(self):
        return cli_call(self.argv)

    def check(self, result):
        blob = _cli_json(result)
        if isinstance(blob, str):
            return blob
        if blob["case"] != self.case:
            return f"case {blob['case']}, want {self.case}"
        out, p, v = blob["outcome"], self.p, min(self.c)
        if self.case == "PositiveValue":
            poly = [([-self.c.get(e, 0) % p for e in range(AS_PRECISION)], None), ([p - 1], None)]
            poly += [([0], None)] * (p - 2) + [([1], None)]
            if len(out["roots"]) != p:
                return f"{len(out['roots'])} roots, want {p}"
            for root in out["roots"]:
                why = oracles.check_series_root(poly, root, p, AS_PRECISION)
                if why:
                    return why
            return None
        if self.case == "ZeroValue":
            # over F_p the trace of the residue is the residue itself
            want = {"variant": "NoResidueRoot", "trace": str(self.c[0] % p)}
            return None if out == want else f"outcome {out}, want {want}"
        if self.case == "NegativeRamified":
            want = str(Fraction(v, p))
            return None if out["root_value"] == want else f"root value {out['root_value']}, want {want}"
        return oracles.check_surgery(self.c, out, p)


def _laurent(rng, p, low, n):
    """Dense Laurent polynomial with exponents low..low+n-1, nonzero lead."""
    c = {low: rng.randrange(1, p)}
    c.update({low + i: rng.randrange(p) for i in range(1, n)})
    return {e: x for e, x in c.items() if x}


def _gallery(rng):
    ops = [GalleryOp(args, claims) for args, claims in GALLERY]
    ops += [
        AsOp(3, _laurent(rng, 3, 1, AS_PRECISION - 1), "PositiveValue"),
        AsOp(5, _laurent(rng, 5, 0, 16), "ZeroValue"),
        AsOp(3, _laurent(rng, 3, -rng.choice((1, 2, 4, 5, 7, 8)), 16), "NegativeRamified"),
        AsOp(5, _laurent(rng, 5, -5 * rng.randrange(1, 3), 16), "NegativeUnramified"),
    ]
    return Workload("gallery", ops, list(ops))


# ---------------------------------------------------------------------------
# places-eval


QQ = fields.QQ
F7 = fields.GF(7)


def _mpoly(names, terms, field):
    return polys.mpoly(names, {e: field.elem(c) for e, c in terms.items()})


def _plain_value(v):
    """Value as plain data: None for +oo, else the group element's data."""
    if not v.is_exact:
        if str(v) == "oo":
            return None
        raise ValueError(f"value not exact: {v}")
    return v.value.data


def _plain_residue(r):
    if r is places.ZERO:
        return "ZERO"
    if r is series.POLE:
        return "POLE"
    if isinstance(r, polys.MPoly):
        return {e[0]: c.data for e, c in r.terms}
    if isinstance(r.data, tuple):  # an F_p element
        return r.data[0]
    return r.data


class PlaceOp:
    def __init__(self, kind, place, names, num, den, field, expect):
        self.place = place
        self.f = polys.RatFn.make(_mpoly(names, num, field), _mpoly(names, den, field))
        self.expect = expect  # () -> (value, residue) in plain form
        self.expected = None
        self.label = f"{kind} place: ({num})/({den})"

    def run(self):
        return places.place_value(self.place, self.f), places.place_residue(self.place, self.f)

    def check(self, result):
        if self.expected is None:
            self.expected = self.expect()
        v, r = result
        got_v, got_r = _plain_value(v), _plain_residue(r)
        if isinstance(self.expected[1], dict) and not isinstance(got_r, (dict, str)):
            got_r = {0: got_r}  # a residue constant in w comes back as a field element
        got = (got_v, got_r)
        return None if got == self.expected else f"got {got}, want {self.expected}"


def _rand_terms(rng, nvars, count, max_exp, p=None):
    """count distinct monomials with nonzero coefficients (mod p if given)."""
    out = {}
    while len(out) < count:
        e = tuple(rng.randrange(max_exp + 1) for _ in range(nvars))
        out[e] = rng.randrange(1, p) if p else rng.choice((-1, 1)) * rng.randrange(1, 10)
    return out


def _places_eval(rng):
    quad = groups.QuadGroup()
    lex2 = groups.LexGroup(2)
    half = groups.one_over_m(2)
    zz = groups.ZZ_GROUP
    point = (rng.randrange(1, 7), rng.randrange(1, 7))
    kinds = {
        "quad": places.MonomialPlace(
            QQ, quad, (("x", quad.elem((1, 0))), ("y", quad.elem((0, 1)))),
        ),
        "lex": places.MonomialPlace(
            QQ, lex2, (("x", lex2.elem((1, 0))), ("y", lex2.elem((0, 1)))), (("z", "w"),),
        ),
        "eval7": places.EvalPlace(F7, (("x", F7.elem(point[0])), ("y", F7.elem(point[1])))),
        "cusp": places.SeriesEmbedPlace(
            QQ, half,
            (("x", series.t_pow(QQ, half, 1)), ("y", series.t_pow(QQ, half, Fraction(3, 2)))),
        ),
        "compose": places.compose(
            places.MonomialPlace(QQ, zz, (("x", zz.elem(1)),), (("y", "z"),)),
            places.MonomialPlace(QQ, zz, (("z", zz.elem(1)),)),
        ),
    }
    ops = []
    for i in range(PLACES_PER_KIND):
        for kind in PLACE_KINDS:
            ops.append(_place_op(rng, kind, kinds[kind], point))
    warmup = [_place_op(rng, kind, kinds[kind], point) for kind in PLACE_KINDS]
    return Workload("places-eval", ops, warmup)


def _place_op(rng, kind, place, point):
    xy = ("x", "y")
    if kind == "quad":
        num = _rand_terms(rng, 2, rng.randint(1, 4), 4)
        den = _with_lead(rng, num, _rand_terms(rng, 2, rng.randint(1, 3), 4), oracles.quad_rank)
        expect = lambda: oracles.monomial_expect(
            num, den, lambda e: e, oracles.quad_rank, lambda v: oracles.quad_sign(*v)
        )
        return PlaceOp(kind, place, xy, num, den, QQ, expect)
    if kind == "compose":
        num = _rand_terms(rng, 2, rng.randint(1, 4), 4)
        den = _with_lead(rng, num, _rand_terms(rng, 2, rng.randint(1, 3), 4), _ident)
        expect = lambda: oracles.monomial_expect(num, den, _ident, _ident, oracles.lex_sign)
        return PlaceOp(kind, place, xy, num, den, QQ, expect)
    if kind == "lex":
        num = _rand_terms(rng, 3, rng.randint(1, 4), 3)
        den = _rand_terms(rng, 2, rng.randint(1, 3), 3)
        den = _with_lead(rng, {e[:2]: c for e, c in num.items()}, den, _ident)
        den = {e + (0,): c for e, c in den.items()}
        expect = lambda: oracles.lex_residue_expect(num, den)
        return PlaceOp(kind, place, ("x", "y", "z"), num, den, QQ, expect)
    if kind == "eval7":
        num = _rand_terms(rng, 2, rng.randint(1, 4), 3, 7)
        if rng.random() < 0.5:  # make num vanish at the point
            num = _times_linear(num, rng.randrange(2), point, 7)
        while True:
            den = _rand_terms(rng, 2, rng.randint(1, 3), 3, 7)
            if sum(c * point[0] ** a * point[1] ** b for (a, b), c in den.items()) % 7:
                break
        expect = lambda: oracles.eval_expect(num, den, point, 7)
        return PlaceOp(kind, place, xy, num, den, F7, expect)
    # cusp: weights 2a + 3b collide (x^3 and y^2), so sums may cancel
    num = _rand_terms(rng, 2, rng.randint(1, 4), 4)
    if rng.random() < 0.25:
        c = rng.randrange(1, 10)
        num[(3, 0)] = num.get((3, 0), 0) + c
        num[(0, 2)] = num.get((0, 2), 0) - c
        num = {e: x for e, x in num.items() if x} or {(1, 0): 1}
    while True:
        den = _with_lead(rng, num, _rand_terms(rng, 2, rng.randint(1, 3), 4), _cusp_weight)
        if oracles.cancelling_lead(den) is not None:
            break
    return PlaceOp(kind, place, xy, num, den, QQ, lambda: oracles.cusp_expect(num, den))


def _ident(e):
    return e


def _cusp_weight(e):
    return 2 * e[0] + 3 * e[1]


def _with_lead(rng, num, den, rank):
    """With probability 1/2, make the least monomial of num under rank also
    the least of den, so that the value is often 0 and the residue a ratio
    of leading coefficients."""
    if rng.random() >= 0.5:
        return den
    lead = min(num, key=rank)
    out = {e: c for e, c in den.items() if rank(lead) < rank(e)}
    out[lead] = rng.choice((-1, 1)) * rng.randrange(1, 10)
    return out


def _times_linear(terms, var, point, p):
    """terms * (x - a) or terms * (y - b), mod p."""
    out = {}
    for e, c in terms.items():
        up = (e[0] + 1, e[1]) if var == 0 else (e[0], e[1] + 1)
        out[up] = (out.get(up, 0) + c) % p
        out[e] = (out.get(e, 0) - c * point[var]) % p
    return {e: c for e, c in out.items() if c}
