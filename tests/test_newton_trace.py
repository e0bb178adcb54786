"""A golden trace of series._newton: what every lift asks of its callbacks.

Each case runs with _newton wrapped, and the wrapper logs one line per
event: the call and its target, the precision and term count of every
point the residual and the Jacobian callbacks are asked about (the
approximant cut at the callback's cut), each invert(d, jet) call the
iteration makes (not those inside a callback), and the steps and roots it
returns or the error it raises.  Errors raised
before the iteration starts end a case's trace too.

The cases are the inputs of the four test_ladder_* tests in
tests/test_invert.py, the lift snapshots of tests/test_golden.py, and
seeded random lifts, unit roots and 2x2 systems over F_2..F_7 and Q, some
with truncated coefficients or starts and some systems with coefficients of
negative valuation.  tests/newton_trace.txt holds one line per case: its
name, its event count and a digest of its trace.  To record it again (only
when a change to the ladder's schedule is intended), run
``PYTHONPATH=src python tests/test_newton_trace.py``.
"""

import hashlib
import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from valuedfields import cli, hensel, series
from valuedfields.errors import ValuedFieldError
from valuedfields.fields import GF, QQ
from valuedfields.groups import ZZ_GROUP, LexGroup, one_over_m
from valuedfields.hensel import SeriesPoly, eval_poly_at_series, hensel_lift, implicit_solve
from valuedfields.polys import mpoly
from valuedfields.series import make_series, one_series, truncate, unit_nth_root, zero_series

from test_golden import CASES

GOLDEN = Path(__file__).parent / "newton_trace.txt"
FIELDS = [GF(2), GF(3), GF(5), GF(7), QQ]
RANDOM_CASES = 300  # of each kind


def _points(a) -> str:
    return " ".join(f"{x.precision}:{len(x.terms)}" for x in a)


class _Tracer:
    """Wraps _newton, and invert while _newton runs outside its callbacks."""

    def __init__(self):
        self.events = []
        self.active = False  # inside _newton and outside its callbacks

    def newton(self, real):
        def traced(residuals, jacobian, start, target):
            self.events.append(f"newton {target} {_points(start)}")

            def callback(name, fn):
                def call(a, at):
                    self.events.append(f"{name} {_points([truncate(x, at) for x in a])}")
                    self.active = False
                    try:
                        return fn(a, at)
                    finally:
                        self.active = True
                return call

            self.active = True
            try:
                roots, steps = real(
                    callback("res", residuals), callback("jac", jacobian), start, target
                )
            except ValuedFieldError as e:
                self.events.append(f"raise {type(e).__name__}: {e}")
                raise
            finally:
                self.active = False
            self.events.append(f"steps {' '.join(map(str, steps))}")
            self.events.append(f"roots {' | '.join(map(str, roots))}")
            return roots, steps
        return traced

    def invert(self, real):
        def traced(d, precision=None):
            if self.active:
                self.events.append(f"invert {d} {precision}")
            return real(d, precision)
        return traced


def _trace(run) -> list[str]:
    """The events of run(), with _newton and invert wrapped while it runs."""
    tracer = _Tracer()
    saved = series._newton, hensel._newton, series.invert
    series._newton = hensel._newton = tracer.newton(saved[0])
    series.invert = tracer.invert(saved[2])
    try:
        run()
    except ValuedFieldError as e:
        tracer.events.append(f"error {type(e).__name__}: {e}")
    finally:
        series._newton, hensel._newton, series.invert = saved
    return tracer.events


# ---------------------------------------------------------------------------
# the test_ladder_* inputs


def _dense(rng, field, low, n):
    return make_series(field, ZZ_GROUP, [(e, rng.randrange(1, field.p)) for e in range(low, n)], n)


def _ladder_cases():
    rng = random.Random(3)
    f5, f2 = GF(5), GF(2)
    linear = SeriesPoly((_dense(rng, f5, 2, 40), _dense(rng, f5, 0, 40)))
    c = _dense(rng, f2, 1, 64)
    zero = make_series(f2, ZZ_GROUP, [], None)
    one2 = make_series(f2, ZZ_GROUP, [(0, 1)])
    quartic = SeriesPoly((c, one2, zero, zero, one2))
    yield "ladder_early_linear", lambda: hensel_lift(linear, None, 40)
    yield "ladder_early_quartic", lambda: hensel_lift(quartic, None, 64)

    f3 = GF(3)
    s3 = lambda *terms: make_series(f3, ZZ_GROUP, list(terms))
    cubic = SeriesPoly((s3((1, -1)), s3((0, -1)), s3(), s3((0, 1))))
    yield "ladder_widens", lambda: hensel_lift(cubic, None, 81)

    one5 = one_series(f5, ZZ_GROUP)
    t5 = make_series(f5, ZZ_GROUP, [(1, 1)])
    g1 = mpoly(("X", "Y"), {(2, 0): one5, (0, 0): -(one5 + t5)})
    g2 = mpoly(("X", "Y"), {(0, 2): one5, (1, 0): -one5, (0, 0): -t5})
    for p in (3, 5):
        start = (one5, make_series(f5, ZZ_GROUP, [(0, 1)], p))
        yield f"ladder_short_start_{p}", lambda start=start: implicit_solve(
            [g1, g2], ("X", "Y"), start, (), 16
        )

    def system(p, f1, f2, start, n):
        field = GF(p)
        s = lambda *terms: make_series(field, ZZ_GROUP, list(terms))
        one = one_series(field, ZZ_GROUP)
        polys = [mpoly(("X", "Y"), {m: s(*c) if c else one for m, c in f.items()})
                 for f in (f1, f2)]
        return lambda: implicit_solve(polys, ("X", "Y"), tuple(s(*x) for x in start), (), n)

    yield "ladder_negative_jacobian", system(
        5, {(1, 0): (), (0, 0): ((1, -1),)},
        {(1, 1): ((-1, 1),), (0, 1): (), (0, 2): (), (0, 0): ((1, -2), (2, -1), (3, -1))},
        (((1, 1),), ((1, 1),)), 32,
    )
    h1 = {(1, 0): (), (0, 2): ((-2, 1),), (0, 0): ((4, -1), (6, -1), (9, -1))}
    h2 = {(0, 1): (), (1, 1): (), (0, 0): ((3, -1), (7, -1), (8, -2))}
    for n in (14, 20):
        yield f"ladder_negative_correction_{n}", system(3, h1, h2, (((4, 1),), ((3, 1),)), n)
    yield "ladder_negative_det", system(
        3, {(1, 0): (), (0, 0): ((4, -1),)},
        {(0, 1): (), (1, 1): ((-3, 1),), (0, 2): (), (0, 0): ((1, -1), (3, -1))},
        (((4, 1),), ()), 16,
    )
    k1 = mpoly(("X", "Y"), {(1, 0): one_series(f3, ZZ_GROUP), (0, 0): s3((4, 2))})
    k2 = mpoly(("X", "Y"), {
        (0, 1): one_series(f3, ZZ_GROUP), (1, 2): s3((-3, 1)), (0, 0): s3((1, 2)),
    })
    yield "ladder_turns_off", lambda: implicit_solve([k1, k2], ("X", "Y"), (s3(), s3()), (), 16)

    # over Z^2 lex no rung reaches a target above every multiple of w
    lex = LexGroup(2)
    lex_one, lex_zero = one_series(f5, lex), zero_series(f5, lex)
    lex_quadratic = SeriesPoly(
        (make_series(f5, lex, [((0, 0), -1), ((0, 1), -1)]), lex_zero, lex_one)
    )
    yield "gap_quadratic", lambda: hensel_lift(lex_quadratic, lex_one, (1, 0))
    lex_linear = SeriesPoly((make_series(f5, lex, [((0, 1), -1), ((1, 0), 2)]), lex_one))
    yield "gap_linear", lambda: hensel_lift(lex_linear, lex_zero, (2, 0))


# ---------------------------------------------------------------------------
# the lift snapshots


def _cli(argv):
    with redirect_stdout(io.StringIO()):
        cli.main(argv)


def _golden_cases():
    for name in sorted(CASES):
        if name.startswith("lift"):
            yield f"golden_{name}", lambda argv=CASES[name]: _cli(argv)


# ---------------------------------------------------------------------------
# seeded random lifts, unit roots and systems


def _coeff(rng, field):
    if field.characteristic:
        return field.elem(rng.randrange(1, field.characteristic))
    return field.elem(Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3])))


def _tail(rng, field, group, den, low, high):
    """Up to four random terms at exponents in [low, high) with denominator den."""
    slots = range(low * den, high * den)
    exps = rng.sample(slots, min(len(slots), rng.randint(0, 4)))
    terms = [(group.elem(Fraction(e, den)), _coeff(rng, field)) for e in exps]
    return make_series(field, group, terms)


def _ring(rng):
    field = rng.choice(FIELDS)
    den = rng.choice([1, 1, 1, 2])
    return field, (ZZ_GROUP if den == 1 else one_over_m(2)), den


def _random_lift(rng):
    field, group, den = _ring(rng)
    target = group.elem(Fraction(rng.randint(1, 24 * den), den))
    deg = rng.randint(1, 4)
    r = _coeff(rng, field) if rng.random() < 0.8 else field.zero()
    q = [_coeff(rng, field) if rng.random() < 0.8 else field.zero() for _ in range(deg + 1)]
    q[-1] = _coeff(rng, field)
    q[0] = q[0] - sum((c * r ** i for i, c in enumerate(q)), field.zero())
    coeffs = []
    for c in q:
        tail = _tail(rng, field, group, den, 1, 12)
        x = tail + make_series(field, group, [(0, c)])
        if rng.random() < 0.2:
            x = truncate(x, target + group.elem(rng.randint(0, 3)))
        coeffs.append(x)
    start = None
    if rng.random() < 0.5:
        start = make_series(field, group, [(0, r)]) + _tail(rng, field, group, den, 1, 6)
        if rng.random() < 0.3:
            start = truncate(start, target + group.elem(rng.randint(0, 2)))
    return lambda: hensel_lift(SeriesPoly(tuple(coeffs)), start, target)


def _random_unit_root(rng):
    field, group, den = _ring(rng)
    u = one_series(field, group) + _tail(rng, field, group, den, 1, 10) + make_series(
        field, group, [(group.elem(Fraction(rng.randint(1, 4 * den), den)), _coeff(rng, field))]
    )
    if rng.random() < 0.3:
        u = truncate(u, group.elem(rng.randint(2, 20)))
    p = field.characteristic
    n = rng.choice([k for k in range(2, 8) if not p or k % p] + [1])
    precision = rng.choice([None, rng.randint(1, 30), rng.randint(1, 30)])
    return lambda: unit_nth_root(u, n, precision)


def _random_system(rng):
    field, group, den = _ring(rng)
    names = ("X", "Y")
    target = rng.randint(2, 24)
    # start coordinates of valuation m[j]; a coefficient t^(-k) goes only on a
    # monomial whose partials keep valuation >= 0 there, so that det J(start)
    # has valuation >= 0
    m = [rng.randint(0, 2), rng.randint(1, 3)]
    start = [
        make_series(field, group, [(mj, _coeff(rng, field))])
        + _tail(rng, field, group, den, mj + 1, mj + 5)
        for mj in m
    ]
    while True:
        lin = [[_coeff(rng, field).times_int(rng.randint(0, 1)) for _ in "XY"] for _ in "XY"]
        if not (lin[0][0] * lin[1][1] - lin[0][1] * lin[1][0]).is_zero():
            break
    polys = []
    for i in range(2):
        terms = {}
        for j, e in enumerate(((1, 0), (0, 1))):
            terms[e] = make_series(field, group, [(0, lin[i][j])])
            terms[e] += _tail(rng, field, group, den, 1, 6)
        for e in rng.sample([(2, 0), (1, 1), (0, 2), (2, 1), (0, 3), (1, 2)], rng.randint(0, 3)):
            room = m[0] * e[0] + m[1] * e[1] - max(mj for mj, ej in zip(m, e) if ej)
            low = -rng.randint(1, room) if room > 0 and rng.random() < 0.5 else rng.randint(0, 1)
            terms[e] = _tail(rng, field, group, den, low, low + 5) + make_series(
                field, group, [(low, _coeff(rng, field))]
            )
        h = mpoly(names, terms)
        at_start = eval_poly_at_series(h, dict(zip(names, start)), field, group)
        terms[(0, 0)] = _tail(rng, field, group, den, 1, 8) - at_start
        polys.append(mpoly(names, {
            e: truncate(c, group.elem(rng.randint(2, target + 2))) if rng.random() < 0.15 else c
            for e, c in terms.items()
        }))
    start = [
        truncate(x, group.elem(rng.randint(2, target + 2))) if rng.random() < 0.25 else x
        for x in start
    ]
    return lambda: implicit_solve(polys, names, tuple(start), (), target)


def _random_cases():
    rng = random.Random(2028)
    for kind, make in (("lift", _random_lift), ("root", _random_unit_root),
                       ("system", _random_system)):
        for i in range(RANDOM_CASES):
            yield f"random_{kind}_{i}", make(rng)


def _cases():
    yield from _ladder_cases()
    yield from _golden_cases()
    yield from _random_cases()


def _record() -> str:
    lines = []
    for name, run in _cases():
        events = _trace(run)
        digest = hashlib.sha256("\n".join(events).encode()).hexdigest()[:16]
        lines.append(f"{name} {len(events)} {digest}\n")
    return "".join(lines)


def test_newton_trace_matches_the_golden():
    assert _record() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(_record(), encoding="utf-8")
