"""Command line front end.

Commands:
  eval     value and residue of an expression at a place stored as JSON
  lift     power-series root of a univariate polynomial over F_p((t))
  as       classify and analyze a degree-p additive equation X^p - X = c
  perron   positive basis expressing positive targets with coords >= 0
  gallery  run named scenarios (all of them when none are named)
  list     catalog of scenarios with parameter schemas

Shared flags: --json switches to machine output; gallery forwards --p /
--k-max / --precision / --seed to its scenarios as parameters.  Every
printed quantity is exact; no floating point appears anywhere.  Exit codes:
0 success, 1 at least one gallery claim failed, 2 usage or computation
error (one structured message on stderr).
"""

import argparse
import functools
import json
import sys

from .artinschreier import analyze, poly_to_series
from .errors import GroupLawError, ParamError, ValuedFieldError
from .expr import expr_to_ratfn
from .fields import GF
from .gallery import (
    SCENARIO_NAMES,
    Report,
    list_scenarios,
    make_scenario,
    report_to_json,
    run_scenario,
)
from .groups import LexGroup, QuadGroup, ZZ_GROUP, parse_elem, perron_basis
from .hensel import SeriesPoly, hensel_lift
from .places import ZERO, _group_from_json, base_field, place_from_json, place_value_residue, place_vars
from .series import invert, mul_series, render_series, valuation, zero_series


# ---------------------------------------------------------------------------
# shared rendering


def render_report(r: Report, mode: str = "text") -> str:
    """Text: aligned claim list with check marks, ramification rows, verdict.
    JSON: the report dictionary, keys sorted.  Text output never includes
    the elapsed time, so identical runs render identically."""
    if mode == "json":
        return json.dumps(report_to_json(r), indent=2, sort_keys=True)
    params = ", ".join(f"{k}={_param_text(v)}" for k, v in r.params)
    lines = [f"scenario: {r.scenario} ({params})"]
    for c in r.claims:
        mark = "✓" if c.exact_match else "✗"
        lines.append(f"  {mark} {c.description}")
        lines.append(f"      lhs: {c.lhs}")
        lines.append(f"      rhs: {c.rhs}")
    if r.ramification_data is not None:
        lines.append("ramification (n = d*e*f):")
        for row in r.ramification_data:
            lines.append(
                f"  {row.level}: n={row.n}, e={row.e}, f={row.f}, d={row.d}"
            )
    lines.append(f"result: {'PASS' if r.passed else 'FAIL'}")
    return "\n".join(lines)


def _param_text(value) -> str:
    if isinstance(value, tuple):
        return "(" + ",".join(str(v) for v in value) + ")"
    return str(value)


def _text(render, *args) -> str:
    """render(*args), or ParamError where it meets an integer longer than
    CPython converts to a string."""
    try:
        return render(*args)
    except ValueError:
        raise ParamError(
            f"the result has an integer of more than {sys.get_int_max_str_digits()} digits, "
            "the most that print"
        ) from None


# ---------------------------------------------------------------------------
# conversion helpers


def _rational_to_series(rf, field, group, margin):
    """View num/den over the single variable t as a series; a polynomial
    (den the constant 1) is its numerator's series, and inverting a
    denominator with several terms truncates at the given margin."""
    if not rf.num.terms:
        return zero_series(field, group)
    num = poly_to_series(rf.num, group)
    if rf.den.terms == (((0,), field.one()),):
        return num
    den = poly_to_series(rf.den, group)
    if len(den.terms) == 1:
        return mul_series(num, invert(den))
    vd2 = valuation(den).value.scale(2)
    pad = vd2 if vd2.sign() >= 0 else vd2.scale(-1)
    return mul_series(num, invert(den, precision=margin + pad))


# The largest R of perron --group lex:R.  Its postcondition takes a
# determinant of the R x R transform in about R^4 steps: R = 64 answers in
# 0.7 s, R = 300 took 94 s.  Tier-1, the goldens and the demos reach R = 4.
_MAX_PERRON_RANK = 64

# The spellings of perron --group: a name, or a head and an integer, mapped to
# the place-file group object they read as.  Each head is its group's kind.
_GROUP_NAMES = {"q": {"kind": "Q"}, "z": {"kind": "one_over_m", "m": 1}, "quad": {"kind": "quad"}}
_GROUP_HEADS = {"lex": "r", "one_over_m": "m", "p_power": "p"}
_SPELLINGS = [*_GROUP_NAMES, *(f"{head}:{key.upper()}" for head, key in _GROUP_HEADS.items())]
_GROUP_HELP = ", ".join(_SPELLINGS[:-1]) + ", or " + _SPELLINGS[-1]


def _parse_group_spec(spec: str):
    s = spec.strip().lower()
    blob = _GROUP_NAMES.get(s)
    head, sep, arg = s.partition(":")
    if sep:
        try:
            n = parse_elem(ZZ_GROUP, arg).data
        except GroupLawError:
            raise ParamError(f"group argument must be an integer, got {arg!r}") from None
        if head == "lex" and n > _MAX_PERRON_RANK:
            raise ParamError(f"lex:{n} exceeds the perron rank budget of {_MAX_PERRON_RANK}")
        if head in _GROUP_HEADS:
            blob = {"kind": head, _GROUP_HEADS[head]: n}
    if blob is None:
        raise ParamError(f"unknown group {spec!r}; use {_GROUP_HELP}")
    return _group_from_json(blob)


def _standard_generators(group):
    """Lattice generators for the finitely generated families; rational
    families have no canonical lattice, so the targets span themselves."""
    if isinstance(group, QuadGroup):
        return (group.elem((1, 0)), group.elem((0, 1)))
    if isinstance(group, LexGroup):
        return tuple(
            group.elem(tuple(1 if j == i else 0 for j in range(group.r)))
            for i in range(group.r)
        )
    return None


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_eval(ns) -> int:
    with open(ns.place, "r", encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
        except RecursionError:  # the decoder recurses once per nesting level
            raise ParamError("malformed JSON: nested too deeply to decode") from None
        except ValueError as exc:  # bad JSON, bytes not UTF-8, or an over-long integer
            raise ParamError(f"malformed JSON: {exc}") from None
    place = place_from_json(blob)
    rf = expr_to_ratfn(ns.expression, place_vars(place), base_field(place))
    v, r = place_value_residue(place, rf)
    v, r = _text(str, v), "0" if r is ZERO else _text(str, r)
    if ns.json:
        print(json.dumps({"v": v, "residue": r}, sort_keys=True))
    else:
        print(f"v = {v}, residue = {r}")
    return 0


def _cmd_lift(ns) -> int:
    field = GF(ns.p)
    group = ZZ_GROUP
    target = parse_elem(group, ns.precision)
    coeffs = tuple(
        _rational_to_series(expr_to_ratfn(text, ("t",), field), field, group, target)
        for text in ns.coefficient
    )
    lifted = hensel_lift(SeriesPoly(coeffs), None, target)
    if ns.json:
        print(json.dumps(lifted.to_json(), indent=2, sort_keys=True))
    else:
        print(f"root = {render_series(lifted.root)}")
        print("steps: " + " -> ".join(str(s) for s in lifted.steps))
    return 0


def _cmd_as(ns) -> int:
    field = GF(ns.p)
    group = ZZ_GROUP
    target = parse_elem(group, ns.precision)
    c = _rational_to_series(expr_to_ratfn(ns.expression, ("t",), field), field, group, target)
    case, outcome = analyze(c, target)
    if ns.json:
        print(json.dumps({"case": case, "outcome": outcome.to_json()}, indent=2, sort_keys=True))
    else:
        print(f"case: {case}")
        for key, value in outcome.to_json().items():
            rendered = value if isinstance(value, str) else json.dumps(value)
            print(f"  {key}: {rendered}")
    return 0


def _cmd_perron(ns) -> int:
    group = _parse_group_spec(ns.group)
    targets = tuple(parse_elem(group, t) for t in ns.target)
    generators = _standard_generators(group)
    if generators is None:
        generators = targets
    result = perron_basis(generators, targets)
    print(_text(_render_perron, result, targets, ns.json))
    return 0


def _render_perron(result, targets, as_json: bool) -> str:
    if as_json:
        blob = {
            "basis": [str(b) for b in result.basis],
            "coefficients": [list(row) for row in result.coeffs],
            "change_of_basis": [list(row) for row in result.change_of_basis],
            "targets": [str(t) for t in targets],
        }
        return json.dumps(blob, indent=2, sort_keys=True)
    lines = ["basis: " + ", ".join(f"g{j + 1} = {b}" for j, b in enumerate(result.basis))]
    lines.append("coefficients:")
    for t, row in zip(targets, result.coeffs):
        parts = [f"{n}*g{j + 1}" for j, n in enumerate(row) if n != 0]
        lines.append(f"  {t} = " + " + ".join(parts))
    lines.append("change of basis:")
    for row in result.change_of_basis:
        lines.append("  [" + ", ".join(str(n) for n in row) + "]")
    return "\n".join(lines)


def _scenario_params(ns, schema_keys) -> dict:
    params = {}
    if ns.p is not None:
        params["p"] = ns.p
    if ns.k_max is not None:
        params["k_max"] = ns.k_max
    if ns.precision is not None:
        params["precision"] = ns.precision
    if ns.seed is not None:
        params["seed"] = ns.seed
    if schema_keys is not None:
        params = {k: v for k, v in params.items() if k in schema_keys}
    return params


def _cmd_gallery(ns) -> int:
    names = tuple(ns.name) if ns.name else SCENARIO_NAMES
    # each scenario with its defaults, so an unknown name fails before any runs
    declared = {name: dict(make_scenario(name).params) for name in names}
    reports = []
    for name in names:
        # With explicit names the flags are forwarded verbatim, so a flag a
        # scenario does not take is an error; a run over the whole catalog
        # forwards each flag only where the schema declares it.
        keys = None if ns.name else declared[name]
        reports.append(run_scenario(name, _scenario_params(ns, keys)))
    if ns.json:
        if len(reports) == 1:
            print(render_report(reports[0], "json"))
        else:
            print(json.dumps([report_to_json(r) for r in reports], indent=2, sort_keys=True))
    else:
        print("\n\n".join(render_report(r, "text") for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_list(ns) -> int:
    entries = list_scenarios()
    if ns.json:
        print(json.dumps(list(entries), indent=2, sort_keys=True))
        return 0
    width = max(len(e["title"]) for e in entries)
    for e in entries:
        print(f"{e['name']}  {e['title']:<{width}}  {e['anchor']}")
        for pname, schema in sorted(e["params"].items()):
            extras = ", ".join(
                f"{k}={v}" for k, v in sorted(schema.items()) if k != "type"
            )
            tail = f" ({extras})" if extras else ""
            print(f"      {pname}: {schema['type']}{tail}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _integer(text: str) -> int:
    """The argparse type of --p, --k-max, --seed and gallery's --precision:
    an integer read by parse_elem, the reader of every other number on the
    command line."""
    try:
        return parse_elem(ZZ_GROUP, text).data
    except ValuedFieldError as exc:  # not an integer, 0^0, a power over budget
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of this process; building one costs about a millisecond
    and leaves a few hundred objects of cyclic garbage, so main reuses it."""
    parser = argparse.ArgumentParser(
        prog="valuedfields",
        description="exact computations in valued fields: places, series roots, "
        "degree-p additive equations, positive bases, and a scenario gallery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="value and residue of an expression at a place")
    p_eval.add_argument("--place", required=True, help="path to a place description in JSON")
    p_eval.add_argument("--json", action="store_true")
    p_eval.add_argument("expression", help="rational expression in the place's variables")
    p_eval.set_defaults(handler=_cmd_eval)

    p_lift = sub.add_parser("lift", help="power-series root of a polynomial over F_p((t))")
    p_lift.add_argument("--p", type=_integer, required=True, help="coefficient characteristic")
    p_lift.add_argument(
        "--precision", required=True, help="truncation order for the root, an integer"
    )
    p_lift.add_argument("--json", action="store_true")
    p_lift.add_argument(
        "coefficient",
        nargs="+",
        help="polynomial coefficients as expressions in t, constant term first",
    )
    p_lift.set_defaults(handler=_cmd_lift)

    p_as = sub.add_parser("as", help="analyze the degree-p equation X^p - X = c over F_p((t))")
    p_as.add_argument("--p", type=_integer, required=True, help="the degree, a prime")
    p_as.add_argument(
        "--precision", required=True, help="truncation order for any computed root"
    )
    p_as.add_argument("--json", action="store_true")
    p_as.add_argument("expression", help="the right-hand side c, an expression in t")
    p_as.set_defaults(handler=_cmd_as)

    p_perron = sub.add_parser(
        "perron", help="positive basis expressing positive targets with coords >= 0"
    )
    p_perron.add_argument(
        "--group",
        required=True,
        help=f"value group: {_GROUP_HELP}",
    )
    p_perron.add_argument("--json", action="store_true")
    p_perron.add_argument("target", nargs="+", help="positive group elements")
    p_perron.set_defaults(handler=_cmd_perron)

    p_gallery = sub.add_parser("gallery", help="run scenarios (all of them when none are named)")
    p_gallery.add_argument("name", nargs="*", help="scenario names, e.g. G1 G2")
    p_gallery.add_argument("--p", type=_integer, default=None)
    p_gallery.add_argument("--k-max", type=_integer, default=None)
    p_gallery.add_argument("--precision", type=_integer, default=None)
    p_gallery.add_argument("--seed", type=_integer, default=None)
    p_gallery.add_argument("--json", action="store_true")
    p_gallery.set_defaults(handler=_cmd_gallery)

    p_list = sub.add_parser("list", help="catalog of scenarios with parameter schemas")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(handler=_cmd_list)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.handler(ns)
    except (ValuedFieldError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
