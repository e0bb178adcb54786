"""Golden snapshots of the command line and the demos: stdout, byte for byte.

Each case runs ``cli.main`` in-process and compares its stdout and exit
code with ``tests/golden/<case>.txt``, whose first line is ``exit=<code>``
and whose remainder is the exact stdout.  The ``elapsed_ms`` field of JSON
reports is the only masked value.  Place files live in
``tests/golden/places``.  Each script in ``demos/`` runs in-process as
``__main__``, and its stdout is compared with ``tests/golden/demo_<name>.txt``.
To record the snapshots again (only when an output change is intended),
run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import io
import re
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from valuedfields import cli

GOLDEN = Path(__file__).parent / "golden"
PLACES = GOLDEN / "places"
DEMOS = Path(__file__).parent.parent / "demos"

CASES = {
    "eval_lex2": ["eval", "--place", "lex2.json", "x1^3/x2^2"],
    "eval_lex2_json": ["eval", "--place", "lex2.json", "--json", "x1 + 1"],
    "eval_gf5": ["eval", "--place", "eval_gf5.json", "x1^2 + 1 + x2"],
    "eval_gf5_unit": ["eval", "--place", "eval_gf5.json", "(x1-2)*x2^2 + 3"],
    # values of order 2 or more at a nonzero point: the x1 + 3 factor vanishes at
    # x1 = 2 over F_5, x1^5 - 2 is (x1 - 2)^5 there, and over Q the residue is the
    # ratio of the lowest Taylor coefficients
    "eval_gf5_order4": ["eval", "--place", "eval_gf5.json", "(x1-2)^3*((x1+3)*x2 + x1 - 2)"],
    "eval_gf5_frobenius": ["eval", "--place", "eval_gf5.json", "(x1^5 - 2)*(x2^2 + 3*x2)/(x1 + 3)"],
    "eval_q_order": ["eval", "--place", "eval_q.json", "(x1-2)^2*(x1^2+1)*(2*x2+1)^3 + (x1-2)^3*x1"],
    "eval_q_residue_json": [
        "eval", "--place", "eval_q.json", "--json", "(x1-2)^2*(x1^2+1)*(x2-3)/((x1^2-4)^2*(x2+2))",
    ],
    # a high order of vanishing over Q, one at the fractional x2 = -1/2, and an
    # order above p over F_5: the Taylor coefficients by synthetic division
    "eval_q_order600": ["eval", "--place", "eval_q.json", "(x1-2)^600*(x1+1)"],
    "eval_q_fractional_json": [
        "eval", "--place", "eval_q.json", "--json", "(2*x2+1)^40*(x2+3)/(x1-2)^3",
    ],
    "eval_q_fractional_residue": ["eval", "--place", "eval_q.json", "(2*x2+1)^3*(x2+3)/((4*x2+2)^3*x1)"],
    "eval_gf5_order_above_p": ["eval", "--place", "eval_gf5.json", "(x1-2)^30*(x1+3)^7*x2"],
    "eval_embed_unit": ["eval", "--place", "frobenius_embed.json", "x1*x2 + 1"],
    "eval_embed_pole": ["eval", "--place", "frobenius_embed.json", "x1^2/x2"],
    # x2 + x1^2 + x1 vanishes at x1 -> FrobeniusRoot(2), x2 -> t, so each value
    # below is decided only after the stream is expanded past it
    "eval_frobenius_root_v20": ["eval", "--place", "frobenius_root_embed.json", "x2 + x1^2 + x1 + x2^20"],
    "eval_frobenius_root_unit": [
        "eval", "--place", "frobenius_root_embed.json", "(x2 + x1^2 + x1 + x2^20)/x2^20",
    ],
    "eval_frobenius_root_ratio": [
        "eval", "--place", "frobenius_root_embed.json", "(x2 + x1^2 + x1 + x2^20)/(x1 + x2^3)",
    ],
    "eval_frobenius_root_undecided_den": [
        "eval", "--place", "frobenius_root_embed.json", "x1/(x2 + x1^2 + x1 + x2^70)",
    ],
    # x1 -> 1 + t and x2 -> t^(1/2), both exact: a value read off a binomial
    # power, one lifted to value 0 by the one-term x2, and a kernel element
    "eval_exact_binomial_v1": ["eval", "--place", "exact_binomial.json", "x1^200 - 1"],
    "eval_exact_binomial_residue": ["eval", "--place", "exact_binomial.json", "(x1^200 - 1)/x2^2"],
    "eval_exact_binomial_kernel": ["eval", "--place", "exact_binomial.json", "x1 - 1 - x2^2"],
    "eval_exact_binomial_json": ["eval", "--place", "exact_binomial.json", "--json", "(x1^60 - 1)/x2^2"],
    # the FrobeniusRoot place with x3 -> 1 + t exact beside the stream: a bound
    # the stream rounds leave undecided, and a value decided in the first round
    "eval_frobenius_root_mixed_undecided": [
        "eval", "--place", "frobenius_root_mixed.json", "x3*(x1^2-x1-x2)",
    ],
    "eval_frobenius_root_mixed_v3": ["eval", "--place", "frobenius_root_mixed.json", "x1*x3 - x2"],
    # residues that are polynomials and quotients in the residue indeterminates z, w
    "eval_monomial_residue_poly": ["eval", "--place", "monomial_residues.json", "(x1*x2 + x1^2)/x1"],
    "eval_monomial_residue_ratfn": [
        "eval", "--place", "monomial_residues.json", "(x1*x2^2 + x1*x3 + x1^2)/(x1*x3 - 3*x1^2)",
    ],
    # the same first stage followed by z -> 1, w -> u on its residue field
    "eval_compose_value": ["eval", "--place", "compose_monomial.json", "x1^2*x2*x3 + x1^2*x2^2 + x1^3"],
    "eval_compose_residue": [
        "eval", "--place", "compose_monomial.json", "(x1*x2*x3^2 + x1^2)/(x1*x2 + 2*x1*x2*x3)",
    ],
    # the same two stages and then the trivial place on u, nested right and left
    "eval_compose3_right_residue": [
        "eval", "--place", "compose3_right.json", "(x1*x2*x3^2 + x1^2)/(x1*x2 + 2*x1*x2*x3)",
    ],
    "eval_compose3_right_residue_json": [
        "eval", "--place", "compose3_right.json", "--json", "(x1*x2*x3^2 + x1^2)/(x1*x2 + 2*x1*x2*x3)",
    ],
    "eval_compose3_right_value": [
        "eval", "--place", "compose3_right.json", "x1^2*x2*x3 + x1^2*x2^2 + x1^3",
    ],
    "eval_compose3_left_residue": [
        "eval", "--place", "compose3_left.json", "(x1*x2*x3^2 + x1^2)/(x1*x2 + 2*x1*x2*x3)",
    ],
    "eval_compose3_left_residue_json": [
        "eval", "--place", "compose3_left.json", "--json", "(x1*x2*x3^2 + x1^2)/(x1*x2 + 2*x1*x2*x3)",
    ],
    # monomial places whose values are not integers: Q + Q*sqrt2, (1/6)Z and
    # the 3-power hull over F_3
    "eval_quad_value": ["eval", "--place", "quad.json", "x1^3*x3 + x2^2*x3^2 - x1*x2"],
    "eval_quad_pole": ["eval", "--place", "quad.json", "(x1^2 + x2*x3)/(x1*x2)"],
    "eval_one_over_6_residue": [
        "eval", "--place", "one_over_6.json", "(x1^2*x2 + x1^2)/(x1^2*x2^2 - 3*x1^3)",
    ],
    "eval_one_over_6_value": ["eval", "--place", "one_over_6.json", "x1*x2 - x1"],
    "eval_hull3_unit": ["eval", "--place", "hull3.json", "(x1^5*x2 + x1^4)/x1^4"],
    "eval_trivial_gf5": ["eval", "--place", "trivial_gf5.json", "(x1^2 + 3)/(x2 + 4*x1)"],
    "eval_trivial_gf5_json": ["eval", "--place", "trivial_gf5.json", "--json", "x1^5*x2 - 7"],
    "lift": ["lift", "--p", "2", "--precision", "16", "--", "-t", "-1", "1"],
    "lift_json": ["lift", "--p", "3", "--precision", "12", "--json", "--", "-t", "-1", "0", "1"],
    "lift_dense_cubic_json": [
        "lift", "--p", "3", "--precision", "33", "--json", "--",
        "2*t + t^2 + 2*t^3 + t^5 + 2*t^6 + t^7", "2 + t + t^2 + 2*t^4 + t^6 + 2*t^7",
        "1 + 2*t + 2*t^3 + t^4 + t^5", "1 + t + 2*t^2 + t^3",
    ],
    # the same cubic deep enough that a product's operands run to hundreds of terms
    "lift_dense_cubic_512_json": [
        "lift", "--p", "3", "--precision", "512", "--json", "--",
        "2*t + t^2 + 2*t^3 + t^5 + 2*t^6 + t^7", "2 + t + t^2 + 2*t^4 + t^6 + 2*t^7",
        "1 + 2*t + 2*t^3 + t^4 + t^5", "1 + t + 2*t^2 + t^3",
    ],
    "lift_rational": [
        "lift", "--p", "5", "--precision", "20", "--",
        "2 + t + 4*t^2 + 2*t^3", "(2 + 3*t + t^2)/(1 + 2*t + 4*t^2 + t^3)", "1 + 2*t",
    ],
    # a rational coefficient over a large prime: the Kronecker products of the
    # lift and of its inverses use 8-byte slots, and over 2^61 - 1 slots wider
    # than 8 bytes, read by slices
    "lift_rational_p1000003": [
        "lift", "--p", "1000003", "--precision", "24", "--",
        "-(4 + 2*t + 3*t^2 + 5*t^3)", "(3 + t + 7*t^2)/(1 + 2*t + 5*t^2)", "1",
    ],
    # a product of two dense 601-term powers over F_1000003
    "lift_power_product_p1000003": [
        "lift", "--p", "1000003", "--precision", "4", "--", "-(1+t)^600*(1+t)^600", "0", "1",
    ],
    "lift_rational_p2e61_json": [
        "lift", "--p", "2305843009213693951", "--precision", "24", "--json", "--",
        "-(4 + 2*t + 3*t^2 + 5*t^3)", "(3 + t + 7*t^2)/(1 + 2*t + 5*t^2)", "1",
    ],
    # t^0, subtraction, unary minus, powers of a sum and of a power, and a
    # division in the middle of a chain: each form the evaluator folds
    "lift_expr_forms": [
        "lift", "--p", "5", "--precision", "20", "--",
        "t^0 - 2*t + (1+t)^3/(1-t)*t^2 - -t^3 + ((t+2)^2)^2 - 2",
        "-(1 - t^2)^2 + 4*t^0", "1",
    ],
    # coefficients whose summands are products of monomial factors: repeated
    # variables and integers, an integer power, a zero monomial, negated
    # monomials, and a division in the middle of a chain
    "lift_monomial_chains": [
        "lift", "--p", "7", "--precision", "16", "--",
        "3*t^2*2*t + 2^3*t + 0*t^5 - 2*t*t^4*3 + 4*t/(1+t)*t^3 - 6",
        "-3*t^2 + t^0*t*5 - - t - 6*1", "1",
    ],
    "as_positive": ["as", "--p", "2", "--precision", "8", "t"],
    "as_zero": ["as", "--p", "2", "--precision", "8", "1"],
    "as_ramified": ["as", "--p", "2", "--precision", "8", "1/t"],
    "as_unramified": ["as", "--p", "2", "--precision", "8", "1/t^2"],
    "as_positive_json": ["as", "--p", "3", "--precision", "9", "--json", "t + t^2"],
    "as_over_t3": ["as", "--p", "3", "--precision", "9", "(1 + 2*t - t^2 + t^4)/t^3"],
    # a Laurent numerator of monomial chains over t^5
    "as_chains_over_t5": [
        "as", "--p", "5", "--precision", "10",
        "(2*t^2*t*2 - 3*t*2 + 2^2*t^5*t + 0*t^3 - -t^0*3 + t^4*t^2 - 4*t^7/t^2)/t^5",
    ],
    # a pole of order 2^17 over Z: surgery takes 17 steps down to t^(-1)
    "as_deep_chain": ["as", "--p", "2", "--precision", "8", "1/t^131072"],
    # a ramified value v(c) = -2 over Z at p = 3: the root value is -2/3
    "as_ramified_p3": ["as", "--p", "3", "--precision", "4", "1/(t^2+t^3)"],
    "perron_quad": ["perron", "--group", "quad", "1", "sqrt2-1"],
    "perron_quad_json": ["perron", "--group", "quad", "--json", "3+1*sqrt2", "2-1*sqrt2"],
    "perron_lex": ["perron", "--group", "lex:3", "(1,3,0)", "(0,1,-2)", "(0,0,1)"],
    "perron_rational": ["perron", "--group", "q", "3/2", "1/2", "5/3"],
    # a lex shear, a (1/6)Z span read as integer rows, a p-power hull, and a
    # quad subtraction of more than one run
    "perron_lex_shear": ["perron", "--group", "lex:2", "(1,-3)", "(0,1)"],
    "perron_one_over_6_json": ["perron", "--group", "one_over_m:6", "--json", "1/6", "1/3"],
    "perron_hull3": ["perron", "--group", "p_power:3", "1/9", "1/3"],
    "perron_quad_runs": ["perron", "--group", "quad", "1", "sqrt2", "3-2*sqrt2"],
    "list": ["list"],
    "list_json": ["list", "--json"],
}
for _n in range(1, 10):
    CASES[f"gallery_G{_n}"] = ["gallery", f"G{_n}"]
    CASES[f"gallery_G{_n}_json"] = ["gallery", f"G{_n}", "--json"]
# F_{p^n} elements print in u-notation, so these pin the choice of modulus
CASES["gallery_G4_k4_json"] = ["gallery", "G4", "--k-max", "4", "--json"]
CASES["gallery_G4_p3_k4_json"] = ["gallery", "G4", "--p", "3", "--k-max", "4", "--json"]
CASES["gallery_G6_p5_json"] = ["gallery", "G6", "--p", "5", "--json"]
# the whole catalog forwards each flag only where a scenario declares it;
# explicit names forward every flag given
CASES["gallery_all_p3_k2"] = ["gallery", "--p", "3", "--k-max", "2"]
CASES["gallery_G3_p5_k3_prec4"] = ["gallery", "G3", "--p", "5", "--k-max", "3", "--precision", "4"]
# G8 at the gallery workload's sample count, and at p = 3 and 5 with other seeds
CASES["gallery_G8_k64"] = ["gallery", "G8", "--k-max", "64"]
CASES["gallery_G8_k64_json"] = ["gallery", "G8", "--k-max", "64", "--json"]
CASES["gallery_G8_p3_k32_seed5"] = ["gallery", "G8", "--p", "3", "--k-max", "32", "--seed", "5"]
CASES["gallery_G8_p5_k24_seed2"] = ["gallery", "G8", "--p", "5", "--k-max", "24", "--seed", "2"]
# a seed whose sampled values outrun the truncation: exit 1 with an indeterminate claim
CASES["gallery_G8_k64_seed457"] = ["gallery", "G8", "--k-max", "64", "--seed", "457"]
# the gallery workload's remaining parameter sets, as it runs them
CASES["gallery_G1_p5_json"] = ["gallery", "G1", "--p", "5", "--json"]
CASES["gallery_G2_k5_json"] = ["gallery", "G2", "--k-max", "5", "--json"]
CASES["gallery_G3_p5_k8_json"] = ["gallery", "G3", "--p", "5", "--k-max", "8", "--json"]
CASES["gallery_G5_k6_json"] = ["gallery", "G5", "--k-max", "6", "--json"]
CASES["gallery_G6_k5_json"] = ["gallery", "G6", "--k-max", "5", "--json"]
CASES["gallery_G7_k12_json"] = ["gallery", "G7", "--k-max", "12", "--json"]
CASES["gallery_G9_p11_json"] = ["gallery", "G9", "--p", "11", "--json"]
for _name in ("quad_value", "quad_pole", "one_over_6_residue", "one_over_6_value", "hull3_unit"):
    _argv = CASES[f"eval_{_name}"]
    CASES[f"eval_{_name}_json"] = _argv[:3] + ["--json"] + _argv[3:]

_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def _run(argv) -> str:
    argv = [str(PLACES / a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return f"exit={code}\n" + _ELAPSED.sub('"elapsed_ms": "*"', out.getvalue())


def _run_demo(name) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _run(CASES[name]) == expected


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_golden(name):
    expected = (GOLDEN / f"demo_{name}.txt").read_text(encoding="utf-8")
    assert _run_demo(name) == expected


if __name__ == "__main__":
    for case, args in CASES.items():
        (GOLDEN / f"{case}.txt").write_text(_run(args), encoding="utf-8")
    for demo in DEMOS.glob("*.py"):
        (GOLDEN / f"demo_{demo.stem}.txt").write_text(_run_demo(demo.stem), encoding="utf-8")
