"""Golden snapshots of the command line: stdout and exit code, byte for byte.

Each case runs ``cli.main`` in-process and compares its stdout and exit
code with ``tests/golden/<case>.txt``, whose first line is ``exit=<code>``
and whose remainder is the exact stdout.  The ``elapsed_ms`` field of JSON
reports is the only masked value.  Place files live in
``tests/golden/places``.  To record the snapshots again (only when an
output change is intended), run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from valuedfields import cli

GOLDEN = Path(__file__).parent / "golden"
PLACES = GOLDEN / "places"

CASES = {
    "eval_lex2": ["eval", "--place", "lex2.json", "x1^3/x2^2"],
    "eval_lex2_json": ["eval", "--place", "lex2.json", "--json", "x1 + 1"],
    "eval_gf5": ["eval", "--place", "eval_gf5.json", "x1^2 + 1 + x2"],
    "eval_gf5_unit": ["eval", "--place", "eval_gf5.json", "(x1-2)*x2^2 + 3"],
    "eval_embed_unit": ["eval", "--place", "frobenius_embed.json", "x1*x2 + 1"],
    "eval_embed_pole": ["eval", "--place", "frobenius_embed.json", "x1^2/x2"],
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
    # t^0, subtraction, unary minus, powers of a sum and of a power, and a
    # division in the middle of a chain: each form the evaluator folds
    "lift_expr_forms": [
        "lift", "--p", "5", "--precision", "20", "--",
        "t^0 - 2*t + (1+t)^3/(1-t)*t^2 - -t^3 + ((t+2)^2)^2 - 2",
        "-(1 - t^2)^2 + 4*t^0", "1",
    ],
    "as_positive": ["as", "--p", "2", "--precision", "8", "t"],
    "as_zero": ["as", "--p", "2", "--precision", "8", "1"],
    "as_ramified": ["as", "--p", "2", "--precision", "8", "1/t"],
    "as_unramified": ["as", "--p", "2", "--precision", "8", "1/t^2"],
    "as_positive_json": ["as", "--p", "3", "--precision", "9", "--json", "t + t^2"],
    "as_over_t3": ["as", "--p", "3", "--precision", "9", "(1 + 2*t - t^2 + t^4)/t^3"],
    "perron_quad": ["perron", "--group", "quad", "1", "sqrt2-1"],
    "perron_quad_json": ["perron", "--group", "quad", "--json", "3+1*sqrt2", "2-1*sqrt2"],
    "perron_lex": ["perron", "--group", "lex:3", "(1,3,0)", "(0,1,-2)", "(0,0,1)"],
    "perron_rational": ["perron", "--group", "q", "3/2", "1/2", "5/3"],
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

_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def _run(argv) -> str:
    argv = [str(PLACES / a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return f"exit={code}\n" + _ELAPSED.sub('"elapsed_ms": "*"', out.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _run(CASES[name]) == expected


if __name__ == "__main__":
    for case, args in CASES.items():
        (GOLDEN / f"{case}.txt").write_text(_run(args), encoding="utf-8")
