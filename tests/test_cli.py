"""Command line behavior: output formats, exit codes, determinism."""

import gc
import json
import random
import time
from pathlib import Path

import pytest

from valuedfields import cli
from valuedfields.artinschreier import poly_to_series
from valuedfields.expr import expr_to_ratfn
from valuedfields.fields import GF
from valuedfields.gallery import Claim, Report
from valuedfields.groups import ZZ_GROUP
from valuedfields.places import _group_from_json
from valuedfields.series import invert, mul_series

LEX2 = {
    "variant": "monomial",
    "field": {"kind": "Q"},
    "group": {"kind": "lex", "r": 2},
    "values": [["x1", "(1,0)"], ["x2", "(0,1)"]],
    "residues": [],
}


@pytest.fixture
def lex2_path(tmp_path):
    path = tmp_path / "lex2.json"
    path.write_text(json.dumps(LEX2), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_monomial_place(capsys, lex2_path):
    code, out, err = run(capsys, ["eval", "--place", lex2_path, "x1^3/x2^2"])
    assert code == 0
    assert out == "v = (3,-2), residue = 0\n"
    assert err == ""


def test_eval_unit_residue(capsys, lex2_path):
    code, out, _ = run(capsys, ["eval", "--place", lex2_path, "x1 + 1"])
    assert code == 0
    assert out == "v = (0,0), residue = 1\n"


def test_eval_json(capsys, lex2_path):
    code, out, _ = run(capsys, ["eval", "--place", lex2_path, "--json", "x1^3/x2^2"])
    assert code == 0
    assert json.loads(out) == {"v": "(3,-2)", "residue": "0"}


def test_eval_unknown_variable_exits_2(capsys, lex2_path):
    code, out, err = run(capsys, ["eval", "--place", lex2_path, "x1 + z9"])
    assert code == 2
    assert out == ""
    assert "z9" in err


def test_eval_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, ["eval", "--place", str(tmp_path / "absent.json"), "x1"])
    assert code == 2
    assert "absent.json" in err


def test_eval_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["eval", "--place", str(path), "x1"])
    assert code == 2
    assert "JSON" in err


@pytest.mark.parametrize("data, needle", [
    (b'\xff\xfe{"variant": "trivial"}', "'utf-8' codec can't decode byte 0xff"),
    (b'{"variant": "eval", "field": {"kind": "GF", "p": ' + b"1" * 5001 + b'}, "assignments": []}',
     "value has 5001 digits"),
], ids=["not UTF-8", "5001-digit integer"])
def test_eval_undecodable_place_file_exits_2(capsys, tmp_path, data, needle):
    path = tmp_path / "undecodable.json"
    path.write_bytes(data)
    code, out, err = run(capsys, ["eval", "--place", str(path), "x1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed JSON: ") and err.count("\n") == 1 and needle in err


_P2_HULL = {"field": {"kind": "GF", "p": 2}, "group": {"kind": "p_power", "p": 2}}


@pytest.mark.parametrize(
    "blob, needle",
    [
        ({"variant": "monomial", "field": {"kind": "Q"}}, "missing key 'group'"),
        ({"variant": "eval", "field": {"kind": "GF"}, "assignments": [["x", 1]]}, "'p'"),
        ([1, 2], "JSON object"),
        (
            {
                "variant": "series_embed",
                **_P2_HULL,
                "assignments": [["x1", {"stream": "ThetaDefect"}]],
            },
            "'p'",
        ),
        (
            {
                "variant": "series_embed",
                **_P2_HULL,
                "assignments": [["x1", {"stream": "ThetaDefect", "params": {"p": "2"}}]],
            },
            "prime integer",
        ),
        ({"variant": "eval", "field": {"kind": "GF", "p": "5"}, "assignments": []}, "integer"),
        ({"variant": "eval", "field": {"kind": "Q"}, "assignments": {"x1": 1}}, "list"),
        ({"variant": "sphere"}, "sphere"),
        ({**LEX2, "values": [["x1", "(a,0)"], ["x2", "(0,1)"]]}, "(a,0)"),
        ({"variant": "eval", "field": {"kind": "Q"}, "assignments": [["x1", "1/0"]]}, "'1/0'"),
    ],
)
def test_eval_malformed_place_file_exits_2(capsys, tmp_path, blob, needle):
    path = tmp_path / "place.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    code, out, err = run(capsys, ["eval", "--place", str(path), "x1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


def test_eval_empty_evaluation_place_exits_2(capsys, tmp_path):
    path = tmp_path / "place.json"
    path.write_text(json.dumps({"variant": "eval", "field": {"kind": "GF", "p": 5}, "assignments": []}),
                    encoding="utf-8")
    code, out, err = run(capsys, ["eval", "--place", str(path), "1"])
    assert (code, out) == (2, "")
    assert err == "error: an evaluation place needs at least one assigned variable\n"


@pytest.mark.parametrize("p", [4, 6])
def test_p_power_group_with_a_composite_p_exits_2(capsys, tmp_path, p):
    path = tmp_path / "place.json"
    group = {"kind": "p_power", "p": p}
    path.write_text(json.dumps({"variant": "monomial", "field": {"kind": "Q"}, "group": group,
                                "values": [["x1", f"1/{p}"]]}), encoding="utf-8")
    for argv in (["perron", "--group", f"p_power:{p}", "1"], ["eval", "--place", str(path), "x1^2"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: p_power law needs a prime p, got {p}\n"


def test_eval_division_by_zero_function_exits_2(capsys, lex2_path):
    code, _, err = run(capsys, ["eval", "--place", lex2_path, "1/(x1-x1)"])
    assert code == 2
    assert "zero" in err


def test_eval_undecided_denominator_exits_2(capsys):
    # x2 + x1^2 + x1 vanishes at this place, so the denominator's value 70
    # lies past every refinement of the stream
    place = str(Path(__file__).parent / "golden" / "places" / "frobenius_root_embed.json")
    code, out, err = run(capsys, ["eval", "--place", place, "x1/(x2 + x1^2 + x1 + x2^70)"])
    assert (code, out) == (2, "")
    assert err == "error: denominator valuation undecidable: >= 64 after refinement\n"


def test_eval_composed_place_refines_the_inner_embedding(capsys, tmp_path):
    # the embedding above as the second stage, after u -> 1 with residues a, b
    embed = json.loads((Path(__file__).parent / "golden" / "places" /
                        "frobenius_root_embed.json").read_text(encoding="utf-8"))
    first = {"variant": "monomial", "field": {"kind": "GF", "p": 2},
             "group": {"kind": "one_over_m", "m": 1},
             "values": [["u", "1"]], "residues": [["a", "x1"], ["b", "x2"]]}
    path = tmp_path / "compose.json"
    path.write_text(json.dumps({"variant": "compose", "first": first, "second": embed}),
                    encoding="utf-8")
    code, out, err = run(capsys, ["eval", "--place", str(path), "b + a^2 + a + b^20"])
    assert (code, out, err) == (0, "v = (0,20), residue = 0\n", "")


def _monomial_stage(field, valued, residues):
    return {"variant": "monomial", "field": field, "group": {"kind": "one_over_m", "m": 1},
            "values": [[valued, "1"]], "residues": residues}


@pytest.mark.parametrize(
    "first, second, message",
    [
        (_monomial_stage({"kind": "Q"}, "x1", [["x2", "z"]]),
         _monomial_stage({"kind": "GF", "p": 5}, "z", []), "a stage over F_5 follows one over Q"),
        (_monomial_stage({"kind": "GF", "p": 5}, "x1", [["x2", "z"]]),
         {"variant": "trivial", "field": {"kind": "Q"}, "vars": ["z"]},
         "a stage over Q follows one over F_5"),
    ],
    ids=["Q then F_5", "F_5 then Q"],
)
def test_eval_refuses_stages_over_different_fields(capsys, tmp_path, first, second, message):
    # over F_5 the value of x2 + 5 is (0,1); the second field was once ignored
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"variant": "compose", "first": first, "second": second}),
                    encoding="utf-8")
    assert run(capsys, ["eval", "--place", str(path), "x2+5"]) == (2, "", f"error: {message}\n")


def _trivial_chain(stages):
    """x1 -> 1 with residue x2 -> z, then the trivial place on z stages - 1
    times, nested to the left."""
    blob = {"variant": "monomial", "field": {"kind": "Q"}, "group": {"kind": "one_over_m", "m": 1},
            "values": [["x1", "1"]], "residues": [["x2", "z"]]}
    for _ in range(stages - 1):
        blob = {"variant": "compose", "first": blob,
                "second": {"variant": "trivial", "field": {"kind": "Q"}, "vars": ["z"]}}
    return json.dumps(blob)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("[" * 100_000, (2, "", "error: malformed JSON: nested too deeply to decode\n")),
        (_trivial_chain(600), (2, "", "error: place composes more than 16 stages, the budget\n")),
        (_trivial_chain(17), (2, "", "error: place composes more than 16 stages, the budget\n")),
        (_trivial_chain(16), (0, "v = (1" + ",0" * 15 + "), residue = 0\n", "")),
    ],
    ids=["deep JSON", "600 stages", "17 stages", "16 stages"],
)
def test_eval_deeply_nested_place_files(capsys, tmp_path, text, expected):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    assert run(capsys, ["eval", "--place", str(path), "x1*x2"]) == expected
    assert time.perf_counter() - start < 1


def test_lift_frobenius_root_text(capsys):
    code, out, _ = run(capsys, ["lift", "--p", "2", "--precision", "16", "--", "-t", "-1", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "root = 1*t^(1) + 1*t^(2) + 1*t^(4) + 1*t^(8) + O(t^(16))"
    assert lines[1] == "steps: 1 -> 2 -> 4 -> 8"


def test_lift_json(capsys):
    code, out, _ = run(capsys, ["lift", "--p", "3", "--precision", "9", "--json", "--", "-t", "-1", "0", "1"])
    assert code == 0
    blob = json.loads(out)
    assert blob["result"]["precision"] == "9"
    assert blob["result"]["field"] == "F_3"
    assert blob["steps"][0] == "1"


def test_lift_rational_coefficient_in_t(capsys):
    # X - (t/(1+t)) has the geometric series as its root
    code, out, _ = run(capsys, ["lift", "--p", "5", "--precision", "4", "--", "-t/(1+t)", "1"])
    assert code == 0
    assert "root = 1*t^(1) + 4*t^(2) + 1*t^(3) + O(t^(4))" in out


def test_lift_inverts_only_denominators_that_are_not_one(capsys, monkeypatch):
    # a polynomial coefficient is its numerator's series; a rational one
    # still inverts its denominator once
    field, target = GF(5), ZZ_GROUP.elem(8)
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return invert(*args, **kwargs)

    monkeypatch.setattr(cli, "invert", spy)
    poly = expr_to_ratfn("2 + 3*t^2 - t^5", ("t",), field)
    series = cli._rational_to_series(poly, field, ZZ_GROUP, target)
    assert calls == []
    assert series == poly_to_series(poly.num, ZZ_GROUP)
    assert series == mul_series(series, invert(poly_to_series(poly.den, ZZ_GROUP)))
    cli._rational_to_series(expr_to_ratfn("(1 + t)/(2 + t)", ("t",), field), field, ZZ_GROUP, target)
    assert calls == [1]


def test_lift_composite_p_exits_2(capsys):
    code, _, err = run(capsys, ["lift", "--p", "4", "--precision", "8", "--", "1", "1"])
    assert code == 2
    assert "prime" in err


def test_as_ramified_text(capsys):
    code, out, _ = run(capsys, ["as", "--p", "2", "--precision", "8", "1/t"])
    assert code == 0
    assert "case: NegativeRamified" in out
    assert "root_value: -1/2" in out


def test_as_ramified_json_root_value_is_exact(capsys):
    # v(c)/p = -1/3 is divided as a Fraction: a float quotient of the int
    # exponent data of Z would violate the law of (1/3)Z
    code, out, err = run(capsys, ["as", "--p", "3", "--precision", "8", "--json", "1/t"])
    assert code == 0 and err == ""
    blob = json.loads(out)
    assert blob["case"] == "NegativeRamified"
    assert blob["outcome"]["root_value"] == "-1/3"


def test_as_split_json(capsys):
    code, out, _ = run(capsys, ["as", "--p", "2", "--precision", "8", "--json", "t"])
    assert code == 0
    blob = json.loads(out)
    assert blob["case"] == "PositiveValue"
    assert len(blob["outcome"]["roots"]) == 2


def test_as_surgery_reaches_normal_form(capsys):
    code, out, _ = run(capsys, ["as", "--p", "2", "--precision", "8", "1/t^2"])
    assert code == 0
    assert "case: NegativeUnramified" in out
    assert "variant: NormalForm" in out


def test_as_pole_past_the_surgery_budget_exits_2_at_once(capsys):
    # a pole of order 2^300 over Z needs 300 surgery steps, above the budget
    start = time.perf_counter()
    code, out, err = run(capsys, ["as", "--p", "2", "--precision", "8", f"1/t^{2 ** 300}"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: surgery over (1/1)Z did not end within the budget of 256 steps\n"


@pytest.mark.parametrize("argv", [
    ["as", "--p", "10007", "--precision", "32", "t"],
    ["as", "--p", "1000003", "--precision", "4", "t"],
    ["as", "--p", str(2 ** 61 - 1), "--precision", "4", "t"],
    ["as", "--p", "1000003", "--precision", "4", "0"],
    ["gallery", "G1", "--p", "10007", "--precision", "8"],
])
def test_artin_schreier_degree_above_the_budget_exits_2_at_once(capsys, argv):
    # X^p - X - c is stored densely, so p above the budget is refused before
    # its p + 1 coefficients (or the p roots of a split) are built
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    p = argv[argv.index("--p") + 1]
    assert err == f"error: X^p - X - c has degree p = {p}, above the budget of 256\n"


def test_as_takes_no_iteration_cap():
    with pytest.raises(SystemExit) as exc:
        cli.main(["as", "--p", "2", "--precision", "8", "--k-max", "3", "1/t"])
    assert exc.value.code == 2


def _laurent_mul(a, b, p):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = (out.get(i + j, 0) + x * y) % p
    return {e: c for e, c in out.items() if c}


def _laurent_add(a, b, p):
    out = dict(a)
    for e, c in b.items():
        out[e] = (out.get(e, 0) + c) % p
    return {e: c for e, c in out.items() if c}


def _laurent_from_json(blob):
    return {int(e): int(c) for e, c in blob["terms"]}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_as_differential_over_random_laurent_polynomials(capsys, p):
    # poles of order m*p^k with k up to 8 make long surgery chains; every
    # normal form is checked by plain-int Laurent arithmetic mod p
    rng = random.Random(29 + p)
    seen = set()
    for _ in range(40):
        c = {}
        for _ in range(rng.randint(1, 4)):
            c[-rng.randint(1, 3) * p ** rng.randint(0, 8)] = rng.randint(1, p - 1)
        for _ in range(rng.randint(0, 3)):
            c[rng.randint(-4, 4)] = rng.randint(1, p - 1)
        text = " + ".join(f"{a}/t^{-e}" if e < 0 else f"{a}*t^{e}" for e, a in c.items())
        start = time.perf_counter()
        code, out, err = run(capsys, ["as", "--p", str(p), "--precision", "8", "--json", text])
        assert time.perf_counter() - start < 1, text
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, text
            continue
        assert code == 0 and err == "", text
        blob = json.loads(out)
        outcome = blob["outcome"]
        seen.add(outcome["variant"])
        if outcome["variant"] != "NormalForm":
            continue
        B, residual = _laurent_from_json(outcome["partial"]), _laurent_from_json(outcome["residual"])
        power = {0: 1}
        for _ in range(p):
            power = _laurent_mul(power, B, p)
        minus_B = {e: -a % p for e, a in B.items()}
        assert _laurent_add(_laurent_add(power, minus_B, p), residual, p) == c, text
        v = min(residual, default=None)
        assert v is None or v == 0 or v % p != 0, text
        expected = (
            "PositiveValue" if v is None or v > 0
            else "ZeroValue" if v == 0
            else "NegativeRamified"
        )
        assert outcome["case"] == expected, text
    assert "NormalForm" in seen


def test_perron_quad_text(capsys):
    code, out, _ = run(capsys, ["perron", "--group", "quad", "1", "sqrt2-1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "basis: g1 = 1+0*sqrt2, g2 = -1+1*sqrt2"
    assert "  1+0*sqrt2 = 1*g1" in lines
    assert "  -1+1*sqrt2 = 1*g2" in lines


def test_perron_quad_json_postconditions(capsys):
    code, out, _ = run(capsys, ["perron", "--group", "quad", "--json", "3+1*sqrt2", "2-1*sqrt2"])
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {"basis", "coefficients", "change_of_basis", "targets"}
    assert len(blob["basis"]) == 2
    for row in blob["coefficients"]:
        assert all(isinstance(n, int) and n >= 0 for n in row)


def test_perron_rational_family_self_span(capsys):
    code, out, _ = run(capsys, ["perron", "--group", "q", "--json", "3/2", "1/2"])
    assert code == 0
    blob = json.loads(out)
    assert blob["basis"] == ["1/2"]
    assert blob["coefficients"] == [[3], [1]]


def test_perron_lex_unit_vectors(capsys):
    code, out, _ = run(capsys, ["perron", "--group", "lex:2", "--json", "(1,3)"])
    assert code == 0
    blob = json.loads(out)
    assert blob["targets"] == ["(1,3)"]
    for row in blob["coefficients"]:
        assert all(n >= 0 for n in row)


@pytest.mark.parametrize("rank", [64, 65])
def test_perron_lex_rank_at_and_above_the_budget(capsys, rank):
    target = "(" + ",".join(["1"] + ["0"] * (rank - 1)) + ")"
    start = time.perf_counter()
    code, out, err = run(capsys, ["perron", "--group", f"lex:{rank}", target])
    assert time.perf_counter() - start < 1
    if rank == 64:
        assert (code, err) == (0, "")
        assert out.startswith("basis: g1 = " + target)
    else:
        assert (code, out) == (2, "")
        assert err == "error: lex:65 exceeds the perron rank budget of 64\n"


def test_perron_negative_target_exits_2(capsys):
    code, _, err = run(capsys, ["perron", "--group", "quad", "--", "-1"])
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["perron", "--group", "q", "1/0"],
        ["lift", "--p", "3", "--precision", "1/0", "--", "-t", "-1", "1"],
        ["as", "--p", "3", "--precision", "1/0", "t"],
    ],
)
def test_zero_denominator_literal_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'1/0'" in err


def test_lift_over_a_61_bit_prime(capsys):
    # deterministic Miller-Rabin proves 2^61 - 1 prime at once
    start = time.perf_counter()
    code, out, err = run(capsys, ["lift", "--p", str(2**61 - 1), "--precision", "8", "--", "-1-t", "0", "1"])
    assert time.perf_counter() - start < 2
    assert code == 0 and err == ""
    assert out.startswith("root = 1*t^(0) + ")


def test_lift_p_beyond_the_primality_bound_exits_2(capsys):
    code, out, err = run(capsys, ["lift", "--p", str(2**89 - 1), "--precision", "8", "--", "-1-t", "0", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: primality of") and err.count("\n") == 1


@pytest.mark.parametrize("argv, line", [
    (["lift", "--p", "5", "--precision", "1" * 401, "--", "-1-t", "0", "1"],
     "Newton approximant or residual has more than 1024 terms below t^(" + "1" * 401 + ")"),
    (["as", "--p", "5", "--precision", "1" * 401, "t"], "Newton iteration did not reach the target"),
    (["gallery", "G1", "--precision", "1" * 401], "Newton iteration did not reach the target"),
], ids=["lift", "as", "G1"])
def test_401_digit_precision_exits_2_on_a_budget_at_once(capsys, argv, line):
    # the packed evaluation's cost rule compares integers: no float overflows
    start = time.perf_counter()
    assert run(capsys, argv) == (2, "", f"error: {line}\n")
    assert time.perf_counter() - start < 1


def test_as_at_a_huge_precision_takes_the_frobenius(capsys):
    # the root -(t + t^5 + t^25 + ...) has 58 terms below t^(10^40); Horner's
    # t^2, ..., t^4 of it would have hundreds of thousands
    start = time.perf_counter()
    code, out, _ = run(capsys, ["as", "--p", "5", "--precision", "10^40", "--json", "t"])
    assert time.perf_counter() - start < 1
    assert code == 0
    (root, *_) = json.loads(out)["outcome"]["roots"]
    assert [e for e, _ in root["terms"]] == [str(5**j) for j in range(58)]


def test_lift_beyond_the_term_budget_exits_2(capsys):
    # 1/(1 + t) over F_2 has a term at every exponent, so its inverse below
    # t^2000 exceeds the term budget of an inverse
    argv = ["lift", "--p", "2", "--precision", "2000", "--", "1/(1+t)", "1"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: inverse has more than") and err.count("\n") == 1


def test_lift_newton_term_budget_trips_early(capsys):
    # the root of X^2 - (1 + t) over F_5 has a term at almost every exponent,
    # so the Newton approximant passes the term budget long before t^4096
    start = time.perf_counter()
    code, out, err = run(capsys, ["lift", "--p", "5", "--precision", "4096", "--", "-1-t", "0", "1"])
    assert time.perf_counter() - start < 3
    assert code == 2
    assert out == ""
    assert err.startswith("error: Newton approximant or residual has more than") and err.count("\n") == 1


def test_lift_of_a_dense_4096_term_coefficient(capsys):
    # X - c with c = 1*t^0 + 2*t^1 + ... + 4096*t^4095 over F_5
    c = "+".join(f"{i + 1}*t^{i}" for i in range(4096))
    start = time.perf_counter()
    code, out, err = run(capsys, ["lift", "--p", "5", "--precision", "1000", "--", f"-({c})", "1"])
    assert time.perf_counter() - start < 5
    assert code == 0 and err == ""
    want = " + ".join(f"{(i + 1) % 5}*t^({i})" for i in range(1000) if (i + 1) % 5)
    assert out.startswith(f"root = {want} + O(t^(1000))\n")


def test_lift_of_a_long_flat_sum(capsys):
    # a dense coefficient of 1200 monomials: the expression layer folds the
    # sum without recursion
    coeff = "+".join(f"t^{k}" for k in range(1, 1201))
    code, out, err = run(capsys, ["lift", "--p", "2", "--precision", "8", "--", coeff, "1"])
    assert code == 0 and err == ""
    assert out.startswith("root = 1*t^(1) + 1*t^(2) + 1*t^(3)")


@pytest.mark.parametrize("coeff", ["(" * 3000 + "t" + ")" * 3000, "-" * 3000 + "t"], ids=["parens", "signs"])
def test_lift_of_a_deeply_nested_coefficient_exits_2(capsys, coeff):
    code, out, err = run(capsys, ["lift", "--p", "5", "--precision", "4", "--", coeff, "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: nesting deeper than") and err.count("\n") == 1


def test_eval_degree_beyond_the_shift_budget_exits_2(capsys, tmp_path):
    path = tmp_path / "gf5.json"
    place = {"variant": "eval", "field": {"kind": "GF", "p": 5, "n": 1},
             "assignments": [["x1", 2], ["x2", 0]]}
    path.write_text(json.dumps(place), encoding="utf-8")
    code, out, _ = run(capsys, ["eval", "--place", str(path), "x1^1000"])
    assert (code, out) == (0, "v = (0,0), residue = 1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, ["eval", "--place", str(path), "x1^1000000000000"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "budget" in err and err.count("\n") == 1


@pytest.mark.parametrize("text", ["1" * 4400 + "+t", "t^" + "9" * 4400], ids=["atom", "exponent"])
@pytest.mark.parametrize("command", ["lift", "as", "eval"])
def test_literal_beyond_the_int_digit_limit_exits_2(capsys, lex2_path, command, text):
    argv = {
        "lift": ["lift", "--p", "5", "--precision", "4", "--", text, "1"],
        "as": ["as", "--p", "5", "--precision", "4", text],
        "eval": ["eval", "--place", lex2_path, text.replace("t", "x1")],
    }[command]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: 4400-digit integer") and err.count("\n") == 1


def test_perron_unknown_group_exits_2(capsys):
    code, _, err = run(capsys, ["perron", "--group", "hyperbolic", "1"])
    assert code == 2
    assert "hyperbolic" in err


# each perron --group spelling and the place-file group object it names
_GROUP_SPELLINGS = [
    ("q", {"kind": "Q"}),
    ("Q", {"kind": "Q"}),
    (" z ", {"kind": "one_over_m", "m": 1}),
    ("quad", {"kind": "quad"}),
    ("lex:3", {"kind": "lex", "r": 3}),
    ("one_over_m:6", {"kind": "one_over_m", "m": 6}),
    ("p_power:3", {"kind": "p_power", "p": 3}),
]


@pytest.mark.parametrize("spec, blob", _GROUP_SPELLINGS)
def test_perron_group_spelling_is_the_place_file_group(spec, blob):
    assert cli._parse_group_spec(spec) == _group_from_json(blob)


def test_every_group_spelling_the_help_names_reads(capsys):
    perron = cli.build_parser()._subparsers._group_actions[0].choices["perron"]
    (action,) = [a for a in perron._actions if a.dest == "group"]
    head, _, names = action.help.partition(": ")
    assert head == "value group"
    spellings = names.replace(", or ", ", ").split(", ")
    assert len(spellings) == len(_GROUP_SPELLINGS) - 1  # "Q" is "q" read in lower case
    for spelling in spellings:
        name, sep, _ = spelling.partition(":")
        cli._parse_group_spec(name + sep + "3" * bool(sep))
    code, _, err = run(capsys, ["perron", "--group", "hyperbolic", "1"])
    assert err.endswith(f"; use {names}\n")


_USE = "; use q, z, quad, lex:R, one_over_m:M, or p_power:P"


@pytest.mark.parametrize("spec, line", [
    ("lex:x", "group argument must be an integer, got 'x'"),
    ("lex:", "group argument must be an integer, got ''"),
    ("lex:0", "lex rank must be >= 1"),
    ("lex:65", "lex:65 exceeds the perron rank budget of 64"),
    ("one_over_m:0", "one_over_m law needs m >= 1"),
    ("p_power:4", "p_power law needs a prime p, got 4"),
    ("q:2", "unknown group 'q:2'" + _USE),
    ("quad:1", "unknown group 'quad:1'" + _USE),
    ("hyperbolic", "unknown group 'hyperbolic'" + _USE),
    ("", "unknown group ''" + _USE),
])
def test_perron_malformed_group_spec_prints_one_line(capsys, spec, line):
    assert run(capsys, ["perron", "--group", spec, "1"]) == (2, "", f"error: {line}\n")


def test_perron_group_argument_is_read_as_a_number(capsys):
    assert cli._parse_group_spec("lex:2^3") == _group_from_json({"kind": "lex", "r": 8})
    assert run(capsys, ["perron", "--group", "lex:2^7", "1"]) == (
        2, "", "error: lex:128 exceeds the perron rank budget of 64\n")
    for spec in ("lex:1.5", "lex:1e1", "lex:1/2", "one_over_m:10^5000", "p_power:10^5000"):
        arg = spec.partition(":")[2]
        assert run(capsys, ["perron", "--group", spec, "1"]) == (
            2, "", f"error: group argument must be an integer, got {arg!r}\n")


# forms the number reader refuses: decimals, exponent notation, digit
# separators, non-ASCII digits, juxtaposition and numbers too long to print
_REFUSED = ["1.5", "1e5", "1_000", "\u0663", "2sqrt2", "1e10000000", "10^5000"]


@pytest.mark.parametrize("text", _REFUSED)
def test_refused_number_forms_exit_2_at_once(capsys, tmp_path, text):
    coefficient = tmp_path / "coefficient.json"
    coefficient.write_text(json.dumps(
        {"variant": "eval", "field": {"kind": "Q"}, "assignments": [["x1", text]]}), encoding="utf-8")
    exponent = tmp_path / "exponent.json"
    exponent.write_text(json.dumps({
        "variant": "series_embed", "field": {"kind": "Q"}, "group": {"kind": "Q"},
        "assignments": [["x1", {"terms": [[text, "1"]], "precision": None}]]}), encoding="utf-8")
    cases = [
        (["perron", "--group", "q", text], f"malformed element {text!r} of Q"),
        (["perron", "--group", "quad", text], f"malformed element {text!r} of Q + Q*sqrt2"),
        (["lift", "--p", "5", "--precision", text, "--", "-1-t", "0", "1"],
         f"malformed element {text!r} of (1/1)Z"),
        (["as", "--p", "5", "--precision", text, "t"], f"malformed element {text!r} of (1/1)Z"),
        (["eval", "--place", str(exponent), "x1"], f"malformed element {text!r} of Q"),
    ]
    if text != "10^5000":  # a coefficient is a field element; it may be long
        cases.append((["eval", "--place", str(coefficient), "x1"], f"malformed coefficient {text!r}"))
    for argv, line in cases:
        start = time.perf_counter()
        assert run(capsys, argv) == (2, "", f"error: {line}\n"), argv
        assert time.perf_counter() - start < 1, argv
    # gallery's --precision is read by argparse, as --p is
    code, out, err = _call(capsys, ["gallery", "G1", "--precision", text])
    assert (code, out) == (("SystemExit", 2), "")
    assert err.endswith(f"error: argument --precision: malformed element {text!r} of (1/1)Z\n")


def test_element_literals_are_expressions(capsys):
    code, out, _ = run(capsys, ["perron", "--group", "quad", "--json", "(2+2*sqrt2)/2", "2*sqrt2"])
    assert code == 0
    assert json.loads(out)["targets"] == ["1+1*sqrt2", "0+2*sqrt2"]
    code, out, _ = run(capsys, ["perron", "--group", "lex:2", "--json", "(2^10, -(3))"])
    assert code == 0
    assert json.loads(out)["targets"] == ["(1024,-3)"]


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_perron_result_beyond_the_digit_limit_exits_2(capsys, extra):
    # 3001-digit denominators: the basis element 1/lcm has about 6000
    argv = ["perron", "--group", "q", *extra, "1/(10^3000+1)", "1/(10^3000+3)"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: the result has an integer of more than 4300 digits, the most that print\n"


def test_gallery_single_json_schema(capsys):
    code, out, _ = run(capsys, ["gallery", "G2", "--p", "2", "--k-max", "3", "--json"])
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {"scenario", "params", "claims", "pass", "elapsed_ms", "ramification_data"}
    assert blob["scenario"] == "G2"
    assert blob["params"] == {"p": 2, "k_max": 3}
    assert blob["pass"] is True


def test_gallery_g2_at_p_101_takes_frobenius_powers(capsys):
    # theta_k^101 is a Frobenius power, linear in the terms; squaring
    # through mul_series took about 30 s
    start = time.perf_counter()
    code, out, _ = run(capsys, ["gallery", "G2", "--p", "101", "--k-max", "3", "--json"])
    assert time.perf_counter() - start < 5
    assert code == 0
    blob = json.loads(out)
    assert blob["pass"] is True
    assert blob["claims"][0]["lhs"] == "100*t^(-1/101)"


@pytest.mark.parametrize(
    "args", [["--k-max", "5"], ["--k-max", "6"], ["--p", "3", "--k-max", "5"]]
)
def test_gallery_g4_hosts_of_degree_60_build_quickly(capsys, args):
    # host degree lcm(1..5) = lcm(1..6) = 60; the trial-division sieve took
    # more than a minute to pick its modulus
    start = time.perf_counter()
    code, out, _ = run(capsys, ["gallery", "G4", *args, "--json"])
    assert time.perf_counter() - start < 5
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize(
    "args, word",
    [
        (["--k-max", "7"], "420"),  # lcm(1..7)
        (["--k-max", "99999999"], "budget"),  # stops at the first lcm over the budget
        (["--p", "101", "--k-max", "3"], "1030301"),  # would list F_101^3
    ],
)
def test_gallery_g4_over_budget_exits_2_at_once(capsys, args, word):
    start = time.perf_counter()
    code, out, err = run(capsys, ["gallery", "G4", *args])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert word in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "args, word",
    [
        (["G7", "--k-max", "10000"], "budget of 1000"),  # would print lcm(1..10000)
        (["G5", "--k-max", "1000"], "budget of 24"),
        (["G5", "--k-max", "25"], "budget of 24"),
        (["G5", "--p", "2305843009213693951", "--k-max", "18"], "budget of 8192"),
        (["G2", "--p", "2", "--k-max", "4000"], "budget of 100"),  # ran past 60 s
    ],
)
def test_gallery_k_max_over_budget_exits_2_at_once(capsys, args, word):
    start = time.perf_counter()
    code, out, err = run(capsys, ["gallery", *args])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and word in err and len(err.splitlines()) == 1


def test_gallery_g7_at_its_budget_answers(capsys):
    code, out, err = run(capsys, ["gallery", "G7", "--k-max", "1000"])
    assert code == 0 and err == ""
    assert out.rstrip().endswith("result: PASS")


def test_eval_bad_residue_place_over_budget_exits_2(capsys, tmp_path):
    place = {
        "variant": "series_embed",
        "field": {"kind": "GF", "p": 2, "n": 1},
        "group": {"kind": "one_over_m", "m": 1},
        "residue_dim": 0,
        "assignments": [["x1", {"stream": "BadResidue", "params": {"p": 2}}]],
    }
    path = tmp_path / "bad_residue.json"
    path.write_text(json.dumps(place), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, ["eval", "--place", str(path), "x1"])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert "420" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "p, n, word", [(2, 1000, "degree 1000"), (1000003, 20, "the scan budget")], ids=["degree", "scan"]
)
def test_eval_place_over_a_field_beyond_the_gf_budget_exits_2(capsys, tmp_path, p, n, word):
    # GF(2, 1000) took 98 s; every x^20 + c over F_1000003 is reducible, so
    # the modulus scan ran on past 5 minutes
    place = {"variant": "eval", "field": {"kind": "GF", "p": p, "n": n}, "assignments": [["x1", 0]]}
    path = tmp_path / "big_field.json"
    path.write_text(json.dumps(place), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, ["eval", "--place", str(path), "x1"])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert word in err and len(err.splitlines()) == 1


def test_gallery_several_names_json_array(capsys):
    code, out, _ = run(capsys, ["gallery", "G1", "G7", "--json"])
    assert code == 0
    blob = json.loads(out)
    assert [r["scenario"] for r in blob] == ["G1", "G7"]
    assert all(r["pass"] for r in blob)


def test_gallery_all_scenarios_text(capsys):
    code, out, _ = run(capsys, ["gallery"])
    assert code == 0
    assert out.count("result: PASS") == 9
    assert out.count("result: FAIL") == 0


def test_gallery_flag_forwarded_only_where_declared(capsys):
    # G7 takes no p; a catalog-wide run must not feed p to it
    code, out, _ = run(capsys, ["gallery", "--p", "3"])
    assert code == 0
    assert out.count("result: PASS") == 9


def test_gallery_explicit_name_rejects_undeclared_flag(capsys):
    code, _, err = run(capsys, ["gallery", "G7", "--p", "3"])
    assert code == 2
    assert "p" in err


def test_gallery_seeded_json_deterministic(capsys):
    argv = ["gallery", "G8", "--seed", "7", "--json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_gallery_text_deterministic_bytes(capsys):
    # text mode omits the elapsed time entirely
    _, out1, _ = run(capsys, ["gallery", "G3"])
    _, out2, _ = run(capsys, ["gallery", "G3"])
    assert out1 == out2


def test_gallery_unknown_scenario_exits_2(capsys):
    code, _, err = run(capsys, ["gallery", "G99"])
    assert code == 2
    assert "G99" in err


def test_gallery_claim_failure_exits_1(capsys, monkeypatch):
    failing = Report(
        scenario="G1",
        params=(("p", 2),),
        claims=(Claim("forced mismatch", "1", "2", False),),
        ramification_data=None,
        passed=False,
        elapsed_ms=0,
    )
    monkeypatch.setattr(cli, "run_scenario", lambda name, params=None: failing)
    code, out, _ = run(capsys, ["gallery", "G1"])
    assert code == 1
    assert "✗ forced mismatch" in out
    assert "result: FAIL" in out


def test_render_report_text_shape():
    r = Report(
        scenario="G9",
        params=(("p", 7),),
        claims=(Claim("value of the branch", "3/2", "3/2", True),),
        ramification_data=None,
        passed=True,
        elapsed_ms=12,
    )
    text = cli.render_report(r, "text")
    assert text.splitlines()[0] == "scenario: G9 (p=7)"
    assert "✓ value of the branch" in text
    assert "lhs: 3/2" in text
    assert text.splitlines()[-1] == "result: PASS"
    assert "12" not in text  # elapsed never printed in text mode


def test_render_report_json_round_trip():
    r = Report(
        scenario="G9",
        params=(("p", 7),),
        claims=(Claim("value of the branch", "3/2", "3/2", True),),
        ramification_data=None,
        passed=True,
        elapsed_ms=12,
    )
    blob = json.loads(cli.render_report(r, "json"))
    assert blob["pass"] is True
    assert blob["elapsed_ms"] == 12


def test_list_text_names_all_scenarios(capsys):
    code, out, _ = run(capsys, ["list"])
    assert code == 0
    for name in ("G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8", "G9"):
        assert any(line.startswith(name + " ") for line in out.splitlines())


def test_list_json_entries(capsys):
    code, out, _ = run(capsys, ["list", "--json"])
    assert code == 0
    blob = json.loads(out)
    assert [e["name"] for e in blob] == ["G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8", "G9"]
    for e in blob:
        assert set(e) == {"name", "title", "anchor", "params"}


def _call(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_a_sequence_of_calls(capsys, lex2_path):
    # subcommands mixed, flags set in one call and absent in the next, and
    # argparse rejections in between: each call answers as it does alone
    calls = [
        ["lift", "--p", "3", "--precision", "12", "--json", "--", "-t", "-1", "0", "1"],
        ["lift", "--p", "2"],
        ["lift", "--p", "3", "--precision", "12", "--", "-t", "-1", "0", "1"],
        ["eval", "--place", lex2_path, "--json", "x1^3/x2^2"],
        ["nonesuch"],
        ["eval", "--place", lex2_path, "x1 + 1"],
        ["as", "--p", "2", "--precision", "8", "1/t"],
        ["lift", "--p", "4", "--precision", "4", "--", "t", "1"],
        ["perron", "--group", "q", "3/2", "1/2"],
        ["gallery", "G1", "--p", "3"],
        ["gallery", "G1"],
        ["list"],
    ]
    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(_call(capsys, argv))
    cli.build_parser.cache_clear()
    assert [_call(capsys, argv) for argv in calls] == alone
    assert cli.build_parser.cache_info().misses == 1
    assert [a[0] for a in alone] == [0, ("SystemExit", 2), 0, 0, ("SystemExit", 2), 0, 0, 2, 0, 0, 0, 0]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["lift", "--p", "\u0665", "--precision", "4", "--", "-1-t", "0", "1"], "--p"),
        (["gallery", "G1", "--p", "1_1"], "--p"),
        (["as", "--p", "2.0", "--precision", "4", "1/t"], "--p"),
        (["gallery", "G2", "--k-max", "1e1"], "--k-max"),
        (["gallery", "G8", "--seed", "1/2"], "--seed"),
        (["gallery", "G1", "--p", "0^0"], "--p"),
        (["lift", "--p", "2^1000000000000", "--precision", "4", "--", "-1-t", "0", "1"], "--p"),
        (["gallery", "G1", "--precision", "5/2"], "--precision"),
    ],
    ids=[
        "arabic_indic_digit", "separator", "decimal", "exponent", "fraction", "zero_to_zero",
        "power_over_budget", "gallery_fractional_precision",
    ],
)
def test_integer_flags_read_through_the_number_reader(capsys, argv, flag):
    # --p, --k-max, --seed and gallery's --precision refuse what parse_elem
    # refuses, with exit 2
    code, out, err = _call(capsys, argv)
    assert (code, out) == (("SystemExit", 2), "")
    assert f"error: argument {flag}: " in err


def test_integer_flags_read_expressions(capsys):
    five = _call(capsys, ["gallery", "G1", "--p", "5"])
    assert five[0] == 0 and _call(capsys, ["gallery", "G1", "--p", "2^2 + 1"]) == five


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["lift", "--p", "2"])  # missing --precision
    assert exc.value.code == 2


def test_no_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "coeffs, code, first",
    [
        (["-1000002-t", "1"], 0, "root = 1000002*t^(0) + 1*t^(1) + O(t^(4))\n"),
        (["-2-t", "0", "1"], 2, "error: residue polynomial has no simple root in the residue field\n"),
    ],
)
def test_residue_root_over_a_large_prime_is_fast(capsys, coeffs, code, first):
    # every element of F_1000003 was tried before: 6 s and 9 s
    start = time.perf_counter()
    got, out, err = run(capsys, ["lift", "--p", "1000003", "--precision", "4", "--", *coeffs])
    assert time.perf_counter() - start < 1
    assert got == code
    assert (out if code == 0 else err).startswith(first)


def test_large_residue_root_over_a_61_bit_prime(capsys):
    # X^2 + 150 X + 5000 + t has the residue roots p - 100 < p - 50
    p = 2**61 - 1
    start = time.perf_counter()
    code, out, err = run(capsys, ["lift", "--p", str(p), "--precision", "4", "--", "5000+t", "150", "1"])
    assert time.perf_counter() - start < 2
    assert code == 0 and err == ""
    assert out.startswith(f"root = {p - 100}*t^(0) + ")


def test_power_beyond_the_term_budget_exits_2(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["lift", "--p", "1000003", "--precision", "4", "--", "-(1+t)^20000", "1"])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err


GOLDEN_PLACES = Path(__file__).parent / "golden" / "places"


def test_large_power_at_an_exact_binomial_is_fast(capsys):
    # x1 -> 1 + t exact: the power is formed on the precision ladder, so it
    # costs a few terms, not the 3001 of the full binomial expansion
    start = time.perf_counter()
    got = run(capsys, ["eval", "--place", str(GOLDEN_PLACES / "exact_binomial.json"), "x1^3000"])
    assert time.perf_counter() - start < 0.5
    assert got == (0, "v = 0, residue = 1\n", "")


# exact assignments x1 -> 2t and x1 -> 2 + t over Q, for places the tests write
_EXACT_X1 = {"two_t": [["1", "2"]], "two_plus_t": [["0", "2"], ["1", "1"]]}


def _exact_place(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "variant": "series_embed", "field": {"kind": "Q"}, "group": {"kind": "Q"},
        "assignments": [["x1", {"terms": _EXACT_X1[name], "precision": None}]],
    }), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("place, expression, needle", [
    ("eval_q", "2^15000", "digits, the most that print"),
    ("eval_q", "2^15000/x1", "digits, the most that print"),
    ("eval_q", "2^1000000000000", "budget of 1048576"),
    ("two_t", "x1^1000000000000", "budget of 1048576"),
    ("two_t", "(x1/3)^(-1000000000000)", "budget of 1048576"),
    # a power of several terms leads with 2^(10^12), refused before squaring
    ("two_plus_t", "x1^1000000000000", "budget of 1048576"),
])
def test_huge_rationals_exit_2_with_one_line(capsys, tmp_path, place, expression, needle):
    if place in _EXACT_X1:
        path = _exact_place(tmp_path, place)
    else:
        path = str(GOLDEN_PLACES / f"{place}.json")
    start = time.perf_counter()
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, ["eval", "--place", path, *extra, expression])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
    assert time.perf_counter() - start < 1


def test_powers_of_zero_and_units_have_no_size_budget(capsys):
    path = str(GOLDEN_PLACES / "eval_q.json")
    start = time.perf_counter()
    code, out, _ = run(capsys, ["eval", "--place", path, "(-1)^1000000000001 + 0^1000000000000"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, "v = (0,0), residue = -1\n")


def _golden_json():
    """Every golden whose output is one JSON document, parsed."""
    docs = {}
    for path in sorted((Path(__file__).parent / "golden").glob("*.txt")):
        body = path.read_text(encoding="utf-8").split("\n", 1)[1]
        try:
            docs[path.stem] = json.loads(body)
        except ValueError:
            continue  # text output
    return docs


def _random_json(rng, depth=0):
    kind = rng.randrange(8 if depth < 4 else 5)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.randrange(-10**25, 10**25)
    if kind == 2:
        return rng.choice([0.5, -1e300, 1.25e-7, float("inf")])
    if kind in (3, 4):
        return "".join(rng.choice('az"\\/\n\t\x01é☃\U0001f600 ') for _ in range(rng.randrange(6)))
    if kind == 5:
        return tuple(_random_json(rng, depth + 1) for _ in range(rng.randrange(3)))
    if kind == 6:
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {_random_json(rng, 4) if rng.randrange(4) == 0 and kind else "k" + str(rng.randrange(9)):
            _random_json(rng, depth + 1) for _ in range(rng.randrange(4))}


def test_json_writer_matches_json_dumps():
    docs = _golden_json()
    assert len(docs) >= 40 and "lift_json" in docs and "list_json" in docs
    values = list(docs.values())
    rng = random.Random(41)
    values += [_random_json(rng) for _ in range(2000)]
    values += [{}, [], (), "", {"a": []}, [{}], {1: 2, 3: "x"}, {None: 1}, {True: 0}, {2.5: 1}]
    for value in values:
        try:
            want = json.dumps(value, indent=2, sort_keys=True)
        except TypeError:  # keys of mixed types cannot be sorted
            with pytest.raises(TypeError):
                cli._json_text(value)
            continue
        assert cli._json_text(value) == want
    for bad in ({(1, 2): 0}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._json_text(bad)


def test_lift_json_leaves_no_cyclic_garbage(capsys):
    argv = ["lift", "--p", "3", "--precision", "12", "--json", "--", "-t", "-1", "0", "1"]
    assert cli.main(argv) == 0  # the parser and GF(3) built and cached
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        assert cli.main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert json.loads(capsys.readouterr().out)["steps"] == ["1", "3", "9"]
