"""End-to-end checks of the scenario gallery: catalog shape, per-scenario
claims, ramification bookkeeping, determinism, and parameter validation."""

import json
import time
from random import Random

import pytest

from valuedfields.errors import HypothesisError, ParamError, PrecisionError
from valuedfields.fields import GF
from valuedfields.gallery import (
    Claim,
    RamificationRow,
    SCENARIO_NAMES,
    _claim,
    _equal,
    _sample_value,
    list_scenarios,
    make_scenario,
    report_to_json,
    run_scenario,
)
from valuedfields.groups import ZZ_GROUP
from valuedfields.hensel import eval_poly_at_series
from valuedfields.polys import mpoly
from valuedfields.series import (
    ValuationResult,
    frobenius_root,
    frobenius_series,
    one_series,
    stream_expand,
    t_pow,
)


def _strip_elapsed(d):
    d = dict(d)
    d.pop("elapsed_ms")
    return d


# ---------------------------------------------------------------------------
# catalog

def test_catalog_has_nine_scenarios_in_stable_order():
    names = [e["name"] for e in list_scenarios()]
    assert names == ["G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8", "G9"]
    assert names == list(SCENARIO_NAMES)


def test_catalog_entries_are_self_describing():
    for entry in list_scenarios():
        assert entry["title"]
        assert len(entry["anchor"]) > 20
        assert isinstance(entry["params"], dict)
        for schema in entry["params"].values():
            assert "type" in schema and "default" in schema


def test_listed_numeric_defaults_are_the_filled_in_values():
    checked = 0
    for entry in list_scenarios():
        filled = dict(make_scenario(entry["name"]).params)
        assert set(filled) == set(entry["params"])
        for name, schema in entry["params"].items():
            assert set(schema) <= {"type", "default", "constraint"}
            if isinstance(schema["default"], int):
                assert filled[name] == schema["default"]
                checked += 1
    assert checked == 17  # every default but G1's precision and G3's S


def test_g3_schema_documents_the_coprimality_constraint():
    entry = next(e for e in list_scenarios() if e["name"] == "G3")
    assert entry["params"]["S"]["constraint"] == "gcd(n, p) = 1 for every n in S"


# ---------------------------------------------------------------------------
# report structure

def test_report_json_schema_keys():
    out = report_to_json(run_scenario("G1", {"p": 2}))
    assert set(out) == {"scenario", "params", "claims", "pass", "elapsed_ms"}
    assert out["scenario"] == "G1"
    assert out["params"] == {"p": 2, "precision": 16}
    for c in out["claims"]:
        assert set(c) == {"description", "lhs", "rhs", "exact_match"}


def test_report_json_includes_ramification_rows_when_present():
    out = report_to_json(run_scenario("G2", {"p": 2, "k_max": 2}))
    rows = out["ramification_data"]
    assert len(rows) == 2
    for row in rows:
        assert row["n"] == row["d"] * row["e"] * row["f"]


def test_ramification_row_rejects_broken_bookkeeping():
    with pytest.raises(HypothesisError):
        RamificationRow("bad", 4, 2, 1, 1)
    with pytest.raises(HypothesisError):
        RamificationRow("bad", 2, 0, 1, 2)


def test_indeterminate_claim_marks_failure():
    def body():
        raise PrecisionError("too short")

    c = _claim("undecidable at this truncation", body)
    assert c.indeterminate and not c.exact_match
    assert "too short" in c.lhs
    assert c.to_json()["indeterminate"] is True


def test_equal_claim_prints_both_sides_and_compares_them():
    ok, bad = _equal("two is two", lambda: 2, 2), _equal("two is three", lambda: 2, 3)
    assert (ok.lhs, ok.rhs, ok.exact_match, ok.indeterminate) == ("2", "2", True, False)
    assert (bad.lhs, bad.rhs, bad.exact_match, bad.indeterminate) == ("2", "3", False, False)
    # an undecided value prints as a bound and fails, but is decided as unequal
    g = ZZ_GROUP.elem(3)
    c = _equal("v = 3", lambda: ValuationResult.at_least(g), ValuationResult.exact(g))
    assert (c.lhs, c.rhs, c.exact_match, c.indeterminate) == (">= 3", "3", False, False)

    def too_short():
        raise PrecisionError("too short")

    c = _equal("undecidable at this truncation", too_short, 0)
    assert c.indeterminate and not c.exact_match and "too short" in c.lhs


def test_plain_claim_json_has_no_indeterminate_key():
    c = Claim("fine", "1", "1", True)
    assert "indeterminate" not in c.to_json()


# ---------------------------------------------------------------------------
# determinism

def test_identical_params_give_identical_reports():
    for name, params in [
        ("G2", {"p": 2, "k_max": 3}),
        ("G3", {"p": 3, "k_max": 4}),
        ("G8", {"p": 2, "k_max": 8, "seed": 5}),
    ]:
        a = _strip_elapsed(report_to_json(run_scenario(name, params)))
        b = _strip_elapsed(report_to_json(run_scenario(name, params)))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# ---------------------------------------------------------------------------
# G1

def test_g1_lift_matches_stream_and_identity():
    r = run_scenario("G1", {"p": 2})
    assert r.passed
    ident, match, doubling = r.claims
    assert ident.lhs == "O(t^(16))"
    assert match.lhs == match.rhs
    assert "t^(8)" in match.lhs
    assert doubling.exact_match


def test_g1_odd_characteristic():
    r = run_scenario("G1", {"p": 3})
    assert r.passed
    # the stream carries coefficient -1 for odd p
    assert "2*t^(1)" in r.claims[1].rhs


def test_g1_at_the_largest_prime_below_the_degree_budget_answers_fast():
    # artinschreier._MAX_AS_DEGREE is 256; p = 257 is refused
    start = time.perf_counter()
    assert run_scenario("G1", {"p": 251, "precision": 8}).passed
    assert time.perf_counter() - start < 1
    with pytest.raises(ParamError, match="^X\\^p - X - c has degree p = 257, above the budget of 256$"):
        run_scenario("G1", {"p": 257, "precision": 8})


# ---------------------------------------------------------------------------
# G2

def test_g2_example_all_levels_exact():
    r = run_scenario("G2", {"p": 2, "k_max": 3})
    assert r.passed
    idents = [c for c in r.claims if "theta_" in c.description and "v(" not in c.description]
    assert len(idents) == 3
    assert idents[0].rhs == "1*t^(-1/2)"
    assert idents[2].rhs == "1*t^(-1/8)"
    values = [c for c in r.claims if c.description.startswith("level") and "v(theta" in c.description]
    assert [c.lhs for c in values] == ["-1/4", "-1/8", "-1/16"]


def test_g2_ramification_rows_close_without_defect():
    r = run_scenario("G2", {"p": 3, "k_max": 4})
    assert r.passed
    assert len(r.ramification_data) == 4
    for row in r.ramification_data:
        assert (row.n, row.e, row.f, row.d) == (3, 3, 1, 1)


def test_g2_chain_claims_are_labeled_finite_level():
    r = run_scenario("G2", {"p": 2, "k_max": 2})
    chain = [c for c in r.claims if "value group" in c.description]
    assert len(chain) == 2
    for c in chain:
        assert "finite-level" in c.description
    assert chain[1].lhs == "(1/8)Z"


# ---------------------------------------------------------------------------
# G3

def test_g3_example_recovers_fourth_root():
    r = run_scenario("G3", {"p": 3, "k_max": 4})
    assert r.passed
    final = r.claims[-1]
    assert "^4 = t below t^(3)" in final.description
    assert final.lhs == final.rhs == "1*t^(1) + O(t^(3))"


def test_g3_tail_value_claim():
    r = run_scenario("G3", {"p": 2, "k_max": 5})
    assert r.passed
    assert r.claims[0].lhs == "-1/5"
    assert r.claims[1].lhs == "1/5"


def test_g3_rejects_denominators_sharing_a_factor_with_p():
    with pytest.raises(ParamError):
        run_scenario("G3", {"p": 3, "k_max": 4, "S": (3, 4)})
    with pytest.raises(ParamError):
        run_scenario("G3", {"p": 3, "k_max": 6})
    with pytest.raises(ParamError):
        run_scenario("G3", {"p": 3, "k_max": 4, "S": (5, 7)})  # k_max missing from S


@pytest.mark.parametrize(
    "S", [(2.5, 4, "5"), (4.0, 5), (True, 4), (4, "5"), "45", 4, [[4]], (4, 4.0), (1, True)],
    ids=["float_and_str", "integral_float", "bool", "mixed", "str", "scalar", "nested",
         "float_equal_to_an_int", "bool_equal_to_an_int"],
)
def test_g3_refuses_denominators_that_are_not_integers(S):
    with pytest.raises(ParamError, match="S must be a collection of integers, got"):
        run_scenario("G3", {"p": 3, "k_max": 4, "S": S})


# ---------------------------------------------------------------------------
# G4

def test_g4_coefficients_have_growing_degree():
    r = run_scenario("G4", {"p": 2, "k_max": 4})
    assert r.passed
    degrees = [c for c in r.claims if "over the prime field" in c.description]
    assert [c.rhs for c in degrees] == ["1", "2", "3", "4"]
    chain = [c for c in r.claims if "lcm" in c.description]
    assert chain[-1].lhs == "12"
    assert all("finite-level" in c.description for c in chain)


# ---------------------------------------------------------------------------
# G5

def test_g5_example_gap_values():
    r = run_scenario("G5", {"p": 2, "k_max": 2})
    assert r.passed
    gaps = [c for c in r.claims if "integer head" in c.description]
    assert [c.lhs for c in gaps] == ["1/4", "1/8"]
    assert [c.rhs for c in gaps] == ["1/4", "1/8"]


def test_g5_deeper_levels():
    r = run_scenario("G5", {"p": 2, "k_max": 4})
    assert r.passed
    gaps = [c for c in r.claims if "integer head" in c.description]
    assert gaps[3].lhs == "1/32"


# ---------------------------------------------------------------------------
# G6

def test_g6_identity_and_rootlessness():
    for p in (2, 3):
        r = run_scenario("G6", {"p": p})
        assert r.passed
        rootless, identity, degree = r.claims
        assert rootless.lhs == "0"
        assert identity.lhs == identity.rhs
        assert degree.lhs == str(p)


# ---------------------------------------------------------------------------
# G7

def test_g7_denominators_covered_and_residues_in_base():
    r = run_scenario("G7", {"k_max": 6})
    assert r.passed
    cover = next(c for c in r.claims if "lcm" in c.description)
    assert cover.lhs == "60"
    residues = [c for c in r.claims if "residue 1" in c.description]
    assert len(residues) == 6
    assert all(c.lhs == "1" for c in residues)
    inverse = r.claims[-1]
    assert inverse.lhs == "-1/6"


# ---------------------------------------------------------------------------
# G8

def test_g8_sampled_invariance():
    r = run_scenario("G8", {"p": 2, "k_max": 12, "seed": 3})
    assert r.passed
    aggregate = [c for c in r.claims if "12 of 12" in c.rhs]
    assert len(aggregate) == 3
    row = r.ramification_data[0]
    assert (row.n, row.e, row.f, row.d) == (2, 1, 1, 2)
    assert "finite-sample" in row.level


def test_g8_odd_characteristic_samples():
    r = run_scenario("G8", {"p": 3, "k_max": 6, "seed": 1})
    assert r.passed


@pytest.mark.parametrize("p", [2, 3, 5])
def test_g8_sample_values_match_the_polynomial_evaluator(p):
    # G8's x and s = x^p, with each sample against eval_poly_at_series on the
    # same polynomial in (t, y), y -> x or s.  A monomial whose coefficients
    # sum to 0 mod p would keep its precision in the table's sum but not in
    # the merged polynomial, so such draws are redrawn.
    field, group = GF(p), ZZ_GROUP
    x = stream_expand(frobenius_root(p), p ** 9, max_terms=16)
    s = frobenius_series(x)
    t = t_pow(field, group, 1)
    rng = Random(p)
    repeats = scaled = 0
    for y, step in ((x, 1), (s, p)):
        powers = [one_series(field, group), y, y * y, y * y * y]
        table = {}
        pool = [(a * step, b) for a in range(4) for b in range(4)]
        done = 0
        while done < 40:
            monomials = rng.sample(pool, 5)
            terms = [(rng.choice(monomials), rng.randrange(1, 3 * p)) for _ in range(rng.randrange(1, 9))]
            merged = {}
            for e, c in terms:
                merged[e] = merged.get(e, 0) + c
            if any(c % p == 0 for c in merged.values()):
                continue
            done += 1
            repeats += len(merged) < len(terms)
            scaled += any(c % p != 1 for _, c in terms)
            h = mpoly(("t", "y"), {e: field.elem(c) for e, c in merged.items()})
            want = eval_poly_at_series(h, {"t": t, "y": y}, field, group)
            assert _sample_value(terms, powers, table) == want
        assert len(table) <= 16
    assert repeats and scaled


# ---------------------------------------------------------------------------
# G9

def test_g9_cusp_value_kernel_and_witness():
    r = run_scenario("G9", {"p": 7})
    assert r.passed
    by_desc = {c.description: c for c in r.claims}
    v = next(c for d, c in by_desc.items() if d.startswith("v(y)"))
    assert v.lhs == "3/2"
    kernel = next(c for d, c in by_desc.items() if "kernel" in d)
    assert kernel.lhs == "oo"
    u3 = next(c for d, c in by_desc.items() if "U3 fails" in d)
    assert u3.lhs == "False" and u3.exact_match
    smooth = next(c for d, c in by_desc.items() if "smooth center" in d)
    assert smooth.lhs == smooth.rhs


def test_g9_rejects_characteristic_two():
    with pytest.raises(ParamError):
        run_scenario("G9", {"p": 2})


# ---------------------------------------------------------------------------
# parameter validation

def test_unknown_scenario_and_params_rejected():
    with pytest.raises(ParamError):
        run_scenario("G10")
    with pytest.raises(ParamError):
        run_scenario("G1", {"p": 2, "bogus": 1})
    with pytest.raises(ParamError):
        run_scenario("G1", {"p": 4})
    with pytest.raises(ParamError):
        run_scenario("G2", {"p": 2, "k_max": 0})
    with pytest.raises(ParamError):
        run_scenario("G8", {"p": 2, "seed": -1})


def test_scenario_params_are_normalized_and_sorted():
    sc = make_scenario("G3", {"p": 3})
    keys = [k for k, _ in sc.params]
    assert keys == sorted(keys)
    params = dict(sc.params)
    assert params["S"] == (2, 4, 5)
    assert params["precision"] == 3
