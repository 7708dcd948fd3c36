"""End-to-end CLI tests: exit codes, report schema, determinism."""

import json
from fractions import Fraction

import pytest

import jsonschema

from hoffman import (
    ClassicalParams,
    eigenvalues,
    intersection_array,
    local_graph_params,
    verify_proposition_cal,
)
from hoffman.cli import REPORT_SCHEMA, _emit, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip().startswith("{") else None
    if report is not None:
        jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


@pytest.fixture
def k5_json(tmp_path):
    path = tmp_path / "k5.json"
    path.write_text(json.dumps({
        "n": 5,
        "edges": [[i, j] for i in range(5) for j in range(i + 1, 5)],
    }))
    return str(path)


@pytest.fixture
def k4_json(tmp_path):
    path = tmp_path / "k4.json"
    path.write_text(json.dumps({
        "n": 4,
        "edges": [[i, j] for i in range(4) for j in range(i + 1, 4)],
    }))
    return str(path)


@pytest.fixture
def small_float_limit(monkeypatch):
    import hoffman.exact as exact

    monkeypatch.setattr(exact, "FLOAT_ORDER_LIMIT", 3)


@pytest.fixture
def c5_g6(tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text("Dhc\n")
    return str(path)


def test_lambda_min_with_exact_threshold(capsys, k5_json):
    code, report = run_cli(capsys, "lambda-min", "--graph", k5_json, "--at-least", "-1")
    assert code == 0
    assert report["results"]["at_least"]["holds"] is True
    assert abs(report["results"]["lambda_min_float"] + 1.0) < 1e-9


def test_negative_fraction_is_an_option_value(capsys, k5_json, c5_g6):
    # argparse alone reads -5/2 and -1e0 as options and reports a missing argument
    for value, threshold in (("-5/2", "-5/2"), ("-1e0", "-1")):
        code, report = run_cli(capsys, "lambda-min", "--graph", k5_json, "--at-least", value)
        assert code == 0
        assert report["results"]["at_least"] == {"threshold": threshold, "holds": True}
    for value in ("-1/2", "-2.5e-1"):
        code = main(["bose-laskar", "--graph", c5_g6, "--x", "0", "--lam", value, "--c", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: lambda must be non-negative\n"


@pytest.fixture
def star11_json(tmp_path):
    # K_{1,10}: lambda_min = -sqrt(10) < -3
    path = tmp_path / "star11.json"
    path.write_text(json.dumps({"n": 11, "edges": [[0, i] for i in range(1, 11)]}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["lambda-min", "--graph", "{c5}", "--at-least", "-1"],
    ["check-intro2", "--graph", "{star11}", "--c", "1"],
])
def test_refutation_is_rechecked_on_the_graph(capsys, monkeypatch, c5_g6, star11_json, argv):
    # both commands refute lambda_min >= -t; a witness that fails the
    # re-check on the graph is an error, not a verdict
    import hoffman.forbidden as forbidden

    monkeypatch.setattr(forbidden, "graph_quadratic_form", lambda G, t, x: 0)
    code = main([a.format(c5=c5_g6, star11=star11_json) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: internal error: witness failed re-verification\n"


def test_lambda_min_graph6_autodetect(capsys, c5_g6):
    code, report = run_cli(capsys, "lambda-min", "--graph", c5_g6)
    assert code == 0
    assert abs(report["results"]["lambda_min_float"] + 1.618033988749895) < 1e-9


def test_assoc(capsys, k5_json):
    code, report = run_cli(capsys, "assoc", "--graph", k5_json, "--q", "3")
    assert code == 0
    assert report["results"]["fats"] == 1
    assert report["results"]["cliques"] == [[0, 1, 2, 3, 4]]


@pytest.fixture
def lk6_json(tmp_path):
    # L(K6): vertex k is the k-th pair of {0..5} in lexicographic order
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    path = tmp_path / "lk6.json"
    path.write_text(json.dumps({
        "n": len(pairs),
        "edges": [[i, j] for i in range(len(pairs)) for j in range(i + 1, len(pairs))
                  if set(pairs[i]) & set(pairs[j])],
    }))
    return str(path)


def test_assoc_line_graph_lists_the_stars_in_order(capsys, lk6_json):
    # the maximal cliques of L(K6) are the 6 stars of order 5 and the 20
    # triangles; at q = 4 only the stars become fat vertices
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    stars = [[k for k, pair in enumerate(pairs) if a in pair] for a in range(6)]
    code, report = run_cli(capsys, "assoc", "--graph", lk6_json, "--q", "4")
    assert code == 0
    res = report["results"]
    assert (res["n"], res["fats"]) == (15, 6)
    assert res["cliques"] == res["hoffman"]["fat_adj"] == sorted(stars)
    code, report = run_cli(capsys, "assoc", "--graph", lk6_json, "--q", "3")
    assert code == 0
    assert report["results"]["fats"] == 26


def test_bose_laskar_vertex_out_of_range_is_an_input_error(capsys, lk6_json):
    code = main(["bose-laskar", "--graph", lk6_json, "--x", "15", "--lam", "2", "--c", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: vertex 15 out of range\n"


def test_bose_laskar(capsys, c5_g6):
    code, report = run_cli(
        capsys, "bose-laskar", "--graph", c5_g6, "--x", "0", "--lam", "2", "--c", "1")
    assert code == 0
    assert report["results"]["bound1"] == "3/2"
    assert report["results"]["clique1"] == [0, 1]


def test_bose_laskar_search_budget_is_an_error(capsys, monkeypatch, c5_g6):
    import hoffman.graphs as graphs

    monkeypatch.setattr(graphs, "MIS_NODE_BUDGET", 1)
    code = main(["bose-laskar", "--graph", c5_g6, "--x", "0", "--lam", "2", "--c", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: no maximum independent set within 1 search nodes\n"


def test_bose_laskar_negative_lambda_is_an_input_error(capsys, c5_g6):
    code = main(["bose-laskar", "--graph", c5_g6, "--x", "0", "--lam", "-2", "--c", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: lambda must be non-negative\n"


def test_assoc_clique_limit_is_an_error(capsys, monkeypatch, c5_g6):
    import hoffman.graphs as graphs

    monkeypatch.setattr(graphs, "MAX_CLIQUES", 3)
    code = main(["assoc", "--graph", c5_g6, "--q", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: more than 3 maximal cliques\n"


def test_assoc_has_no_limit_option(capsys, c5_g6):
    # the clique limit is the library constant graphs.MAX_CLIQUES
    assert main(["assoc", "--graph", c5_g6, "--q", "2", "--limit", "5"]) == 1
    assert capsys.readouterr().err.startswith("usage error: unrecognized arguments: --limit")


def test_check_intro2_desk_scale_fails_clique_condition(capsys, c5_g6):
    code, report = run_cli(capsys, "check-intro2", "--graph", c5_g6, "--c", "1")
    assert code == 2
    assert report["results"]["condition_mu"]["passed"]
    assert not report["results"]["condition_clique_order"]["passed"]


def test_scan_forbidden_matrix(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[-2, 0, 1], [0, -2, -1], [1, -1, -2]]))
    code, report = run_cli(capsys, "scan-forbidden", "--matrix", str(path), "--t", "2")
    assert code == 0
    assert report["results"]["hit"]["family_member"] == "m_7"


def test_scan_forbidden_hoffman(capsys, tmp_path):
    path = tmp_path / "h5.json"
    path.write_text(json.dumps({
        "slim": 3,
        "fat": 2,
        "slim_edges": [[0, 1], [0, 2], [1, 2]],
        "fat_adj": [[0, 1, 2], [0, 1, 2]],
    }))
    code, report = run_cli(capsys, "scan-forbidden", "--hoffman", str(path), "--t", "2")
    assert code == 0
    assert report["results"]["hit"]["family_member"] == "m_5"


def test_drg_params(capsys):
    code, report = run_cli(
        capsys, "drg", "params", "--D", "4", "--b", "2", "--alpha", "2", "--beta", "62")
    assert code == 0
    res = report["results"]
    assert res["delsarte_bound"] == "63"
    assert res["c"][2] == "9"
    assert res["eigenvalues"][-1] == "-15"
    assert res["local_graph"]["lambda_lb"] == "-3"
    # every rational is the "p/q" string of the library's Fraction
    p = ClassicalParams(4, 2, 2, 62)
    arr = intersection_array(p)
    local = local_graph_params(p)

    def strings(values):
        assert all(isinstance(v, Fraction) for v in values)
        return [str(v) for v in values]

    assert res["c"] == strings(arr.c)
    assert res["b_seq"] == strings(arr.b)
    assert res["a"] == strings(arr.a)
    assert res["eigenvalues"] == strings(eigenvalues(p))
    assert res["local_graph"] == dict(zip(
        ("n", "w", "c", "lambda_lb"),
        strings((local.n, local.w, local.c_local, local.lambda_lb))))


def test_drg_scan(capsys):
    code, report = run_cli(
        capsys, "drg", "scan", "--b", "2", "--D", "12", "--alpha-max", "9",
        "--checks", "6,6")
    assert code == 0
    assert report["results"]["survivors"] == ["0", "1/3", "2/3", "1", "4/3", "2", "9"]


def test_verify_thresholds_ok(capsys):
    code, report = run_cli(capsys, "verify-paper", "thresholds")
    assert code == 0
    assert report["results"]["n1_3"] == 48
    pinned = {(r["c"], r["q"], r["max_n2"]) for r in report["results"]["per_c"]}
    assert {(1, 66, 66), (6, 316, 316), (20, 316, 316)} <= pinned


def test_verify_cal_ok(capsys):
    code, report = run_cli(capsys, "verify-paper", "cal")
    assert code == 0
    assert len(report["results"]["checks"]) == 9
    assert len(report["exact_certificates"]) == 9
    # the suite reports the library's entries as they are
    assert report["results"]["checks"] == verify_proposition_cal()


def test_verify_prop215_small(capsys):
    code, report = run_cli(capsys, "verify-paper", "prop215", "--s-max", "3")
    assert code == 0
    assert report["results"]["ok"] is True


def test_verify_prop215_beyond_float_limit(capsys):
    # s = 7 builds a 2025-vertex expansion and s = 10 one of 8922 vertices with
    # 3.98 M edges: the exact certificates hold and the floating evidence is
    # reported as null above the solver's limit
    code, report = run_cli(capsys, "verify-paper", "prop215", "--s-max", "10")
    assert code == 0
    assert report["results"]["ok"] is True
    s_values = report["results"]["s_values"]
    assert [r["s"] for r in s_values] == list(range(2, 11))
    assert all(c["exact_verdict"] and c["det_shifted"] == "-1"
               for r in s_values for c in r["checks"])
    for r, vertices in ((s_values[5], [345, 165, 2025]), (s_values[8], [1002, 354, 8922])):
        checks = r["checks"]
        assert [c["vertices"] for c in checks] == vertices
        assert [c["graph_lambda_min"] is None for c in checks] == [False, False, True]


def test_verify_prop215_past_the_vertex_limit_is_one_error_line(capsys):
    # at s = 11 the pendant-pair expansion would have 13213 vertices
    assert main(["verify-paper", "prop215", "--s-max", "11"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "13213 vertices" in err


def test_verify_prop5_reports_extra_survivor(capsys):
    # the exact scan has one survivor beyond the claimed set, so the suite
    # reports non-reproduction
    code, report = run_cli(capsys, "verify-paper", "prop5")
    assert code == 2
    assert report["results"]["extra_survivors"] == ["9"]
    assert report["results"]["missing_survivors"] == []
    assert report["results"]["leading_constant"] == 230674393235
    # 25 of the 28 grid points k/3 pass the sieves and are tested exactly
    assert report["results"]["candidates"] == 25
    assert report["exact_certificates"][0].startswith(
        "exact scan over alpha = k/3, k = 0..27, 25 tested exactly: survivors ")


def test_verify_beta_reports_counterexample(capsys):
    code, report = run_cli(capsys, "verify-paper", "beta")
    assert code == 2
    assert report["results"]["f_violations"] == [{"b": 2, "f": "2187/175"}]
    assert report["results"]["tail_bound_below_1"] is True
    assert report["results"]["monotonic_spot_checks"] is True


def test_verify_alphab_desk_slice_small(capsys):
    code, report = run_cli(capsys, "verify-paper", "alphab", "--bs", "2,3,4")
    assert code == 0
    per_b = {r["b"]: r for r in report["results"]["per_b"]}
    assert per_b[2]["survivors"] == ["0", "1/3", "2/3", "1", "4/3", "2"]
    assert per_b[4]["square"] is True
    assert "6" in per_b[4]["survivors"]


def test_verify_alphab_reports_candidates(capsys):
    code, report = run_cli(capsys, "verify-paper", "alphab", "--bs", "2,9")
    assert code == 0
    for entry in report["results"]["per_b"]:
        b = entry["b"]
        # the divisor route tests fewer alpha values than the whole grid
        assert len(entry["survivors"]) <= entry["candidates"] < b * b * (b + 1) ** 2 + 1


def test_verify_alphab_full_range(capsys):
    code, report = run_cli(capsys, "verify-paper", "alphab", "--full")
    assert code == 0
    per_b = report["results"]["per_b"]
    assert [entry["b"] for entry in per_b] == list(range(2, 101))
    assert all(entry["ok"] for entry in per_b)
    assert report["results"]["ok"] is True


def test_repeated_main_calls_share_no_state(capsys):
    scan = ["drg", "scan", "--b", "2", "--D", "12", "--alpha-max", "9"]
    assert main(["--format", "text"] + scan + ["--checks", "6,6", "--checks", "5,5"]) == 0
    assert capsys.readouterr().out.startswith("# drg scan")
    code, report = run_cli(capsys, *scan, "--checks", "6,6")
    assert code == 0
    assert report["results"]["checks"] == [[6, 6]]
    assert main(scan + ["--checks", "6,6", "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("# drg scan")
    code, report = run_cli(capsys, *scan, "--checks", "5,5")
    assert code == 0
    assert report["results"]["checks"] == [[5, 5]]
    assert main(["drg", "scan"]) == 1
    code, report = run_cli(capsys, "verify-paper", "thresholds")
    assert code == 0
    assert report["inputs"]["suite"] == "thresholds"
    assert build_parser() is build_parser()


def test_drg_scan_over_the_grid_cap_is_one_error_line(capsys):
    # (1, 3) leaves only the full grid, here 3 * 10^9 + 1 points
    argv = ["drg", "scan", "--b", "2", "--D", "14", "--alpha-max", "1e9", "--checks", "1,3"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the alpha grid has 3000000001 points, "
        "more than the 1000000 a scan tests one by one\n"
    )


def test_usage_error_exit_code(capsys):
    assert main([]) == 1
    assert main(["drg", "scan", "--b", "2"]) == 1


@pytest.mark.parametrize("option, argv", [
    ("--at-least", ["lambda-min", "--graph", "g.json", "--at-least", "{}"]),
    ("--lam", ["bose-laskar", "--graph", "g.json", "--x", "0", "--lam", "{}", "--c", "1"]),
    ("--alpha-max", ["drg", "scan", "--b", "2", "--D", "14", "--alpha-max", "{}",
                     "--checks", "6,6"]),
    ("--alpha", ["drg", "params", "--D", "3", "--b", "2", "--alpha", "{}", "--beta", "1"]),
    ("--beta", ["drg", "params", "--D", "3", "--b", "2", "--alpha", "1", "--beta", "{}"]),
])
@pytest.mark.parametrize("value", ["1/0", "abc"])
def test_bad_rational_option_is_a_usage_error(capsys, option, argv, value):
    assert main([a.format(value) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument {option}: not a rational number")
    assert "Traceback" not in err


def test_input_error_exit_code(capsys, tmp_path):
    missing = str(tmp_path / "absent.json")
    assert main(["lambda-min", "--graph", missing]) == 1


@pytest.mark.parametrize("text", [
    '{"n": 2, "edges": [[0, "1"]]}',
    '{"n": 2.5, "edges": []}',
    '[[0, 1]]',
])
def test_malformed_graph_is_an_input_error(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["lambda-min", "--graph", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: graph JSON")
    assert err.count("\n") == 1


def test_report_determinism(capsys):
    _, first = run_cli(capsys, "verify-paper", "thresholds")
    _, second = run_cli(capsys, "verify-paper", "thresholds")
    first.pop("timings_ms")
    second.pop("timings_ms")
    assert first == second


def test_text_format(capsys, k5_json):
    code = main(["--format", "text", "lambda-min", "--graph", k5_json])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# lambda-min")


def test_verify_all_aggregates(capsys):
    code, report = run_cli(capsys, "verify-paper", "all", "--s-max", "2", "--bs", "2")
    # the aggregate gate carries the two non-reproduced claims
    assert code == 2
    res = report["results"]
    assert res["ok"] is False
    assert res["cal"]["ok"] is True
    assert res["prop215"]["ok"] is True
    assert res["thresholds"]["ok"] is True
    assert res["alphab"]["ok"] is True
    assert res["prop5"]["ok"] is False
    assert res["beta"]["ok"] is False


def test_drg_scan_rejects_malformed_checks(capsys):
    for value in ("6", "6,6,6", "a,b"):
        assert main(["drg", "scan", "--b", "2", "--D", "12", "--alpha-max", "9",
                     "--checks", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"usage error: argument --checks: expected a pair 'i,h' of integers, got {value!r}\n")
        assert "Traceback" not in err and "unpack" not in err


@pytest.mark.parametrize("s_max", ["1", "0", "-3"])
def test_prop215_s_max_below_two_is_a_usage_error(capsys, s_max):
    # s starts at 2, so a smaller bound would report success with nothing checked
    for suite in ("prop215", "all"):
        assert main(["verify-paper", suite, "--s-max", s_max]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage error: argument --s-max: must be at least 2, got {s_max}\n")


def test_alphab_full_and_bs_are_exclusive(capsys):
    assert main(["verify-paper", "alphab", "--full", "--bs", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: argument --bs: not allowed with argument --full\n")


@pytest.mark.parametrize("bs, message", [
    ("", "expected a comma list of integers, got ''"),
    ("2,,3", "expected a comma list of integers, got '2,,3'"),
    ("a", "expected a comma list of integers, got 'a'"),
    ("2,1", "b must be at least 2, got 1"),
])
def test_alphab_malformed_bs_is_a_usage_error(capsys, bs, message):
    # an empty list, an empty item, a non-integer and b < 2
    assert main(["verify-paper", "alphab", f"--bs={bs}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage error: argument --bs: {message}\n")
    assert "Traceback" not in err


def test_format_after_subcommand(capsys):
    code = main(["verify-paper", "thresholds", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# verify-paper thresholds")


def test_lambda_min_empty_graph(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 0, "edges": []}')
    code, report = run_cli(capsys, "lambda-min", "--graph", str(path))
    assert code == 0
    assert report["results"]["lambda_min_float"] is None


def test_check_intro2_empty_graph_has_null_float(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 0, "edges": []}')
    code, report = run_cli(capsys, "check-intro2", "--graph", str(path), "--c", "1")
    assert code == 0
    cond = report["results"]["condition_lambda_min"]
    assert cond["passed"] is True
    assert cond["lambda_min_float"] is None


def test_lambda_min_exact_verdict_beyond_float_limit(capsys, k4_json, small_float_limit):
    code, report = run_cli(capsys, "lambda-min", "--graph", k4_json, "--at-least", "-1")
    assert code == 0
    assert report["results"]["at_least"]["holds"] is True
    assert report["results"]["lambda_min_float"] is None


def test_check_intro2_exact_verdict_beyond_float_limit(capsys, k4_json, small_float_limit):
    # K4 fails the clique-order condition (exit 2), but condition (iii) is
    # still decided exactly without the floating value
    code, report = run_cli(capsys, "check-intro2", "--graph", k4_json, "--c", "1")
    assert code == 2
    cond = report["results"]["condition_lambda_min"]
    assert cond["passed"] is True
    assert cond["lambda_min_float"] is None


_HOFFMAN = {"slim": 2, "fat": 1, "slim_edges": [[0, 1]], "fat_adj": [[0, 1]]}


@pytest.mark.parametrize("flag,content", [
    ("--hoffman", {**_HOFFMAN, "slim_edges": [[0, "1"]]}),
    ("--hoffman", {**_HOFFMAN, "slim": 2.5}),
    ("--hoffman", {**_HOFFMAN, "fat_adj": [[0, 1.0]]}),
    ("--hoffman", {**_HOFFMAN, "fat": 2}),
    ("--hoffman", [_HOFFMAN]),
    ("--matrix", [[1.5, 0], [0, -2]]),
    ("--matrix", [[1, 2], [3]]),
    ("--matrix", [[0, 1], [0, 0]]),
    ("--hoffman", {**_HOFFMAN, "slim_edges": [[0, 0]]}),
    ("--hoffman", {**_HOFFMAN, "slim_edges": [[0, 5]]}),
    ("--hoffman", {**_HOFFMAN, "slim": -1}),
])
def test_malformed_scan_input_is_an_input_error(capsys, tmp_path, flag, content):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    assert main(["scan-forbidden", flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_report_with_a_value_json_cannot_write_is_an_error(capsys):
    # the one JSON hook writes Fractions as "p/q" (the key "a" sorts first)
    # and refuses everything else, so no Python repr reaches a report
    report = {
        "command": "x", "inputs": {}, "results": {"a": Fraction(1, 2), "b": {1, 2}},
        "exact_certificates": [], "timings_ms": {"total": 1.0},
    }
    for fmt in ("json", "text"):
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            _emit(report, fmt)
    assert "{1, 2}" not in capsys.readouterr().out


def test_every_report_is_validated():
    from hoffman.cli import _validate_report

    # the validator is built once and then reused; each call still checks
    for _ in range(2):
        with pytest.raises(jsonschema.ValidationError):
            _validate_report({"command": "x"})
    _validate_report({
        "command": "x", "inputs": {}, "results": None,
        "exact_certificates": [], "timings_ms": {"total": 1.0},
    })
