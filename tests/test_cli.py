"""Command-line contract: one case per exit code, payloads checked against the schemas."""

import json

import pytest

import tailward as tw
from tailward import asymptotic_engine, cli
from tailward import gp_extremes as gp
from tailward.errors import QuadratureFailure
from tailward.reports import FIXTURES


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_tail_exit_ok_emits_a_schema_valid_payload(capsys, validate):
    code, out, err = _run(capsys, "tail", "sum", "--x", "weibull(1,2)", "--y", "edge(0,1)")
    assert code == cli.EXIT_OK and err == ""
    payload = json.loads(out)
    validate(payload["tail"], "tail")
    validate(payload["x"], "model")
    validate(payload["y"], "model")
    tail, claim = tw.sum_tail(tw.make_model("weibull(1,2)"), tw.make_model("edge(0,1)"))
    assert payload["op"] == "sum" and payload["claim"] == claim == "sum_mixed"
    assert payload["tail"] == tw.tail_to_dict(tail)


def test_adhoc_verify_failing_check_exits_one(capsys, validate):
    code, out, _ = _run(capsys, "verify", "sum", "--x", "weibull(1,2)", "--y", "edge(0,1)",
                        "--grid", "4,6,8,10", "--tol", "1e-12")
    assert code == cli.EXIT_CHECK_FAILED
    data = json.loads(out)
    validate(data, "report")
    validate(data["inputs"]["predicted"], "tail")
    assert data["fixture"] == "adhoc-sum" and data["claim"] == "sum_mixed"
    assert data["passed"] is False
    assert data["rule"] == {"type": "ratio_window", "tol": 1e-12, "nonincreasing_last": 3}


def test_unknown_family_exits_two(capsys):
    code, out, err = _run(capsys, "tail", "sum", "--x", "bogus(1)", "--y", "pareto(1,2)")
    assert code == cli.EXIT_SPEC and out == ""
    assert "unknown distribution family 'bogus'" in err


def test_equal_power_product_exits_three(capsys):
    code, out, err = _run(capsys, "tail", "product", "--x", "pareto(1,2)", "--y", "pareto(1,2)")
    assert code == cli.EXIT_ASSUMPTION and out == ""
    assert "equal power exponents" in err


def test_power_product_constant_is_the_closed_form_moment(capsys):
    # C = E X^1.9 for X ~ pareto(1,2), which is 2 / (2 - 1.9) = 20.
    code, out, err = _run(capsys, "tail", "product", "--x", "pareto(1,2)", "--y", "pareto(1,1.9)")
    assert code == cli.EXIT_OK and err == ""
    assert json.loads(out)["tail"] == {"variant": "power", "C": pytest.approx(20.0, rel=1e-12),
                                       "alpha": 1.9}


_LAWS = ("weibull(1,2)", "weibull(1,0.5)", "pareto(1,2)", "pareto(1,3)", "edge(0,1)",
         "edge(2,1)", "lognormal(0,1)", "normal", "constant(1)", "constant(0)")


@pytest.mark.parametrize("op", ["sum", "product"])
@pytest.mark.parametrize("x", _LAWS)
def test_tail_over_registry_pairs_exits_zero_or_three(capsys, validate, op, x):
    # A valid pair either has a closed form or names the failed hypothesis.
    for y in _LAWS:
        code, out, err = _run(capsys, "tail", op, "--x", x, "--y", y)
        assert code in (cli.EXIT_OK, cli.EXIT_ASSUMPTION), (x, y, err)
        if code == cli.EXIT_OK:
            validate(json.loads(out)["tail"], "tail")
        else:
            assert out == "" and err.startswith("hypothesis violated: "), (x, y, err)


def test_quadrature_failure_exits_four(capsys, monkeypatch):
    def failing_moment(model, alpha):
        raise QuadratureFailure("forced failure")

    monkeypatch.setattr(asymptotic_engine, "moment", failing_moment)
    code, out, err = _run(capsys, "tail", "product", "--x", "edge(2,1)", "--y", "pareto(1,2)")
    assert code == cli.EXIT_NUMERIC and out == ""
    assert "forced failure" in err


@pytest.mark.parametrize("op,x,y", [
    ("sum", "weibull(1,2)", "edge(0,1)"),
    ("product", "weibull(1,2)", "edge(2,1)"),
])
def test_adhoc_verify_is_the_fixture_report(capsys, op, x, y):
    # The ad-hoc path and the named fixture build their reports the same way.
    grid = {"sum": "4,6,8,10", "product": "8,12,16,20"}[op]
    code, out, _ = _run(capsys, "verify", op, "--x", x, "--y", y, "--grid", grid)
    assert code == cli.EXIT_OK
    adhoc = json.loads(out)
    fixture = json.loads(tw.reports.run_fixture(f"{op}-mixed-weibull-edge").to_json())
    for key in ("claim", "kind", "inputs", "rule", "rows", "passed", "seed"):
        assert adhoc[key] == fixture[key], key


@pytest.mark.parametrize("op,x,level", [
    ("product", "lognormal(0,1)", "1e300"),
    ("product", "weibull(1,2)", "1e16"),
    ("sum", "weibull(1,0.5)", "1e12"),
])
def test_adhoc_verify_far_out_power_levels_pass(capsys, validate, op, x, level):
    # The referee once returned a converged 0 (ratio 0.0), a converged 7% of
    # the tail, or a failed row at these levels, and the check exited 1.
    code, out, err = _run(capsys, "verify", op, "--x", x, "--y", "pareto(1,2)", "--grid", level)
    assert code == cli.EXIT_OK, err
    data = json.loads(out)
    validate(data, "report")
    assert data["rows"][0]["ratio"] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("op,y,level", [
    ("sum", "edge(0,1)", "1e200"),
    ("product", "edge(2,1)", "1e308"),
])
def test_adhoc_verify_tail_beyond_the_doubles_is_a_failed_row(capsys, validate, op, y, level):
    code, out, err = _run(capsys, "verify", op, "--x", "weibull(1,2)", "--y", y, "--grid", level)
    assert code == cli.EXIT_CHECK_FAILED and "Traceback" not in err
    data = json.loads(out)
    validate(data, "report")
    assert data["rows"][0]["status"].startswith("failed:")


@pytest.mark.parametrize("op,x,y,constant", [
    ("product", "weibull(1,1e300)", "edge(2,1)", "constant C"),
    ("product", "weibull(1e-300,2)", "edge(1e300,1)", "constant C"),
    ("product", "weibull(1e-300,2)", "edge(1e100,0.001)", "rate K"),
    ("sum", "weibull(1e300,2)", "edge(1e300,3)", "constant C"),
])
def test_mixed_tail_constant_beyond_the_doubles_exits_two(capsys, op, x, y, constant):
    # The inputs fit in doubles, the combined tail's constant does not: it
    # once ended in an OverflowError traceback or blamed the user's C=0.0.
    code, out, err = _run(capsys, "tail", op, "--x", x, "--y", y)
    assert code == cli.EXIT_SPEC and out == "" and "Traceback" not in err
    assert f"{op}_mixed_tail: {constant} of the combined tail" in err


def test_bad_grid_exits_two(capsys):
    code, out, err = _run(capsys, "verify", "sum", "--x", "weibull(1,2)", "--y", "edge(0,1)",
                          "--grid", "a:b:1")
    assert code == cli.EXIT_SPEC and out == ""
    assert err == "specification error: bad grid 'a:b:1'\n"


@pytest.mark.parametrize("fixture", list(FIXTURES))
def test_verify_runs_each_fixture_under_its_own_target(capsys, tmp_path, fixture):
    target = fixture.split("-")[0]
    code, out, err = _run(capsys, "verify", target, "--fixture", fixture,
                          "--out", str(tmp_path))
    assert code == cli.EXIT_OK and err == ""
    report = json.loads((tmp_path / f"{fixture}.json").read_text())
    assert report["fixture"] == fixture and report["passed"] is True


@pytest.mark.parametrize("target,fixture", [
    ("watson", "sum-mixed-weibull-edge"),
    ("sum", "product-mixed-weibull-edge"),
    ("product", "laplace-truncated-kernel"),
    ("laplace", "watson-kernel"),
])
def test_verify_fixture_of_another_target_exits_two(capsys, tmp_path, target, fixture):
    dest = tmp_path / "out"
    code, out, err = _run(capsys, "verify", target, "--fixture", fixture, "--out", str(dest))
    assert code == cli.EXIT_SPEC and out == ""
    assert err == f"specification error: fixture {fixture!r} is not a {target} fixture\n"
    assert not dest.exists()


@pytest.mark.parametrize("argv", [
    ("tail", "sum", "--x", "weibull(1,2)", "--y", "edge(0,1)"),
    ("verify", "sum", "--fixture", "sum-mixed-weibull-edge"),
])
def test_unwritable_out_exits_two(capsys, tmp_path, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = _run(capsys, *argv, "--out", str(blocker / "out"))
    assert code == cli.EXIT_SPEC and out == ""
    assert err.startswith("specification error: ") and err.count("\n") == 1


def test_gp_constants_payload_matches_its_schema(capsys, validate):
    code, out, _ = _run(capsys, "gp", "constants", "--H", "0.5", "--beta", "1",
                        "--alpha-loc", "1")
    assert code == cli.EXIT_OK
    validate(json.loads(out), "constants")


@pytest.mark.parametrize("argv", [
    ("pickands", "--alpha", "1"),
    ("econst", "--alpha", "1", "--beta", "1"),
])
def test_gp_estimate_payload_matches_its_schema(capsys, validate, argv):
    code, out, _ = _run(capsys, "gp", *argv, "--paths", "64", "--steps", "1024")
    assert code == cli.EXIT_OK
    validate(json.loads(out), "estimate")


def test_tail_estimate_matches_its_schema(validate):
    est = tw.estimate_sf(tw.make_model("weibull(1,2)"), tw.make_model("pareto(1,2)"),
                         "sum", [3.0], 10 ** 3, seed=0)[0]
    validate(json.loads(json.dumps(est.to_dict())), "estimate")


@pytest.mark.parametrize("argv", [
    ("constants", "--H", "0.5", "--beta", "1", "--alpha-loc", "1", "--d-ref", "a:b"),
    ("constants", "--H", "0.5", "--beta", "1", "--alpha-loc", "1", "--d-ref", "1:2:3"),
    ("tail", "--model", '{"preset": "fbm"}'),
    ("tail", "--model", '{"H": "x", "beta": 1, "alpha_loc": 1}'),
    ("tail", "--model", '{"preset": "bm", "beta": "x"}'),
    ("tail", "--model", '{"preset": "bm", "eta": {"delta": 0, "C": 1, "mu": 1}, "e_const": "x"}'),
    ("tail", "--model", "[1]"),
    ("pickands", "--alpha", "1", "--paths", "0"),
    ("pickands", "--alpha", "1", "--paths", "1"),
    ("pickands", "--alpha", "1", "--steps", "100"),
    ("pickands", "--alpha", "1", "--T", "-1"),
    ("econst", "--alpha", "1", "--beta", "1", "--paths", "0"),
    ("econst", "--alpha", "1", "--beta", "1", "--paths", "1"),
    ("tail", "--model", '{"preset": "fBm", "H": 0.3, "beta": 1, "alpha_loc": 0.6, "pickands": 1,'
                        ' "eta": {"delta": 0.5, "C": 1, "mu": 1}}'),
    ("tail", "--model", '{"preset": ["bm"]}'),
    ("tail", "--model", '{"preset": "bm", "H": 0.3, "eta": {"delta": 0, "C": 1, "mu": 1}}'),
    ("tail", "--model", '{"preset": "bm", "d_ref": {"s": 1, "value": 2}}'),
    ("tail", "--model", '{"preset": "fbm", "H": 0.3, "beta": 1, "alpha_loc": 1}'),
    ("tail", "--model", '{"preset": "bm", "eta": {"delta": NaN, "C": 1, "mu": 1}}'),
    ("tail", "--model", '{"preset": "bm", "eta": {"delta": Infinity, "C": 1, "mu": 1}}'),
    ("tail", "--model", '{"preset": "bm", "eta": {"delta": 0, "C": 1, "mu": 1},'
                        ' "zeta": {"delta0": Infinity, "C": 1, "gamma": 0.5}}'),
    ("tail", "--model", '{"preset": "bm", "eta": {"delta": 0, "C": 1, "mu": 1},'
                        ' "zeta": {"C": 1, "gamma": NaN}}'),
])
def test_malformed_gp_input_exits_two(capsys, argv):
    code, out, err = _run(capsys, "gp", *argv)
    assert code == cli.EXIT_SPEC and out == ""
    assert err.startswith("specification error: ") and err.count("\n") == 1


def test_gp_fbm_without_paths_exits_two_and_writes_nothing(capsys, tmp_path):
    out = tmp_path / "paths.fbm"
    code, stdout, err = _run(capsys, "gp", "fbm", "--H", "0.5", "--steps", "8", "--T", "1",
                             "--paths", "0", "--out", str(out))
    assert code == cli.EXIT_SPEC and stdout == ""
    assert err == "specification error: need --paths >= 1, got 0\n"
    assert not out.exists()


def test_gp_tail_reads_a_long_inline_model_and_a_model_file(capsys, tmp_path):
    model = {"preset": "bm", "eta": {"delta": 0.5, "C": 1.0, "mu": 1.0},
             "zeta": {"C": 1.0, "gamma": 3.0}, "note": "x" * 300}
    code, inline, _ = _run(capsys, "gp", "tail", "--model", json.dumps(model))
    assert code == cli.EXIT_OK
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, from_file, _ = _run(capsys, "gp", "tail", "--model", str(path))
    assert code == cli.EXIT_OK and from_file == inline


_ZERO_EDGE = {"delta": 0.0, "C": 1.0, "mu": 1.0}


@pytest.mark.parametrize("model, case", [
    ({"preset": "bm", "eta": _ZERO_EDGE}, "slope_only"),
    ({"preset": "fbm", "H": 0.25, "beta": 1.0, "pickands": 0.8, "eta": _ZERO_EDGE,
      "zeta": {"C": 1.0, "gamma": 0.5}}, "offset_dominates"),
    ({"preset": "bm", "eta": _ZERO_EDGE, "zeta": {"C": 1.0, "gamma": 3.0}}, "slope_dominates"),
    ({"preset": "bm", "beta": 2.0, "eta": {"delta": 0.5, "C": 1.0, "mu": 1.0},
      "zeta": {"delta0": 0.2, "C": 1.0, "gamma": 1.0}}, "edge_offset"),
])
def test_gp_tail_payload_per_regime(capsys, validate, model, case):
    code, out, err = _run(capsys, "gp", "tail", "--model", json.dumps(model))
    assert code == cli.EXIT_OK and err == ""
    payload = json.loads(out)
    validate(payload["tail"], "tail")
    tail, expected = gp.trend_tail(cli._trend_model_from_json(json.dumps(model)))
    assert payload["case"] == expected == case
    assert payload["tail"] == tw.tail_to_dict(tail)


def test_gp_tail_refuses_equal_orders_and_needs_eta(capsys):
    equal = {"preset": "bm", "eta": _ZERO_EDGE, "zeta": {"C": 1.0, "gamma": 1.0}}
    code, out, err = _run(capsys, "gp", "tail", "--model", json.dumps(equal))
    assert code == cli.EXIT_ASSUMPTION and out == ""
    assert err.startswith("hypothesis violated: ")
    no_eta = {"preset": "bm", "zeta": {"C": 1.0, "gamma": 1.0}}
    code, out, err = _run(capsys, "gp", "tail", "--model", json.dumps(no_eta))
    assert code == cli.EXIT_SPEC and out == ""
    assert err.startswith("specification error: ")


def test_gp_verify_fixture_report_and_unknown_name(capsys, validate):
    code, out, err = _run(capsys, "gp", "verify", "--fixture", "bm-random-slope")
    assert code == cli.EXIT_OK and err == ""
    report = json.loads(out)
    validate(report, "report")
    assert report["fixture"] == "bm-random-slope" and report["passed"] is True
    code, out, err = _run(capsys, "gp", "verify", "--fixture", "no-such-fixture")
    assert code == cli.EXIT_SPEC and out == ""
    assert err.startswith("specification error: unknown gp fixture 'no-such-fixture'")
