"""Command-line contract: one case per exit code, payloads checked against the schemas."""

import argparse
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tailward as tw
from tailward import cli, errors, tail_model
from tailward import gp_extremes as gp
from tailward.errors import QuadratureFailure
from tailward.montecarlo import block_rng
from tailward.reports import FIXTURES, GP_FIXTURES


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


def test_power_product_constant_at_a_small_order_is_the_edge_moment(capsys):
    # C = E X^0.001 for X uniform on [1, 2], (2**1.001 - 1) / 1.001; it once read 0.5222.
    code, out, err = _run(capsys, "tail", "product", "--x", "edge(2,1)",
                          "--y", "pareto(1,0.001)")
    assert code == cli.EXIT_OK and err == ""
    assert json.loads(out)["tail"] == {
        "variant": "power", "C": pytest.approx((2.0 ** 1.001 - 1.0) / 1.001, rel=1e-12),
        "alpha": 0.001}


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
    # edge(2,1) has no closed moment: its E X**2 is a tail integral.
    def failing_quad(*args, **kwargs):
        raise QuadratureFailure("forced failure")

    monkeypatch.setattr(tail_model, "log_quad", failing_quad)
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
    ("product", "weibull(1e-300,1e-300)", "edge(2,1)", "constant C"),
    ("sum", "weibull(1e300,2)", "edge(1e300,3)", "constant C"),
    ("product", "lognormal(0,1e300)", "pareto(1,2)", "constant C"),
    ("product", "lognormal(1e300,1)", "pareto(1,2)", "constant C"),
    ("product", "weibull(1e-300,1e-300)", "pareto(1,2)", "constant C"),
    ("product", "edge(1e300,1e-8)", "pareto(1,2)", "constant C"),
    ("product", "pareto(1e300,1e300)", "weibull(1,2)", "constant C"),
    ("product", "weibull(1,2)", "pareto(1e300,1e300)", "constant C"),
    # C ~ 10**423.4, even assembled in log space.
    ("product", "weibull(1,2)", "edge(2,175)", "constant C"),
])
def test_mixed_tail_constant_beyond_the_doubles_exits_two(capsys, op, x, y, constant):
    # The inputs fit in doubles, the combined tail's constant does not: it
    # once ended in an OverflowError traceback, printed "C": Infinity (not
    # JSON) or blamed the user's C=0.0.  Mixed and power products alike.
    code, out, err = _run(capsys, "tail", op, "--x", x, "--y", y)
    assert code == cli.EXIT_SPEC and out == "" and "Traceback" not in err
    assert re.search(rf"{op}_(mixed|power)_tail: {constant} of the combined tail", err)


@pytest.mark.parametrize("argv,message", [
    (("tail", "product", "--x", "pareto(1e300,1e-8)", "--y", "pareto(1,2)"),
     "pareto support edge C**(1/alpha) is beyond the doubles, got C=1e+300, alpha=1e-08"),
    (("gp", "tail", "--model",
      '{"preset":"bm","eta":{"delta":0,"C":1e300,"mu":1},"e_const":1e300}'),
     "power tail needs finite fields with C, alpha > 0, got C=inf"),
])
def test_law_or_tail_field_beyond_the_doubles_exits_two(capsys, argv, message):
    # A Pareto support edge C**(1/alpha) that overflows, and a random-trend
    # tail constant of inf, once ended in a traceback or printed "C": Infinity.
    code, out, err = _run(capsys, *argv)
    assert code == cli.EXIT_SPEC and out == "" and "Traceback" not in err
    assert err == f"specification error: {message}\n"


def test_bad_grid_exits_two(capsys):
    code, out, err = _run(capsys, "verify", "sum", "--x", "weibull(1,2)", "--y", "edge(0,1)",
                          "--grid", "a:b:1")
    assert code == cli.EXIT_SPEC and out == ""
    assert err == "specification error: bad grid 'a:b:1'\n"


@pytest.mark.parametrize("option,value,message", [
    # Each once exited 1: an empty grid, a non-finite level, a tolerance
    # that is not positive and finite.
    ("--grid", "nan:1:1", "bad grid 'nan:1:1': every part must be finite"),
    ("--grid", "nan", "bad grid 'nan': every part must be finite"),
    ("--grid", "inf", "bad grid 'inf': every part must be finite"),
    ("--grid", "4,-inf", "bad grid '4,-inf': every part must be finite"),
    ("--tol", "nan", "--tol must be positive and finite, got nan"),
    ("--tol", "0", "--tol must be positive and finite, got 0.0"),
    ("--tol", "-1", "--tol must be positive and finite, got -1.0"),
    ("--tol", "inf", "--tol must be positive and finite, got inf"),
])
def test_non_finite_grid_or_bad_tolerance_exits_two(capsys, option, value, message):
    argv = {"--grid": "4,6,8,10", "--tol": "0.05", option: value}
    code, out, err = _run(capsys, "verify", "sum", "--x", "weibull(1,2)", "--y", "edge(0,1)",
                          *(f"{k}={v}" for k, v in argv.items()))
    assert code == cli.EXIT_SPEC and out == ""
    assert err == f"specification error: {message}\n"


@pytest.mark.parametrize("grid,points", [
    ("0.1:0.7:0.1", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]),
    ("4:10:2", [4.0, 6.0, 8.0, 10.0]),
    ("0:1:0.3", [0.0, 0.3, 0.6, 0.9]),
    # Rounded to 12 decimals, a sum of steps gave five 0.0 and ten 1e-12.
    ("1e-13:5e-13:1e-13", [1e-13, 2e-13, 3e-13, 4e-13, 5e-13]),
    # 12 digits of a round up past b: the point is b.
    ("4.12345678901634:4.12345678901634:1", [4.12345678901634]),
])
def test_a_step_grid_is_a_plus_k_steps_up_to_b(capsys, grid, points):
    assert cli._parse_grid(grid) == points
    code, out, err = _run(capsys, "verify", "sum", "--x", "weibull(1,2)", "--y", "edge(0,1)",
                          "--grid", grid)
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED) and err == ""
    assert json.loads(out)["inputs"]["grid"] == points


def test_a_grid_of_too_many_points_is_refused_before_it_is_built():
    # 0:1e300:1 once appended points until memory ran out; the subprocess gets
    # 1 GiB of address space, so an unbounded grid fails without a memory hog.
    import resource

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = subprocess.run(
        [sys.executable, "-m", "tailward.cli", "verify", "sum", "--x", "weibull(1,2)",
         "--y", "edge(0,1)", "--grid", "0:1e300:1"],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
    )
    assert done.returncode == cli.EXIT_SPEC and done.stdout == ""
    assert done.stderr == ("specification error: bad grid '0:1e300:1': more than "
                           f"{cli._MAX_GRID_POINTS} points\n")


@pytest.mark.parametrize("grid,message", [
    ("1:inf:1", "bad grid '1:inf:1': every part must be finite"),
    ("1:2:1e-300", "bad grid '1:2:1e-300'"),
])
def test_grid_that_never_ends_exits_two(grid, message):
    # Both once looped forever; a subprocess with a timeout fails instead.
    done = subprocess.run(
        [sys.executable, "-m", "tailward.cli", "verify", "sum", "--x", "weibull(1,2)",
         "--y", "edge(0,1)", "--grid", grid],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == cli.EXIT_SPEC and done.stdout == ""
    assert done.stderr == f"specification error: {message}\n"


# Each family with parameters: their names and a valid value for each.
_LAW_ARGS = {"weibull": (("K", "alpha"), ("1", "2")), "pareto": (("C", "alpha"), ("1", "2")),
             "edge": (("sigma", "mu"), ("0", "1")), "lognormal": (("m", "s"), ("0", "1")),
             "constant": (("c",), ("0",))}
_LAW_SLOTS = [(family, slot) for family, (names, _) in _LAW_ARGS.items()
              for slot in range(len(names))]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("family,slot", _LAW_SLOTS)
def test_non_finite_law_parameter_exits_two(capsys, family, slot, value):
    # lognormal(nan,1) once built a law that estimated P(X + Y > 10) as 0.
    names, args = _LAW_ARGS[family]
    spec = f"{family}({','.join(value if i == slot else a for i, a in enumerate(args))})"
    message = f"{family} parameter {names[slot]} must be finite, got {float(value)}"
    with pytest.raises(errors.SpecError, match=re.escape(message)):
        tw.make_model(spec)
    for argv in (("tail", "sum"), ("verify", "sum", "--grid", "10")):
        code, out, err = _run(capsys, *argv, "--x", spec, "--y", "pareto(1,2)")
        assert code == cli.EXIT_SPEC and out == ""
        assert err == f"specification error: {message}\n"


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
    code, out, _ = _run(capsys, "gp", "constants", "--model",
                        '{"H": 0.5, "beta": 1, "alpha_loc": 1}')
    assert code == cli.EXIT_OK
    validate(json.loads(out), "constants")


def test_gp_constants_and_gp_tail_read_one_model_file(capsys, tmp_path):
    # The constants ignore eta and zeta, so a gp tail model serves both.
    model = {"preset": "fbm", "H": 0.3, "beta": 1.5, "pickands": 0.8,
             "eta": {"delta": 0.5, "C": 1, "mu": 1}, "zeta": {"C": 1, "gamma": 2}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert _run(capsys, "gp", "tail", "--model", str(path))[0] == cli.EXIT_OK
    code, out, _ = _run(capsys, "gp", "constants", "--model", str(path), "--c", "2")
    assert code == cli.EXIT_OK
    expected = gp.trend_constants(gp.TrendModel.fbm(0.3, 1.5, pickands=0.8), 2.0)
    assert out == json.dumps(expected.to_dict(), indent=2) + "\n"


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
    ("constants", "--model",
     '{"H": 0.5, "beta": 1, "alpha_loc": 1, "d_ref": {"s": "a", "value": 1}}'),
    ("constants", "--model", '{"H": 0.5, "beta": 1, "alpha_loc": 1, "d_ref": [1, 2, 3]}'),
    ("constants", "--model", '{"preset": "bm", "H": 0.3}'),
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


@pytest.mark.parametrize("command", ["constants", "tail"])
@pytest.mark.parametrize("model,message", [
    # Each was once read with float(): true as 1.0, "1" as 1.0.
    ('{"preset": "bm", "beta": true}', 'field beta must be a number, got true'),
    ('{"preset": "bm", "pickands": "1"}', 'field pickands must be a number, got "1"'),
    ('{"preset": "fbm", "H": false, "beta": 1}', 'field H must be a number, got false'),
    ('{"preset": "bm", "eta": {"delta": 0, "C": "1", "mu": 1}}',
     'field eta.C must be a number, got "1"'),
    ('{"preset": "bm", "eta": {"delta": 0, "C": 1, "mu": 1}, "zeta": {"C": 1, "gamma": true}}',
     'field zeta.gamma must be a number, got true'),
    # These once gave "could not convert string to float: 'a'" and a bare TypeError.
    ('{"H": 0.5, "beta": 1, "alpha_loc": 1, "d_ref": {"s": "a", "value": 1}}',
     'field d_ref.s must be a number, got "a"'),
    ('{"H": 0.5, "beta": 1, "alpha_loc": 1, "d_ref": [1, 2, 3]}',
     'field d_ref must be an object, got [1, 2, 3]'),
    ('{"preset": "bm", "eta": {"delta": 0, "C": 1}}', 'field eta.mu is missing'),
    ('{"preset": "bm", "eta": [1]}', 'field eta must be an object, got [1]'),
    ('{"preset": "bm", "beta": 1' + "0" * 400 + '}', 'field beta is beyond the doubles'),
    ("[1]", "a trend model must be a JSON object, got [1]"),
])
def test_a_malformed_trend_model_field_is_named(capsys, command, model, message):
    code, out, err = _run(capsys, "gp", command, "--model", model)
    assert code == cli.EXIT_SPEC and out == ""
    assert err.startswith("specification error: ") and err.count("\n") == 1
    assert message in err


def test_gp_fbm_without_paths_exits_two_and_writes_nothing(capsys, tmp_path):
    out = tmp_path / "paths.fbm"
    code, stdout, err = _run(capsys, "gp", "fbm", "--H", "0.5", "--steps", "8", "--T", "1",
                             "--paths", "0", "--out", str(out))
    assert code == cli.EXIT_SPEC and stdout == ""
    assert err == "specification error: need --paths >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("threads", [None, "1", "2"])
def test_gp_fbm_path_i_is_the_path_an_estimate_draws_for_index_i(capsys, monkeypatch, tmp_path,
                                                               threads):
    # Dumps once drew path i from stream (seed, i) of its own.  130 paths
    # fill two chunks of 64 and two paths of a third, at any thread count.
    if threads is None:
        monkeypatch.delenv("TAILWARD_THREADS", raising=False)
    else:
        monkeypatch.setenv("TAILWARD_THREADS", threads)
    out = tmp_path / "paths.fbm"
    code, _, err = _run(capsys, "gp", "fbm", "--H", "0.7", "--steps", "16", "--T", "2",
                        "--paths", "130", "--seed", "17", "--out", str(out))
    assert code == cli.EXIT_OK and err == ""
    drawn = []

    def spy(H, n, T, rng, work=None):
        path = gp.fbm_path(H, n, T, rng, work)
        drawn.append(path.copy())
        return path

    monkeypatch.setattr(gp.estimators, "fbm_path", spy)
    gp.econst_estimate("fbm", 1.0, 1.0, 2.0, 130, 16, seed=17, H=0.7, workers=1)
    H, T, dumped = gp.read_paths_binary(out)
    assert (H, T, dumped.shape) == (0.7, 2.0, (130, 17))
    assert dumped.tobytes() == np.array(drawn).tobytes()
    # The last two paths are the first two draws of stream (17, 2).
    rng = block_rng(17, 2)
    assert dumped[128:].tobytes() == np.array([gp.fbm_path(0.7, 16, 2.0, rng)
                                               for _ in range(2)]).tobytes()


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


@pytest.mark.parametrize("eta,message", [
    ('{"delta": -1, "C": 1, "mu": 1}',
     "eta must be the edge tail EdgePower(C, -delta, mu) of -eta with delta >= 0, "
     "got EdgePower(C=1.0, sigma=1.0, mu=1.0)"),
    ('{"delta": 0, "C": 0, "mu": 1}',
     "bad eta spec {'delta': 0, 'C': 0, 'mu': 1}: edge_power tail needs finite fields "
     "with C, mu > 0, got C=0.0"),
    ('{"delta": Infinity, "C": 1, "mu": 1}', "trend model field eta.delta must be finite, got inf"),
])
def test_gp_tail_refuses_an_eta_no_slope_has(capsys, eta, message):
    # The slope's edge is read into EdgePower(C, -delta, mu), as zeta's is.
    model = f'{{"preset": "bm", "eta": {eta}}}'
    assert _run(capsys, "gp", "tail", "--model", model) == (
        cli.EXIT_SPEC, "", f"specification error: {message}\n")


def test_gp_tail_reads_a_zero_slope_edge_of_either_sign_alike(capsys):
    # delta = -0.0 gives the edge sigma = 0.0: the zero-edge case and its notes.
    outs = [_run(capsys, "gp", "tail", "--model",
                 f'{{"preset": "bm", "eta": {{"delta": {d}, "C": 1, "mu": 1}}}}')
            for d in ("0", "-0.0")]
    assert outs[0] == outs[1] and outs[0][0] == cli.EXIT_OK
    assert len(json.loads(outs[0][1])["notes"]) == 2


def test_gp_verify_writes_each_report_under_its_fixture_name(capsys, tmp_path):
    fixture = "bm-unit-slope-exact-law-small"
    code, out, err = _run(capsys, "gp", "verify", "--fixture", fixture, "--out", str(tmp_path))
    assert code == cli.EXIT_OK and out == "" and err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{fixture}.csv", f"{fixture}.json"]
    assert json.loads((tmp_path / f"{fixture}.json").read_text())["fixture"] == fixture


def test_gp_verify_fixture_report_and_unknown_name(capsys, validate):
    code, out, err = _run(capsys, "gp", "verify", "--fixture", "bm-random-slope")
    assert code == cli.EXIT_OK and err == ""
    report = json.loads(out)
    validate(report, "report")
    assert report["fixture"] == "bm-random-slope" and report["passed"] is True
    code, out, err = _run(capsys, "gp", "verify", "--fixture", "no-such-fixture")
    assert code == cli.EXIT_SPEC and out == ""
    assert err.startswith("specification error: unknown gp fixture 'no-such-fixture'")


def test_each_error_class_carries_its_exit_code_and_label(capsys, monkeypatch):
    # Every error class, with the exit code and stderr label the CLI gives it.
    table = {
        (cli.EXIT_SPEC, "specification error"): (errors.SpecError, errors.DomainError),
        (cli.EXIT_ASSUMPTION, "hypothesis violated"): (
            errors.AssumptionError, errors.ConditionError, errors.Unsupported,
            errors.DivergentMoment, errors.BoundaryCase, errors.MissingPickands,
            errors.MissingEConstant),
        (cli.EXIT_NUMERIC, "numerical failure"): (
            errors.QuadratureFailure, errors.EmbeddingFailure, errors.TailwardError),
    }
    classes = {cls for group in table.values() for cls in group}
    assert classes == {cls for cls in vars(errors).values()
                       if isinstance(cls, type) and issubclass(cls, errors.TailwardError)}
    for (code, label), group in table.items():
        for cls in group:
            def raising(args, cls=cls):
                raise cls("forced")

            monkeypatch.setattr(cli, "_cmd_tail", raising)
            assert cls.exit_code == code
            assert _run(capsys, "tail", "sum", "--x", "normal", "--y", "normal") == (
                code, "", f"{label}: forced\n")


# ---------------------------------------------------------------------------
# The numeric range: every input answers or refuses with its exit code
# ---------------------------------------------------------------------------

_EXTREMES = ("1e-300", "1e-8", "1", "1e8", "1e300")
_EXTREME_LAWS = tuple(
    [f"{family}({a},{b})" for family in ("weibull", "pareto", "edge", "lognormal")
     for a in _EXTREMES for b in _EXTREMES]
    + ["normal"] + [f"constant({a})" for a in _EXTREMES])
_PARTNERS = ("pareto(1,2)", "weibull(1,2)", "weibull(1,0.5)", "edge(2,1)", "edge(0,1)",
             "lognormal(0,1)")
_EXTREME_LEVELS = "1e-300,1,1e16,1e50,1e200,1e308"
_ESTIMATOR_VALUES = _EXTREMES + ("inf", "nan")


def _both_orders(cmd, partners, *tail):
    return [(cmd, op, "--x", x, "--y", y, *tail)
            for op, law, partner in itertools.product(("sum", "product"), _EXTREME_LAWS, partners)
            for x, y in ((law, partner), (partner, law))]


def _gp_tail_models():
    for delta, c, mu, beta in itertools.product(("0", "1e-300", "1e-8", "1", "1e8", "1e300"),
                                                _EXTREMES, _EXTREMES, ("1", "2", "1e300")):
        yield f'{{"preset":"bm","beta":{beta},"eta":{{"delta":{delta},"C":{c},"mu":{mu}}}}}'
    for delta, mu, zc, gamma, delta0 in itertools.product(
            ("0", "1e-300", "1", "1e300"), ("1e-300", "1", "1e300"), ("1e-300", "1e300"),
            ("1e-300", "1", "1e300"), ("-1e300", "0", "1e300")):
        yield (f'{{"preset":"bm","beta":2,"eta":{{"delta":{delta},"C":1,"mu":{mu}}},'
               f'"zeta":{{"delta0":{delta0},"C":{zc},"gamma":{gamma}}}}}')
    for h, beta, delta, mu in itertools.product(("1e-300", "1e-8", "0.3", "0.999"),
                                                ("1e-8", "1", "2", "1e8", "1e300"),
                                                ("0", "1e-300", "1", "1e300"),
                                                ("1e-300", "1", "1e300")):
        yield (f'{{"preset":"fbm","H":{h},"beta":{beta},"pickands":1,"e_const":1,'
               f'"eta":{{"delta":{delta},"C":1,"mu":{mu}}},"zeta":{{"C":1,"gamma":1}}}}')


# Seeds on both sides of the seed range [0, 2**64), the two uint32 entropy
# words of every stream; at 2 paths a map has one block, so no call starts a
# thread.
_SEEDS = ("-1", "0", str(2 ** 63), str(2 ** 64 + 5))
_MAP_OPTIONS = [("--seed", s) for s in ("-1", str(2 ** 64 + 5))]
# The full exact-law fixture takes 81 s; its own slow test runs it.
_GP_FIXTURE_NAMES = sorted(set(GP_FIXTURES) - {"bm-unit-slope-exact-law"}) + ["no-such", ""]

# Each command's grid, and how many of its calls one tier-1 run samples.
_SWEEPS = {
    "tail": (lambda: _both_orders("tail", _PARTNERS), 200),
    "verify": (lambda: _both_orders("verify", _PARTNERS[:4], "--grid", _EXTREME_LEVELS), 50),
    "gp tail": (lambda: [("gp", "tail", "--model", m) for m in _gp_tail_models()], 150),
    "gp constants": (lambda: [
        ("gp", "constants", "--model",
         f'{{"H":{h},"beta":{beta},"alpha_loc":{a},"pickands":1}}', "--c", c)
        for h, beta, c, a in itertools.product(("1e-300", "1e-8", "0.3", "0.5", "0.999"),
                                               _EXTREMES, _EXTREMES,
                                               ("1e-300", "0.5", "1", "2"))], 100),
    # The estimators at 2 paths of 4 steps; OUT is the paths file.
    "gp econst": (lambda: [
        ("gp", "econst", "--H", h, "--alpha", a, "--beta", b, "--T", t,
         "--paths", "2", "--steps", "4")
        for h, a, b, t in itertools.product(
            ("0.3", "0.5", "0.999", "nan"), _ESTIMATOR_VALUES,
            ("1", "1e300", "inf", "nan"), _ESTIMATOR_VALUES)]
        + [("gp", "econst", "--alpha", "1", "--beta", "1", "--T", "1",
            "--paths", "2", "--steps", "4", *option) for option in _MAP_OPTIONS], 60),
    "gp fbm": (lambda: [
        ("gp", "fbm", "--H", h, "--steps", "4", "--T", t, "--paths", p, "--out", "OUT")
        for h, t, p in itertools.product(("1e-300", "1e-8", "0.3", "0.5", "0.999", "1", "nan"),
                                         _ESTIMATOR_VALUES, ("1", "2"))], 30),
    "gp pickands": (lambda: [
        ("gp", "pickands", "--alpha", a, "--T", t, "--paths", "2", "--steps", "4")
        for a, t in itertools.product(("1e-300", "1e-8", "0.6", "1", "2", "inf", "nan"),
                                      _ESTIMATOR_VALUES + ("5e-324",))]
        + [("gp", "pickands", "--alpha", a, "--T", "1", "--paths", "2", "--steps", "4", *option)
           for a in ("0.6", "1") for option in _MAP_OPTIONS], 30),
    "gp verify": (lambda: [
        ("gp", "verify", "--fixture", name, "--seed", seed)
        for name, seed in itertools.product(_GP_FIXTURE_NAMES, _SEEDS)]
        + [("gp", "verify", "--fixture", "bm-random-slope", "--out", "/dev/null/reports")], 10),
}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _contract_breach(capsys, validate, argv):
    """What is wrong with one CLI call, or None when it answers or refuses."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a traceback, or a numeric warning
            capsys.readouterr()
            return f"{type(exc).__name__}: {exc}"
    out, err = capsys.readouterr()
    if code in (cli.EXIT_SPEC, cli.EXIT_ASSUMPTION, cli.EXIT_NUMERIC):
        return None if out == "" and err.count("\n") == 1 else f"exit {code}: {out}{err}"
    if code not in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED):
        return f"exit {code}"
    if argv[:2] == ("gp", "fbm"):
        paths = Path(argv[argv.index("--out") + 1]).read_text()
        return f"exit {code}, non-finite paths written" if re.search("nan|inf", paths) else None
    try:
        payload = json.loads(out, parse_constant=_reject_constant)
        if "verify" in argv[:2]:
            validate(payload, "report")
        elif argv[1] == "constants":
            validate(payload, "constants")
        elif argv[1] in ("econst", "pickands"):
            validate(payload, "estimate")
            if not payload["ci_lo"] < payload["ci_hi"]:
                return f"exit {code}, zero-width interval: {payload}"
        else:
            validate(payload["tail"], "tail")
    except Exception as exc:  # invalid JSON, or a schema violation
        return f"exit {code}, bad payload: {exc}"
    return None


def _sweep_breaches(capsys, validate, tmp_path, calls):
    out = str(tmp_path / "paths.csv")
    calls = [tuple(out if a == "OUT" else a for a in argv) for argv in calls]
    return [(argv, why) for argv in calls if (why := _contract_breach(capsys, validate, argv))]


@pytest.mark.parametrize("command", _SWEEPS)
def test_extreme_inputs_answer_or_refuse(capsys, validate, tmp_path, command):
    # A fixed sample of each grid; the slow test below runs all of it.
    grid, n = _SWEEPS[command]
    breaches = _sweep_breaches(capsys, validate, tmp_path, random.Random(16).sample(grid(), n))
    assert not breaches, breaches[:5]


@pytest.mark.slow
@pytest.mark.parametrize("command", _SWEEPS)
def test_every_extreme_input_answers_or_refuses(capsys, validate, tmp_path, command):
    # All 6,615 calls of the grids take about a minute.
    breaches = _sweep_breaches(capsys, validate, tmp_path, _SWEEPS[command][0]())
    assert not breaches, (len(breaches), breaches[:5])


@pytest.mark.parametrize("argv,message", [
    (("econst", "--H", "0.3", "--alpha", "1", "--beta", "1e300",
      "--T", "1e-8"), None),
    # Every path's ratio, or its power, is 0: a zero-width interval at 0.
    (("econst", "--H", "0.3", "--alpha", "1", "--beta", "1e300",
      "--T", "1e300"), "path_supremum estimate: all 2 paths gave 0.0; no interval backs it"),
    (("econst", "--alpha", "nan", "--beta", "1"),
     "alpha and beta must be positive and finite, got nan, 1.0"),
    (("fbm", "--H", "0.3", "--steps", "4", "--T", "inf", "--paths", "1", "--out", "OUT"),
     "horizon must be finite, got inf"),
    # The squared deviations overflow, but the mean and half-width fit.
    (("pickands", "--alpha", "1e-8", "--T", "1e-300"), None),
    (("econst", "--H", "0.3", "--alpha", "1e300", "--beta", "1"),
     "path_supremum estimate: all 2 paths gave 0.0; no interval backs it"),
    # Every path's weight sits at t = 0: 1 / dt = 4e-08 for H_1 = 1, zero width.
    (("pickands", "--alpha", "1", "--T", "1e8"),
     "sup_integral_ratio estimate: all 2 paths gave 4e-08; no interval backs it"),
    # The two paths differ, but their squared deviations underflow.
    (("econst", "--H", "0.999", "--alpha", "1", "--beta", "1",
      "--T", "1e-300", "--seed", "1"), None),
    # At seed 0 both paths stay at or below 0: both ratios are 0.
    (("econst", "--H", "0.999", "--alpha", "1", "--beta", "1",
      "--T", "1e-300"), "path_supremum estimate: all 2 paths gave 0.0; no interval backs it"),
    (("pickands", "--alpha", "1e-8", "--T", "1e300"), None),
])
def test_gp_estimator_sweep_findings_answer_or_refuse(capsys, validate, tmp_path, argv, message):
    # Each once gave, in order: a traceback; an overflow warning, later a
    # zero-width interval at 0; "value": NaN with exit 0; a nan/inf path
    # file with exit 0; an overflow warning, later a refusal of an interval
    # that fits; two more zero-width intervals; two refusals of paths that
    # differ (the H = 0.999 row at seed 1, and the last row).  The H = 0.999
    # row's seed-0 refusal is right: both of its paths give 0.
    out = tmp_path / "p.csv"
    argv = ("gp",) + tuple(str(out) if a == "OUT" else a for a in argv)
    if argv[1] != "fbm":
        argv += ("--paths", "2", "--steps", "4")
    assert _contract_breach(capsys, validate, argv) is None  # checks the payload too
    code, stdout, err = _run(capsys, *argv)
    if message is None:
        assert code == cli.EXIT_OK
    else:
        assert (code, stdout, err) == (cli.EXIT_SPEC, "", f"specification error: {message}\n")
        assert not out.exists()


_ZETA_EDGE_AT_INF = ('{"preset": "bm", "eta": {"delta": 0, "C": 1, "mu": 1},'
                     ' "zeta": {"delta0": Infinity, "C": 1, "gamma": 0.5}}')


@pytest.mark.parametrize("argv,message", [
    # Seeds 5 and 2**64 + 5 once drew the same stream under different seeds.
    (("econst", "--alpha", "1", "--beta", "1", "--seed", str(2 ** 64 + 5)),
     "seed must be in [0, 2**64), got 18446744073709551621"),
    (("pickands", "--alpha", "1", "--seed", "-1"), "seed must be in [0, 2**64), got -1"),
    (("fbm", "--H", "0.3", "--steps", "4", "--T", "1", "--seed", "-1", "--out", "OUT"),
     "seed must be in [0, 2**64), got -1"),
    # A leading NAME=value sets the environment, as a shell does; a thread
    # count below 1 once meant every CPU.
    (("TAILWARD_THREADS=0", "pickands", "--alpha", "1"),
     "TAILWARD_THREADS must be a positive integer, got '0'"),
    (("TAILWARD_THREADS=x", "econst", "--alpha", "1", "--beta", "1"),
     "TAILWARD_THREADS must be a positive integer, got 'x'"),
    (("tail", "--model", _ZETA_EDGE_AT_INF),
     "trend model field zeta.delta0 must be finite, got inf"),
])
def test_seed_worker_and_zeta_refusals_name_what_they_refuse(capsys, monkeypatch, tmp_path,
                                                             argv, message):
    if "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("="))
        argv = argv[1:]
    out = tmp_path / "p.csv"
    argv = ("gp",) + tuple(str(out) if a == "OUT" else a for a in argv)
    if argv[1] in ("econst", "pickands"):
        argv += ("--paths", "2", "--steps", "4")
    assert _run(capsys, *argv) == (cli.EXIT_SPEC, "", f"specification error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("gp", "verify", "--fixture", "bm-random-slope", "--seed", "-1"),
    ("verify", "watson", "--fixture", "watson-kernel", "--seed", "-7"),
    ("verify", "sum", "--x", "weibull(1,2)", "--y", "pareto(1,2)", "--grid", "10",
     "--seed", str(2 ** 64)),
])
def test_reports_that_draw_nothing_refuse_a_seed_no_stream_can_have(capsys, argv):
    # These reports once ran and recorded the seed as given.
    assert _run(capsys, *argv) == (
        cli.EXIT_SPEC, "", f"specification error: seed must be in [0, 2**64), got {argv[-1]}\n")


_LOG_C_175 =math.lgamma(176.0) - 175.0 * math.log(2.0)


@pytest.mark.parametrize("argv,log_c", [
    (("tail", "sum", "--x", "weibull(1,2)", "--y", "edge(0,175)"), _LOG_C_175),
    (("tail", "product", "--x", "weibull(1,2)", "--y", "edge(1,175)"), _LOG_C_175),
    (("tail", "product", "--x", "edge(1,175)", "--y", "weibull(1,2)"), _LOG_C_175),
    (("gp", "tail", "--model", '{"preset":"bm","eta":{"delta":0,"C":1,"mu":175}}'), _LOG_C_175),
    # Gamma(201) overflows; C = 10**-200 * Gamma(201) ~ 7.887e174.
    (("tail", "sum", "--x", "weibull(5,2)", "--y", "edge(0,200)"),
     math.lgamma(201.0) - 200.0 * math.log(10.0)),
    # 100**-170 underflows to 0; C = 100**-170 * Gamma(171) ~ 7.257e-34.
    (("tail", "product", "--x", "weibull(100,1)", "--y", "edge(1,170)"),
     math.lgamma(171.0) - 170.0 * math.log(100.0)),
    # 76**-170 is subnormal, so the direct product keeps 4 digits; C ~ 1.3258e-13.
    (("tail", "product", "--x", "weibull(76,1)", "--y", "edge(1,170)"),
     math.lgamma(171.0) - 170.0 * math.log(76.0)),
    # The moment E X**alpha leaves the doubles, C = 1e-300 * E X**alpha does not.
    (("tail", "product", "--x", "weibull(1,1)", "--y", "pareto(1e-300,200)"),
     math.lgamma(201.0) + math.log(1e-300)),
    (("tail", "product", "--x", "lognormal(0,1)", "--y", "pareto(1e-300,40)"),
     800.0 + math.log(1e-300)),
])
def test_gamma_constant_that_fits_answers(capsys, validate, argv, log_c):
    # Each factor of C once left the doubles and the command exited 2 with
    # "not a positive finite double (got inf)" (or "got 0.0"); C itself fits.
    code, out, err = _run(capsys, *argv)
    assert code == cli.EXIT_OK, err
    tail = json.loads(out, parse_constant=_reject_constant)["tail"]
    validate(tail, "tail")
    assert tail["C"] == pytest.approx(math.exp(log_c), rel=1e-12, abs=0.0)


_RATIO_ROW = "^failed: exact-to-asymptotic ratio is not a finite double"


@pytest.mark.parametrize("argv,code,note", [
    # A ratio exp(log_sf - log_h) beyond the doubles is a failed row.
    (("verify", "product", "--x", "weibull(1,0.5)", "--y", "edge(2,1)", "--grid", "1e50"), 1,
     _RATIO_ROW),
    (("verify", "sum", "--x", "pareto(1,1e300)", "--y", "weibull(1,0.5)", "--grid", "1e16"), 1,
     _RATIO_ROW),
    (("verify", "sum", "--x", "weibull(1,1e-8)", "--y", "pareto(1,2)", "--grid", "1e200"), 1,
     _RATIO_ROW),
    # Quadrature nodes whose arithmetic leaves the doubles no longer warn.
    (("verify", "sum", "--x", "weibull(1e8,1e-8)", "--y", "pareto(1,2)", "--grid", "1e16"), 1, ""),
    (("verify", "sum", "--x", "weibull(1e8,1e-8)", "--y", "pareto(1,2)", "--grid", "1e308"), 1,
     ""),
    # K * alpha underflows to 0 in the Weibull density.
    (("verify", "sum", "--x", "weibull(1e-300,1e-300)", "--y", "pareto(1,2)", "--grid", "1e16"),
     1, ""),
    # Trend constants beyond the positive doubles: 0 ** negative, an underflow to 0.
    (("gp", "constants", "--model", '{"H": 1e-300, "beta": 1e300, "alpha_loc": 1}', "--c", "1"),
     2, "trend_constants: constant K_s is not a positive finite double"),
    (("gp", "constants", "--model", '{"H": 0.5, "beta": 1, "alpha_loc": 1}', "--c", "1e-300"), 2,
     r"trend_constants: constant B is not a positive finite double \(got 0.0\)"),
    # The random-slope edge constant and the sup-ratio moment overflow.
    (("gp", "tail", "--model", '{"preset":"bm","eta":{"delta":1e300,"C":1,"mu":1}}'), 2,
     "random_trend_tail: edge constant C is not a positive finite double"),
    (("gp", "tail", "--model", '{"preset":"bm","eta":{"delta":0,"C":1,"mu":1e8}}'), 2,
     "moment of order 200000000.0 of weibull is not a positive finite double"),
])
def test_inputs_beyond_the_doubles_answer_or_refuse(capsys, validate, argv, code, note):
    # Each once ended in a traceback, a RuntimeWarning or "B": 0.0.
    got, out, err = _run(capsys, *argv)
    assert got == code and "Traceback" not in err, err
    if argv[0] == "verify":
        report = json.loads(out, parse_constant=_reject_constant)
        validate(report, "report")
        text = report["rows"][0]["status"]
    else:
        assert out == "" and err.startswith("specification error: ")
        text = err
    assert re.search(note, text), text


@pytest.mark.parametrize("argv,given", [
    # Each once exited 0, running the fixture as written.
    (("verify", "sum", "--fixture", "sum-mixed-weibull-edge", "--x", "pareto(1,3)", "--tol",
      "0.5"), "--x, --tol"),
    (("verify", "sum", "--fixture", "sum-mixed-weibull-edge", "--y", "pareto(1,3)"), "--y"),
    (("verify", "sum", "--fixture", "sum-mixed-weibull-edge", "--grid", "4,5"), "--grid"),
    (("verify", "laplace", "--tol", "0.05"), "--tol"),
])
def test_verify_refuses_ad_hoc_inputs_next_to_a_fixture(capsys, argv, given):
    code, out, err = _run(capsys, *argv)
    fixture = "laplace-truncated-kernel" if argv[1] == "laplace" else argv[3]
    assert code == cli.EXIT_SPEC and out == ""
    assert err == f"specification error: fixture {fixture!r} runs as written; drop {given}\n"


def test_an_adhoc_verify_keeps_its_default_tolerance(capsys):
    code, out, _ = _run(capsys, "verify", "sum", "--x", "weibull(1,2)", "--y", "edge(0,1)",
                        "--grid", "4,6")
    assert json.loads(out)["rule"]["tol"] == 0.05


def test_unseen_mass_below_the_doubles_is_a_failed_row(capsys):
    code, out, err = _run(capsys, "verify", "sum", "--x", "weibull(1e8,1e-8)", "--y",
                          "pareto(1,2)", "--grid", "1e16")
    row, = json.loads(out)["rows"]
    assert code == cli.EXIT_CHECK_FAILED and err == ""
    assert row["status"].startswith("failed: the mass of weibull") and row["log_sf_exact"] is None


def test_the_law_spec_help_shows_the_one_spelling():
    # --x once advertised weibull:K=1,alpha=2, a spelling no caller used.
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("tail", "verify"):
        helps = {a.dest: a.help for a in sub.choices[command]._actions}
        assert "weibull(1,2)" in helps["x"] and "weibull:" not in helps["x"]
        assert helps["y"] == "law spec, as --x"
