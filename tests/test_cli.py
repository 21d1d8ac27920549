"""Command-line contract: one case per exit code, payloads checked against the schemas."""

import json

import pytest

import tailward as tw
from tailward import asymptotic_engine, cli
from tailward.errors import QuadratureFailure


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
