"""Verification reports: strict JSON, pinned rows and a monotonic runtime clock."""

import json
import math
import time
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from scipy import special

import tailward as tw
from tailward import cli, oracle, reports
from tailward import gp_extremes as gp
from tailward.errors import QuadratureFailure, SpecError
from tailward.montecarlo import TailEstimate
from tailward.reports import (
    FIXTURES,
    GP_FIXTURES,
    VerifyReport,
    recompute_pass,
    run_fixture,
    run_gp_fixture,
)

# 1e5 paths x 2^16 steps, several minutes on one core: checked by the slow
# test below, which runs under `pytest -m slow`.
SLOW_GP_FIXTURE = "bm-unit-slope-exact-law"
# Every other fixture's report at seed 201 with runtime_seconds zeroed, as
# JSON: a change to any row, input, claim or verdict shows as a diff here.
PINNED = json.loads((Path(__file__).parent / "fixture_reports.json").read_text())


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _strict(report: VerifyReport) -> dict:
    return json.loads(report.to_json(), parse_constant=_reject_constant)


def _check_report(report: VerifyReport, validate) -> dict:
    """Strict JSON that matches the report schema (and the model/tail schemas
    for a ratio table's inputs) and recomputes to the same verdict."""
    data = _strict(report)
    validate(data, "report")
    if data["kind"] == "ratio_table":
        validate(data["inputs"]["x"], "model")
        validate(data["inputs"]["y"], "model")
        validate(data["inputs"]["predicted"], "tail")
    assert data["fixture"] == report.fixture
    assert recompute_pass(data) == report.passed
    return data


@pytest.mark.parametrize(
    "kind,name",
    [("plain", n) for n in sorted(FIXTURES)]
    + [("gp", n) for n in sorted(set(GP_FIXTURES) - {SLOW_GP_FIXTURE})],
)
def test_fixture_report_is_strict_json(kind, name, validate):
    report = (run_fixture if kind == "plain" else run_gp_fixture)(name, seed=201)
    data = _check_report(report, validate)
    assert data["fixture"] == name
    data["runtime_seconds"] = 0.0
    # sort_keys and the text form tell -0.0 from 0.0: bitwise, not approximate.
    assert json.dumps(data, sort_keys=True) == json.dumps(PINNED[name], sort_keys=True)


@pytest.mark.parametrize("name", ["bm-random-slope", "bm-random-slope-offset",
                                  "bm-offset-edge-composition"])
def test_gp_fixture_models_replay_through_gp_tail(monkeypatch, capsys, name):
    # Each model object in a report's inputs is a --model for gp tail as it
    # stands, and gp tail answers the very tail the report judged.
    judged = []

    def recording(model):
        judged.append(trend_tail(model))
        return judged[-1]

    trend_tail = gp.trend_tail
    monkeypatch.setattr(gp, "trend_tail", recording)
    data = _strict(run_gp_fixture(name, seed=201))
    assert data["rows"] == PINNED[name]["rows"]
    inputs = data["inputs"]
    models = list(inputs["models"].values()) if "models" in inputs else [inputs["model"]]
    assert len(models) == len(judged)
    for model, (tail, case) in zip(models, judged):
        assert cli.main(["gp", "tail", "--model", json.dumps(model)]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert (payload["case"], json.dumps(payload["tail"])) == (
            case, json.dumps(tw.tail_to_dict(tail)))


def test_pinned_reports_cover_every_fixture():
    assert set(PINNED) == set(FIXTURES) | (set(GP_FIXTURES) - {SLOW_GP_FIXTURE})


def test_a_one_level_table_is_judged_by_the_ratio_window(validate):
    # A rule type outside the three is refused by the schema and the verdict.
    data = _strict(run_fixture("product-power-lognormal-pareto", seed=201))
    assert data["rule"] == reports._RATIO_WINDOW and data["passed"] is True
    data["rule"] = {"type": "ratio_band", "lo": 0.95, "hi": 1.05}
    with pytest.raises(jsonschema.ValidationError):
        validate(data, "report")
    with pytest.raises(SpecError, match="unknown rule type 'ratio_band'"):
        recompute_pass(data)


def test_slow_fixture_reports_its_own_name(monkeypatch, validate):
    def exact_estimates(grid, n_paths, **kwargs):
        return [TailEstimate(u, math.exp(-2.0 * u), 0.0, 1.0, n_paths, "direct",
                             float(n_paths)) for u in grid]

    monkeypatch.setattr(gp, "sup_exceedance_mc", exact_estimates)
    data = _check_report(run_gp_fixture(SLOW_GP_FIXTURE), validate)
    assert data["fixture"] == SLOW_GP_FIXTURE and data["passed"] is True


@pytest.mark.slow
def test_full_exact_law_fixture_passes(validate):
    assert _check_report(run_gp_fixture(SLOW_GP_FIXTURE), validate)["passed"] is True


def test_failed_row_is_null_and_keeps_its_status(monkeypatch):
    exact = oracle.sf_sum_exact

    def failing_at_six(x, y, u):
        if u == 6.0:
            raise QuadratureFailure("forced failure")
        return exact(x, y, u)

    monkeypatch.setattr(oracle, "sf_sum_exact", failing_at_six)
    data = _strict(run_fixture("sum-mixed-weibull-edge"))
    failed = [row for row in data["rows"] if row["status"] != "ok"]
    assert [row["u"] for row in failed] == [6.0]
    assert failed[0]["status"] == "failed: forced failure"
    assert failed[0]["ratio"] is None and failed[0]["log_sf_exact"] is None
    assert data["passed"] is False and not recompute_pass(data)
    assert all(row["ratio"] is not None for row in data["rows"] if row["status"] == "ok")


def test_runtime_never_reads_the_wall_clock(monkeypatch, capsys):
    # Only perf_counter is left: a time.time() call would raise AttributeError.
    clock = SimpleNamespace(perf_counter=time.perf_counter)
    monkeypatch.setattr(reports, "time", clock)
    assert not hasattr(cli, "time")  # the ad-hoc report is timed in reports
    assert run_fixture("watson-kernel").runtime_seconds >= 0.0
    code = cli.main(["verify", "sum", "--x", "weibull(1,2)", "--y", "edge(0,1)",
                     "--grid", "4,6,8,10"])
    assert code == cli.EXIT_OK
    assert _strict(VerifyReport(**json.loads(capsys.readouterr().out)))["runtime_seconds"] >= 0.0


@pytest.mark.parametrize("a,x", [(2.5, 100.0), (0.5, 2.0), (2.5, 1.0), (5.5, 10.0)])
def test_watson_reference_matches_scipy_gammainc(a, x):
    # (2.5, 100) is the watson-kernel fixture's P(mu + 1, u * delta).
    ref = float(special.gammainc(a, x))
    assert reports._gamma_p_half_integer(a, x) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_watson_reference_needs_a_half_integer():
    with pytest.raises(ValueError):
        reports._gamma_p_half_integer(2.0, 1.0)
