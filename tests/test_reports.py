"""Verification reports: strict JSON and a monotonic runtime clock."""

import json
import time
from types import SimpleNamespace

import pytest
from scipy import special

from tailward import cli, oracle, reports
from tailward.errors import QuadratureFailure
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
    _check_report(run_fixture(name) if kind == "plain" else run_gp_fixture(name), validate)


@pytest.mark.slow
def test_full_exact_law_fixture_passes(validate):
    assert _check_report(run_gp_fixture(SLOW_GP_FIXTURE), validate)["passed"] is True


def test_failed_row_is_null_and_keeps_its_status(monkeypatch):
    exact = oracle.sf_sum_exact

    def failing_at_six(x, y, u, rtol):
        if u == 6.0:
            raise QuadratureFailure("forced failure")
        return exact(x, y, u, rtol=rtol)

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
    assert _strict(VerifyReport.from_json(capsys.readouterr().out))["runtime_seconds"] >= 0.0


@pytest.mark.parametrize("a,x", [(2.5, 100.0), (0.5, 2.0), (2.5, 1.0), (5.5, 10.0)])
def test_watson_reference_matches_scipy_gammainc(a, x):
    # (2.5, 100) is the watson-kernel fixture's P(mu + 1, u * delta).
    ref = float(special.gammainc(a, x))
    assert reports._gamma_p_half_integer(a, x) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_watson_reference_needs_a_half_integer():
    with pytest.raises(ValueError):
        reports._gamma_p_half_integer(2.0, 1.0)
