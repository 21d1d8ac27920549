"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run shortened passes (``--seconds 0`` runs exactly one pass) and take
about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

BENCH = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
REFS = json.loads(workloads.REFS_PATH.read_text())


def _run_cli(*args, cwd=workloads.ROOT):
    return subprocess.run([sys.executable, str(workloads.HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _small(wl, keep):
    """The workload restricted to the items whose name passes ``keep``."""
    full = wl.items
    wl.items = lambda p: [it for it in full(p) if keep(it.name)]
    return wl


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_runs_clean_with_declared_metrics(workload):
    res = _result(_run_cli("--workload", workload, "--seed", "2", "--seconds", "0",
                           "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(v["value"] != 0 for v in res["metrics"].values())


def test_layer_metric_names_match_benchmark_json():
    declared = {m["name"] for m in BENCH["per_layer"]}
    emitted = set(spans.Aggregate().metrics()) | {"cli.tail_cold_s", "trace.overhead_frac"}
    assert emitted == declared
    assert set(run.E2E_UNITS) == {m["name"] for m in BENCH["end_to_end"]}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def _traced(workload, keep):
    wl = _small(workloads.build(workload, 5, REFS), keep)
    records, passes, metrics, mismatched, leftovers = run.run_traced(wl, 0)
    assert passes == 1 and not mismatched and not leftovers
    assert run.summarize(records)["failed"] == 0
    return metrics


def test_traced_counts_repeat_and_wrappers_are_removed():
    # The nested levels of bm-random-slope-offset stay; the sweep's own
    # nested levels are left out to keep the test short.
    first, second = (_traced("referee", lambda n: not n.startswith("bm-oracle"))
                     for _ in range(2))
    for name in ("quadrature.nodes", "bm_oracle.quad_calls_per_call", "oracle.levels"):
        assert first[name] == second[name] > 0
    fbm = [_traced("mc-fbm", lambda n: n.startswith("econst")) for _ in range(2)]
    assert fbm[0]["fbm.path_steps"] == fbm[1]["fbm.path_steps"] == 2 * 128 * (1 << 14)

    tw = sys.modules["tailward"]
    assert spans.leftover_wrappers() == []
    assert not hasattr(tw.quadrature.log_quad_result, spans.MARK)
    assert not hasattr(tw.gp_extremes.estimators.fbm_path, spans.MARK)
    assert not hasattr(tw.tail_model.DistributionModel.sample, spans.MARK)


def test_wrappers_are_removed_after_a_failing_call():
    tw = workloads.import_tailward()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert "tailward.oracle.sf_product_exact" in spans.leftover_wrappers()
        with pytest.raises(tw.errors.DomainError):
            tw.oracle.sf_product_exact(None, None, -1.0)
    finally:
        tracer.uninstall()
    assert spans.leftover_wrappers() == []
    last = tracer.spans[-1]
    assert last[spans.LAYER] == "oracle" and last[spans.T1] >= last[spans.T0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "referee",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
