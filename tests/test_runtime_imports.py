"""scipy is a test dependency only: nothing tailward runs may import it.

Each probe runs in a fresh interpreter under ``-X importtime``, which
prints one line per module the process ever imports.
"""

import os
import subprocess
import sys
from pathlib import Path

import tailward
import tailward.gp_extremes

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import numpy as np

import tailward
import tailward.cli
import tailward.gp_extremes
import tailward.reports
from tailward.gp_extremes import TrendModel, trend_tail_asymptotic

for spec in ("lognormal(0,1)", "normal"):
    model = tailward.make_model(spec)
    model.log_sf(3.0)
    model.log_sf(np.linspace(0.1, 40.0, 30))
    model.log_sf(np.linspace(0.1, 40.0, 4096))
trend_tail_asymptotic(TrendModel.fbm(0.3, 1.0, pickands=1.0), 1.0, 2.5)
for name in ("watson-kernel", "product-power-lognormal-pareto"):
    assert tailward.reports.run_fixture(name).passed, name
"""


def _imported_modules(*args: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return [line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:") and "|" in line]


def _scipy(modules: list[str]) -> list[str]:
    return [m for m in modules if m.split(".")[0] == "scipy"]


def test_library_calls_never_import_scipy():
    modules = _imported_modules("-c", PROBE)
    assert "tailward.specfun" in modules
    assert _scipy(modules) == []


_GP_MODEL = ('{"preset": "bm", "beta": 2, "eta": {"delta": 0.3, "C": 1, "mu": 1},'
             ' "zeta": {"delta0": 0.2, "C": 1, "gamma": 1}}')


def test_cold_cli_tail_never_imports_scipy():
    for argv, module in (
        (("tail", "sum", "--x", "weibull(1,2)", "--y", "edge(0,1)"), "tailward.tail_model"),
        (("gp", "tail", "--model", _GP_MODEL), "tailward.gp_extremes.trend"),
    ):
        modules = _imported_modules("-m", "tailward.cli", *argv)
        assert module in modules
        assert _scipy(modules) == []


def test_every_exported_name_resolves():
    for module in (tailward, tailward.gp_extremes):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
        exec(f"from {module.__name__} import *", {})
