"""Machine-readable verification reports and the named fixture registry.

A report embeds everything needed to recompute its own pass/fail verdict:
the input specs, the grid, the seed, the tolerance rule and the raw rows.
``recompute_pass`` re-derives the verdict from the embedded data alone.
Wall-clock runtime is carried for operators but is the one field excluded
from reproducibility comparisons.

A sum/product report's claim and predicted tail come from the engine's
classifiers (``sum_tail``/``product_tail``), the same code the ``tail``
command runs; ``ratio_report`` builds every such report, the named ones
and the CLI's ad-hoc ``verify sum|product`` alike.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from functools import partial

from . import oracle
from .asymptotic_engine import product_tail, sum_mixed_tail, sum_tail
from .errors import SpecError
from .laplace_kernel import (
    LaplaceProblem,
    laplace_general,
    tail_integral_asymptotic,
    tail_integral_numeric,
    watson_asymptotic,
    watson_numeric,
)
from .tail_model import EdgePower, _finite_or_null, make_model, sf_eval, tail_to_dict

__all__ = [
    "VerifyReport",
    "recompute_pass",
    "ratio_report",
    "run_fixture",
    "FIXTURES",
    "GP_FIXTURES",
    "run_gp_fixture",
]


@dataclass
class VerifyReport:
    fixture: str
    claim: str
    kind: str  # "ratio_table" | "tail_estimates" | "scalar_checks"
    inputs: dict
    rule: dict
    rows: list = field(default_factory=list)
    passed: bool = False
    seed: int | None = None
    runtime_seconds: float = 0.0

    def to_json(self) -> str:
        """Strict JSON: a non-finite number (a failed row's ratio) becomes null."""
        return json.dumps(_finite_or_null(asdict(self)), indent=2, allow_nan=False)

    def rows_csv(self) -> str:
        if not self.rows:
            return ""
        cols = list(self.rows[0].keys())
        lines = [",".join(cols)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(row.get(c)) for c in cols))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_json(text: str) -> "VerifyReport":
        return VerifyReport(**json.loads(text))


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def recompute_pass(report: VerifyReport | dict) -> bool:
    data = asdict(report) if isinstance(report, VerifyReport) else report
    rule = data["rule"]
    rows = data["rows"]
    kind = rule["type"]
    if kind == "ratio_window":
        ratios = [r["ratio"] for r in rows if r.get("status", "ok") == "ok"]
        if len(ratios) < len(rows) or not ratios:
            return False
        devs = [abs(r - 1.0) for r in ratios]
        last = rule.get("nonincreasing_last", 0)
        ok = devs[-1] < rule["tol"]
        if last > 1 and len(devs) >= last:
            window = devs[-last:]
            ok = ok and all(a >= b - 1e-15 for a, b in zip(window, window[1:]))
        return ok
    if kind == "ratio_at_point":
        ratios = [r["ratio"] for r in rows if r.get("status", "ok") == "ok"]
        if len(ratios) < len(rows) or not ratios:
            return False
        return all(rule["lo"] <= r <= rule["hi"] for r in ratios)
    if kind == "ci_covers_reference":
        # CI must reach the reference shrunk by a one-sided allowance for
        # grid bias, without the estimate exceeding reference + CI width.
        allowance = rule.get("allowance", 0.0)
        ok = True
        for r in rows:
            ref = r["reference"]
            ok = ok and r["ci_lo"] <= ref and r["ci_hi"] >= ref * (1.0 - allowance)
        return ok
    if kind == "value_vs_reference":
        slack = rule.get("rel_slack", 0.0)
        ok = True
        for r in rows:
            ref = r["reference"]
            pad = slack * abs(ref)
            ok = ok and (r["ci_lo"] - pad) <= ref <= (r["ci_hi"] + pad)
        return ok
    if kind == "all_ok":
        return all(bool(r["ok"]) for r in rows) and bool(rows)
    raise SpecError(f"unknown rule type {kind!r}")


def _finish(report: VerifyReport, t0: float) -> VerifyReport:
    report.passed = recompute_pass(report)
    report.runtime_seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# Report builders
# ---------------------------------------------------------------------------

def ratio_report(name: str, x_spec, y_spec, op: str, grid, rule: dict,
                 seed: int = 0) -> VerifyReport:
    """Classify X op Y through the engine and tabulate exact/predicted ratios.

    ``op`` is "sum" or "product"; the report's claim and predicted tail are
    whatever ``sum_tail``/``product_tail`` return for the two laws.
    """
    t0 = time.perf_counter()
    x = make_model(x_spec)
    y = make_model(y_spec)
    predicted, claim = (sum_tail if op == "sum" else product_tail)(x, y)
    table = oracle.ratio_table(x, y, op, predicted, grid)
    report = VerifyReport(
        fixture=name,
        claim=claim,
        kind="ratio_table",
        inputs={
            "x": x.spec(),
            "y": y.spec(),
            "op": op,
            "grid": list(grid),
            "predicted": tail_to_dict(predicted),
        },
        rule=rule,
        rows=[dict(r.__dict__) for r in table.rows],
        seed=seed,
    )
    return _finish(report, t0)


def _scalar_fixture(name: str, claim: str, rows_fn, **inputs):
    """A fixture whose rows are ``rows_fn(**inputs)``, each passing on its own."""
    def run(seed: int = 0) -> VerifyReport:
        t0 = time.perf_counter()
        report = VerifyReport(
            fixture=name,
            claim=claim,
            kind="scalar_checks",
            inputs=inputs,
            rule={"type": "all_ok"},
            rows=rows_fn(**inputs),
            seed=seed,
        )
        return _finish(report, t0)

    return run


def _check(name: str, value: float, reference: float, tol: float) -> dict:
    return {"name": name, "value": value, "reference": reference, "tol": tol,
            "ok": abs(value - reference) <= tol}


# ---------------------------------------------------------------------------
# Sum/product and Laplace fixtures
# ---------------------------------------------------------------------------

def _gamma_p_half_integer(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a = 1/2, 3/2, 5/2, ...

    P(1/2, x) = erf(sqrt x) and P(b + 1, x) = P(b, x) - x^b e^-x / Gamma(b + 1).
    The subtractions cancel when x is well below a; the Watson fixture's
    levels are not.
    """
    if a <= 0.0 or (a - 0.5) % 1.0:
        raise ValueError(f"a must be a positive half-integer, got {a}")
    p, b = math.erf(math.sqrt(x)), 0.5
    while b < a:
        p -= math.exp(b * math.log(x) - x - math.lgamma(b + 1.0))
        b += 1.0
    return p


def _watson_rows(mu, delta, grid):
    return [
        _check(
            f"u={u}",
            math.exp(watson_numeric(u, mu, delta) - watson_asymptotic(u, mu)),
            _gamma_p_half_integer(mu + 1.0, u * delta),
            1e-4,
        )
        for u in grid
    ]


def _laplace_core_rows(alpha, beta, mu, K, u):
    ratio = math.exp(
        tail_integral_numeric(u, alpha, beta, mu, K, 1.0)
        - tail_integral_asymptotic(u, alpha, beta, mu, K)
    )
    rows = [_check("numeric_vs_asymptotic", ratio, 1.0, 0.02)]
    logs = {
        d: tail_integral_numeric(u, alpha, beta, mu, K, d) for d in (0.5, 1.0, 2.0)
    }
    for d1, d2 in [(0.5, 1.0), (0.5, 2.0), (1.0, 2.0)]:
        rel = abs(math.exp(logs[d1] - logs[d2]) - 1.0)
        rows.append(_check(f"delta_{d1}_vs_{d2}", rel, 0.0, 0.01))
    return rows


def _laplace_general_rows(sigma, K, alpha, beta, mu, u):
    # Boundary-minimum problem matching the product-tail substitution:
    # f(z) = (sigma - z)^beta, S(z) = K (sigma - z)^-alpha.
    prob = LaplaceProblem(
        f=lambda z: (sigma - z) ** beta,
        S=lambda z: K * (sigma - z) ** (-alpha),
        mu=mu + 1.0,
        a=1.0,
    )
    res = laplace_general(prob, u)
    return [_check(f"u={u}", math.exp(res.numeric - res.asymptotic), 1.0, 0.02)]


_RATIO_WINDOW = {"type": "ratio_window", "tol": 0.05, "nonincreasing_last": 3}
_RATIO_AT_POINT = {"type": "ratio_at_point", "lo": 0.95, "hi": 1.05}

FIXTURES = {
    "sum-mixed-weibull-edge": partial(
        ratio_report, "sum-mixed-weibull-edge", "weibull(1,2)", "edge(0,1)",
        "sum", [4.0, 6.0, 8.0, 10.0], _RATIO_WINDOW,
    ),
    "product-mixed-weibull-edge": partial(
        ratio_report, "product-mixed-weibull-edge", "weibull(1,2)", "edge(2,1)",
        "product", [8.0, 12.0, 16.0, 20.0], _RATIO_WINDOW,
    ),
    "product-power-lognormal-pareto": partial(
        ratio_report, "product-power-lognormal-pareto", "lognormal(0,1)",
        "pareto(1,2)", "product", [100.0], _RATIO_AT_POINT,
    ),
    "sum-dominant-weibull-pareto": partial(
        ratio_report, "sum-dominant-weibull-pareto", "weibull(1,2)", "pareto(1,2)",
        "sum", [1000.0], _RATIO_AT_POINT,
    ),
    "laplace-truncated-kernel": _scalar_fixture(
        "laplace-truncated-kernel", "laplace_core", _laplace_core_rows,
        alpha=2.0, beta=0.0, mu=1.0, K=1.0, u=15.0,
    ),
    "laplace-boundary-minimum": _scalar_fixture(
        "laplace-boundary-minimum", "laplace_general", _laplace_general_rows,
        sigma=2.0, K=1.0, alpha=2.0, beta=-3.0, mu=1.0, u=400.0,
    ),
    "watson-kernel": _scalar_fixture(
        "watson-kernel", "watson", _watson_rows, mu=1.5, delta=1.0, grid=[100.0],
    ),
}


def _lookup(registry: dict, kind: str, name: str):
    try:
        return registry[name]
    except KeyError:
        raise SpecError(
            f"unknown {kind} {name!r}; available: {sorted(registry)}"
        ) from None


def run_fixture(name: str, seed: int = 0) -> VerifyReport:
    return _lookup(FIXTURES, "fixture", name)(seed=seed)


# ---------------------------------------------------------------------------
# Brownian-preset fixtures
# ---------------------------------------------------------------------------

def _gp_exact_sup_fixture(T=50.0, n_steps=1 << 16, n_paths=10 ** 5):
    def run(seed: int = 0) -> VerifyReport:
        from .gp_extremes import sup_exceedance_mc

        t0 = time.perf_counter()
        grid = [0.5, 1.0, 1.5]
        ests = sup_exceedance_mc(
            grid, T=T, n_steps=n_steps, n_paths=n_paths, seed=seed, beta=1.0, eta=1.0
        )
        report = VerifyReport(
            fixture="bm-unit-slope-exact-law",
            claim="bm_exact_law",
            kind="tail_estimates",
            inputs={"T": T, "n_steps": n_steps, "n_paths": n_paths,
                    "beta": 1.0, "eta": 1.0, "grid": grid},
            rule={"type": "ci_covers_reference", "allowance": 0.05},
            rows=[dict(e.to_dict(), reference=math.exp(-2.0 * e.u)) for e in ests],
            seed=seed,
        )
        return _finish(report, t0)

    return run


def _random_slope_rows(u, eta_zero, eta_pos):
    from . import gp_extremes as gp

    # Zero lower edge (power tail 0.5 * u^-1) and positive edge, same check.
    rows = []
    for name, eta in (("zero-edge-ratio", eta_zero), ("positive-edge-ratio", eta_pos)):
        tail = gp.random_trend_tail(gp.TrendModel.brownian(eta=gp.EtaSpec(**eta)))
        log_exact = gp.bm_exact_oracle(gp.eta_power_low_model(**eta), None, u)
        rows.append(_check(name, math.exp(log_exact - sf_eval(tail, u)), 1.0, 0.02))
    return rows


def _offset_rows(eta, gammas, u):
    from . import gp_extremes as gp

    eta_law = gp.eta_power_low_model(**eta)
    rows = []
    for name, gamma, level in zip(("light-offset", "heavy-offset"), gammas, u):
        model = gp.TrendModel.brownian(
            eta=gp.EtaSpec(**eta), zeta=gp.ZetaSpec(-math.inf, 1.0, gamma)
        )
        tail = gp.shifted_trend_tail(model)
        zeta = gp.negate_model(make_model({"family": "pareto",
                                           "params": {"C": 1.0, "alpha": gamma}}))
        ratio = math.exp(gp.bm_exact_oracle(eta_law, zeta, level) - sf_eval(tail, level))
        rows.append(_check(name, ratio, 1.0, 0.05))
    return rows


def _offset_edge_rows(model):
    from . import gp_extremes as gp

    zeta = model["zeta"]
    trend = gp.TrendModel(
        H=model["H"], beta=model["beta"], alpha_loc=model["alpha_loc"],
        d_ref=(1.0, 1.0), eta=gp.EtaSpec(**model["eta"]), zeta=gp.ZetaSpec(**zeta),
    )
    combined = gp.shifted_trend_tail(trend)
    reference = sum_mixed_tail(gp.random_trend_tail(trend),
                               EdgePower(zeta["C"], -zeta["delta0"], zeta["gamma"]))
    rows = []
    for fld in ("C", "rho", "K", "alpha", "shift"):
        a = getattr(combined, fld)
        b = getattr(reference, fld)
        rel = abs(a - b) / max(abs(b), 1e-300)
        rows.append({"name": fld, "value": a, "reference": b,
                     "tol": 1e-12, "ok": rel <= 1e-12})
    return rows


GP_FIXTURES = {
    "bm-unit-slope-exact-law": _gp_exact_sup_fixture(),
    "bm-unit-slope-exact-law-small": _gp_exact_sup_fixture(
        T=20.0, n_steps=1 << 13, n_paths=4000
    ),
    "bm-random-slope": _scalar_fixture(
        "bm-random-slope", "random_trend", _random_slope_rows,
        u=50.0,
        eta_zero={"delta": 0.0, "C": 1.0, "mu": 1.0},
        eta_pos={"delta": 0.3, "C": 1.0, "mu": 1.0},
    ),
    "bm-random-slope-offset": _scalar_fixture(
        "bm-random-slope-offset", "shifted_trend", _offset_rows,
        eta={"delta": 0.0, "C": 1.0, "mu": 1.0}, gammas=[0.5, 3.0], u=[400.0, 100.0],
    ),
    "bm-offset-edge-composition": _scalar_fixture(
        "bm-offset-edge-composition", "shifted_trend_edge", _offset_edge_rows,
        model={"H": 0.5, "beta": 2.0, "alpha_loc": 1.0,
               "eta": {"delta": 0.5, "C": 1.0, "mu": 1.0},
               "zeta": {"delta0": 0.2, "C": 1.0, "gamma": 1.0}},
    ),
}


def run_gp_fixture(name: str, seed: int = 0) -> VerifyReport:
    return _lookup(GP_FIXTURES, "gp fixture", name)(seed=seed)
