"""Machine-readable verification reports and the named fixture registry.

A report embeds everything needed to recompute its own pass/fail verdict:
the input specs, the grid, the seed, the tolerance rule and the raw rows.
``recompute_pass`` re-derives the verdict from the embedded data alone.
Wall-clock runtime is carried for operators but is the one field excluded
from reproducibility comparisons.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

from . import oracle
from .asymptotic_engine import product_mixed_tail, product_power_tail, sum_mixed_tail
from .errors import SpecError
from .laplace_kernel import (
    LaplaceProblem,
    laplace_general,
    tail_integral_asymptotic,
    tail_integral_numeric,
    watson_asymptotic,
    watson_numeric,
)
from .montecarlo import TailEstimate
from .tail_model import make_model, sf_eval, tail_to_dict

__all__ = [
    "VerifyReport",
    "recompute_pass",
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


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


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
# Sum/product fixtures
# ---------------------------------------------------------------------------

def _ratio_fixture(name, claim, x_spec, y_spec, op, grid, rule, predicted_fn):
    def run(seed: int = 0) -> VerifyReport:
        t0 = time.perf_counter()
        x = make_model(x_spec)
        y = make_model(y_spec)
        predicted = predicted_fn(x, y)
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

    return run


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


def _watson_fixture(mu: float, u_grid, delta: float = 1.0):
    def run(seed: int = 0) -> VerifyReport:
        t0 = time.perf_counter()
        rows = []
        for u in u_grid:
            ratio = math.exp(watson_numeric(u, mu, delta) - watson_asymptotic(u, mu))
            ref = _gamma_p_half_integer(mu + 1.0, u * delta)
            rows.append(
                {
                    "name": f"u={u}",
                    "value": ratio,
                    "reference": ref,
                    "tol": 1e-4,
                    "ok": abs(ratio - ref) <= 1e-4,
                }
            )
        report = VerifyReport(
            fixture="watson-kernel",
            claim="watson",
            kind="scalar_checks",
            inputs={"mu": mu, "delta": delta, "grid": list(u_grid)},
            rule={"type": "all_ok"},
            rows=rows,
            seed=seed,
        )
        return _finish(report, t0)

    return run


def _laplace_core_fixture():
    def run(seed: int = 0) -> VerifyReport:
        t0 = time.perf_counter()
        alpha, beta, mu, K, u = 2.0, 0.0, 1.0, 1.0, 15.0
        rows = []
        ratio = math.exp(
            tail_integral_numeric(u, alpha, beta, mu, K, 1.0)
            - tail_integral_asymptotic(u, alpha, beta, mu, K)
        )
        rows.append(
            {
                "name": "numeric_vs_asymptotic",
                "value": ratio,
                "reference": 1.0,
                "tol": 0.02,
                "ok": abs(ratio - 1.0) <= 0.02,
            }
        )
        logs = {
            d: tail_integral_numeric(u, alpha, beta, mu, K, d) for d in (0.5, 1.0, 2.0)
        }
        pairs = [(0.5, 1.0), (0.5, 2.0), (1.0, 2.0)]
        for d1, d2 in pairs:
            rel = abs(math.exp(logs[d1] - logs[d2]) - 1.0)
            rows.append(
                {
                    "name": f"delta_{d1}_vs_{d2}",
                    "value": rel,
                    "reference": 0.0,
                    "tol": 0.01,
                    "ok": rel <= 0.01,
                }
            )
        report = VerifyReport(
            fixture="laplace-truncated-kernel",
            claim="laplace_core",
            kind="scalar_checks",
            inputs={"alpha": alpha, "beta": beta, "mu": mu, "K": K, "u": u},
            rule={"type": "all_ok"},
            rows=rows,
            seed=seed,
        )
        return _finish(report, t0)

    return run


def _laplace_general_fixture():
    def run(seed: int = 0) -> VerifyReport:
        t0 = time.perf_counter()
        # Boundary-minimum problem matching the product-tail substitution:
        # f(z) = (sigma - z)^beta, S(z) = K (sigma - z)^-alpha.
        sigma, K, alpha, beta, mu = 2.0, 1.0, 2.0, -3.0, 1.0
        u = 400.0
        prob = LaplaceProblem(
            f=lambda z: (sigma - z) ** beta,
            S=lambda z: K * (sigma - z) ** (-alpha),
            mu=mu + 1.0,
            a=1.0,
        )
        res = laplace_general(prob, u)
        ratio = math.exp(res.numeric - res.asymptotic)
        rows = [
            {
                "name": f"u={u}",
                "value": ratio,
                "reference": 1.0,
                "tol": 0.02,
                "ok": abs(ratio - 1.0) <= 0.02,
            }
        ]
        report = VerifyReport(
            fixture="laplace-boundary-minimum",
            claim="laplace_general",
            kind="scalar_checks",
            inputs={"sigma": sigma, "K": K, "alpha": alpha, "beta": beta,
                    "mu": mu, "u": u},
            rule={"type": "all_ok"},
            rows=rows,
            seed=seed,
        )
        return _finish(report, t0)

    return run


FIXTURES = {
    "sum-mixed-weibull-edge": _ratio_fixture(
        "sum-mixed-weibull-edge",
        "sum_mixed",
        "weibull(1,2)",
        "edge(0,1)",
        "sum",
        [4.0, 6.0, 8.0, 10.0],
        {"type": "ratio_window", "tol": 0.05, "nonincreasing_last": 3},
        lambda x, y: sum_mixed_tail(x.tail, y.tail),
    ),
    "product-mixed-weibull-edge": _ratio_fixture(
        "product-mixed-weibull-edge",
        "product_mixed",
        "weibull(1,2)",
        "edge(2,1)",
        "product",
        [8.0, 12.0, 16.0, 20.0],
        {"type": "ratio_window", "tol": 0.05, "nonincreasing_last": 3},
        lambda x, y: product_mixed_tail(x.tail, y.tail),
    ),
    "product-power-lognormal-pareto": _ratio_fixture(
        "product-power-lognormal-pareto",
        "product_power",
        "lognormal(0,1)",
        "pareto(1,2)",
        "product",
        [100.0],
        {"type": "ratio_at_point", "lo": 0.95, "hi": 1.05},
        lambda x, y: product_power_tail(x, y.tail),
    ),
    "sum-dominant-weibull-pareto": _ratio_fixture(
        "sum-dominant-weibull-pareto",
        "sum_dominant",
        "weibull(1,2)",
        "pareto(1,2)",
        "sum",
        [1000.0],
        {"type": "ratio_at_point", "lo": 0.95, "hi": 1.05},
        lambda x, y: y.tail,
    ),
    "laplace-truncated-kernel": _laplace_core_fixture(),
    "laplace-boundary-minimum": _laplace_general_fixture(),
    "watson-kernel": _watson_fixture(1.5, [100.0]),
}


def run_fixture(name: str, seed: int = 0) -> VerifyReport:
    try:
        fn = FIXTURES[name]
    except KeyError:
        raise SpecError(
            f"unknown fixture {name!r}; available: {sorted(FIXTURES)}"
        ) from None
    return fn(seed=seed)


# ---------------------------------------------------------------------------
# Brownian-preset fixtures
# ---------------------------------------------------------------------------

def _estimates_rows(estimates: list[TailEstimate], reference_fn) -> list[dict]:
    rows = []
    for e in estimates:
        d = e.to_dict()
        d["reference"] = reference_fn(e.u)
        rows.append(d)
    return rows


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
            rows=_estimates_rows(ests, lambda u: math.exp(-2.0 * u)),
            seed=seed,
        )
        return _finish(report, t0)

    return run


def _gp_random_slope_fixture():
    def run(seed: int = 0) -> VerifyReport:
        from .gp_extremes import (
            EtaSpec,
            TrendModel,
            bm_exact_oracle,
            eta_power_low_model,
            random_trend_tail,
        )

        t0 = time.perf_counter()
        rows = []
        # Zero lower edge: power tail 0.5 * u^-1, checked at u = 50.
        tail0 = random_trend_tail(TrendModel.brownian(eta=EtaSpec(0.0, 1.0, 1.0)))
        eta0 = eta_power_low_model(0.0, 1.0, 1.0)
        u = 50.0
        ratio0 = math.exp(bm_exact_oracle(eta0, None, u) - sf_eval(tail0, u))
        rows.append({"name": "zero-edge-ratio", "value": ratio0,
                     "reference": 1.0, "tol": 0.02, "ok": abs(ratio0 - 1) <= 0.02})
        # Positive lower edge delta = 0.3: same check.
        tail3 = random_trend_tail(TrendModel.brownian(eta=EtaSpec(0.3, 1.0, 1.0)))
        eta3 = eta_power_low_model(0.3, 1.0, 1.0)
        ratio3 = math.exp(bm_exact_oracle(eta3, None, u) - sf_eval(tail3, u))
        rows.append({"name": "positive-edge-ratio", "value": ratio3,
                     "reference": 1.0, "tol": 0.02, "ok": abs(ratio3 - 1) <= 0.02})
        report = VerifyReport(
            fixture="bm-random-slope",
            claim="random_trend",
            kind="scalar_checks",
            inputs={"u": u, "eta_zero": {"delta": 0.0, "C": 1.0, "mu": 1.0},
                    "eta_pos": {"delta": 0.3, "C": 1.0, "mu": 1.0}},
            rule={"type": "all_ok"},
            rows=rows,
            seed=seed,
        )
        return _finish(report, t0)

    return run


def _gp_offset_fixture():
    def run(seed: int = 0) -> VerifyReport:
        from .gp_extremes import (
            EtaSpec,
            TrendModel,
            ZetaSpec,
            bm_exact_oracle,
            eta_power_low_model,
            negate_model,
            shifted_trend_tail,
        )

        t0 = time.perf_counter()
        eta_spec = EtaSpec(0.0, 1.0, 1.0)
        eta = eta_power_low_model(0.0, 1.0, 1.0)
        rows = []
        for name, gamma, u in (("light-offset", 0.5, 400.0), ("heavy-offset", 3.0, 100.0)):
            model = TrendModel.brownian(
                eta=eta_spec, zeta=ZetaSpec(-math.inf, 1.0, gamma)
            )
            tail = shifted_trend_tail(model)
            zeta = negate_model(make_model({"family": "pareto",
                                            "params": {"C": 1.0, "alpha": gamma}}))
            ratio = math.exp(bm_exact_oracle(eta, zeta, u) - sf_eval(tail, u))
            rows.append({"name": name, "value": ratio, "reference": 1.0,
                         "tol": 0.05, "ok": abs(ratio - 1.0) <= 0.05})
        report = VerifyReport(
            fixture="bm-random-slope-offset",
            claim="shifted_trend",
            kind="scalar_checks",
            inputs={"eta": {"delta": 0.0, "C": 1.0, "mu": 1.0},
                    "gammas": [0.5, 3.0], "u": [400.0, 100.0]},
            rule={"type": "all_ok"},
            rows=rows,
            seed=seed,
        )
        return _finish(report, t0)

    return run


def _gp_offset_edge_fixture():
    def run(seed: int = 0) -> VerifyReport:
        from .asymptotic_engine import sum_mixed_tail as compose
        from .gp_extremes import (
            EtaSpec,
            TrendModel,
            ZetaSpec,
            random_trend_tail,
            shifted_trend_tail,
        )
        from .tail_model import EdgePower

        t0 = time.perf_counter()
        model = TrendModel(
            H=0.5, beta=2.0, alpha_loc=1.0, d_ref=(1.0, 1.0),
            eta=EtaSpec(0.5, 1.0, 1.0), zeta=ZetaSpec(0.2, 1.0, 1.0),
        )
        combined = shifted_trend_tail(model)
        base = random_trend_tail(model)
        reference = compose(base, EdgePower(1.0, -0.2, 1.0))
        rows = []
        for fld in ("C", "rho", "K", "alpha", "shift"):
            a = getattr(combined, fld)
            b = getattr(reference, fld)
            rel = abs(a - b) / max(abs(b), 1e-300)
            rows.append({"name": fld, "value": a, "reference": b,
                         "tol": 1e-12, "ok": rel <= 1e-12})
        report = VerifyReport(
            fixture="bm-offset-edge-composition",
            claim="shifted_trend_edge",
            kind="scalar_checks",
            inputs={"model": {"H": 0.5, "beta": 2.0, "alpha_loc": 1.0,
                              "eta": {"delta": 0.5, "C": 1.0, "mu": 1.0},
                              "zeta": {"delta0": 0.2, "C": 1.0, "gamma": 1.0}}},
            rule={"type": "all_ok"},
            rows=rows,
            seed=seed,
        )
        return _finish(report, t0)

    return run


GP_FIXTURES = {
    "bm-unit-slope-exact-law": _gp_exact_sup_fixture(),
    "bm-unit-slope-exact-law-small": _gp_exact_sup_fixture(
        T=20.0, n_steps=1 << 13, n_paths=4000
    ),
    "bm-random-slope": _gp_random_slope_fixture(),
    "bm-random-slope-offset": _gp_offset_fixture(),
    "bm-offset-edge-composition": _gp_offset_edge_fixture(),
}


def run_gp_fixture(name: str, seed: int = 0) -> VerifyReport:
    try:
        fn = GP_FIXTURES[name]
    except KeyError:
        raise SpecError(
            f"unknown gp fixture {name!r}; available: {sorted(GP_FIXTURES)}"
        ) from None
    return fn(seed=seed)
