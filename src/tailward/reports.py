"""Machine-readable verification reports and the named fixture registry.

A report embeds everything needed to recompute its own pass/fail verdict:
the input specs, the grid, the seed, the tolerance rule and the raw rows.
``recompute_pass`` re-derives the verdict from the embedded data alone.
Wall-clock runtime is carried for operators but is the one field excluded
from reproducibility comparisons.

``_report`` builds, judges and times every report.  A fixture's name is
written once, as its registry key, which ``run_fixture``/``run_gp_fixture``
pass to its builder; a ratio fixture's op is the prefix of its name.

A sum/product report's claim and predicted tail come from the engine's
classifiers (``sum_tail``/``product_tail``), the same code the ``tail``
command runs; ``ratio_report`` builds every such report, the named ones
and the CLI's ad-hoc ``verify sum|product`` alike, and stores
``oracle.ratio_table``'s row dicts as they are.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import oracle
from .asymptotic_engine import product_tail, sum_mixed_tail, sum_tail
from .errors import SpecError
from .laplace_kernel import (
    LaplaceProblem,
    laplace_general,
    tail_integral_asymptotic,
    tail_integral_numeric,
)
from .montecarlo import check_seed
from .tail_model import _law_of, make_model, negate_model, sf_eval, tail_to_dict

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


def _finite_or_null(value):
    """A JSON-ready copy of ``value`` with every non-finite float set to None."""
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
    if kind == "ci_covers_reference":
        # CI must reach the reference shrunk by a one-sided allowance for
        # grid bias, without the estimate exceeding reference + CI width.
        allowance = rule.get("allowance", 0.0)
        ok = True
        for r in rows:
            ref = r["reference"]
            ok = ok and r["ci_lo"] <= ref and r["ci_hi"] >= ref * (1.0 - allowance)
        return ok
    if kind == "all_ok":
        return all(bool(r["ok"]) for r in rows) and bool(rows)
    raise SpecError(f"unknown rule type {kind!r}")


def _report(t0: float, **fields) -> VerifyReport:
    """The one VerifyReport construction: judged by its own rule, timed from t0."""
    return VerifyReport(**fields, passed=recompute_pass(fields),
                        runtime_seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Report builders: a registry value is called with its own key as the name
# ---------------------------------------------------------------------------

def ratio_report(name: str, x_spec, y_spec, op: str, grid, rule: dict,
                 seed: int = 0) -> VerifyReport:
    """Classify X op Y through the engine and tabulate exact/predicted ratios.

    ``op`` is "sum" or "product"; the report's claim and predicted tail are
    whatever ``sum_tail``/``product_tail`` return for the two laws, and its
    rows are ``oracle.ratio_table``'s dicts as they are.
    """
    check_seed(seed)  # recorded, though no stream draws from it
    t0 = time.perf_counter()
    x = make_model(x_spec)
    y = make_model(y_spec)
    predicted, claim = (sum_tail if op == "sum" else product_tail)(x, y)
    inputs = {"x": x.spec(), "y": y.spec(), "op": op, "grid": list(grid),
              "predicted": tail_to_dict(predicted)}
    return _report(t0, fixture=name, claim=claim, kind="ratio_table", inputs=inputs,
                   rule=rule, rows=oracle.ratio_table(x, y, op, predicted, grid),
                   seed=seed)


def _ratio_fixture(x_spec, y_spec, grid, rule: dict):
    """A ratio fixture; its op is the prefix of its name (sum-..., product-...)."""
    return lambda name, seed=0: ratio_report(name, x_spec, y_spec, name.split("-")[0],
                                             grid, rule, seed)


def _scalar_fixture(claim: str, rows_fn, **inputs):
    """A fixture whose rows are ``rows_fn(**inputs)``, each passing on its own."""
    def run(name: str, seed: int = 0) -> VerifyReport:
        t0 = time.perf_counter()
        return _report(t0, fixture=name, claim=claim, kind="scalar_checks", inputs=inputs,
                       rule={"type": "all_ok"}, rows=rows_fn(**inputs), seed=seed)

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
    # Watson's lemma: int_0^delta v**mu e**(-u v) dv over Gamma(mu+1) u**-(mu+1)
    # is P(mu + 1, u delta).
    prob = LaplaceProblem(f=np.ones_like, S=lambda v: v, mu=mu + 1.0, a=delta)
    rows = []
    for u in grid:
        res = laplace_general(prob, u, rtol=1e-11)
        rows.append(_check(f"u={u}", math.exp(res.numeric - res.asymptotic),
                           _gamma_p_half_integer(mu + 1.0, u * delta), 1e-4))
    return rows


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

FIXTURES = {
    "sum-mixed-weibull-edge": _ratio_fixture(
        "weibull(1,2)", "edge(0,1)", [4.0, 6.0, 8.0, 10.0], _RATIO_WINDOW,
    ),
    "product-mixed-weibull-edge": _ratio_fixture(
        "weibull(1,2)", "edge(2,1)", [8.0, 12.0, 16.0, 20.0], _RATIO_WINDOW,
    ),
    "product-power-lognormal-pareto": _ratio_fixture(
        "lognormal(0,1)", "pareto(1,2)", [100.0], _RATIO_WINDOW,
    ),
    "sum-dominant-weibull-pareto": _ratio_fixture(
        "weibull(1,2)", "pareto(1,2)", [1000.0], _RATIO_WINDOW,
    ),
    "laplace-truncated-kernel": _scalar_fixture(
        "laplace_core", _laplace_core_rows, alpha=2.0, beta=0.0, mu=1.0, K=1.0, u=15.0,
    ),
    "laplace-boundary-minimum": _scalar_fixture(
        "laplace_general", _laplace_general_rows,
        sigma=2.0, K=1.0, alpha=2.0, beta=-3.0, mu=1.0, u=400.0,
    ),
    "watson-kernel": _scalar_fixture(
        "watson", _watson_rows, mu=1.5, delta=1.0, grid=[100.0],
    ),
}


def _run(registry: dict, kind: str, name: str, seed: int) -> VerifyReport:
    if name not in registry:
        raise SpecError(f"unknown {kind} {name!r}; available: {sorted(registry)}")
    # A report records only a seed a stream could have, drawn from or not.
    return registry[name](name, seed=check_seed(seed))


def run_fixture(name: str, seed: int = 0) -> VerifyReport:
    return _run(FIXTURES, "fixture", name, seed)


# ---------------------------------------------------------------------------
# Brownian-preset fixtures
# ---------------------------------------------------------------------------

def _gp_exact_sup_fixture(T=50.0, n_steps=1 << 16, n_paths=10 ** 5):
    def run(name: str, seed: int = 0) -> VerifyReport:
        from .gp_extremes import sup_exceedance_mc

        t0 = time.perf_counter()
        grid = [0.5, 1.0, 1.5]
        ests = sup_exceedance_mc(
            grid, T=T, n_steps=n_steps, n_paths=n_paths, seed=seed, beta=1.0, eta=1.0
        )
        inputs = {"T": T, "n_steps": n_steps, "n_paths": n_paths,
                  "beta": 1.0, "eta": 1.0, "grid": grid}
        return _report(t0, fixture=name, claim="bm_exact_law", kind="tail_estimates",
                       inputs=inputs, rule={"type": "ci_covers_reference", "allowance": 0.05},
                       rows=[dict(e.to_dict(), reference=math.exp(-2.0 * e.u)) for e in ests],
                       seed=seed)

    return run


def _trend_ratio_rows(models, u, tol):
    """Each model's oracle-to-claim ratio at its level; the oracle's laws mirror its tails."""
    from . import gp_extremes as gp

    rows = []
    for (name, obj), level in zip(models.items(), u):
        model = gp.TrendModel.from_json(obj)
        tail, _ = gp.trend_tail(model)
        eta, zeta = (None if t is None else negate_model(_law_of(t))
                     for t in (model.eta, model.zeta))
        log_exact = gp.bm_exact_oracle(eta, zeta, level)
        rows.append(_check(name, math.exp(log_exact - sf_eval(tail, level)), 1.0, tol))
    return rows


def _offset_edge_rows(model):
    from . import gp_extremes as gp

    trend = gp.TrendModel.from_json(model)
    combined, _ = gp.trend_tail(trend)
    reference = sum_mixed_tail(gp.random_trend_tail(trend), trend.zeta)
    fields = [(f, getattr(combined, f), getattr(reference, f))
              for f in ("C", "rho", "K", "alpha", "shift")]
    return [{"name": f, "value": a, "reference": b, "tol": 1e-12,
             "ok": abs(a - b) / max(abs(b), 1e-300) <= 1e-12} for f, a, b in fields]


GP_FIXTURES = {
    "bm-unit-slope-exact-law": _gp_exact_sup_fixture(),
    "bm-unit-slope-exact-law-small": _gp_exact_sup_fixture(
        T=20.0, n_steps=1 << 13, n_paths=4000
    ),
    "bm-random-slope": _scalar_fixture(
        "random_trend", _trend_ratio_rows,
        models={"zero-edge-ratio": {"preset": "bm", "eta": {"delta": 0.0, "C": 1.0, "mu": 1.0}},
                "positive-edge-ratio": {"preset": "bm",
                                        "eta": {"delta": 0.3, "C": 1.0, "mu": 1.0}}},
        u=[50.0, 50.0], tol=0.02,
    ),
    "bm-random-slope-offset": _scalar_fixture(
        "shifted_trend", _trend_ratio_rows,
        models={name: {"preset": "bm", "eta": {"delta": 0.0, "C": 1.0, "mu": 1.0},
                       "zeta": {"C": 1.0, "gamma": gamma}}
                for name, gamma in (("light-offset", 0.5), ("heavy-offset", 3.0))},
        u=[400.0, 100.0], tol=0.05,
    ),
    "bm-offset-edge-composition": _scalar_fixture(
        "composition_identity", _offset_edge_rows,
        model={"H": 0.5, "beta": 2.0, "alpha_loc": 1.0,
               "eta": {"delta": 0.5, "C": 1.0, "mu": 1.0},
               "zeta": {"delta0": 0.2, "C": 1.0, "gamma": 1.0}},
    ),
}


def run_gp_fixture(name: str, seed: int = 0) -> VerifyReport:
    return _run(GP_FIXTURES, "gp fixture", name, seed)
