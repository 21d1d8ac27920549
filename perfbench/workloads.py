"""Workload definitions: the items each pass runs and the referee of each.

An item is one call as a user makes it (one fixture, one oracle level or
one estimator call).  Every pass of a workload runs the same calls; only
the Monte Carlo seeds change from pass to pass, so per-pass work counts
are exact.  The run seed chooses the oracle levels (one of eight committed
variants around each anchor) and every Monte Carlo seed.

References live in ``refs.json`` (written by ``make_refs.py``): quadrature
values at rtol 1e-12 and high-path-count estimates for the fBm items, so
no reference is computed while the benchmark runs.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS_PATH = HERE / "refs.json"

WORKLOADS = ("referee", "mc-bm", "mc-fbm")

# The oracles run at their default rtol 1e-9; a quadrature level further
# than LEVEL_TOL from its committed reference (rtol REF_RTOL) misses.
LEVEL_TOL = 1e-8
REF_RTOL = 1e-12

# Flat oracle levels: the four fixture model pairs, ten anchors each.
FLAT_PAIRS = (
    ("sum-mixed-weibull-edge", "sum", "weibull(1,2)", "edge(0,1)",
     (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 15.0)),
    ("product-mixed-weibull-edge", "product", "weibull(1,2)", "edge(2,1)",
     (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 25.0, 30.0)),
    ("product-power-lognormal-pareto", "product", "lognormal(0,1)", "pareto(1,2)",
     (3.0, 10.0, 30.0, 100.0, 300.0, 1e3, 3e3, 1e4, 3e4, 1e5)),
    ("sum-dominant-weibull-pareto", "sum", "weibull(1,2)", "pareto(1,2)",
     (3.0, 10.0, 30.0, 100.0, 300.0, 1e3, 3e3, 1e4, 3e4, 1e5)),
)
# Nested Brownian oracle: eta with CDF x on [0, 1], zeta = -Pareto(1, gamma).
NESTED_GAMMAS = (0.5, 3.0)
NESTED_ANCHORS = (30.0, 100.0, 200.0, 400.0)
N_VARIANTS = 8
VARIANT_SPREAD = 0.05

RATIO_FIXTURES = (
    "sum-mixed-weibull-edge",
    "product-mixed-weibull-edge",
    "product-power-lognormal-pareto",
    "sum-dominant-weibull-pareto",
)
SCALAR_FIXTURES = ("laplace-truncated-kernel", "laplace-boundary-minimum", "watson-kernel")
GP_FIXTURES = ("bm-random-slope", "bm-random-slope-offset", "bm-offset-edge-composition")
# bm-unit-slope-exact-law (1e5 paths x 2^16 steps, ~324 s on one worker) is
# left out on purpose: mc-bm runs the same per-path code at 128 paths.
SMALL_GP_FIXTURE = "bm-unit-slope-exact-law-small"

# mc-bm: estimators at n = 1e6 down to probabilities ~1e-6.
MC_N = 10 ** 6
MC_SUM_LEVELS = (10.0, 30.0, 100.0, 300.0, 1000.0)
MC_PRODUCT_LEVELS = (10.0, 100.0, 1000.0, 2700.0)
SUP_GRID = (0.5, 1.0, 1.5)
SUP_ALLOWANCE = 0.05  # one-sided grid bias allowance of the bm exact-law fixture

FBM_STEPS = 1 << 14
FBM_PATHS = 128
# One worker: on the shared 2-core box two-worker runs swung up to 2.2x
# between runs, which the single-threaded speed probe cannot follow.
FBM_WORKERS = 1
FBM_REF_PATHS = 1 << 14


def variant_levels(anchor: float) -> list[float]:
    """The committed levels around one anchor, within +-5% of it."""
    return [
        anchor * math.exp(VARIANT_SPREAD * (2.0 * j / (N_VARIANTS - 1) - 1.0))
        for j in range(N_VARIANTS)
    ]


def fbm_item_specs() -> list[tuple[str, str, dict]]:
    """(name, function, kwargs) of the mc-fbm items, without seed/paths."""
    specs = []
    for H in (0.3, 0.7):
        specs.append((f"econst-fbm-H{H}", "econst_estimate",
                      dict(process="fbm", alpha=1.0, beta=1.0, T=30.0,
                           n_steps=FBM_STEPS, H=H)))
        specs.append((f"sup-fbm-H{H}", "sup_exceedance_mc",
                      dict(u_grid=list(SUP_GRID), T=50.0, n_steps=FBM_STEPS,
                           beta=1.0, eta=1.0, process="fbm", H=H)))
    for a in (0.6, 1.4):
        specs.append((f"pickands-{a}", "pickands_estimate",
                      dict(alpha_loc=a, T=12.0, n_steps=FBM_STEPS)))
    return specs


def import_tailward():
    """Import tailward from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "tailward" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tailward sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    tw = importlib.import_module("tailward")
    if Path(tw.__file__).resolve().parent != (src / "tailward").resolve():
        raise SystemExit(f"perfbench: imported tailward from {tw.__file__}, not {src}")
    for name in ("reports", "oracle", "montecarlo", "gp_extremes",
                 "gp_extremes.bm_oracle", "gp_extremes.fbm"):
        importlib.import_module(f"tailward.{name}")
    return tw


# ---------------------------------------------------------------------------
# Outcomes: what a referee says about one item's result
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    finite: bool = True          # no NaN or infinity in the result
    well_formed: bool = True     # every interval holds its estimate and backs it
    refereed: bool = False
    hit: bool = True             # the referee accepts the result
    exact: bool = False          # deterministic referee: a miss is incorrect output
    log_errs: list = field(default_factory=list)
    rel_halfwidths: list = field(default_factory=list)
    path_steps: int = 0          # simulated paths x grid steps


def _finite(*vals) -> bool:
    return all(math.isfinite(float(v)) for v in vals)


def _interval(out: Outcome, est: float, lo: float, hi: float) -> None:
    """Record one estimate with its 95% interval."""
    if not _finite(est, lo, hi):
        out.finite = False
        return
    if not (lo <= est <= hi) or (hi - lo == 0.0 and est == 0.0):
        out.well_formed = False
    out.rel_halfwidths.append((hi - lo) / 2.0 / abs(est) if est != 0.0 else math.inf)


def check_level(value: float, ref: float) -> Outcome:
    out = Outcome(refereed=True, exact=True)
    if not _finite(value):
        out.finite = out.hit = False
        return out
    err = abs(value - ref)
    out.log_errs.append(err)
    out.hit = err <= LEVEL_TOL
    return out


def check_report(report, level_refs: dict | None = None) -> Outcome:
    """A verification report: its own rule is the referee."""
    # Monte Carlo fixtures are judged by a statistical rule; the others are
    # deterministic, so a miss there is incorrect output.
    out = Outcome(refereed=True, hit=bool(report.passed),
                  exact=report.kind != "tail_estimates")
    if report.kind == "tail_estimates":
        out.path_steps = report.inputs["n_paths"] * report.inputs["n_steps"]
    for row in report.rows:
        if report.kind == "ratio_table":
            if row.get("status", "ok") != "ok" or not _finite(row["ratio"]):
                out.finite = False
            elif level_refs is not None:
                out.log_errs.append(abs(row["log_sf_exact"] - level_refs[repr(row["u"])]))
        elif report.kind == "scalar_checks":
            if not _finite(row["value"]):
                out.finite = False
        else:
            _interval(out, row["p_hat"], row["ci_lo"], row["ci_hi"])
    out.hit = out.hit and out.finite and all(e <= LEVEL_TOL for e in out.log_errs)
    return out


def check_tail_estimates(ests, refs, allowance: float = 0.0, ref_halfwidths=None,
                         path_steps: int = 0) -> Outcome:
    """Estimates on a level grid; each interval must reach its reference.

    ``allowance`` is the one-sided grid-bias allowance of the exact-law
    fixture rule; ``ref_halfwidths`` widens the interval by the reference's
    own 95% half-width when the reference is itself an estimate.
    """
    if len(ests) != len(refs):
        raise ValueError(f"{len(ests)} estimates for {len(refs)} levels")
    out = Outcome(refereed=True, path_steps=path_steps)
    for i, (e, ref) in enumerate(zip(ests, refs)):
        _interval(out, e.p_hat, e.ci_lo, e.ci_hi)
        pad = ref_halfwidths[i] if ref_halfwidths else 0.0
        if not (e.ci_lo - pad <= ref and e.ci_hi + pad >= ref * (1.0 - allowance)):
            out.hit = False
    out.hit = out.hit and out.finite
    return out


def check_mc_estimate(est, ref: dict, path_steps: int) -> Outcome:
    out = Outcome(refereed=True, path_steps=path_steps)
    _interval(out, est.value, est.ci_lo, est.ci_hi)
    out.hit = out.finite and (est.ci_lo - ref["halfwidth"] <= ref["value"]
                              <= est.ci_hi + ref["halfwidth"])
    return out


# ---------------------------------------------------------------------------
# Items and workloads
# ---------------------------------------------------------------------------

@dataclass
class Item:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    name: str
    seed: int
    workers: int
    items: Callable[[int], list]  # pass index -> items of that pass


def _pass_seeds(seed: int, pass_idx: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, pass_idx])
    return [int(s) for s in rng.integers(0, 2 ** 31, size=n)]


def _referee(tw, seed: int, refs: dict) -> Workload:
    reports, oracle = tw.reports, tw.oracle
    gp = tw.gp_extremes
    pick = np.random.default_rng([seed, 0x5EED])
    flat = []
    for name, op, xs, ys, anchors in FLAT_PAIRS:
        x, y = tw.make_model(xs), tw.make_model(ys)
        table = refs["flat"][name]
        for anchor in anchors:
            u, ref = table[repr(anchor)][int(pick.integers(N_VARIANTS))]
            flat.append((name, op, x, y, u, ref))
    eta = gp.eta_power_low_model(0.0, 1.0, 1.0)
    nested = []
    for gamma in NESTED_GAMMAS:
        zeta = gp.negate_model(tw.make_model({"family": "pareto",
                                              "params": {"C": 1.0, "alpha": gamma}}))
        table = refs["nested"][repr(gamma)]
        for anchor in NESTED_ANCHORS:
            u, ref = table[repr(anchor)][int(pick.integers(N_VARIANTS))]
            nested.append((gamma, zeta, u, ref))
    fixture_refs = refs["fixture_levels"]
    probe_refs = [math.exp(-2.0 * u) for u in SUP_GRID]
    probe = dict(T=10.0, n_steps=1 << 14, n_paths=256)
    probe_steps = probe["n_paths"] * probe["n_steps"]

    def items(pass_idx: int) -> list[Item]:
        out = []
        for name in RATIO_FIXTURES:
            out.append(Item(f"fixture:{name}",
                            lambda n=name: reports.run_fixture(n, seed=seed),
                            lambda r, n=name: check_report(r, fixture_refs[n])))
        for name in SCALAR_FIXTURES:
            out.append(Item(f"fixture:{name}",
                            lambda n=name: reports.run_fixture(n, seed=seed), check_report))
        for name in GP_FIXTURES:
            out.append(Item(f"fixture:{name}",
                            lambda n=name: reports.run_gp_fixture(n, seed=seed), check_report))
        for name, op, x, y, u, ref in flat:
            fn_name = "sf_sum_exact" if op == "sum" else "sf_product_exact"
            out.append(Item(f"level:{name}:u={u:.6g}",
                            lambda f=fn_name, x=x, y=y, u=u: getattr(oracle, f)(x, y, u),
                            lambda v, ref=ref: check_level(v, ref)))
        for gamma, zeta, u, ref in nested:
            out.append(Item(f"bm-oracle:gamma={gamma}:u={u:.6g}",
                            lambda z=zeta, u=u: gp.bm_exact_oracle(eta, z, u),
                            lambda v, ref=ref: check_level(v, ref)))
        # A small exact-law path check keeps the path metrics defined here.
        (s,) = _pass_seeds(seed, pass_idx, 1)
        out.append(Item("sup-bm-probe",
                        lambda: gp.sup_exceedance_mc(list(SUP_GRID), seed=s, workers=1,
                                                     beta=1.0, eta=1.0, **probe),
                        lambda r: check_tail_estimates(r, probe_refs, SUP_ALLOWANCE,
                                                       path_steps=probe_steps)))
        return out

    return Workload("referee", seed, 1, items)


def _mc_bm(tw, seed: int, refs: dict) -> Workload:
    mc, gp, reports = tw.montecarlo, tw.gp_extremes, tw.reports
    w, p, ln = (tw.make_model(s) for s in ("weibull(1,2)", "pareto(1,2)", "lognormal(0,1)"))
    cases = (  # (estimator, x, y, op, levels, log references)
        ("estimate_sf", w, p, "sum", MC_SUM_LEVELS, refs["mc_bm"]["sum"]),
        ("conditional_sf", w, p, "sum", MC_SUM_LEVELS, refs["mc_bm"]["sum"]),
        ("estimate_sf", ln, p, "product", MC_PRODUCT_LEVELS, refs["mc_bm"]["product"]),
        ("conditional_sf", ln, p, "product", MC_PRODUCT_LEVELS, refs["mc_bm"]["product"]),
    )
    sup_refs = [math.exp(-2.0 * u) for u in SUP_GRID]
    sup = dict(T=50.0, n_steps=1 << 16, n_paths=128)
    sup_steps = sup["n_paths"] * sup["n_steps"]

    def estimator_item(case, s: int) -> Item:
        fn, x, y, op, levels, log_refs = case
        return Item(f"{fn}:{op}",
                    lambda: getattr(mc, fn)(x, y, op, list(levels), MC_N, s, workers=1),
                    lambda r: check_tail_estimates(r, [math.exp(v) for v in log_refs]))

    def items(pass_idx: int) -> list[Item]:
        s = _pass_seeds(seed, pass_idx, 2 + len(cases))
        return [
            Item("sup-bm", lambda: gp.sup_exceedance_mc(list(SUP_GRID), seed=s[0], workers=1,
                                                        beta=1.0, eta=1.0, **sup),
                 lambda r: check_tail_estimates(r, sup_refs, SUP_ALLOWANCE,
                                                path_steps=sup_steps)),
            Item(f"fixture:{SMALL_GP_FIXTURE}",
                 lambda: reports.run_gp_fixture(SMALL_GP_FIXTURE, seed=s[1]), check_report),
        ] + [estimator_item(case, s[2 + k]) for k, case in enumerate(cases)]

    return Workload("mc-bm", seed, 1, items)


def _mc_fbm(tw, seed: int, refs: dict) -> Workload:
    gp = tw.gp_extremes
    specs = fbm_item_specs()
    # Warm the cached circulant spectra: (H, n) for the one-sided grids and
    # (H, 2n) for the two-sided Pickands paths.
    warm_rng = tw.montecarlo.block_rng(seed, 0)
    for H in (0.3, 0.7):
        for n in (FBM_STEPS, 2 * FBM_STEPS):
            gp.fbm_path(H, n, 1.0, warm_rng)

    def make(name, fn, kwargs, s) -> Item:
        ref = refs["mc_fbm"][name]
        # Pickands paths cover [-T, T] with n_steps intervals on each side.
        steps = FBM_PATHS * FBM_STEPS * (2 if fn == "pickands_estimate" else 1)

        def call():
            return getattr(gp, fn)(**kwargs, n_paths=FBM_PATHS, seed=s, workers=FBM_WORKERS)

        def check(result) -> Outcome:
            if fn == "sup_exceedance_mc":
                return check_tail_estimates(result, ref["value"],
                                            ref_halfwidths=ref["halfwidth"], path_steps=steps)
            return check_mc_estimate(result, ref, steps)

        return Item(name, call, check)

    def items(pass_idx: int) -> list[Item]:
        s = _pass_seeds(seed, pass_idx, len(specs))
        return [make(name, fn, kw, s[k]) for k, (name, fn, kw) in enumerate(specs)]

    return Workload("mc-fbm", seed, FBM_WORKERS, items)


_BUILDERS = {"referee": _referee, "mc-bm": _mc_bm, "mc-fbm": _mc_fbm}


def build(name: str, seed: int, refs: dict) -> Workload:
    """Import tailward, build the workload's models and warm its caches."""
    return _BUILDERS[name](import_tailward(), seed, refs)
