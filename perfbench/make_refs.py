"""Regenerate refs.json, the committed references of every workload.

    python3 perfbench/make_refs.py

Quadrature references use rtol 1e-12 (the benchmark calls the oracles at
their default 1e-9).  The mc-fbm references are the same estimator calls
with 2^14 paths on seeds the benchmark never draws (>= 2^40), recorded
with their own 95% half-widths.  Takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import math

import workloads as W


def _quad_refs(tw) -> dict:
    oracle, gp = tw.oracle, tw.gp_extremes
    flat = {}
    for name, op, xs, ys, anchors in W.FLAT_PAIRS:
        x, y = tw.make_model(xs), tw.make_model(ys)
        fn = oracle.sf_sum_exact if op == "sum" else oracle.sf_product_exact
        flat[name] = {
            repr(a): [[u, fn(x, y, u, rtol=W.REF_RTOL)] for u in W.variant_levels(a)]
            for a in anchors
        }
    eta = gp.eta_power_low_model(0.0, 1.0, 1.0)
    nested = {}
    for gamma in W.NESTED_GAMMAS:
        zeta = gp.negate_model(tw.make_model({"family": "pareto",
                                              "params": {"C": 1.0, "alpha": gamma}}))
        nested[repr(gamma)] = {
            repr(a): [[u, gp.bm_exact_oracle(eta, zeta, u, rtol=W.REF_RTOL)]
                      for u in W.variant_levels(a)]
            for a in W.NESTED_ANCHORS
        }
    fixture_levels = {}
    for name in W.RATIO_FIXTURES:
        inputs = tw.reports.run_fixture(name).inputs
        x, y = tw.make_model(inputs["x"]), tw.make_model(inputs["y"])
        fn = oracle.sf_sum_exact if inputs["op"] == "sum" else oracle.sf_product_exact
        fixture_levels[name] = {repr(float(u)): fn(x, y, float(u), rtol=W.REF_RTOL)
                                for u in inputs["grid"]}
    w, p, ln = (tw.make_model(s) for s in ("weibull(1,2)", "pareto(1,2)", "lognormal(0,1)"))
    mc_bm = {
        "sum": [oracle.sf_sum_exact(w, p, u, rtol=W.REF_RTOL) for u in W.MC_SUM_LEVELS],
        "product": [oracle.sf_product_exact(ln, p, u, rtol=W.REF_RTOL)
                    for u in W.MC_PRODUCT_LEVELS],
    }
    return {"flat": flat, "nested": nested, "fixture_levels": fixture_levels, "mc_bm": mc_bm}


def _fbm_refs(tw) -> dict:
    gp = tw.gp_extremes
    out = {}
    for k, (name, fn, kwargs) in enumerate(W.fbm_item_specs()):
        seed = 2 ** 40 + k
        # Results do not depend on the worker count; two workers save time.
        res = getattr(gp, fn)(**kwargs, n_paths=W.FBM_REF_PATHS, seed=seed, workers=2)
        if fn == "sup_exceedance_mc":
            ref = {"value": [e.p_hat for e in res],
                   "halfwidth": [(e.ci_hi - e.ci_lo) / 2.0 for e in res]}
        else:
            ref = {"value": res.value, "halfwidth": (res.ci_hi - res.ci_lo) / 2.0}
        out[name] = dict(ref, n_paths=W.FBM_REF_PATHS, seed=seed)
        print(name, ref, flush=True)
    return out


def main() -> None:
    tw = W.import_tailward()
    refs = {"rtol": W.REF_RTOL, **_quad_refs(tw), "mc_fbm": _fbm_refs(tw)}
    bad = [v for v in _leaves(refs) if not math.isfinite(v)]
    if bad:
        raise SystemExit(f"non-finite references: {bad}")
    W.REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n")


def _leaves(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _leaves(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v)
    elif isinstance(obj, float):
        yield obj


if __name__ == "__main__":
    main()
