"""Batch command-line surface for the tail calculus, oracles and simulators.

Exit codes: 0 all checks passed, 1 a verification check failed, 2 bad
specification or arguments, 3 a mathematical hypothesis or domination
condition is violated (the message names it), 4 numerical failure.

All randomness enters through --seed (default 0, never time-based); the
TAILWARD_THREADS environment variable caps --workers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .asymptotic_engine import product_tail, sum_tail
from .errors import (
    AssumptionError,
    BoundaryCase,
    ConditionError,
    DivergentMoment,
    DomainError,
    EmbeddingFailure,
    MissingEConstant,
    MissingPickands,
    QuadratureFailure,
    SpecError,
    TailwardError,
    Unsupported,
)
from .tail_model import make_model, tail_to_dict

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SPEC = 2
EXIT_ASSUMPTION = 3
EXIT_NUMERIC = 4

_ASSUMPTION_ERRORS = (
    AssumptionError,
    ConditionError,
    Unsupported,
    DivergentMoment,
    BoundaryCase,
    MissingPickands,
    MissingEConstant,
)
_SPEC_ERRORS = (SpecError, DomainError)
_NUMERIC_ERRORS = (QuadratureFailure, EmbeddingFailure)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) == 3:
        a, b, step = (float(p) for p in parts)
        if step <= 0 or b < a:
            raise SpecError(f"bad grid {text!r}")
        grid = []
        v = a
        while v <= b + 1e-12:
            grid.append(round(v, 12))
            v += step
        return grid
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise SpecError(f"bad grid {text!r}") from exc


# ---------------------------------------------------------------------------
# tail subcommand: the engine's closed form for the declared tail families
# ---------------------------------------------------------------------------

def _cmd_tail(args) -> int:
    x = make_model(args.x)
    y = make_model(args.y)
    tail, claim = (sum_tail if args.op == "sum" else product_tail)(x, y)
    _emit(
        {
            "op": args.op,
            "claim": claim,
            "x": x.spec(),
            "y": y.spec(),
            "tail": tail_to_dict(tail),
        },
        args.out,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------

def _write_report(report, out_dir: str | None) -> None:
    if out_dir:
        base = Path(out_dir)
        base.mkdir(parents=True, exist_ok=True)
        (base / f"{report.fixture}.json").write_text(report.to_json() + "\n")
        csv_text = report.rows_csv()
        if csv_text:
            (base / f"{report.fixture}.csv").write_text(csv_text)
    else:
        print(report.to_json())


def _cmd_verify(args) -> int:
    from . import reports

    if args.fixture:
        report = reports.run_fixture(args.fixture, seed=args.seed)
    elif args.target == "sum" or args.target == "product":
        if not (args.x and args.y and args.grid):
            raise SpecError("ad-hoc verify needs --x, --y and --grid")
        grid = _parse_grid(args.grid)
        rule = {"type": "ratio_window", "tol": args.tol,
                "nonincreasing_last": min(3, len(grid))}
        report = reports.ratio_report(f"adhoc-{args.target}", args.x, args.y,
                                      args.target, grid, rule, seed=args.seed)
    elif args.target == "laplace":
        report = reports.run_fixture("laplace-truncated-kernel", seed=args.seed)
    elif args.target == "watson":
        report = reports.run_fixture("watson-kernel", seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise SpecError(f"unknown verify target {args.target!r}")
    _write_report(report, args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# gp subcommands
# ---------------------------------------------------------------------------

def _trend_model_from_json(text: str):
    from .gp_extremes import EtaSpec, TrendModel, ZetaSpec

    path = Path(text)
    raw = path.read_text() if path.is_file() else text
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SpecError(f"bad trend model JSON: {exc}") from exc
    eta = obj.get("eta")
    zeta = obj.get("zeta")
    d_ref = obj.get("d_ref", {"s": 1.0, "value": 1.0})
    if obj.get("preset") == "bm":
        base = dict(H=0.5, beta=obj.get("beta", 1.0), alpha_loc=1.0,
                    d_ref=(1.0, 1.0))
    elif obj.get("preset") == "fbm":
        H = float(obj["H"])
        base = dict(H=H, beta=float(obj["beta"]), alpha_loc=2.0 * H,
                    d_ref=(1.0, 1.0))
    else:
        base = dict(
            H=float(obj["H"]),
            beta=float(obj["beta"]),
            alpha_loc=float(obj["alpha_loc"]),
            d_ref=(float(d_ref["s"]), float(d_ref["value"])),
        )
    try:
        return TrendModel(
            **base,
            eta=EtaSpec(float(eta["delta"]), float(eta["C"]), float(eta["mu"]))
            if eta
            else None,
            zeta=ZetaSpec(
                float(zeta.get("delta0", -math.inf)),
                float(zeta["C"]),
                float(zeta["gamma"]),
            )
            if zeta
            else None,
            pickands=obj.get("pickands"),
            e_const=obj.get("e_const"),
        )
    except (KeyError, TypeError) as exc:
        raise SpecError(f"bad trend model object: {exc}") from exc


def _cmd_gp_constants(args) -> int:
    from .gp_extremes import TrendModel, trend_constants

    s_ref, d_val = (float(p) for p in args.d_ref.split(":"))
    model = TrendModel(
        H=args.H, beta=args.beta, alpha_loc=args.alpha_loc,
        d_ref=(s_ref, d_val), pickands=args.pickands,
    )
    k = trend_constants(model, args.c)
    _emit(k.to_dict(), args.out)
    return EXIT_OK


def _cmd_gp_tail(args) -> int:
    from .gp_extremes import random_trend_tail, shifted_trend_case, shifted_trend_tail

    model = _trend_model_from_json(args.model)
    notes = []
    if model.zeta is None:
        tail = random_trend_tail(model)
        case = "slope_only"
    else:
        case = shifted_trend_case(model)
        tail = shifted_trend_tail(model)
    if model.eta is not None and model.eta.delta == 0.0 and case in (
        "slope_only",
        "slope_dominates",
    ):
        notes.append(
            "zero-edge slope: power exponent is mu*(beta-H)/H, the value "
            "derived by composing the rescaling with the product rule "
            "(published displays differ; the Brownian oracle confirms this one)"
        )
        if case == "slope_only":  # the zero-edge slope-only tail is a power
            notes.append(
                "coefficient uses the sup-ratio moment of order beta*mu/H "
                "(proof-side subscript), verified against the Brownian oracle"
            )
    payload = {
        "case": case,
        "tail": tail_to_dict(tail),
        "notes": notes,
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_gp_verify(args) -> int:
    from . import reports

    if args.preset != "bm":
        raise SpecError(f"unknown preset {args.preset!r}; only 'bm' is exact")
    report = reports.run_gp_fixture(args.fixture, seed=args.seed)
    _write_report(report, args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_gp_fbm(args) -> int:
    import numpy as np

    from .gp_extremes import fbm_path, paths_to_csv, write_paths_binary
    from .montecarlo import block_rng

    paths = np.array(
        [fbm_path(args.H, args.steps, args.T, block_rng(args.seed, i))
         for i in range(args.paths)]
    )
    fmt = args.format
    if fmt == "auto":
        fmt = "csv" if args.out.endswith(".csv") else "bin"
    if fmt == "csv":
        Path(args.out).write_text(paths_to_csv(args.H, args.T, paths))
    else:
        write_paths_binary(args.out, args.H, args.T, paths)
    print(f"wrote {args.paths} paths ({args.steps} steps, T={args.T}) to {args.out}")
    return EXIT_OK


def _cmd_gp_pickands(args) -> int:
    from .gp_extremes import pickands_estimate

    est = pickands_estimate(
        args.alpha, T=args.T, n_paths=args.paths, n_steps=args.steps,
        seed=args.seed, workers=args.workers,
    )
    _emit(est.to_dict(), args.out)
    return EXIT_OK


def _cmd_gp_econst(args) -> int:
    from .gp_extremes import econst_estimate

    est = econst_estimate(
        args.process, alpha=args.alpha, beta=args.beta, T=args.T,
        n_paths=args.paths, n_steps=args.steps, seed=args.seed, H=args.H,
        workers=args.workers,
    )
    _emit(est.to_dict(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailward",
        description="Closed-form tail asymptotics with numerical referees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tail = sub.add_parser("tail", help="closed-form tail of a sum or product")
    p_tail.add_argument("op", choices=["sum", "product"])
    p_tail.add_argument("--x", required=True, help="distribution spec, e.g. weibull:K=1,alpha=2")
    p_tail.add_argument("--y", required=True)
    p_tail.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_tail.set_defaults(fn=_cmd_tail)

    p_ver = sub.add_parser("verify", help="run an oracle-backed verification")
    p_ver.add_argument("target", choices=["sum", "product", "laplace", "watson"])
    p_ver.add_argument("--fixture", default=None, help="named fixture")
    p_ver.add_argument("--x", default=None)
    p_ver.add_argument("--y", default=None)
    p_ver.add_argument("--grid", default=None, help="a:b:step or comma list")
    p_ver.add_argument("--tol", type=float, default=0.05)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default=None, help="directory for JSON+CSV report")
    p_ver.set_defaults(fn=_cmd_verify)

    p_gp = sub.add_parser("gp", help="Gaussian-process supremum tools")
    gp_sub = p_gp.add_subparsers(dest="gp_command", required=True)

    p_const = gp_sub.add_parser("constants", help="derived trend constants")
    p_const.add_argument("--H", type=float, required=True)
    p_const.add_argument("--beta", type=float, required=True)
    p_const.add_argument("--alpha-loc", dest="alpha_loc", type=float, required=True)
    p_const.add_argument("--c", type=float, default=1.0)
    p_const.add_argument("--d-ref", dest="d_ref", default="1:1", help="s:value anchor")
    p_const.add_argument("--pickands", type=float, default=None)
    p_const.add_argument("--out", default=None)
    p_const.set_defaults(fn=_cmd_gp_constants)

    p_gtail = gp_sub.add_parser("tail", help="random-trend supremum tail")
    p_gtail.add_argument("--model", required=True, help="JSON string or file")
    p_gtail.add_argument("--out", default=None)
    p_gtail.set_defaults(fn=_cmd_gp_tail)

    p_gver = gp_sub.add_parser("verify", help="verify against the Brownian oracle")
    p_gver.add_argument("--preset", default="bm")
    p_gver.add_argument("--fixture", required=True)
    p_gver.add_argument("--seed", type=int, default=0)
    p_gver.add_argument("--out", default=None)
    p_gver.set_defaults(fn=_cmd_gp_verify)

    p_fbm = gp_sub.add_parser("fbm", help="dump fractional Brownian paths")
    p_fbm.add_argument("--H", type=float, required=True)
    p_fbm.add_argument("--steps", type=int, required=True)
    p_fbm.add_argument("--T", type=float, required=True)
    p_fbm.add_argument("--paths", type=int, default=1)
    p_fbm.add_argument("--seed", type=int, default=0)
    p_fbm.add_argument("--out", required=True)
    p_fbm.add_argument("--format", choices=["auto", "bin", "csv"], default="auto")
    p_fbm.set_defaults(fn=_cmd_gp_fbm)

    p_pick = gp_sub.add_parser("pickands", help="estimate a Pickands constant")
    p_pick.add_argument("--alpha", type=float, required=True)
    p_pick.add_argument("--T", type=float, default=12.0)
    p_pick.add_argument("--paths", type=int, default=4000)
    p_pick.add_argument("--steps", type=int, default=1 << 14)
    p_pick.add_argument("--seed", type=int, default=0)
    p_pick.add_argument("--workers", type=int, default=None)
    p_pick.add_argument("--out", default=None)
    p_pick.set_defaults(fn=_cmd_gp_pickands)

    p_ec = gp_sub.add_parser("econst", help="estimate the sup-ratio moment")
    p_ec.add_argument("--process", choices=["bm", "fbm"], default="bm")
    p_ec.add_argument("--H", type=float, default=0.5)
    p_ec.add_argument("--alpha", type=float, required=True)
    p_ec.add_argument("--beta", type=float, required=True)
    p_ec.add_argument("--T", type=float, default=30.0)
    p_ec.add_argument("--paths", type=int, default=4000)
    p_ec.add_argument("--steps", type=int, default=1 << 14)
    p_ec.add_argument("--seed", type=int, default=0)
    p_ec.add_argument("--workers", type=int, default=None)
    p_ec.add_argument("--out", default=None)
    p_ec.set_defaults(fn=_cmd_gp_econst)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_SPEC if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except _SPEC_ERRORS as exc:
        print(f"specification error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except _ASSUMPTION_ERRORS as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except TailwardError as exc:  # catch-all for library errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
