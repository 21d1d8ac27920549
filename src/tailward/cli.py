"""Batch command-line surface for the tail calculus, oracles and simulators.

Exit codes: 0 all checks passed, 1 a verification check failed, 2 bad
specification or arguments (an --out path that cannot be written among
them), 3 a mathematical hypothesis or domination condition is violated
(the message names it), 4 numerical failure.  Each error class carries
its exit code as ``exit_code`` (see :mod:`tailward.errors`).

All randomness enters through --seed, in [0, 2**64) (default 0, never
time-based).  Monte Carlo commands run one thread per CPU the process may
use, at most TAILWARD_THREADS when it is set (a positive integer); results
are bitwise the same for any thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .asymptotic_engine import product_tail, sum_tail
from .errors import SpecError, TailwardError
from .tail_model import make_model, tail_to_dict

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SPEC = 2
EXIT_ASSUMPTION = 3
EXIT_NUMERIC = 4

_LABELS = {
    EXIT_SPEC: "specification error",
    EXIT_ASSUMPTION: "hypothesis violated",
    EXIT_NUMERIC: "numerical failure",
}


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


_MAX_GRID_POINTS = 10 ** 5  # an a:b:step grid's count is checked before a point is built


def _parse_grid(text: str) -> list[float]:
    """A comma list, or a:b:step: each a + k*step to 12 significant digits, at most b."""
    parts = text.split(":")
    try:
        values = [float(p) for p in (parts if len(parts) == 3 else text.split(","))]
    except ValueError as exc:
        raise SpecError(f"bad grid {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise SpecError(f"bad grid {text!r}: every part must be finite")
    if len(parts) != 3:
        return values
    a, b, step = values
    if step <= 0 or b < a or a + step == a:  # a step too small to move a never ends
        raise SpecError(f"bad grid {text!r}")
    count = (b - a) / step + 1.0
    if not count <= _MAX_GRID_POINTS:
        raise SpecError(f"bad grid {text!r}: more than {_MAX_GRID_POINTS} points")
    # The slack keeps b where (b - a) / step rounds just below a whole number.
    return [min(float(f"{a + k * step:.12g}"), b) for k in range(math.floor(count + 1e-9))]


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


# The fixture each target without ad-hoc inputs runs when --fixture is not given.
_DEFAULT_FIXTURES = {"laplace": "laplace-truncated-kernel", "watson": "watson-kernel"}


def _cmd_verify(args) -> int:
    from . import reports

    fixture = args.fixture or _DEFAULT_FIXTURES.get(args.target)
    if fixture:
        # Fixture names carry their target as a prefix: sum-, product-, ...
        if not fixture.startswith(f"{args.target}-"):
            raise SpecError(f"fixture {fixture!r} is not a {args.target} fixture")
        given = [f"--{k}" for k in ("x", "y", "grid", "tol") if getattr(args, k) is not None]
        if given:
            raise SpecError(f"fixture {fixture!r} runs as written; drop {', '.join(given)}")
        report = reports.run_fixture(fixture, seed=args.seed)
    else:  # sum or product: argparse restricts the targets
        if not (args.x and args.y and args.grid):
            raise SpecError("ad-hoc verify needs --x, --y and --grid")
        tol = 0.05 if args.tol is None else args.tol
        if not 0.0 < tol < math.inf:
            raise SpecError(f"--tol must be positive and finite, got {tol!r}")
        grid = _parse_grid(args.grid)
        rule = {"type": "ratio_window", "tol": tol,
                "nonincreasing_last": min(3, len(grid))}
        report = reports.ratio_report(f"adhoc-{args.target}", args.x, args.y,
                                      args.target, grid, rule, seed=args.seed)
    _write_report(report, args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# gp subcommands
# ---------------------------------------------------------------------------

def _trend_model_from_json(text: str):
    from .gp_extremes import TrendModel

    # Inline JSON is never probed as a path: a long one is no valid file name.
    try:
        obj = json.loads(text if text.lstrip().startswith(("{", "[")) else Path(text).read_text())
    except ValueError as exc:  # JSON that does not decode, or a file that is not UTF-8
        raise SpecError(f"bad trend model JSON: {exc}") from exc
    return TrendModel.from_json(obj)


def _cmd_gp_constants(args) -> int:
    from .gp_extremes import trend_constants

    _emit(trend_constants(_trend_model_from_json(args.model), args.c).to_dict(), args.out)
    return EXIT_OK


def _cmd_gp_tail(args) -> int:
    from .gp_extremes import trend_tail

    model = _trend_model_from_json(args.model)
    tail, case = trend_tail(model)
    notes = []
    if model.eta.sigma == 0.0 and case in ("slope_only", "slope_dominates"):
        notes.append(
            "zero-edge slope: power exponent is mu*(beta-H)/H, the value "
            "derived by composing the rescaling with the product rule "
            "(published displays differ; the Brownian oracle checks it at "
            "beta = 1 only, where the rival form mu*(beta-H)/(beta*H) agrees)"
        )
        if case == "slope_only":  # the zero-edge slope-only tail is a power
            notes.append(
                "coefficient uses the sup-ratio moment of order beta*mu/H "
                "(proof-side subscript), checked against the Brownian oracle "
                "at beta = 1 only, where the order mu/H agrees"
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

    report = reports.run_gp_fixture(args.fixture, seed=args.seed)
    _write_report(report, args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_gp_fbm(args) -> int:
    from .gp_extremes.estimators import _path_values
    from .gp_extremes.fbm import _check_grid, fbm_path, paths_to_csv, write_paths_binary

    if args.paths < 1:
        raise SpecError(f"need --paths >= 1, got {args.paths}")
    _check_grid(args.H, args.steps, args.T)  # before a workspace is sized from --steps
    # Path i is the path a path estimate draws for index i.
    paths = _path_values(
        lambda rng, work: fbm_path(args.H, args.steps, args.T, rng, work).copy(),
        args.paths, args.seed, args.steps, None)
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
        seed=args.seed,
    )
    _emit(est.to_dict(), args.out)
    return EXIT_OK


def _cmd_gp_econst(args) -> int:
    from .gp_extremes import econst_estimate

    est = econst_estimate(
        "fbm", alpha=args.alpha, beta=args.beta, T=args.T,
        n_paths=args.paths, n_steps=args.steps, seed=args.seed, H=args.H,
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
    p_tail.add_argument("--x", required=True,
                        help="law spec, its parameters in order: weibull(1,2) is K=1, alpha=2")
    p_tail.add_argument("--y", required=True, help="law spec, as --x")
    p_tail.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_tail.set_defaults(fn=_cmd_tail)

    p_ver = sub.add_parser("verify", help="run an oracle-backed verification")
    p_ver.add_argument("target", choices=["sum", "product", "laplace", "watson"])
    p_ver.add_argument("--fixture", default=None,
                       help="named fixture; its name starts with the target")
    p_ver.add_argument("--x", default=None, help="law spec of an ad-hoc verify, e.g. weibull(1,2)")
    p_ver.add_argument("--y", default=None, help="law spec, as --x")
    p_ver.add_argument("--grid", default=None, help="a:b:step or comma list")
    p_ver.add_argument("--tol", type=float, default=None,
                       help="ratio window of an ad-hoc verify (default 0.05)")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default=None, help="directory for JSON+CSV report")
    p_ver.set_defaults(fn=_cmd_verify)

    p_gp = sub.add_parser("gp", help="Gaussian-process supremum tools")
    gp_sub = p_gp.add_subparsers(dest="gp_command", required=True)

    p_const = gp_sub.add_parser("constants", help="derived trend constants")
    p_const.add_argument("--model", required=True,
                         help="JSON string or file, read as in gp tail "
                         "(gp_extremes.TrendModel.from_json); eta and zeta are unused")
    p_const.add_argument("--c", type=float, default=1.0)
    p_const.add_argument("--out", default=None)
    p_const.set_defaults(fn=_cmd_gp_constants)

    p_gtail = gp_sub.add_parser(
        "tail",
        help="random-trend supremum tail and its regime: slope_only, "
        "offset_dominates, slope_dominates or edge_offset (equal slope and "
        "offset power orders exit 3)",
    )
    p_gtail.add_argument("--model", required=True, help="JSON string or file")
    p_gtail.add_argument("--out", default=None)
    p_gtail.set_defaults(fn=_cmd_gp_tail)

    p_gver = gp_sub.add_parser("verify", help="verify against the Brownian oracle")
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
    p_pick.add_argument("--out", default=None)
    p_pick.set_defaults(fn=_cmd_gp_pickands)

    p_ec = gp_sub.add_parser("econst", help="estimate the sup-ratio moment")
    p_ec.add_argument("--H", type=float, default=0.5, help="Hurst index; 0.5 is Brownian motion")
    p_ec.add_argument("--alpha", type=float, required=True)
    p_ec.add_argument("--beta", type=float, required=True)
    p_ec.add_argument("--T", type=float, default=30.0)
    p_ec.add_argument("--paths", type=int, default=4000)
    p_ec.add_argument("--steps", type=int, default=1 << 14)
    p_ec.add_argument("--seed", type=int, default=0)
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
    except (TailwardError, OSError) as exc:
        # OSError: an unusable --out or --model path is a specification error.
        code = getattr(exc, "exit_code", EXIT_SPEC)
        print(f"{_LABELS[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
