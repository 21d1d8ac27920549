"""Run one benchmark workload of tailward and print its metrics.

    python3 perfbench/run.py --workload referee --seed 1 --seconds 30 --trace 0

Workloads are ``referee``, ``mc-bm`` and ``mc-fbm`` (see README.md).  A run
repeats whole passes of the workload's items until ``--seconds`` have
passed, checks every item against its referee, and prints one JSON object
as the last line of standard output.  ``--trace 0`` gives the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes of the same
items and gives the per-layer metrics from spans recorded around
tailward's public functions.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Keep the process to the estimators' own worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SETUP_SAMPLES = 5   # this process and four fresh ones
CLI_SAMPLES = 3
# Log errors below the oracles' requested rtol read as that rtol, so
# max_log_err moves only when accuracy leaves its specification.
LOG_ERR_FLOOR = 1e-9
# The shared box this was built on runs up to twice as slow for minutes at a
# time.  Every item's wall time is therefore scaled by
# PROBE_REF_S / (speed_probe() timed just before the item): times are
# reported at the speed where the probe takes PROBE_REF_S (an idle spell of
# that box).  The notes print the unscaled figures too.
PROBE_REF_S = 1.1e-3
# Statistical referees miss now and then, and mc-bm's known estimator
# defects miss about a third of the time; a run where more than this share
# of items fail or miss is reported as incorrect output.
MAX_MISS_FRAC = 0.75

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "path_steps_per_s": "1/s",
    "ok_frac": "frac",
    "ref_hit_frac": "frac",
    "max_log_err": "nats",
    "ci_rel_halfwidth": "frac",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith("ns_per_node"):
        return "ns"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_util", "_rel_error")):
        return "frac"
    return "count"


@functools.cache
def _probe_wave():
    import numpy as np

    return np.sin(np.arange(1 << 15, dtype=float))


def speed_probe() -> float:
    """Wall time of fixed interpreter, small-array and FFT work (about 1 ms)."""
    import numpy as np

    wave = _probe_wave()
    t0 = perf_counter()
    acc = 0
    for i in range(5000):
        acc += i * i
    small = np.linspace(0.1, 1.0, 15)
    for _ in range(100):
        np.exp(np.log(small) * 0.5).sum()
    np.fft.rfft(wave).real.cumsum().max()
    return perf_counter() - t0


def speed_scale() -> float:
    """PROBE_REF_S over the median of 25 speed probes."""
    return PROBE_REF_S / statistics.median(speed_probe() for _ in range(25))


@dataclasses.dataclass
class Record:
    name: str
    seconds: float
    scale: float             # PROBE_REF_S / speed probe timed just before the item
    outcome: object          # workloads.Outcome, or None when the item raised
    error: str | None
    digest: object           # canonical form of the result, for bitwise equality


def digest(obj):
    """Canonical, hashable form of a result; floats compare bitwise."""
    import numpy as np

    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, dict):
        # Wall-clock runtime is the one report field that is not a result.
        return tuple(sorted((k, digest(v)) for k, v in obj.items() if k != "runtime_seconds"))
    if isinstance(obj, (list, tuple)):
        return tuple(digest(v) for v in obj)
    raise TypeError(f"no digest for {type(obj).__name__}")


def _call(item, tracer):
    """(result, error, seconds) of one item; a raising item is counted, not fatal."""
    with tracer.span("item") if tracer is not None else contextlib.nullcontext():
        t0 = perf_counter()
        try:
            return item.call(), None, perf_counter() - t0
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}", perf_counter() - t0


def run_pass(wl, pass_idx: int, tracer=None) -> list[Record]:
    out = []
    for i, item in enumerate(wl.items(pass_idx)):
        if tracer is not None:
            tracer.item = i
        scale = PROBE_REF_S / speed_probe()
        result, error, seconds = _call(item, tracer)
        outcome = None
        if error is None:
            try:
                outcome = item.check(result)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                error = f"unexpected result: {type(exc).__name__}: {exc}"
        out.append(Record(item.name, seconds, scale, outcome, error, digest(result)))
    return out


def summarize(records: list[Record]) -> dict:
    """Counts and correctness shares over items.

    An item fails when it raised or returned a non-finite value; it is
    malformed when an interval excludes its own estimate or has zero width
    with no observed mass.  fail_frac counts both.
    """
    n = len(records)
    failed = sum(1 for r in records if r.outcome is None or not r.outcome.finite)
    malformed = sum(1 for r in records if r.outcome is not None and r.outcome.finite
                    and not r.outcome.well_formed)
    refereed = [r for r in records if r.outcome is None or r.outcome.refereed]
    missed = [r for r in refereed if r.outcome is None or not r.outcome.hit]
    return {
        "attempted": n,
        "failed": failed,
        "fail_frac": (failed + malformed) / n,
        "ref_miss_frac": len(missed) / len(refereed) if refereed else 0.0,
        "exact_missed": [r.name for r in missed if r.outcome is not None and r.outcome.exact],
        "errors": [f"{r.name}: {r.error}" for r in records if r.error],
    }


def timing(records: list[Record], scaled: bool = True) -> dict:
    """Item-time metrics, at the reference speed unless ``scaled`` is false."""
    t = [r.seconds * (r.scale if scaled else 1.0) for r in records]
    times = sorted(t)
    n = len(times)
    tail_idx = max(n - 11, 0)  # 10 items lie beyond the reported one
    path = [(r.outcome.path_steps, ti) for r, ti in zip(records, t)
            if r.outcome is not None and r.outcome.path_steps]
    # The median over calls of each call's median time: with an even number
    # of calls per pass, a plain median of all items falls in the gap between
    # two calls' times and jumps from run to run.
    per_call = collections.defaultdict(list)
    for r, ti in zip(records, t):
        per_call[r.name].append(ti)
    return {
        "items_per_s": n / sum(times),
        "item_ms_p50": statistics.median(statistics.median(v) for v in per_call.values()) * 1e3,
        "item_ms_tail": times[tail_idx] * 1e3,
        "path_steps_per_s": (sum(p for p, _ in path) / sum(t for _, t in path)) if path else 0.0,
    }


def e2e_metrics(records: list[Record], setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """``setups`` holds (set-up seconds, speed scale) of each set-up sample."""
    s = summarize(records)
    n = len(records)
    tail_idx = max(n - 11, 0)
    log_errs = [e for r in records if r.outcome for e in r.outcome.log_errs]
    widths = [w for r in records if r.outcome for w in r.outcome.rel_halfwidths]
    metrics = {
        "setup_s": statistics.median(t * k for t, k in setups),
        **timing(records),
        "ok_frac": 1.0 - s["fail_frac"],
        "ref_hit_frac": 1.0 - s["ref_miss_frac"],
        "max_log_err": max([LOG_ERR_FLOOR] + log_errs),
        "ci_rel_halfwidth": statistics.median(widths) if widths else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    unscaled = {"setup_s": statistics.median(t for t, _ in setups), **timing(records, False)}
    notes = [
        f"item_ms_tail is p{100.0 * (tail_idx + 1) / n:.2f} of {n} items "
        f"({n - tail_idx - 1} beyond it)",
        f"fail_frac={s['fail_frac']:.6g} ref_miss_frac={s['ref_miss_frac']:.6g} "
        f"(reported as ok_frac and ref_hit_frac)",
        f"max_log_err raw={max(log_errs) if log_errs else 0.0:.3g} over {len(log_errs)} "
        f"quadrature-backed levels (floor {LOG_ERR_FLOOR:g})",
        "speed probe median_ms="
        f"{PROBE_REF_S * 1e3 / statistics.median(r.scale for r in records):.4f} "
        f"(reference {PROBE_REF_S * 1e3:g})",
        "unscaled " + " ".join(f"{k}={v:.6g}" for k, v in unscaled.items()),
        f"setup samples (s, scale)={[(round(t, 4), round(k, 3)) for t, k in setups]}",
    ]
    return metrics, notes


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, speed scale) measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["scale"]


def cli_tail_cold_s() -> float:
    """Median wall time of a cold ``tailward tail sum`` subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "tailward.cli", "tail", "sum",
           "--x", "weibull(1,2)", "--y", "edge(0,1)"]
    samples = []
    for _ in range(CLI_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        samples.append(perf_counter() - t0)
        if proc.returncode != 0 or json.loads(proc.stdout)["claim"] != "sum_mixed":
            raise RuntimeError(f"tailward tail sum failed: {proc.stderr.strip()}")
    return statistics.median(samples)


def run_plain(wl, seconds: float) -> tuple[list[Record], int]:
    records, passes = [], 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        records += run_pass(wl, passes)
        passes += 1
    return records, passes


def run_traced(wl, seconds: float):
    """Alternate untraced and traced passes of the same items."""
    import spans

    agg = spans.Aggregate()
    records, mismatched = [], []
    plain_s = traced_s = 0.0
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        plain = run_pass(wl, passes)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_pass(wl, passes, tracer)
        finally:
            tracer.uninstall()
        agg.add_pass(tracer.spans)
        mismatched += [a.name for a, b in zip(plain, traced) if a.digest != b.digest]
        plain_s += sum(r.seconds for r in plain)
        traced_s += sum(r.seconds for r in traced)
        records += plain + traced
        passes += 1
    metrics = agg.metrics()
    metrics["cli.tail_cold_s"] = cli_tail_cold_s()
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return records, passes, metrics, mismatched, spans.leftover_wrappers()


def environment(wl) -> str:
    import numpy
    import scipy
    from tailward.montecarlo import resolve_workers

    cap = os.environ.get("TAILWARD_THREADS", "unset")
    return (f"env nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"requested_workers={wl.workers} effective_workers={resolve_workers(wl.workers)} "
            f"TAILWARD_THREADS={cap} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("referee", "mc-bm", "mc-fbm"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    refs = json.loads((HERE / "refs.json").read_text())
    t0 = perf_counter()
    import workloads

    wl = workloads.build(args.workload, args.seed, refs)
    setup = (perf_counter() - t0, speed_scale())
    if args.setup_probe:
        print(json.dumps({"setup_s": setup[0], "scale": setup[1]}))
        return 0

    print(environment(wl))
    started = perf_counter()
    if args.trace:
        records, passes, metrics, mismatched, leftovers = run_traced(wl, args.seconds)
        units = {k: layer_unit(k) for k in metrics}
        notes = [f"traced results differing from untraced: {mismatched}",
                 f"wrappers left after tracing: {leftovers}"]
    else:
        setups = [setup] + [setup_probe(args.workload, args.seed)
                            for _ in range(SETUP_SAMPLES - 1)]
        records, passes = run_plain(wl, args.seconds)
        metrics, notes = e2e_metrics(records, setups)
        units = E2E_UNITS
        mismatched = leftovers = []
    s = summarize(records)
    correct = (s["failed"] == 0 and not s["exact_missed"] and not mismatched
               and not leftovers and s["fail_frac"] <= MAX_MISS_FRAC
               and s["ref_miss_frac"] <= MAX_MISS_FRAC)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={passes} items={s['attempted']} wall_s={perf_counter() - started:.2f}")
    for line in notes + s["errors"] + [f"exact referee missed: {name}"
                                       for name in s["exact_missed"]]:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {float(value)!r} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
