"""Command line interface.

Subcommands:
  estimate   one sample CSV -> empirical Gram, robust estimate, its positive
             part, and per-direction confidence intervals
  bounds     evaluate the grid, threshold and explicit bound terms for given
             n / kappa / s4 / trace
  benchmark  run the mixture experiment from a JSON config, write CSVs
  cov        q-block covariance estimate from a sample CSV

Exit codes: 0 success, 1 configuration error, 2 numerical failure (a typed
failure, or an ``ArithmeticError`` such as a division by zero or an overflow
on data out of floating-point range).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from . import bounds as bnd
from . import covariance, gram
from .covariance import robust_covariance
from .gram import NumericalError, _beside, empirical_gram, positive_part, robust_gram
from .harness import (
    MIN_KAPPA_OBSERVATIONS,
    BenchmarkError,
    ConfigError,
    ExperimentConfig,
    estimate_moment_bounds,
    load_sample_csv,
    run_benchmark,
    save_matrix_csv,
    summarize,
)


def _bounds_report(sample, seed, epsilon) -> dict:
    """The report's plug-in moment bounds and per-axis confidence intervals
    with their grid; null bounds or intervals and a ``grid_note`` with the
    reason where there are none."""
    if sample.n < MIN_KAPPA_OBSERVATIONS:
        note = (f"moment bounds need at least {MIN_KAPPA_OBSERVATIONS} "
                f"observations, got {sample.n}")
    elif not sample.data.any():
        note = "moment bounds need a non-zero observation; the sample is all zeros"
    else:
        mb = estimate_moment_bounds(sample, seed=seed)
        report = {"moment_bounds": dataclasses.asdict(mb)}
        try:
            grid = bnd.make_grid(sample.n, mb, epsilon=epsilon)
            intervals = bnd.confidence_intervals(sample, np.eye(sample.d), grid, mb)
        except ValueError as exc:
            return {**report, "confidence_intervals": None, "grid_note": str(exc)}
        return {**report,
                "confidence_intervals": [
                    {"direction": i, "lower": lo, "upper": hi if math.isfinite(hi) else "inf"}
                    for i, (lo, hi) in enumerate(intervals)],
                "grid": {"K": grid.K, "points": list(grid.points)}}
    return {"moment_bounds": None, "confidence_intervals": None, "grid_note": note}


def _cmd_estimate(args) -> int:
    """Write the empirical Gram matrix, the robust estimate, its positive part
    and the report, from the one copy of the sample ``load_sample_csv`` holds."""
    sample = load_sample_csv(args.sample, header=args.header)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)

    # Report that the empirical Gram matrix overflows rather than write inf
    # to the CSVs.  The plug-in bounds do not depend on the robust estimate,
    # so they run beside it, on the worker, and their error wins as if they
    # ran first.  They need a few observations and a non-zero one; without
    # them the estimate is still written, without moment bounds or intervals.
    with np.errstate(over="ignore", invalid="ignore"):
        gbar = empirical_gram(sample)
    bounds = _beside(_bounds_report, sample, args.seed, args.epsilon)
    try:
        if not np.all(np.isfinite(gbar)):
            raise NumericalError("the empirical Gram matrix overflows "
                                 "(data out of floating-point range)")
        est = robust_gram(sample, epsilon=args.epsilon, num_updates=args.updates)
        q_plus = positive_part(est.matrix)
    finally:
        bounds_report = bounds.result()
    save_matrix_csv(os.path.join(out_dir, "g_bar.csv"), gbar)
    save_matrix_csv(os.path.join(out_dir, "q.csv"), est.matrix)
    save_matrix_csv(os.path.join(out_dir, "q_plus.csv"), q_plus)

    report = {"n": sample.n, "d": sample.d, "iterations": est.iterations,
              "frobenius_deltas": est.frobenius_deltas, **bounds_report}
    with open(os.path.join(out_dir, "estimate.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote g_bar.csv, q.csv, q_plus.csv, estimate.json to {out_dir}")
    return 0


def _in_range(name: str, value: float) -> float:
    """value, or a NumericalError naming the term that left the floating-point range."""
    if not 0.0 < value < math.inf:
        change = "underflows to 0" if value == 0.0 else f"overflows to {value}"
        raise NumericalError(f"{name} {change}")
    return value


def _cmd_bounds(args) -> int:
    try:
        out = _bounds(args)
    except (ValueError, ArithmeticError, NumericalError) as exc:
        # the library's messages name no flag; a ValueError stays a configuration error
        kind = ValueError if isinstance(exc, ValueError) else NumericalError
        raise kind(f"{exc} (--n {args.n}, --kappa {args.kappa}, --s4 {args.s4}, "
                   f"--trace-g {args.trace_g}, --epsilon {args.epsilon}, --a {args.a})") from None
    print(json.dumps(out, indent=2))
    return 0


def _bounds(args) -> dict:
    """The grid, threshold and bound terms ``robustgram bounds`` prints."""
    # NaN and inf would print as JSON no parser reads, and a negative trace
    # would be replaced as if it were the default 0
    if not 0.0 <= args.trace_g < math.inf:
        raise ValueError(f"--trace-g must be finite and non-negative, got {args.trace_g}")
    # the bounds hold at a positive energy only
    if args.t and not all(0.0 < t < math.inf for t in args.t):
        raise ValueError(f"--t must be finite and positive, got {args.t}")
    # before the default trace divides by sqrt(kappa)
    if not (1.0 <= args.kappa < math.inf and 0.0 < args.s4 < math.inf):
        raise ValueError("--kappa must be finite and at least 1, and --s4 finite and positive")
    # s4 enters the energies squared and the grid to the fourth power; out of
    # range, a Python float power raises a bare OverflowError or gives 0
    square = _in_range("s4^2", args.s4 * args.s4)
    _in_range("s4^4", square * square)
    mb = bnd.MomentBounds(kappa=args.kappa, s4=args.s4,
                          trace_g=args.trace_g if args.trace_g > 0
                          else args.s4**2 / math.sqrt(args.kappa))
    out = {"n": args.n, "epsilon": args.epsilon,
           "min_sample_size": bnd.min_sample_size(mb.kappa)}
    grid = bnd.make_grid(args.n, mb, a=args.a, epsilon=args.epsilon)
    out["grid"] = {"K": grid.K, "a": grid.a,
                   "points": [{"lambda": l, "beta": b} for l, b in grid.points]}
    out["sigma_default"] = None
    try:
        out["sigma_default"] = _in_range("sigma_default",
                                         bnd.sigma_default(args.n, mb, args.epsilon))
    except ValueError as exc:
        out["sigma_note"] = str(exc)
    sigma_eff = min(out["sigma_default"] or math.inf, mb.s4**2)
    # Python floats, whose overflow gives inf with no numpy warning
    ts = args.t if args.t else np.geomspace(sigma_eff, mb.s4**2, 5).tolist()
    rows = []
    for t in ts:
        z = _in_range("zeta_star", bnd.zeta_star(max(t, sigma_eff), mb, grid.K, args.epsilon))
        bstar = bnd.b_star(t, sigma_eff, args.n, mb, grid.K, args.epsilon)
        rows.append({"t": t, "zeta_star": z,
                     "b_star": bstar if math.isfinite(bstar) else "inf"})
    out["bounds"] = rows
    return out


def _cmd_benchmark(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    overrides = {"trials": args.trials, "seed": args.seed, "output_path": args.out,
                 "jobs": args.jobs}
    config = dataclasses.replace(
        config, **{k: v for k, v in overrides.items() if v is not None})
    results = run_benchmark(config)
    summary = summarize(results, config)
    print(f"trials: {summary['trials_completed']}  "
          f"robust: {summary['mean_error_robust']:.4g} "
          f"+/- {summary['std_error_robust']:.4g}  "
          f"empirical: {summary['mean_error_empirical']:.4g} "
          f"+/- {summary['std_error_empirical']:.4g}")
    if config.output_path:
        print(f"outputs in {config.output_path}")
    return 0


def _cmd_cov(args) -> int:
    sample = load_sample_csv(args.sample, header=args.header)
    est = robust_covariance(sample, q=args.q, epsilon=args.epsilon,
                            mode=args.mode, num_updates=args.updates,
                            psd=args.psd)
    out = args.out or "covariance.csv"
    save_matrix_csv(out, est.matrix)
    print(f"wrote {out} ({est.iterations} updates)")
    return 0


UPDATES_HELP = ("polarization updates, at most (default %(default)s; see \"How many "
                "updates\" in the README)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustgram",
        description="Robust, dimension-free Gram and covariance matrix estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate the Gram matrix of a sample CSV")
    p_est.add_argument("sample", help="CSV file, one observation per row")
    p_est.add_argument("--header", action="store_true", help="skip one header line")
    p_est.add_argument("--epsilon", type=float, default=0.1)
    p_est.add_argument("--updates", type=int, default=gram.NUM_UPDATES, help=UPDATES_HELP)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--out", default="", help="output directory")
    p_est.set_defaults(func=_cmd_estimate)

    p_b = sub.add_parser("bounds", help="evaluate grid and bound terms")
    p_b.add_argument("--n", type=int, required=True)
    p_b.add_argument("--kappa", type=float, required=True)
    p_b.add_argument("--s4", type=float, required=True)
    p_b.add_argument("--trace-g", type=float, default=0.0, dest="trace_g")
    p_b.add_argument("--epsilon", type=float, default=0.05)
    p_b.add_argument("--a", type=float, default=0.5)
    p_b.add_argument("--t", type=float, nargs="*", default=None,
                     help="energy levels to evaluate at")
    p_b.set_defaults(func=_cmd_bounds)

    p_run = sub.add_parser("benchmark", help="run the mixture benchmark")
    p_run.add_argument("config", help="JSON config file")
    p_run.add_argument("--trials", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--jobs", type=int, default=None)
    p_run.set_defaults(func=_cmd_benchmark)

    p_cov = sub.add_parser("cov", help="q-block covariance estimate")
    p_cov.add_argument("sample", help="CSV file, one observation per row")
    p_cov.add_argument("--header", action="store_true")
    p_cov.add_argument("--q", type=int, default=2)
    p_cov.add_argument("--epsilon", type=float, default=0.1)
    p_cov.add_argument("--mode", choices=["iterative-practical", "grid-certified"],
                       default="iterative-practical")
    p_cov.add_argument("--updates", type=int, default=covariance.NUM_UPDATES,
                       help=UPDATES_HELP)
    p_cov.add_argument("--psd", action="store_true",
                       help="clamp negative eigenvalues of the result")
    p_cov.add_argument("--out", default="", help="output CSV path")
    p_cov.set_defaults(func=_cmd_cov)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BenchmarkError, NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
