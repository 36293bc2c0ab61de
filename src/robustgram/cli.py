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
import json
import logging
import math
import os
import sys

import numpy as np

from . import bounds as bnd
from .covariance import robust_covariance
from .gram import NumericalError, empirical_gram, positive_part, robust_gram
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


def _moment_bounds(sample, seed) -> tuple:
    """(plug-in moment bounds, None), or (None, the reason there are none)."""
    if sample.n < MIN_KAPPA_OBSERVATIONS:
        return None, (f"moment bounds need at least {MIN_KAPPA_OBSERVATIONS} "
                      f"observations, got {sample.n}")
    if not sample.data.any():
        return None, "moment bounds need a non-zero observation; the sample is all zeros"
    return estimate_moment_bounds(sample, seed=seed), None


def _interval_report(sample, mb, note, epsilon) -> dict:
    """Per-axis confidence intervals and their grid, or null intervals and the reason."""
    if mb is None:
        return {"confidence_intervals": None, "grid_note": note}
    try:
        grid = bnd.make_grid(sample.n, mb, epsilon=epsilon)
        cis = [{"direction": i, "lower": lo, "upper": hi if math.isfinite(hi) else "inf"}
               for i, (lo, hi) in enumerate(
                   bnd.confidence_intervals(sample, np.eye(sample.d), grid, mb))]
    except ValueError as exc:
        return {"confidence_intervals": None, "grid_note": str(exc)}
    return {"confidence_intervals": cis, "grid": {"K": grid.K, "points": list(grid.points)}}


def _cmd_estimate(args) -> int:
    sample = load_sample_csv(args.sample, header=args.header)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)

    # the plain moments overflow long before the robust estimate does;
    # report that rather than write inf to the CSVs and the JSON report.
    # The plug-in moments need a few observations and a non-zero one;
    # without them the estimate is still written, without moment bounds or
    # intervals.
    with np.errstate(over="ignore", invalid="ignore"):
        gbar = empirical_gram(sample)
        mb, note = _moment_bounds(sample, args.seed)
    if not np.all(np.isfinite(gbar)):
        raise NumericalError("the empirical Gram matrix overflows "
                             "(data out of floating-point range)")
    est = robust_gram(sample, epsilon=args.epsilon, num_updates=args.updates)
    q_plus = positive_part(est.matrix)
    save_matrix_csv(os.path.join(out_dir, "g_bar.csv"), gbar)
    save_matrix_csv(os.path.join(out_dir, "q.csv"), est.matrix)
    save_matrix_csv(os.path.join(out_dir, "q_plus.csv"), q_plus)

    report = {
        "n": sample.n,
        "d": sample.d,
        "iterations": est.iterations,
        "frobenius_deltas": est.frobenius_deltas,
        "moment_bounds": None if mb is None else {
            "kappa": mb.kappa, "s4": mb.s4, "trace_g": mb.trace_g,
            "trace_g2": mb.trace_g2, "certified": mb.certified},
    }
    report.update(_interval_report(sample, mb, note, args.epsilon))
    with open(os.path.join(out_dir, "estimate.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote g_bar.csv, q.csv, q_plus.csv, estimate.json to {out_dir}")
    return 0


def _cmd_bounds(args) -> int:
    mb = bnd.MomentBounds(kappa=args.kappa, s4=args.s4,
                          trace_g=args.trace_g if args.trace_g > 0
                          else args.s4**2 / math.sqrt(args.kappa))
    out = {"n": args.n, "epsilon": args.epsilon,
           "min_sample_size": bnd.min_sample_size(mb.kappa)}
    grid = bnd.make_grid(args.n, mb, a=args.a, epsilon=args.epsilon)
    out["grid"] = {"K": grid.K, "a": grid.a,
                   "points": [{"lambda": l, "beta": b} for l, b in grid.points]}
    try:
        sigma = bnd.sigma_default(args.n, mb, args.epsilon)
        out["sigma_default"] = sigma
        sigma_eff = min(sigma, mb.s4**2)
    except ValueError as exc:
        out["sigma_default"] = None
        out["sigma_note"] = str(exc)
        sigma_eff = mb.s4**2
    ts = args.t if args.t else list(np.geomspace(sigma_eff, mb.s4**2, 5))
    rows = []
    for t in ts:
        z = bnd.zeta_star(max(t, sigma_eff), mb, grid.K, args.epsilon)
        bstar = bnd.b_star(t, sigma_eff, args.n, mb, grid.K, args.epsilon)
        rows.append({"t": t, "zeta_star": z,
                     "b_star": bstar if math.isfinite(bstar) else "inf"})
    out["bounds"] = rows
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_benchmark(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_path"] = args.out
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if overrides:
        merged = config.to_dict()
        merged.update(overrides)
        merged["estimators"] = frozenset(merged["estimators"])
        config = ExperimentConfig(**merged)
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
    p_est.add_argument("--updates", type=int, default=4)
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
    p_cov.add_argument("--updates", type=int, default=4)
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
