"""Estimation error against the number of polarization updates.

Usage, with the ``src`` directory of the checkout under study on the path::

    PYTHONPATH=src python3 scripts/updates_study.py

Each shape is a list of runs, one seeded sample each, estimated through the
public API at 1, 2, 4 and 8 updates.  The first table gives the default
number of updates of the shape's estimator (``gram.NUM_UPDATES`` for
``robust_gram``, ``covariance.NUM_UPDATES`` for ``robust_covariance``) and
the mean squared Frobenius error against the truth at each count and,
beside every count after the first, the mean paired difference from 1
update with its standard error (the standard deviation of the per-run
differences over the square root of the run count).  Its last column is
the check that decides the defaults: the error at 1 update is no worse
than at 4 by more than two standard errors of their paired difference.
An estimator runs 1 update by default only if every shape of it holds.
The second table runs the first sample of each shape for 40 updates and
gives the relative change per update (``frobenius_deltas``): after update
2, the median of the last ten, the smallest, and the number of updates
run, fewer than 40 where the stop test (``gram.STOP_TOL``) fired.  The
script exits 1 if a shape fails the check while its estimator runs 1
update by default.

The shapes:

- ``reference``: the reference experiment (500 trials of n = 100, d = 10,
  seed 20260809), each trial as ``harness.run_benchmark`` draws it;
- ``estimate-tall`` and ``cov-tall``: the samples of the perfbench workloads
  of those names at seeds 0 and 1511, ``robust_gram`` on a 40000 x 10
  mixture and q = 2 ``robust_covariance`` on a shifted 4000 x 20 one;
- ``t3``: ``robust_gram`` on 40000 x 10 ``standard_t(3)`` data, against 3 I,
  24 samples;
- ``t3-cov``: q = 2 ``robust_covariance`` on the same samples shifted by 2;
- ``wide-mixture``: ``robust_gram`` on n = 1000, d = 30 mixtures with
  contaminant scale 64 and alpha = 0.1;
- ``grid-certified``: grid-certified q = 2 ``robust_covariance`` at epsilon
  0.05 on 14000 x 3 normal data shifted by 1, against I; its 7000 blocks
  admit the theoretical grid.

Uses numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import NamedTuple

import numpy as np

from robustgram import covariance, gram, harness
from robustgram.mestimator import Sample

UPDATES = (1, 2, 4, 8)
DRIFT_UPDATES = 40


class Shape(NamedTuple):
    """``runs`` holds one (estimate, truth) pair per seeded sample, where
    estimate(num_updates) returns the ``GramEstimate`` of that sample;
    ``default`` is the estimator's default number of updates."""

    name: str
    runs: list
    default: int


def _mixture(n, d, seed, **mix):
    cfg = harness.ExperimentConfig(n=n, d=d, trials=1, seed=seed, **mix)
    return harness.gen_mixture(cfg, harness.trial_rng(seed)).data, harness.true_gram(cfg)


def _gram_run(x, truth):
    return (lambda k: gram.robust_gram(Sample(x), 0.1, k)), truth


def _cov_run(x, truth, **kw):
    return (lambda k: covariance.robust_covariance(Sample(x), q=2, num_updates=k, **kw)), truth


def _t3(n, seed):
    return np.random.default_rng(seed).standard_t(3, (n, 10))


def shapes(quick: bool = False) -> list:
    """The studied shapes; for ``quick``, a few small runs of each (the grid
    shape keeps its size, which the grid needs): a check that the study
    runs, not a study."""
    trials, tall, wide, seeds, heavy = ((4, 400, 60, (0, 1), (0, 1)) if quick
                                        else (500, 40000, 1000, range(6), range(24)))
    ref = harness.ExperimentConfig(trials=trials, seed=20260809)
    reference = [_gram_run(harness.gen_mixture(ref, harness.trial_rng(ref.seed, t)).data,
                           harness.true_gram(ref)) for t in range(ref.trials)]
    estimate_tall = [_gram_run(*_mixture(tall, 10, seed)) for seed in (0, 1511)]
    cov_tall = []
    for seed in (0, 1511):
        x, truth = _mixture(tall // 10, 20, seed)
        cov_tall.append(_cov_run(x + np.linspace(-8.0, 8.0, 20), truth))
    t3 = [_gram_run(_t3(tall, seed), 3.0 * np.eye(10)) for seed in heavy]
    t3_cov = [_cov_run(_t3(tall, seed) + 2.0, 3.0 * np.eye(10)) for seed in heavy]
    wide_mixture = [_gram_run(*_mixture(wide, 30, seed, alpha_mix=0.1, contaminant_scale=64.0))
                    for seed in seeds]
    grid = [_cov_run(np.random.default_rng(seed).standard_normal((14000, 3)) + 1.0, np.eye(3),
                     epsilon=0.05, mode="grid-certified")
            for seed in seeds[:4]]
    g, c = gram.NUM_UPDATES, covariance.NUM_UPDATES
    return [Shape("reference", reference, g), Shape("estimate-tall", estimate_tall, g),
            Shape("cov-tall", cov_tall, c), Shape("t3", t3, g), Shape("t3-cov", t3_cov, c),
            Shape("wide-mixture", wide_mixture, g), Shape("grid-certified", grid, c)]


def errors(shape: Shape, updates=UPDATES) -> np.ndarray:
    """Squared Frobenius error of each run (rows) at each update count (columns)."""
    return np.array([[gram.frobenius_error(estimate(k).matrix, truth) for k in updates]
                     for estimate, truth in shape.runs])


def paired(errs: np.ndarray, col: int) -> tuple:
    """Mean and standard error of errs[:, col] - errs[:, 0] over the runs."""
    diff = errs[:, col] - errs[:, 0]
    se = diff.std(ddof=1) / math.sqrt(len(diff)) if len(diff) > 1 else math.nan
    return float(diff.mean()), float(se)


def one_update_holds(errs: np.ndarray, updates=UPDATES) -> bool:
    """Mean error at 1 update no worse than at 4 by more than two standard
    errors of their paired difference (mean of err_4 - err_1 >= -2 se)."""
    mean, se = paired(errs, updates.index(4))
    return mean >= -2.0 * se


def defaults_hold(rows) -> bool:
    """Whether every (shape, errs) pair whose estimator runs 1 update by
    default holds the check."""
    return all(one_update_holds(errs) for shape, errs in rows if shape.default == 1)


def drift(shape: Shape, updates: int = DRIFT_UPDATES) -> list:
    """Relative change per update of the first run over ``updates`` updates."""
    return shape.runs[0][0](updates).frobenius_deltas


def error_table(rows, updates=UPDATES) -> list:
    """Markdown lines from (shape, errs) pairs; ``updates`` holds 1 and 4."""
    head = ["shape", "default", "runs", *(f"{k} update{'s' * (k > 1)}" for k in updates),
            "1 vs 4"]
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for shape, errs in rows:
        cells = [shape.name, str(shape.default), str(len(errs)), f"{errs[:, 0].mean():.4g}"]
        for col in range(1, len(updates)):
            mean, se = paired(errs, col)
            cells.append(f"{errs[:, col].mean():.4g} ({mean:+.2g} ± {se:.2g})")
        cells.append("holds" if one_update_holds(errs, updates) else "FAILS")
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def drift_table(rows) -> list:
    """Markdown lines from (shape, deltas) pairs: the relative change after
    update 2, the median of the last ten, the smallest, and updates run."""
    lines = ["| shape | after update 2 | median of the last 10 | smallest | updates run |",
             "|---|---|---|---|---|"]
    for shape, deltas in rows:
        after2 = deltas[1] if len(deltas) > 1 else math.nan
        lines.append(f"| {shape.name} | {after2:.2g} | {np.median(deltas[-10:]):.2g} "
                     f"| {min(deltas):.2g} | {len(deltas)} |")
    return lines


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    studied = shapes()
    rows = [(shape, errors(shape)) for shape in studied]
    print("\n".join(error_table(rows)))
    print()
    print("\n".join(drift_table([(shape, drift(shape)) for shape in studied])))
    return 0 if defaults_hold(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
