"""Covariance estimation with unknown mean via q-blocks of pairwise differences.

The sample is split into consecutive blocks of size q; each block yields the
PSD matrix A_i = (1/(q(q-1))) sum_{j<k} (X_j - X_k)(X_j - X_k)^T, an unbiased
estimate of the covariance that only sees differences, hence is exactly
translation invariant.  The estimator represents A_i by its q(q-1)/2
generating vectors (X_j - X_k) / sqrt(q(q-1)), so theta^T A_i theta is a
group sum of squared projections, and runs the same polarization loop as the
Gram estimator (:func:`robustgram.gram.iterate_polarization`) on them.  For
q = 2 that is exactly the Gram estimator on the scaled differences.  The
grid-certified mode only swaps the loop's one hook, ``estimate(v, norm_sq,
start)`` on the quadratic values theta^T A_i theta of a block of
directions, for the grid-selected estimator of :mod:`robustgram.bounds`.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import bounds as bnd
from .gram import GramEstimate, _normalized, _scale_back, iterate_polarization, positive_part
from .mestimator import Sample

logger = logging.getLogger(__name__)

# Updates robust_covariance runs by default: one, the paper's estimator.  On
# each covariance shape of scripts/updates_study.py (its tables are in the
# README), t(3) data among them, the mean error at 1 update is no worse than
# at 4 by more than two standard errors of the paired difference, and
# perfbench's cov-tall runs at 3.3-3.5x the ops/s of 4 updates (BENCH_pr26.json).
# robust_gram keeps 4 (gram.NUM_UPDATES).
NUM_UPDATES = 1


def _pair_differences(sample: Sample, q: int) -> np.ndarray:
    """Generating vectors (x_j - x_k) / sqrt(q(q-1)), j < k, of each q-block.

    Splits the sample contiguously into floor(n/q) blocks and returns an
    (m, q(q-1)/2, d) array, in the units of ``sample.data``.  Only
    differences enter, so shifting every observation by the same vector
    leaves the result bitwise unchanged.  Trailing n mod q observations are
    discarded with a warning.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if sample.n < q:
        raise ValueError(f"need at least q = {q} observations, got {sample.n}")
    m = sample.n // q
    rest = sample.n - m * q
    if rest:
        logger.warning("discarding %d trailing observations (n = %d, q = %d)",
                       rest, sample.n, q)
    x = sample.data[: m * q].reshape(m, q, sample.d)
    jj, kk = np.triu_indices(q, k=1)
    return (x[:, jj, :] - x[:, kk, :]) / math.sqrt(q * (q - 1.0))


def robust_covariance(sample: Sample, q: int = 2, epsilon: float = 0.1,
                      mode: str = "iterative-practical", num_updates: int = NUM_UPDATES,
                      psd: bool = False) -> GramEstimate:
    """Robust estimate of the covariance matrix with unknown mean.

    Both modes run ``iterate_polarization`` on the blocks' generating vectors
    divided by 2^e in place (``gram.NORM_EXPONENT``), and scale its result
    back by 4^e.  Mode "iterative-practical" uses its default adaptive scale
    solver.  Mode "grid-certified" passes as its ``estimate`` the
    grid-selected estimator ``bounds.select_from_square_rows`` on the
    quadratic values of a block of directions, one solver call per block and
    grid level (n replaced by the block count); it requires enough blocks
    for the theoretical grid.  Its moment bounds are plug-in values of the
    scaled vectors, flagged non-certified: their kurtosis
    (``harness.kappa_plugin``) mapped through the q-block transfer, and the
    moments of the A_i from ``harness._plugin_moments``, which serves the
    Gram instance too.  A sample whose blocks all vanish, such as the zero
    sample, gives the zero matrix in either mode.  Set ``psd=True`` to clamp
    negative eigenvalues of the final estimate.
    """
    if mode not in ("iterative-practical", "grid-certified"):
        raise ValueError(f"unknown mode {mode!r}")
    vectors, e = _normalized(_pair_differences(sample, q), in_place=True)
    estimate = None
    # without a non-zero difference there are no moment bounds and no grid;
    # every quadratic form is 0, which the default hook returns too
    if mode == "grid-certified" and vectors.any():
        from .harness import _kappa_of_rows, _plugin_moments  # harness imports this module

        m = len(vectors)
        kappa_x = _kappa_of_rows(vectors.reshape(-1, sample.d))
        mb_blocks = _plugin_moments(vectors, 1.0 + bnd.tau_q(kappa_x, q) / q)
        grid = bnd.make_grid(m, mb_blocks, a=0.5, epsilon=epsilon)
        coeffs = bnd.coeffs_for_grid(grid, mb_blocks)
        try:
            sigma = min(bnd.sigma_default(m, mb_blocks, epsilon), mb_blocks.s4**2)
        except ValueError:
            sigma = mb_blocks.s4**2

        def estimate(v, norm_sq, start):
            return [sel.value for sel in bnd.select_from_square_rows(
                v, norm_sq.tolist(), grid, coeffs, sigma)]

    est = _scale_back(iterate_polarization(vectors, epsilon, num_updates, estimate),
                      e + sample._exponent)
    if psd:
        est.matrix = positive_part(est.matrix)
    return est
