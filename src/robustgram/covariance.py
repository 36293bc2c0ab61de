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
from .gram import GramEstimate, NumericalError, iterate_polarization, positive_part
from .mestimator import Sample

logger = logging.getLogger(__name__)


def _pair_differences(sample: Sample, q: int) -> np.ndarray:
    """Generating vectors (x_j - x_k) / sqrt(q(q-1)), j < k, of each q-block.

    Splits the sample contiguously into floor(n/q) blocks and returns an
    (m, q(q-1)/2, d) array.  Only differences enter, so shifting every
    observation by the same vector leaves the result bitwise unchanged.
    Trailing n mod q observations are discarded with a warning.
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
                      mode: str = "iterative-practical", num_updates: int = 4,
                      psd: bool = False) -> GramEstimate:
    """Robust estimate of the covariance matrix with unknown mean.

    Both modes run ``iterate_polarization`` on the blocks' generating vectors.
    Mode "iterative-practical" uses its default adaptive scale solver.  Mode
    "grid-certified" passes as its ``estimate`` the grid-selected estimator
    ``bounds.select_from_square_rows`` on the quadratic values of a block
    of directions, one solver call per block and grid level (n replaced by
    the block count); it requires enough blocks for the theoretical grid.
    Its moment bounds are plug-in values, flagged non-certified: the
    kurtosis of the generating vectors (``harness.kappa_plugin``) mapped
    through the q-block transfer, and the empirical moments of the blocks;
    one that overflows, or underflows to 0 on non-zero data, raises
    ``gram.NumericalError``.
    Set ``psd=True`` to clamp negative eigenvalues of the final estimate.
    """
    if mode not in ("iterative-practical", "grid-certified"):
        raise ValueError(f"unknown mode {mode!r}")
    vectors = _pair_differences(sample, q)
    estimate = None
    if mode == "grid-certified":
        from .harness import kappa_plugin  # harness imports this module

        m = len(vectors)
        kappa_x = kappa_plugin(Sample(vectors.reshape(-1, sample.d)))
        kappa_prime = 1.0 + bnd.tau_q(kappa_x, q) / q
        # ||A_i||_op is the squared spectral norm of the block's vectors
        s4_a = float(np.mean(np.linalg.norm(vectors, ord=2, axis=(1, 2)) ** 4)) ** 0.25
        tr_a = float(np.sum(vectors * vectors)) / m
        if not all(map(math.isfinite, (kappa_prime, s4_a, tr_a))):
            raise NumericalError("the plug-in block moments overflow "
                                 "(data out of floating-point range)")
        if not (s4_a > 0.0 and tr_a > 0.0) and vectors.any():
            raise NumericalError("the plug-in block moments underflow to 0 "
                                 "(data out of floating-point range)")
        mb_blocks = bnd.MomentBounds(kappa=kappa_prime, s4=s4_a,
                                     trace_g=max(tr_a, s4_a**2 / math.sqrt(kappa_prime)),
                                     certified=False)
        grid = bnd.make_grid(m, mb_blocks, a=0.5, epsilon=epsilon)
        coeffs = bnd.coeffs_for_grid(grid, mb_blocks)
        try:
            sigma = min(bnd.sigma_default(m, mb_blocks, epsilon), s4_a**2)
        except ValueError:
            sigma = s4_a**2

        def estimate(v, norm_sq, start):
            return [sel.value for sel in bnd.select_from_square_rows(
                v, norm_sq.tolist(), grid, coeffs, sigma)]

    est = iterate_polarization(vectors, epsilon, num_updates, estimate)
    if psd:
        est.matrix = positive_part(est.matrix)
    return est
