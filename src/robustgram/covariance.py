"""Covariance estimation with unknown mean via q-blocks of pairwise differences.

The sample is split into consecutive blocks of size q; each block yields the
PSD matrix A_i = (1/(q(q-1))) sum_{j<k} (X_j - X_k)(X_j - X_k)^T, an unbiased
estimate of the covariance that only sees differences, hence is exactly
translation invariant.  The estimator represents A_i by its q(q-1)/2
generating vectors (X_j - X_k) / sqrt(q(q-1)), so theta^T A_i theta is a
group sum of squared projections, and runs the same polarization loop as the
Gram estimator (:func:`robustgram.gram.iterate_polarization`) on them.  For
q = 2 that is exactly the Gram estimator on the scaled differences.  The
grid-certified mode only swaps the loop's one ``estimate`` hook for the
grid-selected estimator of :mod:`robustgram.bounds`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from .gram import GramEstimate, iterate_polarization, positive_part
from .influence import psi
from .mestimator import Sample

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BlockSet:
    """The per-block covariance matrices A_1..A_m for block size q."""

    blocks: np.ndarray  # (m, d, d)
    q: int
    m: int = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.blocks, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError("blocks must be a (m, d, d) array")
        object.__setattr__(self, "blocks", arr)
        object.__setattr__(self, "m", arr.shape[0])

    def quadratic_values(self, theta) -> np.ndarray:
        """Vector of theta^T A_i theta over the blocks."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.blocks.shape[1],):
            raise ValueError("direction dimension mismatch")
        return np.einsum("mij,i,j->m", self.blocks, theta, theta)


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


def make_blocks(sample: Sample, q: int) -> BlockSet:
    """Split contiguously into floor(n/q) blocks and form their covariances.

    A_i = (1/(q(q-1))) sum_{j<k in block i} (x_j - x_k)(x_j - x_k)^T is the
    sum of the outer products of the block's ``_pair_differences``, so
    shifting every observation by the same vector leaves it bitwise unchanged.
    """
    vectors = _pair_differences(sample, q)
    blocks = np.einsum("mpi,mpj->mij", vectors, vectors)
    blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))
    return BlockSet(blocks=blocks, q=q)


def r_lambda_sym(blocks: BlockSet, theta, lam: float) -> float:
    """Criterion (1/m) sum psi(theta^T A_i theta - lambda)."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return float(np.mean(psi(blocks.quadratic_values(theta) - lam)))


def block_moment_bounds(sigma: np.ndarray, kappa: float, q: int) -> tuple:
    """Bounds on E||A theta||^2 / N(theta) and on E[Tr(A^2)] for the blocks.

    Returns (w ||Sigma||_inf + (kappa + 1/(q-1)) Tr(Sigma) / q,
             w Tr(Sigma^2)   + (kappa + 1/(q-1)) Tr(Sigma)^2 / q)
    with w = 1 - (q-2)/(q(q-1)).
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("Sigma must be square")
    tr = float(np.trace(sigma))
    tr2 = float(np.trace(sigma @ sigma))
    op = float(np.linalg.eigvalsh(0.5 * (sigma + sigma.T)).max())
    w = 1.0 - (q - 2.0) / (q * (q - 1.0))
    coef = kappa + 1.0 / (q - 1.0)
    return (w * op + coef * tr / q, w * tr2 + coef * tr * tr / q)


def robust_covariance(sample: Sample, q: int = 2, epsilon: float = 0.1,
                      mode: str = "iterative-practical", num_updates: int = 4,
                      mb: bnd.MomentBounds = None, psd: bool = False) -> GramEstimate:
    """Robust estimate of the covariance matrix with unknown mean.

    Both modes run ``iterate_polarization`` on the blocks' generating vectors.
    Mode "iterative-practical" uses its default adaptive scale solver.  Mode
    "grid-certified" passes as its ``estimate`` the grid-selected estimator
    ``bounds.select_from_squares`` on each row (kappa mapped through the
    q-block transfer, n replaced by the block count); it requires enough
    blocks for the theoretical grid.
    Set ``psd=True`` to clamp negative eigenvalues of the final estimate.
    """
    if mode not in ("iterative-practical", "grid-certified"):
        raise ValueError(f"unknown mode {mode!r}")
    vectors = _pair_differences(sample, q)
    estimate = None
    if mode == "grid-certified":
        from .harness import kappa_plugin  # harness imports this module

        m = len(vectors)
        kappa_x = (mb.kappa if mb is not None
                   else kappa_plugin(Sample(vectors.reshape(-1, sample.d))))
        kappa_prime = 1.0 + bnd.tau_q(kappa_x, q) / q
        # ||A_i||_op is the squared spectral norm of the block's vectors
        s4_a = float(np.mean(np.linalg.norm(vectors, ord=2, axis=(1, 2)) ** 4)) ** 0.25
        tr_a = float(np.sum(vectors * vectors)) / m
        mb_blocks = bnd.MomentBounds(kappa=kappa_prime, s4=s4_a,
                                     trace_g=max(tr_a, s4_a**2 / math.sqrt(kappa_prime)),
                                     certified=mb is not None and mb.certified)
        grid = bnd.make_grid(m, mb_blocks, a=0.5, epsilon=epsilon)
        coeffs = bnd.coeffs_for_grid(grid, mb_blocks)
        try:
            sigma = min(bnd.sigma_default(m, mb_blocks, epsilon), s4_a**2)
        except ValueError:
            sigma = s4_a**2

        def estimate(p, norm_sq):
            return [bnd.select_from_squares(np.sum(r * r, axis=1), ns, grid, coeffs, sigma).value
                    for r, ns in zip(p, norm_sq.tolist())]

    est = iterate_polarization(vectors, epsilon, num_updates, estimate)
    if psd:
        est.matrix = positive_part(est.matrix)
    return est
