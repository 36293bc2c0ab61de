"""Matrix-level estimators: the robust mean of PSD matrices A_i = sum_g G_ig G_ig^T.

Each A_i is given by its generating vectors G_ig, so theta^T A_i theta is a
group sum of squared projections.  The Gram matrix has one vector per
observation (the row X_i).  The practical robust estimator starts from the
mean of the A_i, re-estimates every quadratic form N(u_i +/- u_j) in the
current eigenbasis with the robust scalar scale solver, reassembles the
matrix through the polarization identity, and iterates with the eigenbasis
of the new estimate.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .mestimator import Sample, lambda_from_squares, scale_from_squares

logger = logging.getLogger(__name__)


class NumericalError(RuntimeError):
    """Raised when an iterate degenerates (non-finite entries, failed solve)."""


@dataclass
class GramEstimate:
    """Symmetric estimate with iteration diagnostics.

    frobenius_deltas[k] is the Frobenius distance between update k and its
    predecessor (the mean of the A_i for k = 0).  lambda_used holds one
    per-update summary (mean over directions) of the adaptive truncation
    levels; empty when a custom scale function or estimator is supplied.
    """

    matrix: np.ndarray
    iterations: int
    frobenius_deltas: list = field(default_factory=list)
    lambda_used: list = field(default_factory=list)


def empirical_gram(sample: Sample) -> np.ndarray:
    """Classical estimator (1/n) sum X_i X_i^T."""
    return _mean_matrix(sample.data)


def _mean_matrix(vectors: np.ndarray) -> np.ndarray:
    """(1/m) sum_i A_i from generating vectors of shape (m, d) or (m, g, d)."""
    flat = vectors.reshape(-1, vectors.shape[-1])
    g = flat.T @ flat / len(vectors)
    return 0.5 * (g + g.T)


def frobenius_error(q: np.ndarray, g: np.ndarray) -> float:
    """Squared Frobenius distance sum_ij (Q_ij - G_ij)^2."""
    q = np.asarray(q, dtype=float)
    g = np.asarray(g, dtype=float)
    if q.shape != g.shape:
        raise ValueError(f"shape mismatch: {q.shape} vs {g.shape}")
    diff = q - g
    return float(np.sum(diff * diff))


def positive_part(q: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto the PSD cone by clamping eigenvalues."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("expected a square matrix")
    sym = 0.5 * (q + q.T)
    vals, vecs = np.linalg.eigh(sym)
    clipped = np.clip(vals, 0.0, None)
    out = (vecs * clipped) @ vecs.T
    return 0.5 * (out + out.T)


def robust_scale_fn(p: np.ndarray, epsilon: float, lam_log: list = None) -> float:
    """Default per-direction scale: adaptive truncation level, then the solver.

    ``p`` holds the projections on one direction, shape (n,) or (m, g); a
    group contributes the sum of its squares.  Falls back to lambda =
    1/sqrt(n) when the adaptive formula is undefined (tiny n or degenerate
    squared values).
    """
    v = np.asarray(p, dtype=float) ** 2
    if v.ndim == 2:
        v = v.sum(axis=1)
    if not (v > 0.0).any():
        return 0.0
    try:
        lam = lambda_from_squares(v, epsilon)
    except ValueError:
        lam = 1.0 / math.sqrt(v.size)
    if lam_log is not None:
        lam_log.append(lam)
    result = scale_from_squares(v, lam)
    if not result.converged:
        logger.warning("scale solve did not converge (lambda=%.3g); using %.6g",
                       lam, result.value)
    return result.value


def polarize(w: np.ndarray, estimate) -> np.ndarray:
    """Matrix C with C_ij = (N(e_i + e_j) - N(e_i - e_j)) / 4.

    ``w`` holds the projections on the current basis, shape (n, d) or
    (m, g, d), and N(theta) = estimate(w @ theta, |theta|^2), 0 when the
    projections vanish.  The diagonal uses the doubled column (squared norm
    4) against N(0) = 0; the other directions have squared norm 2.
    """
    w = np.asarray(w, dtype=float)
    d = w.shape[-1]
    c = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            plus = w[..., i] + w[..., j]
            minus = w[..., i] - w[..., j]
            try:
                s_plus = estimate(plus, 4.0 if i == j else 2.0) if np.any(plus != 0.0) else 0.0
                s_minus = estimate(minus, 2.0) if np.any(minus != 0.0) else 0.0
            except ValueError as exc:
                raise NumericalError(f"scale solve failed at entry ({i}, {j}): {exc}") from exc
            c[i, j] = c[j, i] = 0.25 * (s_plus - s_minus)
    return c


def polarization_update(w: np.ndarray, scale_fn, epsilon: float) -> np.ndarray:
    """``polarize`` with each direction estimated by scale_fn(w @ theta, epsilon).

    With the mean-of-squares scale this is exactly (1/n) w^T w.
    """
    return polarize(w, lambda p, norm_sq: scale_fn(p, epsilon))


def _descending_eigenbasis(q: np.ndarray) -> np.ndarray:
    try:
        vals, vecs = np.linalg.eigh(q)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    return vecs[:, ::-1]


def iterate_polarization(vectors: np.ndarray, epsilon: float = 0.1, num_updates: int = 4,
                         stop_tol: float = 1e-8, update=None) -> GramEstimate:
    """Robust mean of the A_i from generating vectors of shape (m, d) or (m, g, d).

    Each update projects the vectors on the eigenbasis of the previous
    estimate (the mean of the A_i initially), lets ``update`` map the
    projections to the matrix C in that basis, and rotates back.  The default
    update is ``polarization_update`` with ``robust_scale_fn``.  Stops after
    ``num_updates`` or once consecutive iterates are closer than ``stop_tol``
    in Frobenius norm.  Non-finite matrices and eigh failures raise
    NumericalError.
    """
    if num_updates < 1:
        raise ValueError("num_updates must be at least 1")
    track = update is None
    if track:
        lam_log = []
        scale_fn = functools.partial(robust_scale_fn, lam_log=lam_log)
        update = functools.partial(polarization_update, scale_fn=scale_fn, epsilon=epsilon)
    flat = vectors.reshape(-1, vectors.shape[-1])
    prev = _mean_matrix(vectors)
    if not np.all(np.isfinite(prev)):
        raise NumericalError("non-finite start matrix (data out of floating-point range)")
    q = prev
    basis = _descending_eigenbasis(prev)
    deltas, lam_means = [], []
    for k in range(num_updates):
        if track:
            lam_log.clear()
        c = update((flat @ basis).reshape(vectors.shape))
        q = basis @ c @ basis.T
        q = 0.5 * (q + q.T)
        if not np.all(np.isfinite(q)):
            raise NumericalError(f"non-finite iterate at update {k}")
        if track:
            lam_means.append(float(np.mean(lam_log)) if lam_log else math.nan)
        deltas.append(math.sqrt(frobenius_error(q, prev)))
        if deltas[-1] < stop_tol:
            break
        prev = q
        basis = _descending_eigenbasis(q)
    return GramEstimate(matrix=q, iterations=len(deltas),
                        frobenius_deltas=deltas, lambda_used=lam_means)


def robust_gram(sample: Sample, epsilon: float = 0.1, num_updates: int = 4,
                stop_tol: float = 1e-8, scale_fn=None) -> GramEstimate:
    """Iterative robust estimate of E[X X^T]: ``iterate_polarization`` on the rows.

    A custom ``scale_fn`` replaces ``robust_scale_fn`` in the polarization update.
    """
    if sample.n < 2:
        raise ValueError("robust_gram needs at least two observations")
    update = None if scale_fn is None else functools.partial(
        polarization_update, scale_fn=scale_fn, epsilon=epsilon)
    return iterate_polarization(sample.data, epsilon, num_updates, stop_tol, update)
