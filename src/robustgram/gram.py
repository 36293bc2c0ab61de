"""Matrix-level estimators: the robust mean of PSD matrices A_i = sum_g G_ig G_ig^T.

Each A_i is given by its generating vectors G_ig, so theta^T A_i theta is a
group sum of squared projections.  The Gram matrix has one vector per
observation (the row X_i).  The practical robust estimator starts from the
mean of the A_i, re-estimates every quadratic form N(u_i +/- u_j) in the
current eigenbasis with the robust scale solver, reassembles the matrix
through the polarization identity, and iterates with the eigenbasis of the
new estimate.  The d^2 directions of one update are estimated in blocks of
rows, one row of projections per direction, and ``estimate(P, norm_sq)`` is
the one hook that turns a block into its quadratic forms: the default
solves a whole block with one call to the row solver, each direction
started at its root in the previous update.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .mestimator import Sample, SampleSizeError, lambda_from_square_rows, scale_from_squares

logger = logging.getLogger(__name__)

# Projections per block of directions (rows x m x g): a block and the
# solver's temporaries stay within a 2 MB L2 cache; 2^13 ran slower and
# 2^15 no faster.
BLOCK_ELEMS = 2**14

# The default estimate runs on the vectors scaled by the power of two that puts
# the largest |entry| in [2^99, 2^100).  Squares then stay below 2^200, far
# from overflow and below the solver's rescale threshold, and every entry
# within 2^610 of the largest keeps a normal square, so the bulk of a sample
# with a huge outlier is still resolved.
NORM_EXPONENT = 100

# The iteration stops once an update moves the estimate by at most this, relatively.
STOP_TOL = 1e-8


class NumericalError(RuntimeError):
    """Raised when an iterate degenerates (non-finite entries, failed solve)."""


@dataclass
class GramEstimate:
    """Symmetric estimate with iteration diagnostics.

    frobenius_deltas[k] is the relative Frobenius distance
    ||Q_k - Q_{k-1}||_F / ||Q_{k-1}||_F between update k and its predecessor
    (the mean of the A_i for k = 0), the figure the stop test compares with
    ``STOP_TOL``; it is scale-free, so it stays finite where the distance
    itself would overflow (0 when both are 0).  lambda_used holds one
    per-update summary (mean over directions) of the adaptive truncation
    levels; none for an update that solves no direction (the zero sample
    gives []) or with a custom ``estimate``.  With the default estimate,
    update k >= 2 starts each direction's solve at its root in update k - 1,
    so the matrix agrees with cold-started solves only to the solver's
    tolerance (about 1e-11 relative), not bit for bit.
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


def _robust_scale_rows(p: np.ndarray, epsilon: float, lam_log: list, start=None) -> np.ndarray:
    """Default scale of each row of ``p``: adaptive truncation level, then the row solver.

    ``p`` holds one direction's projections per row, shape (k, n) or
    (k, m, g); a group contributes the sum of its squares.  A row falls back
    to lambda = 1/sqrt(n) where the adaptive formula is undefined (a sample
    too small for epsilon, or zero variance of the squared values); other
    errors, such as epsilon outside (0, 1), propagate.  Rows without a
    positive square give 0.  The levels used are appended to ``lam_log``.
    ``start``, if given, holds one starting scale per row for the solver.
    """
    v = p * p
    if v.ndim == 3:
        v = v.sum(axis=2)
    out = np.zeros(len(v))
    live = (v > 0.0).any(axis=1)
    if not live.any():
        return out
    if not live.all():
        v = v[live]
        if start is not None:
            start = start[live]
    try:
        lam = lambda_from_square_rows(v, epsilon)
    except SampleSizeError:
        lam = np.full(len(v), np.nan)
    lam[np.isnan(lam)] = 1.0 / math.sqrt(v.shape[1])
    lam_log.extend(lam.tolist())
    result = scale_from_squares(v, lam, start)
    failed = np.count_nonzero(~result.row_converged)
    if failed:
        logger.warning("%d of %d scale solves did not converge", failed, len(v))
    out[live] = result.value
    return out


def polarization_update(w: np.ndarray, estimate, n_values=None) -> np.ndarray:
    """Matrix C with C_ij = (N(e_i + e_j) - N(e_i - e_j)) / 4.

    ``w`` holds the projections on the current basis, shape (n, d) or
    (m, g, d).  The d^2 directions e_i + e_j (i <= j) and e_i - e_j (i < j)
    are taken in blocks: a block stacks the projections w @ theta of
    consecutive directions as the rows of a (k, n) or (k, m, g) array P,
    with k * n * g at most ``BLOCK_ELEMS`` (and k >= 1).  Rows that vanish
    get N = 0; the others go to estimate(P, norm_sq), which returns their N
    values, norm_sq holding each direction's squared norm (4 for the doubled
    column on the diagonal, 2 otherwise).  A ValueError from ``estimate``
    becomes a NumericalError naming the block.  With the mean of each row's
    squares as the estimate, C is (1/n) w^T w.  ``n_values``, if given,
    holds one N per direction in this order, as left by a previous update:
    the hook is then called as estimate(P, norm_sq, starts), starts holding
    the entries of P's rows, and every entry is replaced by the new N.
    """
    w = np.asarray(w, dtype=float)
    d = w.shape[-1]
    cols = np.ascontiguousarray(np.moveaxis(w, -1, 0))  # (d, n) or (d, m, g)
    dirs = [(i, j, sign) for i in range(d) for j in range(i, d)
            for sign in ((1.0, -1.0) if i < j else (1.0,))]
    first, second, sign = (np.array(x) for x in zip(*dirs))
    norm_sq = np.where(first == second, 4.0, 2.0)
    row_sign = sign.reshape(-1, *[1] * (cols.ndim - 1))
    values = np.zeros(len(dirs))
    rows = max(1, BLOCK_ELEMS // cols[0].size)
    for start in range(0, len(dirs), rows):
        blk = slice(start, start + rows)
        # sign * x is exact, so each row equals w_i + w_j or w_i - w_j
        p = cols[first[blk]] + row_sign[blk] * cols[second[blk]]
        live = p.reshape(len(p), -1).any(axis=1)
        if not live.any():
            continue
        args = (p[live] if not live.all() else p, norm_sq[blk][live])
        if n_values is not None:
            args += (n_values[blk][live],)
        try:
            values[blk][live] = estimate(*args)
        except ValueError as exc:
            stop = min(start + rows, len(dirs)) - 1
            raise NumericalError(
                f"scale solve failed at entries ({first[start]}, {second[start]}) to "
                f"({first[stop]}, {second[stop]}): {exc}") from exc
    if n_values is not None:
        n_values[:] = values
    iu, ju = np.triu_indices(d)
    minus = np.zeros(len(iu))
    minus[iu < ju] = values[sign < 0.0]
    c = np.zeros((d, d))
    c[iu, ju] = c[ju, iu] = 0.25 * (values[sign > 0.0] - minus)
    return c


def _descending_eigenbasis(q: np.ndarray) -> np.ndarray:
    try:
        vals, vecs = np.linalg.eigh(q)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    return vecs[:, ::-1]


def iterate_polarization(vectors: np.ndarray, epsilon: float = 0.1, num_updates: int = 4,
                         estimate=None) -> GramEstimate:
    """Robust mean of the A_i from generating vectors of shape (m, d) or (m, g, d).

    Each update projects the vectors on the eigenbasis of the previous
    estimate (the mean of the A_i initially), builds the matrix C in that
    basis with ``polarization_update``, and rotates back.  ``estimate(P,
    norm_sq)`` gives the quadratic form of each block of directions; the
    default solves each row's adaptive truncation level and robust scale
    (``_robust_scale_rows``) and records the mean level per update in
    ``lambda_used``.  It keeps each direction's N, in
    ``polarization_update``'s order, and starts that direction's solve in
    the next update there: update 1 starts every solve at the mean of its
    squares, and once the iterate settles most solves take one pass.
    Stops after ``num_updates`` or once ||Q_k - Q_{k-1}||_F <= ``STOP_TOL``
    ||Q_{k-1}||_F.  The default estimate
    is homogeneous of degree 2 and each of its steps scales exactly under a
    power of two, so it runs on the vectors divided by 2^e, e the binary
    exponent of the largest |entry| less ``NORM_EXPONENT``, and its result
    is multiplied by 2^(2e): scaling the data by 2^k scales the estimate by
    4^k bit for bit wherever both are representable.  A custom ``estimate``
    sees the vectors as given.  Non-finite matrices, an estimate beyond the
    floating-point range and eigh failures raise NumericalError; epsilon
    outside (0, 1) raises ValueError.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if num_updates < 1:
        raise ValueError("num_updates must be at least 1")
    flat = vectors.reshape(-1, vectors.shape[-1])
    e, lam_log, n_values = 0, [], None
    if estimate is None:
        def estimate(p, norm_sq, start):
            return _robust_scale_rows(p, epsilon, lam_log, start)
        # each direction's N of the previous update; nan starts update 1 at the mean
        n_values = np.full(vectors.shape[-1] ** 2, np.nan)
        e = int(np.frexp(np.max(np.abs(flat), initial=0.0))[1]) - NORM_EXPONENT
        flat = np.ldexp(flat, -e)
        vectors = flat.reshape(vectors.shape)
    prev = _mean_matrix(vectors)
    if not np.all(np.isfinite(prev)):
        raise NumericalError("non-finite start matrix (data out of floating-point range)")
    q = prev
    basis = _descending_eigenbasis(prev)
    deltas, lam_means = [], []
    for k in range(num_updates):
        lam_log.clear()
        c = polarization_update((flat @ basis).reshape(vectors.shape), estimate, n_values)
        q = basis @ c @ basis.T
        q = 0.5 * (q + q.T)
        if not np.all(np.isfinite(q)):
            raise NumericalError(f"non-finite iterate at update {k}")
        if lam_log:
            lam_means.append(float(np.mean(lam_log)))
        # hypot scales internally: a squared distance between tiny iterates
        # (the bulk under a huge outlier) would underflow to 0 and stop early
        dist = math.hypot(*(q - prev).ravel())
        deltas.append(dist / math.hypot(*prev.ravel()) if dist else 0.0)
        if deltas[-1] <= STOP_TOL:
            break
        prev = q
        basis = _descending_eigenbasis(q)
    if e:
        with np.errstate(over="ignore"):
            q = np.ldexp(q, 2 * e)
        if not np.all(np.isfinite(q)):
            raise NumericalError(
                f"estimate out of floating-point range: the iteration from the start matrix "
                f"ran on the vectors divided by 2^{e}, and 4^{e} times its result overflows")
    return GramEstimate(matrix=q, iterations=len(deltas),
                        frobenius_deltas=deltas, lambda_used=lam_means)


def robust_gram(sample: Sample, epsilon: float = 0.1, num_updates: int = 4) -> GramEstimate:
    """Iterative robust estimate of E[X X^T]: ``iterate_polarization`` on the rows."""
    if sample.n < 2:
        raise ValueError("robust_gram needs at least two observations")
    return iterate_polarization(sample.data, epsilon, num_updates)
