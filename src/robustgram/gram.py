"""Matrix-level estimators: the robust mean of PSD matrices A_i = sum_g G_ig G_ig^T.

Each A_i is given by its generating vectors G_ig, so theta^T A_i theta is a
group sum of squared projections.  The Gram matrix has one vector per
observation (the row X_i).  The practical robust estimator starts from the
mean of the A_i, re-estimates every quadratic form N(u_i +/- u_j) in the
current eigenbasis with the robust scale solver, reassembles the matrix
through the polarization identity, and iterates with the eigenbasis of the
new estimate.  The d^2 directions of one update are estimated in blocks of
rows, one row of quadratic values theta^T A_i theta per direction, and
``estimate(v, norm_sq, start)`` is the one hook that turns a block into its
quadratic forms, given each direction's form in the previous update as its
start: the default solves every row of a block, vanishing ones too, with one
call to the row solver, each direction started there.

Every update is cut into equal blocks, and on a host with two usable CPUs
or more a large one is served to two threads, the caller and a worker,
from one queue in direction order: each thread claims the next block once
it is free, so neither waits for the other's share; numpy releases the GIL
inside the elementwise passes, so the blocks run side by side.  A hook is
therefore called from both threads at once, on blocks in no fixed order.
Each row's level and root depend on that row alone (the row solver runs
every row with the operations of a one-row solve), so the threads move no
bit.  The same worker runs other work beside an estimate, such as
the CLI's plug-in bounds (``_beside``), and joins the update's queue once
that is done.  The worker belongs to the process that made it: a forked
child makes its own, since a fork copies only the calling thread.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .mestimator import (TILE_ELEMS, Sample, _row_means, lambda_from_square_rows,
                         scale_from_squares)

logger = logging.getLogger(__name__)

# Projections per block of directions (rows x m x g).  Each block is one
# solver call, and this cap bounds its memory: the block's v, 2 MB at 2^18,
# and the solver's per-row state.  An update is cut into equal blocks of at
# most this many projections.  The solver's cache footprint is set apart by
# ``mestimator.TILE_ELEMS``, so a larger call only makes fewer calls, each
# paying its fixed preamble and its per-pass bookkeeping once.  Op CPU time
# and peak RSS against blocks of 2^15 (medians of 4 interleaved rounds, one
# process per size, 2-vCPU Xeon host, one BLAS thread, one thread per
# update):
#
#   block   cov-tall         estimate-tall shape (robust_gram)
#   2^17    x0.88, +1.1 MB   x0.90, +0.7 MB
#   2^18    x0.75, +2.2 MB   x0.83, +1.6 MB
#   2^19    x0.83, +4.1 MB   x0.84, +3.7 MB
BLOCK_ELEMS = 2**18

# The default estimate, and ``harness.kappa_plugin``, run on the vectors scaled
# by the power of two (``_norm_exponent``) that puts the largest |entry| in
# [2^99, 2^100).  Squares then stay below 2^200, far from overflow and below
# the solver's rescale threshold, and every entry within 2^610 of the largest
# keeps a normal square, so the bulk of a sample with a huge outlier is still
# resolved.
NORM_EXPONENT = 100

# Updates robust_gram and iterate_polarization run by default.  On
# 40000 x 10 t(3) data, the t3 shape of scripts/updates_study.py (its tables
# are in the README), 4 updates lower the mean error by 2% of that at one,
# by 3.6 standard errors of the paired difference, so the default stays 4,
# though one update is better on the reference experiment.
# robust_covariance runs one (covariance.NUM_UPDATES).
NUM_UPDATES = 4

# The iteration stops once an update moves the estimate by at most this, relatively.
STOP_TOL = 1e-8


# Threads that solve one update, whatever its hook: 2 (the caller and one
# worker) where two CPUs are usable, else 1.  Only an update of two
# directions or more and 4 * TILE_ELEMS squares starts the worker, so each
# thread fills at least two of the solver's tiles, and the paper-size
# updates (10^4 squares) never start it.  Against solving each block's rows
# as two halves, two fixed halves of the directions ran cov-tall 12-15%
# faster (BENCH_pr19.json); one queue of blocks for both threads, with the
# CLI's bounds on the worker, ran estimate-tall faster again
# (BENCH_pr20.json); the grid hook on the same queue kept its bits and its
# speed.
_THREADS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)

# The worker pool and the process it was made in: a pool made before a fork
# has no thread in the child, where a task given to it would never run.
_pool, _pool_pid = None, None


def _worker():
    """This process's one-thread pool, made on first use.  Threads that race
    here may each make one; a spare pool's thread ends once it is collected."""
    global _pool, _pool_pid
    if _pool_pid != os.getpid():
        # imported here, so that importing the package imports no thread pool
        from concurrent.futures import ThreadPoolExecutor

        _pool, _pool_pid = ThreadPoolExecutor(1, thread_name_prefix="robustgram"), os.getpid()
    return _pool


def _beside(fn, *args):
    """A future of fn(*args), run on the worker where ``_THREADS`` = 2 and at
    once on the caller otherwise, where its error is raised here.  The
    worker takes the first update's blocks once fn is done."""
    if _THREADS >= 2:
        return _worker().submit(fn, *args)
    from concurrent.futures import Future

    future = Future()
    future.set_result(fn(*args))
    return future


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
    per-update mean of the adaptive truncation levels of the directions that
    do not vanish, summed in ascending order; none for an update in which
    all vanish (the zero sample gives []) or with a custom ``estimate``.
    With the default estimate, update k >= 2 starts each direction's solve
    at its root in update k - 1, so the matrix agrees with cold-started
    solves only to the solver's tolerance (about 1e-11 relative), not bit
    for bit.

    One update is the paper's estimator: iterations is 1 and
    frobenius_deltas holds the move from the mean of the A_i.
    ``robust_covariance`` runs one by default (``covariance.NUM_UPDATES``)
    and ``robust_gram`` runs ``NUM_UPDATES`` = 4, because later updates, a
    device of this package, lowered the mean error of ``robust_gram`` on
    heavy-tailed data (``scripts/updates_study.py``).
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


def _robust_scale_rows(v: np.ndarray, epsilon: float, lam_log: list, start) -> tuple:
    """Default estimate of each row of the (k, n) quadratic values ``v``: its
    adaptive truncation level, then the row solver started at ``start``.
    Returns the scale of each row (nan for none) and the count of rows not
    solved.  ``lam_log`` gets the levels of the rows that do not vanish and
    of the rows not solved as 0, converged."""
    # one pass over the rows gives the means that both calls rescale by
    mean = _row_means(v)
    lam = lambda_from_square_rows(v, epsilon, _mean=mean)
    result = scale_from_squares(v, lam, start, _mean=mean)
    value, converged = result.value, result.row_converged
    lam_log.extend(lam[(value > 0.0) | ~converged].tolist())
    return value, int(np.count_nonzero(~converged))


class _RobustScale:
    """The default estimate hook at one epsilon: ``_robust_scale_rows`` on
    each block, with the levels of its blocks and one count of unconverged
    solves per block, both in the order the blocks finish.  Both threads of
    an update share one hook; ``list.extend`` and ``list.append`` are atomic
    in CPython, so it needs no lock."""

    def __init__(self, epsilon: float):
        self.epsilon, self.levels, self.failed = epsilon, [], []

    def __call__(self, v, norm_sq, start):
        value, failed = _robust_scale_rows(v, self.epsilon, self.levels, start)
        self.failed.append(failed)
        return value


@functools.lru_cache(maxsize=8)
def _directions(d: int) -> tuple:
    """Read-only direction tables of ``polarization_update`` in dimension d:
    first, second, sign and norm_sq of each direction, and the triu indices."""
    dirs = [(i, j, sign) for i in range(d) for j in range(i, d)
            for sign in ((1.0, -1.0) if i < j else (1.0,))]
    first, second, sign = (np.array(x) for x in zip(*dirs))
    tables = (first, second, sign, np.where(first == second, 4.0, 2.0), *np.triu_indices(d))
    for table in tables:
        table.setflags(write=False)
    return tables


def polarization_update(w: np.ndarray, estimate, n_values=None) -> np.ndarray:
    """Matrix C with C_ij = (N(e_i + e_j) - N(e_i - e_j)) / 4.

    ``w`` holds the projections on the current basis, shape (n, d) or
    (m, g, d).  The d^2 directions e_i + e_j (i <= j) and e_i - e_j (i < j)
    are taken in blocks of consecutive directions, k * n * g projections
    w @ theta at most ``BLOCK_ELEMS`` (and k >= 1).  Each direction's
    quadratic values are its squared projections, summed over the group,
    one row of a (k, n) or (k, m) array v.  Every block goes to
    estimate(v, norm_sq, start), which returns its N values (0 for a row
    without a positive value).  norm_sq holds each direction's squared
    norm (4 for the doubled column on the diagonal, 2 otherwise), and start
    its N from the previous update, nan where there is none.  A ValueError
    from ``estimate`` becomes a NumericalError naming the block.  With the
    mean of each row as the estimate, C is (1/n) w^T w.  ``n_values`` holds
    one N per direction in this order: it is read for the starts and then
    holds the new N values.  Without it, every start is nan.

    The blocks are equal, of at most ``BLOCK_ELEMS`` projections.  With
    ``_THREADS`` = 2 an update of two directions or more and at least 4 *
    ``TILE_ELEMS`` squares is cut into two blocks or more, which the caller
    and the worker claim in direction order from one queue; a worker still
    busy with other work once the queue is dry is left out.  So
    ``estimate`` must be safe to call from two threads at once, on blocks
    that arrive in no fixed order.  Each row's level and root depend on
    that row alone, so neither the blocks nor the threads move a bit.  The
    first failing block in direction order raises, as on one thread.
    """
    cols = np.ascontiguousarray(np.moveaxis(np.asarray(w, dtype=float), -1, 0))
    count = len(cols) ** 2
    if n_values is None:
        n_values = np.full(count, np.nan)
    size = cols[0].size  # projections per direction, n or m * g
    threads = 2 if _THREADS >= 2 and count >= 2 and count * size >= 4 * TILE_ELEMS else 1
    # equal blocks of at most BLOCK_ELEMS projections, at least one per thread
    blocks = max(threads, -(-count // max(1, BLOCK_ELEMS // size)))
    rows = -(-count // blocks)
    _solve_blocks(cols, estimate, n_values, rows, threads)
    _, _, sign, _, iu, ju = _directions(len(cols))
    minus = np.zeros(len(iu))
    minus[iu < ju] = n_values[sign < 0.0]
    c = np.zeros((len(cols), len(cols)))
    c[iu, ju] = c[ju, iu] = 0.25 * (n_values[sign > 0.0] - minus)
    return c


def _solve_blocks(cols, estimate, n_values, rows: int, threads: int) -> None:
    """Solve the blocks of ``rows`` consecutive directions of an update with
    ``estimate`` on the caller and, for ``threads`` = 2, on the worker, both
    claiming blocks from one cursor.  Raises the error of the first failing
    block in direction order."""
    cursor, failures = itertools.count(), {}
    task = None
    if threads > 1:
        task = _worker().submit(_claim_blocks, cols, estimate, n_values, rows, cursor, failures)
    try:
        _claim_blocks(cols, estimate, n_values, rows, cursor, failures)
    finally:
        # a task that has not started is dropped; a running one writes
        # n_values, so wait for it
        if task is not None and not task.cancel():
            task.result()
    if failures:
        raise failures[min(failures)]


def _claim_blocks(cols, estimate, n_values, rows: int, cursor, failures: dict) -> None:
    """Claim the next block from ``cursor`` and solve it, until the cursor
    runs dry or a block has failed; a failing block's error goes to
    ``failures`` under its index.  A thread claims blocks in increasing
    order and checks for a failure before each claim, so every block before
    the first failing one has run, on some thread; a block claimed as
    another fails is solved for nothing, and comes later than the failure.

    ``cols`` holds the columns of w, shape (d, n) or (d, m, g).  This
    thread's blocks are built in one buffer, a tile of
    ``mestimator.TILE_ELEMS`` projections at a time: a tile gathers the
    columns w_j of its directions, multiplies them by the signs, adds their
    columns w_i, gathered into one tile-sized buffer, and squares, all in
    place.  For g > 1 v is the group sum, a fresh array; for g = 1, v is the
    buffer itself, which the next block overwrites, so a hook that keeps v
    after it returns must copy it.
    """
    first, second, sign, norm_sq, _, _ = _directions(len(cols))
    row_sign = sign.reshape(-1, *[1] * (cols.ndim - 1))
    tile = max(1, TILE_ELEMS // cols[0].size)
    # One buffer spares each block the first-touch page faults of a fresh
    # array: on 2000 x 20 projections (cov-tall) an update built its 2^18
    # blocks in 6.2 ms in fresh arrays and in 3.2 ms in one buffer (medians
    # of 40 interleaved updates, 2-vCPU Xeon host).
    buf = np.empty((min(rows, len(first)), *cols.shape[1:]))
    col_i = np.empty((min(tile, len(buf)), *cols.shape[1:]))
    while not failures:
        b = next(cursor)
        start, stop = b * rows, min(b * rows + rows, len(first))
        if start >= stop:
            return
        blk = slice(start, stop)
        v = buf[:stop - start]
        try:
            # a tile at a time, in cache; sign * x is exact and addition
            # commutes, so each row equals w_i + w_j or w_i - w_j bit for bit
            for t_lo in range(start, stop, tile):
                t_hi = min(t_lo + tile, stop)
                p = np.take(cols, second[t_lo:t_hi], axis=0, out=v[t_lo - start:t_hi - start],
                            mode="clip")
                p *= row_sign[t_lo:t_hi]
                p += np.take(cols, first[t_lo:t_hi], axis=0, out=col_i[:t_hi - t_lo],
                             mode="clip")
                np.multiply(p, p, out=p)
            if v.ndim == 3:
                v = v.reshape(v.shape[:2]) if v.shape[2] == 1 else v.sum(axis=2)
            try:
                # a copy: the hook may keep its starts, and this assignment overwrites them
                n_values[blk] = estimate(v, norm_sq[blk], n_values[blk].copy())
            except ValueError as exc:
                raise NumericalError(
                    f"scale solve failed at entries ({first[start]}, {second[start]}) to "
                    f"({first[stop - 1]}, {second[stop - 1]}): {exc}") from exc
        except Exception as exc:  # noqa: BLE001 - raised by the caller, in block order
            failures[b] = exc
            return


def _norm_exponent(x: np.ndarray) -> int:
    """Binary exponent of max |x| less ``NORM_EXPONENT`` (-NORM_EXPONENT for x = 0).

    max |x| is the larger of max x and -min x: two passes that form no
    array, where ``np.abs(x)`` would form one of the sample's size, on each
    of the three calls of a ``robustgram estimate`` op."""
    top = max(np.max(x, initial=0.0), -np.min(x, initial=0.0))
    return int(np.frexp(top)[1]) - NORM_EXPONENT


def _descending_eigenbasis(q: np.ndarray) -> np.ndarray:
    try:
        vals, vecs = np.linalg.eigh(q)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    return vecs[:, ::-1]


def iterate_polarization(vectors: np.ndarray, epsilon: float = 0.1,
                         num_updates: int = NUM_UPDATES, estimate=None) -> GramEstimate:
    """Robust mean of the A_i from generating vectors of shape (m, d) or (m, g, d).

    Each update projects the vectors on the eigenbasis of the previous
    estimate (the mean of the A_i initially), builds the matrix C in that
    basis with ``polarization_update``, and rotates back.  ``estimate(v,
    norm_sq, start)`` turns the quadratic values of each block of
    directions into their quadratic forms; it may be called from two
    threads at once (``polarization_update``).  The loop keeps each
    direction's N, in ``polarization_update``'s order, and hands it to the
    hook as that direction's start in the next update (nan in update 1).  The default
    solves each row's adaptive truncation level and robust scale
    (``_robust_scale_rows``), starting each solve there, records the mean
    level per update in ``lambda_used`` and logs one warning per update
    with its count of unconverged solves: update 1 starts every solve at
    the mean of its values, and once the iterate settles most solves take
    one pass.  Stops after ``num_updates`` or once ||Q_k - Q_{k-1}||_F
    <= ``STOP_TOL`` ||Q_{k-1}||_F.  One update is the paper's estimator;
    the default, ``NUM_UPDATES`` = 4, is the one of ``robust_gram``, on
    whose t(3) shape in ``scripts/updates_study.py`` 4 updates lowered the
    mean error by 2%.  ``robust_covariance`` passes its own default, one: no
    covariance shape of that study lost accuracy at one, and each later
    update costs nearly as much as the first.  The stop test fires where the
    iterate settles, as after 5 updates on the 40000 x 10 mixture of
    perfbench's estimate-tall, but not in 40 updates where it keeps
    moving, as on a reference trial or on t(3) data.  The default estimate
    is homogeneous of degree 2 and each of its steps scales exactly under
    a power of two, so it runs on the vectors divided by 2^e, e the binary
    exponent of the largest |entry| less ``NORM_EXPONENT``, and its result
    is multiplied by 2^(2e): scaling the data by 2^k scales the estimate by 4^k bit for bit
    wherever both are representable.  Vectors already so scaled have e = 0
    and are not copied; ``robustgram estimate`` passes them so.  A custom
    ``estimate`` sees the quadratic values of the vectors as given.
    Non-finite matrices, an estimate beyond the floating-point range and
    eigh failures raise NumericalError; epsilon outside (0, 1) raises
    ValueError.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if num_updates < 1:
        raise ValueError("num_updates must be at least 1")
    flat = vectors.reshape(-1, vectors.shape[-1])
    e, default = 0, estimate is None
    # each direction's N of the previous update; nan in update 1
    n_values = np.full(vectors.shape[-1] ** 2, np.nan)
    if default:
        e = _norm_exponent(flat)
        if e:
            flat = np.ldexp(flat, -e)
            vectors = flat.reshape(vectors.shape)
    prev = _mean_matrix(vectors)
    if not np.all(np.isfinite(prev)):
        raise NumericalError("non-finite start matrix (data out of floating-point range)")
    q = prev
    basis = _descending_eigenbasis(prev)
    deltas, lam_means = [], []
    # The columns of every update's projections go to one buffer, w a view
    # of it, so ``polarization_update`` copies nothing; the projections
    # themselves are a temporary, freed before any block is built.  In
    # perfbench's estimate-tall loop an op took 2.47k minor page faults
    # this way, 2.71k with a fresh columns array per update, and 3.25k with
    # a second buffer, for the projections, kept beside the columns (2-vCPU
    # Xeon host).  matmul on flat as given keeps the bits of flat @ basis;
    # a product written in column order does not.
    cols = np.empty(flat.shape[::-1])
    w = np.moveaxis(cols.reshape(flat.shape[1], *vectors.shape[:-1]), 0, -1)
    for k in range(num_updates):
        if default:
            estimate = _RobustScale(epsilon)
        np.copyto(cols, np.matmul(flat, basis).T)
        c = polarization_update(w, estimate, n_values)
        failed = sum(estimate.failed) if default else 0
        if failed:
            logger.warning("%d of %d scale solves did not converge", failed, len(n_values))
        q = basis @ c @ basis.T
        q = 0.5 * (q + q.T)
        if not np.all(np.isfinite(q)):
            raise NumericalError(f"non-finite iterate at update {k}")
        if default and estimate.levels:
            # in ascending order, which neither the blocks nor the threads move
            lam_means.append(float(np.mean(sorted(estimate.levels))))
        # hypot scales internally: a squared distance between tiny iterates
        # (the bulk under a huge outlier) would underflow to 0 and stop early
        dist = math.hypot(*(q - prev).ravel())
        deltas.append(dist / math.hypot(*prev.ravel()) if dist else 0.0)
        if deltas[-1] <= STOP_TOL or k + 1 == num_updates:
            break  # no basis is needed after the last update
        prev = q
        basis = _descending_eigenbasis(q)
    if e:
        q = _scale_back(q, e)
    return GramEstimate(matrix=q, iterations=len(deltas),
                        frobenius_deltas=deltas, lambda_used=lam_means)


def _scale_back(q: np.ndarray, e: int) -> np.ndarray:
    """4^e q, the estimate of vectors that the iteration saw divided by 2^e;
    NumericalError where it overflows."""
    with np.errstate(over="ignore"):
        q = np.ldexp(q, 2 * e)
    if not np.all(np.isfinite(q)):
        raise NumericalError(
            f"estimate out of floating-point range: the iteration from the start matrix "
            f"ran on the vectors divided by 2^{e}, and 4^{e} times its result overflows")
    return q


def robust_gram(sample: Sample, epsilon: float = 0.1,
                num_updates: int = NUM_UPDATES) -> GramEstimate:
    """Iterative robust estimate of E[X X^T]: ``iterate_polarization`` on the rows."""
    if sample.n < 2:
        raise ValueError("robust_gram needs at least two observations")
    return iterate_polarization(sample.data, epsilon, num_updates)
