"""Direction-wise robust estimators of second moments.

The criterion ``r_lambda(theta) = mean(psi(<theta, X_i>^2 - lambda))`` is
non-decreasing in the scaling ``alpha`` of ``theta``.  The estimate of
E<theta, X>^2 is ``tilde_n = lambda / alpha_hat^2`` with ``alpha_hat =
sup{alpha : r_lambda(alpha theta) <= 0}``.  Under ``alpha^2 = lambda / S``
the criterion becomes ``sum(psi(lambda (p_i^2 / S - 1)))``, non-increasing
in S, so ``tilde_n`` is its smallest root.

Beneath the paper's notation lies the row machinery on squared values.  One
solver, ``scale_from_squares``, finds that root for each row of a (k, n)
matrix at the row's own lambda, and ``lambda_from_square_rows`` gives each
row its adaptive lambda.  The solver is one safeguarded Newton loop in the
paper's variable x = 1/S = alpha^2 / lambda, in which the criterion is
nearly linear.  A row starts at a given scale, such as its root in the
previous polarization update, or else at the mean of its squares.  Its step
stays inside a sign bracket that every evaluation tightens, with bisection,
doubling or halving as the fallbacks, and f and f' come from one fused
``psi_and_prime_into`` pass, run over tiles of at most ``TILE_ELEMS``
squares in a slab the call allocates once, so no pass allocates a (k, n)
array and a call of any size stays in cache.  A row stops once |f| <= ``TOL``
and S is resolved to about 2^-40 relative: by the size of the next Newton
step, by the width of the bracket, or because the criterion is flat.
A Newton step whose landing a Taylor bound with |psi''| <= 2 already
certifies ends the row without the pass that would confirm it.  Every row
runs exactly the elementwise operations of a one-row solve, and a reduction
along a contiguous row sums in the same order as on a 1-d array, so a row's
result does not depend on the batch it is solved in.
``r_lambda``, ``tilde_n`` and ``alpha_hat`` are the paper's notation for one
direction and lambda; ``tilde_n`` solves its direction as a one-row matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .influence import LOG2, psi, psi_and_prime_into


@dataclass(frozen=True)
class Sample:
    """Immutable n x d matrix of observations, one per row of
    ``data * 2**_exponent``: ``_exponent`` is 0 but for a sample that
    ``harness.load_sample_csv`` holds divided by a power of two, and each
    quantity with units is scaled back where it is formed."""

    data: np.ndarray
    n: int = field(init=False)
    d: int = field(init=False)
    _exponent: int = field(default=0, init=False)

    def __post_init__(self):
        arr = np.array(self.data, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"sample must be a 2-d array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"sample must be non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "n", arr.shape[0])
        object.__setattr__(self, "d", arr.shape[1])

    def projections(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.d,):
            raise ValueError(f"direction has shape {theta.shape}, expected ({self.d},)")
        return np.ldexp(self.data @ theta, self._exponent)


# The solver's tolerance on |f|, and its Newton and bisection steps per row.
TOL = 1e-10
MAX_ITER = 100

# Doubling or halving rounds allowed to bracket a root: 2^2100 spans the
# float64 range from the smallest subnormal to the largest finite value.
MAX_BRACKET_ROUNDS = 2100

# Rows whose mean lies outside 2^-256 .. 2^256 are solved on v * 2^-e, e the
# binary exponent of the mean, and their root is scaled back by 2^e; their
# adaptive level is computed on the same rescaled row.  Scaling by a power of
# two is exact, and it keeps lam / S and the variance of the row in range.
RESCALE_EXPONENT = 256

# Squares per tile: each solver pass, its flat-root check, the variance of
# ``lambda_from_square_rows`` and the block building of
# ``gram.polarization_update`` run their elementwise work over tiles of at
# most this many squares (whole rows, at least one).  So a call of any size
# keeps the solver's 5-plane slab within 1.25 MB for rows of up to 2^15
# squares, inside a 2 MB per-core L2 cache, while its O(k) bookkeeping runs
# once per pass over all rows.  2^14 ran cov-tall as fast, 2^13 and 2^16
# slower (in-process sweep, 2-vCPU Xeon host).
TILE_ELEMS = 2**15


@dataclass(frozen=True)
class ScaleResult:
    """Outcome of a scale solve on the rows of a matrix: one entry per row.

    ``iterations``, ``converged`` and ``method`` summarize the whole call:
    summed iterations, every row converged, and "bisection-fallback" when
    some row fell back, else "newton".
    """

    value: np.ndarray
    row_iterations: np.ndarray
    row_converged: np.ndarray
    bisection: np.ndarray  # a step fell back to bisection, or no root or bracket found
    plateau: np.ndarray  # returned the left edge of a flat root interval

    @property
    def iterations(self) -> int:
        return int(self.row_iterations.sum())

    @property
    def converged(self) -> bool:
        return bool(self.row_converged.all())

    @property
    def method(self) -> str:
        return "bisection-fallback" if self.bisection.any() else "newton"


def r_lambda(sample: Sample, theta, lam: float) -> float:
    """Empirical criterion mean(psi(<theta, X_i>^2 - lambda))."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    p = sample.projections(theta)
    return float(np.mean(psi(p * p - lam)))


def tilde_n(sample: Sample, theta, lam: float) -> float:
    """Robust estimate lambda / alpha_hat^2 of E<theta, X>^2 (0 if alpha_hat = inf),
    the scale solve of the squared projections as a one-row matrix."""
    p = sample.projections(theta)
    return float(scale_from_squares((p * p)[None], [lam]).value[0])


def alpha_hat(sample: Sample, theta, lam: float) -> float:
    """sup{alpha >= 0 : r_lambda(alpha * theta) <= 0} = sqrt(lambda / tilde_n).

    +inf when tilde_n is 0 (the criterion never turns positive).
    """
    t = tilde_n(sample, theta, lam)
    return math.sqrt(lam / t) if t > 0.0 else math.inf


def _row_means(v) -> np.ndarray:
    """Mean of each row of the (k, n) matrix v, with the bits of np.mean."""
    return np.add.reduce(v, axis=1) / v.shape[1]


def _rescale_rows(v, mean=None):
    """(v, mean, e): rows with a mean beyond 2^+-``RESCALE_EXPONENT``, and their
    means, divided by 2^e, e that mean's binary exponent (0 for the others).
    ``mean``, if given, is ``_row_means(v)``."""
    if mean is None:
        mean = _row_means(v)
    exponent = np.frexp(mean)[1]
    exponent[np.abs(exponent) <= RESCALE_EXPONENT] = 0
    if exponent.any():
        v, mean = np.ldexp(v, -exponent[:, None]), np.ldexp(mean, -exponent)
    return v, mean, exponent


def scale_from_squares(v, lam, start=None, *, _mean=None) -> ScaleResult:
    """Per row r: smallest S > 0 with f(S) = sum_j psi(lam_r (v_rj / S - 1)) <= 0.

    ``v`` is (k, n) with n >= 1 and finite v_rj >= 0, zero rows included;
    ``lam`` holds one positive level per row, and ``start``, if given, one
    starting scale per row.  Each row runs one safeguarded Newton loop on
    x = 1/S = alpha^2 / lam, in which the criterion is nearly linear.  It
    starts at S0 = start_r, or at S0 = mean(v_r) where no start is given or
    the start is not finite and positive, with the bracket lo = 0, hi = inf,
    and every evaluation moves lo or hi to S by the sign of f.  The step is
    S / (1 - f / d), with d = -S f'(S) = sum_j psi'(t_j) lam v_rj / S, and
    is taken when it lies in (lo, hi) and d >= 1e-14.  Otherwise the row
    bisects once both ends are known, and doubles lo or halves hi before.
    Newton and bisection steps count against ``MAX_ITER``, doubling and
    halving against ``MAX_BRACKET_ROUNDS``; a row out of either budget
    returns its last point, not converged.  A row stops when |f| <= ``TOL``
    and either |f| <= 2^-40 d, which places the root to about 1e-12
    relative, or d < 1e-14 (a flat criterion), or, once both ends are known,
    hi - lo <= 2^-40 hi.  The last clause ends a tangential root, where
    rounding noise in f exceeds 2^-40 d before the Newton steps settle.
    A Newton step stops the row unevaluated, one step counted, when
    |psi''| <= 2 proves its evaluation would: Taylor in x bounds |f| there
    by b = A2 (f/d)^2, A2 = sum_j (lam v_rj / S)^2, d there from below by
    d_low = (1 - |f/d|)(d - 2 |f/d| A2), and b <= TOL, 2^-41 d_low.  When the
    criterion stays within ``TOL`` of 0 from the converged point down to the
    left edge of a flat stretch, that edge is returned, which is the sup in
    the alpha form; ``plateau`` flags a row whose returned point is such an
    edge, whether it moved there or stopped on it.  A row whose criterion
    is non-positive near S = 0 has no positive root: value 0, not
    converged.  A row without a positive entry vanishes: alpha_hat = inf,
    so 0 is its answer, converged after 0 iterations.  A row with a mean
    beyond 2^+-``RESCALE_EXPONENT`` is solved rescaled by a power of two,
    its start with it, so its root scales exactly with the data.

    Each pass runs its elementwise work, from lam v / S to f and d, over
    tiles of the rows still iterating, at most ``TILE_ELEMS`` squares (and
    one row) each, in one tile-sized slab allocated per call; the bracket,
    the stop tests and the steps then run once over all of them.  The
    flat-root check after the loop runs a tile of rows at a time too.
    ``v`` is never moved: a tile of consecutive rows is a view of it, and
    other tiles are gathered into the slab's plane of lam v / S, which
    scales them in place.  ``_mean``, if given, is ``_row_means(v)``, which
    a caller that already has it hands over.

    The input checks raise ``ValueError``: a row minimum below 0 or nan
    rejects a nan, -inf or negative entry ("finite and non-negative"); a
    +inf entry passes it and makes the row's mean infinite, which the mean
    check rejects ("finite mean", as for finite squares whose mean
    overflows); n = 0 is rejected as such.  -0.0 counts as 0.  Positive
    entries are counted only in rows whose minimum is 0, and sum(v^2) is
    formed in the work slab.
    """
    v = np.asarray(v, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if v.ndim != 2 or lam.shape != (len(v),):
        raise ValueError(f"need a (k, n) matrix and k levels, got {v.shape} and {lam.shape}")
    if not np.all(lam > 0.0):
        raise ValueError("lambda must be positive")
    k, n = v.shape
    if n == 0:
        raise ValueError("scale solve needs at least one value per row")
    # a nan or a negative entry fails low >= 0; a +inf one passes it and
    # makes the row's mean infinite
    low = v.min(axis=1)
    if not np.all(low >= 0.0):
        raise ValueError("squared values must be finite and non-negative")
    # only a row whose minimum is 0 has fewer than n positive entries
    zeros = np.flatnonzero(low == 0.0)
    n_pos = np.count_nonzero(v[zeros] > 0.0, axis=1)
    v, mean, exponent = _rescale_rows(v, _mean)
    if not np.all(np.isfinite(mean)):
        raise ValueError("scale solve needs finite values with a finite mean")
    s0 = mean
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != mean.shape:
            raise ValueError(f"need one start per row, got {start.shape} for {len(v)} rows")
        with np.errstate(over="ignore"):
            start = np.ldexp(start, -exponent)
        s0 = np.where(np.isfinite(start) & (start > 0.0), start, mean)

    value = np.zeros(k)
    iterations = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    plateau = np.zeros(k, dtype=bool)

    # criterion value as S -> 0+; where it is non-positive there is no
    # positive root, which needs a zero entry; 0 answers a vanishing row
    no_root = np.zeros(k, dtype=bool)
    if zeros.size:
        no_root[zeros] = n_pos * LOG2 + (n - n_pos) * psi(-lam[zeros]) <= 0.0
        converged[zeros] = n_pos == 0
    bisection = no_root & ~converged
    rows, la, s = np.arange(k), lam, s0
    if no_root.any():
        rows, la, s = (x[~no_root] for x in (rows, la, s))
    lo, hi = np.zeros(len(rows)), np.full(len(rows), np.inf)
    steps, bis = np.zeros(len(rows), dtype=int), np.zeros(len(rows), dtype=bool)
    sq = np.empty(len(rows))
    # A tile's pass writes lam v / S, the psi arguments, psi, psi' and the
    # kernel's scratch into the leading rows of one slab.  A tile whose rows
    # are not consecutive in v is gathered into the lam v / S plane and
    # scaled there in place; the first pass squares it in the psi-argument
    # plane for sum(v^2).
    tile = max(1, TILE_ELEMS // n)
    work = np.empty((5, min(tile, len(rows)), n))
    # a row has taken at most ``passes`` steps and doubling or halving
    # rounds, which it splits between the two budgets
    budgets_from, passes = min(MAX_ITER, MAX_BRACKET_ROUNDS), 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while rows.size:
            ratio = la / s
            f, d = np.empty(len(rows)), np.empty(len(rows))
            for i in range(0, len(rows), tile):
                r = rows[i:i + tile]
                a, t, terms, slopes, scratch = work[:, :len(r)]
                if r[-1] - r[0] == len(r) - 1:
                    vt = v[r[0]:r[0] + len(r)]
                else:
                    # the indices are in range, and "clip" leaves out the
                    # temporary that the default mode copies the output through
                    vt = np.take(v, r, axis=0, out=a, mode="clip")
                if not passes:
                    np.add.reduce(np.multiply(vt, vt, out=t), axis=1, out=sq[i:i + tile])
                np.multiply(vt, ratio[i:i + tile, None], out=a)
                np.subtract(a, la[i:i + tile, None], out=t)
                psi_and_prime_into(t, terms, slopes, scratch)
                np.add.reduce(terms, axis=1, out=f[i:i + tile])
                slopes *= a
                dt = np.add.reduce(slopes, axis=1, out=d[i:i + tile])
                # lam v / S = inf gives psi' 0 times inf: that term adds nothing to d
                nan = np.isnan(dt)
                if nan.any():
                    dt[nan] = np.nansum(slopes[nan], axis=1)
            rel = f / d
            step = s / (1.0 - rel)
            abs_f, abs_rel = np.abs(f), np.abs(rel)
            a2 = sq * (ratio * ratio)
            b = a2 * (rel * rel)
            d_low = (1.0 - abs_rel) * (d - 2.0 * abs_rel * a2)
            right = f > 0.0  # the root lies right of S
            lo = np.where(right, s, lo)
            hi = np.where(right, hi, s)
            flat = d < 1e-14
            bracketed = (lo > 0.0) & (hi < np.inf)
            # the width test needs both ends: with hi = inf it would read inf <= inf
            done = (abs_f <= TOL) & ((abs_f <= 2.0**-40 * d) | flat
                                    | (bracketed & (hi - lo <= 2.0**-40 * hi)))
            newton = ~flat & (lo < step) & (step < hi)
            counted = newton | bracketed
            stop = done
            if passes >= budgets_from:
                stop = stop | np.where(counted, steps >= MAX_ITER,
                                       passes - steps >= MAX_BRACKET_ROUNDS)
            # a certified Newton step lands where the next evaluation would stop
            certified = newton & ~stop & (b <= np.minimum(TOL, 2.0**-41 * d_low))
            stop = stop | certified
            any_stop = stop.any()
            if any_stop:
                r = rows[stop]
                value[r] = np.where(certified, step, s)[stop]
                iterations[r] = (steps + certified)[stop]
                converged[r] = (done | certified)[stop]
                bisection[r] = (bis | ~(done | counted))[stop]
            if newton.all():
                s = step
            else:
                s = np.where(newton, step, np.where(
                    bracketed, 0.5 * (lo + hi), np.where(right, 2.0 * lo, 0.5 * hi)))
                bis |= ~newton & bracketed
            steps += counted
            passes += 1
            if any_stop:
                keep = np.flatnonzero(~stop)
                rows, la, s, sq, lo, hi, steps, bis = (
                    x[keep] for x in (rows, la, s, sq, lo, hi, steps, bis))

    # A flat root stretch needs negatively saturated non-zero terms
    # (psi = -log 2), so lambda > 1.  Its left edge is the largest
    # v_i lambda / (lambda - 1) at or below S: left of it term i leaves
    # saturation and f rises.  A row that stopped on an edge, as one
    # started there does, is checked at that edge, so the flag depends on
    # the returned point alone.  Edges are positive, so 0 marks "none".
    # The check runs a tile of rows at a time, like the passes.
    candidates = np.flatnonzero(converged & (lam > 1.0))
    for i in range(0, candidates.size, tile):
        rows = candidates[i:i + tile]
        vp, lp = v[rows], lam[rows]
        edges = vp * (lp / (lp - 1.0))[:, None]
        edge = np.where((vp > 0.0) & (edges <= value[rows, None]), edges, 0.0).max(axis=1)
        some = edge > 0.0
        rows, vp, lp, edge = rows[some], vp[some], lp[some], edge[some]
        with np.errstate(over="ignore"):
            t = vp * (lp / edge)[:, None] - lp[:, None]
        flat = np.abs(np.sum(psi(t), axis=1)) <= TOL
        value[rows[flat]] = edge[flat]
        plateau[rows[flat]] = True
    return ScaleResult(np.ldexp(value, exponent), iterations, converged, bisection, plateau)


def lambda_from_square_rows(v, epsilon: float, *, _mean=None) -> np.ndarray:
    """Data-driven truncation level of each row of the (k, n) matrix ``v`` of squares.

    m sqrt(u (1 - u) / var) with u = (2/n) log(1/epsilon), m the row's mean
    and var its sample variance.  Where that formula is undefined, for a
    sample too small for epsilon (n < 2 or u >= 1, every row alike) or a
    row with var = 0, the level is 1/sqrt(n).  Raises ``ValueError`` for
    epsilon outside (0, 1).  The deviations are squared in a buffer of at
    most ``TILE_ELEMS`` squares (and one row), never in a (k, n) array.
    ``_mean``, if given, is ``_row_means(v)``.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    v = np.asarray(v, dtype=float)
    n = v.shape[1]
    floor = 1.0 / math.sqrt(n)
    u = 2.0 * math.log(1.0 / epsilon) / n if n >= 2 else 1.0
    if u >= 1.0:
        return np.full(len(v), floor)
    # lambda is scale-free, so the rescale leaves its bits
    v, m, _ = _rescale_rows(v, _mean)
    tile = max(1, TILE_ELEMS // n)
    buffer = np.empty((min(tile, len(v)), n))
    var = np.empty(len(v))
    for i in range(0, len(v), tile):
        rows = v[i:i + tile]
        dev = np.subtract(rows, m[i:i + tile, None], out=buffer[:len(rows)])
        np.add.reduce(np.square(dev, out=dev), axis=1, out=var[i:i + tile])
    var /= n - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = m * np.sqrt(u * (1.0 - u) / var)
    lam[var <= 0.0] = floor
    return lam
