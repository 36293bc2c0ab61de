"""Direction-wise robust estimators of second moments.

The criterion ``r_lambda(theta) = mean(psi(<theta, X_i>^2 - lambda))`` is
non-decreasing in the scaling ``alpha`` of ``theta``.  The estimate of
E<theta, X>^2 is ``tilde_n = lambda / alpha_hat^2`` with ``alpha_hat =
sup{alpha : r_lambda(alpha theta) <= 0}``.  Under ``alpha^2 = lambda / S``
the criterion becomes ``sum(psi(lambda (p_i^2 / S - 1)))``, non-increasing
in S, so ``tilde_n`` is its smallest root.  One solver, ``scale_from_squares``,
finds that root; ``tilde_n``, ``alpha_hat`` and ``robust_scale`` express it
in the paper's notation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .influence import LOG2, psi, psi_prime


@dataclass(frozen=True)
class Sample:
    """Immutable n x d matrix of observations (one observation per row)."""

    data: np.ndarray
    n: int = field(init=False)
    d: int = field(init=False)

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
        return self.data @ theta


@dataclass(frozen=True)
class ScaleResult:
    """Outcome of the scalar scale solve."""

    value: float
    iterations: int
    converged: bool
    method: str  # "newton" or "bisection-fallback"
    plateau: bool = False  # moved to the left edge of a flat root interval


def r_lambda(sample: Sample, theta, lam: float) -> float:
    """Empirical criterion mean(psi(<theta, X_i>^2 - lambda))."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    p = sample.projections(theta)
    return float(np.mean(psi(p * p - lam)))


def tilde_n_from_squares(v, lam: float) -> float:
    """``tilde_n`` on squared projection values: the scale solve, 0 if v vanishes."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    v = np.asarray(v, dtype=float)
    return scale_from_squares(v, lam).value if (v > 0.0).any() else 0.0


def tilde_n(sample: Sample, theta, lam: float) -> float:
    """Robust estimate lambda / alpha_hat^2 of E<theta, X>^2 (0 if alpha_hat = inf)."""
    p = sample.projections(theta)
    return tilde_n_from_squares(p * p, lam)


def alpha_hat(sample: Sample, theta, lam: float) -> float:
    """sup{alpha >= 0 : r_lambda(alpha * theta) <= 0} = sqrt(lambda / tilde_n).

    +inf when tilde_n is 0 (the criterion never turns positive).
    """
    t = tilde_n(sample, theta, lam)
    return math.sqrt(lam / t) if t > 0.0 else math.inf


def scale_from_squares(v, lam: float, tol: float = 1e-10, max_iter: int = 100) -> ScaleResult:
    """Smallest S > 0 with sum(psi(lambda (v_i / S - 1))) <= 0, v_i >= 0 given.

    Newton from S0 = mean(v) with a maintained sign bracket; any step that
    leaves the bracket, or a scale-free derivative |S f'(S)| below 1e-14,
    falls back to bisection.  ``tol`` bounds the absolute psi-sum residual
    at the returned value.  When the criterion stays within ``tol`` of 0
    from the converged point down to the left edge of a flat stretch, that
    edge is returned (``plateau=True``), which is the sup in the alpha form.
    Returns 0 (not converged) when the criterion is non-positive near S = 0.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    v = np.asarray(v, dtype=float)
    if v.size == 0 or not (v > 0.0).any():
        raise ValueError("scale solve needs at least one non-zero entry")
    s = float(np.mean(v))
    if not math.isfinite(s):
        raise ValueError("scale solve needs finite values with a finite mean")

    def f(s):
        return float(np.sum(psi(lam * (v / s - 1.0))))

    def fprime(s):
        return float(np.sum(psi_prime(lam * (v / s - 1.0)) * (-lam * v / (s * s))))

    def root(s, it, method):
        # A flat root stretch needs negatively saturated non-zero terms
        # (psi = -log 2), so lambda > 1.  Its left edge is the largest
        # v_i lambda / (lambda - 1) below s: left of it term i leaves
        # saturation and f rises.
        if lam > 1.0:
            edges = v[v > 0.0] * (lam / (lam - 1.0))
            edges = edges[edges < s]
            if edges.size:
                edge = float(edges.max())
                if abs(f(edge)) <= tol:
                    return ScaleResult(edge, it, True, method, plateau=True)
        return ScaleResult(s, it, True, method)

    n_zero = int(np.sum(v == 0.0))
    n_pos = v.size - n_zero
    # criterion value as S -> 0+; if non-positive there is no positive root
    if n_pos * LOG2 + n_zero * psi(-lam) <= 0.0:
        return ScaleResult(0.0, 0, False, "bisection-fallback")

    fs = f(s)
    if abs(fs) <= tol:
        return root(s, 0, "newton")
    # f is decreasing in S: bracket [lo, hi] with f(lo) > 0 > f(hi)
    if fs > 0.0:
        lo, hi = s, 2.0 * s
        while f(hi) > 0.0:
            lo, hi = hi, 2.0 * hi
    else:
        lo, hi = 0.5 * s, s
        while f(lo) < 0.0:
            lo, hi = 0.5 * lo, lo

    method = "newton"
    for it in range(1, max_iter + 1):
        fp = fprime(s)
        if abs(fp * s) < 1e-14:
            step = 0.5 * (lo + hi)
            method = "bisection-fallback"
        else:
            step = s - fs / fp
            if not (lo < step < hi):
                step = 0.5 * (lo + hi)
                method = "bisection-fallback"
        s = step
        fs = f(s)
        if abs(fs) <= tol:
            return root(s, it, method)
        if fs > 0.0:
            lo = s
        else:
            hi = s
    return ScaleResult(0.5 * (lo + hi), max_iter, False, method)


def robust_scale(p, lam: float, tol: float = 1e-10, max_iter: int = 100) -> ScaleResult:
    """Robust scale of the squared entries of ``p``; see ``scale_from_squares``."""
    p = np.asarray(p, dtype=float)
    return scale_from_squares(p * p, lam, tol=tol, max_iter=max_iter)


def lambda_from_squares(v, epsilon: float) -> float:
    """Data-driven truncation level for ``v_i`` playing the role of p_i^2.

    Returns m * sqrt(u (1 - u) / var) with u = (2/n) log(1/epsilon),
    m the mean of v and var its sample variance.  Raises when the sample
    is too small (u >= 1) or degenerate (var = 0); callers substitute a
    configured floor in that case.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    v = np.asarray(v, dtype=float)
    n = v.size
    if n < 2:
        raise ValueError("need at least two observations")
    u = 2.0 * math.log(1.0 / epsilon) / n
    if u >= 1.0:
        raise ValueError(f"sample too small: 2 log(1/epsilon)/n = {u:.3f} >= 1")
    m = float(np.mean(v))
    var = float(np.sum((v - m) ** 2) / (n - 1))
    if var <= 0.0:
        raise ValueError("degenerate sample: zero variance of squared values")
    return m * math.sqrt(u * (1.0 - u) / var)


def adaptive_lambda(p, epsilon: float) -> float:
    """``lambda_from_squares`` applied to the squares of ``p``."""
    p = np.asarray(p, dtype=float)
    return lambda_from_squares(p * p, epsilon)
