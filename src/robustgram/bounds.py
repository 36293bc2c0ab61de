"""Non-asymptotic bound calculators and the adaptive estimator selection.

All bounds are dimension-free: they involve the sample size, the kurtosis
ratio ``kappa``, fourth-moment scales and traces, never the ambient
dimension.  Vacuous bounds are represented by ``math.inf`` so that argmin
logic stays explicit (``math.isinf`` marks the gated-out regions).
The grid estimators solve a direction, or a block of directions, at the K
levels lambda_j with one ``mestimator.scale_from_squares`` call per level on
the block itself, uncopied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import mestimator
from .gram import NumericalError
from .influence import C_UNIVERSAL
from .mestimator import Sample, _row_means, scale_from_squares

# Rounded-up constants as printed in the source analysis; the exact values
# 2 cosh(1/8)^2, (2+3c)/(4(2+c)) and 2 (2+c) cosh(1/4)^2 are slightly smaller,
# which keeps every bound valid.  The constants audit test recomputes them.
ZETA_C1 = 2.032
ZETA_C2 = 0.73
ZETA_C3 = 98.5
LOG_K_CAP = 4.35  # valid whenever n <= 1e20 and a = 1/2
# Most grid levels ``grid_size`` admits.  At a = 1/2 no float n needs more
# than about 1400; K grows like 1/a, and at a = 1e-300 building the grid
# would never end.
MAX_GRID_K = 10_000


@dataclass(frozen=True)
class MomentBounds:
    """Upper bounds on the moments entering the theory.

    kappa     -- directional kurtosis sup E<t,X>^4 / (E<t,X>^2)^2 (3 for Gaussians)
    s4        -- bound on E[||X||^4]^(1/4)
    trace_g   -- bound on E[||X||^2]
    trace_g2  -- bound on the trace of the squared second-moment matrix
    certified -- False when produced by the plug-in estimator rather than theory
    """

    kappa: float
    s4: float
    trace_g: float
    trace_g2: float = 0.0
    certified: bool = True

    def __post_init__(self):
        if not all(map(math.isfinite, (self.kappa, self.s4, self.trace_g, self.trace_g2))):
            raise ValueError("moment bounds must be finite")
        if self.kappa < 1.0:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        if self.s4 <= 0.0 or self.trace_g <= 0.0:
            raise ValueError("s4 and trace_g must be positive")
        if self.trace_g2 < 0.0:
            raise ValueError("trace_g2 must be non-negative")
        # Cauchy-Schwarz consistency of the supplied bounds
        if self.s4**2 > math.sqrt(self.kappa) * self.trace_g * (1.0 + 1e-9):
            raise ValueError(
                f"inconsistent bounds: s4^2 = {self.s4 ** 2:.6g} exceeds "
                f"sqrt(kappa) * trace_g = {math.sqrt(self.kappa) * self.trace_g:.6g}"
            )


@dataclass(frozen=True)
class Grid:
    """Finite set of (lambda_j, beta_j) pairs the estimator adapts over."""

    points: tuple
    K: int
    a: float
    epsilon: float
    n: int

    def __post_init__(self):
        if len(self.points) != self.K or self.K < 1:
            raise ValueError("grid must hold exactly K >= 1 points")
        lams = [p[0] for p in self.points]
        betas = [p[1] for p in self.points]
        if not all(map(math.isfinite, (*lams, *betas, self.a, self.epsilon, self.n))):
            raise ValueError("grid fields must be finite")
        if any(l <= 0 for l in lams) or any(b <= 0 for b in betas):
            raise ValueError("grid points must be positive")
        if any(lams[j] >= lams[j + 1] for j in range(self.K - 1)):
            raise ValueError("lambda_j must be strictly increasing")
        if any(betas[j] <= betas[j + 1] for j in range(self.K - 1)):
            raise ValueError("beta_j must be strictly decreasing")


@dataclass(frozen=True)
class BoundCoeffs:
    """Coefficient quadruple (xi, mu, gamma, delta) for one (lambda, beta)."""

    xi: float
    mu: float
    gamma: float
    delta: float
    lam: float
    beta: float


def grid_size(n: float, kappa: float, a: float = 0.5) -> int:
    """K = 1 + ceil(a^-1 log(n / (72 (2+c) sqrt(kappa)))); ValueError for a K
    above ``MAX_GRID_K``."""
    c = C_UNIVERSAL
    steps = math.log(n / (72.0 * (2.0 + c) * math.sqrt(kappa))) / a
    # K = 1 + ceil(steps) <= MAX_GRID_K; false for nan too
    if not steps <= MAX_GRID_K - 1:
        k = 1 + math.ceil(steps) if math.isfinite(steps) else steps
        raise ValueError(f"a = {a:.6g} gives K = {k:.4g} grid levels at n = {n}, "
                         f"more than MAX_GRID_K = {MAX_GRID_K}; take a larger a")
    return 1 + math.ceil(steps)


def min_sample_size(kappa: float) -> float:
    """Smallest n for which the theoretical grid is defined."""
    return 72.0 * (2.0 + C_UNIVERSAL) * math.sqrt(kappa)


def make_grid(n: int, mb: MomentBounds, a: float = 0.5, epsilon: float = 0.05) -> Grid:
    """Theoretical grid of (lambda_j, beta_j), j = 0..K-1.

    lambda_j = sqrt((2 / (n (kappa-1))) ((2+3c) / (4 (2+c) sqrt(kappa) e^{-ja})
                                          + log(K / epsilon)))
    beta_j   = sqrt(2 (2+c) sqrt(kappa) s4^4 n e^{-(j - 1/2) a})

    A lambda_j or beta_j beyond the floating-point range, as from an s4 whose
    fourth power overflows, raises ``gram.NumericalError``.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 < a < math.inf:
        raise ValueError(f"a must be finite and positive, got {a}")
    if mb.kappa <= 1.0 + 1e-9:
        raise ValueError("kappa must exceed 1 (grid formulas divide by kappa - 1); "
                         "supply kappa >= 1 + 1e-6")
    n_min = min_sample_size(mb.kappa)
    if n < n_min:
        raise ValueError(
            f"n = {n} too small for the theoretical grid; need n >= {math.ceil(n_min)} "
            f"for kappa = {mb.kappa:.4g}"
        )
    c = C_UNIVERSAL
    kap = mb.kappa
    K = grid_size(n, kap, a)
    points = []
    for j in range(K):
        lam_j = math.sqrt(
            2.0 / (n * (kap - 1.0))
            * ((2.0 + 3.0 * c) / (4.0 * (2.0 + c) * math.sqrt(kap) * math.exp(-j * a))
               + math.log(K / epsilon))
        )
        beta_j = math.sqrt(
            2.0 * (2.0 + c) * math.sqrt(kap) * mb.s4**4 * n * math.exp(-(j - 0.5) * a)
        )
        if not (math.isfinite(lam_j) and math.isfinite(beta_j)):
            raise NumericalError(
                f"grid point {j} is out of floating-point range: lambda_j = {lam_j}, "
                f"beta_j = {beta_j} (kappa = {kap:.6g}, s4 = {mb.s4:.6g})")
        points.append((lam_j, beta_j))
    return Grid(points=tuple(points), K=K, a=a, epsilon=epsilon, n=n)


def bound_coeffs(lam: float, beta: float, n: int, mb: MomentBounds,
                 grid_cardinality: int, epsilon: float) -> BoundCoeffs:
    """Quadruple (xi, mu, gamma, delta) attached to one grid point."""
    if lam <= 0 or beta <= 0:
        raise ValueError("lambda and beta must be positive")
    c = C_UNIVERSAL
    kap, s4 = mb.kappa, mb.s4
    xi = kap * lam / 2.0
    mu = lam * (kap - 1.0) + (2.0 + c) * math.sqrt(kap) * s4**2 / beta
    gamma = (lam * (kap - 1.0) / 2.0
             + (2.0 + c) * math.sqrt(kap) * s4**2 / beta
             + (2.0 + 3.0 * c) * s4**4 / (2.0 * beta**2 * lam)
             + math.log(grid_cardinality / epsilon) / (n * lam))
    delta = beta / (2.0 * n * lam)
    return BoundCoeffs(xi=xi, mu=mu, gamma=gamma, delta=delta, lam=lam, beta=beta)


def coeffs_for_grid(grid: Grid, mb: MomentBounds, epsilon: float = None) -> list:
    eps = grid.epsilon if epsilon is None else epsilon
    return [bound_coeffs(lam, beta, grid.n, mb, grid.K, eps)
            for lam, beta in grid.points]


def phi_minus(t: float, coeffs: BoundCoeffs, norm_theta_sq: float) -> float:
    """Lower confidence map; 0 outside its indicator gate."""
    if t <= 0.0:
        return 0.0
    tau = coeffs.delta * coeffs.lam * norm_theta_sq / t
    if coeffs.xi - coeffs.mu + 2.0 * coeffs.gamma + 2.0 * tau >= 1.0:
        return 0.0
    frac = (coeffs.gamma + tau) / (1.0 + coeffs.mu - coeffs.gamma - tau)
    return t * (1.0 - frac)


def phi_plus(t: float, coeffs: BoundCoeffs, norm_theta_sq: float) -> float:
    """Upper confidence map; 0 outside its indicator gate."""
    if t <= 0.0:
        return 0.0
    tau = coeffs.delta * coeffs.lam * norm_theta_sq / t
    if coeffs.xi + coeffs.mu + coeffs.gamma + 2.0 * tau >= 1.0:
        return 0.0
    denom = 1.0 - coeffs.mu - coeffs.gamma - 2.0 * tau
    return t / (1.0 + (coeffs.gamma + tau) / denom)


def phi_plus_inverse(u: float, coeffs: BoundCoeffs, norm_theta_sq: float) -> float:
    """sup{t >= 0 : phi_plus(t) <= u}; math.inf when phi_plus never exceeds u.

    With a = delta lam ||theta||^2, A = 1 - mu - gamma and P = 1 - mu, the
    gate of phi_plus is open for t > 2a / (A - xi), where
    phi_plus(t) = t (A t - 2a) / (P t - a), which increases from -inf to inf
    on t > a / P.  So the sup is the larger of the gate point and the larger
    root of A t^2 - (2a + uP) t + ua.  With B = 2a + uP that root is
    B / (2A) (1 + sqrt(1 - r)), r = 4A (u/B) (a/B) <= 1/2, formed without
    B^2, which would overflow first.  u, a and B carry the same power of
    two and r none, so scaling u and delta by a power of two scales the
    result by it bit for bit.
    """
    if u < 0.0:
        return 0.0
    gate_margin = 1.0 - coeffs.xi - coeffs.mu - coeffs.gamma
    if gate_margin <= 0.0 or u == math.inf:
        return math.inf  # phi_plus is identically 0, or never exceeds u = inf
    a = coeffs.delta * coeffs.lam * norm_theta_sq
    b = 2.0 * a + u * (1.0 - coeffs.mu)
    if b == 0.0:
        return 0.0  # u = 0 and the gate is open at every t > 0, where phi_plus > 0
    lead = 1.0 - coeffs.mu - coeffs.gamma
    r = 4.0 * lead * (u / b) * (a / b)
    return max(2.0 * a / gate_margin, b / (2.0 * lead) * (1.0 + math.sqrt(1.0 - r)))


def b_bound(t: float, sigma: float, coeffs: BoundCoeffs) -> float:
    """Relative-error bound for one (lambda, beta) at normalized energy t."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    m = max(t, sigma)
    tau = coeffs.lam * coeffs.delta / m
    if coeffs.xi + coeffs.mu + coeffs.gamma + 2.0 * tau >= 1.0:
        return math.inf
    return (coeffs.gamma + tau) / (1.0 - coeffs.mu - coeffs.gamma - 2.0 * tau)


def _tilde_n_grid(v, grid: Grid) -> np.ndarray:
    """(k, K) tilde_n of each row of the (k, n) squared values v at each grid
    level, one row solve per level on v itself, its means taken once."""
    v = np.asarray(v, dtype=float)
    mean = _row_means(v)
    return np.column_stack([scale_from_squares(v, np.full(len(v), lam), _mean=mean).value
                            for lam, _ in grid.points])


class SelectedEstimate(NamedTuple):
    value: float
    lambda_hat: float
    beta_hat: float
    bound: float
    vacuous: bool


def select_from_square_rows(v, norm_sq, grid: Grid, coeffs: list, sigma: float) -> list:
    """Adaptive estimator on each row of the (k, n) squared values v, one
    direction per row with squared norms norm_sq.

    Computes tilde_n at every grid point, one row solve of the k rows per
    level, and keeps per row the one minimizing its own bound
    b_bound(tilde_n / norm_sq).  Ties break toward the smallest grid index;
    if every bound of a row is vacuous its smallest-lambda point is
    returned with ``vacuous=True``.
    """
    out = []
    for values, ns in zip(_tilde_n_grid(v, grid).tolist(), norm_sq):
        bounds_at = [b_bound(val / ns, sigma, co) for val, co in zip(values, coeffs)]
        best = int(np.argmin(bounds_at))
        vacuous = math.isinf(bounds_at[best])
        if vacuous:
            best = 0  # smallest lambda
        lam, beta = grid.points[best]
        out.append(SelectedEstimate(values[best], lam, beta, bounds_at[best], vacuous))
    return out


def _direction_squares(sample: Sample, theta, grid: Grid) -> tuple:
    """(squared projections, squared norm) of a non-zero theta on a sample of
    the size the grid was built for."""
    if grid.n != sample.n:
        raise ValueError(f"the grid is built for n = {grid.n}, the sample has n = {sample.n}")
    theta = np.asarray(theta, dtype=float)
    norm_sq = float(theta @ theta)
    if norm_sq == 0.0:
        raise ValueError("theta must be non-zero")
    p = sample.projections(theta)
    return p * p, norm_sq


def select_hat_n(sample: Sample, theta, grid: Grid, sigma: float,
                 mb: MomentBounds) -> SelectedEstimate:
    """``select_from_square_rows`` on the squared projections of the sample on
    theta; ValueError unless the grid is built for the sample's n."""
    v, norm_sq = _direction_squares(sample, theta, grid)
    return select_from_square_rows(v[None], [norm_sq], grid, coeffs_for_grid(grid, mb),
                                   sigma)[0]


def zeta_star(t: float, mb: MomentBounds, K: int, epsilon: float) -> float:
    """Explicit complexity term of the a = 1/2 grid bound."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    kap, tr = mb.kappa, mb.trace_g
    return (math.sqrt(ZETA_C1 * (kap - 1.0)
                      * (ZETA_C2 * tr / t + math.log(K) + math.log(1.0 / epsilon)))
            + math.sqrt(ZETA_C3 * kap * tr / t))


def b_star(t: float, sigma: float, n: int, mb: MomentBounds, K: int,
           epsilon: float) -> float:
    """Dimension-free relative-error bound; math.inf when its gate fails."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    z = zeta_star(max(t, sigma), mb, K, epsilon)
    if (6.0 + 1.0 / (mb.kappa - 1.0)) * z > math.sqrt(n):
        return math.inf
    r = z / math.sqrt(n)
    return r / (1.0 - 4.0 * r)


def sigma_default(n: int, mb: MomentBounds, epsilon: float) -> float:
    """Energy threshold 100 kappa Tr(G) / (n/128 - 4.35 - log(1/epsilon)).

    Decays like 1/n and keeps b_star finite everywhere once n is large
    enough.  The caller is responsible for clamping to <= s4^2.
    """
    denom = n / 128.0 - LOG_K_CAP - math.log(1.0 / epsilon)
    if denom <= 0.0:
        raise ValueError(
            f"n = {n} too small for a finite threshold; need n > "
            f"{math.ceil(128.0 * (LOG_K_CAP + math.log(1.0 / epsilon)))}"
        )
    return 100.0 * mb.kappa * mb.trace_g / denom


def confidence_intervals(sample: Sample, thetas, grid: Grid, mb: MomentBounds,
                         epsilon: float = None, *, _exponent: int = 0) -> list:
    """(lower, upper) confidence bounds for E<theta, X>^2 over the grid, one
    pair per direction of ``thetas``.

    lower = max_j phi_minus(tilde_n_j), upper = min_j phi_plus_inverse(tilde_n_j),
    with the values tilde_n_j of the directions from one row solve per
    level on their squared projections, one row each, which gives each
    direction the bits of its own solve.  The directions go to the solves
    a tile of ``mestimator.TILE_ELEMS`` squares (and one row) at a time, in
    one buffer, never as one (len(thetas), n) array.  An interval
    degenerates to [0, inf) when every gate is inactive.  The coefficients
    use grid.n, so a grid built for another n raises ValueError.
    ``robustgram estimate`` passes its sample divided by 2^_exponent: each
    tilde_n_j is multiplied by 4^_exponent before the maps, and the grid
    and the coefficients stay in original units.
    """
    coeffs = coeffs_for_grid(grid, mb, epsilon)
    tile = max(1, mestimator.TILE_ELEMS // sample.n)
    buf = np.empty((min(tile, len(thetas)), sample.n))
    intervals = []
    for lo in range(0, len(thetas), tile):
        norms_sq, chunk = [], thetas[lo:lo + tile]
        v = buf[:len(chunk)]
        for row, theta in zip(v, chunk):
            squares, norm_sq = _direction_squares(sample, theta, grid)
            row[:] = squares
            norms_sq.append(norm_sq)
        tilde = np.ldexp(_tilde_n_grid(v, grid), 2 * _exponent)
        for values, norm_sq in zip(tilde.tolist(), norms_sq):
            lower, upper = 0.0, math.inf
            for val, co in zip(values, coeffs):
                lower = max(lower, phi_minus(val, co, norm_sq))
                upper = min(upper, phi_plus_inverse(val, co, norm_sq))
            intervals.append((lower, upper))
    return intervals


def confidence_interval(sample: Sample, theta, grid: Grid, mb: MomentBounds,
                        epsilon: float = None) -> tuple:
    """``confidence_intervals`` of the one direction theta."""
    return confidence_intervals(sample, [theta], grid, mb, epsilon)[0]


def lambda_star(t: float, sigma: float, n: int, mb: MomentBounds, K: int,
                epsilon: float) -> float:
    """Truncation level optimizing the grid bound at energy max(t, sigma)."""
    c = C_UNIVERSAL
    m = max(t, sigma)
    return math.sqrt(
        2.0 / (n * (mb.kappa - 1.0))
        * ((2.0 + 3.0 * c) * mb.s4**2 / (4.0 * (2.0 + c) * math.sqrt(mb.kappa) * m)
           + math.log(K / epsilon))
    )


def _pos(x: float) -> float:
    return x if x > 0.0 else 0.0


def empirical_bounds(t: float, n: int, mb: MomentBounds, sigma: float,
                     epsilon: float, radius: float, mode: str = "R",
                     a: float = 0.5) -> float:
    """Deviation bound for the plain empirical estimator of E<theta, X>^2.

    ``radius`` is the data radius max ||X_i|| in mode "R", or the sixth-moment
    radius (mean ||X_i||^6)^(1/6) in mode "R_tilde".  Both modes add a
    heavy-tail correction on top of ``b_star``; a clamped denominator hitting
    zero yields math.inf (vacuous bound).
    """
    if t <= 0.0 or radius < 0.0:
        raise ValueError("t must be positive and radius non-negative")
    K = grid_size(n, mb.kappa, a)
    base = b_star(t, sigma, n, mb, K, epsilon)
    lam = lambda_star(t, sigma, n, mb, K, epsilon)
    m = max(t, sigma)
    if mode == "R":
        tau = lam**2 * math.exp(a / 2.0) * radius**4 / (3.0 * m**2)
        denom = _pos(1.0 - tau) * _pos(1.0 - base)
        if denom == 0.0:
            return math.inf
        return base + tau / denom
    if mode == "R_tilde":
        zeta = lam**2 * math.exp(a / 2.0) * radius**6 / (3.0 * m**3)
        denom = _pos(1.0 - base)
        if denom == 0.0:
            return math.inf
        return base + zeta / denom
    raise ValueError(f"mode must be 'R' or 'R_tilde', got {mode!r}")


def radius_envelope(trace_g: float, p: float, alpha: float, eta: float,
                    n: int, epsilon: float) -> float:
    """High-probability bound Tr(G)^(1/2) (1 + eta^(2/p) + 2 log(n/eps)/alpha)^(p/2)
    on the data radius under the exponential-moment assumption."""
    if min(trace_g, p, alpha, eta, epsilon) <= 0.0:
        raise ValueError("all parameters must be positive")
    return math.sqrt(trace_g) * (1.0 + eta ** (2.0 / p)
                                 + 2.0 * math.log(n / epsilon) / alpha) ** (p / 2.0)


def tau_q(kappa: float, q: int) -> float:
    """Kurtosis transfer coefficient kappa - 1 + 2/(q-1) for q-blocks."""
    if q < 2:
        raise ValueError("q must be at least 2")
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    return kappa - 1.0 + 2.0 / (q - 1.0)


def _block_moments(op: float, tr: float, tr2: float, kappa: float, q: int) -> tuple:
    """The pair of ``block_moment_bounds`` from op = ||Sigma||_inf, tr = Tr(Sigma)
    and tr2 = Tr(Sigma^2)."""
    w = 1.0 - (q - 2.0) / (q * (q - 1.0))
    coef = kappa + 1.0 / (q - 1.0)
    return (w * op + coef * tr / q, w * tr2 + coef * tr * tr / q)


def block_moment_bounds(sigma: np.ndarray, kappa: float, q: int) -> tuple:
    """Bounds on E||A theta||^2 / N(theta) and on E[Tr(A^2)] for the q-blocks.

    Returns (w ||Sigma||_inf + (kappa + 1/(q-1)) Tr(Sigma) / q,
             w Tr(Sigma^2)   + (kappa + 1/(q-1)) Tr(Sigma)^2 / q)
    with w = 1 - (q-2)/(q(q-1)).
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("Sigma must be square")
    op = float(np.linalg.eigvalsh(0.5 * (sigma + sigma.T)).max())
    return _block_moments(op, float(np.trace(sigma)), float(np.trace(sigma @ sigma)),
                          kappa, q)


def zeta_q(t: float, q: int, kappa: float, trace_sigma: float,
           trace_sigma2: float, op_norm_sigma: float, K: int,
           epsilon: float) -> float:
    """Complexity term for the q-block covariance estimator.

    Uses the simplified form when q ||Sigma||_inf <= Tr(Sigma), otherwise the
    full form built from the block moment bounds (``block_moment_bounds``).
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if q < 2:
        raise ValueError("q must be at least 2")
    tq = tau_q(kappa, q)
    log_term = math.log(K) + math.log(1.0 / epsilon)
    if q * op_norm_sigma <= trace_sigma:
        first = math.sqrt(ZETA_C1 * tq * (ZETA_C2 * trace_sigma / t + log_term))
        second = math.sqrt(ZETA_C3 * (kappa + 1.0 + 2.0 / (q * (q - 1.0)))
                           * trace_sigma / t)
        return first + second
    b1, b2 = _block_moments(op_norm_sigma, trace_sigma, trace_sigma2, kappa, q)
    first = math.sqrt(ZETA_C1 * tq * (ZETA_C2 * b2 / (b1 * t) + log_term))
    second = math.sqrt(ZETA_C3 * q * b1 / t)
    return first + second


def sym_zeta_star(t: float, e_tr_a: float, e_tr_a2: float, e_opnorm_a2: float,
                  kappa: float, K: int, epsilon: float,
                  form: str = "full") -> float:
    """Complexity term for PSD-matrix-mean estimation.

    form "full" uses E[Tr(A^2)] and E[||A||_inf^2]; form "trace" is the
    simplified variant that only needs E[Tr(A)].
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    log_term = math.log(K) + math.log(1.0 / epsilon)
    if form == "full":
        s = math.sqrt(e_opnorm_a2)
        first = math.sqrt(ZETA_C1 * (kappa - 1.0)
                          * (ZETA_C2 * e_tr_a2 / (math.sqrt(kappa) * s * t) + log_term))
        second = math.sqrt(ZETA_C3 * math.sqrt(kappa) * s / t)
        return first + second
    if form == "trace":
        first = math.sqrt(ZETA_C1 * (kappa - 1.0)
                          * (ZETA_C2 * e_tr_a / t + log_term))
        second = math.sqrt(ZETA_C3 * kappa * e_tr_a / t)
        return first + second
    raise ValueError(f"form must be 'full' or 'trace', got {form!r}")
