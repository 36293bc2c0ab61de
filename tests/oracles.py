"""Independent oracles and shared checks used by the test suite.

Everything here is deliberately naive (bisection, grid scans, brute-force
pair sums) and shares no solver code with the package.  The sample
strategy and the checks at the end serve the property tests of both
matrix estimators.
"""

import math

import numpy as np
from hypothesis import strategies as st


def psi_ref(t: float) -> float:
    """Direct scalar transcription of the influence function branches."""
    if t < 0:
        return -psi_ref(-t)
    if t >= 1:
        return math.log(2.0)
    return -math.log(1.0 - t + t * t / 2.0)


def scale_criterion(v: np.ndarray, lam: float, s: float) -> float:
    # fresh vectorized transcription of the branches (independent of the package)
    z = lam * (np.asarray(v, dtype=float) / s - 1.0)
    a = np.abs(z)
    a1 = np.minimum(a, 1.0)
    vals = np.where(a >= 1.0, math.log(2.0), -np.log(1.0 - a1 + a1 * a1 / 2.0))
    return float(np.sum(np.sign(z) * vals))


def bisect_scale(v, lam: float, lo: float = None, hi: float = None,
                 iters: int = 200) -> float:
    """Root of the scale criterion by pure bisection on a sign bracket."""
    v = np.asarray(v, dtype=float)
    m = float(np.mean(v[v > 0])) if (v > 0).any() else 1.0
    if lo is None:
        lo = m
        while scale_criterion(v, lam, lo) <= 0.0:
            lo *= 0.5
    if hi is None:
        hi = m
        while scale_criterion(v, lam, hi) > 0.0:
            hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if scale_criterion(v, lam, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * hi:
            break
    return 0.5 * (lo + hi)


def gridscan_scale(v, lam: float) -> float:
    """Scan a log grid for the sign change, then bisect inside it."""
    v = np.asarray(v, dtype=float)
    m = float(np.mean(v[v > 0]))
    grid = np.geomspace(m * 1e-8, m * 1e8, 400)
    vals = [scale_criterion(v, lam, s) for s in grid]
    for k in range(len(grid) - 1):
        if vals[k] > 0.0 >= vals[k + 1]:
            return bisect_scale(v, lam, lo=grid[k], hi=grid[k + 1])
    raise AssertionError("oracle found no sign change")


def alpha_criterion(v: np.ndarray, lam: float, alpha: float) -> float:
    z = alpha * alpha * np.asarray(v, dtype=float) - lam
    a = np.abs(z)
    a1 = np.minimum(a, 1.0)
    vals = np.where(a >= 1.0, math.log(2.0), -np.log(1.0 - a1 + a1 * a1 / 2.0))
    return float(np.mean(np.sign(z) * vals))


def bisect_alpha(v, lam: float, iters: int = 200) -> float:
    """sup{alpha : mean psi(alpha^2 v - lam) <= 0} by doubling plus bisection."""
    v = np.asarray(v, dtype=float)
    hi = 1.0
    for _ in range(200):
        if alpha_criterion(v, lam, hi) > 0.0:
            break
        hi *= 2.0
    else:
        return math.inf
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if alpha_criterion(v, lam, mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def central_difference(fn, t: float, h: float = 1e-6) -> float:
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def mean_of_squares(v, norm_sq, start):
    """Estimate hook of the polarization loop: the plain mean of each row of
    quadratic values (sums of squared projections)."""
    return np.mean(v, axis=1)


def frobenius_norm(a) -> float:
    """||a||_F, taken on a / max |a_ij|, so that tiny entries do not
    underflow when squared."""
    top = float(np.max(np.abs(a), initial=0.0))
    return top * float(np.linalg.norm(a / top)) if top else 0.0


def reference_lambda(v, epsilon: float) -> float:
    """Adaptive truncation level of one row of quadratic values:
    m sqrt(u (1 - u) / var), u = (2/n) log(1/epsilon), taken on v / m, where
    it is scale-free, so that tiny values keep their variance; 1/sqrt(n)
    where the formula is undefined (n < 2, u >= 1 or var = 0)."""
    n = len(v)
    u = 2.0 * math.log(1.0 / epsilon) / n if n >= 2 else 1.0
    var = float(np.var(v / np.mean(v), ddof=1)) if u < 1.0 else 0.0
    return math.sqrt(u * (1.0 - u) / var) if var > 0.0 else 1.0 / math.sqrt(n)


def reference_gram(vectors, epsilon: float, num_updates: int) -> tuple:
    """The iterative robust estimate from generating vectors of shape (m, d)
    or (m, g, d), one direction at a time: per update an eigenbasis of the
    estimate (the mean of the A_i first), per direction its group-summed
    squared projections, ``reference_lambda`` and ``bisect_scale`` from a
    cold bracket, polarization, and the stop at a relative Frobenius step of
    at most 1e-8.  Returns (matrix, iterations, the eigenvalues of every
    basis used), the last to check the spectral gaps the comparison needs."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim == 2:
        vectors = vectors[:, None, :]
    m, _, d = vectors.shape
    flat = vectors.reshape(-1, d)
    prev = flat.T @ flat / m
    prev = 0.5 * (prev + prev.T)
    spectra = []
    for k in range(num_updates):
        vals, basis = np.linalg.eigh(prev)
        spectra.append(vals)
        w = vectors @ basis

        def n_of(theta):
            v = np.sum((w @ theta) ** 2, axis=1)
            if not (v > 0.0).any():
                return 0.0
            return bisect_scale(v, reference_lambda(v, epsilon), iters=100)

        eye = np.eye(d)
        c = np.empty((d, d))
        for i in range(d):
            for j in range(i, d):
                minus = n_of(eye[i] - eye[j]) if i < j else 0.0
                c[i, j] = c[j, i] = 0.25 * (n_of(eye[i] + eye[j]) - minus)
        q = basis @ c @ basis.T
        q = 0.5 * (q + q.T)
        dist = frobenius_norm(q - prev)
        if (dist / frobenius_norm(prev) if dist else 0.0) <= 1e-8 or k + 1 == num_updates:
            return q, k + 1, spectra
        prev = q


def kappa_per_direction(x: np.ndarray, n_directions: int = 100, seed: int = 0) -> float:
    """Plug-in directional kurtosis one direction at a time: the canonical
    basis, then the same seeded unit directions as ``harness.kappa_plugin``,
    each projected with its own matrix-vector product."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n_directions, x.shape[1]))
    dirs = list(np.eye(x.shape[1])) + [r / np.linalg.norm(r) for r in raw if r.any()]
    best = 1.0
    for theta in dirs:
        p2 = (x @ theta) ** 2
        m2 = float(np.mean(p2))
        if m2 > 0.0:
            best = max(best, float(np.mean(p2 * p2)) / (m2 * m2))
    return best


def random_orthogonal(d, rng):
    """Random d x d orthogonal matrix from the QR factorization of a Gaussian one."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def assert_scales_by_powers_of_four(estimate, x, k):
    """Check estimate(2^k x) == 4^k estimate(x) bit for bit where 4^k estimate(x) is representable."""
    base = estimate(x)
    got = estimate(np.ldexp(x, k))
    with np.errstate(under="ignore"):
        expected = np.ldexp(base, 2 * k)
        exact = np.ldexp(expected, -2 * k) == base
    assert exact.any()
    np.testing.assert_array_equal(got[exact], expected[exact])


def assert_rotation_equivariant(estimate, x, rng):
    """Check estimate(x R^T) = R estimate(x) R^T, R random orthogonal, to 1e-9 relative Frobenius."""
    r = random_orthogonal(x.shape[1], rng)
    target = r @ estimate(x) @ r.T
    assert np.linalg.norm(estimate(x @ r.T) - target) <= 1e-9 * np.linalg.norm(target)


def pairwise_block_covariance(x: np.ndarray, q: int) -> np.ndarray:
    """Brute-force sum over within-block pairs for one block of rows."""
    d = x.shape[1]
    acc = np.zeros((d, d))
    for j in range(q):
        for k in range(j + 1, q):
            diff = x[j] - x[k]
            acc += np.outer(diff, diff)
    return acc / (q * (q - 1.0))


def pair_difference_vectors(x: np.ndarray, q: int) -> np.ndarray:
    """(m, q(q-1)/2, d) generating vectors (x_j - x_k) / sqrt(q(q-1)), j < k,
    of each of the m = n // q consecutive q-blocks, pair by pair."""
    return np.array([[(x[b * q + j] - x[b * q + k]) / math.sqrt(q * (q - 1.0))
                      for j in range(q) for k in range(j + 1, q)]
                     for b in range(len(x) // q)])


def block_matrices(vectors: np.ndarray) -> np.ndarray:
    """(m, d, d) matrices A_i = G_i^T G_i of the (m, p, d) generating vectors G_i."""
    return np.einsum("mpi,mpj->mij", vectors, vectors)


def phi_plus_inverse_ref(phi_plus_fn, u: float, t_max: float = 1e12,
                         iters: int = 400) -> float:
    """Reference sup{t : phi_plus(t) <= u} by fine bisection on the predicate."""
    lo, hi = 0.0, 1.0
    while phi_plus_fn(hi) <= u and hi < t_max:
        hi *= 2.0
    if hi >= t_max:
        return math.inf
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if phi_plus_fn(mid) <= u:
            lo = mid
        else:
            hi = mid
    return lo


@st.composite
def degenerate_lattice_samples(draw):
    """(x, zero): n in [2, 12], d in [1, 8] on a 1/8 lattice, with copied rows
    and the columns flagged in ``zero`` set to 0; d > n occurs."""
    n, d = draw(st.integers(2, 12)), draw(st.integers(1, 8))
    cells = draw(st.lists(st.integers(-64, 64), min_size=n * d, max_size=n * d))
    x = np.array(cells, dtype=float).reshape(n, d) / 8.0
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        x[j] = x[i]
    zero = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    x[:, zero] = 0.0
    return x, zero


def assert_symmetric_finite_zero_columns(q, zero):
    """Finite, exactly symmetric, and zero columns' rows and columns at rounding level."""
    assert np.all(np.isfinite(q))
    np.testing.assert_array_equal(q, q.T)
    assert np.all(np.abs(q[zero]) <= 1e-12 * np.abs(q).max())
