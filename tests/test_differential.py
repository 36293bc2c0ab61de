"""The estimators against ``oracles.reference_gram``, a one-direction-at-a-time
transcription of the iteration that shares no package code, and
grid-certified covariance against its grid mode.

The block and tile caps are patched small, so that every sample makes
several blocks and tiles and every update of two directions or more starts
the worker, and each estimate runs on one thread and on two under a short
switch interval.  The samples have a spectral gap wherever it matters: the
package's solves stop at their tolerance and the oracle's bisection at one
ulp, and a basis inside a near-degenerate eigenspace would turn that into
a different set of directions.
"""

import contextlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from robustgram import bounds, gram, mestimator
from robustgram.covariance import robust_covariance
from robustgram.gram import robust_gram
from robustgram.mestimator import Sample

from oracles import frobenius_norm, pair_difference_vectors, random_orthogonal, reference_gram

EPSILON = 0.1
# one update, the default of robust_covariance, and four, that of robust_gram,
# whose later updates start their solves warm
UPDATE_COUNTS = (1, 4)


@contextlib.contextmanager
def small_blocks(threads: int, started: list):
    """Blocks of at most 64 projections built a row at a time, solver tiles
    of 16 squares, ``threads`` threads per update, and each start of the
    worker recorded in ``started``."""
    saved = (gram.BLOCK_ELEMS, gram.TILE_ELEMS, mestimator.TILE_ELEMS, gram._THREADS,
             gram._worker, sys.getswitchinterval())
    pool = gram._worker

    def worker():
        started.append(1)
        return pool()

    gram.BLOCK_ELEMS, gram.TILE_ELEMS, mestimator.TILE_ELEMS = 64, 1, 16
    gram._THREADS, gram._worker = threads, worker
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        (gram.BLOCK_ELEMS, gram.TILE_ELEMS, mestimator.TILE_ELEMS, gram._THREADS,
         gram._worker, interval) = saved
        sys.setswitchinterval(interval)


@st.composite
def gapped_samples(draw):
    """n in [2, 24] by d in [1, 5], d > n included: normal or t(3) or t(1.5)
    rows with column scales 4^j, rotated, and some columns then set to 0 or
    scaled by 2^-500 or 2^400."""
    n, d = draw(st.integers(2, 24)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    df = draw(st.sampled_from([np.inf, 3.0, 1.5]))
    z = rng.standard_normal((n, d)) if df == np.inf else rng.standard_t(df, (n, d))
    x = (z * 4.0 ** np.arange(d)) @ random_orthogonal(d, rng).T
    kinds = st.sampled_from(["keep", "keep", "keep", "zero", "tiny", "huge"])
    for j, kind in enumerate(draw(st.lists(kinds, min_size=d, max_size=d))):
        if kind == "zero":
            x[:, j] = 0.0
        elif kind != "keep":
            x[:, j] = np.ldexp(x[:, j], -500 if kind == "tiny" else 400)
    return x


def gapped(spectra) -> bool:
    """Each eigenvalue above 1e-10 of the largest is at least 1% of itself
    away from its neighbours."""
    for vals in spectra:
        big = np.maximum(np.abs(vals[1:]), np.abs(vals[:-1]))
        if np.any((big > 1e-10 * np.abs(vals).max()) & (np.diff(vals) < 0.01 * big)):
            return False
    return True


def check_against_reference(x, vectors, estimate, num_updates):
    """estimate() at one and two threads equals itself bit for bit and the
    oracle at ``num_updates`` on ``vectors`` to 1e-9 relative Frobenius."""
    ref, iterations, spectra = reference_gram(vectors, EPSILON, num_updates)
    assume(gapped(spectra))
    results = []
    for threads in (1, 2):
        started = []
        with small_blocks(threads, started):
            results.append(estimate())
        assert bool(started) == (threads == 2 and x.shape[1] >= 2)
    one, two = results
    np.testing.assert_array_equal(one.matrix, two.matrix)
    assert one.frobenius_deltas == two.frobenius_deltas
    assert one.lambda_used == two.lambda_used
    assert one.iterations == iterations
    assert frobenius_norm(one.matrix - ref) <= 1e-9 * frobenius_norm(ref)


SAMPLES = dict(max_examples=25, deadline=None, derandomize=True)


@settings(**SAMPLES)
@given(x=gapped_samples())
@example(x=np.array([[1.0], [-3.0]]))
def test_robust_gram_matches_the_reference(x):
    for k in UPDATE_COUNTS:
        check_against_reference(x, x, lambda: robust_gram(Sample(x), EPSILON, k), k)


@settings(**SAMPLES)
@given(x=gapped_samples(), q=st.sampled_from([2, 3]))
def test_robust_covariance_matches_the_reference(x, q):
    assume(len(x) >= q)
    for k in UPDATE_COUNTS:
        check_against_reference(x, pair_difference_vectors(x, q), lambda: robust_covariance(
            Sample(x), q=q, epsilon=EPSILON, num_updates=k), k)


@pytest.mark.parametrize("sigma_share", [None, 1e-2])
@pytest.mark.parametrize("q, n", [(2, 30000), (3, 36000)])
def test_grid_certified_covariance_matches_the_reference(monkeypatch, q, n, sigma_share):
    # The grid needs about 12000 blocks, and an update of 9 * 15000 or
    # 9 * 36000 squares runs on two threads.  At this size sigma_default
    # exceeds s4^2, so sigma is s4^2, every direction's energy clamps to it
    # and all take one level; with sigma at a hundredth of s4^2 they take
    # several, and some rows are vacuous at every level.
    rng = np.random.default_rng(70 + q)
    x = ((rng.standard_t(8, (n, 3)) * [3.0, 1.5, 0.5]) @ random_orthogonal(3, rng).T
         + [5.0, -2.0, 1.0])
    if sigma_share is not None:
        monkeypatch.setattr(bounds, "sigma_default", lambda m, mb, eps: sigma_share * mb.s4**2)
    select, calls = bounds.select_from_square_rows, []

    def spy(v, norm_sq, grid, coeffs, sigma):
        selected = select(v, norm_sq, grid, coeffs, sigma)
        calls.append((threading.get_ident(), (grid, coeffs, sigma),
                      {(sel.lambda_hat, sel.vacuous) for sel in selected}))
        return selected

    monkeypatch.setattr(bounds, "select_from_square_rows", spy)
    results = []
    for threads in (1, 2):
        monkeypatch.setattr(gram, "_THREADS", threads)
        calls.clear()
        results.append(robust_covariance(Sample(x), q=q, epsilon=EPSILON,
                                          mode="grid-certified", num_updates=2))
        assert len({ident for ident, _, _ in calls}) == threads
    one, two = results
    np.testing.assert_array_equal(one.matrix, two.matrix)
    assert one.frobenius_deltas == two.frobenius_deltas
    picked = set().union(*(levels for _, _, levels in calls))
    if sigma_share is None:
        assert len(picked) == 1
    else:
        assert {vacuous for _, vacuous in picked} == {False, True}
    # the grid is that of the difference vectors divided by 2^e, as the
    # estimator sees them, and the estimate is scaled back by 4^e: both exact
    vectors, e = gram._normalized(pair_difference_vectors(x, q))
    ref, iterations, spectra = reference_gram(vectors, EPSILON, 2, grid=calls[0][1])
    assert gapped(spectra)
    assert one.iterations == iterations
    matrix = np.ldexp(one.matrix, -2 * e)
    assert frobenius_norm(matrix - ref) <= 1e-9 * frobenius_norm(ref)
