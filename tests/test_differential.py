"""The estimators against ``oracles.reference_gram``, a one-direction-at-a-time
transcription of the iteration that shares no package code.

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

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from robustgram import gram, mestimator
from robustgram.covariance import robust_covariance
from robustgram.gram import robust_gram
from robustgram.mestimator import Sample

from oracles import frobenius_norm, pair_difference_vectors, random_orthogonal, reference_gram

EPSILON = 0.1
NUM_UPDATES = 4


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


def check_against_reference(x, vectors, estimate):
    """estimate() at one and two threads equals itself bit for bit and the
    oracle on ``vectors`` to 1e-9 relative Frobenius."""
    ref, iterations, spectra = reference_gram(vectors, EPSILON, NUM_UPDATES)
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
    check_against_reference(x, x, lambda: robust_gram(Sample(x), EPSILON, NUM_UPDATES))


@settings(**SAMPLES)
@given(x=gapped_samples(), q=st.sampled_from([2, 3]))
def test_robust_covariance_matches_the_reference(x, q):
    assume(len(x) >= q)
    check_against_reference(x, pair_difference_vectors(x, q), lambda: robust_covariance(
        Sample(x), q=q, epsilon=EPSILON, num_updates=NUM_UPDATES))
