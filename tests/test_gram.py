import logging
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustgram.gram import (
    STOP_TOL,
    NumericalError,
    empirical_gram,
    frobenius_error,
    iterate_polarization,
    polarization_update,
    positive_part,
    robust_gram,
)
from robustgram.covariance import robust_covariance
from robustgram.harness import ExperimentConfig, gen_mixture, run_benchmark, trial_rng
from robustgram import gram, mestimator
from robustgram.mestimator import Sample, scale_from_squares

from oracles import (
    assert_rotation_equivariant,
    assert_scales_by_powers_of_four,
    assert_symmetric_finite_zero_columns,
    degenerate_lattice_samples,
    mean_of_squares,
    random_orthogonal,
)


def default_estimate(v, norm_sq, start):
    """The default estimate of ``iterate_polarization`` at epsilon = 0.1."""
    return gram._robust_scale_rows(v, 0.1, [], start)[0]


class TestEmpiricalGram:
    def test_single_observation(self):
        x = np.array([1.0, -2.0, 0.5])
        g = empirical_gram(Sample(x.reshape(1, -1)))
        np.testing.assert_allclose(g, np.outer(x, x), atol=0.0)

    def test_orthonormal_rows(self):
        d = 5
        g = empirical_gram(Sample(np.eye(d)))
        np.testing.assert_allclose(g, np.eye(d) / d, atol=0.0)

    def test_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = empirical_gram(Sample(rng.standard_normal((12, 4))))
            assert np.linalg.eigvalsh(g).min() >= -1e-10


class TestFrobeniusError:
    def test_zero_on_equal(self):
        g = np.ones((3, 3))
        assert frobenius_error(g, g) == 0.0

    def test_identity_shift(self):
        g = np.zeros((10, 10))
        assert frobenius_error(g + np.eye(10), g) == pytest.approx(10.0)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        r = random_orthogonal(6, rng)
        assert frobenius_error(r @ a @ r.T, r @ b @ r.T) == pytest.approx(
            frobenius_error(a, b), rel=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_error(np.ones((2, 2)), np.ones((3, 3)))


class TestPositivePart:
    def test_psd_fixed_point(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 4))
        g = x.T @ x / 20
        np.testing.assert_allclose(positive_part(g), g, atol=1e-10)

    def test_eigenvalue_clamp(self):
        q = np.diag([1.0, -2.0])
        np.testing.assert_allclose(positive_part(q), np.diag([1.0, 0.0]), atol=1e-12)

    def test_quadratic_form_dominates(self):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((5, 5))
        q = 0.5 * (q + q.T)
        qp = positive_part(q)
        for _ in range(30):
            theta = rng.standard_normal(5)
            assert theta @ qp @ theta >= theta @ q @ theta - 1e-10

    def test_frobenius_contraction(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((6, 6))
        q = 0.5 * (q + q.T)
        assert np.linalg.norm(positive_part(q)) <= np.linalg.norm(q) + 1e-12


class TestPolarizationUpdate:
    def test_mean_of_squares_gives_gram(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((40, 6))
        c = polarization_update(w, mean_of_squares)
        np.testing.assert_allclose(c, w.T @ w / 40, atol=1e-12)

    def test_zero_column_zero_row(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((30, 4))
        w[:, 2] = 0.0
        c = polarization_update(w, default_estimate)
        np.testing.assert_allclose(c[2, :], 0.0, atol=1e-12)
        np.testing.assert_allclose(c[:, 2], 0.0, atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((25, 5))
        c = polarization_update(w, default_estimate)
        np.testing.assert_array_equal(c, c.T)

    def test_zero_column_logs_no_warning(self, caplog):
        # the doubled zero column vanishes, which the solver answers with 0,
        # converged
        x = np.random.default_rng(6).standard_normal((30, 4))
        x[:, 2] = 0.0
        with caplog.at_level(logging.WARNING, logger="robustgram.gram"):
            robust_gram(Sample(x))
        assert "did not converge" not in caplog.text

    @pytest.mark.parametrize("hook", ["default", "recording"])
    def test_underflowing_squares_reach_the_hook_and_give_zero(self, hook):
        # the projections 2 w_1 on the doubled column 1 are non-zero, but
        # their squares, about 2^-1196, underflow to 0: the hook sees that
        # row vanish, and the default hook solves it as N = 0
        rng = np.random.default_rng(21)
        w = rng.standard_normal((50, 3))
        w[:, 1] = np.ldexp(w[:, 1], -600)
        seen = []

        def recording(v, norm_sq, start):
            seen.extend(v.any(axis=1).tolist())
            return mean_of_squares(v, norm_sq, start)

        n_values = np.full(9, np.nan)
        c = polarization_update(w, default_estimate if hook == "default" else recording,
                                n_values)
        assert n_values[5] == 0.0 and c[1, 1] == 0.0
        assert np.all(np.delete(n_values, 5) > 0.0)
        assert seen == ([] if hook == "default" else [True] * 5 + [False] + [True] * 3)


def _projection_cases():
    rng = np.random.default_rng(17)
    zero = rng.standard_t(3, size=(200, 5))
    zero[:, 3] = 0.0
    return {
        "paper size": rng.standard_t(3, size=(100, 10)),
        # 36 directions of 3000 projections: 10 to a block at BLOCK_ELEMS = 2^15,
        # one block of 10-row tiles at 2^18
        "several blocks": rng.standard_t(3, size=(3000, 6)),
        "grouped": rng.standard_t(3, size=(90, 3, 4)),
        "zero column": zero,
        "d > n": rng.standard_t(3, size=(6, 9)),
    }


class TestBlockedUpdate:
    @pytest.mark.parametrize("name", list(_projection_cases()))
    def test_default_equals_one_direction_at_a_time(self, name):
        w = _projection_cases()[name]
        blocked_lams, single_lams = [], []
        blocked = polarization_update(
            w, lambda v, norm_sq, start: gram._robust_scale_rows(v, 0.1, blocked_lams, start)[0])
        single = polarization_update(w, lambda v, norm_sq, start: [
            gram._robust_scale_rows(row[None], 0.1, single_lams, s[None])[0][0]
            for row, s in zip(v, start)])
        np.testing.assert_array_equal(blocked, single)
        assert blocked_lams == single_lams

    def test_estimator_sees_blocks_and_norms(self, monkeypatch):
        # at BLOCK_ELEMS = 2^14 the 9 directions of 4000 projections take
        # three equal blocks
        monkeypatch.setattr(gram, "BLOCK_ELEMS", 2**14)
        rng = np.random.default_rng(18)
        w = rng.standard_normal((4000, 3))
        shapes, norms = [], []

        def estimate(v, norm_sq, start):
            shapes.append(v.shape)
            norms.extend(norm_sq.tolist())
            return np.mean(v, axis=1)

        c = polarization_update(w, estimate)
        assert shapes == [(3, 4000)] * 3
        assert norms == [4.0, 2.0, 2.0, 2.0, 2.0, 4.0, 2.0, 2.0, 4.0]
        np.testing.assert_allclose(c, w.T @ w / 4000, rtol=1e-12)


class TestBlockSize:
    """``BLOCK_ELEMS`` only groups directions into solver calls: the row
    solver is batch-invariant, so the block size moves no bit."""

    @staticmethod
    def estimates():
        x = _projection_cases()["several blocks"]
        y = np.random.default_rng(11).standard_normal((14000, 3)) + 1.0
        # 4 updates, so that warm-started solves are blocked too
        yield robust_gram(Sample(x), num_updates=4)
        yield robust_covariance(Sample(x), q=2, num_updates=4)
        yield robust_covariance(Sample(x), q=3, num_updates=4)
        yield robust_covariance(Sample(y), q=2, epsilon=0.05, mode="grid-certified",
                                num_updates=2)

    def test_block_size_moves_no_bit(self, monkeypatch):
        results = []
        for elems in (2**12, 2**14, 2**15, 2**18):
            monkeypatch.setattr(gram, "BLOCK_ELEMS", elems)
            results.append(list(self.estimates()))
        for other in results[1:]:
            for a, b in zip(results[0], other):
                np.testing.assert_array_equal(a.matrix, b.matrix)
                assert a.frobenius_deltas == b.frobenius_deltas
                assert a.lambda_used == b.lambda_used


class TestWarmStart:
    """From update 2 on, each direction's solve starts at its root in the
    previous update."""

    def test_settled_updates_take_one_pass_per_row(self, monkeypatch):
        # the estimate-tall shape (n = 40000, d = 10) at BLOCK_ELEMS = 2^15:
        # one direction per block; on one thread, so that the calls are
        # recorded in direction order
        monkeypatch.setattr(gram, "BLOCK_ELEMS", 2**15)
        monkeypatch.setattr(gram, "_THREADS", 1)
        passes, calls = [], []

        def counting(t, *out):
            passes.append(len(t))
            return kernel(t, *out)

        def solve(v, lam, start=None, **private):
            passes.clear()
            r = scale_from_squares(v, lam, start, **private)
            calls.append((start, r.value, sum(passes)))
            return r

        kernel = mestimator.psi_and_prime_into
        monkeypatch.setattr(mestimator, "psi_and_prime_into", counting)
        monkeypatch.setattr(gram, "scale_from_squares", solve)
        cfg = ExperimentConfig(n=40000, d=10, trials=1, seed=0)
        est = robust_gram(gen_mixture(cfg, trial_rng(cfg.seed)), epsilon=0.1, num_updates=4)
        assert est.iterations == 4 and len(calls) == 400
        updates = [calls[k:k + 100] for k in range(0, 400, 100)]
        assert all(np.isnan(start).all() for start, _, _ in updates[0])
        for before, after in zip(updates, updates[1:]):
            for (_, root, _), (start, _, _) in zip(before, after):
                np.testing.assert_array_equal(start, root)
        # a solve from the mean takes two kernel passes per row; update 2 moved
        # the iterate by 7.5e-6, which leaves some roots of update 3 too far
        # from their starts for the certificate, and update 3 by 3.7e-7
        passes_per_update = [sum(p for _, _, p in u) for u in updates]
        assert passes_per_update[0] == 200
        assert passes_per_update[2] < 150 and passes_per_update[3] == 100

    def test_any_hook_starts_at_its_own_previous_values(self, monkeypatch):
        # n = 4000, d = 3 at BLOCK_ELEMS = 2^14: the 9 directions come in
        # three blocks of 3, and the row medians move the iterate, so every
        # update runs
        monkeypatch.setattr(gram, "BLOCK_ELEMS", 2**14)
        calls = []

        def hook(v, norm_sq, start):
            calls.append((start, np.median(v, axis=1)))
            return calls[-1][1]

        x = np.random.default_rng(19).standard_t(3, (4000, 3))
        assert iterate_polarization(x, num_updates=3, estimate=hook).iterations == 3
        assert [len(start) for start, _ in calls] == [3, 3, 3] * 3
        starts, values = ([np.concatenate([c[k] for c in calls[u:u + 3]]) for u in (0, 3, 6)]
                          for k in (0, 1))
        assert np.isnan(starts[0]).all()
        for before, after in zip(values, starts[1:]):
            np.testing.assert_array_equal(after, before)


def _split_cases():
    """Samples whose updates run on two threads, with the estimator to run."""
    rng = np.random.default_rng(23)
    # 7 x 7 directions of 3000 values: blocks of 25 and 24 directions, with
    # a zero column and a tiny one, whose doubled direction's squares fall
    # below 2^-256 after the normalization and are rescaled
    odd = rng.standard_t(3, (3000, 7))
    odd[:, 3] = 0.0
    odd[:, 5] = np.ldexp(odd[:, 5], -250)
    # the cov-tall shape: 400 directions of 2000 pair differences in four
    # blocks of 100
    tall = rng.standard_t(3, (4000, 20)) + np.linspace(-8.0, 8.0, 20)
    # 2000 triples: blocks of 25 and 24 directions
    grouped = rng.standard_t(3, (6000, 7))
    # the grid hook on 16 directions of 20000 pair differences: two blocks
    # of 8
    grid = np.random.default_rng(29).standard_normal((40000, 4)) + 1.0
    return {
        "odd rows": lambda: robust_gram(Sample(odd), num_updates=4),
        "cov-tall": lambda: robust_covariance(Sample(tall), q=2, num_updates=4),
        "grouped": lambda: robust_covariance(Sample(grouped), q=3, num_updates=4),
        "grid-certified": lambda: robust_covariance(
            Sample(grid), q=2, epsilon=0.05, mode="grid-certified", num_updates=2),
    }


class TestSplitBlocks:
    """With two threads, the caller and a worker thread claim the blocks of
    a large update from one queue, and the update returns the bits of one
    thread."""

    @staticmethod
    def run_both(monkeypatch, compute):
        """compute() on one thread and on two; the second run must use the
        worker.  A short switch interval makes the threads interleave finely."""
        splits = []

        def worker():
            splits.append(1)
            return pool()

        pool = gram._worker
        monkeypatch.setattr(gram, "_worker", worker)
        out = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in (1, 2):
                monkeypatch.setattr(gram, "_THREADS", threads)
                splits.clear()
                out.append(compute())
                assert bool(splits) == (threads == 2)
        finally:
            sys.setswitchinterval(interval)
        return out

    @staticmethod
    def two_thread_update():
        """Projections whose 81 directions of 2000 values (162000 >= 4
        TILE_ELEMS squares) make heavy-tailed rows, vanishing rows from a 0.0
        and a -0.0 column, rows beyond 2^+-256 from columns scaled by
        2^+-300, rows half zero, and their starts, some of them nan."""
        rng = np.random.default_rng(24)
        w = rng.standard_t(3, (2000, 9))
        w[:, 2] = 0.0
        w[:, 3] = -0.0
        w[:, 4] *= 2.0**300
        w[:, 6] *= 2.0**-300
        w[:1000, 7] = 0.0
        start = np.full(81, np.nan)
        polarization_update(w, gram._RobustScale(0.1), start)
        start[rng.random(81) < 0.5] = np.nan
        return w, start * 0.9

    def test_stream_rows_keep_their_bits(self, monkeypatch):
        w, start = self.two_thread_update()
        assert w.shape[1] ** 2 * len(w) >= 4 * mestimator.TILE_ELEMS

        def compute():
            hook, n_values = gram._RobustScale(0.1), start.copy()
            return polarization_update(w, hook, n_values), n_values, hook.levels, hook.failed

        one, two = self.run_both(monkeypatch, compute)
        np.testing.assert_array_equal(one[0], two[0])
        assert [x.hex() for x in one[1].tolist()] == [x.hex() for x in two[1].tolist()]
        # the blocks finish in no fixed order
        assert sorted(one[2]) == sorted(two[2]) and sum(one[3]) == sum(two[3]) == 0
        # the four directions within columns 2 and 3 vanish and report no level
        assert np.count_nonzero(one[1] == 0.0) == 4 and len(one[2]) == 77
        assert 20 <= np.isnan(start).sum() <= 61

    @pytest.mark.parametrize("name", list(_split_cases()))
    def test_estimates_keep_their_bits(self, monkeypatch, name):
        one, two = self.run_both(monkeypatch, _split_cases()[name])
        np.testing.assert_array_equal(one.matrix, two.matrix)
        assert one.iterations == two.iterations
        assert one.frobenius_deltas == two.frobenius_deltas
        assert one.lambda_used == two.lambda_used

    def test_one_warning_per_block(self, monkeypatch, caplog):
        # one Newton step per row leaves most rows unconverged; an update run
        # on two threads still logs one warning with its whole count
        monkeypatch.setattr(mestimator, "MAX_ITER", 1)
        blocks = []

        def hook(v, epsilon, lam_log, start):
            blocks.append(len(v))
            return default_hook(v, epsilon, lam_log, start)

        default_hook = gram._robust_scale_rows
        monkeypatch.setattr(gram, "_robust_scale_rows", hook)
        x = np.random.default_rng(25).standard_t(3, (3000, 7))

        def compute():
            blocks.clear()
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="robustgram.gram"):
                est = robust_gram(Sample(x), num_updates=2)
            return est, list(blocks), [r.getMessage() for r in caplog.records]

        (one, blocks_one, logged_one), (two, blocks_two, logged_two) = self.run_both(
            monkeypatch, compute)
        np.testing.assert_array_equal(one.matrix, two.matrix)
        # one block per update on one thread, two of 25 and 24 on two
        assert blocks_one == [49, 49]
        assert sorted(blocks_two[:2]) == sorted(blocks_two[2:]) == [24, 25]
        assert logged_one == logged_two
        assert len(logged_one) == 2 and all(m.endswith("of 49 scale solves did not converge")
                                            for m in logged_one)

    def test_custom_hooks_run_on_both_threads(self, monkeypatch):
        # 49 directions of 3000 values, enough for two threads, in blocks of
        # 5 and 4 at BLOCK_ELEMS = 2^14; each direction's start is its index.
        # Block 0 waits until block 1 has run on the other thread.
        monkeypatch.setattr(gram, "BLOCK_ELEMS", 2**14)
        later, seen = threading.Event(), []

        def hook(v, norm_sq, start):
            if start[0] == 0.0 and gram._THREADS == 2:
                assert later.wait(30.0), "block 1 did not run on the other thread"
            seen.append((threading.get_ident(), start))
            if start[0] == 5.0:
                later.set()
            return np.mean(v, axis=1)

        w = np.random.default_rng(26).standard_normal((3000, 7))

        def compute():
            later.clear()
            seen.clear()
            n_values = np.arange(49.0)
            c = polarization_update(w, hook, n_values)
            return c, n_values, {ident for ident, _ in seen}, sorted(
                (s for _, s in seen), key=lambda s: s[0])

        one, two = self.run_both(monkeypatch, compute)
        np.testing.assert_array_equal(one[0], two[0])
        np.testing.assert_array_equal(one[1], two[1])
        assert one[2] == {threading.get_ident()}
        assert len(two[2]) == 2 and threading.get_ident() in two[2]
        for _, _, _, starts in (one, two):
            assert [len(s) for s in starts] == [5] * 9 + [4]
            np.testing.assert_array_equal(np.concatenate(starts), np.arange(49.0))
        np.testing.assert_allclose(one[0], w.T @ w / 3000, rtol=1e-12)

    def test_the_first_failing_block_wins(self, monkeypatch):
        # every block fails; block 0 waits until block 1 has failed on the
        # other thread, and still raises, as one thread does, once both are
        # done.  Blocks of 4 directions; each direction's start is its index.
        monkeypatch.setattr(gram, "BLOCK_ELEMS", 4 * 3000)
        later, calls = threading.Event(), []

        def failing(v, epsilon, lam_log, start):
            block = int(start[0]) // 4
            if block == 0 and gram._THREADS == 2:
                assert later.wait(30.0), "block 1 did not run on the other thread"
            calls.append(block)
            if block == 1:
                later.set()
            raise ValueError(f"block {block}")

        monkeypatch.setattr(gram, "_robust_scale_rows", failing)
        w = np.random.default_rng(27).standard_normal((3000, 7))

        def compute():
            calls.clear()
            later.clear()
            with pytest.raises(NumericalError) as info:
                polarization_update(w, gram._RobustScale(0.1), np.arange(49.0))
            return str(info.value), list(calls)

        (one, calls_one), (two, calls_two) = self.run_both(monkeypatch, compute)
        assert one == two == "scale solve failed at entries (0, 0) to (0, 2): block 0"
        # a thread stops claiming once a block has failed
        assert calls_one == [0] and calls_two == [1, 0]

    def test_no_block_is_claimed_after_a_failure(self, monkeypatch):
        # block 1 fails while block 0 waits for the other thread to stop
        # claiming; block 0 then succeeds, and its thread claims no further
        # block either
        monkeypatch.setattr(gram, "BLOCK_ELEMS", 4 * 3000)
        stopped, calls = threading.Event(), []

        def claim(*args):
            try:
                return claim_blocks(*args)
            finally:
                stopped.set()

        def second_fails(v, epsilon, lam_log, start):
            block = int(start[0]) // 4
            if block == 0 and gram._THREADS == 2:
                assert stopped.wait(30.0), "the other thread did not stop"
            calls.append(block)
            if block == 1:
                raise ValueError("block 1")
            return np.ones(len(v)), 0

        claim_blocks = gram._claim_blocks
        monkeypatch.setattr(gram, "_claim_blocks", claim)
        monkeypatch.setattr(gram, "_robust_scale_rows", second_fails)
        w = np.random.default_rng(27).standard_normal((3000, 7))

        def compute():
            calls.clear()
            stopped.clear()
            with pytest.raises(NumericalError) as info:
                polarization_update(w, gram._RobustScale(0.1), np.arange(49.0))
            return str(info.value), list(calls)

        (one, calls_one), (two, calls_two) = self.run_both(monkeypatch, compute)
        assert one == two == "scale solve failed at entries (0, 2) to (0, 4): block 1"
        assert calls_one == [0, 1] and calls_two == [1, 0]

    def test_a_busy_worker_does_not_delay_an_update(self, monkeypatch):
        # the worker waits on an event until the update is done: the caller
        # solves both blocks alone, and the update's task, dropped before it
        # started, never runs
        w, start = self.two_thread_update()
        monkeypatch.setattr(gram, "_THREADS", 1)
        hook = gram._RobustScale(0.1)
        alone = polarization_update(w, hook, start.copy())
        monkeypatch.setattr(gram, "_THREADS", 2)
        claims, solves = [], []

        def claim(*args):
            claims.append(threading.get_ident())
            return claim_blocks(*args)

        def solve(*args):
            solves.append(threading.get_ident())
            return solve_rows(*args)

        claim_blocks, solve_rows = gram._claim_blocks, gram._robust_scale_rows
        monkeypatch.setattr(gram, "_claim_blocks", claim)
        monkeypatch.setattr(gram, "_robust_scale_rows", solve)
        gate = threading.Event()
        busy = gram._worker().submit(gate.wait, 30.0)
        try:
            other, n_values = gram._RobustScale(0.1), start.copy()
            c = polarization_update(w, other, n_values)
            assert not busy.done()
        finally:
            gate.set()
        assert busy.result(timeout=30.0)
        # every task before this one has run or was dropped
        gram._worker().submit(int).result(timeout=30.0)
        assert claims == [threading.get_ident()] and solves == [threading.get_ident()] * 2
        np.testing.assert_array_equal(c, alone)
        assert sorted(other.levels) == sorted(hook.levels)
        assert sum(other.failed) == sum(hook.failed)

    def test_one_direction_starts_no_thread(self, monkeypatch):
        # at d = 1 the update's one direction makes one block, however long
        def worker():
            raise AssertionError("a one-direction update started the worker")

        monkeypatch.setattr(gram, "_THREADS", 2)
        monkeypatch.setattr(gram, "_worker", worker)
        x = np.random.default_rng(28).standard_t(3, (4 * mestimator.TILE_ELEMS, 1))
        est = robust_gram(Sample(x))
        assert est.matrix.shape == (1, 1) and est.matrix[0, 0] > 0.0

    def test_paper_size_calls_start_no_thread(self, monkeypatch):
        # a block of the reference experiment holds 10^4 squares
        def worker():
            raise AssertionError("a paper-size block started the worker")

        monkeypatch.setattr(gram, "_THREADS", 2)
        monkeypatch.setattr(gram, "_worker", worker)
        cfg = ExperimentConfig(seed=0, trials=2, estimators=frozenset({"covariance"}))
        sample = gen_mixture(cfg, trial_rng(cfg.seed))
        robust_gram(sample)
        robust_covariance(sample, q=2)
        assert len(run_benchmark(cfg)) == 2


FORK_SCRIPT = """
import os, signal, sys, time
import numpy as np
from robustgram import gram
from robustgram.covariance import robust_covariance
from robustgram.harness import ExperimentConfig, run_benchmark
from robustgram.mestimator import Sample

gram._THREADS = 2
sample = Sample(np.random.default_rng(0).standard_t(3, (4000, 20)))
parent = robust_covariance(sample, q=2).matrix
assert gram._pool is not None, "the parent call did not split"
if sys.argv[1] == "fork":
    pid = os.fork()
    if pid == 0:
        same = np.array_equal(robust_covariance(sample, q=2).matrix, parent)
        os._exit(0 if same else 3)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            sys.exit(os.waitstatus_to_exitcode(status))
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    sys.exit("the forked child hung")
else:
    # 64 directions of 2100 values (134400 squares): each trial's updates
    # start a worker, which each forked child must make for itself
    from robustgram import harness

    def checked(config, t):
        result = trial(config, t)
        assert gram._pool_pid == os.getpid(), "the child made no worker of its own"
        return result

    trial, harness._run_trial = harness._run_trial, checked
    cfg = ExperimentConfig(n=2100, d=8, trials=2, seed=3, jobs=2)
    results = run_benchmark(cfg)
    assert len(results) == 2
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("how", ["fork", "run_benchmark"])
def test_forked_child_solves_split_blocks(how):
    # a worker thread made in the parent does not exist in a forked child;
    # the child must make its own.  The script runs in its own session, so
    # a hang is ended with everything it forked.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gram.__file__)))
    proc = subprocess.Popen([sys.executable, "-c", FORK_SCRIPT, how],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the script hung")
    assert proc.returncode == 0, err.decode()


class TestRobustGram:
    def test_oracle_fixed_point(self):
        # with the mean-of-squares scale every iterate is the empirical matrix
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(5, 51))
            d = int(rng.integers(2, 9))
            s = Sample(rng.standard_normal((n, d)))
            est = iterate_polarization(s.data, estimate=mean_of_squares)
            assert frobenius_error(est.matrix, empirical_gram(s)) <= 1e-20

    def test_oracle_identity_design_any_dimension(self):
        # sqrt(d) I rows: every quadratic value the oracle sees averages to
        # the truth, so the estimate is the identity for any d
        for d in (2, 5, 9):
            s = Sample(math.sqrt(d) * np.eye(d))
            est = iterate_polarization(s.data, estimate=mean_of_squares)
            np.testing.assert_allclose(est.matrix, np.eye(d), atol=1e-10)

    def test_identity_design_d2_exact(self):
        # n = d = 2: projected squares are constant in every needed direction,
        # so the adaptive solver also returns the identity
        s = Sample(math.sqrt(2.0) * np.eye(2))
        est = robust_gram(s, epsilon=0.1)
        np.testing.assert_allclose(est.matrix, np.eye(2), atol=1e-8)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(9)
        s = Sample(rng.standard_normal((60, 4)))
        r = random_orthogonal(4, rng)
        rotated = Sample(s.data @ r.T)
        q1 = robust_gram(rotated, epsilon=0.1).matrix
        q0 = robust_gram(s, epsilon=0.1).matrix
        target = r @ q0 @ r.T
        rel = math.sqrt(frobenius_error(q1, target) / frobenius_error(target, np.zeros_like(target)))
        assert rel <= 1e-6

    def test_scale_equivariance(self):
        rng = np.random.default_rng(10)
        s = Sample(rng.standard_normal((50, 3)))
        q0 = robust_gram(s, epsilon=0.1).matrix
        for c in (0.2, 5.0):
            qc = robust_gram(Sample(c * s.data), epsilon=0.1).matrix
            rel = math.sqrt(frobenius_error(qc, c * c * q0)) / np.linalg.norm(c * c * q0)
            assert rel <= 1e-6

    def test_diagnostics_populated(self):
        rng = np.random.default_rng(11)
        s = Sample(rng.standard_normal((40, 3)))
        est = robust_gram(s, epsilon=0.1, num_updates=4)
        assert 1 <= est.iterations <= 4
        assert len(est.frobenius_deltas) == est.iterations
        assert len(est.lambda_used) == est.iterations
        assert all(lam > 0 for lam in est.lambda_used)

    def test_symmetry_invariant(self):
        rng = np.random.default_rng(12)
        s = Sample(rng.standard_normal((40, 5)))
        q = robust_gram(s, epsilon=0.1).matrix
        assert np.max(np.abs(q - q.T)) <= 1e-12

    def test_no_eigendecomposition_after_the_last_update(self, monkeypatch):
        calls = []

        def counting(q):
            calls.append(q)
            return eigenbasis(q)

        eigenbasis = gram._descending_eigenbasis
        monkeypatch.setattr(gram, "_descending_eigenbasis", counting)
        s = Sample(np.random.default_rng(17).standard_t(3, (500, 4)))
        assert robust_gram(s, epsilon=0.1, num_updates=4).iterations == 4
        assert len(calls) == 4  # the start matrix and the first three updates

    def test_early_stop_on_tolerance(self):
        rng = np.random.default_rng(13)
        s = Sample(rng.standard_normal((30, 3)))
        est = iterate_polarization(s.data, num_updates=4, estimate=mean_of_squares)
        assert est.iterations == 1  # first delta is already ~0

    def test_custom_scale_failure_propagates(self):
        def broken(v, norm_sq, start):
            raise ValueError("boom at this pair")

        rng = np.random.default_rng(14)
        s = Sample(rng.standard_normal((10, 2)))
        with pytest.raises(NumericalError, match=r"\(0, 0\)"):
            iterate_polarization(s.data, estimate=broken)

    def test_overflow_is_numerical_error(self):
        rng = np.random.default_rng(15)
        s = Sample(1e160 * rng.standard_normal((20, 3)))
        with pytest.raises(NumericalError, match="start matrix"):
            robust_gram(s)

    def test_eigh_failure_is_numerical_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        rng = np.random.default_rng(16)
        with pytest.raises(NumericalError, match="eigendecomposition"):
            robust_gram(Sample(rng.standard_normal((20, 3))))

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            robust_gram(Sample(np.ones((1, 3))))

    @pytest.mark.parametrize("epsilon", [5.0, 1.0, 0.0, -1.0, math.nan])
    def test_epsilon_outside_unit_interval_raises(self, epsilon):
        s = Sample(np.random.default_rng(17).standard_normal((50, 3)))
        with pytest.raises(ValueError, match="epsilon"):
            robust_gram(s, epsilon=epsilon)

    def test_small_sample_falls_back_to_inverse_root_n(self):
        # 2 log(1/0.01) / 5 > 1: the adaptive level is undefined at n = 5
        est = robust_gram(Sample(np.random.default_rng(18).standard_normal((5, 2))),
                          epsilon=0.01)
        assert est.lambda_used[0] == 1.0 / math.sqrt(5)

    def test_zero_sample_reports_no_lambda(self):
        # every direction vanishes, so no level is used: no entry, not nan
        est = robust_gram(Sample(np.zeros((5, 3))))
        np.testing.assert_array_equal(est.matrix, np.zeros((3, 3)))
        assert est.lambda_used == []
        assert est.frobenius_deltas == [0.0]

    # upper triangle, row by row, of the estimate on trial 1 of the reference
    # experiment (its solves move when the Newton slope changes by one ulp);
    # computed with the one-loop solver, each update's solves started at the
    # previous update's roots, on x86-64 with numpy 2.4.6 and OpenBLAS
    # (another BLAS may round the rotations differently)
    REFERENCE_UPPER = [
        "0x1.cb0f94c0f20aep+1", "0x1.596088af74440p+0", "0x1.a948a93035974p-9",
        "0x1.7d4cd6f04de84p-1", "0x1.a90563f5c6821p-3", "-0x1.0b757f5980ebap-2",
        "-0x1.b40fb19f536f0p-3", "0x1.84ca8682b5f8dp-3", "0x1.5f2504b60c570p-3",
        "0x1.abdf638d41c42p-3", "0x1.6b88315267419p+1", "-0x1.92b38ff5abb8cp-4",
        "0x1.96435de613286p-6", "-0x1.0bde43d38dfa3p-1", "-0x1.491c79c357480p-2",
        "0x1.d6ba07962350cp-3", "0x1.0cac7e8037b4ep-2", "0x1.e67d85940feaap-3",
        "-0x1.ee0a91b4567d1p-8", "0x1.ffda527b89176p-3", "0x1.ee4ccf4b541b0p-4",
        "0x1.27a39639a7e8cp-2", "0x1.f9f3e2d0ab992p-4", "0x1.ea9c1a4326d3ap-6",
        "-0x1.bd45aa982fc29p-3", "-0x1.134f25053cfeap-4", "0x1.3575ef1d833e0p-10",
        "0x1.0dbc5c18e5375p-1", "0x1.c7a9779dcfb3cp-4", "-0x1.8ffb42ad40b11p-2",
        "-0x1.7e078a64f1b8ep-5", "-0x1.56c5d1ce56af0p-4", "0x1.4d067c0d79776p-4",
        "-0x1.26743436a77b7p-4", "0x1.18d79c46b09a3p-1", "0x1.6a64efbf74ad2p-2",
        "-0x1.a43f3064c0b9ep-6", "-0x1.1b4483c934557p-4", "-0x1.0566f5b7b6d78p-3",
        "-0x1.39455849b5fd6p-4", "0x1.821552f63822ep-1", "-0x1.f76598ac39404p-7",
        "0x1.620902fb832cep-3", "-0x1.762114dd32c26p-3", "0x1.8c65ceaec6b6ep-5",
        "0x1.0d8427eba63c1p-3", "-0x1.5c22ea6e0e19fp-3", "0x1.aaed486e349e4p-5",
        "0x1.7dea040fccf3ap-5", "0x1.e8ab6107cda0cp-2", "-0x1.ab655ea4f22f2p-5",
        "-0x1.b4de46ae53baep-3", "0x1.2e4db0fc40abdp-3", "0x1.4e4b63792f634p-5",
        "0x1.49e439661c9adp-2",
    ]

    # the same trial at one update, the paper's estimator
    REFERENCE_ONE_UPDATE_UPPER = [
        "0x1.f9259b7fa933fp+1", "0x1.b067304b99a02p+0", "0x1.5114d65064a8fp-2",
        "0x1.59f9ded28d940p-1", "0x1.f1b5d80767814p-4", "-0x1.a8870a6b53d57p-3",
        "-0x1.0c6a7f8047ea2p-7", "-0x1.c7a52432c2c2cp-3", "0x1.4e81336f19330p-2",
        "0x1.e9d7aed0b2688p-5", "0x1.5c6013aed1498p+1", "0x1.1aad8fda517b7p-6",
        "0x1.062a4ff4e0fb4p-3", "-0x1.1da1e32861274p-1", "-0x1.b7dca7880e750p-3",
        "0x1.9b0005842c0f3p-3", "0x1.4147e8945a3c2p-5", "0x1.9b62f5069c28fp-2",
        "0x1.c7ef04b2a0dfep-5", "0x1.f95a0f40e500bp-2", "0x1.19f33f2d58d91p-3",
        "0x1.e6b33c78a7daep-3", "0x1.1379a8c0e52bap-4", "0x1.90085bcd69b6cp-3",
        "-0x1.206ef79dbaa96p-2", "-0x1.19d47865624b9p-4", "0x1.10165e5151eb8p-4",
        "0x1.0dcf73caa1c79p-1", "0x1.2df843216834cp-3", "-0x1.5a6ba281a99ecp-2",
        "-0x1.7b26db09fdee8p-6", "-0x1.ca3cd52d5062cp-7", "0x1.26695c91a34cap-4",
        "-0x1.734d81c265696p-5", "0x1.08fb5770743aep-1", "0x1.4035f391bbfd0p-2",
        "-0x1.267ba7e024994p-4", "0x1.b7cea570e8d34p-4", "-0x1.a8123e3525f20p-3",
        "-0x1.6b214ffb2d156p-3", "0x1.a2b5ca5bf10c0p-1", "-0x1.66b6571568aacp-5",
        "0x1.e78ed0ac553e6p-3", "-0x1.136a35db97638p-3", "-0x1.3230060edd4e7p-3",
        "0x1.798dcfcc45d08p-3", "-0x1.df060f3af2624p-3", "0x1.f786345a14adap-5",
        "0x1.c2351e57d4fcdp-4", "0x1.53356879c021bp-1", "-0x1.47b062dfa14e3p-3",
        "-0x1.21267e7126506p-2", "0x1.1abcc24d3e066p-2", "0x1.9777852480554p-4",
        "0x1.155032d0e1be6p-2",
    ]

    @pytest.mark.parametrize("seed, last", [(0, 1.4e-9), (1511, 3.2e-10)])
    def test_stop_tol_fires_on_the_estimate_tall_mixture(self, seed, last):
        # at n = 40000 the relative change falls by one to two orders of
        # magnitude per update (1.4e-3, 7.5e-6, 3.7e-7, 2.2e-8, 1.4e-9 at
        # seed 0), so STOP_TOL ends the loop after 5 of the 10 updates asked for
        cfg = ExperimentConfig(n=40000, d=10, trials=1, seed=seed)
        est = robust_gram(gen_mixture(cfg, trial_rng(seed)), epsilon=0.1, num_updates=10)
        assert est.iterations == 5
        assert est.frobenius_deltas[-1] <= STOP_TOL < est.frobenius_deltas[-2]
        assert est.frobenius_deltas[-1] == pytest.approx(last, rel=0.05)

    def test_bitwise_reference_matrix(self):
        cfg = ExperimentConfig(seed=0)
        sample = gen_mixture(cfg, trial_rng(cfg.seed, 1))
        for num_updates, upper in ((cfg.num_updates, self.REFERENCE_UPPER),
                                   (1, self.REFERENCE_ONE_UPDATE_UPPER)):
            q = robust_gram(sample, epsilon=cfg.epsilon, num_updates=num_updates).matrix
            np.testing.assert_array_equal(q, q.T)
            assert [float(x).hex() for x in q[np.triu_indices(cfg.d)]] == upper

    def test_reference_trials_take_no_bisection_step(self, monkeypatch):
        # Newton on 1/S from the row mean stays inside its bracket on the
        # reference experiment; the former Newton in S bisected most rows
        results = []

        def solve(v, lam, start=None, **private):
            results.append(scale_from_squares(v, lam, start, **private))
            return results[-1]

        monkeypatch.setattr(gram, "scale_from_squares", solve)
        cfg = ExperimentConfig(seed=0)
        for t in range(4):
            robust_gram(gen_mixture(cfg, trial_rng(cfg.seed, t)), epsilon=cfg.epsilon,
                        num_updates=cfg.num_updates)
        # 4 trials x 4 updates, each one block with the 100 directions of d = 10
        assert [len(r.value) for r in results] == [100] * 16
        for r in results:
            assert r.row_converged.all() and not r.bisection.any()

    def test_huge_outlier_leaves_the_bulk_resolved(self):
        # 1e160 * x overflowed the start matrix; after the power-of-two
        # normalization the bulk's squares stay normal, rows in which
        # lam v / S overflows for the outlier still take Newton steps, and
        # the distance between the tiny normalized iterates does not
        # underflow to 0 and end the loop early
        x = np.random.default_rng(1).standard_normal((200, 3))
        x[0] *= 1e50
        ref = robust_gram(Sample(x), num_updates=4).matrix
        x[0] *= 1e110
        est = robust_gram(Sample(x), num_updates=4)
        assert est.iterations == 4
        np.testing.assert_allclose(est.matrix, ref, rtol=1e-6, atol=1e-6)
        # the distance to the overflowing mean matrix is beyond float64; the
        # relative deltas are not
        assert np.all(np.isfinite(est.frobenius_deltas))

    def test_small_scale_runs_every_update(self):
        # at 2^-20 the first Frobenius delta is about 1e-13, below an absolute
        # stop_tol of 1e-8: the loop stopped after one update, 25% off
        cfg = ExperimentConfig(seed=0)
        x = gen_mixture(cfg, trial_rng(cfg.seed, 1)).data
        base = robust_gram(Sample(x), epsilon=cfg.epsilon, num_updates=cfg.num_updates)
        small = robust_gram(Sample(np.ldexp(x, -20)), epsilon=cfg.epsilon,
                            num_updates=cfg.num_updates)
        assert small.iterations == base.iterations == 4
        np.testing.assert_array_equal(small.matrix, np.ldexp(base.matrix, -40))
        assert small.frobenius_deltas == base.frobenius_deltas


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), k=st.integers(-500, 500))
@example(seed=0, k=-20)
@example(seed=1, k=500)
@example(seed=2, k=-500)
def test_robust_gram_scales_exactly(seed, k):
    x = np.random.default_rng(seed).standard_t(3, (40, 3))
    assert_scales_by_powers_of_four(lambda y: robust_gram(Sample(y), epsilon=0.1).matrix, x, k)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_norm_exponent_takes_max_abs_without_a_temporary(sign):
    # the exponent of max |x|, whether the largest |entry| is positive or
    # negative, on 0, subnormal and huge entries, from passes that allocate
    # no array of the sample's size
    x = np.random.default_rng(7).standard_t(3, (40000, 10))
    x[123, 4] = sign * 1e6
    for y in (x, np.zeros((3, 2)), np.ldexp(x, -1070), np.ldexp(x, 1000), -np.abs(x)):
        assert gram._norm_exponent(y) == int(np.frexp(np.max(np.abs(y)))[1]) - gram.NORM_EXPONENT
    tracemalloc.start()
    try:
        gram._norm_exponent(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 100


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=degenerate_lattice_samples())
def test_degenerate_samples_give_symmetric_finite_estimates(case):
    # duplicate rows, zero columns, n = 2 and d > n
    x, zero = case
    assert_symmetric_finite_zero_columns(robust_gram(Sample(x), epsilon=0.1).matrix, zero)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), n=st.integers(20, 80), d=st.integers(2, 6))
def test_robust_gram_is_rotation_equivariant(seed, n, d):
    # continuous data: tied eigenvalues of lattice data leave the eigenbasis,
    # and with it the iteration, undetermined
    rng = np.random.default_rng(seed)
    x = rng.standard_t(3, (n, d))
    assert_rotation_equivariant(lambda y: robust_gram(Sample(y), epsilon=0.1).matrix, x, rng)
