import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustgram import bounds
from robustgram.bounds import block_moment_bounds, tau_q
from robustgram.covariance import _pair_differences, robust_covariance
from robustgram.gram import NumericalError, frobenius_error, robust_gram
from robustgram.influence import psi
from robustgram.mestimator import Sample, r_lambda

from oracles import (
    assert_rotation_equivariant,
    assert_scales_by_powers_of_four,
    assert_symmetric_finite_zero_columns,
    block_matrices,
    degenerate_lattice_samples,
    pairwise_block_covariance,
)


def lattice_sample(rng, n, d, scale=4.0):
    """Data on a dyadic lattice so that integer shifts add exactly."""
    return np.round(scale * rng.standard_normal((n, d)) * 1024.0) / 1024.0


def quadratic_values(vectors, theta):
    """theta^T A_i theta of each block: the group sum of squared projections."""
    return np.sum((vectors @ theta) ** 2, axis=1)


def block_criterion(vectors, theta, lam):
    """Block criterion (1/m) sum psi(theta^T A_i theta - lambda)."""
    return float(np.mean(psi(quadratic_values(vectors, theta) - lam)))


class TestMakeBlocks:
    # the q-blocks as the estimator sees them: generating vectors G_i, A_i = G_i^T G_i
    def test_q2_rank_one(self):
        rng = np.random.default_rng(0)
        s = Sample(rng.standard_normal((10, 3)))
        blocks = block_matrices(_pair_differences(s, 2))
        assert len(blocks) == 5
        for i in range(5):
            diff = s.data[2 * i] - s.data[2 * i + 1]
            np.testing.assert_allclose(blocks[i], 0.5 * np.outer(diff, diff), atol=1e-14)
            assert np.linalg.matrix_rank(blocks[i]) <= 1

    def test_matches_pairwise_bruteforce(self):
        rng = np.random.default_rng(1)
        s = Sample(rng.standard_normal((21, 4)))
        for q in (2, 3, 5, 7):
            blocks = block_matrices(_pair_differences(s, q))
            for i in range(len(blocks)):
                ref = pairwise_block_covariance(s.data[i * q:(i + 1) * q], q)
                np.testing.assert_allclose(blocks[i], ref, atol=1e-12)

    def test_identical_observations_give_zero(self):
        s = Sample(np.tile(np.array([1.0, -2.0]), (4, 1)))
        np.testing.assert_allclose(_pair_differences(s, 2), 0.0, atol=0.0)

    def test_blocks_psd(self):
        rng = np.random.default_rng(2)
        s = Sample(rng.standard_normal((30, 5)))
        for a in block_matrices(_pair_differences(s, 3)):
            assert np.linalg.eigvalsh(a).min() >= -1e-10

    def test_remainder_discarded(self):
        rng = np.random.default_rng(3)
        s = Sample(rng.standard_normal((11, 2)))
        assert len(_pair_differences(s, 3)) == 3

    def test_unbiasedness_monte_carlo(self):
        # mean of theta^T A theta approaches theta^T Sigma theta
        rng = np.random.default_rng(4)
        sigma = np.diag([2.0, 0.5, 1.0])
        n = 6000
        x = rng.standard_normal((n, 3)) * np.sqrt(np.diag(sigma)) + np.array([5.0, -1.0, 0.3])
        theta = np.array([0.6, -0.8, 0.2])
        v = quadratic_values(_pair_differences(Sample(x), 2), theta)
        target = theta @ sigma @ theta
        se = v.std(ddof=1) / math.sqrt(len(v))
        assert abs(v.mean() - target) <= 3.0 * se

    def test_validation(self):
        s = Sample(np.ones((4, 2)))
        with pytest.raises(ValueError):
            _pair_differences(s, 1)
        with pytest.raises(ValueError):
            _pair_differences(Sample(np.ones((1, 2))), 2)


class TestPairDifferences:
    def test_integer_shift_is_bitwise_invisible(self):
        rng = np.random.default_rng(16)
        base = lattice_sample(rng, 35, 4)
        shift = np.array([17.0, -5.0, 9.0, -1024.0])
        for q in (2, 3, 5):
            np.testing.assert_array_equal(_pair_differences(Sample(base + shift), q),
                                          _pair_differences(Sample(base), q))

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_group_sums_match_pairwise_bruteforce(self, q):
        rng = np.random.default_rng(17)
        s = Sample(rng.standard_normal((4 * q, 3)) + 2.0)
        theta = rng.standard_normal(3)
        got = quadratic_values(_pair_differences(s, q), theta)
        ref = [theta @ pairwise_block_covariance(s.data[i * q:(i + 1) * q], q) @ theta
               for i in range(4)]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_remainder_is_logged(self, caplog):
        s = Sample(np.random.default_rng(18).standard_normal((11, 2)))
        with caplog.at_level(logging.WARNING, logger="robustgram.covariance"):
            _pair_differences(s, 3)
        assert "discarding 2 trailing observations" in caplog.text


class TestRLambdaSym:
    # the paper's block criterion, evaluated on the generating vectors
    def test_all_zero_blocks(self):
        vectors = _pair_differences(Sample(np.ones((8, 2))), 2)
        lam = 0.6
        assert block_criterion(vectors, np.array([1.0, 0.0]), lam) == pytest.approx(-psi(lam))

    def test_rank_one_reduces_to_gram_criterion(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 3))
        theta = rng.standard_normal(3)
        assert block_criterion(x[:, None, :], theta, 0.4) == pytest.approx(
            r_lambda(Sample(x), theta, 0.4), abs=1e-14)

    def test_single_block_at_root(self):
        # A = diag(0.5625, 0.0625) from exactly representable generating vectors
        vectors = np.array([[[0.75, 0.0], [0.0, 0.25]]])
        assert block_criterion(vectors, np.array([1.0, 0.0]), 0.5625) == 0.0

    def test_q2_reduction_to_difference_vectors(self):
        # block criterion == Gram criterion on (x_{2i-1} - x_{2i}) / sqrt(2)
        rng = np.random.default_rng(6)
        s = Sample(rng.standard_normal((12, 3)))
        vectors = _pair_differences(s, 2)
        diffs = (s.data[0::2] - s.data[1::2]) / math.sqrt(2.0)
        theta = rng.standard_normal(3)
        for lam in (0.1, 0.5):
            assert block_criterion(vectors, theta, lam) == pytest.approx(
                r_lambda(Sample(diffs), theta, lam), abs=1e-14)


class TestBlockMomentBounds:
    def test_q2_identity_sigma(self):
        for d in (3, 10):
            c1, c2 = block_moment_bounds(np.eye(d), 3.0, 2)
            assert c1 == pytest.approx(1.0 + 2.0 * d)
            assert c2 == pytest.approx(d + 2.0 * d * d)

    def test_general_q_formula(self):
        sigma = np.diag([2.0, 1.0])
        kappa, q = 3.0, 5
        c1, c2 = block_moment_bounds(sigma, kappa, q)
        w = 1.0 - (q - 2) / (q * (q - 1))
        coef = kappa + 1.0 / (q - 1)
        assert c1 == pytest.approx(w * 2.0 + coef * 3.0 / q)
        assert c2 == pytest.approx(w * 5.0 + coef * 9.0 / q)

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            block_moment_bounds(np.eye(2), 3.0, 1)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_monte_carlo_domination(self, q):
        # sampled E||A theta||^2 and E Tr(A^2) stay below the bounds (3 SE slack)
        rng = np.random.default_rng(100 + q)
        d = 3
        sigma = np.diag([1.5, 1.0, 0.5])
        n = 3000 * q
        x = rng.standard_normal((n, d)) @ np.sqrt(np.diag(np.diag(sigma)))
        blocks = block_matrices(_pair_differences(Sample(x), q))
        theta = np.array([0.5, -0.5, 1.0])
        n_theta = theta @ sigma @ theta
        bound1, bound2 = block_moment_bounds(sigma, 3.0, q)

        a_theta_sq = np.einsum("mij,j->mi", blocks, theta)
        a_theta_sq = np.sum(a_theta_sq * a_theta_sq, axis=1)
        se1 = a_theta_sq.std(ddof=1) / math.sqrt(len(blocks))
        assert a_theta_sq.mean() <= bound1 * n_theta + 3.0 * se1

        tr_a2 = np.einsum("mij,mij->m", blocks, blocks)
        se2 = tr_a2.std(ddof=1) / math.sqrt(len(blocks))
        assert tr_a2.mean() <= bound2 + 3.0 * se2

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_block_kurtosis_transfer(self, q):
        # empirical kurtosis of theta^T A theta <= 1 + tau_q(kappa)/q + 3 SE
        rng = np.random.default_rng(200 + q)
        d = 3
        n = 4000 * q
        x = rng.standard_normal((n, d))
        vectors = _pair_differences(Sample(x), q)
        cap = 1.0 + tau_q(3.0, q) / q
        for seed in range(5):
            theta = np.random.default_rng(seed).standard_normal(d)
            v = quadratic_values(vectors, theta)
            a, b = float(np.mean(v * v)), float(np.mean(v))
            ratio = a / (b * b)
            # delta-method standard error of the ratio
            infl = (v * v - a) / (b * b) - 2.0 * a * (v - b) / (b**3)
            se = infl.std(ddof=1) / math.sqrt(len(v))
            assert ratio <= cap + 3.0 * se


class TestRobustCovariance:
    def test_translation_invariance_exact(self):
        rng = np.random.default_rng(7)
        base = lattice_sample(rng, 40, 3)
        shift = np.array([17.0, -5.0, 9.0])
        q1 = robust_covariance(Sample(base), q=2, epsilon=0.1).matrix
        q2 = robust_covariance(Sample(base + shift), q=2, epsilon=0.1).matrix
        np.testing.assert_array_equal(q1, q2)

    def test_q_equals_n_collapses_to_empirical(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((8, 3))
        est = robust_covariance(Sample(x), q=8, epsilon=0.1, num_updates=2)
        centered = x - x.mean(axis=0)
        emp = centered.T @ centered / (8 - 1)
        np.testing.assert_allclose(est.matrix, emp, atol=1e-8)

    def test_gaussian_comparable_to_empirical(self):
        sigma = np.diag([2.0, 1.0, 0.5, 0.5, 0.5])
        errs_rob, errs_emp = [], []
        for seed in range(8):
            r = np.random.default_rng(1000 + seed)
            x = r.standard_normal((2000, 5)) @ np.sqrt(np.diag(np.diag(sigma))) + 3.0
            est = robust_covariance(Sample(x), q=2, epsilon=0.1)
            centered = x - x.mean(axis=0)
            emp = centered.T @ centered / (x.shape[0] - 1)
            errs_rob.append(frobenius_error(est.matrix, sigma))
            errs_emp.append(frobenius_error(emp, sigma))
        # light tails: same order of magnitude, robust within 3x of empirical
        assert np.median(errs_rob) <= 3.0 * np.median(errs_emp)

    def test_contaminated_beats_empirical_covariance(self):
        # mean-shifted version of the benchmark mixture: mean unknown
        wins = 0
        trials = 10
        for seed in range(trials):
            rng = np.random.default_rng(3000 + seed)
            n, d = 100, 10
            m1 = 0.01 * np.eye(d)
            m1[:2, :2] = [[2.0, 1.0], [1.0, 1.0]]
            z = rng.standard_normal((n, d))
            wild = rng.random(n) < 0.05
            x = np.where(wild[:, None], 4.0 * z, z @ np.linalg.cholesky(m1).T)
            x = x + np.array([10.0] * d)  # unknown mean
            sigma_true = 0.95 * m1 + 0.05 * 16.0 * np.eye(d)
            est = robust_covariance(Sample(x), q=2, epsilon=0.1)
            centered = x - x.mean(axis=0)
            emp = centered.T @ centered / (n - 1)
            if frobenius_error(est.matrix, sigma_true) < frobenius_error(emp, sigma_true):
                wins += 1
        assert wins > trials / 2

    def test_psd_flag(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((60, 4))
        est = robust_covariance(Sample(x), q=2, epsilon=0.1, psd=True)
        assert np.linalg.eigvalsh(est.matrix).min() >= -1e-10

    def test_grid_certified_mode_runs(self):
        rng = np.random.default_rng(11)
        n, d = 14000, 3
        x = rng.standard_normal((n, d)) + 1.0
        est = robust_covariance(Sample(x), q=2, epsilon=0.05, mode="grid-certified",
                                num_updates=2)
        assert frobenius_error(est.matrix, np.eye(d)) <= 0.5

    # upper triangles, row by row, of grid-certified mode on the input of
    # test_grid_certified_mode_runs and of the default mode at q = 3, at 4
    # updates and at the default one; computed
    # on x86-64 with numpy 2.4.6 and OpenBLAS (another BLAS may round the
    # rotations differently)
    GRID_CERTIFIED_UPPER = [
        "0x1.fb9230c15b3a4p-1", "0x1.ef8bc4dee0f62p-6", "-0x1.9909105bcfdcbp-7",
        "0x1.0200ee899a7e7p+0", "-0x1.876a1c3665c1ap-7", "0x1.fff9ea412bf44p-1",
    ]
    FOUR_UPDATES_Q3_UPPER = [
        "0x1.4e673b6f5d003p+1", "0x1.f44fac76927acp-4", "-0x1.a8e5699a75ca4p-5",
        "0x1.52aaf4fc6e0d8p-8", "0x1.6a9837b7b54a3p+1", "-0x1.edaf53660760bp-3",
        "-0x1.88320a81c8b60p-4", "0x1.4f9a5126e64c6p+1", "-0x1.d0f1928d1bc1cp-3",
        "0x1.015d314bc82e4p+1",
    ]
    ONE_UPDATE_Q3_UPPER = [
        "0x1.482bd14dd5fb1p+1", "0x1.2b6791fb81b08p-3", "-0x1.82ec8804fca3fp-5",
        "0x1.4d0b706a304c0p-7", "0x1.61f39bfa745f2p+1", "-0x1.0d996951d009bp-2",
        "-0x1.ceebc48ca0036p-4", "0x1.4322295f2ae2bp+1", "-0x1.7d12a6bd4260bp-3",
        "0x1.fe654706a76bep+0",
    ]

    def test_bitwise_reference_grid_certified(self):
        x = np.random.default_rng(11).standard_normal((14000, 3)) + 1.0
        q = robust_covariance(Sample(x), q=2, epsilon=0.05, mode="grid-certified",
                              num_updates=2).matrix
        np.testing.assert_array_equal(q, q.T)
        assert [float(v).hex() for v in q[np.triu_indices(3)]] == self.GRID_CERTIFIED_UPPER

    def test_bitwise_reference_default_q3(self):
        x = np.random.default_rng(21).standard_t(3, size=(300, 4)) + 2.0
        for kwargs, upper in (({}, self.ONE_UPDATE_Q3_UPPER),
                              ({"num_updates": 4}, self.FOUR_UPDATES_Q3_UPPER)):
            q = robust_covariance(Sample(x), q=3, epsilon=0.1, **kwargs).matrix
            np.testing.assert_array_equal(q, q.T)
            assert [float(v).hex() for v in q[np.triu_indices(4)]] == upper

    def test_grid_certified_solves_a_block_once_per_level(self, monkeypatch):
        # each grid level of a block is one solve of its rows, with the bits
        # of a solve per row
        calls = []

        def counting(v, lam, **kw):
            calls.append((len(v), *np.unique(lam).tolist()))
            return solve(v, lam, **kw)

        def per_row(v, norm_sq, grid, coeffs, sigma):
            return [select_rows(r[None], [ns], grid, coeffs, sigma)[0]
                    for r, ns in zip(v, norm_sq)]

        solve, select_rows = bounds.scale_from_squares, bounds.select_from_square_rows
        x = np.random.default_rng(11).standard_normal((14000, 3)) + 1.0
        monkeypatch.setattr(bounds, "scale_from_squares", counting)
        monkeypatch.setattr("robustgram.gram.BLOCK_ELEMS", 2**14)
        blocked = robust_covariance(Sample(x), q=2, epsilon=0.05, mode="grid-certified",
                                    num_updates=2)
        # 7000 blocks of one vector: 2 of the 9 directions per block of rows
        # at BLOCK_ELEMS = 2^14
        assert blocked.iterations == 2
        levels = sorted({lam for _, lam in calls})
        assert calls == [(rows, lam) for rows in (2, 2, 2, 2, 1) for lam in levels] * 2
        monkeypatch.setattr(bounds, "select_from_square_rows", per_row)
        single = robust_covariance(Sample(x), q=2, epsilon=0.05, mode="grid-certified",
                                   num_updates=2)
        np.testing.assert_array_equal(blocked.matrix, single.matrix)
        assert len(calls) == (10 + 18) * len(levels)

    def test_grid_certified_makes_no_second_sample(self, monkeypatch):
        # kappa of the difference vectors is taken on their view: a Sample of
        # them copied every difference once more
        made, init = [], Sample.__post_init__

        def spy(self):
            made.append(np.shape(self.data))
            init(self)

        sample = Sample(np.random.default_rng(11).standard_normal((14000, 3)) + 1.0)
        monkeypatch.setattr(Sample, "__post_init__", spy)
        robust_covariance(sample, q=2, epsilon=0.05, mode="grid-certified")
        assert made == []

    def test_q2_equals_gram_on_scaled_differences(self):
        # one code path: q = 2 is the Gram estimator on (x_{2i} - x_{2i+1}) / sqrt(2)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((120, 4))
        x[rng.random(120) < 0.05] *= 4.0
        for num_updates in (1, 4):
            cov = robust_covariance(Sample(x), q=2, epsilon=0.1, num_updates=num_updates)
            gram = robust_gram(Sample((x[0::2] - x[1::2]) / math.sqrt(2.0)), epsilon=0.1,
                               num_updates=num_updates)
            np.testing.assert_array_equal(cov.matrix, gram.matrix)
            assert cov.frobenius_deltas == gram.frobenius_deltas

    def test_diagnostics_populated(self):
        rng = np.random.default_rng(14)
        for q in (2, 3):
            est = robust_covariance(Sample(rng.standard_normal((90, 3))), q=q, num_updates=4)
            assert 1 <= est.iterations <= 4
            assert len(est.frobenius_deltas) == est.iterations
            assert len(est.lambda_used) == est.iterations
            assert all(lam > 0 for lam in est.lambda_used)

    def test_overflow_is_numerical_error(self):
        rng = np.random.default_rng(15)
        with pytest.raises(NumericalError, match="start matrix"):
            robust_covariance(Sample(1e160 * rng.standard_normal((20, 3))), q=2)

    @staticmethod
    def _assert_grid_certified_scales(k, q):
        # the moments, the grid and the threshold are those of the scaled
        # difference vectors, and no RuntimeWarning is issued
        x = np.random.default_rng(16).standard_normal((20000, 3))
        unit = robust_covariance(Sample(x), q=q, epsilon=0.05, mode="grid-certified")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = robust_covariance(Sample(np.ldexp(x, k)), q=q, epsilon=0.05,
                                    mode="grid-certified")
        np.testing.assert_array_equal(est.matrix, np.ldexp(unit.matrix, 2 * k))
        assert est.frobenius_deltas == unit.frobenius_deltas

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("k", [256, 300])
    def test_grid_certified_scales_past_moment_overflow(self, k, q):
        # formed in original units, the fourth moment of the blocks
        # overflowed, a NumericalError
        self._assert_grid_certified_scales(k, q)

    @pytest.mark.parametrize("q", [2, 3])
    def test_grid_certified_scales_past_moment_underflow(self, q):
        # formed in original units, the fourth moment of the blocks
        # underflowed to 0, though the data are not 0, a NumericalError
        self._assert_grid_certified_scales(-300, q)

    @pytest.mark.parametrize("shift", [0.0, 2.5])
    def test_grid_certified_vanishing_blocks_give_zero(self, shift):
        # no non-zero difference, so no moment bounds: the zero matrix, as in
        # the practical mode, where MomentBounds raised "s4 and trace_g must
        # be positive"
        s = Sample(np.full((14004, 3), shift))
        est = robust_covariance(s, q=2, epsilon=0.05, mode="grid-certified", num_updates=2)
        practical = robust_covariance(s, q=2, epsilon=0.05, num_updates=2)
        np.testing.assert_array_equal(est.matrix, np.zeros((3, 3)))
        assert (est.iterations, est.frobenius_deltas, est.lambda_used) == (1, [0.0], [])
        np.testing.assert_array_equal(practical.matrix, est.matrix)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            robust_covariance(Sample(np.ones((4, 2))), mode="bogus")

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        est = robust_covariance(Sample(rng.standard_normal((50, 4))), q=2)
        assert np.max(np.abs(est.matrix - est.matrix.T)) <= 1e-12

    @pytest.mark.parametrize("mode", ["iterative-practical", "grid-certified"])
    @pytest.mark.parametrize("epsilon", [5.0, 0.0, -1.0])
    def test_epsilon_outside_unit_interval_raises(self, mode, epsilon):
        s = Sample(np.random.default_rng(19).standard_normal((60, 3)))
        with pytest.raises(ValueError, match="epsilon"):
            robust_covariance(s, q=2, epsilon=epsilon, mode=mode)


# the invariances hold at the default, one update, and at four, whose
# later updates start their solves warm in the eigenbasis of a robust iterate
UPDATE_COUNTS = (1, 4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), k=st.integers(-500, 500))
@example(seed=0, k=-20)
@example(seed=1, k=500)
@example(seed=2, k=-500)
def test_robust_covariance_scales_exactly(seed, k):
    x = np.random.default_rng(seed).standard_t(3, (80, 3))
    for num_updates in UPDATE_COUNTS:
        assert_scales_by_powers_of_four(lambda y: robust_covariance(
            Sample(y), q=2, epsilon=0.1, num_updates=num_updates).matrix, x, k)


# A sample of 24000 rows gives enough q-blocks for the theoretical grid,
# for q = 2 and q = 3.
GRID_SAMPLE = np.random.default_rng(17).standard_t(5, (24000, 3))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(k=st.integers(-500, 500), q=st.sampled_from([2, 3]))
@example(k=-500, q=2)
@example(k=300, q=3)
@example(k=500, q=2)
def test_grid_certified_covariance_scales_exactly(k, q):
    assert_scales_by_powers_of_four(lambda y: robust_covariance(
        Sample(y), q=q, epsilon=0.05, mode="grid-certified").matrix, GRID_SAMPLE, k)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), n=st.integers(20, 80), d=st.integers(2, 6))
def test_robust_covariance_is_rotation_equivariant(seed, n, d):
    # continuous data, as for robust_gram: the eigenbasis must be unique
    rng = np.random.default_rng(seed)
    x = rng.standard_t(3, (n, d))
    for num_updates in UPDATE_COUNTS:
        assert_rotation_equivariant(lambda y: robust_covariance(
            Sample(y), q=2, epsilon=0.1, num_updates=num_updates).matrix, x, rng)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=degenerate_lattice_samples(), shift=st.lists(st.integers(-16, 16), min_size=8,
                                                         max_size=8))
def test_degenerate_samples_give_symmetric_finite_estimates(case, shift):
    # duplicate rows, zero columns, n = 2 and d > n; an integer shift of
    # lattice data is exact, so the estimate must not move by a bit
    x, zero = case
    shifted = x + np.array(shift[: x.shape[1]], dtype=float)
    for num_updates in UPDATE_COUNTS:
        q = robust_covariance(Sample(x), q=2, epsilon=0.1, num_updates=num_updates).matrix
        assert_symmetric_finite_zero_columns(q, zero)
        np.testing.assert_array_equal(robust_covariance(
            Sample(shifted), q=2, epsilon=0.1, num_updates=num_updates).matrix, q)
