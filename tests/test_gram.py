import math

import numpy as np
import pytest

from robustgram.gram import (
    NumericalError,
    empirical_gram,
    frobenius_error,
    polarization_update,
    polarize,
    positive_part,
    robust_gram,
    robust_scale_fn,
)
from robustgram.harness import ExperimentConfig, gen_mixture, trial_rng
from robustgram.mestimator import Sample


def mean_of_squares(p, eps):
    return float(np.mean(np.asarray(p) ** 2))


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


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
        c = polarization_update(w, mean_of_squares, 0.1)
        np.testing.assert_allclose(c, w.T @ w / 40, atol=1e-12)

    def test_zero_column_zero_row(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((30, 4))
        w[:, 2] = 0.0
        c = polarization_update(w, robust_scale_fn, 0.1)
        np.testing.assert_allclose(c[2, :], 0.0, atol=1e-12)
        np.testing.assert_allclose(c[:, 2], 0.0, atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((25, 5))
        c = polarization_update(w, robust_scale_fn, 0.1)
        np.testing.assert_array_equal(c, c.T)


def _projection_cases():
    rng = np.random.default_rng(17)
    zero = rng.standard_t(3, size=(200, 5))
    zero[:, 3] = 0.0
    return {
        "paper size": rng.standard_t(3, size=(100, 10)),
        # 36 directions of 3000 projections: 5 to a block at BLOCK_ELEMS = 2^14
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
        blocked = polarization_update(w, None, 0.1, lam_log=blocked_lams)
        single = polarization_update(
            w, lambda p, eps: robust_scale_fn(p, eps, lam_log=single_lams), 0.1)
        np.testing.assert_array_equal(blocked, single)
        assert blocked_lams == single_lams

    def test_estimator_sees_blocks_and_norms(self):
        rng = np.random.default_rng(18)
        w = rng.standard_normal((4000, 3))
        shapes, norms = [], []

        def estimate(p, norm_sq):
            shapes.append(p.shape)
            norms.extend(norm_sq.tolist())
            return np.mean(p * p, axis=1)

        c = polarize(w, estimate)
        assert shapes == [(4, 4000), (4, 4000), (1, 4000)]
        assert norms == [4.0, 2.0, 2.0, 2.0, 2.0, 4.0, 2.0, 2.0, 4.0]
        np.testing.assert_allclose(c, w.T @ w / 4000, rtol=1e-12)


class TestRobustGram:
    def test_oracle_fixed_point(self):
        # with the mean-of-squares scale every iterate is the empirical matrix
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(5, 51))
            d = int(rng.integers(2, 9))
            s = Sample(rng.standard_normal((n, d)))
            est = robust_gram(s, scale_fn=mean_of_squares)
            assert frobenius_error(est.matrix, empirical_gram(s)) <= 1e-20

    def test_oracle_identity_design_any_dimension(self):
        # sqrt(d) I rows: every quadratic value the oracle sees averages to
        # the truth, so the estimate is the identity for any d
        for d in (2, 5, 9):
            s = Sample(math.sqrt(d) * np.eye(d))
            est = robust_gram(s, scale_fn=mean_of_squares)
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

    def test_early_stop_on_tolerance(self):
        rng = np.random.default_rng(13)
        s = Sample(rng.standard_normal((30, 3)))
        est = robust_gram(s, scale_fn=mean_of_squares, num_updates=4)
        assert est.iterations == 1  # first delta is already ~0

    def test_custom_scale_failure_propagates(self):
        def broken(p, eps):
            raise ValueError("boom at this pair")

        rng = np.random.default_rng(14)
        s = Sample(rng.standard_normal((10, 2)))
        with pytest.raises(NumericalError, match=r"\(0, 0\)"):
            robust_gram(s, scale_fn=broken)

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

    # upper triangle, row by row, of the estimate on trial 1 of the reference
    # experiment (its solves move when the Newton slope changes by one ulp);
    # computed with the saturation-branch kernel on x86-64 with numpy 2.4.6
    # and OpenBLAS (another BLAS may round the rotations differently)
    REFERENCE_UPPER = [
        "0x1.cb0f94c0acf04p+1", "0x1.596088aff70e2p+0", "0x1.a948a97603c74p-9",
        "0x1.7d4cd6f1486e8p-1", "0x1.a90563f5cea54p-3", "-0x1.0b757f576f4d2p-2",
        "-0x1.b40fb1a0ce8e0p-3", "0x1.84ca868084ae8p-3", "0x1.5f2504b7f91aap-3",
        "0x1.abdf6391aa688p-3", "0x1.6b8831523ef4dp+1", "-0x1.92b38ffcf3f1ep-4",
        "0x1.96435dba287f8p-6", "-0x1.0bde43d2f0c08p-1", "-0x1.491c79c4f82f6p-2",
        "0x1.d6ba079875140p-3", "0x1.0cac7e8067052p-2", "0x1.e67d8590ba6a9p-3",
        "-0x1.ee0a91ed8df35p-8", "0x1.ffda527d1c80ap-3", "0x1.ee4ccf4fc5fd8p-4",
        "0x1.27a39636e2cd5p-2", "0x1.f9f3e2c859e86p-4", "0x1.ea9c1a446472dp-6",
        "-0x1.bd45aa9c0b8f4p-3", "-0x1.134f24ff1aa68p-4", "0x1.3575ecf2e4b56p-10",
        "0x1.0dbc5c19a4deap-1", "0x1.c7a9779f9649ep-4", "-0x1.8ffb42aeef3c0p-2",
        "-0x1.7e078a6193524p-5", "-0x1.56c5d1c4e86e4p-4", "0x1.4d067c10e2c26p-4",
        "-0x1.267434466afb0p-4", "0x1.18d79c48090b2p-1", "0x1.6a64efbff3dddp-2",
        "-0x1.a43f304d6afdep-6", "-0x1.1b4483c5f7b52p-4", "-0x1.0566f5b588d8ep-3",
        "-0x1.39455853494a2p-4", "0x1.821552f546f4ep-1", "-0x1.f76598c64941ap-7",
        "0x1.620902fa89e1ep-3", "-0x1.762114e2e9961p-3", "0x1.8c65ceaf4fa57p-5",
        "0x1.0d8427ea9cda0p-3", "-0x1.5c22ea6b05b24p-3", "0x1.aaed486618ea9p-5",
        "0x1.7dea03ff8a89cp-5", "0x1.e8ab610ab4fb8p-2", "-0x1.ab655e9150461p-5",
        "-0x1.b4de46b54933cp-3", "0x1.2e4db0f8f4d72p-3", "0x1.4e4b6371a04a4p-5",
        "0x1.49e4396cc1c5ep-2",
    ]

    def test_bitwise_reference_matrix(self):
        cfg = ExperimentConfig(seed=0)
        q = robust_gram(gen_mixture(cfg, trial_rng(cfg.seed, 1)), epsilon=cfg.epsilon,
                        num_updates=cfg.num_updates).matrix
        np.testing.assert_array_equal(q, q.T)
        assert [float(x).hex() for x in q[np.triu_indices(cfg.d)]] == self.REFERENCE_UPPER
