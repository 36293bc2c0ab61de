import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import robustgram.mestimator as mestimator
from robustgram import gram
from robustgram.bounds import Grid, MomentBounds, coeffs_for_grid, select_from_squares
from robustgram.harness import ExperimentConfig, gen_mixture, trial_rng
from robustgram.influence import psi, psi_prime
from robustgram.mestimator import (
    Sample,
    alpha_hat,
    lambda_from_square_rows,
    r_lambda,
    scale_from_squares,
    tilde_n,
)

from oracles import bisect_alpha, bisect_scale, gridscan_scale, scale_criterion


def one_direction_sample(values):
    """n x 1 sample whose projections on theta = (1,) are the given values."""
    return Sample(np.asarray(values, dtype=float).reshape(-1, 1))


def solve_row(v, lam):
    """The row solver on the squared values v of one direction, as a one-row matrix."""
    return scale_from_squares(np.asarray(v, dtype=float)[None], np.array([lam]))


class TestSample:
    def test_dimensions(self):
        s = Sample(np.ones((4, 3)))
        assert (s.n, s.d) == (4, 3)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Sample(np.array([[1.0, np.inf]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            Sample(np.ones(5))

    def test_immutable(self):
        s = Sample(np.ones((2, 2)))
        with pytest.raises(ValueError):
            s.data[0, 0] = 3.0

    def test_projection_dim_mismatch(self):
        s = Sample(np.ones((2, 3)))
        with pytest.raises(ValueError):
            s.projections(np.ones(2))


class TestRLambda:
    def test_all_zero_observations(self):
        s = Sample(np.zeros((5, 2)))
        lam = 0.7
        assert r_lambda(s, np.array([1.0, 0.0]), lam) == pytest.approx(-psi(lam), abs=1e-15)

    def test_single_observation_at_root(self):
        s = one_direction_sample([1.0])
        assert r_lambda(s, np.array([1.0]), 1.0) == 0.0

    def test_antisymmetric_pair_cancels(self):
        s = one_direction_sample([math.sqrt(0.2), math.sqrt(0.6)])
        assert r_lambda(s, np.array([1.0]), 0.4) == pytest.approx(0.0, abs=1e-15)

    def test_bounded_output(self):
        rng = np.random.default_rng(0)
        s = Sample(rng.standard_normal((50, 3)))
        val = r_lambda(s, rng.standard_normal(3), 0.5)
        assert -math.log(2) <= val <= math.log(2)

    def test_dim_mismatch(self):
        s = Sample(np.ones((3, 2)))
        with pytest.raises(ValueError):
            r_lambda(s, np.ones(3), 1.0)

    def test_rejects_nonpositive_lambda(self):
        s = Sample(np.ones((3, 2)))
        with pytest.raises(ValueError):
            r_lambda(s, np.ones(2), 0.0)


class TestAlphaHat:
    def test_single_sample_closed_form(self):
        s = one_direction_sample([1.0])
        for lam in (0.1, 0.5, 0.9):
            assert alpha_hat(s, np.array([1.0]), lam) == pytest.approx(math.sqrt(lam), rel=1e-10)

    def test_zero_projections_give_inf(self):
        s = Sample(np.zeros((4, 2)))
        assert alpha_hat(s, np.array([1.0, 0.0]), 0.3) == math.inf

    def test_zero_theta_gives_inf(self):
        rng = np.random.default_rng(1)
        s = Sample(rng.standard_normal((6, 2)))
        assert alpha_hat(s, np.zeros(2), 0.3) == math.inf

    def test_scaling_inverse_homogeneity(self):
        rng = np.random.default_rng(2)
        s = Sample(rng.standard_normal((20, 3)))
        theta = rng.standard_normal(3)
        base = alpha_hat(s, theta, 0.4)
        for c in (0.5, 2.0, 7.0):
            assert alpha_hat(s, c * theta, 0.4) == pytest.approx(base / c, rel=1e-9)

    def test_saturated_majority_zero_gives_inf(self):
        # one huge projection, many zeros: the criterion never turns positive
        s = one_direction_sample([5.0] + [0.0] * 9)
        assert alpha_hat(s, np.array([1.0]), 0.9) == math.inf

    def test_root_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = rng.integers(2, 30)
            s = Sample(rng.standard_normal((n, 2)))
            theta = rng.standard_normal(2)
            lam = float(rng.uniform(0.05, 0.8))
            a = alpha_hat(s, theta, lam)
            if math.isfinite(a):
                assert abs(r_lambda(s, a * theta, lam)) <= 1e-10

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = rng.standard_normal(12) ** 2
            lam = float(rng.uniform(0.05, 0.7))
            s = one_direction_sample(np.sqrt(v))
            ours = alpha_hat(s, np.array([1.0]), lam)
            ref = bisect_alpha(v, lam)
            assert ours == pytest.approx(ref, rel=1e-9)

    def test_monotone_criterion_in_alpha(self):
        rng = np.random.default_rng(5)
        s = Sample(rng.standard_normal((15, 2)))
        theta = np.array([0.3, -1.1])
        vals = [r_lambda(s, a * theta, 0.3) for a in np.linspace(0.0, 5.0, 100)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestTildeN:
    def test_single_sample(self):
        s = one_direction_sample([1.0])
        assert tilde_n(s, np.array([1.0]), 0.25) == pytest.approx(1.0, rel=1e-10)

    def test_degenerate_direction_gives_zero(self):
        s = Sample(np.zeros((4, 2)))
        assert tilde_n(s, np.array([0.0, 1.0]), 0.3) == 0.0

    def test_homogeneity_degree_two(self):
        rng = np.random.default_rng(6)
        s = Sample(rng.standard_normal((25, 3)))
        theta = rng.standard_normal(3)
        base = tilde_n(s, theta, 0.2)
        assert tilde_n(s, 2.0 * theta, 0.2) == pytest.approx(4.0 * base, rel=1e-8)

    def test_constant_squares_recover_value(self):
        v = 1.7
        s = one_direction_sample([math.sqrt(v)] * 8)
        for lam in (0.1, 0.4, 0.8):
            assert tilde_n(s, np.array([1.0]), lam) == pytest.approx(v, rel=1e-10)


class TestRobustScale:
    def test_constant_values(self):
        p = np.array([1.3, -1.3, 1.3])
        res = solve_row(p * p, 0.5)
        assert res.converged
        assert res.value[0] == pytest.approx(1.3**2, rel=1e-12)

    def test_two_point_vs_bisection_oracle(self):
        for a in (0.5, 1.0, 3.0):
            for lam in (0.1, 0.3, 0.6):
                p = np.array([0.0, a])
                ours = solve_row(p * p, lam)
                ref = bisect_scale(np.array([0.0, a**2]), lam)
                assert ours.converged
                assert ours.value[0] == pytest.approx(ref, rel=1e-10)
                # psi(lam (a^2/S - 1)) = psi(lam) has the closed form S = a^2/2
                assert ours.value[0] == pytest.approx(a * a / 2.0, rel=1e-9)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        p = rng.standard_normal(30)
        base = solve_row(p * p, 0.25).value[0]
        for c in (0.1, 3.0, 40.0):
            q = c * p
            assert solve_row(q * q, 0.25).value[0] == pytest.approx(c * c * base, rel=1e-9)

    def test_residual_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = rng.standard_normal(rng.integers(2, 40))
            lam = float(rng.uniform(0.05, 0.9))
            res = solve_row(p * p, lam)
            assert res.converged
            resid = float(np.sum(psi(lam * (p * p / res.value[0] - 1.0))))
            assert abs(resid) <= 1e-10

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            solve_row(np.zeros(5), 0.3)

    def test_no_positive_root_corner(self):
        # one non-zero among many zeros with lambda >= 1: criterion stays negative
        res = solve_row([4.0] + [0.0] * 9, 2.0)
        assert not res.converged
        assert res.value[0] == 0.0

    def test_non_finite_input_rejected(self):
        p = np.array([1e200, 1.0, 2.0])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            solve_row(p * p, 0.5)  # squares overflow
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            tilde_n(one_direction_sample(p), np.array([1.0]), 0.5)

    def test_method_reported(self):
        res = solve_row([1.0, 4.0, 0.25], 0.3)
        assert res.method in ("newton", "bisection-fallback")

    def test_newton_agrees_with_gridscan(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            p = rng.standard_normal(rng.integers(2, 25))
            lam = float(rng.uniform(0.05, 0.9))
            res = solve_row(p * p, lam)
            assert res.value[0] == pytest.approx(gridscan_scale(p * p, lam), rel=1e-8)


class TestEquivalence:
    def test_tilde_n_equals_scale_solution(self):
        # same criterion under alpha^2 = lambda / S; three independent routes
        rng = np.random.default_rng(10)
        for _ in range(25):
            n = int(rng.integers(2, 21))
            d = int(rng.integers(1, 5))
            s = Sample(rng.standard_normal((n, d)))
            theta = rng.standard_normal(d)
            lam = float(rng.uniform(0.05, 0.6))
            p = s.projections(theta)
            if not np.any(p != 0):
                continue
            via_alpha = tilde_n(s, theta, lam)
            via_scale = solve_row(p * p, lam).value[0]
            via_oracle = gridscan_scale(p * p, lam)
            assert via_alpha == pytest.approx(via_scale, rel=1e-8)
            assert via_alpha == pytest.approx(via_oracle, rel=1e-8)


# psi saturates at +-log 2, so the scale criterion can vanish on a whole
# interval once lambda > 1; the sup-alpha root is the interval's left edge
# v_i lambda / (lambda - 1).  Checked against closed forms, because a
# bisection oracle lands wherever the rounding noise on the interval says.
PLATEAUS = [
    ([1.0, 100.0], 3.0, 1.5),
    ([1.0] * 3 + [100.0] * 3, 5.0, 1.25),
    ([1.0, 1.0, 100.0, 1000.0], 3.0, 1.5),  # Newton reaches it from the right
]


class TestPlateau:
    @pytest.mark.parametrize("v, lam, edge", PLATEAUS)
    def test_left_edge(self, v, lam, edge):
        res = solve_row(v, lam)
        assert res.converged and res.plateau[0]
        assert res.value[0] == pytest.approx(edge, rel=1e-10)

    @pytest.mark.parametrize("v, lam, edge", PLATEAUS)
    def test_paper_notation_agrees(self, v, lam, edge):
        p = np.sqrt(v)
        s, theta = one_direction_sample(p), np.array([1.0])
        assert tilde_n(s, theta, lam) == pytest.approx(edge, rel=1e-10)
        assert alpha_hat(s, theta, lam) == pytest.approx(math.sqrt(lam / edge), rel=1e-10)
        assert solve_row(p * p, lam).value[0] == pytest.approx(edge, rel=1e-10)


SQUARES = st.one_of(st.sampled_from([0.0, 1.0, 100.0]), st.floats(1e-6, 1e6))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(v=st.lists(SQUARES, min_size=1, max_size=30).filter(lambda v: max(v) > 0.0),
       lam=st.floats(0.05, 5.0), k=st.integers(-60, 60))
@example(v=[0.0, 0.0, 593.0], lam=0.25, k=39)  # absolute derivative cutoff fired here
def test_scale_solver_properties(v, lam, k):
    v = np.array(v)
    res = solve_row(v, lam)
    if res.value[0] == 0.0:
        return  # no positive root
    s = res.value[0]
    assert res.converged
    assert abs(scale_criterion(v, lam, s)) <= 1e-10
    # s is not inside a flat root interval: just left of it f rises or moves
    below = s * (1.0 - 1e-9)
    slopes = psi_prime(lam * (v[v > 0.0] / below - 1.0))
    assert scale_criterion(v, lam, below) > 1e-10 or np.any(slopes != 0.0)
    # degree-2 homogeneity holds exactly under power-of-two scaling
    assert solve_row(v * 2.0**k, lam).value[0] == s * 2.0**k


BAD_SQUARES = [[np.nan, 0.0], [-np.inf, 0.0], [-1.0, 0.0]]


class TestRowSolver:
    @staticmethod
    def assert_rows_match_one_row_solves(v, lam, start=None):
        rows = scale_from_squares(v, lam, start)
        for k, (row, level) in enumerate(zip(v, lam)):
            one = scale_from_squares(row[None], np.array([level]),
                                     None if start is None else start[k:k + 1])
            assert rows.value[k] == one.value[0]
            assert rows.row_iterations[k] == one.iterations
            assert rows.row_converged[k] == one.converged
            assert ("bisection-fallback" if rows.bisection[k] else "newton") == one.method
            assert rows.plateau[k] == one.plateau[0]
        return rows

    def test_mixed_batch_matches_one_row_solves(self):
        rng = np.random.default_rng(20)
        v = np.vstack([
            [1.0, 1.0, 100.0, 1000.0],        # lambda > 1 plateau, edge 1.5
            [4.0, 0.0, 0.0, 0.0],             # no positive root (S -> 0 corner)
            [1.0, 0.0, 2.0, 3.0],
            [7.0, 7.0, 7.0, 7.0],             # root at the mean, no iteration
            rng.uniform(0.1, 10.0, 4) * 1e-150,
            rng.uniform(0.1, 10.0, 4),
            rng.uniform(0.1, 10.0, 4) * 1e150,
            [1e-3, 5.0, 0.0, 2e4],
        ])
        lam = np.array([3.0, 2.0, 0.4, 0.3, 0.2, 0.7, 0.5, 1.5])
        rows = self.assert_rows_match_one_row_solves(v, lam)
        assert rows.plateau[0] and rows.value[0] == pytest.approx(1.5, rel=1e-10)
        assert rows.value[1] == 0.0 and not rows.row_converged[1]
        assert rows.row_iterations[3] == 0
        assert rows.row_converged[[0, 2, 3, 4, 5, 6, 7]].all()
        # the call-level summary of the rows
        assert rows.iterations == int(rows.row_iterations.sum())
        assert not rows.converged and rows.method == "bisection-fallback"
        assert scale_from_squares(v[2:4], lam[2:4]).converged

    def test_random_batch_matches_one_row_solves(self):
        rng = np.random.default_rng(21)
        v = rng.standard_t(2, size=(60, 50)) ** 2
        v[rng.random(v.shape) < 0.1] = 0.0
        v *= 10.0 ** rng.integers(-8, 8, size=(60, 1))
        self.assert_rows_match_one_row_solves(v, rng.uniform(0.05, 5.0, 60))

    def test_extreme_scales_are_exact(self):
        # S^2 in the derivative would overflow at 2^1000 and underflow at
        # 2^-1000; the roots must still scale exactly with the data
        rng = np.random.default_rng(22)
        base = rng.uniform(0.1, 10.0, 40)
        base[:3] = 100.0
        v = np.vstack([base * 2.0**-1000, base, base * 2.0**1000])
        rows = self.assert_rows_match_one_row_solves(v, np.full(3, 0.3))
        assert rows.row_converged.all()
        assert rows.value[0] == rows.value[1] * 2.0**-1000
        assert rows.value[2] == rows.value[1] * 2.0**1000

    def test_root_approached_from_the_left_is_resolved(self):
        # small lambda and n: f(mean) > 0 is already below tol, and every
        # iterate stays left of the root, so the bracket never closes and
        # only the Newton clause can end the row
        v = np.array([[11.41, 1.17, 8.99], [3.51, 1.92, 2.81]])
        lam = np.array([1e-3, 1e-3])
        rows = scale_from_squares(v, lam)
        assert rows.row_converged.all() and (rows.row_iterations >= 1).all()
        for row, level, s in zip(v, lam, rows.value):
            t = level * (row / s - 1.0)
            slope = np.sum(psi_prime(t) * level * row / s)
            assert abs(scale_criterion(row, level, s)) <= 2.0**-40 * slope

    def test_bracket_search_is_capped(self, monkeypatch):
        # lambda > 1 saturates every term at the mean, far right of the root:
        # the criterion is flat there, so the row halves many times first
        v = np.vstack([[1.0] * 39 + [1e6], [1.0, 2.0, 3.0] + [2.0] * 37])
        capped = scale_from_squares(v, np.array([10.0, 0.5]))
        monkeypatch.setattr(mestimator, "MAX_BRACKET_ROUNDS", 2)
        rows = scale_from_squares(v, np.array([10.0, 0.5]))
        assert not rows.row_converged[0] and rows.bisection[0] and rows.row_iterations[0] == 0
        assert rows.row_converged[1] and rows.value[1] == capped.value[1]

    @pytest.mark.parametrize("bad", BAD_SQUARES)
    def test_rejects_non_finite_or_negative(self, bad):
        # the grid estimator gives 0 for vanishing squares without a solve;
        # these have no positive entry either, and must still be rejected
        mb = MomentBounds(kappa=3.0, s4=1.0, trace_g=1.0)
        grid = Grid(points=((0.5, 10.0),), K=1, a=0.5, epsilon=0.1, n=2)
        with pytest.raises(ValueError, match="finite"):
            select_from_squares(np.array(bad), 1.0, grid, coeffs_for_grid(grid, mb), 0.1)
        with pytest.raises(ValueError, match="finite"):
            scale_from_squares(np.array([[1.0, 2.0], bad]), np.array([0.5, 0.5]))

    def test_lambda_rows_match_one_row(self):
        rng = np.random.default_rng(23)
        v = rng.standard_t(3, size=(5, 80)) ** 2
        v[2] = 4.0  # zero variance
        lam = lambda_from_square_rows(v, 0.1)
        for k in (0, 1, 3, 4):
            assert lam[k] == lambda_from_square_rows(v[k:k + 1], 0.1)[0]
        assert math.isnan(lam[2])
        assert math.isnan(lambda_from_square_rows(v[2:3], 0.1)[0])

    def test_lambda_rows_are_exactly_scale_free(self):
        # the variance of 2^-1000 v underflows and that of 2^1000 v overflows
        # unless each row is rescaled by the power of two of its mean first
        rng = np.random.default_rng(24)
        v = rng.standard_t(3, size=(3, 80)) ** 2
        lam = lambda_from_square_rows(v, 0.1)
        for k in (-1000, -300, 300, 1000):
            np.testing.assert_array_equal(lambda_from_square_rows(np.ldexp(v, k), 0.1), lam)


class TestCertifiedStop:
    """A Newton step that the |psi''| <= 2 Taylor bound certifies ends its row
    without the kernel pass that would only confirm it."""

    def test_each_row_takes_one_pass_per_step(self, monkeypatch):
        passes = []

        def counting(t, *out):
            passes.append(t.shape)
            return kernel(t, *out)

        kernel = mestimator.psi_and_prime_into
        monkeypatch.setattr(mestimator, "psi_and_prime_into", counting)
        rng = np.random.default_rng(25)
        v = rng.standard_t(3, (4, 40000)) ** 2
        lam = lambda_from_square_rows(v, 0.1)
        rows = scale_from_squares(v, lam)
        assert rows.row_converged.all() and (rows.row_iterations > 0).all()
        # without the certificate every row pays one pass more than its steps
        assert sum(k * n for k, n in passes) == 40000 * rows.iterations
        for row, level, steps in zip(v, lam, rows.row_iterations):
            passes.clear()
            solve_row(row, level)
            assert len(passes) == steps

    def test_reference_roots_are_resolved(self, monkeypatch):
        # every returned root still meets the stop rule's first clause,
        # re-evaluated with the kernel at the returned scale
        solved = []

        def solve(v, lam, start=None):
            solved.append((v, lam, scale_from_squares(v, lam, start)))
            return solved[-1][2]

        monkeypatch.setattr(gram, "scale_from_squares", solve)
        cfg = ExperimentConfig(seed=0)
        for t in range(4):
            gram.robust_gram(gen_mixture(cfg, trial_rng(cfg.seed, t)), epsilon=cfg.epsilon,
                             num_updates=cfg.num_updates)
        assert len(solved) == 16
        for v, lam, r in solved:
            assert r.row_converged.all()
            a = v * (lam / r.value)[:, None]
            f = np.sum(psi(a - lam[:, None]), axis=1)
            d = np.sum(psi_prime(a - lam[:, None]) * a, axis=1)
            assert (np.abs(f) <= 1e-10).all()
            assert (np.abs(f) <= 2.0**-40 * d).all()


class TestWarmStart:
    """A row may start at a given scale; a start that is not finite and
    positive falls back to the row mean, and a start moves with its row
    under the power-of-two rescale."""

    @staticmethod
    def assert_same_bits(a, b):
        for field in ("value", "row_iterations", "row_converged", "bisection", "plateau"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
    def test_unusable_start_gives_the_cold_bits(self, bad):
        v, lam = TestBitwisePin.batch()
        self.assert_same_bits(scale_from_squares(v, lam, np.full(len(v), bad)),
                              scale_from_squares(v, lam))

    def test_start_at_the_root_takes_one_pass(self, monkeypatch):
        rng = np.random.default_rng(26)
        v = rng.standard_t(3, (6, 400)) ** 2
        lam = lambda_from_square_rows(v, 0.1)
        cold = scale_from_squares(v, lam)
        passes = []

        def counting(t, *out):
            passes.append(len(t))
            return kernel(t, *out)

        kernel = mestimator.psi_and_prime_into
        monkeypatch.setattr(mestimator, "psi_and_prime_into", counting)
        warm = scale_from_squares(v, lam, cold.value)
        assert passes == [len(v)]
        assert warm.row_converged.all() and (warm.row_iterations <= 1).all()
        np.testing.assert_allclose(warm.value, cold.value, rtol=1e-12)

    def test_start_off_the_root_converges_to_it(self):
        v, lam = TestBitwisePin.batch()
        cold = scale_from_squares(v, lam)
        for factor in (1e-6, 0.5, 3.0, 1e6):
            warm = scale_from_squares(v, lam, cold.value * factor)
            np.testing.assert_array_equal(warm.row_converged, cold.row_converged)
            np.testing.assert_allclose(warm.value, cold.value, rtol=1e-11)

    def test_rescaled_row_scales_exactly_with_its_start(self):
        # means beyond 2^256 are solved on v * 2^-e, and the start with them
        rng = np.random.default_rng(27)
        v = rng.standard_t(3, (2, 60)) ** 2
        lam = np.array([0.3, 0.8])
        start = 1.7 * np.mean(v, axis=1)
        base = scale_from_squares(v * 2.0**300, lam, start * 2.0**300)
        assert base.row_converged.all()
        for k in (-1000, -600, 600, 700):
            r = scale_from_squares(v * 2.0**(300 + k), lam, start * 2.0**(300 + k))
            np.testing.assert_array_equal(r.value, base.value * 2.0**k)
            np.testing.assert_array_equal(r.row_iterations, base.row_iterations)

    def test_start_that_overflows_with_its_row_is_unusable(self):
        # the row is solved on v * 2^600, and 1e300 * 2^600 overflows
        v = np.random.default_rng(28).standard_t(3, (1, 60)) ** 2 * 2.0**-600
        lam = np.array([0.4])
        self.assert_same_bits(scale_from_squares(v, lam, np.array([1e300])),
                              scale_from_squares(v, lam))

    def test_cold_and_warm_solves_agree_on_the_flag(self):
        # a start at or left of the plateau row's left edge stops on the edge
        # itself, which the cold solve reaches by moving there from the right
        v, lam = TestBitwisePin.batch()
        cold = scale_from_squares(v[7:8], lam[7:8])
        assert cold.plateau[0] and cold.value[0] == 1.5
        for start in (0.75, 1.5):
            self.assert_same_bits(scale_from_squares(v[7:8], lam[7:8], np.array([start])), cold)

    def test_start_shape_is_checked(self):
        with pytest.raises(ValueError, match="start"):
            scale_from_squares(np.ones((2, 3)), np.array([0.5, 0.5]), np.ones(3))


class TestWorkspace:
    """The pass loop writes into one slab per call, and the rows of a batch
    still stop where their one-row solves do."""

    @staticmethod
    def batch():
        """Cold, warm, no-root, plateau and 2^+-600 rescaled rows with their starts."""
        rng = np.random.default_rng(29)
        v = rng.standard_t(3, (10, 50)) ** 2
        lam = rng.uniform(0.1, 2.0, 10)
        v[1, :25] = 0.0  # no positive root at lambda = 4
        v[2] = v[3] = np.repeat([1.0, 100.0], 25)  # flat root stretch, left edge 1.5
        lam[[1, 2, 3]] = 4.0, 3.0, 3.0
        v[4] *= 2.0**600
        v[5] *= 2.0**-600
        start = np.full(10, np.nan)
        root = scale_from_squares(v, lam).value
        start[3] = 0.75
        start[[5, 6, 7, 8]] = root[[5, 6, 7, 8]] * np.array([1.0, 1.0 + 1e-6, 0.5, 40.0])
        return v, lam, start

    def test_every_pass_reuses_the_workspace(self, monkeypatch):
        outputs = []

        def recording(t, value, prime, scratch):
            outputs.append((value, prime))
            return kernel(t, value, prime, scratch)

        batch = self.batch()
        kernel = mestimator.psi_and_prime_into
        monkeypatch.setattr(mestimator, "psi_and_prime_into", recording)
        scale_from_squares(*batch)
        # rows leave the loop on at least three different passes
        assert len({len(value) for value, _ in outputs}) >= 3
        first_value, first_prime = outputs[0]
        for value, prime in outputs[1:]:
            assert np.shares_memory(value, first_value)
            assert np.shares_memory(prime, first_prime)

    def test_mixed_batch_matches_one_row_solves(self):
        v, lam, start = self.batch()
        rows = TestRowSolver.assert_rows_match_one_row_solves(v, lam, start)
        assert rows.value[1] == 0.0 and rows.bisection[1]
        assert rows.plateau[[2, 3]].all() and (rows.value[[2, 3]] == 1.5).all()
        assert rows.row_converged[[0, 2, 3, 4, 5, 6, 7, 8, 9]].all()
        assert len(set(rows.row_iterations.tolist())) >= 3


class TestAdaptiveLambda:
    def test_spot_value(self):
        # m = 1, v = 1, n = 100, eps = 0.1:
        # sqrt(u (1-u)) with u = 2 log(10) / 100, frozen
        p2 = _squares_with_moments(n=100, mean=1.0, var=1.0)
        lam = lambda_from_square_rows(p2[None], 0.1)[0]
        assert lam == pytest.approx(0.20959709591425535, rel=1e-9)

    def test_constant_values_rejected(self):
        # zero variance: the row gets nan, and the caller's floor takes over
        assert math.isnan(lambda_from_square_rows(np.ones((1, 50)), 0.1)[0])

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            lambda_from_square_rows(np.array([[1.0, 4.0, 9.0]]), 0.1)  # 2 log(10) / 3 > 1

    def test_scale_free(self):
        rng = np.random.default_rng(11)
        p = rng.standard_normal((1, 200))
        base = lambda_from_square_rows(p * p, 0.1)[0]
        q = 2.0 * p
        assert lambda_from_square_rows(q * q, 0.1)[0] == pytest.approx(base, rel=1e-12)

    def test_epsilon_validation(self):
        p = np.arange(10.0)[None]
        with pytest.raises(ValueError):
            lambda_from_square_rows(p * p, 1.5)


def _squares_with_moments(n: int, mean: float, var: float) -> np.ndarray:
    """Non-negative values with exactly the requested mean and sample variance."""
    base = np.full(n, mean)
    spread = math.sqrt(var * (n - 1) / 2.0)
    base[0] += spread
    base[1] -= spread
    got_mean = base.mean()
    assert got_mean == pytest.approx(mean)
    assert np.sum((base - got_mean) ** 2) / (n - 1) == pytest.approx(var)
    return base


class TestLightTailSanity:
    def test_scale_tracks_mean_within_lambda_band(self):
        rng = np.random.default_rng(12)
        n = 500
        p = 1.0 + 0.05 * rng.standard_normal(n)
        lam = 0.5
        res = solve_row(p * p, lam)
        m = float(np.mean(p * p))
        delta = 0.02
        band = lam * lam / 3.0 + delta
        assert m * (1.0 - band) <= res.value[0] <= m * (1.0 + band)
        # and the independent oracle lands in the same band
        ref = bisect_scale(p * p, lam)
        assert m * (1.0 - band) <= ref <= m * (1.0 + band)


class TestBitwisePin:
    """Exact values of a seeded row batch: a one-ulp change in psi or in the
    psi arguments moves them.  (A one-ulp change in the Newton slope rarely
    moves a root; ``test_gram.py`` pins a whole estimate for that.)

    The hex literals were computed with the one-loop solver (Newton on
    1/S, fused psi/psi_prime kernel) on x86-64 with numpy 2.4.6.
    """

    VALUES = [
        "0x1.02132fbf3327dp+0", "0x1.41ccd50b295ccp+0", "0x1.fa5e21c074b5ap-499",
        "0x1.5d8aa033afc6cp-1", "0x1.55aa197aa5872p-1", "0x0.0p+0",
        "0x1.cef968c724d74p-1", "0x1.8000000000000p+0",
    ]

    @staticmethod
    def batch():
        rng = np.random.default_rng(20240)
        v = rng.standard_t(3, (8, 60)) ** 2
        lam = rng.uniform(0.05, 4.0, 8)
        v[2] *= 1e-150
        v[5, :30] = 0.0  # no positive root at lambda = 4
        v[7] = np.repeat([1.0, 100.0], 30)  # flat root stretch with left edge 1.5
        lam[5], lam[7] = 4.0, 3.0
        return v, lam

    def test_row_batch(self):
        r = scale_from_squares(*self.batch())
        assert [float(x).hex() for x in r.value] == self.VALUES
        assert r.row_iterations.tolist() == [5, 5, 6, 6, 7, 0, 5, 0]
        assert r.bisection.tolist() == [False] * 5 + [True, False, False]
        assert r.plateau.tolist() == [False] * 7 + [True]
        assert r.row_converged.tolist() == [True] * 5 + [False, True, True]
