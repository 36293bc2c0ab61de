import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from robustgram.bounds import (
    BoundCoeffs,
    Grid,
    MomentBounds,
    ZETA_C1,
    ZETA_C2,
    ZETA_C3,
    LOG_K_CAP,
    MAX_GRID_K,
    b_bound,
    b_star,
    bound_coeffs,
    coeffs_for_grid,
    confidence_interval,
    confidence_intervals,
    empirical_bounds,
    grid_size,
    lambda_star,
    make_grid,
    min_sample_size,
    phi_minus,
    phi_plus,
    phi_plus_inverse,
    radius_envelope,
    select_from_square_rows,
    select_hat_n,
    sigma_default,
    sym_zeta_star,
    tau_q,
    zeta_q,
    zeta_star,
)
from robustgram import bounds, mestimator
from robustgram.influence import C_UNIVERSAL
from robustgram.mestimator import Sample, tilde_n

from oracles import phi_plus_inverse_ref

MB3 = MomentBounds(kappa=3.0, s4=1.0, trace_g=1.0, trace_g2=1.0)


def active_coeffs():
    """A coefficient set whose gates are active near t = 1 (large-n regime)."""
    return bound_coeffs(lam=0.02, beta=3000.0, n=10**6, mb=MB3,
                        grid_cardinality=7, epsilon=0.05)


class TestMomentBounds:
    def test_kappa_floor(self):
        with pytest.raises(ValueError):
            MomentBounds(kappa=0.8, s4=1.0, trace_g=1.0)

    def test_cauchy_schwarz_consistency(self):
        with pytest.raises(ValueError):
            MomentBounds(kappa=1.0, s4=10.0, trace_g=1.0)

    def test_accepts_valid(self):
        mb = MomentBounds(kappa=3.0, s4=2.0, trace_g=4.0)
        assert mb.certified

    @pytest.mark.parametrize("field", ["kappa", "s4", "trace_g", "trace_g2"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_field_rejected(self, field, value):
        # kappa = inf used to pass, and make_grid then overflowed in math.ceil
        with pytest.raises(ValueError, match="finite"):
            MomentBounds(**{"kappa": 3.0, "s4": 1.0, "trace_g": 1.0, field: value})


class TestGrid:
    def test_k_for_paper_scale(self):
        assert grid_size(1e5, 3.0, 0.5) == 7
        grid = make_grid(10**5, MB3, a=0.5, epsilon=0.05)
        assert grid.K == 7

    def test_too_many_levels_rejected_before_any_is_built(self):
        # a = 1e-6 asks for 2.85e6 levels, which make_grid built one by one;
        # 1e-300 for about 3e300
        with pytest.raises(ValueError, match="MAX_GRID_K"):
            make_grid(10**5, MB3, a=1e-6, epsilon=0.05)
        with pytest.raises(ValueError, match="MAX_GRID_K"):
            grid_size(1e5, 3.0, 1e-300)
        with pytest.raises(ValueError, match="MAX_GRID_K"):
            grid_size(1e5, 3.0, 5e-324)  # an infinite step count
        assert grid_size(1e308, 1.0 + 1e-6, 0.5) < MAX_GRID_K
        # at the cap: a fractional step count just above MAX_GRID_K - 1 rounds
        # K up past it
        log_ratio = math.log(1e5 / min_sample_size(3.0))
        assert grid_size(1e5, 3.0, log_ratio / (MAX_GRID_K - 1.5)) == MAX_GRID_K
        with pytest.raises(ValueError, match="MAX_GRID_K"):
            grid_size(1e5, 3.0, log_ratio / (MAX_GRID_K - 0.5))

    def test_k_at_exact_threshold(self):
        n_star = 72.0 * (2.0 + C_UNIVERSAL) * math.sqrt(3.0)
        assert grid_size(n_star, 3.0, 0.5) == 1

    def test_lambda0_spot_value(self):
        grid = make_grid(10**5, MB3, a=0.5, epsilon=0.05)
        assert grid.points[0][0] == pytest.approx(0.007322692171250677, rel=1e-10)

    def test_shape(self):
        grid = make_grid(10**5, MB3, a=0.5, epsilon=0.05)
        lams = [p[0] for p in grid.points]
        betas = [p[1] for p in grid.points]
        assert all(a < b for a, b in zip(lams, lams[1:]))
        assert all(a > b for a, b in zip(betas, betas[1:]))

    def test_small_n_rejected_with_minimum(self):
        with pytest.raises(ValueError, match="5773"):
            make_grid(2000, MB3, epsilon=0.05)

    def test_kappa_one_rejected(self):
        mb = MomentBounds(kappa=1.0, s4=1.0, trace_g=1.0)
        with pytest.raises(ValueError, match="kappa"):
            make_grid(10**5, mb)

    def test_manual_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(points=((0.2, 10.0), (0.1, 20.0)), K=2, a=0.5, epsilon=0.1, n=100)

    @pytest.mark.parametrize("fields", [
        {"points": ((0.1, 20.0), (math.inf, 10.0))},
        {"points": ((0.1, math.inf), (0.2, 10.0))},
        {"points": ((0.1, 20.0), (0.2, math.nan))},
        {"a": math.inf},
        {"epsilon": math.nan},
        {"n": math.inf},
    ])
    def test_non_finite_field_rejected(self, fields):
        grid = {"points": ((0.1, 20.0), (0.2, 10.0)), "K": 2, "a": 0.5,
                "epsilon": 0.1, "n": 100}
        with pytest.raises(ValueError, match="finite"):
            Grid(**{**grid, **fields})

    def test_beta_formula_spot(self):
        grid = make_grid(10**5, MB3, a=0.5, epsilon=0.05)
        c = C_UNIVERSAL
        expect = math.sqrt(2 * (2 + c) * math.sqrt(3.0) * 1e5 * math.exp(0.25))
        assert grid.points[0][1] == pytest.approx(expect, rel=1e-12)


class TestBoundCoeffs:
    def test_spot_values_second_implementation(self):
        kappa, lam, beta, n, s4, card, eps = 3.0, 0.1, 100.0, 1000, 1.0, 7, 0.05
        co = bound_coeffs(lam, beta, n, MB3, card, eps)
        c = C_UNIVERSAL
        assert co.xi == pytest.approx(0.15, abs=1e-15)
        assert co.mu == pytest.approx(lam * (kappa - 1) + (2 + c) * math.sqrt(kappa) * s4**2 / beta,
                                      rel=1e-14)
        assert co.gamma == pytest.approx(
            lam * (kappa - 1) / 2
            + (2 + c) * math.sqrt(kappa) * s4**2 / beta
            + (2 + 3 * c) * s4**4 / (2 * beta**2 * lam)
            + math.log(card / eps) / (n * lam),
            rel=1e-14,
        )
        assert co.delta == pytest.approx(beta / (2 * n * lam), rel=1e-14)

    def test_kappa_one_kills_kurtosis_terms(self):
        mb = MomentBounds(kappa=1.0, s4=1.0, trace_g=1.0)
        co = bound_coeffs(0.1, 100.0, 1000, mb, 7, 0.05)
        c = C_UNIVERSAL
        assert co.mu == pytest.approx((2 + c) / 100.0, rel=1e-14)

    def test_gamma_blows_up_as_lambda_vanishes(self):
        g1 = bound_coeffs(1e-3, 100.0, 1000, MB3, 7, 0.05).gamma
        g2 = bound_coeffs(1e-6, 100.0, 1000, MB3, 7, 0.05).gamma
        assert g2 > g1 > 0
        assert bound_coeffs(1e-6, 100.0, 1000, MB3, 7, 0.05).xi < 1e-5


class TestPhiMaps:
    def test_zero_at_origin(self):
        co = active_coeffs()
        assert phi_plus(0.0, co, 1.0) == 0.0
        assert phi_minus(0.0, co, 1.0) == 0.0

    def test_gate_violation_gives_zero(self):
        # tiny t drives the delta term through the indicator
        co = active_coeffs()
        assert phi_plus(1e-12, co, 1.0) == 0.0
        assert phi_minus(1e-12, co, 1.0) == 0.0

    def test_ordering(self):
        co = active_coeffs()
        for t in np.geomspace(1e-3, 1e3, 60):
            assert phi_minus(t, co, 1.0) <= t + 1e-15
            assert phi_plus(t, co, 1.0) <= t + 1e-15
            assert phi_minus(t, co, 1.0) >= 0.0

    def test_monotone_in_t(self):
        co = active_coeffs()
        ts = np.geomspace(1e-3, 1e3, 200)
        plus = [phi_plus(t, co, 1.0) for t in ts]
        minus = [phi_minus(t, co, 1.0) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(plus, plus[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(minus, minus[1:]))

    def test_inverse_round_trip(self):
        co = active_coeffs()
        for u in np.geomspace(1e-2, 1e2, 40):
            inv = phi_plus_inverse(u, co, 1.0)
            assert math.isfinite(inv)
            val = phi_plus(inv, co, 1.0)
            assert val <= u * (1 + 1e-12)
            if val > 0.0:  # sup attained on the continuous branch
                assert val == pytest.approx(u, abs=1e-9 * max(1.0, u))

    @staticmethod
    def swept_coeffs(count: int, seed: int):
        """Seeded coefficient sets, about a fifth with a vacuous gate, each
        with a squared norm of theta, every tenth 0, and the generator."""
        rng = np.random.default_rng(seed)
        for i in range(count):
            xi, mu, gamma = rng.uniform(0.0, 0.45, 3)
            co = BoundCoeffs(xi=xi, mu=mu, gamma=gamma, delta=10 ** rng.uniform(-2, 2),
                             lam=10 ** rng.uniform(-2, 0), beta=1.0)
            yield co, 0.0 if i % 10 == 0 else 10 ** rng.uniform(-1, 1), rng

    def test_inverse_matches_reference(self):
        # the closed form is the exact sup; the oracle bisects to adjacent floats
        for co, norm_sq, rng in self.swept_coeffs(2000, seed=7):
            for u in (0.0, math.inf, *10 ** rng.uniform(-8, 8, 2)):
                ref = phi_plus_inverse_ref(lambda t: phi_plus(t, co, norm_sq), u,
                                           t_max=1e300)
                assert phi_plus_inverse(u, co, norm_sq) == pytest.approx(ref, rel=1e-11)

    def test_inverse_is_the_sup(self):
        # phi_plus is 0 up to the gate point 2a / margin and increases past
        # it, so the sup is the gate point, where phi_plus jumps above u, or
        # the root of phi_plus = u on the open branch
        for co, norm_sq, rng in self.swept_coeffs(2000, seed=8):
            margin = 1.0 - co.xi - co.mu - co.gamma
            for u in 10 ** rng.uniform(-8, 8, 2):
                inv = phi_plus_inverse(u, co, norm_sq)
                if margin <= 0.0:
                    assert inv == math.inf and phi_plus(1e300, co, norm_sq) == 0.0
                    continue
                assert phi_plus(inv * (1 + 1e-9), co, norm_sq) > u
                if inv == 2.0 * co.delta * co.lam * norm_sq / margin:
                    assert phi_plus(inv * (1 - 1e-12), co, norm_sq) == 0.0
                else:
                    assert phi_plus(inv, co, norm_sq) <= u * (1 + 1e-12)

    @pytest.mark.parametrize("k", range(-500, 501, 50))
    def test_inverse_scales_by_powers_of_four(self, k):
        for co, norm_sq, rng in self.swept_coeffs(100, seed=9):
            scaled = dataclasses.replace(co, delta=math.ldexp(co.delta, 2 * k))
            for u in 10 ** rng.uniform(-3, 3, 2):
                inv = phi_plus_inverse(u, co, norm_sq)
                assert phi_plus_inverse(math.ldexp(u, 2 * k), scaled, norm_sq) == (
                    math.ldexp(inv, 2 * k))

    def test_inverse_of_the_largest_values_is_unbounded(self):
        # doubling an upper bracket from u = 1.7e308 overflowed to inf, and
        # the bisection returned 0, below phi_minus
        co = BoundCoeffs(xi=0.1, mu=0.2, gamma=0.05, delta=0.3, lam=0.2, beta=1.0)
        assert phi_minus(1.7e308, co, 1.0) > 1e308
        assert phi_plus_inverse(1.7e308, co, 1.0) == math.inf

    def test_inverse_of_zero_at_an_open_gate_is_zero(self):
        # with theta = 0 the gate is open at every t > 0, where phi_plus > 0
        co = active_coeffs()
        assert phi_plus(1e-300, co, 0.0) > 0.0
        assert phi_plus_inverse(0.0, co, 0.0) == 0.0

    def test_inverse_unbounded_when_gate_never_active(self):
        co = BoundCoeffs(xi=0.5, mu=0.4, gamma=0.3, delta=0.1, lam=0.1, beta=10.0)
        assert phi_plus_inverse(1.0, co, 1.0) == math.inf

    def test_phi_dependence_through_norm_only(self):
        co = active_coeffs()
        # same tau => doubling both t and norm^2 doubles phi_plus
        a = phi_plus(1.0, co, 1.0)
        b = phi_plus(2.0, co, 2.0)
        assert b == pytest.approx(2 * a, rel=1e-12)


class TestBBound:
    def test_outside_gamma_is_inf(self):
        co = BoundCoeffs(xi=0.5, mu=0.4, gamma=0.3, delta=0.1, lam=0.1, beta=10.0)
        assert b_bound(1.0, 0.5, co) == math.inf

    def test_non_increasing_in_t(self):
        co = active_coeffs()
        ts = np.geomspace(1e-3, 1e3, 100)
        vals = [b_bound(t, 1e-3, co) for t in ts]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_clamped_below_sigma(self):
        co = active_coeffs()
        assert b_bound(0.01, 0.5, co) == b_bound(0.2, 0.5, co) == b_bound(0.5, 0.5, co)

    def test_gate_consistency_with_phi_plus(self):
        co = active_coeffs()
        for t in np.geomspace(1e-3, 1e3, 50):
            sigma = 0.05
            if math.isfinite(b_bound(t, sigma, co)):
                assert phi_plus(max(t, sigma), co, 1.0) > 0.0


class TestSelectHatN:
    def test_single_point_grid(self):
        rng = np.random.default_rng(0)
        s = Sample(rng.standard_normal((200, 3)))
        grid = Grid(points=((0.2, 100.0),), K=1, a=0.5, epsilon=0.1, n=200)
        sel = select_hat_n(s, np.array([1.0, 0.0, 0.0]), grid, 0.1, MB3)
        from robustgram.mestimator import tilde_n

        assert sel.value == pytest.approx(tilde_n(s, np.array([1.0, 0.0, 0.0]), 0.2))
        assert (sel.lambda_hat, sel.beta_hat) == (0.2, 100.0)

    def test_homogeneity_of_selection(self):
        rng = np.random.default_rng(1)
        s = Sample(rng.standard_normal((300, 3)))
        grid = Grid(points=((0.05, 500.0), (0.2, 200.0)), K=2, a=0.5, epsilon=0.1, n=300)
        theta = rng.standard_normal(3)
        base = select_hat_n(s, theta, grid, 0.05, MB3)
        scaled = select_hat_n(s, 3.0 * theta, grid, 0.05, MB3)
        assert scaled.value == pytest.approx(9.0 * base.value, rel=1e-8)
        assert scaled.lambda_hat == base.lambda_hat
        assert scaled.beta_hat == base.beta_hat

    def test_vacuous_flag_picks_smallest_lambda(self):
        rng = np.random.default_rng(2)
        s = Sample(rng.standard_normal((20, 2)))
        # absurd coefficients: every gate fails at n = 20
        grid = Grid(points=((0.5, 10.0), (0.9, 5.0)), K=2, a=0.5, epsilon=0.1, n=20)
        sel = select_hat_n(s, np.array([1.0, 0.0]), grid, 0.1, MB3)
        assert sel.vacuous
        assert sel.lambda_hat == 0.5

    def test_gaussian_energy_recovery(self):
        # direction e1 of a standard Gaussian: true energy 1
        grid = Grid(points=((0.05, 1500.0),), K=1, a=0.5, epsilon=0.1, n=2000)
        hits = 0
        trials = 40
        for seed in range(trials):
            rng = np.random.default_rng(100 + seed)
            s = Sample(rng.standard_normal((2000, 4)))
            sel = select_hat_n(s, np.array([1.0, 0.0, 0.0, 0.0]), grid, 0.05,
                               MomentBounds(kappa=3.0, s4=24.0**0.25, trace_g=4.0))
            if abs(sel.value - 1.0) <= 0.2:
                hits += 1
        assert hits >= 0.95 * trials


class TestZetaAndBStar:
    def test_constants_provenance(self):
        # printed constants are upward roundings of the exact expressions
        exact1 = 2.0 * math.cosh(0.125) ** 2
        exact2 = (2.0 + 3.0 * C_UNIVERSAL) / (4.0 * (2.0 + C_UNIVERSAL))
        exact3 = 2.0 * (2.0 + C_UNIVERSAL) * math.cosh(0.25) ** 2
        for exact, printed in ((exact1, ZETA_C1), (exact2, ZETA_C2), (exact3, ZETA_C3)):
            assert exact <= printed
            assert (printed - exact) / printed <= 0.01

    def test_log_k_cap(self):
        # log(K) <= 4.35 whenever n <= 1e20 (K is largest for kappa = 1)
        assert math.log(grid_size(1e20, 1.0, 0.5)) <= LOG_K_CAP

    def test_zeta_star_decreasing(self):
        ts = np.geomspace(1e-3, 1e3, 100)
        vals = [zeta_star(t, MB3, 7, 0.05) for t in ts]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_b_star_gate_and_monotonicity(self):
        n = 10**6
        assert b_star(1e-12, 1e-12, n, MB3, 7, 0.05) == math.inf
        ts = np.geomspace(1e-3, 1e3, 60)
        vals = [b_star(t, 1e-3, n, MB3, 7, 0.05) for t in ts]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert math.isfinite(vals[-1])

    def test_b_star_positive_when_finite(self):
        v = b_star(0.5, 0.1, 10**6, MB3, 7, 0.05)
        assert 0.0 < v < 1.0


class TestSigmaDefault:
    def test_spot_value(self):
        mb = MomentBounds(kappa=3.0, s4=1.0, trace_g=1.0)
        assert sigma_default(10**4, mb, 0.05) == pytest.approx(4.238529298713101, rel=1e-12)

    def test_decreasing_in_n(self):
        mb = MomentBounds(kappa=3.0, s4=1.0, trace_g=1.0)
        vals = [sigma_default(n, mb, 0.05) for n in (2000, 5000, 10**4, 10**5)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_asymptotic_speed(self):
        mb = MomentBounds(kappa=3.0, s4=1.0, trace_g=1.0)
        n = 10**9
        assert n * sigma_default(n, mb, 0.05) == pytest.approx(12800.0 * 3.0, rel=1e-3)

    def test_small_n_rejected(self):
        mb = MomentBounds(kappa=3.0, s4=1.0, trace_g=1.0)
        with pytest.raises(ValueError):
            sigma_default(100, mb, 0.05)


class TestConfidenceInterval:
    def test_contains_tilde_n_values(self):
        rng = np.random.default_rng(3)
        s = Sample(rng.standard_normal((400, 3)))
        grid = Grid(points=((0.05, 800.0), (0.15, 400.0)), K=2, a=0.5, epsilon=0.1, n=400)
        theta = np.array([0.0, 1.0, 0.0])
        lo, hi = confidence_interval(s, theta, grid, MB3)
        from robustgram.mestimator import tilde_n

        for lam, _ in grid.points:
            val = tilde_n(s, theta, lam)
            assert lo <= val + 1e-12
            assert val <= hi

    def test_vacuous_gates_give_trivial_interval(self):
        rng = np.random.default_rng(4)
        s = Sample(rng.standard_normal((20, 2)))
        grid = Grid(points=((0.5, 10.0),), K=1, a=0.5, epsilon=0.1, n=20)
        lo, hi = confidence_interval(s, np.array([1.0, 0.0]), grid, MB3)
        assert lo == 0.0
        assert hi == math.inf


class TestIntervalHomogeneity:
    """Scaling the data by 2^k, with the moment bounds and the betas of the
    grid alongside, scales the confidence interval by 4^k bit for bit."""

    @pytest.fixture(scope="class")
    def setup(self):
        s = Sample(np.random.default_rng(40).standard_normal((20000, 4)))
        mb = MomentBounds(kappa=3.0, s4=2.5, trace_g=4.0, trace_g2=4.0)
        return s, mb, make_grid(s.n, mb, epsilon=0.05)

    @pytest.mark.parametrize("k", [-200, -100, -20, 20, 100, 200])
    @pytest.mark.parametrize("theta", [[1.0, 0.0, 0.0, 0.0], [0.4, -1.3, 0.2, 0.0],
                                       [0.01, 0.0, 0.0, 0.02]])
    def test_scales_by_powers_of_four(self, setup, k, theta):
        s, mb, grid = setup
        theta = np.array(theta)
        mb_k = MomentBounds(kappa=mb.kappa, s4=math.ldexp(mb.s4, k),
                            trace_g=math.ldexp(mb.trace_g, 2 * k),
                            trace_g2=math.ldexp(mb.trace_g2, 4 * k))
        grid_k = dataclasses.replace(grid, points=tuple(
            (lam, math.ldexp(beta, 2 * k)) for lam, beta in grid.points))
        lo, hi = confidence_interval(s, theta, grid, mb)
        assert 0.0 < lo < hi < math.inf
        scaled = confidence_interval(Sample(np.ldexp(s.data, k)), theta, grid_k, mb_k)
        assert scaled == (math.ldexp(lo, 2 * k), math.ldexp(hi, 2 * k))


class TestGridAsRows:
    """The K grid levels of a block of directions are one row solve each, on
    the rows in place: the same bits as a tilde_n solve per level."""

    GRID = Grid(points=((0.01, 6000.0), (0.02, 3000.0), (0.05, 1500.0), (0.1, 800.0)),
                K=4, a=0.5, epsilon=0.05, n=3000)

    @staticmethod
    def sample():
        return Sample(np.random.default_rng(30).standard_t(3, (3000, 3)))

    @staticmethod
    def directions():
        return [np.eye(3)[0], np.array([0.4, -1.3, 0.2])]

    def test_equals_per_level_tilde_n(self):
        s, grid = self.sample(), self.GRID
        coeffs = coeffs_for_grid(grid, MB3)
        for theta in self.directions():
            norm_sq = float(theta @ theta)
            values = [tilde_n(s, theta, lam) for lam, _ in grid.points]
            lo, hi = confidence_interval(s, theta, grid, MB3)
            assert lo == max(phi_minus(v, co, norm_sq) for v, co in zip(values, coeffs))
            assert hi == min(phi_plus_inverse(v, co, norm_sq) for v, co in zip(values, coeffs))
            assert 0.0 < lo < hi < math.inf
            sel = select_hat_n(s, theta, grid, 0.05, MB3)
            j = [lam for lam, _ in grid.points].index(sel.lambda_hat)
            assert sel.value == values[j]
            assert sel.bound == b_bound(values[j] / norm_sq, 0.05, coeffs[j])
            assert sel.bound == min(b_bound(v / norm_sq, 0.05, co)
                                    for v, co in zip(values, coeffs))

    def test_one_solve_per_level(self, monkeypatch):
        calls = []

        def counting(v, lam, **kw):
            calls.append((np.shape(v), tuple(np.unique(lam))))
            return solve(v, lam, **kw)

        solve = mestimator.scale_from_squares
        monkeypatch.setattr(mestimator, "scale_from_squares", counting)
        monkeypatch.setattr(bounds, "scale_from_squares", counting, raising=False)
        s = self.sample()
        for theta in self.directions():
            confidence_interval(s, theta, self.GRID, MB3)
        assert calls == [((1, s.n), (lam,)) for lam, _ in self.GRID.points] * 2

    def test_directions_share_one_solve_per_level(self, monkeypatch):
        # all directions of confidence_intervals go to each level's solve
        # together, and each keeps the bits of its own interval
        s, grid = self.sample(), self.GRID
        thetas = self.directions() + [np.eye(3)[2]]
        alone = [confidence_interval(s, theta, grid, MB3) for theta in thetas]
        calls = []

        def counting(v, lam, **kw):
            calls.append(np.shape(v))
            return solve(v, lam, **kw)

        solve = bounds.scale_from_squares
        monkeypatch.setattr(bounds, "scale_from_squares", counting)
        assert confidence_intervals(s, thetas, grid, MB3) == alone
        assert calls == [(3, s.n)] * grid.K
        with pytest.raises(ValueError, match="n = 1000000"):
            confidence_intervals(s, thetas, dataclasses.replace(grid, n=10**6), MB3)

    def test_directions_split_over_tiles(self, monkeypatch):
        # with tiles of two rows, five directions go to each level in three
        # solves, and each keeps the bits of its own interval
        s, grid = self.sample(), self.GRID
        thetas = self.directions() + [*np.eye(3)]
        alone = [confidence_interval(s, theta, grid, MB3) for theta in thetas]
        calls = []

        def counting(v, lam, **kw):
            calls.append(np.shape(v))
            return solve(v, lam, **kw)

        solve = bounds.scale_from_squares
        monkeypatch.setattr(bounds, "scale_from_squares", counting)
        monkeypatch.setattr(mestimator, "TILE_ELEMS", 2 * s.n)
        assert confidence_intervals(s, thetas, grid, MB3) == alone
        assert calls == [(rows, s.n) for rows in (2, 2, 1) for _ in range(grid.K)]

    def test_levels_solve_the_rows_in_place(self, monkeypatch):
        # each level is one solve of the block itself, with the row means
        # taken once
        s, grid = self.sample(), self.GRID
        coeffs = coeffs_for_grid(grid, MB3)
        thetas = self.directions() + [np.array([0.3, 0.2, -0.9]), np.ones(3)]
        v = np.array([(s.data @ t) ** 2 for t in thetas])
        norm_sq = [float(t @ t) for t in thetas]
        whole = select_from_square_rows(v, norm_sq, grid, coeffs, 0.05)
        calls = []

        def counting(rows, lam, **kw):
            calls.append((rows, lam, kw["_mean"]))
            return solve(rows, lam, **kw)

        solve = bounds.scale_from_squares
        monkeypatch.setattr(bounds, "scale_from_squares", counting)
        assert select_from_square_rows(v, norm_sq, grid, coeffs, 0.05) == whole
        assert len(calls) == grid.K
        for (rows, lam, mean), (level, _) in zip(calls, grid.points):
            assert rows is v and mean is calls[0][2]
            np.testing.assert_array_equal(lam, np.full(len(v), level))
        np.testing.assert_array_equal(calls[0][2], v.mean(axis=1))

    def test_levels_copy_no_row(self):
        # a 40 x 20000 block of squares is 6.1 MiB; solved in place at
        # K = 4 the peak is the solver's work slab, where K copies of the
        # block peaked at 8.9 MiB
        grid = dataclasses.replace(self.GRID, n=20000)
        v = np.random.default_rng(31).standard_t(3, (40, 20000)) ** 2
        tracemalloc.start()
        try:
            bounds._tilde_n_grid(v, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < v.nbytes / 4

    def test_grid_for_another_n_is_rejected(self):
        # the coefficients use grid.n: at n = 10^6 on these 3000 rows the
        # interval came out empty (lower 2.59 > upper 2.37)
        s, grid = self.sample(), dataclasses.replace(self.GRID, n=10**6)
        theta = self.directions()[1]
        with pytest.raises(ValueError, match="n = 1000000"):
            confidence_interval(s, theta, grid, MB3)
        with pytest.raises(ValueError, match="n = 1000000"):
            select_hat_n(s, theta, grid, 0.05, MB3)

    def test_rows_select_as_one_row_each(self):
        s, grid = self.sample(), self.GRID
        coeffs = coeffs_for_grid(grid, MB3)
        thetas = self.directions() + [np.zeros(3)]
        v = np.array([(s.data @ t) ** 2 for t in thetas])
        norm_sq = [2.0, 1.0, 3.0]
        rows = select_from_square_rows(v, norm_sq, grid, coeffs, 0.05)
        assert rows == [select_from_square_rows(r[None], [ns], grid, coeffs, 0.05)[0]
                        for r, ns in zip(v, norm_sq)]
        assert rows[2].value == 0.0 and rows[0].value > 0.0


class TestEmpiricalBounds:
    MB = MomentBounds(kappa=3.0, s4=1.7, trace_g=2.0)

    def test_zero_radius_reduces_to_b_star(self):
        n, sigma, eps = 10**6, 0.05, 0.05
        K = grid_size(n, self.MB.kappa, 0.5)
        base = b_star(1.0, sigma, n, self.MB, K, eps)
        assert empirical_bounds(1.0, n, self.MB, sigma, eps, 0.0, "R") == pytest.approx(base)
        assert empirical_bounds(1.0, n, self.MB, sigma, eps, 0.0, "R_tilde") == pytest.approx(base)

    def test_saturated_correction_is_inf(self):
        assert empirical_bounds(1.0, 10**6, self.MB, 0.05, 0.05, 1e6, "R") == math.inf

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            empirical_bounds(1.0, 10**6, self.MB, 0.05, 0.05, 1.0, "bogus")

    def test_lambda_star_formula(self):
        n, K, eps, sigma = 10**6, grid_size(10**6, 3.0, 0.5), 0.05, 0.05
        c = C_UNIVERSAL
        t = 0.7
        expect = math.sqrt(
            2.0 / (n * 2.0)
            * ((2 + 3 * c) * self.MB.s4**2 / (4 * (2 + c) * math.sqrt(3.0) * t)
               + math.log(K / eps))
        )
        assert lambda_star(t, sigma, n, self.MB, K, eps) == pytest.approx(expect, rel=1e-12)

    def test_radius_envelope_positive_and_monotone_in_n(self):
        r1 = radius_envelope(2.0, 1.0, 0.5, 1.0, 100, 0.05)
        r2 = radius_envelope(2.0, 1.0, 0.5, 1.0, 10**4, 0.05)
        assert 0 < r1 < r2

    def test_sixth_moment_radius_bound_monte_carlo(self):
        # with probability >= 1 - 1/n the sixth-moment radius stays below
        # 2^(1/6) E[||X||^12]^(1/12); chi-square moments give the target
        d, n, trials = 3, 50, 400
        e12 = 1.0
        for k in range(6):
            e12 *= d + 2 * k
        cap = 2 ** (1.0 / 6.0) * e12 ** (1.0 / 12.0)
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(trials):
            x = rng.standard_normal((n, d))
            r_tilde = float(np.mean(np.sum(x * x, axis=1) ** 3)) ** (1.0 / 6.0)
            if r_tilde <= cap:
                hits += 1
        assert hits / trials >= 1.0 - 1.0 / n


class TestBlockCoefficients:
    def test_tau_q_spot(self):
        assert tau_q(3.0, 2) == pytest.approx(4.0)
        assert 1.0 + tau_q(3.0, 2) / 2 == pytest.approx(3.0)

    def test_tau_q_limit(self):
        assert tau_q(3.0, 10**6) == pytest.approx(2.0, rel=1e-5)

    def test_tau_q_rejects_small_q(self):
        with pytest.raises(ValueError):
            tau_q(3.0, 1)

    def test_zeta_q_simplified_branch(self):
        # q ||Sigma||_inf <= Tr(Sigma) activates the simplified formula
        t, q, kappa, tr, tr2, op, K, eps = 0.8, 2, 3.0, 5.0, 5.0, 1.0, 4, 0.05
        got = zeta_q(t, q, kappa, tr, tr2, op, K, eps)
        lt = math.log(K) + math.log(1 / eps)
        expect = (math.sqrt(ZETA_C1 * tau_q(kappa, q) * (ZETA_C2 * tr / t + lt))
                  + math.sqrt(ZETA_C3 * (kappa + 1 + 2 / (q * (q - 1))) * tr / t))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_zeta_q_full_branch(self):
        # dominant operator norm forces the full moment-ratio form
        t, q, kappa, tr, tr2, op, K, eps = 0.8, 2, 3.0, 5.0, 24.0, 4.9, 4, 0.05
        got = zeta_q(t, q, kappa, tr, tr2, op, K, eps)
        lt = math.log(K) + math.log(1 / eps)
        w = 1.0 - (q - 2) / (q * (q - 1))
        b1 = w * op + (kappa + 1 / (q - 1)) * tr / q
        b2 = w * tr2 + (kappa + 1 / (q - 1)) * tr**2 / q
        expect = (math.sqrt(ZETA_C1 * tau_q(kappa, q) * (ZETA_C2 * b2 / (b1 * t) + lt))
                  + math.sqrt(ZETA_C3 * q * b1 / t))
        assert got == pytest.approx(expect, rel=1e-12)


class TestSymZetaStar:
    def test_rank_one_reduction_toward_gram_form(self):
        # for A = X X^T, ||A||_inf^2 = Tr(A^2); with E Tr A = Tr(G) the trace
        # form reproduces the Gram-matrix complexity term
        t, K, eps = 0.9, 5, 0.05
        mb = MomentBounds(kappa=3.0, s4=1.3, trace_g=2.0)
        got = sym_zeta_star(t, e_tr_a=mb.trace_g, e_tr_a2=0.0, e_opnorm_a2=0.0,
                            kappa=mb.kappa, K=K, epsilon=eps, form="trace")
        assert got == pytest.approx(zeta_star(t, mb, K, eps), rel=1e-12)

    def test_inequality_chain_on_wishart_samples(self):
        # E||A||inf^2 / k^(1/2) <= E Tr(A^2) / (k^(1/2) E||A||inf^2^(1/2)) ... <= E Tr A
        rng = np.random.default_rng(6)
        d, m = 4, 4000
        x = rng.standard_normal((m, d))
        a = np.einsum("mi,mj->mij", x, x)  # rank-one PSD
        op2 = np.array([np.linalg.eigvalsh(ai).max() ** 2 for ai in a])
        tr2 = np.einsum("mij,mij->m", a, a)
        tra = np.trace(a, axis1=1, axis2=2)
        kappa = 3.0
        lhs = math.sqrt(np.mean(op2)) / math.sqrt(kappa)
        mid = np.mean(tr2) / (math.sqrt(kappa) * math.sqrt(np.mean(op2)))
        rhs = np.mean(tra)
        assert lhs <= mid * (1 + 1e-9)
        assert mid <= rhs * (1 + 1e-9)

    def test_full_form_spot(self):
        t, K, eps, kappa = 0.7, 5, 0.05, 3.0
        e_tr_a2, e_op2 = 7.0, 3.0
        got = sym_zeta_star(t, 2.0, e_tr_a2, e_op2, kappa, K, eps, form="full")
        lt = math.log(K) + math.log(1 / eps)
        s = math.sqrt(e_op2)
        expect = (math.sqrt(ZETA_C1 * (kappa - 1) * (ZETA_C2 * e_tr_a2 / (math.sqrt(kappa) * s * t) + lt))
                  + math.sqrt(ZETA_C3 * math.sqrt(kappa) * s / t))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_form_validation(self):
        with pytest.raises(ValueError):
            sym_zeta_star(1.0, 1.0, 1.0, 1.0, 3.0, 5, 0.05, form="nope")
