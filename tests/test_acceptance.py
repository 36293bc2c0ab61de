"""End-to-end acceptance suite.

Each test covers one numbered criterion at its stated tolerance and prints a
single PASS/FAIL line (visible with ``pytest -s`` or on failure).  The whole
module runs in a few minutes single-threaded; the heavyweight pieces are the
500-trial benchmark reproduction and the 300-trial coverage study.
"""

import math

import numpy as np
import pytest

from robustgram.bounds import Grid, MomentBounds, confidence_interval
from robustgram.gram import empirical_gram, frobenius_error, iterate_polarization, robust_gram
from robustgram.harness import ExperimentConfig, kappa_plugin, run_benchmark
from robustgram.influence import C_UNIVERSAL, P1, SUP_CHI, Z1, chi, psi, psi_prime
from robustgram.mestimator import Sample, scale_from_squares, tilde_n

from oracles import (
    bisect_scale,
    block_matrices,
    central_difference,
    mean_of_squares,
    random_orthogonal,
)


def report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def paper_scale_run():
    cfg = ExperimentConfig(n=100, d=10, trials=500, alpha_mix=0.05,
                           contaminant_scale=16.0, seed=20260809, epsilon=0.1,
                           num_updates=4)
    results = run_benchmark(cfg)
    rob = np.array([r.error_robust for r in results])
    emp = np.array([r.error_empirical for r in results])
    return rob, emp


def test_criterion_1_benchmark_reproduction(paper_scale_run):
    rob, emp = paper_scale_run
    mean_r, mean_e = rob.mean(), emp.mean()
    std_r, std_e = rob.std(ddof=1), emp.std(ddof=1)
    ok = (4.4 <= mean_r <= 6.8) and (11.0 <= mean_e <= 20.0) and (std_r < std_e)
    report(1, ok, f"robust {mean_r:.2f} (std {std_r:.2f}) in [4.4, 6.8]; "
                  f"empirical {mean_e:.2f} (std {std_e:.2f}) in [11, 20]")


def test_criterion_2_quick_mode():
    cfg = ExperimentConfig(n=100, d=10, trials=50, alpha_mix=0.05, seed=99,
                           epsilon=0.1, num_updates=4)
    results = run_benchmark(cfg)
    rob = np.mean([r.error_robust for r in results])
    emp = np.mean([r.error_empirical for r in results])
    ok = rob < emp and rob < 9.0
    report(2, ok, f"50 trials: robust {rob:.2f} < empirical {emp:.2f} and < 9")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 9))
        s = Sample(rng.standard_normal((n, d)))
        est = iterate_polarization(s.data, estimate=mean_of_squares)
        dist = math.sqrt(frobenius_error(est.matrix, empirical_gram(s)))
        worst = max(worst, dist)
    report(3, worst <= 1e-10, f"100 instances; worst Frobenius distance {worst:.2e} <= 1e-10")


def test_criterion_4_scalar_solver_oracle():
    rng = np.random.default_rng(404)
    cases = []
    for _ in range(600):  # generic
        cases.append(rng.standard_normal(int(rng.integers(2, 41))))
    for _ in range(200):  # two-point
        cases.append(np.array([0.0, float(rng.uniform(0.2, 5.0))]))
    for _ in range(200):  # near-constant
        n = int(rng.integers(3, 30))
        cases.append(1.0 + 1e-5 * rng.standard_normal(n))
    worst = 0.0
    for p in cases:
        lam = float(rng.uniform(0.05, 0.9))
        res = scale_from_squares((p * p)[None], np.array([lam]))
        ref = bisect_scale(p * p, lam)
        worst = max(worst, abs(res.value[0] - ref) / ref)
    report(4, worst <= 1e-10, f"1000 instances; worst relative gap {worst:.2e} <= 1e-10")


def test_criterion_5_influence_suite():
    z = np.linspace(-10.0, 10.0, 10_000)
    psi_v, chi_v = psi(z), chi(z)
    upper = np.log1p(z + 0.5 * z * z)
    mask = z <= 1.0
    lower_ok = np.all(-np.log1p(-z[mask] + 0.5 * z[mask] ** 2) <= psi_v[mask] + 1e-12)
    sandwich_ok = lower_ok and np.all(psi_v <= chi_v + 1e-15) and np.all(chi_v <= upper + 1e-12)
    anti_ok = np.max(np.abs(psi(-z) + psi_v)) == 0.0
    mono_ok = np.all(np.diff(psi_v) >= 0.0) and np.all(np.diff(chi_v) >= -1e-15)
    diff_ok = all(
        abs(psi_prime(float(t)) - central_difference(psi, float(t))) <= 1e-6
        for t in np.linspace(-3, 3, 1501) if min(abs(t - 1.0), abs(t + 1.0)) > 1e-3
    )
    ok = sandwich_ok and anti_ok and mono_ok and diff_ok
    report(5, ok, f"sandwich {sandwich_ok}, antisymmetry {anti_ok}, "
                  f"monotone {mono_ok}, derivative {diff_ok} at 10^4 grid points")


def test_criterion_6_constants_audit():
    c = 15.0 / (8.0 * math.log(2.0) * (math.sqrt(2.0) - 1.0)) \
        * math.exp((1.0 + 2.0 * math.sqrt(2.0)) / 2.0)
    root = math.sqrt(4.0 * math.sqrt(2.0) - 5.0)
    sup = -math.log(2.0 * (math.sqrt(2.0) - 1.0)) + (1.0 + 2.0 * math.sqrt(2.0)) / 2.0
    stored_ok = (abs(c - C_UNIVERSAL) <= 1e-12 and abs(1.0 - root - Z1) <= 1e-12
                 and abs(root / (2.0 * (math.sqrt(2.0) - 1.0)) - P1) <= 1e-12
                 and abs(sup - SUP_CHI) <= 1e-12)
    c_ok = c <= 44.3

    def sig3(x):
        return float(f"{x:.3g}")

    derived = {
        2.032: 2.0 * math.cosh(0.125) ** 2,
        0.73: (2.0 + 3.0 * c) / (4.0 * (2.0 + c)),
        98.5: 2.0 * (2.0 + c) * math.cosh(0.25) ** 2,
    }
    # printed values are upward roundings agreeing to 3 significant figures
    rounding_ok = all(exact <= printed and sig3(exact) <= printed
                      and (printed - exact) / printed <= 0.01
                      for printed, exact in derived.items())
    ok = stored_ok and c_ok and rounding_ok
    report(6, ok, f"c = {c:.4f} <= 44.3; stored constants at 1e-12; "
                  f"2.032 / 0.73 / 98.5 provenance confirmed")


def test_criterion_7_homogeneity_and_equivariance():
    rng = np.random.default_rng(707)
    worst_hom = 0.0
    for _ in range(30):
        s = Sample(rng.standard_normal((int(rng.integers(5, 40)), 3)))
        theta = rng.standard_normal(3)
        lam = float(rng.uniform(0.05, 0.6))
        base = tilde_n(s, theta, lam)
        if base == 0.0:
            continue
        for c in (0.3, 2.0, 11.0):
            got = tilde_n(s, c * theta, lam)
            worst_hom = max(worst_hom, abs(got - c * c * base) / (c * c * base))
    hom_ok = worst_hom <= 1e-8

    worst_eq = 0.0
    for seed in range(5):
        r2 = np.random.default_rng(7000 + seed)
        s = Sample(r2.standard_normal((60, 4)))
        q0 = robust_gram(s, epsilon=0.1).matrix
        rot = random_orthogonal(4, r2)
        q_rot = robust_gram(Sample(s.data @ rot.T), epsilon=0.1).matrix
        target = rot @ q0 @ rot.T
        worst_eq = max(worst_eq, math.sqrt(frobenius_error(q_rot, target))
                       / np.linalg.norm(target))
        c = float(r2.uniform(0.2, 5.0))
        q_scaled = robust_gram(Sample(c * s.data), epsilon=0.1).matrix
        worst_eq = max(worst_eq, math.sqrt(frobenius_error(q_scaled, c * c * q0))
                       / (c * c * np.linalg.norm(q0)))
    eq_ok = worst_eq <= 1e-6
    ok = hom_ok and eq_ok
    report(7, ok, f"homogeneity gap {worst_hom:.2e} <= 1e-8; "
                  f"equivariance gap {worst_eq:.2e} <= 1e-6")


def test_criterion_8_coverage():
    # Standard Gaussian in dimension 5: the true energy is 1 in every unit
    # direction.  n = 2000 sits below the theoretical-grid threshold
    # (about 5773 for kappa = 3), so the confidence maps are valid for any
    # finite (lambda, beta) set; we supply a fixed one-point grid.  The
    # theory is conservative here, so the test is one-sided.
    n, d, eps, trials, n_dirs = 2000, 5, 0.05, 300, 20
    mb = MomentBounds(kappa=3.0, s4=(d * d + 2.0 * d) ** 0.25, trace_g=float(d),
                      trace_g2=float(d))
    grid = Grid(points=((0.05, 1500.0),), K=1, a=0.5, epsilon=eps, n=n)
    covered_trials = 0
    for seed in range(trials):
        rng = np.random.default_rng(808_000 + seed)
        s = Sample(rng.standard_normal((n, d)))
        raw = rng.standard_normal((n_dirs, d))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        if all(lo <= 1.0 <= hi for lo, hi in
               (confidence_interval(s, th, grid, mb) for th in dirs)):
            covered_trials += 1
    rate = covered_trials / trials
    ok = rate >= 1.0 - 2.0 * eps
    report(8, ok, f"coverage {rate:.3f} >= {1 - 2 * eps:.2f} over {trials} trials "
                  f"x {n_dirs} directions")


def test_criterion_9_covariance_block_suite():
    from robustgram.bounds import block_moment_bounds, tau_q
    from robustgram.covariance import _pair_differences, robust_covariance
    from robustgram.mestimator import r_lambda

    # translation invariance, exact: lattice data so the shift adds exactly
    rng = np.random.default_rng(909)
    base = np.round(4096.0 * rng.standard_normal((60, 3))) / 1024.0
    shift = np.array([23.0, -7.0, 101.0])
    q_a = robust_covariance(Sample(base), q=2, epsilon=0.1).matrix
    q_b = robust_covariance(Sample(base + shift), q=2, epsilon=0.1).matrix
    trans_ok = np.array_equal(q_a, q_b)

    # q = 2 reduction, exact: the block criterion on the generating vectors,
    # theta^T A_i theta being the group sum of squared projections
    s = Sample(rng.standard_normal((16, 3)))
    vectors = _pair_differences(s, 2)
    diffs = (s.data[0::2] - s.data[1::2]) / math.sqrt(2.0)
    theta = rng.standard_normal(3)
    block_values = np.sum((vectors @ theta) ** 2, axis=1)
    red_ok = all(
        abs(float(np.mean(psi(block_values - lam))) - r_lambda(Sample(diffs), theta, lam))
        <= 1e-14
        for lam in (0.1, 0.4, 0.8)
    )

    # Monte Carlo: Lemma bounds for Gaussian data, q in {2, 3, 5}, 3 SE slack
    mc_ok = True
    sigma = np.diag([1.5, 1.0, 0.5])
    for q in (2, 3, 5):
        r2 = np.random.default_rng(9000 + q)
        x = r2.standard_normal((3000 * q, 3)) * np.sqrt(np.diag(sigma))
        vectors = _pair_differences(Sample(x), q)
        blocks = block_matrices(vectors)
        m = len(blocks)
        th = np.array([0.6, -0.8, 0.4])
        n_th = th @ sigma @ th
        v = np.sum((vectors @ th) ** 2, axis=1)
        a, b = float(np.mean(v * v)), float(np.mean(v))
        infl = (v * v - a) / (b * b) - 2.0 * a * (v - b) / b**3
        se_k = infl.std(ddof=1) / math.sqrt(m)
        mc_ok &= a / (b * b) <= 1.0 + tau_q(3.0, q) / q + 3.0 * se_k

        bound1, bound2 = block_moment_bounds(sigma, 3.0, q)
        a_th = np.einsum("mij,j->mi", blocks, th)
        a_th_sq = np.sum(a_th * a_th, axis=1)
        mc_ok &= (a_th_sq.mean()
                  <= bound1 * n_th + 3.0 * a_th_sq.std(ddof=1) / math.sqrt(m))
        tr2 = np.einsum("mij,mij->m", blocks, blocks)
        mc_ok &= tr2.mean() <= bound2 + 3.0 * tr2.std(ddof=1) / math.sqrt(m)

    ok = trans_ok and red_ok and bool(mc_ok)
    report(9, ok, f"translation exact {trans_ok}, q=2 reduction exact {red_ok}, "
                  f"moment lemmas in MC {bool(mc_ok)}")


def test_criterion_10_gaussian_kappa_sanity():
    hits = 0
    seeds = 100
    for seed in range(seeds):
        rng = np.random.default_rng(10_000 + seed)
        s = Sample(rng.standard_normal((10_000, 5)))
        k = kappa_plugin(s, n_directions=100, seed=seed)
        if 2.5 <= k <= 3.5:
            hits += 1
    ok = hits >= 0.9 * seeds
    report(10, ok, f"plug-in kurtosis in [2.5, 3.5] on {hits}/{seeds} seeds (need >= 90)")
