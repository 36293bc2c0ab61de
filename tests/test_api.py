"""The public names of the package; adding or removing one means editing this list."""

import types

import robustgram

PUBLIC_API = [
    "BenchmarkError", "BoundCoeffs", "ConfigError", "ExperimentConfig", "GramEstimate",
    "Grid", "MomentBounds", "NumericalError", "Sample", "ScaleResult", "TrialResult",
    "alpha_hat", "b_bound", "b_star", "block_moment_bounds", "bound_coeffs", "chi",
    "confidence_interval", "confidence_intervals", "empirical_bounds", "empirical_gram",
    "estimate_moment_bounds",
    "frobenius_error", "gen_mixture", "kappa_plugin", "make_grid", "phi_minus", "phi_plus",
    "phi_plus_inverse", "polarization_update", "positive_part", "psi", "psi_prime",
    "quantile_curve", "r_lambda", "robust_covariance", "robust_gram", "run_benchmark",
    "select_hat_n", "sigma_default", "sym_zeta_star", "tau_q", "tilde_n", "true_gram",
    "zeta_q", "zeta_star",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(robustgram).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_API
