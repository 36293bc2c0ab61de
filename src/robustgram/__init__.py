"""Robust, dimension-free estimation of Gram and covariance matrices."""

from .bounds import (
    BoundCoeffs,
    Grid,
    MomentBounds,
    b_bound,
    b_star,
    block_moment_bounds,
    bound_coeffs,
    confidence_interval,
    confidence_intervals,
    empirical_bounds,
    make_grid,
    phi_minus,
    phi_plus,
    phi_plus_inverse,
    select_hat_n,
    sigma_default,
    sym_zeta_star,
    tau_q,
    zeta_q,
    zeta_star,
)
from .covariance import robust_covariance
from .gram import (
    GramEstimate,
    NumericalError,
    empirical_gram,
    frobenius_error,
    polarization_update,
    positive_part,
    robust_gram,
)
from .harness import (
    BenchmarkError,
    ConfigError,
    ExperimentConfig,
    TrialResult,
    estimate_moment_bounds,
    gen_mixture,
    kappa_plugin,
    quantile_curve,
    run_benchmark,
    true_gram,
)
from .influence import chi, psi, psi_prime
from .mestimator import (
    Sample,
    ScaleResult,
    alpha_hat,
    r_lambda,
    tilde_n,
)

__version__ = "0.1.0"
