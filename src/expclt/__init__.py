"""Central limit behavior of long products of random matrix exponentials.

The package simulates xi_n = sqrt(n) (e^{A_1/n} ... e^{A_n/n} - e^{EA}) for
i.i.d. bounded random matrices A_k, evaluates the limiting covariance
Sigma = int_0^1 (e^{EA s})^{ox2} C (e^{EA (1-s)})^{ox2} ds by several
independent routes, and checks the martingale structure that drives the
normal limit. Everything downstream of a master seed is reproducible
bit-for-bit, independent of worker count.
"""

__version__ = "0.13.0"

from .covariance import (
    CovarianceOperator,
    sigma_commuting_oracle,
    sigma_full,
    sigma_projected,
)
from .dynamics import (
    DoobCheck,
    LemmaSpeedPoint,
    PrecomputedKernel,
    TrajectorySample,
    decompose_xi_prime,
    diff_moment_curve,
    dnk_norm_bound,
    doob_check,
    doob_decomposition,
    kernel_consistency,
    lemma_speed_curve,
    lindeberg_max_norm,
    lindeberg_threshold,
    martingale_difference,
    max_dnk_norm,
    precompute_kernel,
    riemann_cov_error,
    riemann_cov_value,
    sample_xi,
    xi_prime_telescoping,
)
from .ensembles import (
    Ensemble,
    RngStream,
    deterministic,
    diagonal_uniform,
    finite_support,
    two_point,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    RunReport,
    config_digest,
    emit_csv,
    load_config,
    run,
)
from .linalg import QuadratureRule, gauss_legendre, mat_exp, op_norm
from .stats import (
    KS_CRITICAL_01,
    SampleStatistics,
    SlopeFit,
    fit_slope,
    ks_test,
    normal_cdf,
    summarize,
)

__all__ = [
    "__version__",
    "CovarianceOperator",
    "sigma_commuting_oracle",
    "sigma_full",
    "sigma_projected",
    "DoobCheck",
    "LemmaSpeedPoint",
    "PrecomputedKernel",
    "TrajectorySample",
    "decompose_xi_prime",
    "diff_moment_curve",
    "dnk_norm_bound",
    "doob_check",
    "doob_decomposition",
    "kernel_consistency",
    "lemma_speed_curve",
    "lindeberg_max_norm",
    "lindeberg_threshold",
    "martingale_difference",
    "max_dnk_norm",
    "precompute_kernel",
    "riemann_cov_error",
    "riemann_cov_value",
    "sample_xi",
    "xi_prime_telescoping",
    "Ensemble",
    "RngStream",
    "deterministic",
    "diagonal_uniform",
    "finite_support",
    "two_point",
    "ConfigError",
    "ExperimentConfig",
    "RunReport",
    "config_digest",
    "emit_csv",
    "load_config",
    "run",
    "QuadratureRule",
    "gauss_legendre",
    "mat_exp",
    "op_norm",
    "KS_CRITICAL_01",
    "SampleStatistics",
    "SlopeFit",
    "fit_slope",
    "ks_test",
    "normal_cdf",
    "summarize",
]
