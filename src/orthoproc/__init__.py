"""Truncated orthonormal-polynomial models of phi-sub-Gaussian processes.

Builds X_N(t) = sum_k xi_k ahat_k(t) over Legendre, generalized Laguerre, or
Gegenbauer bases, certifies the truncation error constant C_N against
reliability/accuracy thresholds, selects the minimal passing order, and
verifies the certificate by deterministic Monte Carlo.
"""

from .bounds import (
    BoundReport,
    CNCurve,
    Resolution,
    SelectionResult,
    c_n_bound,
    c_n_curve,
    check_conditions,
    gf_square_integral,
    gf_square_integral_oracle,
    select_N,
)
from .cli import DEFAULT_SEED, main
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    UnknownKernelError,
    UnsupportedRegimeError,
)
from .orlicz import (
    OrliczSpec,
    TailBoundSpec,
    tail_weights,
    tau_bound,
    threshold_accuracy,
    threshold_reliability,
)
from .orthopoly import (
    MAX_DEGREE,
    PolynomialFamily,
    gegenbauer,
    gegenbauer_norm_squared,
    generating_function,
    laguerre,
    legendre,
    legendre_pair,
    orthonormal_block,
    partial_gf_sum,
)
from .process import (
    XI_MODES,
    CoefficientTable,
    Kernel,
    ProcessSpec,
    VerificationReport,
    builtin_kernel,
    compute_coefficients,
    draw_xi,
    kernel_names,
    path_rng,
    synthesize_path,
    verify_reliability,
)
from .quadrature import (
    MAX_NODES,
    QuadratureRule,
    adaptive_simpson,
    cosine_mapped_rule,
    gauss_legendre_rule,
    integrate,
    rule_for_family,
    semi_infinite_rule,
    simpson_weights,
)
from .specfun import (
    ITERATION_BUDGET,
    SpecFunResult,
    hyp2f1,
    hyp2f1_quadratic,
    hyp2f1_regularized,
    hyp2f1_series,
    log_gamma,
    upper_incomplete_gamma,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
