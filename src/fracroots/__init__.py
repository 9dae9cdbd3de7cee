"""Multi-root solver built on fractional derivatives of constants.

A pseudo-Newton iteration whose chord slope is the Riemann-Liouville
derivative of the constant 1 finds many real and complex roots of nonlinear
functions and systems from a single initial condition by sweeping the
fractional order.  Ships evaluators for truncated Ci/Si series, zeta as one
globally convergent exact-weight sum, and zeta via its functional equation.
"""

from .errors import (
    DomainError,
    EvaluationError,
    InsufficientDataError,
    NumericalFailureError,
    PoleError,
    QuadratureError,
)
from .fracderiv import (
    FracOrder,
    PowerFunctionSpec,
    complex_power,
    rl_deriv_constant,
    rl_deriv_monomial,
    rl_deriv_shifted_power,
    rl_deriv_via_quadrature,
    rl_integral_quadrature,
    semigroup_check,
)
from .solver import (
    FpnConfig,
    IterationTrace,
    RootRecord,
    SolveStatus,
    build_p_matrix,
    estimate_convergence_order,
    fpn_solve,
    fpn_step,
    round_iterate,
)
from .specfun import (
    beta,
    binomial,
    gamma_real,
    incomplete_beta_regularized,
    log_gamma_complex,
)
from .sweep import AlphaGrid, SweepReport, UniqueRoot, run_sweep, stability_probe
from .targets import (
    EULER_MASCHERONI,
    TargetFunction,
    ci_series,
    example3_system,
    hasse_zeta,
    make_target,
    parse_complex,
    parse_complex_vector,
    polynomial,
    si_series,
    zeta_functional,
    zeta_functional_target,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaGrid",
    "DomainError",
    "EULER_MASCHERONI",
    "EvaluationError",
    "FpnConfig",
    "FracOrder",
    "InsufficientDataError",
    "IterationTrace",
    "NumericalFailureError",
    "PoleError",
    "PowerFunctionSpec",
    "QuadratureError",
    "RootRecord",
    "SolveStatus",
    "SweepReport",
    "TargetFunction",
    "UniqueRoot",
    "beta",
    "binomial",
    "build_p_matrix",
    "ci_series",
    "complex_power",
    "estimate_convergence_order",
    "example3_system",
    "fpn_solve",
    "fpn_step",
    "gamma_real",
    "hasse_zeta",
    "incomplete_beta_regularized",
    "log_gamma_complex",
    "make_target",
    "parse_complex",
    "parse_complex_vector",
    "polynomial",
    "rl_deriv_constant",
    "rl_deriv_monomial",
    "rl_deriv_shifted_power",
    "rl_deriv_via_quadrature",
    "rl_integral_quadrature",
    "round_iterate",
    "run_sweep",
    "semigroup_check",
    "si_series",
    "stability_probe",
    "zeta_functional",
    "zeta_functional_target",
]
