"""zetalab: a numerical laboratory for Riemann zeta identities.

Evaluators for zeta/eta and their alternative representations, arithmetic
sieves with a Dirichlet convolution engine, the reflection factors nu,
theta, and kappa, zero location/counting by the argument principle, and a
deterministic claim-verification harness with a CLI front end.
"""

from .arith import (
    ArithTable,
    CoeffSeq,
    build_table,
    dirichlet_convolve,
    dirichlet_series,
    sigma_paper,
)
from .harness import REGISTRY, all_assertions_pass, grid_scan, run_all, run_check
from .reflect import NuClassification, classify_nu, conj_ratio, kappa, nu, theta
from .reporting import VERSION as __version__
from .reporting import CheckResult, RunConfig, emit_report
from .specfun import EvalResult, gamma, half_cos, recip_gamma_euler, xi_factor
from .zeros import Rect, ZeroRecord, check_line_zeros, count_zeros_rect, find_critical_zeros, multiplicity
from .zeta_eval import (
    DEFAULT_CONFIG,
    EvalConfig,
    eta,
    eta_integral,
    eta_many,
    euler_product,
    log_deriv_zeta,
    zeta,
    zeta_floor_integral,
    zeta_many,
    zeta_reflect,
)

__all__ = [
    "ArithTable",
    "CheckResult",
    "CoeffSeq",
    "DEFAULT_CONFIG",
    "EvalConfig",
    "EvalResult",
    "NuClassification",
    "REGISTRY",
    "Rect",
    "RunConfig",
    "ZeroRecord",
    "all_assertions_pass",
    "build_table",
    "check_line_zeros",
    "classify_nu",
    "conj_ratio",
    "count_zeros_rect",
    "dirichlet_convolve",
    "dirichlet_series",
    "emit_report",
    "eta",
    "eta_integral",
    "eta_many",
    "euler_product",
    "find_critical_zeros",
    "gamma",
    "grid_scan",
    "half_cos",
    "kappa",
    "log_deriv_zeta",
    "multiplicity",
    "nu",
    "recip_gamma_euler",
    "run_all",
    "run_check",
    "sigma_paper",
    "theta",
    "xi_factor",
    "zeta",
    "zeta_floor_integral",
    "zeta_many",
    "zeta_reflect",
]
