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
    sigma_paper,
)
from .harness import REGISTRY, all_assertions_pass, grid_scan, run_all, run_check
from .reflect import NuClassification, classify_nu, conj_ratio, kappa, nu, theta
from .reporting import VERSION as __version__
from .reporting import CheckResult, RunConfig, emit_report
from .specfun import EvalResult, gamma, half_cos
from .zeros import Rect, ZeroRecord, check_line_zeros, count_zeros_rect, find_critical_zeros, multiplicity
from .zeta_eval import eta, eta_many, zeta, zeta_floor_integral, zeta_many, zeta_reflect

__all__ = [
    "ArithTable",
    "CheckResult",
    "CoeffSeq",
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
    "emit_report",
    "eta",
    "eta_many",
    "find_critical_zeros",
    "gamma",
    "grid_scan",
    "half_cos",
    "kappa",
    "multiplicity",
    "nu",
    "run_all",
    "run_check",
    "sigma_paper",
    "theta",
    "zeta",
    "zeta_floor_integral",
    "zeta_many",
    "zeta_reflect",
]
