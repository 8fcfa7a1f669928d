"""Numerical machinery for unimodular fake Mobius functions.

Submodules:
    eps_model        epsilon sequences, generating functions, (z, w) parameters
    sieve            ground-truth evaluation of f(n) and direct summatory sums
    zeta_kernel      zeta/gamma evaluators, branch-tracked logarithms, zeros
    euler_residual   residual Euler product G(s)
    explicit_formula Laplace/Watson explicit formula for the smoothed sum
    bias             normalized summatory function and bias classification
    cli              command-line interface
"""

from .eps_model import EpsilonSpec, FactorParams, eps_at, g_eval, parse_eps_spec, zw_params
from .errors import (
    CapacityError,
    ConsistencyError,
    CutError,
    DomainError,
    FakeMuError,
    GridError,
    ParseError,
    PlatformError,
    PoleError,
    QuadratureError,
    RangeError,
    StepError,
    WindowError,
)

__all__ = [
    "EpsilonSpec",
    "FactorParams",
    "parse_eps_spec",
    "eps_at",
    "zw_params",
    "g_eval",
    "FakeMuError",
    "ParseError",
    "PlatformError",
    "DomainError",
    "RangeError",
    "PoleError",
    "CutError",
    "StepError",
    "CapacityError",
    "ConsistencyError",
    "QuadratureError",
    "GridError",
    "WindowError",
]

__version__ = "0.1.0"
