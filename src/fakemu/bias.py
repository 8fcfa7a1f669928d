"""Normalized summatory function and bias classification.

B(x) = (A_exp(x) - Delta_1(x)) / (sqrt(x) (log x)^{w-1}) measures the
secondary term against its natural scale.  The trichotomy:

  Re(z+w) > 0 and c_1/2 != 0   persistent bias (B converges to c_1/2)
  Re(z+w) = 0 and c_1/2 != 0   apparent bias (bounded, non-convergent,
                               logarithmic Cesaro mean c_1/2)
  Re(z+w) < 0                  B unbounded
  c_1/2 = 0 (Re(z+w) >= 0)     no nonzero bias

Integer z (in {-1,0,1}) or w = 1 route through residue formulas instead of
Hankel integrals and are reported as INTEGER_SPECIAL, carrying the c_1/2
value of the applicable path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Optional

import numpy as np

from .eps_model import EpsilonSpec, FactorParams, zw_params
from .errors import CapacityError, DomainError, GridError
from .explicit_formula import FormulaConfig, _require_x, c_half, delta_1, delta_half_and_zero_sum
from .sieve import DIRECT_X_CAP, direct_exp_sums_multi

PERSISTENT = "PERSISTENT"
APPARENT = "APPARENT"
NO_NONZERO_BIAS = "NO_NONZERO_BIAS"
UNBOUNDED = "UNBOUNDED"
INTEGER_SPECIAL = "INTEGER_SPECIAL"

DIRECT = "DIRECT"
FORMULA = "FORMULA"

_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class BiasReport:
    params: FactorParams
    c_half: complex
    classification: str
    re_z_plus_w: float
    notes: tuple[str, ...]


@dataclass(frozen=True)
class TrajectorySample:
    x: float
    B: complex
    B_centered: complex
    mode: str


def _scale(x: float, w: complex) -> complex:
    # (log x)^{w-1} via exp((w-1) ln ln x); log x > 1 for x >= 3 so the
    # real logarithm pins the branch
    return math.sqrt(x) * cmath.exp((w - 1.0) * math.log(math.log(x)))


def _B_values(
    spec: EpsilonSpec, xs: np.ndarray, mode: str, cfg: FormulaConfig
) -> list[complex]:
    """B at ascending xs >= 3.  DIRECT sums f(n) e^{-n/x} in one sieve
    sweep for all xs; FORMULA takes Delta_{1/2} and the zero sum from one
    pass of the explicit formula per x.  Delta_1 always comes from the
    formula/residue path, and comes first: a window error exits before
    the sieve runs."""
    w = zw_params(spec).w
    if mode == FORMULA:
        parts = (delta_half_and_zero_sum(spec, float(x), cfg) for x in xs)
        numer = [dh + zs for dh, zs in parts]
    elif mode == DIRECT:
        d1 = [delta_1(spec, float(x), cfg) for x in xs]
        numer = [complex(a) - d for a, d in zip(direct_exp_sums_multi(spec, xs), d1)]
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return [v / _scale(float(x), w) for x, v in zip(xs, numer)]


def B_of_x(
    spec: EpsilonSpec,
    x: float,
    mode: str = DIRECT,
    cfg: Optional[FormulaConfig] = None,
) -> complex:
    """Normalized summatory value at x >= 3: trajectory's one-point case."""
    mode = mode.upper() if isinstance(mode, str) else mode  # else an unknown mode
    return _B_values(spec, np.array([_require_x(x)]), mode, cfg or FormulaConfig())[0]


def classify(spec: EpsilonSpec, cfg: Optional[FormulaConfig] = None) -> BiasReport:
    """Three-way bias classification from (z, w) and c_1/2."""
    if cfg is None:
        cfg = FormulaConfig()
    pars = zw_params(spec)
    c = c_half(spec, cfg)  # WindowError outside Re w < 1, as every part
    notes = []
    rzw = pars.re_z_plus_w
    if pars.z_integer_case is not None or pars.w_is_one:
        label = INTEGER_SPECIAL
        if pars.z_integer_case is not None:
            notes.append(f"z = {pars.z_integer_case}: residue/vanishing paths in effect")
        if pars.w_is_one:
            notes.append("w = 1: Delta_1/2 and c_1/2 from the residue of zeta(2s)")
    elif rzw < -_ZERO_TOL:
        label = UNBOUNDED
        notes.append("Re(z+w) < 0: normalized summatory function is unbounded")
    elif abs(c) <= _ZERO_TOL:
        label = NO_NONZERO_BIAS
        notes.append("c_1/2 = 0: no nonzero bias at this scale")
    elif rzw > _ZERO_TOL:
        label = PERSISTENT
        notes.append("B(x) converges to c_1/2 at logarithmic rate")
    else:
        label = APPARENT
        notes.append(
            "consistent with apparent bias: bounded, Cesaro mean c_1/2, "
            "no pointwise limit"
        )
    return BiasReport(
        params=pars,
        c_half=c,
        classification=label,
        re_z_plus_w=rzw,
        notes=tuple(notes),
    )


def cesaro_mean(samples: list[TrajectorySample], b: complex) -> complex:
    """Trapezoid logarithmic Cesaro mean of B - b over a log-uniform grid."""
    if len(samples) < 10:
        raise GridError("cesaro_mean needs at least 10 samples")
    xs = np.array([s.x for s in samples])
    if np.any(np.diff(xs) <= 0):
        raise GridError("samples must be strictly ascending in x")
    lx = np.log(xs)
    steps = np.diff(lx)
    mean_step = float(np.mean(steps))
    if np.max(np.abs(steps - mean_step)) > 0.01 * mean_step:
        raise GridError("samples are not log-uniform within 1%")
    f = np.array([s.B for s in samples]) - b
    integral = complex(np.sum(0.5 * (f[1:] + f[:-1]) * steps))
    return integral / (lx[-1] - lx[0])


def trajectory(
    spec: EpsilonSpec,
    x_min: float,
    x_max: float,
    n_points: int,
    grid: str = "LOG",
    mode: str = DIRECT,
    cfg: Optional[FormulaConfig] = None,
) -> list[TrajectorySample]:
    """Samples of B(x) on a LOG- or LOGLOG-uniform grid.

    DIRECT mode reuses one segmented sieve sweep for all samples and
    refuses x_max > 1e8.
    """
    x_min, x_max = _require_x(x_min), _require_x(x_max)
    if not x_min < x_max:
        raise DomainError("need 3 <= x_min < x_max < inf")
    if isinstance(n_points, bool) or not isinstance(n_points, Integral):
        raise DomainError(f"n_points must be an integer, got {n_points!r}")
    if not (2 <= n_points <= 10 ** 5):
        raise DomainError("n_points must be in [2, 1e5]")
    if cfg is None:
        cfg = FormulaConfig()
    mode, grid = (v.upper() if isinstance(v, str) else v for v in (mode, grid))  # else unknown
    if grid == "LOG":
        xs = np.exp(np.linspace(math.log(x_min), math.log(x_max), n_points))
    elif grid == "LOGLOG":
        xs = np.exp(
            np.exp(
                np.linspace(
                    math.log(math.log(x_min)), math.log(math.log(x_max)), n_points
                )
            )
        )
    else:
        raise DomainError(f"unknown grid {grid!r}")
    if mode not in (DIRECT, FORMULA):
        raise DomainError(f"unknown mode {mode!r}")
    if mode == DIRECT and x_max > DIRECT_X_CAP:
        raise CapacityError(f"DIRECT trajectories refuse x_max > {DIRECT_X_CAP}")
    c = c_half(spec, cfg)
    bvals = _B_values(spec, xs, mode, cfg)
    return [
        TrajectorySample(float(x), b, b - c, mode) for x, b in zip(xs, bvals)
    ]
