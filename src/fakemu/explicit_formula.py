"""Explicit formula for the smoothed summatory function.

Assembles  A_exp(x) = Delta_1(x) + Delta_{1/2}(x) + sum_rho Delta_rho(x)
from the jumps of F(s) Gamma(s) x^s across the branch cuts at s=1 and
s=1/2 (from zeta(s)^z and zeta(2s)^w) and at each nontrivial zero rho.
Each part is the same Selberg-Delange step, taken once by class _Cut:

  Delta_xi(x) = x^xi * { sine * int_0^b e^{-Lu} u^{-beta} J_xi(u) du   (quadrature)
                       { c_xi                                          (residue)
                       { 0                                             (zero)

with L = log x, right = the tanh-sinh exponent at u = b, and

  xi   beta  sine                     b      right        zero when        residue when
  1    z     sin(pi z)/pi             1/2    max(Re w,0)  z in {-1, 0}     z = 1
  1/2  w     sin(pi(z+w))/pi 2^{1-w}  1/2-a  0            z+w in Z, w!=1   w = 1
  rho  -z    -sin(pi z)/pi            1/2-a  0            z in {0, 1}      z = -1

At the "zero" exponents the sine vanishes; at the "residue" ones the jump
integral collapses to the residue of a pole (Tenenbaum, Introduction to
Analytic and Probabilistic Number Theory, II.5), with c_xi = zeta(2)^w G(1),
sqrt(pi)/2 zeta(1/2)^z G(1/2) and Gamma(rho) zeta(2rho)^w G(rho)/zeta'(rho)
respectively.  The integrands are

  J_1(u)    = exp(z L1(1-u) + w L1(2-2u)) (1-2u)^{-w} G(1-u) Gamma(1-u)
  J_half(u) = (1/2-u)^2 (1/2+u)^{-z} Z(1/2-u;z) Z(1-2u;w) G(1/2-u) Gamma(1/2-u)
  J_rho(u)  = (rho-1-u)^{-z} G(rho-u) Z_rho(rho-u;z) zeta(2rho-2u)^w Gamma(rho-u)

The (1/2-u)^2 in J_half and the (rho-1-u) argument in J_rho come from
substituting t = 1/2 - u (resp. s = rho - u) into the cut jump of
t (t-1)^{-z} Z(t;z) * 2t (2t-1)^{-w} Z(2t;w) G(t) Gamma(t) x^t.  Two
limits pin these factors: at z = 0 the Selberg-Delange main term
2^{-w} sqrt(pi) G(1/2) x^{1/2} L^{w-1} / Gamma(w) must emerge, and at
z = -1 (resp. w = 1) the residue formulas must.

Quadrature is tanh-sinh, which absorbs the endpoint singularities; J(u) is
cached per node, so evaluating at many x is cheap.  Watson coefficients
lambda_{xi,k} of J_xi at u = 0 come from a 256-node trapezoid rule on the
circle |u| = r'; Delta_xi ~ sine x^xi sum_k lambda_k Gamma(1-beta+k)
L^{beta-1-k}, whose k = 0 term gives c_{1/2}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .eps_model import EpsilonSpec, FactorParams, near_integer, zw_params
from .errors import (
    ConsistencyError, DomainError, QuadratureError, RangeError, WindowError,
)
from .euler_residual import G_f, GfConfig
from .zeta_kernel import ZetaKernel, _track_log, default_kernel, gamma, log_zeta_euler, zeta

SQRT_PI = math.sqrt(math.pi)


@dataclass(eq=False)
class FormulaConfig:
    """Knobs for the explicit-formula evaluation.

    a: abscissa of the leftmost contour line, 1/3 < a < 1/2.  n_zeros pairs
    of zeros enter the zero sum.  watson_radius is the Taylor-coefficient
    contour radius r' (must stay inside the smallest analyticity disc,
    radius 1/2 - a).
    """

    a: float = 0.40
    n_zeros: int = 30
    quad_tol: float = 1e-10
    watson_radius: float = 0.05
    gf_config: GfConfig = field(default_factory=GfConfig)
    kernel: Optional[ZetaKernel] = None
    max_level: int = 12
    _memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not (1.0 / 3.0 < self.a < 0.5):
            raise DomainError("a must lie in (1/3, 1/2)")
        if not (0.0 < self.watson_radius < 0.5 - self.a):
            raise DomainError("watson_radius must lie in (0, 1/2 - a)")
        if self.n_zeros < 0:
            raise DomainError("n_zeros must be >= 0")

    def get_kernel(self) -> ZetaKernel:
        if self.kernel is None:
            self.kernel = default_kernel()
        if self.n_zeros > len(self.kernel.table):
            raise DomainError(
                f"n_zeros={self.n_zeros} exceeds zero table size "
                f"{len(self.kernel.table)}"
            )
        return self.kernel


@dataclass(frozen=True)
class FormulaBreakdown:
    """One explicit-formula evaluation at a single x."""

    x: float
    delta_1: complex
    delta_half: complex
    delta_rho: tuple[tuple[int, complex], ...]  # conjugate-pair totals
    zero_sum: complex
    total: complex
    modes: dict
    zero_tail: float  # |last included pair|, truncation indicator


# --------------------------------------------------------------------------
# tanh-sinh quadrature with per-node integrand caching
# --------------------------------------------------------------------------

_T_HARD_MAX = math.asinh(680.0 / math.pi)
_SINH_TAIL = 16.0 * math.log(10.0) / math.pi  # e^{-pi sinh t} < 1e-16


def _t_cut(alpha: float) -> float:
    """Truncation |t| for an endpoint singularity u^{-alpha}."""
    a = min(max(alpha, 0.0), 0.98)
    return min(math.asinh(_SINH_TAIL / max(1.0 - a, 0.02)), _T_HARD_MAX)


def _ts_points(b: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map tanh-sinh parameters t to (u, b-u, weight) on (0, b), cancellation-free."""
    a = math.pi * np.sinh(t)
    g = np.exp(-np.abs(a))
    denom = 1.0 + g
    right = a >= 0
    u = b * np.where(right, 1.0, g) / denom
    cu = b * np.where(right, g, 1.0) / denom
    w = b * math.pi * np.cosh(t) * g / (denom * denom)
    return u, cu, w


def _laplace_quad(
    cache: _Cut,
    weight: Callable[[np.ndarray], np.ndarray],
    b: float,
    alpha_left: float,
    alpha_right: float,
    tol: float,
    max_level: int,
) -> complex:
    """int_0^b weight(u) J(u) du by level-doubling tanh-sinh (J from cache.values)."""
    t_left = _t_cut(alpha_left)
    t_right = _t_cut(alpha_right)
    prev = None
    for level in range(3, max_level + 1):
        h = 2.0 ** (1 - level)
        k = np.arange(-math.floor(t_left / h), math.floor(t_right / h) + 1)
        t = k * h
        u, cu, wts = _ts_points(b, t)
        j = cache.values(t, u, cu)
        terms = wts * weight(u) * j
        cur = h * complex(np.sum(terms))
        mass = h * float(np.sum(np.abs(terms)))
        if prev is not None:
            if abs(cur - prev) <= tol * (abs(cur) + 1e-13 * mass) + 1e-300:
                return cur
        prev = cur
    raise QuadratureError(
        f"tanh-sinh did not reach tol={tol} at level {max_level}"
    )


# --------------------------------------------------------------------------
# line caches for the continued logs entering J_rho
# --------------------------------------------------------------------------

class _LineCache:
    """Branch values of log h along a parametrized straight line.

    Positions are real parameters; a request continues from the nearest
    already-computed position, so a sweep over quadrature nodes costs a
    couple of zeta evaluations per new node.
    """

    def __init__(self, s_of, h, seed_pos: float, seed_val: complex):
        self.s_of = s_of
        self.h = h
        self.items: dict[float, complex] = {seed_pos: seed_val}

    def value(self, pos: float) -> complex:
        got = self.items.get(pos)
        if got is not None:
            return got
        nearest = min(self.items, key=lambda q: abs(q - pos))
        val = _track_log(
            self.h, self.s_of(nearest), self.items[nearest], self.s_of(pos)
        )
        self.items[pos] = val
        return val


# --------------------------------------------------------------------------
# one branch point: Laplace quadrature, residue or exact zero, and Watson
# --------------------------------------------------------------------------

@dataclass(eq=False)
class _Cut:
    """The Selberg-Delange step at one branch point xi (module docstring).

    j(u, cu) is J_xi, with cu = b - u passed exactly near the right end,
    memoized per tanh-sinh node by values(); ring(r, n), if given, walks
    J_xi around n equispaced points of |u| = r (else J is called at each);
    residue() computes c_xi on first use.  J and its ring exist in every
    mode.
    """

    cfg: FormulaConfig
    beta: complex
    b: float
    alpha_right: float
    sine: complex
    x_pow: Callable[[float], complex]
    j: Callable[..., complex]
    mode: str  # quadrature | residue | zero
    residue: Callable[[], complex]
    ring: Optional[Callable[[float, int], np.ndarray]] = None

    def __post_init__(self):
        self.vals: dict[float, complex] = {}  # J by tanh-sinh parameter t

    def values(self, t: np.ndarray, u: np.ndarray, cu: np.ndarray) -> np.ndarray:
        out = np.empty(t.size, dtype=np.complex128)
        for i, tk in enumerate(t):
            key = float(tk)
            v = self.vals.get(key)
            if v is None:
                v = self.j(complex(u[i]), float(cu[i]))
                self.vals[key] = v
            out[i] = v
        return out

    @cached_property
    def coef(self) -> complex:
        return self.residue()

    def _require_integrable(self) -> None:
        if self.beta.real >= 1.0:
            raise WindowError(f"Re beta = {self.beta.real} >= 1: outside the treated window")

    def delta(self, x: float) -> complex:
        if self.mode == "zero":
            return 0.0 + 0.0j
        if self.mode == "residue":
            return self.x_pow(x) * self.coef
        self._require_integrable()
        ell = math.log(x)
        beta = self.beta

        def weight(u: np.ndarray) -> np.ndarray:
            return np.exp(-ell * u - beta * np.log(u))

        val = _laplace_quad(
            self, weight, self.b, max(beta.real, 0.0), self.alpha_right,
            self.cfg.quad_tol, self.cfg.max_level,
        )
        return self.sine * self.x_pow(x) * val

    def leading(self) -> complex:
        """c with Delta_xi(x) ~ c x^xi L^{beta-1}: Watson order 0, lambda_0 = J(0)."""
        if self.mode == "zero":
            return 0.0 + 0.0j
        if self.mode == "residue":
            return self.coef
        self._require_integrable()
        return self.sine * gamma(1.0 - self.beta) * self.j(0.0)

    def coeffs(self, M: int, nodes: int) -> list[complex]:
        """Taylor coefficients lambda_0..M of J_xi at u = 0 (trapezoid rule
        on |u| = watson_radius); lambda_0 is checked against J(0)."""
        if M < 0 or M > 8:
            raise DomainError("Watson order M must be in [0, 8]")
        r = self.cfg.watson_radius
        j0 = self.j(0.0)
        ang = 2.0 * math.pi * np.arange(nodes) / nodes
        if self.ring is not None:
            vals = self.ring(r, nodes)
        else:
            vals = np.array([self.j(complex(r * np.cos(t), r * np.sin(t))) for t in ang])
        coeffs = [
            complex(np.mean(vals * np.exp(-1j * k * ang))) / r ** k
            for k in range(M + 1)
        ]
        if abs(coeffs[0] - j0) > 1e-9 * max(abs(j0), 1e-300):
            raise ConsistencyError(f"lambda_0 = {coeffs[0]} disagrees with J(0) = {j0}")
        return coeffs

    def watson(self, x: float, M: int) -> complex:
        """Truncated Watson expansion of Delta_xi (no error term added)."""
        if self.mode == "residue":
            raise WindowError("no Watson expansion on a residue path")
        self._require_integrable()
        if self.mode == "zero":
            return 0.0 + 0.0j
        log_ell = math.log(math.log(x))
        series = 0.0 + 0.0j
        for k, lam in enumerate(self.coeffs(M, 256)):
            p = 1.0 - self.beta + k
            series += lam * gamma(p) * cmath.exp(-p * log_ell)
        return self.sine * self.x_pow(x) * series


def _mode(residue: bool, zero: bool) -> str:
    return "residue" if residue else ("zero" if zero else "quadrature")


# --------------------------------------------------------------------------
# evaluation context (per spec + config), memoized on the config
# --------------------------------------------------------------------------

class _Ctx:
    def __init__(self, spec: EpsilonSpec, cfg: FormulaConfig):
        self.spec = spec
        self.cfg = cfg
        self.kernel = cfg.get_kernel()
        self.pars: FactorParams = zw_params(spec)
        self.z = self.pars.z
        self.w = self.pars.w
        self._g_points: dict[complex, complex] = {}
        self._lines: dict = {}
        self._cuts: dict = {}

    # -- residual Euler product, memoized pointwise --------------------------

    def G(self, s: complex) -> complex:
        s = complex(s)
        got = self._g_points.get(s)
        if got is None:
            got = G_f(self.spec, s, self.cfg.gf_config)
            self._g_points[s] = got
        return got

    # -- branch points ----------------------------------------------------------

    def cut(self, key) -> _Cut:
        """The cut at "one", "half" or (zero_index, conjugate), built once."""
        if key not in self._cuts:
            self._cuts[key] = self._build_cut(key)
        return self._cuts[key]

    def _build_cut(self, key) -> _Cut:
        z, w, k = self.z, self.w, self.kernel
        zi = self.pars.z_integer_case
        if key == "one":
            return _Cut(
                self.cfg, beta=z, b=0.5, alpha_right=max(w.real, 0.0),
                sine=cmath.sin(cmath.pi * z) / math.pi,
                x_pow=lambda x: x, j=self.j1,
                mode=_mode(zi == 1, zi in (-1, 0)),
                # Res_{s=1} F(s) Gamma(s) x^s = x * zeta(2)^w * G(1)
                residue=lambda: cmath.exp(w * k.L1(2.0).value) * self.G(1.0),
            )
        if key == "half":
            # Res_{s=1/2} zeta(2s) = 1/2, with zeta(1/2)^z the boundary value
            # from above the cut (-inf, 1]
            def residue() -> complex:
                zeta_half_z = cmath.exp(z * (math.log(2.0) + k.L1(0.5).value - 1j * math.pi))
                return 0.5 * SQRT_PI * zeta_half_z * self.G(0.5)

            return _Cut(
                self.cfg, beta=w, b=0.5 - self.cfg.a, alpha_right=0.0,
                sine=cmath.sin(cmath.pi * (z + w)) / math.pi
                * cmath.exp((1.0 - w) * math.log(2.0)),
                x_pow=math.sqrt, j=self.j_half,
                mode=_mode(self.pars.w_is_one, near_integer(z + w) is not None),
                residue=residue,
            )
        index, conjugate = key
        rho = k.rho(index, conjugate)

        def residue() -> complex:
            zp = k.zeta_prime_at_zero(index)
            if conjugate:
                zp = zp.conjugate()
            return gamma(rho) * self.zeta_2rho_pow_w(index, conjugate) * self.G(rho) / zp

        return _Cut(
            self.cfg, beta=-z, b=0.5 - self.cfg.a, alpha_right=0.0,
            sine=-cmath.sin(cmath.pi * z) / math.pi,
            x_pow=lambda x: cmath.exp(rho * math.log(x)),
            j=lambda u, cu=None: self.j_rho_real(index, u.real, conjugate),
            mode=_mode(zi == -1, zi in (0, 1)),
            residue=residue,
            ring=lambda r, n: self.j_rho_circle(index, r, n, conjugate),
        )

    # -- integrands -----------------------------------------------------------

    def j1(self, u: complex, cu: Optional[float] = None) -> complex:
        """J_1; cu = 1/2 - u passed exactly near the right endpoint."""
        k = self.kernel
        one_minus_2u = 2.0 * cu if cu is not None else 1.0 - 2.0 * u
        lz1 = k.L1(1.0 - u).value
        lz2 = k.L1(2.0 - 2.0 * u).value
        return (
            cmath.exp(self.z * lz1 + self.w * lz2)
            * one_minus_2u ** (-self.w)
            * self.G(1.0 - u)
            * gamma(1.0 - u)
        )

    def j_half(self, u: complex, cu: Optional[float] = None) -> complex:
        k = self.kernel
        half_minus = 0.5 - u
        lz1 = k.L1(half_minus).value
        lz2 = k.L1(1.0 - 2.0 * u).value
        return (
            half_minus
            * (0.5 + u) ** (-self.z)
            * cmath.exp(self.z * lz1 + self.w * lz2)
            / (1.0 - 2.0 * u)
            * self.G(half_minus)
            * gamma(half_minus)
        )

    def _rho_lines(self, zero_index: int, conjugate: bool):
        key = (zero_index, conjugate)
        got = self._lines.get(key)
        if got is not None:
            return got
        k = self.kernel
        rho = k.rho(zero_index, conjugate)
        anchor_log, r = k._rho_anchor(zero_index, conjugate)
        lrho = _LineCache(
            lambda q: rho - q, k._h_rho(zero_index, conjugate), -r, anchor_log
        )
        height = 2.0 * rho.imag
        clog = _LineCache(
            lambda q: 2.0 * rho - 2.0 * q,
            zeta,
            -1.0,  # 2 rho - 2(-1) = 3 + i 2 gamma, the right-edge anchor
            log_zeta_euler(complex(3.0, height)),
        )
        got = (rho, lrho, clog)
        self._lines[key] = got
        return got

    def j_rho(self, rho: complex, u: complex, lr: complex, cz: complex) -> complex:
        """J_rho at u from the branch values lr = L_rho(rho-u), cz = log zeta(2rho-2u)."""
        s = rho - u
        return (
            (rho - 1.0 - u) ** (-self.z)
            * self.G(s)
            * cmath.exp(self.z * lr + self.w * cz)
            * gamma(s)
        )

    def j_rho_real(self, zero_index: int, u: float, conjugate: bool = False) -> complex:
        """J_rho at real u (the Laplace path), via incremental line sweeps."""
        rho, lrho, clog = self._rho_lines(zero_index, conjugate)
        return self.j_rho(rho, u, lrho.value(u), clog.value(u))

    def j_rho_circle(
        self, zero_index: int, r: float, n: int, conjugate: bool = False
    ) -> np.ndarray:
        """J_rho on the circle |u| = r (n nodes), walked from the real axis."""
        rho, lrho, clog = self._rho_lines(zero_index, conjugate)
        h_rho = self.kernel._h_rho(zero_index, conjugate)
        ang = 2.0 * math.pi * np.arange(n) / n
        us = r * np.exp(1j * ang)
        lr = lrho.value(r)
        cz = clog.value(r)
        out = np.empty(n, dtype=np.complex128)
        cur_u = complex(r)
        for i, u in enumerate(us):
            u = complex(u)
            if i > 0:
                lr = _track_log(h_rho, rho - cur_u, lr, rho - u)
                cz = _track_log(zeta, 2.0 * rho - 2.0 * cur_u, cz, 2.0 * rho - 2.0 * u)
                cur_u = u
            out[i] = self.j_rho(rho, u, lr, cz)
        return out

    def zeta_2rho_pow_w(self, zero_index: int, conjugate: bool = False) -> complex:
        _, _, clog = self._rho_lines(zero_index, conjugate)
        return cmath.exp(self.w * clog.value(0.0))


def _ctx(spec: EpsilonSpec, cfg: Optional[FormulaConfig]) -> tuple[_Ctx, FormulaConfig]:
    if cfg is None:
        cfg = FormulaConfig()
    got = cfg._memo.get(spec)
    if got is None:
        got = _Ctx(spec, cfg)
        cfg._memo[spec] = got
    return got, cfg


# --------------------------------------------------------------------------
# public integrand evaluators
# --------------------------------------------------------------------------

def J1(spec: EpsilonSpec, u: complex, cfg: Optional[FormulaConfig] = None) -> complex:
    """Integrand at the s=1 branch point, analytic on |u| < 1/2 off [1/2, inf)."""
    u = complex(u)
    if abs(u) >= 0.5 or (u.imag == 0 and u.real >= 0.5):
        raise RangeError("J1 requires |u| < 1/2 off the cut [1/2, inf)")
    if (1.0 - u).real < 0.35:
        raise RangeError("J1 requires Re(1-u) >= 0.35")
    ctx, _ = _ctx(spec, cfg)
    return ctx.j1(u)


def J_half(spec: EpsilonSpec, u: complex, cfg: Optional[FormulaConfig] = None) -> complex:
    """Integrand at the s=1/2 branch point, analytic on |u| < 1/2 - a."""
    u = complex(u)
    ctx, cfg = _ctx(spec, cfg)
    if abs(u) >= 0.5 - cfg.a:
        raise RangeError("J_half requires |u| < 1/2 - a")
    if (0.5 - u).real < 0.35:
        raise RangeError("J_half requires Re(1/2-u) >= 0.35")
    return ctx.j_half(u)


def J_rho(
    spec: EpsilonSpec,
    zero_index: int,
    u: complex,
    cfg: Optional[FormulaConfig] = None,
) -> complex:
    """Integrand at zero rho_k; u real uses the cached line sweep."""
    u = complex(u)
    ctx, cfg = _ctx(spec, cfg)
    k = ctx.kernel
    rad = k.table.gap_radius(zero_index)
    if abs(u) > rad:
        raise RangeError(f"J_rho requires |u| <= {rad:.3f} at zero {zero_index}")
    if u.imag == 0.0 and 0.0 <= u.real and (0.5 - u.real) < 0.35 - 1e-12:
        raise RangeError("J_rho real path requires Re(rho - u) >= 0.35")
    if u.imag == 0.0:
        return ctx.j_rho_real(zero_index, u.real)
    rho = k.rho(zero_index)
    return ctx.j_rho(
        rho, u, k.L_rho(zero_index, rho - u).value, k.clog_zeta(2.0 * rho - 2.0 * u)
    )


# --------------------------------------------------------------------------
# Laplace-form parts
# --------------------------------------------------------------------------

def _require_x(x: float, minimum: float = 3.0) -> float:
    if x < minimum:
        raise DomainError(f"x must be >= {minimum}")
    return float(x)


def delta_1(spec: EpsilonSpec, x: float, cfg: Optional[FormulaConfig] = None) -> complex:
    """Main term from s=1.  Exactly 0 for z in {-1, 0}; residue for z=1."""
    x = _require_x(x)
    ctx, _ = _ctx(spec, cfg)
    return ctx.cut("one").delta(x)


def delta_half(spec: EpsilonSpec, x: float, cfg: Optional[FormulaConfig] = None) -> complex:
    """Secondary term from s=1/2.  Exactly 0 for z+w integer (w != 1);
    residue for w=1."""
    x = _require_x(x)
    ctx, _ = _ctx(spec, cfg)
    return ctx.cut("half").delta(x)


def delta_rho(
    spec: EpsilonSpec,
    zero_index: int,
    x: float,
    cfg: Optional[FormulaConfig] = None,
    conjugate: bool = False,
) -> complex:
    """Oscillatory term of one zero.  Exactly 0 for z in {0, 1}; residue
    Gamma(rho) x^rho zeta(2 rho)^w G(rho) / zeta'(rho) for z = -1."""
    x = _require_x(x)
    ctx, _ = _ctx(spec, cfg)
    return ctx.cut((zero_index, conjugate)).delta(x)


def _zero_pairs(
    spec: EpsilonSpec, x: float, cfg: FormulaConfig
) -> list[tuple[int, complex]]:
    """(k, Delta_rho + Delta_{conj rho}) for the first n_zeros zeros."""
    real = spec.is_real_valued()
    pairs = []
    for k in range(1, cfg.n_zeros + 1):
        d = delta_rho(spec, k, x, cfg)
        mirror = d.conjugate() if real else delta_rho(spec, k, x, cfg, conjugate=True)
        pairs.append((k, d + mirror))
    return pairs


def zero_sum(spec: EpsilonSpec, x: float, cfg: Optional[FormulaConfig] = None) -> complex:
    """Sum over the first n_zeros zeros, each with its mirror at -gamma."""
    _, cfg = _ctx(spec, cfg)
    return sum((p for _, p in _zero_pairs(spec, x, cfg)), 0.0 + 0.0j)


# --------------------------------------------------------------------------
# Watson coefficients and asymptotic form
# --------------------------------------------------------------------------

def _parse_point(point):
    """Cut key of an expansion point: "one", "half", "zero:K" or ("zero", K)."""
    p = f"zero:{point[1]}" if isinstance(point, tuple) else str(point).lower()
    if p in ("one", "half"):
        return p
    if p.startswith("zero:"):
        return (int(p[5:]), False)
    raise DomainError(f"unknown expansion point {point!r}")


def watson_coeffs(
    spec: EpsilonSpec, point, M: int, cfg: Optional[FormulaConfig] = None,
    nodes: int = 256,
) -> list[complex]:
    """Taylor coefficients lambda_{xi,0..M} of J_xi at u=0.

    Trapezoid rule with 256 nodes on |u| = watson_radius (spectrally
    accurate for analytic integrands); lambda_0 is cross-checked against
    the direct value J_xi(0) to 1e-9 relative.
    """
    ctx, _ = _ctx(spec, cfg)
    return ctx.cut(_parse_point(point)).coeffs(M, nodes)


def c_half(spec: EpsilonSpec, cfg: Optional[FormulaConfig] = None) -> complex:
    """Bias constant: sin(pi(z+w))/pi * 2^{1-w} Gamma(1-w) lambda_{1/2,0}.

    For w = 1 the residue path gives Gamma(1/2) zeta(1/2)^z G(1/2) / 2,
    the coefficient of sqrt(x) in Delta_{1/2}.
    """
    ctx, _ = _ctx(spec, cfg)
    return ctx.cut("half").leading()


def watson_delta_half(
    spec: EpsilonSpec, x: float, M: int, cfg: Optional[FormulaConfig] = None
) -> complex:
    """Truncated Watson expansion of Delta_{1/2} (no error term added)."""
    x = _require_x(x, 10.0)
    ctx, _ = _ctx(spec, cfg)
    return ctx.cut("half").watson(x, M)


# --------------------------------------------------------------------------
# assembled formula
# --------------------------------------------------------------------------

def a_exp_formula(
    spec: EpsilonSpec, x: float, cfg: Optional[FormulaConfig] = None
) -> FormulaBreakdown:
    """All explicit-formula parts at one x; total = d1 + d1/2 + zero sum."""
    x = _require_x(x)
    ctx, cfg = _ctx(spec, cfg)
    pars = ctx.pars
    # the window bounds (z, w) only for non-integer z
    if not pars.in_window and ctx.cut("one").mode == "quadrature":
        raise WindowError(f"(z, w) = ({pars.z}, {pars.w}) outside treated window")
    modes = {
        "delta_1": ctx.cut("one").mode,
        "delta_half": ctx.cut("half").mode,
        "delta_rho": ctx.cut((1, False)).mode,
    }
    d1 = delta_1(spec, x, cfg)
    dh = delta_half(spec, x, cfg)
    pairs = _zero_pairs(spec, x, cfg)
    zsum = sum((p for _, p in pairs), 0.0 + 0.0j)
    return FormulaBreakdown(
        x=x,
        delta_1=d1,
        delta_half=dh,
        delta_rho=tuple(pairs),
        zero_sum=zsum,
        total=d1 + dh + zsum,
        modes=modes,
        zero_tail=abs(pairs[-1][1]) if pairs else 0.0,
    )
