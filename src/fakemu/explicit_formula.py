"""Explicit formula for the smoothed summatory function.

Assembles  A_exp(x) = Delta_1(x) + Delta_{1/2}(x) + sum_rho Delta_rho(x)
from the jumps of F(s) Gamma(s) x^s across the branch cuts at s=1 and
s=1/2 (from zeta(s)^z and zeta(2s)^w) and at each nontrivial zero rho.
Each part is the same Selberg-Delange step, taken once by class _Cut:

  Delta_xi(x) = x^xi * { sine * int_0^b e^{-Lu} u^{-beta} J_xi(u) du   (quadrature)
                       { phase_xi * J_xi(0)                            (residue)
                       { 0                                             (zero)

with L = log x, right = the tanh-sinh exponent at u = b, and

  xi   beta  sine                     b      right        zero when        residue when
  1    z     sin(pi z)/pi             1/2    max(Re w,0)  z in {-1, 0}     z = 1
  1/2  w     sin(pi(z+w))/pi 2^{1-w}  1/2-a  0            z+w in Z, w!=1   w = 1
  rho  -z    -sin(pi z)/pi            1/2-a  0            z in {0, 1}      z = -1

At the "zero" exponents the sine vanishes; at the "residue" ones beta = 1
and the jump integral collapses to the residue of a simple pole
(Tenenbaum, Introduction to Analytic and Probabilistic Number Theory,
II.5).  One integrand serves all three points:

  J_xi(u) = P_xi(u) exp(z l1(s) + w l2(s)) G(s) Gamma(s),   s = xi - u,

  xi   P_xi(u)              l1(s), l2(s)                                phase_xi
  1    (1-2u)^{-w}          L1(s), L1(2s)                               1
  1/2  (1/2)(1/2+u)^{-z}    L1(s), L1(2s)                               e^{-i pi z}
  rho  (rho-1-u)^{-z}       log((s-1) zeta(s)/(s-rho)), log zeta(2s)    1

with L1(s) = log((s-1) zeta(s)), so that zeta(s)^z = (s-1)^{-z} e^{z L1(s)}
and zeta(2s)^w = (2s-1)^{-w} e^{w L1(2s)}.  The power of s - 1, 2s - 1 or
s - rho that is singular at xi gives u^{-beta} and the sine; P_xi is what
is left of the others (at 1/2 less the phase, and with the 2^{-w} of
(-2u)^{-w} split between P's 1/2 and the sine's 2^{1-w}).  At xi = 1 the
exact 1 - 2u = 2 cu (cu = 1/2 - u) is passed near the right end.  A cut
holds only this data, and _Cut.j is the one integrand.  The residue is
c_xi = phase_xi J_xi(0), the same step's limit, since
x^xi c_xi = Res_{s=xi} F(s) Gamma(s) x^s:

  xi = 1, z = 1:     zeta(s) = e^{L1(s)}/(s-1): the residue is x J_1(0).
  xi = 1/2, w = 1:   zeta(2s) = e^{L1(2s)} (1/2)/(s-1/2) gives P's 1/2, and
                     zeta(1/2)^z, from above the cut (-inf, 1], takes
                     (s-1)^{-z} = (1/2)^{-z} e^{-i pi z}: phase e^{-i pi z}.
  xi = rho, z = -1:  1/zeta(s) = (s-1) e^{-l1(s)}/(s-rho) with (rho-1)
                     e^{-l1(rho)} = 1/zeta'(rho): the residue is x^rho J_rho(0).

Quadrature is tanh-sinh, which absorbs the endpoint singularities.  Only
e^{-Lu} depends on x, so a cut keeps, per level L, one layer of the new
nodes t = k 2^{1-L} (all k at L = 3, the odd k above): u, c = weight
u^{-beta} J and |c|, J from one call.  The sums nest, T_L = T_{L-1}/2 +
h_L sum c e^{-Lu} (the mass with |c|): an x costs one real exp per node.
J is an array function throughout: zeta, gamma and L1 take arrays, L1 on
the cuts at 1 and 1/2 is a plain log, and on a zero's cut RhoSweep.at reads
both logs where it has them and continues all new points at once; the
public J and J(0) are its one-point case, and a point's J has the same
bits alone and inside a level or a Watson ring.  Each cut owns its disc,
|u| < radius (1/2 at s = 1, 1/2 - a at s = 1/2, the zero's gap radius at
rho), and the paper's window, Re w < 1 (_Cut._require_integrable): the
one check of each.
A cut holds at most MAX_LEVEL - 2 layers; another x reads them and
builds no node, and the context's zero cuts and modes, built once.

At the tanh-sinh nodes G(s0 - u), s0 = 1, 1/2 or rho, comes from one
Chebyshev interpolant per cut (class _GLine) on the segment 0 <= u <= b,
i.e. [1/2, 1], [a, 1/2] or [rho - (1/2 - a), rho].  G is holomorphic on
Re s > 1/3 (its truncation G_f even on Re s > 0), at least a - 1/3 away
from each segment, so the Chebyshev coefficients decay geometrically
(Trefethen, Approximation Theory and Approximation Practice, ch. 8).  A
cut samples G on nested Chebyshev points of degree 16, 32, 64, ...,
each level reusing the previous samples, until the last quarter of the
coefficients lies below CHEB_TOL = 2^-46 of the largest; past
CHEB_MAX_DEGREE it raises QuadratureError.  One sampler, _Ctx.sample(cuts),
makes every interpolant: the cuts of one segment length in lock-step
(_sample_g_lines), one call of the G kernel G_f_line per degree (17
points, then 16, 32, ...) where a G_f call per node cost hundreds.  A
cut samples when its quadrature first needs G, together with the cuts of
the context's zero list that have no interpolant yet.  The cut at 1/2
and the zero cuts share b = 1/2 - a and Re s0 = 1/2, so a_exp_formula,
which lists the zeros before delta_half runs, samples them all and
zero_sum the zero cuts: the group's rows share the prime powers p^{u_j}.
Each cut applies its own stopping test, only the unconverged ones go on,
and each row has the bits it has alone; a cut sampled before any zero
list (the cut at 1, delta_half alone) is a group of one.  The stopping test
is an a-posteriori estimate, not a bound: it reads the decay of the
coefficients already computed.  A bound would need max |G| on a Bernstein
ellipse around the segment, which nothing here computes, and a feature
narrower than the sample spacing could pass the test unseen; G, holomorphic
well past the segment, has none.  Every other G (the residues, J(0) in
c_{1/2}, the Watson ring, J at complex u) is a direct G_f call, one for
all points of an array: G_f_line at u = 0, with the points as its rows,
grouped by real part.

Watson coefficients lambda_{xi,k} of J_xi at u = 0 come from a
WATSON_NODES-node trapezoid rule on the circle |u| = WATSON_RADIUS
(Trefethen and Weideman, SIAM Review 56, 2014); every cut takes the ring
once, as one call of j on its points.  Delta_xi ~ sine x^xi sum_k lambda_k
Gamma(1-beta+k) L^{beta-1-k}, whose k = 0 term gives c_{1/2}.

The two branch-tracked logs of J_rho come from one zeta_kernel.RhoSweep
per zero (and per mirror zero), kept on the kernel for every spec and
config and built at the first J of the zero: it serves the Laplace
nodes, the Watson ring, the residue's J_rho(0) and J_rho at complex u,
each a leg from u = 0, and keeps every value it serves.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from numbers import Integral
from typing import Callable, Optional

import numpy as np

from .eps_model import EpsilonSpec, FactorParams, near_integer, zw_params
from .errors import (
    ConsistencyError, DomainError, QuadratureError, RangeError, WindowError,
)
from .euler_residual import RE_S_MIN, G_f, G_f_line, GfConfig
from .zeta_kernel import ZetaKernel, default_kernel, gamma

#: tanh-sinh stopping tolerance (relative change between levels) and the
#: last level tried before QuadratureError.
QUAD_TOL = 1e-10
MAX_LEVEL = 12
#: Watson coefficients: trapezoid nodes on the ring |u| = WATSON_RADIUS,
#: which must lie inside the smallest analyticity disc, radius 1/2 - a.
WATSON_RADIUS = 0.05
WATSON_NODES = 256
WATSON_MAX_ORDER = 8
#: G on a cut's segment: Chebyshev degrees CHEB_MIN_DEGREE, doubling up to
#: CHEB_MAX_DEGREE, until the last quarter of the coefficients lies below
#: CHEB_TOL times the largest.
CHEB_MIN_DEGREE = 16
CHEB_MAX_DEGREE = 256
CHEB_TOL = 2.0 ** -46


@dataclass(eq=False, frozen=True)
class FormulaConfig:
    """Knobs for the explicit-formula evaluation.

    a: abscissa of the leftmost contour line, RE_S_MIN <= a < 1/2 -
    WATSON_RADIUS: G_f is evaluated down to Re s = a, and the Watson ring
    must fit inside the disc of radius 1/2 - a.  n_zeros pairs of zeros
    enter the zero sum, at most kernel's table (None: the default kernel).
    Frozen because it holds the cache, _memo, of what these fields fix
    (cuts, levels, G lines); dataclasses.replace starts an empty one.
    """

    a: float = 0.40
    n_zeros: int = 30
    gf_config: GfConfig = field(default_factory=GfConfig)
    kernel: Optional[ZetaKernel] = None
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not RE_S_MIN <= self.a:
            raise DomainError(f"a must be >= {RE_S_MIN}: G_f is read down to Re s = a")
        if not 0.5 - self.a > WATSON_RADIUS:
            raise DomainError(f"a must leave room for the Watson ring: 1/2 - a > {WATSON_RADIUS}")
        if isinstance(self.n_zeros, bool) or not isinstance(self.n_zeros, Integral):
            raise DomainError(f"n_zeros must be an integer, got {self.n_zeros!r}")
        if self.n_zeros < 0:
            raise DomainError("n_zeros must be >= 0")
        if self.kernel is None:
            object.__setattr__(self, "kernel", default_kernel())
        if self.n_zeros > len(self.kernel.table):
            raise DomainError(
                f"n_zeros={self.n_zeros} exceeds zero table size "
                f"{len(self.kernel.table)}"
            )


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
# tanh-sinh nodes, one table per level
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


# --------------------------------------------------------------------------
# G along one cut's segment: a Chebyshev interpolant on nested points
# --------------------------------------------------------------------------

def _cheb_coeffs(vals: np.ndarray) -> np.ndarray:
    """Coefficients of the interpolant through vals at x_j = cos(j pi/n),
    j = 0..n (a DCT-I): c_k = (2/n) sum_j vals_j cos(jk pi/n), with the
    terms j = 0, n and the coefficients c_0, c_n halved.  jk is reduced
    mod 2n first, so each cosine is taken at a multiple of pi/n below 2 pi."""
    n = vals.size - 1
    j = np.arange(n + 1)
    ends = np.ones(n + 1)
    ends[[0, n]] = 0.5
    cosines = np.cos(np.outer(j, j) % (2 * n) * (math.pi / n))
    c = np.sum(cosines * (ends * vals), axis=1) * (2.0 / n)
    c[[0, n]] *= 0.5
    return c


def _clenshaw(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c_k T_k(x) over an array of x."""
    b1 = np.zeros(x.shape, dtype=np.complex128)
    b2 = np.zeros(x.shape, dtype=np.complex128)
    x2 = 2.0 * x
    for ck in c[:0:-1]:
        b1, b2 = ck + x2 * b1 - b2, b1
    return c[0] + x * b1 - b2


class _GLine:
    """G(s0 - u) for 0 <= u <= b, from its Chebyshev coefficients c.

    The samples come from _sample_g_lines: u_j = b sin^2(j pi/2n) (x_j =
    cos(j pi/n) = 1 - 2u/b).
    """

    def __init__(self, c: np.ndarray, b: float):
        self.c = c
        self.b = b

    def __call__(self, u: np.ndarray, cu: np.ndarray) -> np.ndarray:
        """G at s0 - u, with cu = b - u; x comes from the smaller of the two."""
        x = np.where(u <= cu, 1.0 - 2.0 * u / self.b, 2.0 * cu / self.b - 1.0)
        return _clenshaw(self.c, x)


def _sample_g_lines(
    line: Callable[[np.ndarray, np.ndarray], np.ndarray], s0: np.ndarray, b: float
) -> list[_GLine]:
    """The interpolants of G on the segments s0_i - [0, b], in lock-step.

    line(s0, u) is G at s0_i - u_j as an (s0 x u) array (G_f_line).  All
    rows are sampled at degree CHEB_MIN_DEGREE in one call; each doubling
    of n keeps the previous samples, and only the rows whose own stopping
    test failed go on to the next degree, again in one call.  A row's
    samples and coefficients do not depend on the rows beside it.
    """
    def points(n: int, j: np.ndarray) -> np.ndarray:
        return b * np.sin(j * (math.pi / (2 * n))) ** 2

    n = CHEB_MIN_DEGREE
    live = np.arange(s0.size)
    vals = line(s0, points(n, np.arange(n + 1)))
    coeffs: list[Optional[np.ndarray]] = [None] * s0.size
    while True:
        done = np.zeros(live.size, dtype=bool)
        for i, row in enumerate(vals):
            c = _cheb_coeffs(row)
            mag = np.abs(c)
            if np.max(mag[3 * n // 4:]) <= CHEB_TOL * np.max(mag):
                coeffs[live[i]] = c
                done[i] = True
        if np.all(done):
            return [_GLine(c, b) for c in coeffs]
        live, vals = live[~done], vals[~done]
        if 2 * n > CHEB_MAX_DEGREE:
            s = complex(s0[live[0]])
            raise QuadratureError(
                f"Chebyshev coefficients of G on [{s - b}, {s}] did not "
                f"decay to {CHEB_TOL:.3g} by degree {n}"
            )
        both = np.empty((live.size, 2 * n + 1), dtype=np.complex128)
        both[:, ::2] = vals
        both[:, 1::2] = line(s0[live], points(2 * n, np.arange(1, 2 * n, 2)))
        vals, n = both, 2 * n


# --------------------------------------------------------------------------
# one branch point: Laplace quadrature, residue or exact zero, and Watson
# --------------------------------------------------------------------------

@dataclass(eq=False)
class _Cut:
    """The Selberg-Delange step at one branch point xi (module docstring).

    A cut holds only xi's data: its exponent, sine and mode, the prefactor
    P_xi(u, cu), the two logs l1, l2 at s = s0 - u and the residue phase.
    j(u, cu, g) is the one integrand J_xi over an array of u, real or
    complex, with cu = b - u passed exactly near the right end and g the
    values of G at s (one G_f call on all of them when g is None); at(u)
    is its one point, checked against the disc |u| < radius.
    layer(L) builds level L's tanh-sinh layer once, G at its new nodes from
    g_line, the Chebyshev interpolant of G on the segment, and one j call
    on them; every other J (the Watson ring in lambdas, J(0)) is one j call
    with g None.  An unsampled g_line comes from the hook sample, the
    context's one sampler on this cut.  J and its ring exist in every mode.
    """

    beta: complex
    b: float
    radius: float  # J's disc |u| < radius
    alpha_right: float
    sine: complex
    x_pow: Callable[[float], complex]
    mode: str  # quadrature | residue | zero
    s0: complex  # J is read at s = s0 - u
    z: complex
    w: complex
    prefactor: Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray]  # P_xi(u, cu)
    logs: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]  # (l1, l2)(s, u)
    phase: complex  # c_xi = phase J_xi(0)
    g_at: Callable[[np.ndarray], np.ndarray]  # G_f
    sample: Callable[[], None]  # sets g_line (_Ctx.sample)
    g_line: Optional[_GLine] = field(default=None, init=False, repr=False)
    layers: list = field(default_factory=list, init=False, repr=False)  # level L at L - 3

    def j(self, u, cu: Optional[np.ndarray] = None, g: Optional[np.ndarray] = None) -> np.ndarray:
        """J_xi(u) = P_xi(u) exp(z l1(s) + w l2(s)) G(s) Gamma(s), s = s0 - u."""
        u = np.asarray(u, dtype=np.complex128)
        s = self.s0 - u
        l1, l2 = self.logs(s, u)
        return (
            self.prefactor(u, cu)
            * np.exp(self.z * l1 + self.w * l2)
            * (self.g_at(s) if g is None else g)
            * gamma(s)
        )

    def at(self, u: complex) -> complex:
        """J_xi at one point, the one-point case of j: RangeError unless
        |u| < radius and Re(s0 - u) >= RE_S_MIN, before any work."""
        u = complex(u)
        if not (abs(u) < self.radius and (self.s0 - u).real >= RE_S_MIN):
            raise RangeError(
                f"J at s0 = {self.s0} requires |u| < {self.radius:.3g} and "
                f"Re(s0 - u) >= {RE_S_MIN}, got u = {u}"
            )
        return complex(self.j(np.array([u]))[0])

    @cached_property
    def t_range(self) -> tuple[float, float]:
        """Truncation |t| at the left (u^{-beta}) and right ends."""
        return _t_cut(max(self.beta.real, 0.0)), _t_cut(self.alpha_right)

    def layer(self, L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, c, |c|) at the nodes t = k 2^{1-L} new at level L (every k at
        L = 3, the odd k above), c = weight u^{-beta} J, built once with the
        levels below it: G from g_line and one j call each."""
        t_left, t_right = self.t_range
        while len(self.layers) <= L - 3:
            if self.g_line is None:
                self.sample()
            h = 2.0 ** (-2 - len(self.layers))  # 2^{1-L} at the next level
            k = np.arange(-math.floor(t_left / h), math.floor(t_right / h) + 1)
            u, cu, wts = _ts_points(self.b, (k[k % 2 == 1] if self.layers else k) * h)
            c = wts * np.exp(-self.beta * np.log(u)) * self.j(u, cu, self.g_line(u, cu))
            self.layers.append((u, c, np.abs(c)))
        return self.layers[L - 3]

    @cached_property
    def j0(self) -> complex:
        return self.at(0.0)

    @cached_property
    def residue(self) -> complex:
        """c_xi = phase J_xi(0), the integral's limit at an integer exponent."""
        return self.phase * self.j0

    def _require_integrable(self) -> None:
        """The window Re w < 1: every part but a residue needs the integral
        at the left end (a zero part is it times a vanishing sine), and a
        quadrature at the right end too."""
        if self.mode != "residue" and self.beta.real >= 1.0:
            raise WindowError(f"Re beta = {self.beta.real} >= 1: outside the treated window")
        if self.mode == "quadrature" and self.alpha_right >= 1.0:
            raise WindowError(
                f"right-end exponent {self.alpha_right} >= 1: outside the treated window"
            )

    def delta(self, x: float) -> complex:
        self._require_integrable()
        if self.mode == "zero":
            return 0.0 + 0.0j
        if self.mode == "residue":
            return self.x_pow(x) * self.residue
        ell = math.log(x)
        cur = mass = 0.0
        for L in range(3, MAX_LEVEL + 1):
            # nested trapezoid: T_L = T_{L-1}/2 + h_L sum over the new nodes
            h = 2.0 ** (1 - L)
            u, c, size = self.layer(L)
            e = np.exp(-ell * u)
            cur = 0.5 * cur + h * complex(np.sum(c * e))
            mass = 0.5 * mass + h * float(np.sum(size * e))
            if L > 3 and abs(cur - prev) <= QUAD_TOL * (abs(cur) + 1e-13 * mass) + 1e-300:
                return self.sine * self.x_pow(x) * cur
            prev = cur
        raise QuadratureError(f"tanh-sinh did not reach tol={QUAD_TOL} at level {MAX_LEVEL}")

    def leading(self) -> complex:
        """c with Delta_xi(x) ~ c x^xi L^{beta-1}: Watson order 0, lambda_0 = J(0)."""
        self._require_integrable()
        if self.mode == "zero":
            return 0.0 + 0.0j
        if self.mode == "residue":
            return self.residue
        return self.sine * gamma(1.0 - self.beta) * self.j0

    @cached_property
    def lambdas(self) -> list[complex]:
        """Taylor coefficients lambda_0..WATSON_MAX_ORDER of J_xi at u = 0
        (trapezoid rule on |u| = WATSON_RADIUS); lambda_0 is checked
        against J(0)."""
        r, nodes = WATSON_RADIUS, WATSON_NODES
        j0 = self.j0
        ang = 2.0 * math.pi * np.arange(nodes) / nodes
        vals = self.j(r * np.exp(1j * ang))
        lambdas = [
            complex(np.mean(vals * np.exp(-1j * k * ang))) / r ** k
            for k in range(WATSON_MAX_ORDER + 1)
        ]
        if abs(lambdas[0] - j0) > 1e-9 * max(abs(j0), 1e-300):
            raise ConsistencyError(f"lambda_0 = {lambdas[0]} disagrees with J(0) = {j0}")
        return lambdas

    def coeffs(self, M: int) -> list[complex]:
        if M < 0 or M > WATSON_MAX_ORDER:
            raise DomainError(f"Watson order M must be in [0, {WATSON_MAX_ORDER}]")
        return self.lambdas[: M + 1]

    def watson(self, x: float, M: int) -> complex:
        """Truncated Watson expansion of Delta_xi (no error term added)."""
        self._require_integrable()
        if self.mode == "residue":
            raise WindowError("no Watson expansion on a residue path")
        if self.mode == "zero":
            return 0.0 + 0.0j
        log_ell = math.log(math.log(x))
        series = 0.0 + 0.0j
        for k, lam in enumerate(self.coeffs(M)):
            p = 1.0 - self.beta + k
            series += lam * gamma(p) * cmath.exp(-p * log_ell)
        return self.sine * self.x_pow(x) * series


def _mode(residue: bool, zero: bool) -> str:
    return "residue" if residue else ("zero" if zero else "quadrature")


# --------------------------------------------------------------------------
# evaluation context (per spec + config), memoized on the frozen config
# --------------------------------------------------------------------------

class _Ctx:
    def __init__(self, spec: EpsilonSpec, cfg: FormulaConfig):
        self.spec = spec
        self.cfg = cfg
        self.pars: FactorParams = zw_params(spec)
        self._cuts: dict = {}
        self.zero_cuts: list[_Cut] = []  # the cuts of zeros, once it is built

    def G(self, s):
        """The residual Euler product at a point or an array of points,
        called directly."""
        return G_f(self.spec, s, self.cfg.gf_config)

    def sample(self, cuts) -> None:
        """Sample the G interpolants of the quadrature cuts among cuts that
        have none yet, one _sample_g_lines call per segment length b; a
        cut's bits do not depend on its group."""
        groups: dict[float, list[_Cut]] = {}
        for c in dict.fromkeys(cuts):
            if c.mode == "quadrature" and c.g_line is None:
                groups.setdefault(c.b, []).append(c)
        g_kernel = partial(G_f_line, self.spec, cfg=self.cfg.gf_config)
        for b, group in groups.items():
            lines = _sample_g_lines(g_kernel, np.array([c.s0 for c in group]), b)
            for cut, line in zip(group, lines):
                cut.g_line = line

    @cached_property
    def modes(self) -> dict:
        return {
            "delta_1": self.cut("one").mode,
            "delta_half": self.cut("half").mode,
            "delta_rho": self.cut((1, False)).mode,
        }

    @cached_property
    def zeros(self) -> list[tuple[int, _Cut, Optional[_Cut]]]:
        """(k, cut at rho_k, cut at its mirror) for the first n_zeros zeros;
        the mirror is None for a real spec, whose mirror term is the
        conjugate.  Once listed, their cuts join the next G sample of any
        cut (the hook _Cut.sample)."""
        real = self.spec.is_real_valued()
        zeros = [
            (k, self.cut((k, False)), None if real else self.cut((k, True)))
            for k in range(1, self.cfg.n_zeros + 1)
        ]
        self.zero_cuts = [c for _, cut, mirror in zeros for c in (cut, mirror) if c]
        return zeros

    # -- branch points ----------------------------------------------------------

    def cut(self, key) -> _Cut:
        """The cut at "one", "half" or (zero_index, conjugate), built once."""
        if key not in self._cuts:
            self._cuts[key] = self._build_cut(key)
        return self._cuts[key]

    def _build_cut(self, key) -> _Cut:
        z, w, k = self.pars.z, self.pars.w, self.cfg.kernel
        zi = self.pars.z_integer_case
        data = dict(
            z=z, w=w, g_at=self.G, sample=lambda: self.sample([self.cut(key), *self.zero_cuts])
        )

        def logs_L1(s, u):
            # one L1 call; a point's bits do not depend on its batch
            both = k.L1(np.concatenate([s, 2.0 * s]))
            return both[: s.size], both[s.size :]

        if key == "one":
            return _Cut(
                beta=z, b=0.5, radius=0.5,
                # (1 - 2u)^{-w} at u = 1/2: w = 1 within UNIT_TOL counts as 1
                alpha_right=1.0 if self.pars.w_is_one else max(w.real, 0.0),
                sine=cmath.sin(cmath.pi * z) / math.pi,
                x_pow=lambda x: x,
                mode=_mode(zi == 1, zi in (-1, 0)), s0=1.0,
                # 1 - 2u = 2 cu, exact near the right end
                prefactor=lambda u, cu: (1.0 - 2.0 * u if cu is None else 2.0 * cu) ** (-w),
                logs=logs_L1, phase=1.0, **data,
            )
        if key == "half":
            return _Cut(
                beta=w, b=0.5 - self.cfg.a, radius=0.5 - self.cfg.a, alpha_right=0.0,
                sine=cmath.sin(cmath.pi * (z + w)) / math.pi
                * cmath.exp((1.0 - w) * math.log(2.0)),
                x_pow=math.sqrt,
                mode=_mode(self.pars.w_is_one, near_integer(z + w) is not None), s0=0.5,
                prefactor=lambda u, cu: 0.5 * (0.5 + u) ** (-z), logs=logs_L1,
                # zeta(1/2)^z from above the cut (-inf, 1]: s - 1 = (1/2 + u) e^{i pi}
                phase=cmath.exp(-1j * math.pi * z), **data,
            )
        index, conjugate = key
        rho = k.rho(index, conjugate)
        return _Cut(
            beta=-z, b=0.5 - self.cfg.a, radius=k.table.gap_radius(index), alpha_right=0.0,
            sine=-cmath.sin(cmath.pi * z) / math.pi,
            x_pow=lambda x: cmath.exp(rho * math.log(x)),
            mode=_mode(zi == -1, zi in (0, 1)), s0=rho,
            prefactor=lambda u, cu: (rho - 1.0 - u) ** (-z),
            # the zero's sweep is built at the first J: a zero-mode cut builds none
            logs=lambda s, u: k.rho_sweep(index, conjugate).at(u),
            phase=1.0, **data,
        )


def _ctx(spec: EpsilonSpec, cfg: Optional[FormulaConfig]) -> _Ctx:
    if cfg is None:
        cfg = FormulaConfig()
    ctx = cfg._memo.get(spec)
    if ctx is None:
        ctx = cfg._memo[spec] = _Ctx(spec, cfg)
    return ctx


# --------------------------------------------------------------------------
# Laplace-form parts
# --------------------------------------------------------------------------

def _require_x(x: float, minimum: float = 3.0) -> float:
    if not minimum <= x < math.inf:
        raise DomainError(f"x must be finite and >= {minimum}, got {x}")
    return float(x)


def delta_1(spec: EpsilonSpec, x: float, cfg: Optional[FormulaConfig] = None) -> complex:
    """Main term from s=1.  Exactly 0 for z in {-1, 0}; residue for z=1."""
    x = _require_x(x)
    return _ctx(spec, cfg).cut("one").delta(x)


def delta_half(spec: EpsilonSpec, x: float, cfg: Optional[FormulaConfig] = None) -> complex:
    """Secondary term from s=1/2.  Exactly 0 for z+w integer (w != 1);
    residue for w=1."""
    x = _require_x(x)
    return _ctx(spec, cfg).cut("half").delta(x)


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
    return _ctx(spec, cfg).cut((zero_index, conjugate)).delta(x)


def zero_sum(spec: EpsilonSpec, x: float, cfg: Optional[FormulaConfig] = None) -> complex:
    """Sum over the first n_zeros zeros, each with its mirror at -gamma."""
    x = _require_x(x)
    return sum((p for _, p in _zero_pairs(_ctx(spec, cfg).zeros, x)), 0.0 + 0.0j)


def _zero_pairs(zeros, x: float) -> list[tuple[int, complex]]:
    """(k, Delta_rho + Delta_{conj rho}) for the zeros of _Ctx.zeros."""
    pairs = []
    for k, cut, mirror in zeros:
        d = cut.delta(x)
        pairs.append((k, d + (d.conjugate() if mirror is None else mirror.delta(x))))
    return pairs


# --------------------------------------------------------------------------
# Watson coefficients and asymptotic form
# --------------------------------------------------------------------------

def _parse_point(point):
    """Cut key of an expansion point: "one", "half", "zero:K" or ("zero", K)."""
    p = f"zero:{point[1]}" if isinstance(point, tuple) else str(point).lower()
    if p in ("one", "half"):
        return p
    if p.startswith("zero:") and p[5:].removeprefix("-").isdecimal():
        return (int(p[5:]), False)
    raise DomainError(f"unknown expansion point {point!r}")


def J(spec: EpsilonSpec, point, u: complex, cfg: Optional[FormulaConfig] = None) -> complex:
    """The integrand J_xi(u) at an expansion point of watson_coeffs, on its
    cut's disc: RangeError unless |u| < radius (1/2 at "one", 1/2 - a at
    "half", the gap radius at "zero:K") and Re(xi - u) >= RE_S_MIN.  At a
    zero every u continues the zero's logs along one leg from u = 0."""
    return _ctx(spec, cfg).cut(_parse_point(point)).at(u)


def watson_coeffs(
    spec: EpsilonSpec, point, M: int, cfg: Optional[FormulaConfig] = None
) -> list[complex]:
    """Taylor coefficients lambda_{xi,0..M} of J_xi at u=0.

    Trapezoid rule with WATSON_NODES nodes on |u| = WATSON_RADIUS
    (spectrally accurate for analytic integrands); lambda_0 is
    cross-checked against the direct value J_xi(0) to 1e-9 relative.
    """
    return _ctx(spec, cfg).cut(_parse_point(point)).coeffs(M)


def c_half(spec: EpsilonSpec, cfg: Optional[FormulaConfig] = None) -> complex:
    """Bias constant: sin(pi(z+w))/pi * 2^{1-w} Gamma(1-w) lambda_{1/2,0}.

    For w = 1 the residue path gives Gamma(1/2) zeta(1/2)^z G(1/2) / 2,
    the coefficient of sqrt(x) in Delta_{1/2}.
    """
    return _ctx(spec, cfg).cut("half").leading()


def watson_delta_half(
    spec: EpsilonSpec, x: float, M: int, cfg: Optional[FormulaConfig] = None
) -> complex:
    """Truncated Watson expansion of Delta_{1/2} (no error term added)."""
    x = _require_x(x, 10.0)
    return _ctx(spec, cfg).cut("half").watson(x, M)


# --------------------------------------------------------------------------
# assembled formula
# --------------------------------------------------------------------------

def a_exp_formula(
    spec: EpsilonSpec, x: float, cfg: Optional[FormulaConfig] = None
) -> FormulaBreakdown:
    """All explicit-formula parts at one x; total = d1 + d1/2 + zero sum."""
    x = _require_x(x)
    ctx = _ctx(spec, cfg)
    d1 = ctx.cut("one").delta(x)  # first part: a window error exits here
    zeros = ctx.zeros  # listed first, so the cut at 1/2 samples G with them
    dh = ctx.cut("half").delta(x)
    pairs = _zero_pairs(zeros, x)
    zsum = sum((p for _, p in pairs), 0.0 + 0.0j)
    return FormulaBreakdown(
        x=x,
        delta_1=d1,
        delta_half=dh,
        delta_rho=tuple(pairs),
        zero_sum=zsum,
        total=d1 + dh + zsum,
        modes=dict(ctx.modes),
        zero_tail=abs(pairs[-1][1]) if pairs else 0.0,
    )
