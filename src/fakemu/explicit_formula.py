"""Explicit formula for the smoothed summatory function.

Assembles  A_exp(x) = Delta_1(x) + Delta_{1/2}(x) + sum_rho Delta_rho(x)
from the jumps of F(s) Gamma(s) x^s across the branch cuts at s=1 and
s=1/2 (from zeta(s)^z and zeta(2s)^w) and at each nontrivial zero rho.
Each part is the same Selberg-Delange step, taken once by class _Cut:

  Delta_xi(x) = x^xi * { sine * int_0^b e^{-Lu} u^{-beta} J_xi(u) du   (quadrature)
                       { phase_xi * J_xi(0)                            (residue)
                       { 0                                             (zero)

with L = log x, right = the exponent of the singularity at u = b, and

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
(-2u)^{-w} split between P's 1/2 and the sine's 2^{1-w}).  A cut holds
only this data, with log P_xi (at xi = 1, log 2 + log cu for log(1 - 2u),
cu = 1/2 - u exact near the right end), and _Cut.j is the one integrand.
The residue is c_xi = phase_xi J_xi(0), the same step's limit, since
x^xi c_xi = Res_{s=xi} F(s) Gamma(s) x^s:

  xi = 1, z = 1:     zeta(s) = e^{L1(s)}/(s-1): the residue is x J_1(0).
  xi = 1/2, w = 1:   zeta(2s) = e^{L1(2s)} (1/2)/(s-1/2) gives P's 1/2, and
                     zeta(1/2)^z, from above the cut (-inf, 1], takes
                     (s-1)^{-z} = (1/2)^{-z} e^{-i pi z}: phase e^{-i pi z}.
  xi = rho, z = -1:  1/zeta(s) = (s-1) e^{-l1(s)}/(s-rho) with (rho-1)
                     e^{-l1(rho)} = 1/zeta'(rho): the residue is x^rho J_rho(0).

Quadrature is one fixed rule per cut, built once from its G line
(_Cut.set_rule).  The integral is singular only at u = 0 (u^{-beta}) and,
on the cut at 1, u = 1/2 ((1-2u)^{-w}).  Each such end is split off at r:
J's Taylor coefficients there, a discrete Fourier transform of J on N
points of a ring of radius R = 16 r (the trapezoid rule; Trefethen and
Weideman, SIAM Review 56, 2014), give the piece over [0, r] in closed form,
  sum_k lambda_k r^a e^{-Lr} sum_n (Lr)^n / (a)_{n+1},            a = k+1-beta,
and at u = 1/2, mu_k the coefficients in v = 1/2 - u of u^{-z} J_1 (1-2u)^w,
  e^{-L/2} 2^{-w} sum_k mu_k r^a sum_n (Lr)^n / (n! (a+n)),     a = k+1-w,
a polynomial in y = Lr < 0.1 whose coefficients do not depend on x
(_End).  The rest, [r, b] or [r, 1/2 - r], is 17-point Gauss-Legendre on
panels [t, 4t] graded from each singular end, each node term c = weight
u^{-beta} J one exp in log space.  The sizes follow from bounds, each
against eps = 2^-53.  Ring aliasing: lambda_k R^k is off by at most
M (R/D)^N / (1 - (R/D)^N), M = max |J| on the disc |u| < D of the end's
series (the cut's radius; 1/6 at u = 1/2, where G's half-plane Re s > 1/3
ends), so R <= D eps^{1/N}.  Truncation: with Cauchy's |lambda_k| <=
M_R R^{-k} on the ring, the terms k >= N add at most M_R r^{1-Re beta}
(r/R)^N / (1 - r/R): N = 14 at r = R/16.  The y series: |(a)_{n+1}| >=
|a| n! for Re a > 0, so it stops where y^{n+1}/(n+1)! <= eps at y = r log
DBL_MAX, every finite x.  Panels: n-node Gauss-Legendre errs by at most
(64/15) M rho^{-2n} / (rho^2 - 1) of the half-length for an integrand
bounded by M on the Bernstein ellipse E_rho (Trefethen, Approximation
Theory and Approximation Practice, Thm 19.3); on [t, 4t] u = 0 lies on
E_3, inside which Re u > 0 and |e^{-Lu}| <= 1 at every x, and n = 17
brings the factor at rho = 3 below eps (M grows as rho nears 3 where
Re beta > 0: a rate).  The G line off its segment: a polynomial of
degree n exceeds its bound on [-1, 1] by at most rho_z^n at z
(Bernstein-Walsh), so the line's error on a ring is at most rho_z^n
times its error on the segment; R is the largest radius with rho_z^n <=
_LINE_GROWTH = 8 (~1e-4 at degree 32 on b = 0.1), and this caps R.
A cut thus holds 100 to 300 rows, whatever its exponents.  An x is one
pass, _Ctx.deltas, over the cuts it asks for (all in a_exp_formula):
every window first, then the G line and rule of each quadrature cut that
lacks them, then one real exp over these cuts' rows, one np.add.reduceat
(_Ctx._middles) and a Horner step per end.  A cut's sum has the bits of
np.sum over its rows alone, so a part has the same bits alone and in any
pass; another x calls no J, G, zeta or sweep.  A part that is not a
finite number (Delta_1 near the largest double) raises RangeError.
J is an array function throughout: a cut reads l1, l2 and Gamma(s) at
all its points from its branch point's sweep on the kernel
(zeta_kernel.Sweep), which computes only the points it has not served,
in one call of the logs and one gamma call, and only P_xi, G and the exp
are the cut's own work; the public J and J(0) are its one-point case, and
a point's J has the same bits alone, in any array and after any spec.
Each cut owns its disc, |u| < radius (1/2 at s = 1, 1/2 - a at s = 1/2,
the zero's gap radius at rho), and the paper's window, Re w < 1
(_Cut._require_integrable): the one check of each.

On the rule's nodes and rings G(s0 - u), s0 = 1, 1/2 or rho, comes from
one Chebyshev interpolant per cut (_GLine) on 0 <= u <= b, where G is
holomorphic (Re s > 1/3), so the coefficients decay geometrically
(Trefethen, ATAP, ch. 8).  A cut samples G on nested Chebyshev points of
degree 16, 32, 64, ... until the last quarter of the coefficients lies
below CHEB_TOL = 2^-46 of the largest (an a-posteriori estimate); past
CHEB_MAX_DEGREE it raises QuadratureError.  A pass samples its cuts per
segment length in lock-step (_sample_g_lines), one G_f_line call per
degree, each row with the bits it has alone.  A cut then reads its line
once: its end rings and panel nodes follow from the line's degree and b
alone, so set_rule takes them all first and evaluates the line at all of
them in one _clenshaw call before any J.  Every other G (the residues,
J(0), the Watson ring, the public J) is a direct G_f call.

Watson coefficients lambda_{xi,k} of J_xi at u = 0 come from a
WATSON_NODES-node trapezoid rule on the circle |u| = WATSON_RADIUS
(Trefethen and Weideman, SIAM Review 56, 2014); every cut takes the ring
once, as one call of j on its points.  Delta_xi ~ sine x^xi sum_k lambda_k
Gamma(1-beta+k) L^{beta-1-k}, whose k = 0 term gives c_{1/2}.

The sweeps are kept on the kernel for every spec and config, one per
branch point: "one" and "half", whose logs are L1(s) and L1(2s), and each
zero (and mirror zero), whose two branch-tracked logs come from a
zeta_kernel.RhoSweep built at the first J of the zero, each a leg from
u = 0.  A sweep serves the rule's nodes and end rings, the Watson ring,
J(0) and J at complex u.  The nodes and rings follow from a cut's b and
its G line's degree alone (set_rule), so specs whose lines stop at the
same degree read the same points, and the Watson ring and J(0) are the
same for every spec.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import count
from numbers import Integral, Real
from typing import Callable, Optional

import numpy as np

from .eps_model import EpsilonSpec, FactorParams, near_integer, zw_params
from .errors import (
    ConsistencyError, DomainError, QuadratureError, RangeError, WindowError,
)
from .euler_residual import RE_S_MIN, G_f, G_f_line, GfConfig
from .zeta_kernel import Sweep, ZetaKernel, default_kernel, gamma

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
    (cuts, their node table, G lines); dataclasses.replace starts an empty one.
    """

    a: float = 0.40
    n_zeros: int = 30
    gf_config: GfConfig = field(default_factory=GfConfig)
    kernel: Optional[ZetaKernel] = None
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.a, bool) or not isinstance(self.a, Real):
            raise DomainError(f"a must be a real number, got {self.a!r}")
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
        elif not isinstance(self.kernel, ZetaKernel):
            raise DomainError(f"kernel must be a ZetaKernel or None, got {self.kernel!r}")
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
# G along one cut's segment: a Chebyshev interpolant on nested points
# --------------------------------------------------------------------------

@cache
def _dct_matrix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(jk pi/n) for j, k = 0..n, with jk reduced mod 2n first, so each
    cosine is taken at a multiple of pi/n below 2 pi, and the end weights
    (1/2 at j = 0, n); built once per degree, read-only."""
    j = np.arange(n + 1)
    ends = np.ones(n + 1)
    ends[[0, n]] = 0.5
    cosines = np.cos(np.outer(j, j) % (2 * n) * (math.pi / n))
    cosines.flags.writeable = ends.flags.writeable = False
    return cosines, ends


def _cheb_coeffs(vals: np.ndarray) -> np.ndarray:
    """Coefficients of the interpolant through vals at x_j = cos(j pi/n),
    j = 0..n (a DCT-I): c_k = (2/n) sum_j vals_j cos(jk pi/n), with the
    terms j = 0, n and the coefficients c_0, c_n halved."""
    n = vals.size - 1
    cosines, ends = _dct_matrix(n)
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


@dataclass(frozen=True)
class _GLine:
    """G(s0 - u) for 0 <= u <= b, from its Chebyshev coefficients c at the
    samples of _sample_g_lines, u_j = b sin^2(j pi/2n) (x_j = 1 - 2u/b)."""

    c: np.ndarray
    b: float

    def __call__(self, u: np.ndarray, cu: np.ndarray) -> np.ndarray:
        """G at s0 - u, cu = b - u, real or complex: x from the one nearer its end."""
        x = np.where(np.abs(u) <= np.abs(cu), 1.0 - 2.0 * u / self.b, 2.0 * cu / self.b - 1.0)
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
# the fixed rule of a quadrature cut: sizes and end pieces (module docstring)
# --------------------------------------------------------------------------

_EPS = 2.0 ** -53
_L_MAX = math.log(np.finfo(np.float64).max)  # log x at every finite x
_SPLIT = 16.0  # an end ring of radius R splits off [0, R/_SPLIT]
_RING_POINTS = math.ceil(math.log(_EPS * (1.0 - 1.0 / _SPLIT)) / -math.log(_SPLIT))
_LINE_GROWTH = 8.0  # the most rho_z^n may reach on a ring
_PANEL_RATIO = 4.0  # panels [t, 4t]: u = 0 is on their Bernstein ellipse rho = 3
_RING = np.exp(2j * math.pi * np.arange(_RING_POINTS) / _RING_POINTS)  # the unit ring
# the trapezoid rule on a ring of radius R: lambda_k R^k = (J on it) @ _DFT
_DFT = _RING[np.outer(*[np.arange(_RING_POINTS)] * 2) % _RING_POINTS].conj() / _RING_POINTS


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights: Newton's method on P_n from its recurrence."""
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(n), x
        for m in range(2, n + 1):
            p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_GAUSS = _gauss_legendre(next(n for n in count(1) if 8 / 15 * 9.0 ** -n <= _EPS))


def _panels(r: float, top: float) -> tuple[np.ndarray, np.ndarray]:
    """(t, weight) on Gauss-Legendre panels r, r q, ..., top, q = _PANEL_RATIO."""
    k = max(1, math.ceil(math.log(top / r) / math.log(_PANEL_RATIO)))
    edges = np.append(r * _PANEL_RATIO ** np.arange(k), top)
    lo, hi = edges[:-1, None], edges[1:, None]
    x, w = _GAUSS
    return (0.5 * (lo + hi) + 0.5 * (hi - lo) * x).ravel(), (0.5 * (hi - lo) * w).ravel()


def _middle(b: float, left: float, right: Optional[float] = None):
    """(u, cu = b - u, weight) at the Gauss-Legendre nodes from the left
    end's r to b, or to b/2 and on to b - r of a right end (cu exact)."""
    t, weight = _panels(left, b if right is None else 0.5 * b)
    if right is None:
        return t, b - t, weight
    v, w = _panels(right, 0.5 * b)
    return np.concatenate([t, b - v]), np.concatenate([b - t, v]), np.concatenate([weight, w])


@dataclass(frozen=True)
class _End:
    """A singular end's piece over [0, r = radius/_SPLIT], e^{-L shift} sum_n
    coeffs[n] (Lr)^n (module docstring), from the coefficients taylor =
    lambda_k R^k of its ring: at u = 0 (b None, shift r) or at u = b."""

    r: float
    radius: float
    taylor: np.ndarray
    coeffs: tuple[complex, ...]
    shift: float

    @classmethod
    def build(cls, taylor, radius, exponent, b=None) -> "_End":
        r = radius / _SPLIT
        y = _L_MAX * r
        n = np.arange(next(m for m in count(1) if y ** m / math.factorial(m) <= _EPS))
        k = np.arange(taylor.size)[:, None]
        a = k + 1.0 - exponent + n
        den = np.cumprod(a, axis=1) if b is None else a * np.cumprod(np.maximum(n, 1))
        coeffs = np.sum(taylor[:, None] * (r / radius) ** k / den, axis=0)
        coeffs *= cmath.exp((1.0 - exponent) * math.log(r))
        return cls(r, radius, taylor, tuple(complex(v) for v in coeffs), r if b is None else b)

    def __call__(self, ell: float) -> complex:
        y, acc = ell * self.r, 0j
        for c in reversed(self.coeffs):
            acc = acc * y + c
        return acc * math.exp(-ell * self.shift)


# --------------------------------------------------------------------------
# one branch point: Laplace quadrature, residue or exact zero, and Watson
# --------------------------------------------------------------------------

@dataclass(eq=False)
class _Cut:
    """The Selberg-Delange step at one branch point xi (module docstring).

    A cut holds only xi's data: its exponent, sine and mode, log P_xi(u,
    log cu), the kernel's sweep at xi (l1, l2 and Gamma at s = s0 - u) and
    the residue phase, and its rule, built once by set_rule: g_line (G on
    the segment), rows (the middle nodes' u and c after a zero row) and
    ends (its end pieces).
    j(u, log_cu, g, log_scale) is e^{log_scale} J_xi over an array of u,
    real or complex, with log cu = log(b - u) exact near the right end and
    g the values of G at s (one G_f call when g is None, as in the Watson
    ring and J(0)); at(u) is its one point, checked against the disc.
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
    log_prefactor: Callable  # log P_xi(u, log cu)
    sweep: Callable[[], Sweep]  # the kernel's sweep at xi: (l1, l2, Gamma) at s0 - u
    phase: complex  # c_xi = phase J_xi(0)
    g_at: Callable[[np.ndarray], np.ndarray]  # G_f
    name: str  # the part, in errors
    right_disc: Optional[float] = None  # |b - u| < right_disc: a singular end's series
    g_line: Optional[_GLine] = field(default=None, init=False, repr=False)
    rows: Optional[tuple] = field(default=None, init=False, repr=False)
    ends: tuple = field(default=(), init=False, repr=False)

    def j(self, u, log_cu=None, g=None, log_scale=0.0) -> np.ndarray:
        """e^{log_scale} J_xi(u) = exp(log_scale + log P_xi(u) + z l1(s) +
        w l2(s)) G(s) Gamma(s), s = s0 - u, in one exp."""
        u = np.asarray(u, dtype=np.complex128)
        l1, l2, gamma_s = self.sweep().at(u)
        return (
            np.exp(log_scale + self.log_prefactor(u, log_cu) + self.z * l1 + self.w * l2)
            * (self.g_at(self.s0 - u) if g is None else g)
            * gamma_s
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

    def set_rule(self, line: _GLine) -> None:
        """The rule from the G line: each singular end's piece (u = 0, u = b
        if right_disc is set) and the panels' rows.  A ring's R keeps
        rho_z^n <= _LINE_GROWTH (rho_z + 1/rho_z = 2 + 4R/b) and (R/disc)^N <=
        eps.  The rings and nodes follow from the line's degree and b alone,
        so the line is read once, at all of them, before any J."""
        self.g_line, b = line, self.b
        rho = _LINE_GROWTH ** (1.0 / (line.c.size - 1))

        def ring(disc):
            radius = min(b * (rho - 1.0) ** 2 / (4.0 * rho), disc * _EPS ** (1.0 / _RING_POINTS))
            return radius, radius * _RING

        radius, u = ring(self.radius)
        radii, pieces = [radius], [(u, b - u)]
        if self.right_disc is not None:
            radius, v = ring(self.right_disc)
            radii.append(radius)
            pieces.append((b - v, v))
        middle = _middle(b, *(r / _SPLIT for r in radii))
        pieces.append(middle[:2])
        g = line(*(np.concatenate(side) for side in zip(*pieces)))
        g = np.split(g, np.cumsum([p.size for p, _ in pieces[:-1]]))
        ends = [_End.build(self.j(u, None, g[0]) @ _DFT, radii[0], self.beta)]
        if self.right_disc is not None:
            # u = b - v at the cut at 1: the log scale cancels P's (2v)^{-w},
            # and the series is u^{-beta} J (2v)^w 2^{-w} = u^{-beta} J v^w
            log_v = np.log(v)
            series = self.j(b - v, log_v, g[1], self.w * (math.log(2.0) + log_v))
            series *= np.exp(-self.beta * np.log(b - v) - self.w * math.log(2.0))
            ends.append(_End.build(series @ _DFT, radii[1], self.w, b))
        self.ends = tuple(ends)
        u, cu, weight = middle
        c = self.j(u, np.log(cu), g[-1], np.log(weight) - self.beta * np.log(u))
        self.rows = (np.concatenate([[0.0], u]), np.concatenate([[0.0], c]))

    def middle(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, cu = b - u, weight) at the rule's Gauss-Legendre nodes."""
        return _middle(self.b, *(end.r for end in self.ends))

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
        if isinstance(M, bool) or not isinstance(M, Integral):
            raise DomainError(f"Watson order M must be an integer, got {M!r}")
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


def _sin_pi(z: complex, w: complex = 0.0) -> complex:
    """sin(pi (z + w))/pi as (-1)^k sin(pi ((z - k) + w))/pi, k the integer
    nearest Re(z + w).

    z - k is exact where z lies near k, and (z - k) + w where w lies near
    k - z (Sterbenz), so the sine keeps its relative digits where it
    vanishes; sin(pi z) itself loses them to the rounding of pi z (at z =
    e^{i theta}, 9.5e-11 relative at theta = 1e-7, 3.9e-8 at 1e-9)."""
    k = round((z + w).real)
    v = cmath.sin(cmath.pi * ((z - k) + w)) / math.pi
    return -v if k % 2 else v


# --------------------------------------------------------------------------
# evaluation context (per spec + config), memoized on the frozen config
# --------------------------------------------------------------------------

class _Ctx:
    def __init__(self, spec: EpsilonSpec, cfg: FormulaConfig):
        self.spec = spec
        self.cfg = cfg
        self.pars: FactorParams = zw_params(spec)
        self._cuts: dict = {}
        self._table: tuple = ((), ())  # (cuts, their rows as one table)

    def G(self, s):
        """The residual Euler product at a point or an array of points,
        called directly."""
        return G_f(self.spec, s, self.cfg.gf_config)

    def deltas(self, x: float, cuts: list[_Cut]) -> list[complex]:
        """Delta_xi(x) at each of cuts, in one pass: every window first, so a
        window error comes before any G sample; the G lines and rules the
        quadrature cuts lack, one _sample_g_lines call per segment length;
        their middle sums in one _middles, and their end pieces."""
        for cut in cuts:
            cut._require_integrable()
        bare = [cut for cut in cuts if cut.mode == "quadrature" and cut.rows is None]
        for b in {cut.b: None for cut in bare}:
            group = [cut for cut in bare if cut.b == b]
            g_kernel = partial(G_f_line, self.spec, cfg=self.cfg.gf_config)
            lines = _sample_g_lines(g_kernel, np.array([cut.s0 for cut in group]), b)
            for cut, line in zip(group, lines):
                cut.set_rule(line)
        ell = math.log(x)
        middles = iter(self._middles(ell, tuple(cut for cut in cuts if cut.rows is not None)))
        out = []
        for cut in cuts:
            if cut.mode == "quadrature":
                part = cut.sine * cut.x_pow(x) * (next(middles) + sum(end(ell) for end in cut.ends))
            else:
                part = cut.x_pow(x) * cut.residue if cut.mode == "residue" else 0j
            out.append(_finite(cut.name, x, part))
        return out

    def _middles(self, ell: float, cuts: tuple) -> list:
        """sum c e^{-Lu} over each cut's rows: one exp over the pass's table
        (kept while the passes ask for the same cuts) and one np.add.reduceat,
        which seeds each sum with the cut's zero row: np.sum over its rows."""
        if not cuts:
            return []
        if self._table[0] != cuts:
            rows = [cut.rows for cut in cuts]
            starts = np.cumsum([0] + [u.size for u, _ in rows[:-1]])
            self._table = (cuts, (*(np.concatenate(col) for col in zip(*rows)), starts))
        u, c, at = self._table[1]
        return np.add.reduceat(c * np.exp(-ell * u), at).tolist()

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
        conjugate."""
        real = self.spec.is_real_valued()
        return [
            (k, self.cut((k, False)), None if real else self.cut((k, True)))
            for k in range(1, self.cfg.n_zeros + 1)
        ]

    @cached_property
    def zero_cuts(self) -> list[_Cut]:
        """The cuts of zeros in _zero_pairs' order: each zero, then its mirror."""
        return [c for _, cut, mirror in self.zeros for c in (cut, mirror) if c]

    # -- branch points ----------------------------------------------------------

    def cut(self, key) -> _Cut:
        """The cut at "one", "half" or (zero_index, conjugate), built once."""
        if key not in self._cuts:
            self._cuts[key] = self._build_cut(key)
        return self._cuts[key]

    def _build_cut(self, key) -> _Cut:
        z, w, k = self.pars.z, self.pars.w, self.cfg.kernel
        zi = self.pars.z_integer_case
        # the zero's sweep is built at the first J: a zero-mode cut builds none
        data = dict(z=z, w=w, g_at=self.G, sweep=partial(k.sweep, key))
        if key == "one":
            return _Cut(
                beta=z, b=0.5, radius=0.5,
                # (1 - 2u)^{-w} at u = 1/2: w = 1 within UNIT_TOL counts as 1
                alpha_right=1.0 if self.pars.w_is_one else max(w.real, 0.0),
                sine=_sin_pi(z),
                x_pow=lambda x: x,
                mode=_mode(zi == 1, zi in (-1, 0)), s0=1.0,
                log_prefactor=lambda u, log_cu: -w * (  # 1 - 2u = 2 cu, exact near u = b
                    np.log(1.0 - 2.0 * u) if log_cu is None else math.log(2.0) + log_cu
                ),
                phase=1.0, name="delta_1", right_disc=1.0 / 6.0, **data,
            )
        if key == "half":
            return _Cut(
                beta=w, b=0.5 - self.cfg.a, radius=0.5 - self.cfg.a, alpha_right=0.0,
                sine=_sin_pi(z, w) * cmath.exp((1.0 - w) * math.log(2.0)),
                x_pow=math.sqrt,
                mode=_mode(self.pars.w_is_one, near_integer(z + w) is not None), s0=0.5,
                log_prefactor=lambda u, log_cu: -math.log(2.0) - z * np.log(0.5 + u),
                # zeta(1/2)^z from above the cut (-inf, 1]: s - 1 = (1/2 + u) e^{i pi}
                phase=cmath.exp(-1j * math.pi * z), name="delta_half", **data,
            )
        index, conjugate = key
        rho = k.rho(index, conjugate)
        return _Cut(
            beta=-z, b=0.5 - self.cfg.a, radius=k.table.gap_radius(index), alpha_right=0.0,
            sine=-_sin_pi(z),
            x_pow=lambda x: cmath.exp(rho * math.log(x)),
            mode=_mode(zi == -1, zi in (0, 1)), s0=rho,
            log_prefactor=lambda u, log_cu: -z * np.log(rho - 1.0 - u),
            phase=1.0, name=f"delta_rho({index}{', mirror' if conjugate else ''})", **data,
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
    if not (isinstance(x, Real) and minimum <= x < math.inf):
        raise DomainError(f"x must be a finite real number >= {minimum}, got {x!r}")
    return float(x)


def _finite(name: str, x: float, value: complex) -> complex:
    if not cmath.isfinite(value):
        raise RangeError(f"{name} at x = {x!r} is {value}: not a finite number")
    return value


def _part(spec: EpsilonSpec, key, x: float, cfg: Optional[FormulaConfig]) -> complex:
    x = _require_x(x)
    ctx = _ctx(spec, cfg)
    return ctx.deltas(x, [ctx.cut(key)])[0]


def delta_1(spec: EpsilonSpec, x: float, cfg: Optional[FormulaConfig] = None) -> complex:
    """Main term from s=1.  Exactly 0 for z in {-1, 0}; residue for z=1."""
    return _part(spec, "one", x, cfg)


def delta_half(spec: EpsilonSpec, x: float, cfg: Optional[FormulaConfig] = None) -> complex:
    """Secondary term from s=1/2.  Exactly 0 for z+w integer (w != 1);
    residue for w=1."""
    return _part(spec, "half", x, cfg)


def delta_rho(
    spec: EpsilonSpec,
    zero_index: int,
    x: float,
    cfg: Optional[FormulaConfig] = None,
    conjugate: bool = False,
) -> complex:
    """Oscillatory term of one zero.  Exactly 0 for z in {0, 1}; residue
    Gamma(rho) x^rho zeta(2 rho)^w G(rho) / zeta'(rho) for z = -1."""
    return _part(spec, (zero_index, conjugate), x, cfg)


def zero_sum(spec: EpsilonSpec, x: float, cfg: Optional[FormulaConfig] = None) -> complex:
    """Sum over the first n_zeros zeros, each with its mirror at -gamma."""
    x = _require_x(x)
    ctx = _ctx(spec, cfg)
    return _total(_zero_pairs(ctx.zeros, ctx.deltas(x, ctx.zero_cuts)))


def delta_half_and_zero_sum(
    spec: EpsilonSpec, x: float, cfg: Optional[FormulaConfig] = None
) -> tuple[complex, complex]:
    """Delta_{1/2}(x) and the zero sum in one pass, which leaves out the
    cut at 1: the formula's A_exp(x) - Delta_1(x) is their sum."""
    x = _require_x(x)
    ctx = _ctx(spec, cfg)
    dh, *rho = ctx.deltas(x, [ctx.cut("half"), *ctx.zero_cuts])
    return dh, _total(_zero_pairs(ctx.zeros, rho))


def _zero_pairs(zeros, values: list[complex]) -> list[tuple[int, complex]]:
    """(k, Delta_rho + Delta_{conj rho}) for the zeros of _Ctx.zeros, from
    the values of their cuts in the order of _Ctx.zero_cuts."""
    values = iter(values)
    pairs = []
    for k, _, mirror in zeros:
        d = next(values)
        pairs.append((k, d + (d.conjugate() if mirror is None else next(values))))
    return pairs


def _total(pairs: list[tuple[int, complex]]) -> complex:
    return sum((p for _, p in pairs), 0.0 + 0.0j)


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
    """All explicit-formula parts at one x, in one pass over the context's
    cuts; total = d1 + d1/2 + zero sum."""
    x = _require_x(x)
    ctx = _ctx(spec, cfg)
    d1, dh, *rho = ctx.deltas(x, [ctx.cut("one"), ctx.cut("half"), *ctx.zero_cuts])
    pairs = _zero_pairs(ctx.zeros, rho)
    zsum = _total(pairs)
    return FormulaBreakdown(
        x=x,
        delta_1=d1,
        delta_half=dh,
        delta_rho=tuple(pairs),
        zero_sum=zsum,
        total=_finite("total", x, d1 + dh + zsum),
        modes=dict(ctx.modes),
        zero_tail=abs(pairs[-1][1]) if pairs else 0.0,
    )
