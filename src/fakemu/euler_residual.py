"""Residual Euler product G(s).

The Dirichlet series of f factors as zeta(s)^z zeta(2s)^w G(s), where the
local factors  G_p(s) = (1-p^{-s})^z (1-p^{-2s})^w g(p^{-s})  satisfy
G_p - 1 = O(p^{-3 Re s}), so G is holomorphic and bounded on Re s > 1/3.
Evaluation truncates the log-sum

    log G(s) ~ sum_{p <= P} [log g(p^{-s}) + z log(1-p^{-s}) + w log(1-p^{-2s})]

at P = prime_limit (default 1e5) with principal logs per factor;
G_f_tail_estimate bounds the dropped tail in closed form from the a_k
below and a bound on pi(t).  Any winding error a
principal log could commit at the few smallest primes is caught by the
global factorization-identity tests rather than per-factor logic.

One kernel evaluates it: G_f_line(spec, s0, u) returns G(s0_i - u_j)
for real u_j >= 0, the points of a horizontal segment, and for one s0 or
an array of them (the cut at 1/2 and the zero cuts of the explicit
formula share one real part); it takes the rows in groups of one real
part.  G_f(s) is its case u = [0] with s as the rows, for a point or an
array of points (a Watson ring).  Within a group, with sigma_min =
Re s0 - max u, every point has
|p^{-s}| <= p^{-sigma_min}, and the primes split in two (H. Cohen, High
precision computation of Hardy-Littlewood constants, 1998):

- explicit primes, p^{-sigma_min} > RHO_SERIES = 0.07 (301 primes at
  sigma_min = 0.35, 46 at 1/2, 6 at 1), take the three principal logs of
  `_log_terms` at each point;
- every other prime enters log G_p = sum_{k>=3} a_k u^k, u = p^{-s}.

Power series.  For |u| <= R < 1/2 and eps_k unimodular or zero,
|g(u) - 1| <= sum_k R^k = R/(1-R) < 1, so log g, log(1-u) and log(1-u^2)
are analytic on the disc, equal to their principal values, and their sum
h(u) = log[g(u) (1-u)^z (1-u^2)^w] is the power series sum_k a_k u^k.
_log_coeffs computes the a_k once per spec, on first use: with L_k the
coefficients of log g, b_k = k L_k = k eps_k - sum_{j<k} b_j eps_{k-j}
(from g' = g (log g)'), and k a_k = b_k - z - 2w [k even].  a_1 and a_2
vanish by the choice of z and w.  On |u| = R,

    |h| <= M = -log(1 - R/(1-R)) + |z| (-log(1-R)) + |w| (-log(1-R^2)),

so Cauchy's estimate gives |a_k| <= M R^{-k}, R = CAUCHY_RADIUS = 0.45.
The order bound reads the computed a_k up to _MAX_ORDER = 64 and Cauchy's
estimate only past it: with rho = p^{-sigma_min} <= 0.07 and
r = rho/R <= 0.156, dropping a series prime's orders above K leaves at most

    T(rho, K) = sum_{K<k<=64} |a_k| rho^k + M r^65/(1-r)

in log G.  Its order K_p is the least K with T <= SERIES_TOL/N, N series
primes, so the dropped terms of all series primes together move log G by
at most SERIES_TOL = 2^-53, i.e. G by a relative 2^-53.  T falls with
rho, so one bisection per K over the primes finds where K starts to
suffice.  Orders reach 18-19 at sigma_min = 0.35 (about 85000
prime-order pairs per point at sigma_min = 0.4, against 109000 from
Cauchy's estimate alone at every order), and a prime whose K_p is 2 is
left out.  The orders are taken at sigma_min rounded down to a multiple
of 1/256, which only adds terms (0.4% more pairs at 0.4), and kept for 64
(spec, rounded sigma_min, prime limit).  On series primes |g| >= 1 - 0.07/0.93, so only
an explicit prime can meet a zero of g.  G is 0 there, a legitimate value:
the log of g is -inf (or very negative where g is only rounded to ~0),
and the exp of the sum is the product.

Shared phase.  On the segment u_p(s0 - u_j) = p^{-s0} p^{u_j}, so a call
takes one complex exp per (series prime, s0) and one real exp per (prime,
point).  Per block of primes the real (primes x points) matrix p^{u_j},
its cube and its update per order are computed once for all s0; per
order k and per s0, the row p^{-k s0} viewed as (2 x primes) reals times
p^{k u_j} is one matrix product, kept per row because BLAS blocking over
several rows moves a row's bits with their number.  A zero's mirror,
s0 = conj(rho), takes the products of rho with their imaginary parts
negated: complex exp and products are conjugate-symmetric to the bit.  So
each row has the bits it has in a call of its own.  The buffers hold at
most _BLOCK = 2^14 float64 entries (128 kB) each: a block takes at most
_BLOCK/2 primes, since a complex row p^{-k s0} holds two entries per
prime, so a one-point G (~9500 series primes) takes two blocks.  The
explicit logs go in blocks of 64 kB of complex, so memory does not grow
with the number of rows, points or primes.

Rounding.  A series term carries rounding relative to its own size,
|u|^3 and below, so G's rounding comes from the explicit primes.  Their
three logs go through `_log_near_unit` rather than `np.log`.  Almost all of
their arguments lie within ~p^{-Re s} of 1.  For such values off the real
axis numpy's complex log (the C library's clog) takes its careful |v| ~ 1
path, which forms |v|^2 - 1 exactly at ~200 ns per element, several times
the cost of the rest of G.  The kernel writes log v = log|v| + i arg v with

    log|v| = log1p(d) / 2,   d = |v|^2 - 1 = (re - 1)(re + 1) + im^2.

Near 1, re - 1 is exact and d = 2 Re(v-1) + |v-1|^2 carries no
cancellation beyond what its two terms bring, so the error stays within
a few ulp of |log v| however close v is to 1.  Where |d| > 1/2,
1 + d no longer carries log|v| to full accuracy as |v| -> 0 and im^2 can
overflow, so those entries use log(abs(v)) instead.  The imaginary part
is atan2(im, re): the principal branch, with the sign of a zero imaginary
part picking +pi or -pi on the negative real axis as np.log does.  Where
the phase Im(s) log p of p^{-s} reaches 8 rad it is reduced mod 2 pi in
extended precision, as in zeta: in double precision it loses ~1e-14 at
Im s ~ 21, which the smallest primes pass on to G.  What is left is the rounding of the log
arguments g(u), 1 - u and 1 - u^2 near 1, an absolute ~eps per explicit
prime: against a long-double product over the same primes G is within
6e-15 relative on every fig53 segment at a = 0.35, where the sum of the
three logs over all 9592 primes reaches 2.6e-14.

The sieved log-prime table is shared by every GfConfig of one prime limit
and is read-only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, lru_cache
from numbers import Integral
from typing import Optional

import numpy as np

from .eps_model import EpsilonSpec, _g_eval_array, eps_at, zw_params
from .errors import CapacityError, DomainError, RangeError
from .sieve import primes_up_to
from .zeta_kernel import _F128, _PHASE_MAX_FLOAT64, _pow_minus_s

RE_S_MIN = 0.35
_NEAR_UNIT = 0.5  # | |v|^2 - 1 | at most this takes the log1p form
#: A prime with p^{-sigma_min} above RHO_SERIES keeps its three principal
#: logs; every other prime enters the power series of log G_p.
RHO_SERIES = 0.07
#: Radius R < 1/2 of the Cauchy estimate |a_k| <= M R^{-k}.
CAUCHY_RADIUS = 0.45
#: Bound on the dropped series terms of log G, summed over all primes.
SERIES_TOL = 2.0 ** -53
#: Coefficients a_k are computed for k <= _MAX_ORDER; a series prime needs
#: at most ~30 (module docstring); 64 would take ~1e36 series primes.
_MAX_ORDER = 64
#: Series orders are taken at sigma_min rounded down to a multiple of
#: 1/_ORDER_GRID, and kept per (spec, that value, prime limit).
_ORDER_GRID = 256
#: Entries of one (primes x points) buffer of the series sum: 128 kB.
_BLOCK = 2 ** 14
#: Largest prime limit: a 100 MB sieve mask, 46 MB per array of its primes.
PRIME_LIMIT_CAP = 10 ** 8


@cache
def _log_primes(prime_limit: int) -> np.ndarray:
    """log p for the primes p <= prime_limit, sieved once per limit."""
    logp = np.log(primes_up_to(prime_limit).astype(np.float64))
    logp.flags.writeable = False
    return logp


@dataclass(eq=False, frozen=True)
class GfConfig:
    """Prime-limit configuration; configs of one limit share one prime table.
    Frozen: the limit fixes the G lines a FormulaConfig's cache keeps."""

    prime_limit: int = 100_000

    def __post_init__(self):
        if isinstance(self.prime_limit, bool) or not isinstance(self.prime_limit, Integral):
            raise DomainError(f"prime_limit must be an integer, got {self.prime_limit!r}")
        if self.prime_limit < 2:
            raise DomainError("prime_limit must be >= 2")
        if self.prime_limit > PRIME_LIMIT_CAP:
            raise CapacityError(f"prime_limit {self.prime_limit} exceeds cap {PRIME_LIMIT_CAP}")

    @property
    def logp(self) -> np.ndarray:
        return _log_primes(self.prime_limit)


def _log_near_unit(v: np.ndarray) -> np.ndarray:
    """Principal log of a complex array whose values mostly lie near 1."""
    re, im = v.real, v.imag
    d = (re - 1.0) * (re + 1.0) + im * im  # |v|^2 - 1
    far = np.abs(d) > _NEAR_UNIT
    d[far] = 0.0
    out = np.empty(v.shape, dtype=np.complex128)
    np.log1p(d, out=out.real)
    out.real *= 0.5
    with np.errstate(divide="ignore"):  # log 0 = -inf at a zero of g
        out.real[far] = np.log(np.abs(v[far]))
    np.arctan2(im, re, out=out.imag)
    return out


def _log_terms(spec: EpsilonSpec, s, logp: np.ndarray) -> np.ndarray:
    """Per-prime log G_p(s) with principal logs; s is a point or a column
    of points, which broadcasts against logp (ascending).  At a point whose
    phase Im(s) log p of u = p^{-s} reaches _PHASE_MAX_FLOAT64 rad, u is
    zeta's _pow_minus_s, which reduces the phase mod 2 pi in extended
    precision or raises PlatformError where longdouble is float64; the
    choice is made per point, so a point's bits do not depend on its
    batch."""
    pars = zw_params(spec)
    s = np.asarray(s, dtype=np.complex128)
    shape = np.broadcast_shapes(s.shape, logp.shape)
    col = s.reshape(-1, 1)
    u = np.empty((col.shape[0], logp.size), dtype=np.complex128)
    wide = np.abs(col[:, 0].imag) * (logp[-1] if logp.size else 0.0) >= _PHASE_MAX_FLOAT64
    if not np.all(wide):
        u[~wide] = np.exp(-col[~wide] * logp)
    if np.any(wide):
        u[wide] = _pow_minus_s(logp, logp.astype(_F128), col[wide, 0])
    u = u.reshape(shape)
    g = _g_eval_array(spec, u.ravel()).reshape(u.shape)
    return (
        _log_near_unit(g)
        + pars.z * _log_near_unit(1.0 - u)
        + pars.w * _log_near_unit(1.0 - u * u)
    )


@lru_cache(maxsize=64)
def _log_coeffs(spec: EpsilonSpec) -> np.ndarray:
    """a_0.._MAX_ORDER with log[g(u) (1-u)^z (1-u^2)^w] = sum_k a_k u^k.

    b_k = k L_k, where log g = sum_k L_k u^k, follows from g' = g (log g)':
    b_k = k eps_k - sum_{j<k} b_j eps_{k-j}.  Then k a_k = b_k - z - 2w [k
    even], since log(1-u) = -sum u^k/k and log(1-u^2) = -sum_{k even}
    2u^k/k.  a_1 = 0 exactly and a_2 = 0 to rounding, by the choice of z
    and w; for f = mu, lambda and 1 every b_k is a small integer and every
    a_k exactly 0.
    """
    pars = zw_params(spec)
    eps = np.array([eps_at(spec, k) for k in range(_MAX_ORDER + 1)])
    b = np.zeros(_MAX_ORDER + 1, dtype=np.complex128)
    for k in range(1, _MAX_ORDER + 1):
        b[k] = k * eps[k] - np.dot(b[1:k], eps[k - 1:0:-1])
    k = np.arange(_MAX_ORDER + 1)
    a = np.zeros(_MAX_ORDER + 1, dtype=np.complex128)
    a[1:] = (b[1:] - pars.z - np.where(k[1:] % 2 == 0, 2.0 * pars.w, 0.0)) / k[1:]
    a.flags.writeable = False
    return a


def _cauchy_m(spec: EpsilonSpec) -> float:
    """M >= |log[g(u) (1-u)^z (1-u^2)^w]| on |u| = CAUCHY_RADIUS."""
    pars = zw_params(spec)
    radius = CAUCHY_RADIUS
    return (
        -math.log1p(-radius / (1.0 - radius))
        - abs(pars.z) * math.log1p(-radius)
        - abs(pars.w) * math.log1p(-radius * radius)
    )


def _series_orders(spec: EpsilonSpec, sigma_min: float, logq: np.ndarray) -> np.ndarray:
    """Last order K_p >= 2 of each series prime's power series at Re s >=
    sigma_min: the least K whose dropped terms are bounded by SERIES_TOL/N,
    N = logq.size, with rho = p^{-sigma_min} and r = rho/CAUCHY_RADIUS:

        T(rho, K) = sum_{K<k<=_MAX_ORDER} |a_k| rho^k + M r^{_MAX_ORDER+1}/(1-r).

    T falls with rho, so the primes that meet the bound at order K are the
    primes from some index i_K on; a bisection per K finds i_K, and K_p is
    the least K with i_K <= p.  Orders fall as p grows; K_p = 2 drops the
    prime."""
    a = np.abs(_log_coeffs(spec))[3:]  # k = 3.._MAX_ORDER
    k = np.arange(3, _MAX_ORDER + 1)
    m = _cauchy_m(spec)
    n = logq.size
    tol = SERIES_TOL / max(n, 1)
    orders = np.arange(2, _MAX_ORDER + 1)  # K

    def tail(i: np.ndarray) -> np.ndarray:
        """T(rho_{i_K}, K) for each K, rho_i = p_i^{-sigma_min}."""
        rho = np.exp(-sigma_min * logq[i])
        r = rho / CAUCHY_RADIUS
        rest = m * r ** (_MAX_ORDER + 1) / (1.0 - r)
        # above[j, K - 2]: the terms of order above K at rho_j
        above = np.cumsum((rho[:, None] ** k * a)[:, ::-1], axis=1)[:, ::-1]
        above = np.concatenate([above, np.zeros((rho.size, 1))], axis=1) + rest[:, None]
        return above[np.arange(orders.size), orders - 2]

    lo = np.zeros(orders.size, dtype=np.int64)
    hi = np.full(orders.size, n, dtype=np.int64)  # n: no prime meets it
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        good = tail(np.minimum(mid, n - 1)) <= tol
        hi = np.where(good & (lo < hi), mid, hi)
        lo = np.where(~good & (lo < hi), mid + 1, lo)
    if n and hi[-1] > 0:
        raise RangeError(f"series primes need orders above {_MAX_ORDER}")
    first = np.sort(hi)  # i_K, non-increasing in K
    # K_p = 2 + the number of K whose first index lies beyond p
    return 2 + orders.size - np.searchsorted(first, np.arange(n), side="right")


@lru_cache(maxsize=64)
def _series_active(spec: EpsilonSpec, sigma_min: float, prime_limit: int, n_exp: int) -> np.ndarray:
    """active[k]: the number of series primes (a prefix of the primes past
    the n_exp explicit ones) whose order reaches k, k = 0..top+1."""
    order = _series_orders(spec, sigma_min, _log_primes(prime_limit)[n_exp:])
    active = np.searchsorted(-order, -np.arange(int(order[0]) + 2), side="right")
    active.flags.writeable = False
    return active


def _series_sum(
    a: np.ndarray, s0: np.ndarray, u: np.ndarray, logq: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """sum_p sum_{k=3}^{K_p} a_k u_p^k at s0_i - u_j, u_p = p^{-s0_i} p^{u_j},
    as an (s0 x u) array.

    Per block of primes, the real (primes x points) matrix e1 = p^{u_j},
    its cube ek and its per-order updates are shared by all rows s0_i.  Per
    order k and per row, the complex row p^{-k s0_i}, viewed as (2 x
    primes) reals, times ek is one matrix product: BLAS blocking over
    several rows would move a row's bits with their number.  A row whose
    s0 is the conjugate of an earlier one (a zero's mirror) takes that
    row's products with the sign of their imaginary part flipped: complex
    exp and products are conjugate-symmetric to the bit, so these are the
    products the row would compute.  Both factors are updated in place by
    one more factor, on the prefix of primes whose order reaches k, which
    shrinks as k grows.  Each buffer holds at most _BLOCK float64 entries;
    the rows go in as many groups as their p^{-k s0} buffer needs.
    """
    reps: list[complex] = []  # the rows whose products are computed
    src, sign = [], []
    for v in s0.tolist():
        for j, r in enumerate(reps):
            if v == r or v == r.conjugate():
                src.append(j)
                sign.append(1.0 if v == r else -1.0)
                break
        else:
            src.append(len(reps))
            sign.append(1.0)
            reps.append(v)
    out = np.zeros((s0.size, u.size), dtype=np.complex128)
    top = active.size - 2
    n = int(active[3])
    if n == 0:
        return out
    m = len(reps)
    # a row of complex c1 takes 2 width entries, so width stays <= _BLOCK/2
    width = min(n, max(256, _BLOCK // u.size), _BLOCK // 2)
    rows = min(m, max(1, _BLOCK // (2 * width)))
    e1_buf, ek_buf = np.empty((width, u.size)), np.empty((width, u.size))
    c1_buf = np.empty((rows, width), np.complex128)
    ck_buf = np.empty((rows, width), np.complex128)
    sums = np.empty((top + 1, rows, 2, u.size))
    minus_s0 = -np.array(reps)
    for lo in range(0, n, width):
        nb = min(width, n - lo)
        q = logq[lo : lo + nb]
        count = np.clip(active - lo, 0, nb)
        for r0 in range(0, m, rows):
            mr = min(rows, m - r0)
            e1, ek = e1_buf[:nb], ek_buf[:nb]
            c1, ck = c1_buf[:mr, :nb], ck_buf[:mr, :nb]
            np.exp(np.multiply.outer(q, u, out=e1), out=e1)
            np.multiply(np.multiply(e1, e1, out=ek), e1, out=ek)
            np.exp(np.multiply.outer(minus_s0[r0 : r0 + mr], q, out=c1), out=c1)
            np.multiply(np.multiply(c1, c1, out=ck), c1, out=ck)
            # (rows x 2 x primes): numpy takes one product per row of the stack
            ck_pairs = ck.view(np.float64).reshape(mr, nb, 2).transpose(0, 2, 1)
            k = 3
            while True:
                np.matmul(ck_pairs[:, :, : count[k]], ek[: count[k]], out=sums[k, :mr])
                nxt = count[k + 1]
                if not nxt:
                    break
                np.multiply(ek[:nxt], e1[:nxt], out=ek[:nxt])
                np.multiply(ck[:, :nxt], c1[:, :nxt], out=ck[:, :nxt])
                k += 1
            for i, (j, sg) in enumerate(zip(src, sign)):
                if r0 <= j < r0 + mr:
                    terms = sums[3 : k + 1, j - r0]
                    im = terms[:, 1] if sg > 0 else -terms[:, 1]
                    out[i] += a[3 : k + 1] @ (terms[:, 0] + 1j * im)
    return out


#: (points x explicit primes) entries per block of the explicit logs:
#: 64 kB of complex for each of their few temporaries
_EXPLICIT_BLOCK = _BLOCK // 8


def _G_rows(spec: EpsilonSpec, rows: np.ndarray, u: np.ndarray, cfg: GfConfig) -> np.ndarray:
    """G at rows_i - u_j as a (rows x u) array, for rows of one real part."""
    sigma_min = float(rows[0].real) - float(u.max())
    logp = cfg.logp
    n_exp = int(np.searchsorted(logp, -math.log(RHO_SERIES) / sigma_min))
    points = (rows[:, None] - u).reshape(-1)
    log_g = np.empty(points.size, dtype=np.complex128)
    step = max(1, _EXPLICIT_BLOCK // max(n_exp, 1))
    for lo in range(0, points.size, step):
        col = points[lo : lo + step, None]
        log_g[lo : lo + step] = np.sum(_log_terms(spec, col, logp[:n_exp]), axis=1)
    log_g = log_g.reshape(rows.size, u.size)
    a = _log_coeffs(spec)
    if n_exp < logp.size and np.any(a[3:]):
        # orders for a Re s below sigma_min still bound the dropped terms;
        # a grid of them keeps few in the cache (a Watson ring has 256 Re s)
        sigma_grid = math.floor(sigma_min * _ORDER_GRID) / _ORDER_GRID
        active = _series_active(spec, sigma_grid, cfg.prime_limit, n_exp)
        log_g += _series_sum(a, rows, u, logp[n_exp:], active)
    return np.exp(log_g)


def G_f_line(
    spec: EpsilonSpec, s0, u, cfg: Optional[GfConfig] = None
) -> np.ndarray:
    """Truncated residual Euler product at s0_i - u_j for real u_j >= 0
    (Re s0 - max u >= 0.35), one call per batch of points.

    s0 is one point, which gives an array over u, or a 1-d array of
    points, which gives an (s0 x u) array.  The rows go through the
    kernel in groups of one real part, so rows of one group share their
    explicit-prime count and series orders; each row has the bits it has
    alone.
    """
    s0_in = np.asarray(s0, dtype=np.complex128)
    rows = s0_in.reshape(-1)
    if s0_in.ndim > 1 or rows.size == 0 or not np.all(np.isfinite(rows)):
        raise DomainError("G_f_line requires one finite s0 or a non-empty 1-d array of them")
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.size == 0 or not np.all(np.isfinite(u) & (u >= 0.0)):
        raise DomainError("G_f_line requires a non-empty 1-d array of finite u >= 0")
    if not float(rows.real.min()) - float(u.max()) >= RE_S_MIN:
        raise RangeError(f"G_f requires Re s >= {RE_S_MIN}")
    if cfg is None:
        cfg = GfConfig()
    out = np.empty((rows.size, u.size), dtype=np.complex128)
    for re in set(rows.real.tolist()):
        group = rows.real == re
        out[group] = _G_rows(spec, rows[group], u, cfg)
    return out if s0_in.ndim == 1 else out[0]


def G_f(spec: EpsilonSpec, s, cfg: Optional[GfConfig] = None):
    """Truncated residual Euler product at s (Re s >= 0.35), a point or an
    array of points: G_f_line at the one point u = 0, with s as its s0."""
    pts = np.asarray(s, dtype=np.complex128)
    out = G_f_line(spec, pts.reshape(-1), np.zeros(1), cfg)[:, 0]
    return complex(out[0]) if pts.ndim == 0 else out.reshape(pts.shape)


#: Rosser and Schoenfeld, Illinois J. Math. 6 (1962), (3.6): pi(t) <
#: _PI_BOUND t / log t for every t > 1.
_PI_BOUND = 1.25506


def G_f_tail_estimate(
    spec: EpsilonSpec, s: complex, cfg: Optional[GfConfig] = None
) -> float:
    """Bound T on |log G(s) - log G_P(s)|, the primes past P = prime_limit.

    With sigma = Re s, every p > P has |u| = p^{-sigma} < P^{-sigma}.  Where
    P^{-sigma} < R = CAUCHY_RADIUS each log G_p is its power series, and
    the computed a_k (k <= _MAX_ORDER = 64) with Cauchy's |a_k| <= M R^{-k}
    past them give

        |log G_p(s)| <= sum_{k=3}^{64} |a_k| p^{-k sigma}
                        + M R^{-65} p^{-65 sigma} / (1 - P^{-sigma}/R).

    For alpha > 1, partial summation against pi(t) < 1.25506 t / log t
    bounds the sum over the primes past P:

        sum_{p>P} p^{-alpha} <= alpha int_P^inf pi(t) t^{-alpha-1} dt
                             <= S(alpha) = 1.25506 alpha P^{1-alpha}
                                           / ((alpha - 1) log P),

    and alpha = k sigma >= 3 * 0.35 = 1.05 for every term.  So

        T = sum_{k=3}^{64} |a_k| S(k sigma) + M R^{-65} S(65 sigma)
                                              / (1 - P^{-sigma}/R).

    T is inf where P^{-sigma} >= R.  Where G is identically 1 every a_k is
    0 and only the Cauchy remainder is left (~3e-136 at sigma = 1/2).
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError("tail bound requires a finite s")
    if s.real < RE_S_MIN:
        raise RangeError(f"tail estimate requires Re s >= {RE_S_MIN}")
    if cfg is None:
        cfg = GfConfig()
    sigma = s.real
    log_p = math.log(cfg.prime_limit)
    rho = math.exp(-sigma * log_p)  # P^{-sigma}
    if rho >= CAUCHY_RADIUS:
        return math.inf
    alpha = sigma * np.arange(3, _MAX_ORDER + 2)  # k = 3.._MAX_ORDER + 1
    prime_sums = _PI_BOUND * alpha * np.exp((1.0 - alpha) * log_p) / ((alpha - 1.0) * log_p)
    a = np.abs(_log_coeffs(spec)[3:])
    rest = _cauchy_m(spec) * CAUCHY_RADIUS ** -(_MAX_ORDER + 1) / (1.0 - rho / CAUCHY_RADIUS)
    return float(a @ prime_sums[:-1] + rest * prime_sums[-1])
