"""Residual Euler product G(s).

The Dirichlet series of f factors as zeta(s)^z zeta(2s)^w G(s), where the
local factors  G_p(s) = (1-p^{-s})^z (1-p^{-2s})^w g(p^{-s})  satisfy
G_p - 1 = O(p^{-3 Re s}), so G is holomorphic and bounded on Re s > 1/3.
Evaluation truncates the log-sum

    log G(s) ~ sum_{p <= P} [log g(p^{-s}) + z log(1-p^{-s}) + w log(1-p^{-2s})]

at P = prime_limit (default 1e5) with principal logs per factor; a
calibrated heuristic bounds the dropped tail.  Any winding error a
principal log could commit at the few smallest primes is caught by the
global factorization-identity tests rather than per-factor logic.

The three per-prime logs go through `_log_near_unit` rather than
`np.log`.  Almost all of their arguments lie within ~p^{-Re s} of 1.  For
such values off the real axis numpy's complex log (the C library's clog)
takes its careful |v| ~ 1 path, which forms |v|^2 - 1 exactly at ~200 ns
per element, several times the cost of the rest of G.  The kernel writes
log v = log|v| + i arg v with

    log|v| = log1p(d) / 2,   d = |v|^2 - 1 = (re - 1)(re + 1) + im^2.

Near 1, re - 1 is exact and d = 2 Re(v-1) + |v-1|^2 carries no
cancellation beyond what its two terms bring, so the error stays within
a few ulp of |log v| however close v is to 1.  Where |d| > 1/2,
1 + d no longer carries log|v| to full accuracy as |v| -> 0 and im^2 can
overflow, so those entries use log(abs(v)) instead.  The imaginary part
is atan2(im, re): the principal branch, with the sign of a zero imaginary
part picking +pi or -pi on the negative real axis as np.log does.

The sieved log-prime table is shared by every GfConfig of one prime limit
and is read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from .eps_model import EpsilonSpec, _g_eval_array, zw_params
from .errors import DomainError, RangeError
from .sieve import primes_up_to

RE_S_MIN = 0.35
#: Rounding floor of one per-prime log term, per unit of 1 + |z| + |w|:
#: the arguments of its three logs lie near 1 and are rounded before the
#: log is taken (G_f_tail_estimate; measured up to ~0.55 eps).
TAIL_ROUNDING = 4.0 * float(np.finfo(np.float64).eps)
_NEAR_UNIT = 0.5  # | |v|^2 - 1 | at most this takes the log1p form


@cache
def _log_primes(prime_limit: int) -> np.ndarray:
    """log p for the primes p <= prime_limit, sieved once per limit."""
    logp = np.log(primes_up_to(prime_limit).astype(np.float64))
    logp.flags.writeable = False
    return logp


@dataclass(eq=False)
class GfConfig:
    """Prime-limit configuration; configs of one limit share one prime table."""

    prime_limit: int = 100_000

    def __post_init__(self):
        if self.prime_limit < 2:
            raise DomainError("prime_limit must be >= 2")

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
    out.real[far] = np.log(np.abs(v[far]))
    np.arctan2(im, re, out=out.imag)
    return out


def _log_terms(spec: EpsilonSpec, s: complex, logp: np.ndarray) -> np.ndarray:
    """Per-prime log G_p(s) with principal logs."""
    pars = zw_params(spec)
    u = np.exp(-s * logp)
    g = _g_eval_array(spec, u)
    if np.any(np.abs(g) < 1e-12):
        p_bad = math.exp(logp[int(np.argmin(np.abs(g)))])
        raise DomainError(
            f"local factor g(p^-s) vanishes at p ~ {p_bad:.0f}, s = {s}"
        )
    return (
        _log_near_unit(g)
        + pars.z * _log_near_unit(1.0 - u)
        + pars.w * _log_near_unit(1.0 - u * u)
    )


def G_f(spec: EpsilonSpec, s: complex, cfg: Optional[GfConfig] = None) -> complex:
    """Truncated residual Euler product at s (Re s >= 0.35)."""
    s = complex(s)
    if s.real < RE_S_MIN:
        raise RangeError(f"G_f requires Re s >= {RE_S_MIN}")
    if cfg is None:
        cfg = GfConfig()
    return complex(np.exp(np.sum(_log_terms(spec, s, cfg.logp))))


def _exp1(x: float) -> float:
    """Exponential integral E1(x), x > 0 (series below 1, Lentz CF above)."""
    if x <= 0:
        raise DomainError("E1 requires x > 0")
    if x <= 1.0:
        total = -0.5772156649015329 - math.log(x)
        term = 1.0
        for k in range(1, 30):
            term *= -x / k
            total -= term / k
        return total
    # continued fraction e^{-x}/(x+1- 1/(x+3- 4/(x+5- ...)))
    b = x + 1.0
    c = 1e308
    d = 1.0 / b
    h = d
    for k in range(1, 60):
        a = -(k * k)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return math.exp(-x) * h


def G_f_tail_estimate(
    spec: EpsilonSpec, s: complex, cfg: Optional[GfConfig] = None
) -> float:
    """Heuristic absolute bound on the truncated part of log G(s).

    The local decay constant is calibrated on the top octave of sieved
    primes, C = max_{P/2<=p<=P} |log G_p| p^{3 sigma}, and the tail is
    C * int_P^inf t^{-3 sigma}/log t dt = C * E1((3 sigma - 1) log P).

    Each log G_p is a cancellation of three logs of size ~p^-sigma down to
    ~p^{-3 sigma}, whose arguments g(u), 1 - u and 1 - u^2 lie within a few
    percent of 1 in the top octave and carry an absolute rounding of order
    eps.  So each term has a rounding floor of TAIL_ROUNDING (1 + |z| + |w|).
    Where every top-octave term lies within it (G identically 1, or Re s so
    large that p^{-3 sigma} is below rounding) C would measure only
    rounding, and the estimate is exactly 0.
    """
    s = complex(s)
    if s.real < RE_S_MIN:
        raise RangeError(f"tail estimate requires Re s >= {RE_S_MIN}")
    if cfg is None:
        cfg = GfConfig()
    sigma = s.real
    logp = cfg.logp
    log_half = math.log(cfg.prime_limit / 2.0)
    top = logp[logp >= log_half]
    if top.size == 0:
        top = logp[-1:]
    pars = zw_params(spec)
    terms = np.abs(_log_terms(spec, s, top))
    if np.max(terms) <= TAIL_ROUNDING * (1.0 + abs(pars.z) + abs(pars.w)):
        return 0.0
    c = float(np.max(terms * np.exp(3.0 * sigma * top)))
    return c * _exp1((3.0 * sigma - 1.0) * math.log(cfg.prime_limit))
