"""Special-function backbone.

Provides the Riemann zeta function for complex argument (Euler-Maclaurin),
the complex gamma function (reflection + Lanczos rational approximation),
branch-tracked logarithms of (s-1)*zeta(s) normalized to vanish at s=1,
local logarithms near nontrivial zeros, zeta'(rho) estimation, and the
zero-ordinate table.

Branch conventions.  L1(s) denotes the holomorphic logarithm of
(s-1)*zeta(s) on the zero-cut plane (cuts run leftward from each
nontrivial zero), normalized by L1(1) = 0 and L1(s) real for s > 1.
Powers of zeta are assembled from it:

    zeta(s)^z = (s-1)^{-z} exp(z*L1(s)),        Z(s; z) = exp(z*L1(s))/s.

Away from the real window, L1 is computed by argument-tracked continuation
along the horizontal path from the anchor 3 + i*Im(s), where the standard
(prime-sum) branch of log zeta applies.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConsistencyError,
    CutError,
    DomainError,
    PoleError,
    RangeError,
    StepError,
)
from .sieve import primes_up_to

# --------------------------------------------------------------------------
# Riemann zeta via Euler-Maclaurin
# --------------------------------------------------------------------------

# B_{2k}/(2k)! for k = 1..12
_EM_COEF = (
    8.333333333333333e-02,   # 1/12
    -1.388888888888889e-03,  # -1/720
    3.306878306878307e-05,
    -8.267195767195768e-07,
    2.08767569878681e-08,
    -5.284190138687493e-10,
    1.3382536530684679e-11,
    -3.389680296322583e-13,
    8.586062056277845e-15,
    -2.174868698558062e-16,
    5.50900282836023e-18,
    -1.3954464685812522e-19,
)

# Stieltjes constants gamma_0..gamma_3 for (s-1)*zeta(s) near s = 1.
_STIELTJES = (
    0.5772156649015328606,
    -0.0728158454836767249,
    -0.0096903631928723185,
    0.0020538344203033459,
)

_ZETA_RE_MIN, _ZETA_RE_MAX, _ZETA_IM_MAX = -1.0, 40.0, 600.0

# extended precision (x86 80-bit where available) for phase reduction of
# n^{-it}: t*log(n) reaches ~4000 rad inside the box and plain doubles
# would lose three digits there
_F128 = getattr(np, "float128", np.float64)
_TWO_PI_128 = _F128("6.283185307179586476925286766559005768")

_LOGN_CACHE = np.log(np.arange(1, 64, dtype=np.float64))
_LOGN128_CACHE = np.log(np.arange(1, 64, dtype=_F128))


def _logn(n: int) -> tuple[np.ndarray, np.ndarray]:
    global _LOGN_CACHE, _LOGN128_CACHE
    if n > _LOGN_CACHE.size + 1:
        top = max(n, 2 * _LOGN_CACHE.size)
        _LOGN_CACHE = np.log(np.arange(1, top, dtype=np.float64))
        _LOGN128_CACHE = np.log(np.arange(1, top, dtype=_F128))
    return _LOGN_CACHE[: n - 1], _LOGN128_CACHE[: n - 1]


def _pow_minus_s(logn: np.ndarray, logn128: np.ndarray, s: complex) -> np.ndarray:
    """n^{-s} with the phase t*log n reduced mod 2 pi in extended precision."""
    mag = np.exp(-s.real * logn)
    phase = np.mod(_F128(s.imag) * logn128, _TWO_PI_128).astype(np.float64)
    return mag * np.exp(-1j * phase)


def zeta(s: complex) -> complex:
    """zeta(s) for -1 <= Re s <= 40, |Im s| <= 600, s != 1.

    Euler-Maclaurin with N = max(24, 1.5|Im s|) direct terms and 12
    Bernoulli corrections; relative accuracy ~1e-12 away from zeros
    (absolute ~1e-13 near them).
    """
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta has a pole at s=1")
    if not (_ZETA_RE_MIN <= s.real <= _ZETA_RE_MAX) or abs(s.imag) > _ZETA_IM_MAX:
        raise RangeError(f"zeta evaluation box exceeded at s={s}")
    n_terms = max(24, int(1.5 * abs(s.imag)) + 1)
    logn, logn128 = _logn(n_terms)
    head = np.sum(_pow_minus_s(logn, logn128, s))
    big_n = float(n_terms)
    n_pow = complex(
        _pow_minus_s(
            np.array([math.log(big_n)]),
            np.log(np.array([big_n], dtype=_F128)),
            s,
        )[0]
    )
    result = head + big_n * n_pow / (s - 1) + 0.5 * n_pow
    rising = s
    npow = n_pow / big_n
    nsq = 1.0 / (big_n * big_n)
    for k, coef in enumerate(_EM_COEF, start=1):
        result += coef * rising * npow
        rising *= (s + (2 * k - 1)) * (s + 2 * k)
        npow *= nsq
    return complex(result)


def zeta_times_s_minus_1(s: complex) -> complex:
    """(s-1)*zeta(s), stable through the pole (Stieltjes series near s=1)."""
    s = complex(s)
    d = s - 1.0
    if abs(d) <= 1e-3:
        acc = 0.0 + 0.0j
        dp = d
        fact = 1.0
        for n, g in enumerate(_STIELTJES):
            acc += ((-1) ** n) * g / fact * dp
            dp *= d
            fact *= n + 1
        return 1.0 + acc
    return d * zeta(s)


# --------------------------------------------------------------------------
# Gamma via reflection + 15-term Lanczos rational approximation (g=607/128)
# --------------------------------------------------------------------------

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)
_LOG_SQRT_2PI = 0.5 * math.log(2 * math.pi)


def _loggamma_right(s: complex) -> complex:
    """log Gamma(s) for Re s >= 0.5 (a branch; callers exponentiate)."""
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (s - 1 + k)
    t = s + _LANCZOS_G - 0.5
    return _LOG_SQRT_2PI + (s - 0.5) * cmath.log(t) - t + cmath.log(acc)


def _log_sin_pi(s: complex) -> complex:
    """A branch of log sin(pi s), overflow-safe for large |Im s|."""
    if abs(s.imag) < 20.0:
        return cmath.log(cmath.sin(math.pi * s))
    # |exp(+-2 i pi s)| <= e^{-40 pi}: the log(1-..) correction is below
    # double precision, plain log is exact here
    if s.imag > 0:
        # sin(pi s) = e^{-i pi s} (1 - e^{2 i pi s}) * (i/2)
        return (
            -1j * math.pi * s
            + cmath.log(1.0 - cmath.exp(2j * math.pi * s))
            + complex(-math.log(2.0), 0.5 * math.pi)
        )
    # sin(pi s) = e^{i pi s} (1 - e^{-2 i pi s}) / (2i)
    return (
        1j * math.pi * s
        + cmath.log(1.0 - cmath.exp(-2j * math.pi * s))
        + complex(-math.log(2.0), -0.5 * math.pi)
    )


def gamma(s: complex) -> complex:
    """Gamma(s) for complex s; PoleError at non-positive integers."""
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == round(s.real):
        raise PoleError(f"gamma has a pole at s={s}")
    if s.real >= 0.5:
        return cmath.exp(_loggamma_right(s))
    # reflection in log space: Gamma(s) = pi / (sin(pi s) Gamma(1-s))
    return cmath.exp(
        math.log(math.pi) - _log_sin_pi(s) - _loggamma_right(1.0 - s)
    )


# --------------------------------------------------------------------------
# Standard branch of log zeta on Re s >= 1.2
# --------------------------------------------------------------------------

_LZ_PRIMES = primes_up_to(2000).astype(np.float64)
_LZ_LOGP = np.log(_LZ_PRIMES)


def log_zeta_euler(s: complex) -> complex:
    """Standard branch of log zeta(s) on Re s >= 1.2 (real on reals).

    Prime sums sum_{p<=2000} sum_k p^{-ks}/k carry the branch; the
    remaining tail equals the principal Log of zeta(s)*prod(1-p^{-s}),
    whose argument provably stays below pi there, so the result is
    accurate to ~1e-13 rather than the raw prime-sum tail bound.
    """
    s = complex(s)
    sigma = s.real
    if sigma < 1.2:
        raise RangeError("log_zeta_euler requires Re s >= 1.2")
    total = 0.0 + 0.0j
    k = 1
    while True:
        # keep primes with p^{-k sigma} >= 1e-18
        cutoff = math.exp(18.0 * math.log(10.0) / (k * sigma))
        idx = int(np.searchsorted(_LZ_PRIMES, cutoff, side="right"))
        if idx == 0:
            break
        total += np.sum(np.exp(-k * s * _LZ_LOGP[:idx])) / k
        k += 1
    if sigma <= 39.0:
        euler_part = np.prod(1.0 - np.exp(-s * _LZ_LOGP))
        total += cmath.log(zeta(s) * complex(euler_part))
    return complex(total)


# --------------------------------------------------------------------------
# Zero table
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroTable:
    """Ordinates of the first nontrivial zeros (positive imaginary parts)."""

    ordinates: tuple[float, ...]
    source: str

    def __post_init__(self):
        g = self.ordinates
        if len(g) < 1:
            raise DomainError("zero table is empty")
        if any(g[i] >= g[i + 1] for i in range(len(g) - 1)):
            raise DomainError("zero ordinates must be strictly increasing")
        if not (14.13 < g[0] < 14.14):
            raise DomainError(f"first ordinate {g[0]} not in (14.13, 14.14)")
        for gk in g:
            if abs(zeta(complex(0.5, gk))) > 1e-8:
                raise ConsistencyError(
                    f"|zeta(1/2 + {gk}i)| > 1e-8; corrupt zero table?"
                )

    def __len__(self) -> int:
        return len(self.ordinates)

    def gap_radius(self, k: int) -> float:
        """Safe local disc radius 0.45*min(gap_prev, gap_next, 1) at zero k."""
        g = self.ordinates
        if not 1 <= k <= len(g):
            raise RangeError(f"zero index {k} outside table (size {len(g)})")
        gaps = [1.0]
        if k >= 2:
            gaps.append(g[k - 1] - g[k - 2])
        if k < len(g):
            gaps.append(g[k] - g[k - 1])
        return 0.45 * min(gaps)


def load_zero_table(path: str) -> ZeroTable:
    """Load ordinates from a text file ('#' comments, one ordinate per line)."""
    ords = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            ords.append(float(line))
    return ZeroTable(tuple(ords), source=path)


def default_zero_table() -> ZeroTable:
    text = resources.files("fakemu.data").joinpath("zeros100.txt").read_text()
    ords = [
        float(ln)
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    return ZeroTable(tuple(ords), source="builtin:zeros100.txt")


# --------------------------------------------------------------------------
# Branch-tracked logarithms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuedLog:
    """A branch value of a logarithm, fixed by continuation."""

    value: complex


def _track_log(
    h: Callable[[complex], complex],
    s0: complex,
    log0: complex,
    s1: complex,
    step0: float = 0.25,
    floor: float = 1e-6,
) -> complex:
    """Continue log h from s0 (known branch value log0) to s1 on a segment.

    Each accepted step changes arg h by < pi/2; steps halve on violation
    and StepError fires at the hard floor.
    """
    total = s1 - s0
    dist = abs(total)
    if dist == 0.0:
        return log0
    direction = total / dist
    cur_s = s0
    cur_h = cmath.exp(log0)
    cur_im = log0.imag
    remaining = dist
    step = min(step0, dist)
    while remaining > 1e-15 * dist:
        step = min(step, remaining)
        while True:
            nxt = cur_s + direction * step
            hn = h(nxt)
            if hn == 0:
                raise StepError(f"function vanished on continuation path at {nxt}")
            ratio = hn / cur_h
            dang = math.atan2(ratio.imag, ratio.real)
            if abs(dang) < 0.5 * math.pi:
                break
            step *= 0.5
            if step < floor:
                raise StepError("continuation step underflow")
        cur_im += dang
        cur_s = nxt
        cur_h = hn
        remaining -= step
        step = min(step * 2.0, step0)
    return complex(math.log(abs(cur_h)), cur_im)


class ZetaKernel:
    """Immutable evaluator bundle: zeta, gamma, continued logs, zero table.

    Per-zero anchor values and zeta'(rho) estimates are memoized; all
    public results are pure functions of the inputs.
    """

    def __init__(self, table: Optional[ZeroTable] = None):
        self.table = table if table is not None else default_zero_table()
        self._rho_cache: dict[tuple[int, bool], tuple[complex, float]] = {}
        self._zprime_cache: dict[int, complex] = {}

    def rho(self, k: int, conjugate: bool = False) -> complex:
        g = self.table.ordinates[k - 1]
        return complex(0.5, -g if conjugate else g)

    # -- L1 ----------------------------------------------------------------

    def _assert_off_cut(self, s: complex) -> None:
        if s.real > 0.5 + 1e-9:
            return
        t = abs(s.imag)
        g = self.table.ordinates
        i = bisect_left(g, t)
        for j in (i - 1, i):
            if 0 <= j < len(g) and abs(t - g[j]) <= 1e-9:
                raise CutError(f"target {s} lies on a zero cut (gamma={g[j]})")

    def L1(self, s: complex, path_hint: Optional[complex] = None) -> ContinuedLog:
        """Branch of log((s-1) zeta(s)) with L1(1)=0, on the zero-cut plane."""
        s = complex(s)
        if s.real <= 1.0 / 3.0:
            raise RangeError("L1 requires Re s > 1/3")
        self._assert_off_cut(s)
        if s == 1.0:
            return ContinuedLog(0.0 + 0.0j)
        if s.real >= 1.2:
            return ContinuedLog(log_zeta_euler(s) + cmath.log(s - 1.0))
        if abs(s.imag) <= 0.35:
            h = zeta_times_s_minus_1(s)
            if h.real > 0.0:
                return ContinuedLog(cmath.log(h))
        anchor = path_hint if path_hint is not None else complex(3.0, s.imag)
        if anchor.imag != s.imag or anchor.real < 1.2:
            raise DomainError("path_hint must sit at the target height with Re >= 1.2")
        log_a = log_zeta_euler(anchor) + cmath.log(anchor - 1.0)
        return ContinuedLog(_track_log(zeta_times_s_minus_1, anchor, log_a, s))

    def Z(self, s: complex, z: complex) -> complex:
        """Z(s; z) = ((s-1) zeta(s))^z / s = exp(z L1(s)) / s."""
        s = complex(s)
        if s == 0:
            raise DomainError("Z(s; z) undefined at s = 0")
        return cmath.exp(z * self.L1(s).value) / s

    # -- local logarithm near a zero ---------------------------------------

    def _rho_anchor(self, k: int, conjugate: bool) -> tuple[complex, float]:
        key = (k, conjugate)
        got = self._rho_cache.get(key)
        if got is not None:
            return got
        rho = self.rho(k, conjugate)
        rad = self.table.gap_radius(k)
        r = 0.5 * rad
        anchor_log = self.L1(rho + r).value - math.log(r)
        self._rho_cache[key] = (anchor_log, r)
        return anchor_log, r

    def _h_rho(self, k: int, conjugate: bool) -> Callable[[complex], complex]:
        rho = self.rho(k, conjugate)
        zp = self.zeta_prime_at_zero(k)
        if conjugate:
            zp = zp.conjugate()

        def h(s: complex) -> complex:
            if abs(s - rho) < 1e-8:
                return (s - 1.0) * zp
            return zeta_times_s_minus_1(s) / (s - rho)

        return h

    def L_rho(
        self, zero_index: int, s: complex, conjugate: bool = False
    ) -> ContinuedLog:
        """Branch of log((s-1) zeta(s) / (s-rho)) on the local disc.

        Anchored at s_a = rho + r (r = half the disc radius) where the value
        is L1(s_a) - ln r; continued along the straight segment to s.
        """
        s = complex(s)
        rho = self.rho(zero_index, conjugate)
        rad = self.table.gap_radius(zero_index)
        if abs(s - rho) > rad + 1e-12:
            raise RangeError(
                f"L_rho target {s} outside disc of radius {rad:.3f} at zero "
                f"{zero_index}"
            )
        anchor_log, r = self._rho_anchor(zero_index, conjugate)
        return ContinuedLog(
            _track_log(self._h_rho(zero_index, conjugate), rho + r, anchor_log, s)
        )

    # -- continued log of zeta itself (for zeta(2s)^w near zero heights) ----

    def clog_zeta(self, s: complex) -> complex:
        """Continued log zeta(s), anchored at 3 + i Im(s), horizontal path.

        Intended for Re s > 1/2 (the paths used by the explicit formula stay
        right of the critical line).  If the path would pass within 1e-3 of
        a zero, it detours 2e-3 above it (cuts extend leftward only, so a
        detour on the right side is branch-safe).
        """
        s = complex(s)
        if s.real >= 1.2:
            return log_zeta_euler(s)
        t = s.imag
        anchor = complex(3.0, t)
        log_a = log_zeta_euler(anchor)

        def h(w: complex) -> complex:
            return zeta(w)

        g = self.table.ordinates
        i = bisect_left(g, abs(t))
        near_zero = any(
            0 <= j < len(g) and abs(abs(t) - g[j]) <= 1e-3 for j in (i - 1, i)
        )
        if near_zero and s.real <= 0.5 + 1e-3:
            lift = 2e-3 if t >= 0 else -2e-3
            mid1 = complex(3.0, t + lift)
            mid2 = complex(s.real, t + lift)
            val = _track_log(h, anchor, log_a, mid1)
            val = _track_log(h, mid1, val, mid2)
            return _track_log(h, mid2, val, s)
        return _track_log(h, anchor, log_a, s)

    # -- zeta'(rho) ----------------------------------------------------------

    def zeta_prime_at_zero(self, zero_index: int) -> complex:
        """zeta'(rho_k) from two independent estimators (must agree to 1e-7).

        Mean of a 4-point central difference (h = 1e-4) and a trapezoid
        Cauchy-circle derivative (radius 1e-3, 64 nodes).
        """
        got = self._zprime_cache.get(zero_index)
        if got is not None:
            return got
        rho = self.rho(zero_index)
        h = 1e-4
        fd = (
            -zeta(rho + 2 * h) + 8 * zeta(rho + h) - 8 * zeta(rho - h) + zeta(rho - 2 * h)
        ) / (12 * h)
        r = 1e-3
        n = 64
        acc = 0.0 + 0.0j
        for j in range(n):
            ang = 2 * math.pi * j / n
            e = cmath.exp(1j * ang)
            acc += zeta(rho + r * e) / e
        cc = acc / (n * r)
        if abs(fd - cc) > 1e-7 * max(abs(fd), abs(cc)):
            raise ConsistencyError(
                f"zeta'(rho_{zero_index}) estimators disagree: {fd} vs {cc}"
            )
        val = (fd + cc) / 2
        self._zprime_cache[zero_index] = val
        return val


_DEFAULT_KERNEL: Optional[ZetaKernel] = None


def default_kernel() -> ZetaKernel:
    """Shared kernel over the builtin 100-zero table (built lazily)."""
    global _DEFAULT_KERNEL
    if _DEFAULT_KERNEL is None:
        _DEFAULT_KERNEL = ZetaKernel()
    return _DEFAULT_KERNEL
