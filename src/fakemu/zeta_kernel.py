"""Special-function backbone.

Provides the Riemann zeta function for complex argument (Euler-Maclaurin),
the complex gamma function (reflection + Lanczos rational approximation),
branch-tracked logarithms of (s-1)*zeta(s) normalized to vanish at s=1,
the branch-tracked logs on the disc of each nontrivial zero (RhoSweep),
zeta'(rho) estimation, and the zero-ordinate table.

Branch conventions.  L1(s) denotes the holomorphic logarithm of
(s-1)*zeta(s) on the zero-cut plane (cuts run leftward from each
nontrivial zero), normalized by L1(1) = 0 and L1(s) real for s > 1.
Powers of zeta are assembled from it:

    zeta(s)^z = (s-1)^{-z} exp(z*L1(s)),        Z(s; z) = exp(z*L1(s))/s.

Away from the real window, L1 is continued along the horizontal path from
the anchor 1.2 + i*Im(s), where the standard branch of log zeta is the
principal Log (log_zeta_euler).  A continued log is the principal Log at
its end point plus 2 pi i k: the path picks only k.

Near a zero rho this module alone fixes the two logs of the explicit
formula's J_rho, log((s-1) zeta(s)/(s-rho)) and log zeta(2s) at
s = rho - u: the kernel's one RhoSweep per zero anchors them at rho + r
and 1.2 + 2i Im rho, continues them along the line s = rho - u (u real),
leaves the line at Re u along one straight leg for complex u, and walks
the Watson ring |u| = r' point to point.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConsistencyError,
    CutError,
    DomainError,
    PlatformError,
    PoleError,
    RangeError,
    StepError,
)

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
#: whether _F128 is wider than float64; where it is not, a phase t*log(n)
#: of _PHASE_MAX_FLOAT64 rad or more raises PlatformError
_EXTENDED_PHASE = np.finfo(_F128).nmant > np.finfo(np.float64).nmant
#: a float64 phase below 8 rad lies in the binade of 2 pi, so it rounds as
#: finely as a reduced one; each binade above loses one more bit
_PHASE_MAX_FLOAT64 = 8.0

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
    """n^{-s} with the phase t*log n reduced mod 2 pi in extended precision
    (logn ascending)."""
    if not _EXTENDED_PHASE and abs(s.imag) * logn[-1] >= _PHASE_MAX_FLOAT64:
        raise PlatformError(
            f"phase {abs(s.imag) * logn[-1]:.4g} rad of n^(-s) at s={s} needs a "
            "longdouble wider than float64 to keep double precision"
        )
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

_PRINCIPAL_RE_MIN = 1.2
#: Re s where L1 and RhoSweep's log zeta(2s) are anchored; any value
#: >= _PRINCIPAL_RE_MIN gives the same bits
_ANCHOR_RE = _PRINCIPAL_RE_MIN


def log_zeta_euler(s: complex) -> complex:
    """Standard branch of log zeta(s) on Re s >= 1.2 (real on reals).

    That branch is sum_p -Log(1 - p^{-s}), and |Arg(1 - v)| <= arcsin|v|
    <= (pi/2)|v| for |v| < 1, so |Im log zeta(s)| <= (pi/2) P(Re s) <=
    (pi/2) P(1.2) < (pi/2) log zeta(1.2) = 2.70 < pi (P: the prime zeta
    function): it is the principal Log.  Accuracy and range are zeta's.
    """
    s = complex(s)
    if s.real < _PRINCIPAL_RE_MIN:
        raise RangeError("log_zeta_euler requires Re s >= 1.2")
    return cmath.log(zeta(s))


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

    def ordinate(self, k: int) -> float:
        """gamma_k for k = 1..len(self); RangeError otherwise."""
        g = self.ordinates
        if not 1 <= k <= len(g):
            raise RangeError(f"zero index {k} outside table (size {len(g)})")
        return g[k - 1]

    def gap_radius(self, k: int) -> float:
        """Safe local disc radius 0.45*min(gap_prev, gap_next, 1) at zero k."""
        gk = self.ordinate(k)
        g = self.ordinates
        gaps = [1.0]
        if k >= 2:
            gaps.append(gk - g[k - 2])
        if k < len(g):
            gaps.append(g[k] - gk)
        return 0.45 * min(gaps)


def _parse_zero_table(text: str, source: str) -> ZeroTable:
    """Ordinates from text: one per line, blank and '#' comment lines skipped."""
    ords = [
        float(ln)
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    return ZeroTable(tuple(ords), source=source)


def load_zero_table(path: str) -> ZeroTable:
    """Load ordinates from a text file ('#' comments, one ordinate per line);
    a file that cannot be read raises DomainError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read zeros file {path!r}: {exc.strerror or exc}") from exc
    return _parse_zero_table(text, path)


def default_zero_table() -> ZeroTable:
    text = resources.files("fakemu.data").joinpath("zeros100.txt").read_text()
    return _parse_zero_table(text, "builtin:zeros100.txt")


# --------------------------------------------------------------------------
# Branch-tracked logarithms
# --------------------------------------------------------------------------

# first step length and the hard floor of the halving step control
_STEP0 = 0.25
_STEP_FLOOR = 1e-6


def _track_log(
    h: Callable[[complex], complex], s0: complex, log0: complex, s1: complex
) -> complex:
    """log h at s1 on the branch continued from s0 (value log0) along a segment.

    Each accepted step changes arg h by < pi/2; steps halve on violation
    and StepError fires at the hard floor.  The walk picks only k in
    Log h(s1) + 2 pi i k, so the bits do not depend on s0 or the steps.
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
    step = min(_STEP0, dist)
    while remaining > 0.0:
        step = min(step, remaining)
        while True:
            last = step == remaining
            nxt = s1 if last else cur_s + direction * step
            hn = h(nxt)
            if hn == 0:
                raise StepError(f"function vanished on continuation path at {nxt}")
            ratio = hn / cur_h
            dang = math.atan2(ratio.imag, ratio.real)
            if abs(dang) < 0.5 * math.pi:
                break
            step *= 0.5
            if step < _STEP_FLOOR:
                raise StepError("continuation step underflow")
        cur_im += dang
        cur_s = nxt
        cur_h = hn
        remaining = 0.0 if last else remaining - step
        step = min(step * 2.0, _STEP0)
    log1 = cmath.log(cur_h)
    k = round((cur_im - log1.imag) / (2.0 * math.pi))
    return complex(log1.real, log1.imag + 2.0 * math.pi * k)


class _LineCache:
    """Branch values of log h at s_of(u), fixed by continuation.

    Values at real u are kept: a new real u continues from the nearest
    kept position (found by bisection; the left one on a tie), so a sweep
    over quadrature nodes costs a couple of h evaluations per new node.
    A complex u continues from the line value at Re u along one straight
    leg, and is not kept.  Which positions are kept changes no bit.
    """

    def __init__(self, s_of, h, seed_pos: float, seed_val: complex):
        self.s_of = s_of
        self.h = h
        self.vals: dict[float, complex] = {seed_pos: seed_val}
        self.pos = [seed_pos]  # the keys of vals, ascending

    def walk(self, log0: complex, u0: complex, u1: complex) -> complex:
        return _track_log(self.h, self.s_of(u0), log0, self.s_of(u1))

    def _nearest(self, q: float) -> float:
        pos = self.pos
        i = bisect_left(pos, q)
        if i == len(pos) or (i > 0 and q - pos[i - 1] <= pos[i] - q):
            i -= 1
        return pos[i]

    def on_line(self, q: float) -> complex:
        got = self.vals.get(q)
        if got is not None:
            return got
        near = self._nearest(q)
        val = self.walk(self.vals[near], near, q)
        self.vals[q] = val
        insort(self.pos, q)
        return val

    def value(self, u: complex) -> complex:
        q = u.real
        val = self.on_line(q)
        return val if u.imag == 0.0 else self.walk(val, q, u)


class RhoSweep:
    """The two branch-tracked logs that J_rho needs on the disc of one zero.

    For s = rho - u with |u| <= radius (the zero's gap radius):

      local(u) = log((s-1) zeta(s) / (s-rho)),  seeded at u = -r (s = rho + r,
                 r = radius/2) with the value L1(rho + r) - ln r;
      zeta2(u) = log zeta(2s),  seeded at Re 2s = _ANCHOR_RE (u = -0.1)
                 with the standard branch of log_zeta_euler.

    Both are continued along the line s = rho - u (u real) from the
    nearest value already known; complex u leaves the line at Re u along
    one straight leg; ring(r', n) walks the circle |u| = r' from u = r'.
    """

    def __init__(
        self, rho: complex, radius: float, zeta_prime: complex,
        anchor_log: complex, r: float,
    ):
        self.rho = rho
        self.radius = radius

        def h(s: complex) -> complex:
            if abs(s - rho) < 1e-8:
                return (s - 1.0) * zeta_prime
            return zeta_times_s_minus_1(s) / (s - rho)

        self._local = _LineCache(lambda u: rho - u, h, -r, anchor_log)
        self._zeta2 = _LineCache(
            lambda u: 2.0 * rho - 2.0 * u,
            zeta,
            rho.real - 0.5 * _ANCHOR_RE,
            log_zeta_euler(complex(_ANCHOR_RE, 2.0 * rho.imag)),
        )
        self._rings: dict[tuple[float, int], list[tuple[complex, complex, complex]]] = {}

    def _check(self, u: complex) -> complex:
        u = complex(u)
        if abs(u) > self.radius:
            raise RangeError(
                f"|u| = {abs(u):.3g} outside the disc of radius {self.radius:.3f} "
                f"at rho = {self.rho}"
            )
        return u

    def local(self, u: complex) -> complex:
        """log((s-1) zeta(s) / (s-rho)) at s = rho - u."""
        return self._local.value(self._check(u))

    def zeta2(self, u: complex) -> complex:
        """log zeta(2s) at s = rho - u."""
        return self._zeta2.value(self._check(u))

    def ring(self, r: float, n: int) -> list[tuple[complex, complex, complex]]:
        """(u, local(u), zeta2(u)) at u = r e^{2 pi i j/n}, j = 0..n-1, each
        continued from the one before (j = 0 from the line value at u = r);
        walked once per (r, n)."""
        got = self._rings.get((r, n))
        if got is not None:
            return got
        prev = self._check(r)
        lr = self._local.value(prev)
        cz = self._zeta2.value(prev)
        ang = 2.0 * math.pi * np.arange(n) / n
        got = []
        for u in r * np.exp(1j * ang):
            u = complex(u)
            lr = self._local.walk(lr, prev, u)
            cz = self._zeta2.walk(cz, prev, u)
            prev = u
            got.append((u, lr, cz))
        self._rings[(r, n)] = got
        return got


class ZetaKernel:
    """Evaluator bundle: zeta, gamma, continued logs, zero table.

    One RhoSweep per zero and zeta'(rho) are memoized; a sweep's values do
    not depend on the points asked before, so results are pure functions.
    """

    def __init__(self, table: Optional[ZeroTable] = None):
        self.table = table if table is not None else default_zero_table()
        self._sweeps: dict[tuple[int, bool], RhoSweep] = {}
        self._zprime_cache: dict[int, complex] = {}

    def rho(self, k: int, conjugate: bool = False) -> complex:
        g = self.table.ordinate(k)
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

    def L1(self, s: complex) -> complex:
        """Branch of log((s-1) zeta(s)) with L1(1)=0, on the zero-cut plane."""
        s = complex(s)
        if s.real <= 1.0 / 3.0:
            raise RangeError("L1 requires Re s > 1/3")
        self._assert_off_cut(s)
        if s == 1.0:
            return 0.0 + 0.0j
        if s.real >= _PRINCIPAL_RE_MIN:
            return log_zeta_euler(s) + cmath.log(s - 1.0)
        if abs(s.imag) <= 0.35:
            h = zeta_times_s_minus_1(s)
            if h.real > 0.0:
                return cmath.log(h)
        anchor = complex(_ANCHOR_RE, s.imag)
        return _track_log(zeta_times_s_minus_1, anchor, self.L1(anchor), s)

    def Z(self, s: complex, z: complex) -> complex:
        """Z(s; z) = ((s-1) zeta(s))^z / s = exp(z L1(s)) / s."""
        s = complex(s)
        if s == 0:
            raise DomainError("Z(s; z) undefined at s = 0")
        return cmath.exp(z * self.L1(s)) / s

    # -- logs on the disc of a zero ------------------------------------------

    def rho_sweep(self, k: int, conjugate: bool = False) -> RhoSweep:
        """The RhoSweep at zero k (at its mirror -gamma_k if conjugate),
        built once per kernel."""
        key = (k, conjugate)
        got = self._sweeps.get(key)
        if got is None:
            rho = self.rho(k, conjugate)
            rad = self.table.gap_radius(k)
            r = 0.5 * rad
            zp = self.zeta_prime_at_zero(k)
            if conjugate:
                zp = zp.conjugate()
            got = RhoSweep(rho, rad, zp, self.L1(rho + r) - math.log(r), r)
            self._sweeps[key] = got
        return got

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
