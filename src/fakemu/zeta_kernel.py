"""Special-function backbone.

Provides the Riemann zeta function for complex argument (Euler-Maclaurin),
the complex gamma function (reflection + Lanczos rational approximation),
branch-tracked logarithms of (s-1)*zeta(s) normalized to vanish at s=1,
the branch-tracked logs on the disc of each nontrivial zero (RhoSweep),
one store of the explicit formula's spec-free factors per branch point
(Sweep), zeta'(rho), and the zero-ordinate table.

Branch conventions.  L1(s) denotes the holomorphic logarithm of
(s-1)*zeta(s) on the zero-cut plane (cuts run leftward from each
nontrivial zero), normalized by L1(1) = 0 and L1(s) real for s > 1.
Powers of zeta are assembled from it:

    zeta(s)^z = (s-1)^{-z} exp(z*L1(s)).

Every branch-tracked log comes from one routine, _continue_legs: log h
at the end of straight legs, each from a point where the log is known.
It cuts a leg into pieces of at most _STEP0, calls h once at all piece
ends, then halves the pieces along which arg h moves by pi/2 or more, one
call of h per round, and returns Log h at each end plus 2 pi i k: the
path picks only k, so a value's bits depend only on its end point.  Away
from the real window, L1 is continued along one leg from the anchor
1.2 + i*Im(s), where the standard branch of log zeta is the principal
Log (log_zeta_euler).

The explicit formula's integrand J_xi(u) at s = xi - u needs two logs
l1, l2 of zeta(s)^z zeta(2s)^w and Gamma(s), which depend on no spec.
The kernel keeps one Sweep per branch point, "one", "half" and each zero
(and mirror zero), for every spec and config: Sweep.at(u) returns
(l1, l2, Gamma(s)), reads the points it has served and computes the new
ones in one call of the logs and one gamma call.  At 1 and 1/2 the logs
are L1(s) and L1(2s).  Near a zero rho this module alone fixes them,
log((s-1) zeta(s)/(s-rho)) and log zeta(2s): the zero's RhoSweep
continues them once to u = 0, from rho + r and 1.2 + 2i Im rho, and every
other u (a node of the cut's rule or a Watson ring point) takes one leg
from u = 0; (s-1) zeta(s)/(s-rho) comes off a Cauchy ring.

Arrays.  zeta, zeta_times_s_minus_1, gamma, log_zeta_euler and
ZetaKernel.L1 take a point or an array of points, and the point is the
one-point case of the array code, with the same bits it has inside any
batch: numpy's elementwise loops round an element the same way wherever
it sits, and every row reduction runs over one C-contiguous row.
Euler-Maclaurin keeps N(s) = max(24, floor(1.5 |Im s|) + 1) per point
and groups a batch by N, in (points x N) blocks of at most 256 kB; its
12 Bernoulli corrections are one (points x 12) matrix.  Its powers n^{-s}
(and G's p^{-s}) follow one rule per point, _pow_minus_s: float64
exp(-s log n) where |Im s| log N < 8 rad, which holds at every node of
the cuts at 1 and 1/2 and on their rings, and the phase reduced mod 2 pi
in extended precision beyond.  zeta'(rho) is
the same sum differentiated term by term, good to ~1e-15 relative at the
zeros: no difference step amplifies zeta's rounding.  L1 of an array is
a plain log wherever |Im s| <= 0.35 (and on Re s >= 1.2 the principal
log), which covers every node and ring point of the cuts at 1 and 1/2;
all other points take their legs in one _continue_legs call.
Sweep.at(u) takes an array of u, real or complex, and a kept value is the
one-point value, so a point has the same bits whatever a sweep served
before.
"""

from __future__ import annotations

import math
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
_EM_COEF = np.array([
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
])
_EM_SHIFT = np.arange(2.0 * _EM_COEF.size - 1)  # j in (s)_{2k-1} = s (s+1) ... (s+2k-2)
_EM_EXP = -1.0 - _EM_SHIFT[::2]  # 1 - 2k

_ZETA_RE_MIN, _ZETA_RE_MAX, _ZETA_IM_MAX = -1.0, 40.0, 600.0

# extended precision (x86 80-bit where available) for phase reduction of
# n^{-it} at points whose phase reaches _PHASE_MAX_FLOAT64: t*log(n)
# reaches ~4000 rad inside the box and plain doubles would lose three
# digits there
_F128 = getattr(np, "float128", np.float64)
_TWO_PI_128 = _F128("6.283185307179586476925286766559005768")
#: whether _F128 is wider than float64; where it is not, a phase t*log(n)
#: of _PHASE_MAX_FLOAT64 rad or more raises PlatformError
_EXTENDED_PHASE = np.finfo(_F128).nmant > np.finfo(np.float64).nmant
#: a float64 phase below 8 rad lies in the binade of 2 pi, so it rounds as
#: finely as a reduced one; each binade above loses one more bit
_PHASE_MAX_FLOAT64 = 8.0

def _points(s) -> tuple[np.ndarray, bool]:
    """s as a 1-d complex array, and whether s was a scalar.

    A scalar is evaluated as a one-point array: numpy's elementwise loops
    give each element the same bits whatever the length of the array, but
    its scalar types and Python's complex arithmetic round differently.
    """
    arr = np.asarray(s, dtype=np.complex128)
    return arr.reshape(-1), arr.ndim == 0


def _shaped(out: np.ndarray, s, scalar: bool):
    """out for the input s: a complex for a scalar, else s's shape."""
    return complex(out[0]) if scalar else out.reshape(np.shape(s))


def _pow_minus_s(
    logn: np.ndarray, s: np.ndarray, logn128: Optional[np.ndarray] = None
) -> np.ndarray:
    """n^{-s} as a (points x n) matrix (logn ascending), by one rule per
    point.  A point whose largest phase |Im s| log n stays below
    _PHASE_MAX_FLOAT64 rad takes float64 exp(-s log n), which rounds that
    phase as finely as a reduced one; a wider point reduces t log n mod
    2 pi in extended precision, with logn128 (logn cast to _F128 where it
    is not given), or raises PlatformError where longdouble is float64.
    Each row is computed by its own rule, so a point's bits do not depend
    on its batch.  Both rules are conjugate-symmetric to the bit: the wide
    one reduces |Im s| log n and conjugates the rows with Im s < 0."""
    phase = np.abs(s.imag) * (logn[-1] if logn.size else 0.0)
    wide = phase >= _PHASE_MAX_FLOAT64
    if not wide.any():
        return np.exp(np.multiply.outer(-s, logn))
    if not _EXTENDED_PHASE:
        i = int(np.argmax(phase))
        raise PlatformError(
            f"phase {phase[i]:.4g} rad of n^(-s) at s={complex(s[i])} needs a "
            "longdouble wider than float64 to keep double precision"
        )
    if logn128 is None:
        logn128 = logn.astype(_F128)
    if not wide.all():
        out = np.empty((s.size, logn.size), dtype=np.complex128)
        out[~wide] = _pow_minus_s(logn, s[~wide])
        out[wide] = _pow_minus_s(logn, s[wide], logn128)
        return out
    mag = np.exp(np.multiply.outer(-s.real, logn))
    reduced = np.mod(np.multiply.outer(np.abs(s.imag).astype(_F128), logn128), _TWO_PI_128)
    out = mag * np.exp(-1j * reduced.astype(np.float64))
    return np.conjugate(out, out=out, where=(s.imag < 0.0)[:, None])


#: Euler-Maclaurin: (points x terms) entries per block, 256 kB of complex
_EM_BLOCK = 2 ** 14


def _em_terms(s: np.ndarray) -> np.ndarray:
    """Number N(s) = max(24, floor(1.5 |Im s|) + 1) of direct terms."""
    return np.maximum(24, (1.5 * np.abs(s.imag)).astype(np.int64) + 1)


_LOGN_CACHE = np.log(np.arange(1, 64, dtype=np.float64))
_LOGN128_CACHE = np.log(np.arange(1, 64, dtype=_F128))


def _logn(n: int) -> tuple[np.ndarray, np.ndarray]:
    """log k and its extended-precision twin for k = 1..n-1."""
    global _LOGN_CACHE, _LOGN128_CACHE
    if n > _LOGN_CACHE.size + 1:
        top = max(n, 2 * _LOGN_CACHE.size)
        _LOGN_CACHE = np.log(np.arange(1, top, dtype=np.float64))
        _LOGN128_CACHE = np.log(np.arange(1, top, dtype=_F128))
    return _LOGN_CACHE[: n - 1], _LOGN128_CACHE[: n - 1]


def _zeta_em(s: np.ndarray, n_terms: int, derivative: bool = False) -> np.ndarray:
    """Euler-Maclaurin with n_terms direct terms at every point of s, or
    its term-by-term derivative (for s off 0 and -1).

    The sum is sum_{n<N} n^{-s} + N^{-s} q(s), with
    q = N/(s-1) + 1/2 + sum_k c_k (s)_{2k-1} N^{1-2k}; its derivative is
    -sum_{n<N} log n n^{-s} + N^{-s} (q' - q log N), where
    (s)_m' = (s)_m sum_{j<m} 1/(s+j).  Each is a fixed number of array
    operations, every reduction along one row.
    """
    logn, logn128 = _logn(n_terms + 1)
    powers = _pow_minus_s(logn, s, logn128)  # n = 1..N; the last is N^{-s}
    big_n = float(n_terms)
    shift = s[:, None] + _EM_SHIFT  # s + j
    terms = shift.cumprod(axis=1)[:, ::2] * (_EM_COEF * big_n ** _EM_EXP)
    q = big_n / (s - 1.0) + 0.5 + terms.sum(axis=1)
    if not derivative:
        return powers[:, :-1].sum(axis=1) + powers[:, -1] * q
    dq = (terms * (1.0 / shift).cumsum(axis=1)[:, ::2]).sum(axis=1) - big_n / (s - 1.0) ** 2
    return powers[:, -1] * (dq - q * logn[-1]) - (powers[:, :-1] * logn[:-1]).sum(axis=1)


def zeta(s):
    """zeta(s) for -1 <= Re s <= 40, |Im s| <= 600, s != 1; s a point or
    an array of points (the point is the one-point case).

    Euler-Maclaurin with N(s) = max(24, floor(1.5|Im s|) + 1) direct terms
    and 12 Bernoulli corrections.  The remainder after them is at most
    |s + 25| / (Re s + 25) times the first omitted term,
    |B_26 / 26!| |s (s+1) ... (s+24)| N^{-Re s - 25} (Edwards, Riemann's
    Zeta Function, 6.4); over the box that is at most 3.2e-21 absolute,
    its largest at Re s = -1 as |Im s| -> 600.  What is left is rounding:
    to first order at most u sum_{n<=N} n^{-Re s} times the few dozen
    roundings of a term and of its partial sums (u = 2^-53), with the
    correction terms likewise; `test_zeta_reference_set` spells the bound
    out.  It is at most 3.8e-14 on Re s >= 1 off the pole (|s - 1| >= 1/2)
    and grows as N^{1-Re s} on the left, where the terms cancel (1.4e-9
    at -0.96 - 499i, where |zeta| ~ 770).  An array is evaluated per value of N in (points x N)
    blocks of at most 256 kB, so a value's bits do not depend on the
    batch it comes in.
    """
    pts, scalar = _points(s)
    inside = (
        (_ZETA_RE_MIN <= pts.real) & (pts.real <= _ZETA_RE_MAX)
        & (np.abs(pts.imag) <= _ZETA_IM_MAX)
    )
    if not np.all(inside):
        raise RangeError(f"zeta evaluation box exceeded at s={complex(pts[~inside][0])}")
    if np.any(pts == 1.0):
        raise PoleError("zeta has a pole at s=1")
    n_terms = _em_terms(pts)
    lo, hi = int(n_terms.min()), int(n_terms.max())
    if lo == hi and pts.size * lo <= _EM_BLOCK:
        out = _zeta_em(pts, lo)
    else:
        out = np.empty(pts.size, dtype=np.complex128)
        for n in sorted(set(n_terms.tolist())):
            idx = np.flatnonzero(n_terms == n)
            rows = max(1, _EM_BLOCK // n)
            for start in range(0, idx.size, rows):
                part = idx[start : start + rows]
                out[part] = _zeta_em(pts[part], n)
    return _shaped(out, s, scalar)


def zeta_times_s_minus_1(s):
    """(s-1)*zeta(s), with its limit 1 at s = 1; s a point or an array.

    Euler-Maclaurin carries the pole as N/(s-1) and s - 1 is exact near 1,
    so the product keeps double precision up to the pole (within 6e-16
    relative of mpmath for |s-1| from 2.2e-16 to 2e-3).  A point s = 1
    reads zeta at 2 as a stand-in, so zeta never sees the pole or an empty
    array.
    """
    pts, scalar = _points(s)
    pole = pts == 1.0
    out = (pts - 1.0) * zeta(np.where(pole, 2.0, pts))
    out[pole] = 1.0
    return _shaped(out, s, scalar)


# --------------------------------------------------------------------------
# Gamma via reflection + 15-term Lanczos rational approximation (g=607/128)
# --------------------------------------------------------------------------

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
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
])
_LANCZOS_SHIFT = np.arange(len(_LANCZOS_C) - 1, dtype=np.float64)  # k - 1, k = 1..14
_LOG_SQRT_2PI = 0.5 * math.log(2 * math.pi)


def _loggamma_right(s: np.ndarray) -> np.ndarray:
    """log Gamma(s) for Re s >= 0.5 (a branch; callers exponentiate); the
    (points x terms) Lanczos sum goes in blocks of at most 256 kB."""
    acc = np.empty(s.size, dtype=np.complex128)
    rows = _EM_BLOCK // _LANCZOS_SHIFT.size
    for lo in range(0, s.size, rows):
        col = s[lo : lo + rows, None]
        acc[lo : lo + rows] = np.sum(_LANCZOS_C[1:] / (col + _LANCZOS_SHIFT), axis=1)
    acc += _LANCZOS_C[0]
    t = s + (_LANCZOS_G - 0.5)
    return _LOG_SQRT_2PI + (s - 0.5) * np.log(t) - t + np.log(acc)


def _log_sin_pi(s: np.ndarray) -> np.ndarray:
    """A branch of log sin(pi s), overflow-safe for large |Im s|."""
    small = np.abs(s.imag) < 20.0
    if np.all(small):
        return np.log(np.sin(math.pi * s))
    out = np.empty(s.size, dtype=np.complex128)
    out[small] = np.log(np.sin(math.pi * s[small]))
    # |exp(+-2 i pi s)| <= e^{-40 pi}: the log(1-..) correction is below
    # double precision, plain log is exact here
    up = ~small & (s.imag > 0)
    if np.any(up):
        # sin(pi s) = e^{-i pi s} (1 - e^{2 i pi s}) * (i/2)
        v = s[up]
        out[up] = (
            -1j * math.pi * v
            + np.log(1.0 - np.exp(2j * math.pi * v))
            + complex(-math.log(2.0), 0.5 * math.pi)
        )
    down = ~small & ~up
    if np.any(down):
        # sin(pi s) = e^{i pi s} (1 - e^{-2 i pi s}) / (2i)
        v = s[down]
        out[down] = (
            1j * math.pi * v
            + np.log(1.0 - np.exp(-2j * math.pi * v))
            + complex(-math.log(2.0), -0.5 * math.pi)
        )
    return out


def gamma(s):
    """Gamma(s) for complex s, a point or an array of points (the point is
    the one-point case); PoleError at non-positive integers."""
    pts, scalar = _points(s)
    right = pts.real >= 0.5
    if np.all(right):
        return _shaped(np.exp(_loggamma_right(pts)), s, scalar)
    v = pts[~right]
    pole = (v.imag == 0.0) & (v.real <= 0.0) & (v.real == np.round(v.real))
    if np.any(pole):
        raise PoleError(f"gamma has a pole at s={complex(v[pole][0])}")
    out = np.empty(pts.size, dtype=np.complex128)
    out[right] = np.exp(_loggamma_right(pts[right]))
    # reflection in log space: Gamma(s) = pi / (sin(pi s) Gamma(1-s))
    out[~right] = np.exp(math.log(math.pi) - _log_sin_pi(v) - _loggamma_right(1.0 - v))
    return _shaped(out, s, scalar)


# --------------------------------------------------------------------------
# Standard branch of log zeta on Re s >= 1.2
# --------------------------------------------------------------------------

_PRINCIPAL_RE_MIN = 1.2
#: Re s where L1 and RhoSweep's log zeta(2s) are anchored; any value
#: >= _PRINCIPAL_RE_MIN gives the same bits
_ANCHOR_RE = _PRINCIPAL_RE_MIN


def log_zeta_euler(s):
    """Standard branch of log zeta(s) on Re s >= 1.2 (real on reals); s a
    point or an array.

    That branch is sum_p -Log(1 - p^{-s}), and |Arg(1 - v)| <= arcsin|v|
    <= (pi/2)|v| for |v| < 1, so |Im log zeta(s)| <= (pi/2) P(Re s) <=
    (pi/2) P(1.2) < (pi/2) log zeta(1.2) = 2.70 < pi (P: the prime zeta
    function): it is the principal Log.  Accuracy and range are zeta's.
    """
    pts, scalar = _points(s)
    if np.any(pts.real < _PRINCIPAL_RE_MIN):
        raise RangeError("log_zeta_euler requires Re s >= 1.2")
    return _shaped(np.log(zeta(pts)), s, scalar)


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
        off = np.abs(zeta(0.5 + 1j * np.array(g))) > 1e-8
        if np.any(off):
            raise ConsistencyError(
                f"|zeta(1/2 + {g[int(np.argmax(off))]}i)| > 1e-8; corrupt zero table?"
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
    """Ordinates from text: one per line, blank and '#' comment lines
    skipped; a line that is not a number raises DomainError naming the
    source and the line."""
    ords = []
    for number, ln in enumerate(text.splitlines(), start=1):
        if not ln.strip() or ln.lstrip().startswith("#"):
            continue
        try:
            ords.append(float(ln))
        except ValueError:
            raise DomainError(
                f"zeros file {source!r}, line {number}: not a number: {ln.strip()[:40]!r}"
            ) from None
    return ZeroTable(tuple(ords), source=source)


def load_zero_table(path: str) -> ZeroTable:
    """Load ordinates from a text file ('#' comments, one ordinate per line);
    a file that cannot be read or decoded as UTF-8 raises DomainError
    naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read zeros file {path!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise DomainError(f"zeros file {path!r}, line {line}: not UTF-8 text") from None
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
#: nodes of RhoSweep's Cauchy ring |t - rho| = 2 radius: error (|u|/(2 radius))^64 <= 2^-64
_RING_NODES = 64
#: the branch points of the cuts at 1 and 1/2, whose logs are L1 at s and 2s
_LINE_POINTS = {"one": 1.0, "half": 0.5}


def _continue_legs(
    h: Callable[[np.ndarray], np.ndarray], s0, log0, s1: np.ndarray
) -> np.ndarray:
    """log h at each s1[i], continued along the segment from s0[i], where
    it is log0[i] (s0 and log0 may be one value for all legs).

    Each leg is cut into ceil(|s1 - s0| / _STEP0) equal pieces, and h is
    called once at all piece ends; then the pieces along which arg h moves
    by pi/2 or more are halved, one call of h per round.  StepError fires
    where h vanishes or a piece falls below _STEP_FLOOR.  A value is Log h
    at s1 (np.log) plus 2 pi i k: the path picks only k, so the bits
    depend only on s1.
    """
    s0, log0 = np.broadcast_to(s0, s1.shape), np.broadcast_to(log0, s1.shape)
    n = np.maximum(1, np.ceil(np.abs(s1 - s0) / _STEP0)).astype(np.int64)
    leg = np.repeat(np.arange(s1.size), n)
    last = n.cumsum() - 1  # each leg's end
    j = np.arange(leg.size) - (last - n)[leg]  # piece j = 1..n of its leg
    ends = s0[leg] + (j / n[leg]) * (s1 - s0)[leg]
    ends[last] = s1
    hv = h(ends)
    arg = np.arctan2(hv.imag, hv.real)
    first = j == 1
    p0 = np.where(first, s0[leg], np.roll(ends, 1))
    arg0 = np.where(first, log0.imag[leg], np.roll(arg, 1))
    p1, arg1, seg = ends, arg, leg
    new = hv
    while True:
        if (new == 0).any():
            raise StepError("function vanished on continuation path")
        turn = np.remainder(arg1 - arg0 + math.pi, 2.0 * math.pi) - math.pi
        bad = np.abs(turn) >= 0.5 * math.pi
        if not bad.any():
            break
        if (np.abs(p1[bad] - p0[bad]) < 2.0 * _STEP_FLOOR).any():
            raise StepError("continuation step underflow")
        pm = 0.5 * (p0[bad] + p1[bad])
        new = h(pm)
        am = np.arctan2(new.imag, new.real)
        ok = ~bad
        p0 = np.concatenate([p0[ok], p0[bad], pm])
        p1 = np.concatenate([p1[ok], pm, p1[bad]])
        arg0 = np.concatenate([arg0[ok], arg0[bad], am])
        arg1 = np.concatenate([arg1[ok], am, arg1[bad]])
        seg = np.concatenate([seg[ok], seg[bad], seg[bad]])
    turns = np.bincount(seg, weights=turn, minlength=s1.size)
    k = np.rint((log0.imag + turns - arg[last]) / (2.0 * math.pi))
    return np.log(hv[last]) + 2j * math.pi * k


class Sweep:
    """The spec-free factors of J at one branch point s0, kept per point.

    For s = s0 - u, at(u) gives (l1(s), l2(s), Gamma(s)) over an array of
    u, real or complex, where e^{z l1 + w l2} is what zeta(s)^z zeta(2s)^w
    leaves after the power of s - s0.  At s0 = 1 and 1/2, l1 = L1(s) and
    l2 = L1(2s), both from one L1 call (RhoSweep gives the zero's logs).
    Every u served is kept, sorted and read-only: at(u) reads the kept
    ones, and the new ones take one call of the logs and one gamma call,
    whose values do not depend on the other points of the call, so a
    point has the same bits whatever was asked before.  hits and misses
    count the points looked up.
    """

    def __init__(self, s0: complex, L1: Callable):
        self.s0, self.L1 = s0, L1
        self.u = np.empty(0, dtype=np.complex128)  # every u served, ascending
        self.l1 = self.l2 = self.gamma = self.u
        self.hits = self.misses = 0

    def _check(self, u: np.ndarray) -> np.ndarray:
        return u

    def _logs(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = self.s0 - u
        both = self.L1(np.concatenate([s, 2.0 * s]))
        return both[: s.size], both[s.size :]

    def _keep(self, u, l1, l2, gam) -> None:
        order = np.argsort(u)
        for name, new in (("u", u), ("l1", l1), ("l2", l2), ("gamma", gam)):
            new = new[order]
            new.flags.writeable = False
            setattr(self, name, new)

    def at(self, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(l1, l2, Gamma) at s0 - u over an array of complex u."""
        u = self._check(np.asarray(u, dtype=np.complex128).reshape(-1))
        i = np.minimum(np.searchsorted(self.u, u), self.u.size - 1)
        new = u if not self.u.size else u[self.u[i] != u]
        self.misses += new.size
        self.hits += u.size - new.size
        if new.size:
            new = np.sort(new)
            new = new[np.concatenate([[True], new[1:] != new[:-1]])]  # repeats drop
            l1, l2 = self._logs(new)
            gam = gamma(self.s0 - new)
            self._keep(
                *(np.concatenate(pair) for pair in (
                    (self.u, new), (self.l1, l1), (self.l2, l2), (self.gamma, gam)
                ))
            )
            i = np.searchsorted(self.u, u)
        return self.l1[i], self.l2[i], self.gamma[i]


class RhoSweep(Sweep):
    """The sweep at one zero rho: the two branch-tracked logs of J_rho.

    For s = rho - u with |u| <= radius (the zero's gap radius):

      l1(u) = log((s-1) zeta(s) / (s-rho)),  continued to u = 0 from
              s = rho + r (r = radius/2), where it is L1(rho + r) - ln r;
      l2(u) = log zeta(2s),  continued to u = 0 from
              2s = _ANCHOR_RE + 2i Im rho, where it is log_zeta_euler.

    l1 is holomorphic on the disc, which holds no other zero, and l2 on
    its part Re 2s > 1/2 (Re u < 1/4), which holds every u the formula
    reads; there a straight leg from u = 0 has the branch of any path.
    l1's h_local(s) = (s-1) mean_k zeta(t_k)/(t_k - s) over the ring t_k
    of _RING_NODES points on |t - rho| = 2 radius is the trapezoid rule
    (Trefethen and Weideman, SIAM Review 56, 2014) for (s-1)(1/2 pi i)
    oint zeta(t) dt/((t-s)(t-rho)) = (s-1)(zeta(s) - zeta(rho))/(s-rho),
    with no case at s = rho.  The sweep keeps u = 0 from its construction;
    every new u takes one leg from u = 0, in one _continue_legs call of
    each function, and a u off the disc raises RangeError.
    """

    def __init__(self, rho: complex, radius: float, L1: Callable):
        super().__init__(rho, L1)
        self.rho = rho
        self.radius = radius
        r = 0.5 * radius
        ring = rho + 2.0 * radius * np.exp(2j * math.pi * np.arange(_RING_NODES) / _RING_NODES)
        zeta_ring = zeta(ring)

        def h(s):
            # one (points x ring) block of at most 256 kB at a time
            out = np.empty(s.size, dtype=np.complex128)
            rows = _EM_BLOCK // _RING_NODES
            for lo in range(0, s.size, rows):
                out[lo : lo + rows] = np.mean(zeta_ring / (ring - s[lo : lo + rows, None]), axis=1)
            return (s - 1.0) * out

        self.h_local, self.h_zeta2 = h, zeta
        anchor2 = complex(_ANCHOR_RE, 2.0 * rho.imag)
        u = np.zeros(1, dtype=np.complex128)
        self._keep(
            u,
            _continue_legs(h, rho + r, L1(rho + r) - math.log(r), u + rho),
            _continue_legs(zeta, anchor2, log_zeta_euler(anchor2), u + 2.0 * rho),
            gamma(rho - u),
        )
        self.local0, self.zeta20 = self.l1[0], self.l2[0]

    def _check(self, u: np.ndarray) -> np.ndarray:
        out = np.abs(u) > self.radius
        if np.any(out):
            bad = np.max(np.abs(u))
            raise RangeError(
                f"|u| = {bad:.3g} outside the disc of radius {self.radius:.3f} "
                f"at rho = {self.rho}"
            )
        return u

    def _logs(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rho = self.rho
        return (
            _continue_legs(self.h_local, rho, self.local0, rho - u),
            _continue_legs(self.h_zeta2, 2.0 * rho, self.zeta20, 2.0 * rho - 2.0 * u),
        )


class ZetaKernel:
    """Evaluator bundle: zeta, gamma, continued logs, zero table.

    One Sweep per branch point ("one", "half" and each zero, as RhoSweep)
    is memoized, for every spec and config; a sweep's values do not
    depend on the points asked before, so results are pure functions.
    """

    def __init__(self, table: Optional[ZeroTable] = None):
        self.table = table if table is not None else default_zero_table()
        self._ordinates = np.array(self.table.ordinates)
        self._sweeps: dict = {}

    def rho(self, k: int, conjugate: bool = False) -> complex:
        g = self.table.ordinate(k)
        return complex(0.5, -g if conjugate else g)

    # -- L1 ----------------------------------------------------------------

    def _assert_off_cut(self, s: np.ndarray) -> None:
        left = s[s.real <= 0.5 + 1e-9]
        if not left.size:
            return
        t = np.abs(left.imag)
        g = self._ordinates
        i = np.searchsorted(g, t)
        for j in (np.maximum(i - 1, 0), np.minimum(i, g.size - 1)):
            hit = np.abs(t - g[j]) <= 1e-9
            if np.any(hit):
                n = int(np.argmax(hit))
                raise CutError(f"target {complex(left[n])} lies on a zero cut (gamma={g[j[n]]})")

    def L1(self, s):
        """Branch of log((s-1) zeta(s)) with L1(1)=0, on the zero-cut plane;
        s a point or an array.

        Re s >= 1.2 takes log_zeta_euler + Log(s-1); |Im s| <= 0.35 with
        Re (s-1) zeta(s) > 0 the plain Log of (s-1) zeta(s), which covers the
        real segment (1/3, 1.2) and the Watson rings of the cuts at 1 and
        1/2.  Every other point is continued along one straight leg from
        1.2 + i Im s, all of them in one _continue_legs call.  A point's
        value does not depend on the others of its call, repeats too.
        """
        pts, scalar = _points(s)
        if np.any(pts.real <= 1.0 / 3.0):
            raise RangeError("L1 requires Re s > 1/3")
        self._assert_off_cut(pts)
        out = np.zeros(pts.size, dtype=np.complex128)
        todo = pts != 1.0
        right = todo & (pts.real >= _PRINCIPAL_RE_MIN)
        if np.any(right):
            v = pts[right]
            out[right] = log_zeta_euler(v) + np.log(v - 1.0)
        todo &= ~right
        near = np.flatnonzero(todo & (np.abs(pts.imag) <= 0.35))
        if near.size:
            h = zeta_times_s_minus_1(pts[near])
            plain = h.real > 0.0
            out[near[plain]] = np.log(h[plain])
            todo[near[plain]] = False
        if np.any(todo):
            v = pts[todo]
            anchor = _ANCHOR_RE + 1j * v.imag
            out[todo] = _continue_legs(zeta_times_s_minus_1, anchor, self.L1(anchor), v)
        return _shaped(out, s, scalar)

    # -- the sweeps at the branch points ---------------------------------------

    def sweep(self, point) -> Sweep:
        """The sweep at "one" (s0 = 1), "half" (s0 = 1/2) or the zero
        (k, conjugate), built once per kernel."""
        got = self._sweeps.get(point)
        if got is None:
            if point in _LINE_POINTS:
                got = Sweep(_LINE_POINTS[point], self.L1)
            else:
                k, conjugate = point
                got = RhoSweep(self.rho(k, conjugate), self.table.gap_radius(k), self.L1)
            self._sweeps[point] = got
        return got

    def rho_sweep(self, k: int, conjugate: bool = False) -> RhoSweep:
        """The sweep at zero k (at its mirror -gamma_k if conjugate)."""
        return self.sweep((k, conjugate))

    # -- zeta'(rho) ----------------------------------------------------------

    def zeta_prime_at_zero(self, zero_index: int) -> complex:
        """zeta'(rho_k): zeta's Euler-Maclaurin sum at rho_k, differentiated
        term by term (_zeta_em).  Against mpmath at 40 digits the error is
        1.3e-16, 3.3e-16, 1.0e-15, 4.9e-16 and 5.1e-16 relative at zeros 1,
        2, 5, 30 and 100.  The formula reads it from the zero's RhoSweep.
        """
        rho = np.array([self.rho(zero_index)])
        return complex(_zeta_em(rho, int(_em_terms(rho)[0]), derivative=True)[0])


_DEFAULT_KERNEL: Optional[ZetaKernel] = None


def default_kernel() -> ZetaKernel:
    """Shared kernel over the builtin 100-zero table (built lazily)."""
    global _DEFAULT_KERNEL
    if _DEFAULT_KERNEL is None:
        _DEFAULT_KERNEL = ZetaKernel()
    return _DEFAULT_KERNEL
