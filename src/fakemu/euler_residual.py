"""Residual Euler product G(s).

The Dirichlet series of f factors as zeta(s)^z zeta(2s)^w G(s), where the
local factors  G_p(s) = (1-p^{-s})^z (1-p^{-2s})^w g(p^{-s})  satisfy
G_p - 1 = O(p^{-3 Re s}), so G is holomorphic and bounded on Re s > 1/3.
Evaluation truncates the product at P = prime_limit (default 1e5);
G_f_tail_estimate bounds the dropped tail in closed form from the a_k
below and a bound on pi(t).

One kernel evaluates it: G_f_line(spec, s0, u) returns G(s0_i - u_j)
for real u_j >= 0, the points of a horizontal segment, and for one s0 or
an array of them (the cut at 1/2 and the zero cuts of the explicit
formula share one real part); it takes the rows in groups of one real
part.  G_f(s) is its case u = [0] with s as the rows, for a point or an
array of points (a Watson ring).  Within a group, with sigma_min =
Re s0 - max u, every point has
|p^{-s}| <= p^{-sigma_min}, and the primes split in two (H. Cohen, High
precision computation of Hardy-Littlewood constants, 1998):

- explicit primes, p^{-sigma_min} > RHO_SERIES = 0.2 (25 primes at
  sigma_min = 0.35, 16 at 0.4, 9 at 1/2, 2 at 1, 1 at 1.5), enter as the
  product of g(U_p), U_p = p^{-s}, and as z E_1 + w E_2 in the exponent,
  with E_1 = sum_p log(1 - U_p) and E_2 = sum_p log(1 - U_p^2): |U_p| < 1,
  so 1 - U_p and 1 - U_p^2 lie in Re > 0 and their principal logs are the
  logs of the factors.  No log of g is taken, so g has no branch to pick;
- every other prime enters log G_p = sum_{k>=3} a_k u^k, u = p^{-s}, so
  the series primes add sum_k a_k S_k(s) to log G, with the prime sums
  S_k(s) = sum_p p^{-ks} over the series primes whose order reaches k.

So G(s) = exp(z E_1 + w E_2 + sum_k a_k S_k) prod_p g(U_p), and only g,
z, w and the a_k depend on the spec.

Power series.  For |u| <= R < 1/2 and eps_k unimodular or zero,
|g(u) - 1| <= sum_k R^k = R/(1-R) < 1, so log g, log(1-u) and log(1-u^2)
are analytic on the disc, equal to their principal values, and their sum
h(u) = log[g(u) (1-u)^z (1-u^2)^w] is the power series sum_k a_k u^k.
_log_coeffs computes the a_k once per spec, on first use: with L_k the
coefficients of log g, b_k = k L_k = k eps_k - sum_{j<k} b_j eps_{k-j}
(from g' = g (log g)'), and k a_k = b_k - z - 2w [k even].  a_1 and a_2
vanish by the choice of z and w.

Majorant.  eps_model takes |eps_j| <= c = 1 + UNIT_TOL, so g - 1 is
majorized coefficient-wise by c u/(1-u), hence by v/(1-v), v = c u, and
log g by -log(1 - v/(1-v)) = -log(1-2v) + log(1-v): |L_k| <= c^k (2^k -
1)/k.  With |z| = |eps_1| <= c and |w| = |eps_2 - z(z+1)/2| <= 2c^2, so
|z + 2w| <= 5c^2,

    |a_k| <= A_k = c^k (2^k + 4[k even])/k     (k >= 2)

for every spec, and it is tight: periodic:m=1:[-1] (g = (1-2u)/(1-u), z =
w = -1) has |a_k| = (2^k - 2 - 2[k even])/k, within 1% from k = 10 on,
and A_3 = 8/3 (times c^3) is reached by eps = (i, 1, -i).
With rho = p^{-sigma_min} <= RHO_SERIES = 0.2, dropping a series prime's
orders above K leaves at most

    T(rho, K) = sum_{k>K} A_k rho^k,

whose terms past _MAX_ORDER = 64 are two geometric series.  Its order K_p
is the least K with T <= SERIES_TOL/N, N series primes, so the dropped
terms of all series primes together move log G by at most SERIES_TOL =
2^-53, i.e. G by a relative 2^-53, for every spec.  T falls with rho, so
one bisection per K over the primes finds where K starts to suffice.
The smallest series primes take the highest orders: the top order is 46
at sigma_min = 0.35, 45 at 0.4, 43 at 1/2, 46 at 1 and 44 at 1.5, and
there are 98900 prime-order pairs per point at sigma_min = 0.4 and 70500
at 1/2 (fig53's own |a_k| would need 87200 and 64400).  A prime whose K_p
is 2 is left out.  The orders are taken at sigma_min rounded down to a
multiple of 1/256, which only adds terms, and kept for 64 (rounded
sigma_min, prime limit).  On series primes |g| >= 1 - 0.2/0.8, so only an
explicit prime can meet a zero of g.  G is 0 there, a legitimate value:
the zero (or the ~eps to which g rounds) is a factor of the product.

Shared prime sums.  The orders do not depend on the spec, so neither do
the sums, nor the powers and logs of the explicit primes.  For a row s0
and segment u, one entry of a table per prime limit (PrimeSums,
GfConfig.prime_sums) holds U = p^{-(s0 - u_j)} at the explicit primes
and the rows E_1, E_2, S_3, .., S_K at each point; it is keyed by the
row's upper-half-plane value (s0, or conj(s0) where Im s0 < 0; a -0.0
imaginary part counts as upper) and the bytes of u, which fix sigma_min
and so the explicit count and K.  A lower-half row reads its rep's entry
conjugated: complex exp and products, _pow_minus_s and _log_near_unit
are conjugate-symmetric to the bit, so these are the values the row
would compute.  A call looks up the reps of each group of one real part
and fills the missing ones together (_row_entries: _fill_sums and
_fill_explicit); each row is then g at its stored powers, their product
per point, and one dot (z, w, a_3, .., a_K) @ (E_1, E_2, S_3, .., S_K)
(_row_coeffs).  So a spec computes no power and no log, and a row has
the same bits whichever spec filled its entry, alone or in a batch.
Least recently used entries go once the table holds PRIME_SUMS_CAP = 4
MB, counting each entry's arrays and key plus PRIME_SUMS_ENTRY = 576
bytes for its Python objects; a cold 30-pair fig53 evaluate leaves 64
entries, ~1.07 MB.  hits and misses count the reps looked up.

The fill.  On the segment u_p(s0 - u_j) = p^{-s0} p^{u_j}, so a fill
takes one complex exp per (series prime, missing rep) and one real exp
per (prime, point).  Per block of primes the real (primes x points)
matrix e1 = p^{u_j} is taken once, before any rep; each block of reps
cubes it and updates the cube per order.  Per order k and per rep, the
row p^{-k s0} viewed as (2 x primes) reals times p^{k u_j} is one matrix
product, kept per rep because BLAS blocking over several rows moves a
row's bits with their number.  Once the powers of the orders left
number at most _LAST_ORDERS = 1024 (orders x primes x points), which
happens where a few small primes take the top orders, those orders go in
one step: the powers as running products along the orders, each prime's
set to 0 from the order its count ends, and one stacked matrix product
for the block of reps.  A block of reps keeps its products of every
order in one buffer and adds them, once per block of primes, into each
rep's own array, which the table then keeps.  Where u has at most 64
points, every buffer holds at most _BLOCK = 2^14 float64 entries (128
kB): a block takes at most _BLOCK/2 primes, since a complex row p^{-k s0}
holds two entries per prime, so a one-point G (~9500 series primes)
takes two blocks; a longer u takes 256 primes per block.  The explicit
primes' powers take one _pow_minus_s call over the missing points and
their logs two _log_near_unit calls, whose temporaries are the size of
the U the table keeps; a spec's g goes in blocks of rows of at most
_EXPLICIT_BLOCK (points x explicit primes), so its scratch memory does
not grow with the number of rows.

Rounding.  A series term carries rounding relative to its own size,
|u|^3 and below, so G's rounding comes from the explicit primes.  Their
two logs go through `_log_near_unit` rather than `np.log`.  Almost all of
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
part picking +pi or -pi on the negative real axis as np.log does.  The
powers p^{-s} follow zeta's one rule (_pow_minus_s): float64 at a point
whose phase |Im s| log p stays below 8 rad at the largest explicit prime,
the phase reduced mod 2 pi in extended precision beyond, where double
precision would lose ~1e-14 at Im s ~ 21.  What is left is the rounding
of 1 - u and 1 - u^2 near 1 and of their logs, an absolute ~eps per
explicit prime in E_1 and E_2; that of z E_1 + w E_2, ~eps |E_1| with
|E_1| up to ~3 at sigma_min = 0.35; and that of g(u) and of the product,
a relative ~eps per explicit prime.  Against a long-double product over
the same primes G is within 2.8e-15 relative on every fig53 segment at
a = 0.35 (2.1e-15 with the three logs of log g + z log(1-u) + w
log(1-u^2) summed), where the sum of those three logs over all 9592
primes reaches 2.6e-14.

The sieved log-prime table and the table of prime sums are shared by
every GfConfig of one prime limit; the log primes and each entry of
prime sums are read-only.
"""

from __future__ import annotations

import cmath
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cache, lru_cache
from numbers import Integral
from typing import Optional

import numpy as np

from .eps_model import UNIT_TOL, EpsilonSpec, _g_eval_array, eps_at, zw_params
from .errors import CapacityError, DomainError, RangeError
from .sieve import primes_up_to
from .zeta_kernel import _pow_minus_s

RE_S_MIN = 0.35
_NEAR_UNIT = 0.5  # | |v|^2 - 1 | at most this takes the log1p form
#: A prime with p^{-sigma_min} above RHO_SERIES keeps its three principal
#: logs; every other prime enters the power series of log G_p.
RHO_SERIES = 0.2
#: Bound on the dropped series terms of log G, summed over all primes.
SERIES_TOL = 2.0 ** -53
#: Coefficients a_k are computed for k <= _MAX_ORDER; a series prime needs
#: at most 46 at the default prime limit (module docstring) and 53 at
#: PRIME_LIMIT_CAP (5.8e6 series primes); 64 would take ~1e11.
_MAX_ORDER = 64
#: Series orders are taken at sigma_min rounded down to a multiple of
#: 1/_ORDER_GRID, and kept per (that value, prime limit).
_ORDER_GRID = 256
#: Entries of one (primes x points) buffer of the prime sums' fill: 128 kB.
_BLOCK = 2 ** 14
#: The fill's last orders go in one step once their (orders x primes x
#: points) powers number at most this: below it a step per order costs more.
_LAST_ORDERS = 2 ** 10
#: |eps_k| <= _EPS_SLACK: eps_model takes a value within UNIT_TOL of the unit circle.
_EPS_SLACK = 1.0 + UNIT_TOL
#: Bytes one prime limit's table of prime sums keeps, and the allowance
#: per entry for its Python objects (tracemalloc: ~567 bytes on CPython 3.11).
PRIME_SUMS_CAP = 2 ** 22
PRIME_SUMS_ENTRY = 576
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

    @property
    def prime_sums(self) -> PrimeSums:
        """The limit's shared table of prime sums, with its hit and miss counts."""
        return _prime_sums(self.prime_limit)


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


@lru_cache(maxsize=64)
def _row_coeffs(spec: EpsilonSpec) -> np.ndarray:
    """(z, w, a_3, .., a__MAX_ORDER): log G on a row, but for the log of
    g's product, is _row_coeffs[:K] @ T over its table entry's rows E_1,
    E_2, S_3..S_K (PrimeSums)."""
    pars = zw_params(spec)
    coeffs = np.concatenate(([pars.z, pars.w], _log_coeffs(spec)[3:]))
    coeffs.flags.writeable = False
    return coeffs


def _majorant(k: np.ndarray) -> np.ndarray:
    """A_k >= |a_k| for every spec, k >= 2 (module docstring)."""
    return _EPS_SLACK ** k * (2.0 ** k + np.where(k % 2 == 0, 4.0, 0.0)) / k


def _majorant_rest(rho: float | np.ndarray) -> float | np.ndarray:
    """B(rho) with sum_{k>_MAX_ORDER} A_k x^k <= B(rho) x^{_MAX_ORDER+1} for
    0 <= x <= rho, 2c rho < 1: A_k <= c^k (2^k + 4)/65 past k = 64, c = 1 +
    UNIT_TOL, which leaves two geometric series."""
    c, k = _EPS_SLACK, _MAX_ORDER + 1
    return ((2.0 * c) ** k / (1.0 - 2.0 * c * rho) + 4.0 * c ** k / (1.0 - c * rho)) / k


def _series_orders(sigma_min: float, logq: np.ndarray) -> np.ndarray:
    """Last order K_p >= 2 of each series prime's power series at Re s >=
    sigma_min, for every spec: the least K whose dropped terms are bounded
    by SERIES_TOL/N, N = logq.size, with rho = p^{-sigma_min} and the
    majorant A_k >= |a_k|:

        T(rho, K) = sum_{k>K} A_k rho^k.

    T falls with rho, so the primes that meet the bound at order K are the
    primes from some index i_K on; a bisection per K finds i_K, and K_p is
    the least K with i_K <= p.  Orders fall as p grows; K_p = 2 drops the
    prime."""
    k = np.arange(3, _MAX_ORDER + 1)
    big_a = _majorant(k)
    n = logq.size
    tol = SERIES_TOL / max(n, 1)
    orders = np.arange(2, _MAX_ORDER + 1)  # K

    def tail(i: np.ndarray) -> np.ndarray:
        """T(rho_{i_K}, K) for each K, rho_i = p_i^{-sigma_min}."""
        rho = np.exp(-sigma_min * logq[i])
        # above[j, K - 2]: the terms of order above K at rho_j
        above = np.cumsum((rho[:, None] ** k * big_a)[:, ::-1], axis=1)[:, ::-1]
        above = np.concatenate([above, np.zeros((rho.size, 1))], axis=1)
        above += (rho ** (_MAX_ORDER + 1) * _majorant_rest(rho))[:, None]
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
def _series_active(sigma_min: float, prime_limit: int, n_exp: int) -> np.ndarray:
    """active[k]: the number of series primes (a prefix of the primes past
    the n_exp explicit ones) whose order reaches k, k = 0..top+1."""
    order = _series_orders(sigma_min, _log_primes(prime_limit)[n_exp:])
    active = np.searchsorted(-order, -np.arange(int(order[0]) + 2), side="right")
    active.flags.writeable = False
    return active


#: A table entry: (U, T), with U = p^{-s} at the explicit primes and T
#: the rows E_1, E_2, S_3..S_K (PrimeSums).
_Entry = tuple[np.ndarray, np.ndarray]


class PrimeSums:
    """The spec-free part of G on the rows of one prime limit, shared by
    every spec: per (rep, u bytes), where rep is a row's upper-half-plane
    value, the pair (U, T) at the points s_j = rep - u_j.  U is the (u x
    explicit primes) complex array of p^{-s_j}; T is the (K x u) complex
    array with rows E_1 = sum_p log(1 - p^{-s_j}) and E_2 = sum_p log(1 -
    p^{-2 s_j}) over the explicit primes, then S_k(s_j), k = 3..K, the top
    series order at Re rep - max u (T[k-1] = S_k).  Least recently used
    entries go once the entries' arrays, keys and a PRIME_SUMS_ENTRY
    allowance for their Python objects pass PRIME_SUMS_CAP bytes.  hits
    and misses count the reps looked up."""

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple[complex, bytes], _Entry] = OrderedDict()
        self.nbytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple[complex, bytes]) -> Optional[_Entry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return entry

    def put(self, key: tuple[complex, bytes], entry: _Entry) -> None:
        for arr in entry:
            arr.flags.writeable = False
        self._entries[key] = entry
        self.nbytes += _entry_bytes(key, entry)
        while self.nbytes > PRIME_SUMS_CAP:
            old = self._entries.popitem(last=False)
            self.nbytes -= _entry_bytes(*old)

    def clear(self) -> None:
        """Empty the table (the counts stay)."""
        self._entries.clear()
        self.nbytes = 0


def _entry_bytes(key: tuple[complex, bytes], entry: _Entry) -> int:
    return sum(arr.nbytes for arr in entry) + len(key[1]) + PRIME_SUMS_ENTRY


@cache
def _prime_sums(prime_limit: int) -> PrimeSums:
    """The prime-sum table of one prime limit, made once per process."""
    return PrimeSums()


def _fill_sums(
    reps: list[complex], u: np.ndarray, logq: np.ndarray, active: np.ndarray,
    out: list[np.ndarray],
) -> None:
    """Add to each rep's zeroed (orders x u) complex array in out the prime
    sums S_k(rep - u_j) = sum_p p^{-k rep} p^{k u_j} over the series primes
    whose order reaches k, k = 3..top.

    Per block of primes the real (primes x points) matrix e1 = p^{u_j} is
    taken once and every block of reps cubes it into ek.  Per order k and
    per rep, the complex row p^{-k rep}, viewed as (2 x primes) reals,
    times ek is one matrix product: BLAS blocking over several rows would
    move a row's bits with their number.  Both factors are updated in
    place by one more factor, on the prefix of primes whose order reaches
    k, which shrinks as k grows.  Once the orders left hold at most
    _LAST_ORDERS powers, they go in one stacked product over running
    products of both factors.  Each buffer holds at most _BLOCK float64
    entries where u has at most 64 points; a longer u takes 256 primes per
    block, 256 u.size entries.
    """
    top = active.size - 2
    n = int(active[3])
    m = len(reps)
    if n == 0:
        return
    # a rep's sums viewed as reals: (orders x u x 2)
    out_pairs = [sums.view(np.float64).reshape(top - 2, u.size, 2) for sums in out]
    # a row of complex c1 takes 2 width entries, so width stays <= _BLOCK/2,
    # and a rep's products of every order 2 (top - 2) u.size entries
    width = min(n, max(256, _BLOCK // u.size), _BLOCK // 2)
    rows = min(m, max(1, _BLOCK // (2 * max(width, (top - 2) * u.size))))
    # (orders x primes) the last orders may hold to go in one step: set by
    # u, not by the reps, so a rep's bits do not depend on its batch
    last = min(width, _LAST_ORDERS // u.size)
    e1_buf, ek_buf = np.empty((width, u.size)), np.empty((width, u.size))
    c1_buf = np.empty((rows, width), np.complex128)
    ck_buf = np.empty((rows, width), np.complex128)
    sums = np.empty((rows, top - 2, 2, u.size))
    minus_s0 = -np.array(reps)
    for lo in range(0, n, width):
        nb = min(width, n - lo)
        q = logq[lo : lo + nb]
        count = np.clip(active - lo, 0, nb)
        cnt = count.tolist()
        e1, ek = e1_buf[:nb], ek_buf[:nb]
        np.exp(np.multiply.outer(q, u, out=e1), out=e1)
        for r0 in range(0, m, rows):
            mr = min(rows, m - r0)
            c1, ck = c1_buf[:mr, :nb], ck_buf[:mr, :nb]
            np.multiply(np.multiply(e1, e1, out=ek), e1, out=ek)
            np.exp(np.multiply.outer(minus_s0[r0 : r0 + mr], q, out=c1), out=c1)
            np.multiply(np.multiply(c1, c1, out=ck), c1, out=ck)
            # (rows x 2 x primes): numpy takes one product per row of the stack
            ck_pairs = ck.view(np.float64).reshape(mr, nb, 2).transpose(0, 2, 1)
            k = 3
            while True:
                np.matmul(ck_pairs[:, :, : cnt[k]], ek[: cnt[k]], out=sums[:mr, k - 3])
                nxt = cnt[k + 1]
                if not nxt:
                    break
                if (top - k + 1) * nxt <= last:
                    # the few primes of the last orders: their powers as
                    # running products along the orders, one stacked product
                    o = top - k
                    ep = np.empty((o + 1, nxt, u.size))
                    ep[0] = ek[:nxt]
                    # a factor 0 drops a prime from the order its count ends
                    keep = np.arange(nxt)[:, None] < count[k + 1 : top + 1, None, None]
                    np.multiply(e1[:nxt], keep, out=ep[1:])
                    np.multiply.accumulate(ep, out=ep)
                    cp = np.empty((o + 1, mr, nxt), np.complex128)
                    cp[0], cp[1:] = ck[:, :nxt], c1[:, :nxt]
                    np.multiply.accumulate(cp, out=cp)
                    cp_pairs = cp[1:].view(np.float64).reshape(o, mr, nxt, 2).transpose(1, 0, 3, 2)
                    np.matmul(cp_pairs, ep[1:], out=sums[:mr, k - 2 : top - 2])
                    k = top
                    break
                np.multiply(ek[:nxt], e1[:nxt], out=ek[:nxt])
                np.multiply(ck[:, :nxt], c1[:, :nxt], out=ck[:, :nxt])
                k += 1
            for j in range(mr):
                out_pairs[r0 + j][: k - 2] += sums[j, : k - 2].transpose(0, 2, 1)


def _fill_explicit(points: np.ndarray, logp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U = p^{-s} at the explicit primes as a (points x primes) array, and
    the (2 x points) sums E_1 = sum_p log(1 - U), E_2 = sum_p log(1 - U^2).
    U is zeta's _pow_minus_s, whose one rule per point picks float64 or the
    extended phase (PlatformError where that is needed and longdouble is
    float64), so a point's bits do not depend on its batch."""
    powers = _pow_minus_s(logp, points)
    logs = np.empty((2, points.size), dtype=np.complex128)
    np.sum(_log_near_unit(1.0 - powers), axis=1, out=logs[0])
    np.sum(_log_near_unit(1.0 - powers * powers), axis=1, out=logs[1])
    return powers, logs


def _row_entries(
    rows: np.ndarray, u: np.ndarray, prime_limit: int, sigma_min: float, n_exp: int
) -> dict[complex, _Entry]:
    """The table entry of each row's rep, rep -> (U, T), from the shared
    table, one fill for the reps it lacks."""
    table = _prime_sums(prime_limit)
    key_u = u.tobytes()
    found: dict[complex, Optional[_Entry]] = {}
    for v in rows.tolist():
        rep = complex(v.real, abs(v.imag))
        if rep not in found:
            found[rep] = table.get((rep, key_u))
    missing = [rep for rep, entry in found.items() if entry is None]
    if not missing:
        return found
    logp = _log_primes(prime_limit)
    top, active = 2, None
    if n_exp < logp.size:
        # orders for a Re s below sigma_min still bound the dropped terms;
        # a grid of them keeps few in the cache (a Watson ring has 256 Re s)
        sigma_grid = math.floor(sigma_min * _ORDER_GRID) / _ORDER_GRID
        active = _series_active(sigma_grid, prime_limit, n_exp)
        top = active.size - 2
    rows_t = [np.zeros((top, u.size), dtype=np.complex128) for _ in missing]
    if top > 2:
        _fill_sums(missing, u, logp[n_exp:], active, [t[2:] for t in rows_t])
    powers, logs = _fill_explicit((np.array(missing)[:, None] - u).reshape(-1), logp[:n_exp])
    for i, rep in enumerate(missing):
        at = slice(i * u.size, (i + 1) * u.size)
        rows_t[i][:2] = logs[:, at]
        found[rep] = (powers[at].copy(), rows_t[i])
        table.put((rep, key_u), found[rep])
    return found


#: (points x explicit primes) entries of g per block of rows in _G_rows:
#: 128 kB of complex for each of g's few temporaries
_EXPLICIT_BLOCK = _BLOCK // 2


def _G_rows(spec: EpsilonSpec, rows: np.ndarray, u: np.ndarray, cfg: GfConfig) -> np.ndarray:
    """G at rows_i - u_j as a (rows x u) array, for rows of one real part:
    exp(z E_1 + w E_2 + sum_k a_k S_k) prod_p g(U_p), from each row's
    table entry, which a lower-half row reads conjugated.  g goes over
    blocks of rows of at most _EXPLICIT_BLOCK (points x explicit primes)."""
    sigma_min = float(rows[0].real) - float(u.max())
    n_exp = int(np.searchsorted(cfg.logp, -math.log(RHO_SERIES) / sigma_min))
    entries = _row_entries(rows, u, cfg.prime_limit, sigma_min, n_exp)
    coeffs = _row_coeffs(spec)
    exponent = np.empty((rows.size, u.size), dtype=np.complex128)
    product = np.empty((rows.size, u.size), dtype=np.complex128)
    step = max(1, _EXPLICIT_BLOCK // max(u.size * n_exp, 1))
    powers = np.empty((min(step, rows.size), u.size, n_exp), dtype=np.complex128)
    for lo in range(0, rows.size, step):
        block = rows[lo : lo + step].tolist()
        for i, v in enumerate(block):
            row_powers, row_t = entries[complex(v.real, abs(v.imag))]
            if v.imag < 0:  # a lower-half row reads its rep conjugated
                np.conjugate(row_powers, out=powers[i])
                row_t = row_t.conj()
            else:
                powers[i] = row_powers
            exponent[lo + i] = coeffs[: len(row_t)] @ row_t
        g = _g_eval_array(spec, powers[: len(block)].reshape(-1))
        np.prod(g.reshape(len(block), u.size, n_exp), axis=2, out=product[lo : lo + len(block)])
    return np.exp(exponent) * product


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

    With sigma = Re s, every p > P has |u| = p^{-sigma} < rho = P^{-sigma}.
    Where 2c rho < 1 (c = 1 + UNIT_TOL) each log G_p is its power series,
    and the computed a_k (k <= _MAX_ORDER = 64) with the majorant A_k past
    them (module docstring) give

        |log G_p(s)| <= sum_{k=3}^{64} |a_k| p^{-k sigma} + B p^{-65 sigma},
        B = ((2c)^65 / (1 - 2c rho) + 4 c^65 / (1 - c rho)) / 65.

    For alpha > 1, partial summation against pi(t) < 1.25506 t / log t
    bounds the sum over the primes past P:

        sum_{p>P} p^{-alpha} <= alpha int_P^inf pi(t) t^{-alpha-1} dt
                             <= S(alpha) = 1.25506 alpha P^{1-alpha}
                                           / ((alpha - 1) log P),

    and alpha = k sigma >= 3 * 0.35 = 1.05 for every term.  So

        T = sum_{k=3}^{64} |a_k| S(k sigma) + B S(65 sigma).

    T is inf where 2c rho >= 1.  Where G is identically 1 every a_k is 0
    and only the remainder B S(65 sigma) is left (~2e-141 at sigma = 1/2).
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
    if 2.0 * _EPS_SLACK * rho >= 1.0:
        return math.inf
    alpha = sigma * np.arange(3, _MAX_ORDER + 2)  # k = 3.._MAX_ORDER + 1
    prime_sums = _PI_BOUND * alpha * np.exp((1.0 - alpha) * log_p) / ((alpha - 1.0) * log_p)
    a = np.abs(_log_coeffs(spec)[3:])
    return float(a @ prime_sums[:-1] + _majorant_rest(rho) * prime_sums[-1])
