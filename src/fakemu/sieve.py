"""Ground-truth oracle: f(n) by sieve and the direct smoothed sum.

f(n) = prod_p eps_{v_p(n)} over the distinct primes dividing n.  Point
queries use a smallest-prime-factor table (`f_of_n`, also the reference
the block sieve is tested against).  The large direct sum
A_exp(x) = sum_n f(n) e^{-n/x} runs `_sweep`, which sieves [1, n_max] in
segments of 2 BLOCK = 2^19 numbers and hands f on in blocks of
BLOCK = W^2 = 2^18, so nothing of size ~37.5x is ever held in memory at
once.  The top 2^19 numbers of a sweep cost about 3.8, 5.2 and 6.2 ns
per n for Mobius, 4.4, 5.8 and 6.6 for periodic:m=2:[i,-i] (both on the
lattice) and 10.8, 19.6 and 40.6 for finite:[exp(i*pi/5),1] (off it, with
a float product) at n_max = 7.5e6, 3.75e8 and 3.75e9 (medians of 15 runs
of bench/bench.py, 2 Xeon vCPUs on a shared host); off the lattice the
strided passes of the product make up the growth with n_max.

One sieve serves every spec, with no integer division and no index
gather.  A per-sweep plan lists every prime power q = p^k <= n_max with
p <= sqrt(n_max), with e'_k = eps_k where it is nonzero and 1 where it is
0 (e'_0 = 1), dz_k = [eps_k = 0] - [eps_{k-1} = 0], and quarter turns
t_k: a lattice spec, whose every eps_k (k <= 60) is exactly 0, +-1 or +-i
(Mobius, Liouville cm:xi=-1, periodic:m=2:[i,-i]), has e'_k = i^{t_k};
off the lattice t_k = 0 for every k.  Each power adds one code

    c_k = l_k + 2^8 (2 dz_k) + 2^14 (t_k - t_{k-1})  (mod 2^16)
    l_k = round(C k log2 p) - round(C (k-1) log2 p)  (0 where eps_1 = 1)

to a uint16 buffer.  Summed over the powers that divide n, the code holds
three fields: in bits 0-7 the log byte L = sum_p round(C v_p log2 p) of
the smooth part S (the product of the sieved prime powers of n), in bits
8-13 twice the zero count, and in bits 14-15 the phase T = sum_p t_{v_p}
mod 4, which wraps there and is 0 off the lattice.  A power is one
strided integer add or a part of a segment's scatter.  After the large
prime's borrow (below), f is read off the code's high byte 64 T + z by
one np.take from a 256-entry table,

    table[64 T + z] = i^T     where z = 0
                    = i^T i e'_1  where z = 63 and eps_1 != 0
                    = 0       elsewhere.

On the lattice the table holds f itself.  Off it only T = 0 and, after a
borrow, T = 3 occur, so the table gives 1, the large prime's e'_1
(i^3 i = 1) or 0, and the other factors of f come from a float product,
f = val table[high].  A plan with no nonzero code and eps_1 = 1 sieves
no codes: f = val, and f = 1 (cm:xi=1, no power at all) is a fill.

The product.  Off the lattice each power with r_k = e'_k / e'_{k-1} != 1
multiplies its multiples in a block, val[s::q] *= r_k, so val ends at
prod_p e'_{v_p(n)} over the sieved primes, a product of ratios within a
few ulp of `f_of_n`.  val is float64 where every eps_k has an imaginary
part of exactly 0, so that f is real, and complex128 otherwise
(exp(i pi) = -1 + 1.2e-16i is not real).  A real product rounds as the
real part of the same complex product, so the float64 buffer holds bit
for bit what a complex one would.  The product stays a strided pass per
power and block, in the (p, k) order, where the codes scatter: float
products do not commute bit for bit, so a scatter would need a fixed
product order to keep f's bits.  Its primes are the segment's, p^2 below
the segment's top and not the block's, so that val and the codes sieve
the same primes: a prime the codes count as sieved but the product
missed would drop its factor from f.

The small powers come from one stored period.  The plan's powers q that
divide PERIOD = 27720 = 2^3 3^2 5 7 11 are sieved once per sweep, in
their (p, k) order and with the same updates, into one period of codes
and, off the lattice, one of val, whose length is the lcm of those q
(PERIOD at most: 55 kB of codes, and 0.44 MB complex or 0.22 MB real).
A segment's codes and a block's val start as a copy of it from lo mod
period, about 10 slices per 2^18 numbers, in place of a fill and of up
to eight strided passes that each swept the whole buffer; the other
powers follow.  So a product takes its factors in another order than one
pass per power would, a few ulp apart.  A plan with no stored power has
a period of 1 and fills.  Of the periods 2520, 27720, 60060 and 360360,
27720 gave the fastest top block at n_max = 7.5e6, or tied, for Mobius
and periodic:m=2:[i,-i] with the period tiled into a float buffer (a
complex 360360 is 5.8 MB).

An absorbing zero ends the powers of p.  Where eps_j = 0 for every
j >= a (Mobius: a = 2), the plan drops every p^k with k > a: an n that
p^k divides has v_p(n) > a and f(n) = 0, and the kept p, ..., p^a have
already added 2 [eps_a = 0] = 2 to the zero count, which forces f = 0
however the large prime is read.  The dropped powers' ratios are 1, and
their log bytes are missing from L, which may then borrow (it reads as a
large prime, whose factor the zero count overrides).  At n_max = 7.5e6
Mobius keeps 798 of the 901 powers, 8 among the dropped.

The large prime is a borrow.  Each sieved p^v rounds C v log2 p by at
most 1/2, so L is within omega(S)/2 of C log2 S, and omega(n) <= 9 for
n < 2 3 5 7 11 13 17 19 23 29 = 6469693230, beyond which every plan
raises CapacityError; a sweep at the cap, n_max = 3.75e9, stays below.
C = (255 - 9/2) / log2 n_max keeps L <= 255, so the byte never carries
into the count, and C >= 7.69 below that cap.  Codes are sieved over a
window [lo, hi), a block or a segment, with the primes p^2 < hi, so n is
S times at most one prime P with P^2 >= hi, to the first power, which
takes e'_1, or f = 0 where eps_1 = 0.  An n with no large prime has
L >= C log2 n - 9/2.  One with a large prime has S = n/P <= n/sqrt(hi)
< sqrt(n), so L <= C log2 S + 9/2; a segment's hi is larger than its
blocks', which only lowers that bound.  The threshold
t = floor(C log2 a - 9/2), a <= n, lies between the two wherever
C log2(a sqrt(hi) / n) > 10 (one unit for the floor), and subtracting it
from the code borrows from the high byte exactly at the large primes: a
count of 0 turns to 63 with the phase one quarter turn back, which the
table reads as i^T e'_1 (0 where eps_1 = 0), and a count 2c > 0 to the
odd 2c - 1, which it reads as 0.  Each n below _HEAD = 4W takes its own
threshold (a = n), which separates wherever C log2 sqrt(hi) > 10: in
every window of at least 7 numbers, and in the first window of any
sweep.  Every larger n takes the threshold of its row of W numbers
(a = the row's first n), where
C log2(a / sqrt(a + W)) >= 7.69 log2(2048 / sqrt(2560)) = 41 > 10.
Where eps_1 = 1 the large prime leaves f alone, so there is no borrow and
no log byte.  Every code is an exact small integer, so f is exact on the
lattice, where a zero is +0.0.

Segments and the scatter.  A sweep sieves the codes of a segment of
2 BLOCK = 2^19 numbers (a 1 MB uint16 buffer) at a time, then takes f
block by block, so consume sees one block per call and f stays one block
in size.  Of the powers not in the stored period, those with
q <= _SPARSE = 4096 take one strided add each, about 1.1 us of Python and
numpy overhead apiece whatever their few hits; the sparse ones, q > 4096,
hit a segment at most 128 times and leave the loop.  Per segment, those
with p^2 < hi find their first multiple at -lo mod q and their hit
counts in array operations, lay their multiples end to end by one
cumulative sum of steps (np.repeat of q, with the step to each power's
first multiple), and add their codes by one np.add.at, about 5-10 ns per
hit.  uint16 adds wrap mod 2^16 and commute, so the codes, f and every
sum keep their bits.  In interleaved runs on the top segments of Mobius
and periodic:m=2:[i,-i] at n_max = 7.5e6, 3.75e8 and 3.75e9, thresholds
of 2048 and 4096 were fastest or tied and 512 was slowest (best of 9);
segments of four blocks read 4-9% less per n than two, for 1 MB more of
codes, and segments of one block 16-23% more (best of 7).  (A block's f
buffer is 4 MB complex or 2 MB real, not less than a core's L2; smaller
blocks were slower all the same, because the per-block Python loop over
the prime powers then dominates.)

The consume contract: `_sweep(spec, n_max, consume)` calls consume(lo, f)
once per block, in ascending order of lo, with f(lo), f(lo + 1), ...
(float64 where every eps_k is real, else complex128) as a view into a
buffer that the next block overwrites.  It is valid only during the
call; a consumer that keeps values copies them.

The weights e^{-n/x} of A_exp are never formed term by term.  A block is
read as W rows of W numbers, n = lo + W a + b, and e^{-n/x} factors into
e^{-(lo+Wa)/x} e^{-b/x}: the inner sums over b of every sample x are one
matrix product with a float64 table e^{-b/x} (a real one for a real f),
and the outer factors cost one exp per row and x
(`direct_exp_sums_multi`).  A block costs about W exps per active x
instead of W^2, and the weights take O(W * X_CHUNK) memory however many
x a sweep serves.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .eps_model import EpsilonSpec, eps_at
from .errors import CapacityError, DomainError, RangeError

#: A_exp sums stop at n <= C x, C = DEFAULT_CUTOFF_MULT.  For |f| <= 1 the
#: dropped tail is at most e^{-C} / (1 - e^{-1/x}) <= (x + 1) e^{-C}, which
#: is <= 2^-53 x for every x >= 1 where C >= 54 ln 2 = 37.43: below the
#: rounding unit of x, and x > 1/expm1(1/x) = sum e^{-n/x} is the largest
#: sum of |terms| that any |f| <= 1 reaches.
DEFAULT_CUTOFF_MULT = 37.5
SPF_CAP = 10 ** 9
DIRECT_X_CAP = 10 ** 8
#: row width of the weight factorisation in `direct_exp_sums_multi`
W = 512
BLOCK = W * W
#: sample points per column chunk of the weight product
X_CHUNK = 128

#: largest prime-power exponent reachable below the capacity caps (2^60)
_MAX_VP = 60
#: the stored period of the small prime powers: 2^3 3^2 5 7 11
PERIOD = 27720
#: the lattice's values: e'_k = i^t_k for e'_k in {+-1, +-i}
_TURNS = {1: 0, 1j: 1, -1: 2, -1j: 3}
_UNITS = (1, 1j, -1, -1j)
#: omega(n) <= _OMEGA for every n < _CAP = 2 3 5 ... 29, the tenth primorial,
#: which caps every plan
_OMEGA = 9
_CAP = 6469693230
#: n below it take their own large-prime threshold, larger n one per row of W
_HEAD = 4 * W
#: a plan scatters the code of every power q > _SPARSE, which hits a segment
#: of 2 BLOCK numbers at most 128 times, in place of a strided add
_SPARSE = 4096
#: the offset of a uint16's high byte in its two bytes
_HIGH = 1 if sys.byteorder == "little" else 0


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (simple bool sieve)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


@dataclass(frozen=True)
class SpfTable:
    """spf[n] = smallest prime factor of n (spf[1] = 1)."""

    limit: int
    spf: np.ndarray


def _require_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")


def build_spf(limit: int, cap: int = SPF_CAP) -> SpfTable:
    _require_int("SPF table limit", limit)
    if limit < 2:
        raise DomainError("SPF table limit must be >= 2")
    if limit > cap:
        raise CapacityError(f"SPF limit {limit} exceeds cap {cap}")
    spf = np.zeros(limit + 1, dtype=np.int32 if limit < 2 ** 31 - 1 else np.int64)
    spf[1] = 1
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            spf[p] = p
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    remaining = np.nonzero(spf == 0)[0]
    spf[remaining] = remaining  # primes above sqrt(limit)
    spf[0] = 0
    return SpfTable(limit=limit, spf=spf)


def f_of_n(table: SpfTable, spec: EpsilonSpec, n: int) -> complex:
    """f(n) for 1 <= n <= table.limit."""
    _require_int("n", n)
    if n < 1 or n > table.limit:
        raise RangeError(f"n={n} outside table range [1, {table.limit}]")
    val = 1.0 + 0.0j
    spf = table.spf
    while n > 1:
        p = int(spf[n])
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        val *= eps_at(spec, v)
    return val


class _Plan:
    """The prime powers of one sweep over [1, n_max] and the buffers it
    reuses: the codes of one segment (min(2 BLOCK, n_max) numbers) and f of
    one block (min(BLOCK, n_max))."""

    def __init__(self, spec: EpsilonSpec, n_max: int):
        if n_max >= _CAP:
            raise CapacityError(f"n_max={n_max} beyond the sieve's cap {_CAP}")
        eps = [eps_at(spec, k) for k in range(_MAX_VP + 1)]
        # f is real where every eps_k is; exp(i pi) = -1 + 1.2e-16i is not
        real = all(e.imag == 0 for e in eps)
        if real:
            eps = [e.real for e in eps]
        dtype = np.float64 if real else np.complex128
        zero = [e == 0 for e in eps]
        unit = [1.0 if z else e for e, z in zip(eps, zero)]  # e'_k
        #: the large prime changes f, so the codes' log byte finds it
        self.borrow = zero[1] or unit[1] != 1
        #: eps_j = 0 for every j >= absorb (an absorbing zero), so no p^k
        #: with k > absorb is sieved; absorb = _MAX_VP + 1 where there is none
        absorb = _MAX_VP + 1
        while absorb > 1 and zero[absorb - 1]:
            absorb -= 1
        #: quarter turns t_k of each e'_k on the lattice, else 0 throughout
        turns = [_TURNS.get(u) for u in unit]
        lattice = None not in turns
        if not lattice:
            turns = [0] * len(unit)
        #: the scale C of the codes' log byte (module docstring)
        self.scale = (255 - _OMEGA / 2) / math.log2(max(n_max, 2)) if self.borrow else 0.0
        #: (q = p^k, p, r_k, c_k) ordered by p, then k; r_k = 1 on the lattice,
        #: whose phase field carries every e'_k
        primes = primes_up_to(math.isqrt(n_max))
        kmax = np.zeros(primes.size, dtype=np.int64)  # the last k of each p
        q = primes
        for k in range(1, absorb + 1):
            q = q[: np.searchsorted(q, n_max, side="right")]  # p^k <= n_max
            if not q.size:
                break
            kmax[: q.size] = k
            q = q * primes[: q.size]
        p = np.repeat(primes, kmax)
        k = np.arange(p.size) - np.repeat(np.cumsum(kmax) - kmax, kmax) + 1
        q = p ** k
        # C log2 p from math.log2, whose last bit np.log2 need not share
        logs = self.scale * np.fromiter(map(math.log2, primes.tolist()), np.float64)
        logp = np.repeat(logs, kmax)
        zeros, t = np.array(zero, dtype=np.int64), np.array(turns)
        code = (np.rint(k * logp).astype(np.int64) - np.rint((k - 1) * logp).astype(np.int64)
                + ((2 * (zeros[k] - zeros[k - 1])) << 8) + ((t[k] - t[k - 1]) << 14)) % 2 ** 16
        ratio = np.ones(_MAX_VP + 1, dtype=dtype)
        if not lattice:
            ratio[1:] = [unit[j] / unit[j - 1] for j in range(1, _MAX_VP + 1)]
        r = ratio[k]
        keep = (r != 1) | (code != 0)
        q, p, r, code = q[keep], p[keep], r[keep], code[keep]
        self.powers: list[tuple[int, int, float | complex, int]] = list(
            zip(q.tolist(), p.tolist(), r.tolist(), code.tolist())
        )
        #: f takes codes where one is nonzero or the large prime changes f,
        #: and a product off the lattice or where it has no codes (a fill)
        self.codes = bool(code.any()) or self.borrow
        self.product = not lattice or not self.codes
        #: the powers that divide PERIOD are sieved once into one period of
        #: codes and of val, which every segment or block copies; of the
        #: rest, the codes of those with q > _SPARSE are scattered, and the
        #: other codes and every ratio take strided passes: (q, p^2, update)
        stored = PERIOD % q == 0
        period = math.lcm(*q[stored].tolist())
        self.code_period = np.zeros(period if self.codes else 1, dtype=np.uint16)
        self.val_period = np.ones(period if self.product else 1, dtype=dtype)
        for q_, r_, c in zip(q[stored].tolist(), r[stored].tolist(), code[stored].tolist()):
            if c:
                self.code_period[::q_] += c
            if r_ != 1:
                self.val_period[::q_] *= r_
        p2 = p * p
        dense = ~stored & (code != 0) & (q <= _SPARSE)
        self.strided = list(zip(q[dense].tolist(), p2[dense].tolist(), code[dense].tolist()))
        sparse = ~stored & (code != 0) & (q > _SPARSE)
        self.sparse = q[sparse], p2[sparse], code[sparse].astype(np.uint16)
        loop = ~stored & (r != 1)
        self.ratios = list(zip(q[loop].tolist(), p2[loop].tolist(), r[loop].tolist()))
        self.size = min(BLOCK, n_max)
        self.segment = min(2 * BLOCK, n_max)
        self.val = np.empty(self.size, dtype=dtype)  # f
        self.code = np.empty(self.segment if self.codes else 0, dtype=np.uint16)
        #: a block's table factors, where f is their product with val
        self.work = np.empty(self.size if self.codes and self.product else 0, dtype=dtype)
        #: f, or its large-prime factor, by a code's high byte 64 T + z
        table = np.zeros(256, dtype=np.complex128)
        table[0::64] = _UNITS
        if not zero[1]:  # i^T i e'_1 at the borrowed count 63, e'_1 = i^t_1 on the lattice
            turn = [_UNITS[(T + 1 + turns[1]) % 4] for T in range(4)]
            table[63::64] = turn if lattice else np.multiply(turn, unit[1])
        self.table = table.real.copy() if real else table
        #: the large-prime thresholds of n = 1, ..., _HEAD - 1
        self.thresholds = _threshold(self.scale, np.arange(1, _HEAD))


def _threshold(scale: float, n: np.ndarray) -> np.ndarray:
    """floor(C log2 n - _OMEGA / 2), at least 0: the log byte of an n with
    no large prime is not below it, and of one with a large prime is."""
    t = np.floor(scale * np.log2(n) - _OMEGA / 2)
    return np.maximum(t, 0).astype(np.uint16)


def _tile(out: np.ndarray, period: np.ndarray, lo: int) -> None:
    """out[j] = period[(lo + j) % period.size]: one slice up to the first
    period boundary, then whole periods and a last partial one."""
    size, p = out.size, period.size
    if p == 1:
        out.fill(period[0])
        return
    start = lo % p
    head = min(-start % p, size)
    out[:head] = period[start : start + head]
    whole = (size - head) // p
    out[head : head + whole * p].reshape(whole, p)[...] = period
    tail = size - head - whole * p
    out[size - tail :] = period[:tail]


def _borrow(lo: int, hi: int, plan: _Plan, code: np.ndarray) -> None:
    """Subtract the large-prime threshold from each code: its log byte
    borrows from the high byte exactly where n has a prime factor p with
    p^2 >= hi.  One threshold per n below _HEAD, then one per row of W."""
    size = hi - lo
    head = min(max(_HEAD - lo, 0), size)
    code[:head] -= plan.thresholds[lo - 1 : lo - 1 + head]
    rows = _threshold(plan.scale, np.arange(lo + head, hi, W, dtype=np.float64))
    full = (size - head) // W
    body = code[head : head + full * W].reshape(full, W)
    body -= rows[:full, None]
    if full < rows.size:
        code[head + full * W :] -= rows[full]


def _codes(lo: int, hi: int, plan: _Plan, code: np.ndarray) -> None:
    """The codes of n in [lo, hi) into code, less the large-prime
    threshold: the stored period, a strided add of each dense power and
    one scatter of the sparse ones, all with p^2 < hi."""
    size = hi - lo
    _tile(code, plan.code_period, lo)
    for q, p2, c in plan.strided:
        if p2 >= hi:
            break
        s = -lo % q  # first multiple of q in the window
        if s < size:
            code[s::q] += c
    _scatter(lo, hi, plan, code)
    if plan.borrow:
        _borrow(lo, hi, plan, code)


def _scatter(lo: int, hi: int, plan: _Plan, code: np.ndarray) -> None:
    """Add the code of each sparse power q with p^2 < hi at its multiples
    in [lo, hi).  Laid end to end, power by power, the multiples are the
    cumulative sum of q repeated (hits - 1) times after the step from the
    last multiple of the power before to the first, -lo mod q, of this
    one; one np.add.at adds every code, twice or more where powers share
    an n.  uint16 adds wrap and commute, so the codes are those of one
    strided add per power."""
    q, p2, c = plan.sparse
    k = np.searchsorted(p2, hi)  # the powers with p^2 < hi
    first = -lo % q[:k]
    hits = (hi - lo - 1 - first) // q[:k] + 1
    live = np.flatnonzero(hits)
    first, q, c, hits = first[live], q[live], c[live], hits[live]
    last = first + q * (hits - 1)
    step = np.repeat(q, hits)
    step[np.cumsum(hits) - hits] = first - np.concatenate(([0], last[:-1]))
    np.add.at(code, np.cumsum(step, out=step), np.repeat(c, hits))


def _product(lo: int, top: int, plan: _Plan, val: np.ndarray) -> None:
    """The product of the ratios r_k of n in [lo, lo + val.size) into val:
    the stored period, then a strided pass of each power with p^2 < top,
    the top of the segment whose codes f is read with."""
    _tile(val, plan.val_period, lo)
    for q, p2, r in plan.ratios:
        if p2 >= top:
            break
        s = -lo % q  # first multiple of q in the block
        if s < val.size:
            val[s::q] *= r


def _take(code: np.ndarray, plan: _Plan, val: np.ndarray) -> None:
    """f of the codes into val: one np.take of their high bytes from the
    plan's table, or, where val holds a product, times it."""
    # the high bytes, a strided uint8 view; on a complex 2^18 block
    # (best of 7 x 20, one Xeon vCPU) the take cost 0.32 ms with
    # mode="clip" and 0.92 ms with the default bounds check
    high = code.view(np.uint8)[_HIGH::2]
    if not plan.product:
        np.take(plan.table, high, out=val, mode="clip")
        return
    work = plan.work[: val.size]
    np.take(plan.table, high, out=work, mode="clip")
    val *= work


def _blocks(lo: int, hi: int, plan: _Plan):
    """(lo, f) of each block of plan.size numbers in [lo, hi), in ascending
    order, f a view into the plan's buffer, which the next block
    overwrites.  The codes are sieved a segment of up to two blocks at a
    time; then each block takes its product, if any, and its codes."""
    for seg in range(lo, hi, plan.segment):
        top = min(seg + plan.segment, hi)
        if plan.codes:
            _codes(seg, top, plan, plan.code[: top - seg])
        for a in range(seg, top, plan.size):
            val = plan.val[: min(plan.size, top - a)]
            if plan.product:
                _product(a, top, plan, val)
            if plan.codes:
                _take(plan.code[a - seg : a - seg + val.size], plan, val)
            yield a, val


def _f_block(lo: int, hi: int, plan: _Plan) -> np.ndarray:
    """f(n) for n in [lo, hi), 1 <= lo < hi <= lo + plan.size, as a view
    into the plan's buffer: the first block of `_blocks`."""
    return next(_blocks(lo, hi, plan))[1]


def _sweep(spec: EpsilonSpec, n_max: int, consume) -> None:
    """Sieve n in [1, n_max] block by block, calling consume(lo, f) per
    block (the consume contract of the module docstring)."""
    if n_max < 1:
        return
    plan = _Plan(spec, n_max)
    for lo, f in _blocks(1, n_max + 1, plan):
        consume(lo, f)


def direct_exp_sum(spec: EpsilonSpec, x: float) -> complex:
    """A_exp(x) = sum_n f(n) e^{-n/x}, truncated at n <= C x with
    C = DEFAULT_CUTOFF_MULT, which drops at most (x + 1) e^{-C} <= 2^-53 x."""
    return complex(direct_exp_sums_multi(spec, [x])[0])


def direct_exp_sums_multi(spec: EpsilonSpec, xs: np.ndarray) -> np.ndarray:
    """A_exp at several ascending x values from one sieve sweep.

    Each block [lo, hi) is read as rows of W numbers, n = lo + W a + b:

        sum_n f(n) e^{-n/x} = sum_a e^{-(lo+Wa)/x} sum_b f(lo+Wa+b) e^{-b/x}.

    The inner sums of every active x (cutoff >= lo) are one matrix product
    of the block's rows with a float64 table e^{-b/x}: a real product where
    f is real (float64), else numpy promotes the table to f's complex128.
    The outer factors cost one exp per row and x.  An x whose cutoff falls
    inside the block takes its full rows from the product and its partial
    row (< W terms) from one dot product with its table row; a short last
    row of the block is likewise one vector-matrix product.  Per block that is about
    rows * n_active exponentials (rows = BLOCK / W = W), against
    BLOCK * n_active for a per-term weight, plus W per x for the table.
    The x are taken in column chunks of X_CHUNK, so the table and the
    products take O(W * X_CHUNK) memory for any number of x (besides the
    O(n_x) sums); the table is built once per sweep when all x fit in one
    chunk, else once per chunk and block.  Row sums meet in a pairwise
    sum, blocks in a compensated complex one.  Each sum stops at
    n <= DEFAULT_CUTOFF_MULT * x, whose dropped tail is at most
    (x + 1) e^{-C} <= 2^-53 x (see DEFAULT_CUTOFF_MULT).

    A sum's bits depend on the other x in its batch: the inner sums of
    the active x are one product, and a 1-row product (BLAS gemv) rounds
    differently from an n-row one (gemm).  So a one-point sum need not
    equal its sample in a trajectory bit for bit; for fig53 on the LOG
    grid 1e3-1e4 of 3 points they differ by up to 2.2 ulp of |A_exp|.
    """
    xs = np.asarray(xs)
    # a string or complex x is not cast, nor a point set of another shape
    if xs.ndim != 1 or xs.dtype.kind not in "iuf":
        raise DomainError("sample points must be one sequence of real numbers")
    xs = xs.astype(np.float64)
    if xs.size == 0:
        return np.empty(0, dtype=np.complex128)
    if not np.all((1 <= xs) & (xs < np.inf)) or np.any(np.diff(xs) < 0):
        raise DomainError("sample points must be finite, ascending and >= 1")
    if xs[-1] > DIRECT_X_CAP:
        raise CapacityError(f"x_max={xs[-1]} beyond cap {DIRECT_X_CAP}")
    cut = np.floor(DEFAULT_CUTOFF_MULT * xs).astype(np.int64)
    n_x = xs.size
    table = np.empty((min(X_CHUNK, n_x), W))  # e^{-b/x}
    built = -1  # the chunk whose weights `table` holds
    acc = np.zeros(n_x, dtype=np.complex128)
    comp = np.zeros(n_x, dtype=np.complex128)  # Kahan compensation

    def weights(c0: int, c1: int) -> np.ndarray:
        nonlocal built
        t = table[: c1 - c0]
        if built != c0:
            np.exp(np.divide(-np.arange(W, dtype=np.float64), xs[c0:c1, None]), out=t)
            built = c0
        return t

    def consume(lo, f):
        size = f.size
        full, short = divmod(size, W)
        row_lo = lo + W * np.arange(full + (short > 0), dtype=np.float64)
        i0 = int(np.searchsorted(cut, lo))  # first x with cut >= lo
        for c0 in range(i0 - i0 % X_CHUNK, n_x, X_CHUNK):
            c1 = min(c0 + X_CHUNK, n_x)
            j0 = max(c0, i0)
            e = weights(c0, c1)[j0 - c0 :]
            # one row per x, one column per row of the block
            inner = np.empty((c1 - j0, row_lo.size), dtype=f.dtype)
            np.matmul(e, f[: full * W].reshape(full, W).T, out=inner[:, :full])
            if short:
                np.matmul(e[:, :short], f[full * W :], out=inner[:, full])
            outer = np.exp(row_lo / -xs[j0:c1, None])
            # x whose cutoff lies in the block: a partial row, then nothing
            for j in range(j0, c1):
                m = int(cut[j]) - lo + 1
                if m >= size:
                    break
                a, b = divmod(m, W)
                inner[j - j0, a] = e[j - j0, :b] @ f[a * W : a * W + b]
                outer[j - j0, a + 1 :] = 0.0
            y = (outer * inner).sum(axis=1) - comp[j0:c1]  # pairwise along the rows
            t = acc[j0:c1] + y
            comp[j0:c1] = (t - acc[j0:c1]) - y
            acc[j0:c1] = t

    _sweep(spec, int(cut[-1]), consume)
    return acc
