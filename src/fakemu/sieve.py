"""Ground-truth oracle: f(n) by sieve and the direct smoothed sum.

f(n) = prod_p eps_{v_p(n)} over the distinct primes dividing n.  Point
queries use a smallest-prime-factor table (`f_of_n`, also the reference
the block sieve is tested against).  The large direct sum
A_exp(x) = sum_n f(n) e^{-n/x} runs `_sweep`, which walks [1, n_max] in
blocks of BLOCK = W^2 = 2^18 numbers, so nothing of size ~37.5x is ever
held in memory at once.  (A block's buffer is 4 MB complex or 2 MB real,
not less than a core's L2; smaller blocks were slower all the same,
because the per-block Python loop over the prime powers then dominates.)
A lattice spec sieves its codes over segments of two blocks, and takes f
block by block ("Segments and the scatter" below).  The top 2^19
numbers of a sweep cost about 4.5, 6.1 and 7.1 ns per n for Mobius and
5.1, 6.6 and 7.7 for periodic:m=2:[i,-i] (lattice codes) at n_max = 7.5e6,
3.75e8 and 3.75e9, and 15.9, 24.5 and 46.2 for finite:[exp(i*pi/5),1] (the
value path; medians of 15 runs of bench/bench.py, 2 Xeon vCPUs on a
shared host).  On the value path the strided passes of the larger
primes make up the growth with n_max.

A block is sieved with no integer division and no index gather, on one
of two paths that the spec alone picks (the lattice path scatters the
sparse powers of a segment by index).  A lattice spec, whose every
eps_k (k <= 60) is exactly 0, +-1 or +-i (Mobius, Liouville cm:xi=-1,
periodic:m=2:[i,-i]), sieves one uint16 code per n and reads f off it
("Lattice specs" below).  Every other spec sieves f itself into one
buffer, the value path: float64 where every eps_k has an imaginary part
of exactly 0, so that f is real, and complex128 otherwise.  A per-sweep
plan lists every prime power q = p^k <= n_max with p <= sqrt(n_max),
with r_k = e'_k / e'_{k-1}, where e'_k is eps_k with zeros replaced by 1
(e'_0 = 1), and dz_k = [eps_k = 0] - [eps_{k-1} = 0].  On the value path
each q updates its multiples in the block:

    val[s::q]   *= m_k     m_k = p r_k (or r_k, below)
    count[s::q] += 2 dz_k  count is twice the number of primes p of n
                           with eps_{v_p(n)} = 0

A block [lo, hi) takes the primes with p^2 < hi, so n is its smooth part
S (the product of the sieved prime powers) times at most one prime
p^2 >= hi, to the first power, which takes e'_1, or f = 0 when eps_1 = 0.

The small powers come from one stored period, on both paths.  The plan's
powers q that divide PERIOD = 27720 = 2^3 3^2 5 7 11 are sieved once per
sweep, in their (p, k) order and with the same updates, into one period
of val and of count, whose length is the lcm of those q (PERIOD at
most: 0.44 MB complex or 0.22 MB real, and 28 kB of int8 counts or
55 kB of codes).  A block starts as a copy of it from lo mod period,
about 10 slices per 2^18 block, in place of a fill and of up to eight
strided passes that each swept the whole buffer; the other powers follow
by strided passes in their (p, k) order.  So a product takes its factors
in another order than one pass per power would, a few ulp apart.  A plan
with no stored power (f = 1, or n_max < 4) has a period of 1 and fills.
Of the periods 2520, 27720, 60060 and 360360, 27720 gave the fastest top
block at n_max = 7.5e6, or tied, for Mobius and periodic:m=2:[i,-i] on
the value path (a complex 360360 is 5.8 MB).

An absorbing zero ends the powers of p, on both paths.  Where eps_j = 0
for every j >= a (Mobius: a = 2), the plan drops every p^k with k > a:
an n that p^k divides has v_p(n) > a and f(n) = 0, and the kept
p, ..., p^a have already added 2 [eps_a = 0] = 2 to count, which forces
f = 0 however the large prime is read.  The factors p of the dropped
m_k = p are missing from |val|, which then rounds to a smaller integer
S' != n, still exact and nonzero to divide by (it reads as a large
prime, whose factor the clip below overrides); likewise a code's log
byte is smaller and may borrow.  Those m_k are positive, so the sign and
phase of val, and so the sign of the zero f ends at, do not move.  At
n_max = 7.5e6 Mobius keeps 798 of the 901 powers, 8 among the dropped.

The value path's smooth part rides in the modulus.  With m_k = p r_k,
val ends at S prod_p e'_{v_p(n)}.  This rests on every nonzero eps
having |eps| close to 1: the spec stores an eps within UNIT_TOL = 1e-12
of 0 as an exact 0 (`eps_model`), and every other eps_k is within
UNIT_TOL of the unit circle, save cm:xi, whose |xi^k| = |xi|^k may drift
by about k UNIT_TOL.  So |prod_p e'_{v_p(n)}| is within Omega(n) UNIT_TOL
of 1, and an n <= DEFAULT_CUTOFF_MULT DIRECT_X_CAP = 3.75e9 < 2^32 has
Omega(n) <= 31.  The rounding of the ratios r_k and of the Omega(n)
products adds ~1e-14 relative.  |val| is then within 3.2e-11 relative of
the integer S, under 0.12 absolute, against the 0.5 that S = rint(|val|)
needs to be exact; S != n marks the large prime.  f is val / S times
F[count + [S != n]] with F = (1, e'_1 or 0, 0), the index clipped at 2.
A real buffer is divided by S in one pass, a complex one on the real and
the imaginary part apart, each correctly rounded, so where every eps is
in {0, +-1, +-i} (every product an exact integer) f is exact; numpy's
complex-by-real division is not (161/161 gave 0.9999999999999999).  A
real product rounds as the real part of the same complex product, so the
float64 buffer holds bit for bit what the complex one would.  Where
eps_1 = 1 the large prime leaves f alone: m_k = r_k, and the plan keeps
only the powers with r_k != 1 or dz_k != 0, so f = 1 (cm:xi=1) takes no
update at all; that plan takes the value path, whatever its eps.  f is a
product of ratios, so elsewhere it differs from `f_of_n` by a few ulp.

Lattice specs.  Where every e'_k = i^{t_k} (t_k in 0..3), f(n) is i^T or
0, so small integers fix it.  Each power q = p^k adds one code

    c_k = l_k + 2^8 (2 dz_k) + 2^14 (t_k - t_{k-1})  (mod 2^16)
    l_k = round(C k log2 p) - round(C (k-1) log2 p)  (0 where eps_1 = 1)

to count, a uint16 buffer in place of the value path's val/work pair.
Summed over the powers that divide n, the code holds three fields: in
bits 0-7 the log byte L = sum_p round(C v_p log2 p) of the smooth part
S, in bits 8-13 twice the zero count, and in bits 14-15 the phase
T = sum_p t_{v_p} mod 4, which wraps there.  A power is one strided
integer add or a part of a segment's scatter, and f is one np.take of
the code's high byte from a 256-entry table (i^T where the count is 0,
else 0) into f's buffer.
A zero f is +0.0 there, where the value path may give -0.0; every other
f has the same value on both paths, and the sums the same bits.

The large prime is a borrow.  Each sieved p^v rounds C v log2 p by at
most 1/2, so L is within omega(S)/2 of C log2 S, and omega(n) <= 9 for
n < 2 3 5 7 11 13 17 19 23 29 = 6469693230, beyond which a lattice plan
raises CapacityError.  C = (255 - 9/2) / log2 n_max keeps L <= 255, so
the byte never carries into the count, and C >= 7.69 below that cap.
Codes are sieved over a window [lo, hi), a block or a segment, with the
primes p^2 < hi.  An n with no large prime has L >= C log2 n - 9/2.  One
with a large prime P (P^2 >= hi > n) has S = n/P <= n/sqrt(hi) < sqrt(n),
so L <= C log2 S + 9/2; a segment's hi is larger than its blocks', which
only lowers that bound.  The threshold t = floor(C log2 a - 9/2), a <= n,
lies between the two wherever C log2(a sqrt(hi) / n) > 10 (one unit for
the floor), and subtracting it from the code borrows from the high byte
exactly at the large primes: a count of 0 turns to 63 with the phase one
quarter turn back, which the table reads as i^T e'_1 (0 where eps_1 = 0),
and a count 2c > 0 to the odd 2c - 1, which it reads as 0.  Each n below
_HEAD = 4W takes its own threshold (a = n), which separates wherever
C log2 sqrt(hi) > 10: in every window of at least 7 numbers, and in the
first window of any sweep.  Every larger n takes the threshold of its
row of W numbers (a = the row's first n), where
C log2(a / sqrt(a + W)) >= 7.69 log2(2048 / sqrt(2560)) = 41 > 10.

Segments and the scatter.  A sweep of a lattice spec sieves the codes of
a segment of 2 BLOCK = 2^19 numbers (a 1 MB uint16 buffer) at a time,
then takes f block by block from the segment's high bytes, so consume
still sees one block per call and n and f stay one block in size.  Of
the powers not in the stored period, those with q <= _SPARSE = 4096 take
one strided add each, about 1.1 us of Python and numpy overhead apiece
whatever their few hits; the sparse ones, q > 4096, hit a segment at
most 128 times and leave the loop.  Per segment, those with p^2 < hi
find their first multiple at -lo mod q and their hit counts in array
operations, lay their multiples end to end by one cumulative sum of
steps (np.repeat of q, with the step to each power's first multiple),
and add their codes by one np.add.at, about 5-10 ns per hit.  uint16
adds wrap mod 2^16 and commute, so the codes, f and every sum keep their
bits.  The value path keeps its per-block loop: its float products do
not commute bit for bit.  In interleaved runs on the top segments of Mobius
and periodic:m=2:[i,-i] at n_max = 7.5e6, 3.75e8 and 3.75e9, thresholds
of 2048 and 4096 were fastest or tied and 512 was slowest (best of 9);
segments of four blocks read 4-9% less per n than two, for 1 MB more of
codes, and segments of one block 16-23% more (best of 7).

The consume contract: `_sweep(spec, n_max, consume)` calls consume(n, f)
once per block, in ascending order of n, with n (float64, read-only) and
f (float64 where every eps_k is real, else complex128) as views into
buffers that the next block overwrites.
They are valid only during the call; a consumer that keeps values copies
them.

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
#: a lattice spec's values: eps = i^turns for eps in {+-1, +-i}
_TURNS = {1: 0, 1j: 1, -1: 2, -1j: 3}
_UNITS = (1, 1j, -1, -1j)
#: omega(n) <= _OMEGA for every n < _LATTICE_CAP = 2 3 5 ... 29, the tenth primorial
_OMEGA = 9
_LATTICE_CAP = 6469693230
#: n below it take their own large-prime threshold, larger n one per row of W
_HEAD = 4 * W
#: a lattice plan scatters every power q > _SPARSE, which hits a segment
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
    reuses: n and f of one block (size min(BLOCK, n_max)), and the codes
    of one segment (min(2 BLOCK, n_max)) or the zero counts of one block."""

    def __init__(self, spec: EpsilonSpec, n_max: int):
        eps = [eps_at(spec, k) for k in range(_MAX_VP + 1)]
        #: f is real where every eps_k is; exp(i pi) = -1 + 1.2e-16i is not
        self.real = all(e.imag == 0 for e in eps)
        if self.real:
            eps = [e.real for e in eps]
        dtype = np.float64 if self.real else np.complex128
        zero = [e == 0 for e in eps]
        unit = [1.0 if z else e for e, z in zip(eps, zero)]  # e'_k
        #: the large prime changes f: its smooth part rides in |val|, or in
        #: a lattice code's log byte
        self.modulus = zero[1] or unit[1] != 1
        #: eps_j = 0 for every j >= absorb (an absorbing zero), so no p^k
        #: with k > absorb is sieved; absorb = _MAX_VP + 1 where there is none
        absorb = _MAX_VP + 1
        while absorb > 1 and zero[absorb - 1]:
            absorb -= 1
        #: quarter turns of each e'_k, None where e'_k is not in {+-1, +-i}
        turns = [_TURNS.get(u) for u in unit]
        lattice = None not in turns
        if lattice and n_max >= _LATTICE_CAP:
            raise CapacityError(f"n_max={n_max} beyond the lattice codes' cap {_LATTICE_CAP}")
        #: the scale C of a lattice code's log byte (module docstring)
        self.scale = 0.0
        if lattice and self.modulus:
            self.scale = (255 - _OMEGA / 2) / math.log2(max(n_max, 2))
        #: (q = p^k, p, m_k, 2 dz_k) ordered by p, then k; for a lattice spec
        #: m_k = 1 and 2 dz_k is replaced by the power's code
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
        zeros = np.array(zero, dtype=np.int64)
        dz = 2 * (zeros[k] - zeros[k - 1])
        if lattice:
            # C log2 p from math.log2, whose last bit np.log2 need not share
            logs = self.scale * np.fromiter(map(math.log2, primes.tolist()), np.float64)
            logp = np.repeat(logs, kmax)
            t = np.array(turns)
            dz = (np.rint(k * logp).astype(np.int64) - np.rint((k - 1) * logp).astype(np.int64)
                  + (dz << 8) + ((t[k] - t[k - 1]) << 14)) % 2 ** 16
            m = np.ones_like(p)
        else:
            ratio = np.array([1, *(unit[j] / unit[j - 1] for j in range(1, _MAX_VP + 1))],
                             dtype=dtype)  # r_k
            m = ratio[k] * p if self.modulus else ratio[k]
        keep = (m != 1) | (dz != 0)
        q, p, m, dz = q[keep], p[keep], m[keep], dz[keep]
        self.powers: list[tuple[int, int, float | complex, int]] = list(
            zip(q.tolist(), p.tolist(), m.tolist(), dz.tolist())
        )
        #: lattice specs whose f is not 1 throughout sieve codes (cm:xi=1,
        #: with no power and no large-prime factor, fills f with 1)
        self.codes = lattice and bool(self.powers or self.modulus)
        #: count is read: a zero count changes, or f comes from the codes
        self.zeros = self.codes or bool(np.any(dz))
        #: the powers that divide PERIOD are sieved once into one period of
        #: val and count, which every block copies; of the rest, a lattice
        #: plan scatters those with q > _SPARSE, and strides over the others
        stored = PERIOD % q == 0
        sparse = (q > _SPARSE) & self.codes
        self.strided = [t for t, skip in zip(self.powers, (stored | sparse).tolist()) if not skip]
        #: the scattered powers: q, p^2 (ascending) and code
        self.sparse = q[sparse], (p * p)[sparse], dz[sparse].astype(np.uint16)
        stored = [t for t, s in zip(self.powers, stored.tolist()) if s]
        period = math.lcm(*(q for q, *_ in stored))
        self.val_period = np.ones(1 if self.codes else period, dtype=dtype)
        self.count_period = np.zeros(period, dtype=np.uint16 if self.codes else np.int8)
        for q, _, m, dz in stored:
            if m != 1:
                self.val_period[::q] *= m
            if dz:
                self.count_period[::q] += dz
        self.size = min(BLOCK, n_max)
        self.n = np.arange(self.size, dtype=np.float64)
        self.n_lo = 0  # n holds n_lo, n_lo + 1, ...
        self.val = np.empty(self.size, dtype=dtype)  # f
        #: 2 x the zero count of a block, or the lattice codes of a segment
        #: of two blocks
        segment = min(2 * BLOCK, n_max) if self.codes else self.size
        self.count = np.empty(segment, dtype=self.count_period.dtype)
        if self.codes:
            #: f by a code's high byte, 64 T + 2 (zero count), whose count
            #: reads 63 after the large prime's borrow
            table = np.zeros(256, dtype=np.complex128)
            for high in range(256):
                phase, z = divmod(high, 64)
                if z == 0:
                    table[high] = _UNITS[phase]
                elif z == 63 and not zero[1]:
                    table[high] = _UNITS[(phase + 1 + turns[1]) % 4]
            self.table = table.real.copy() if self.real else table
            #: the large-prime thresholds of n = 1, ..., _HEAD - 1
            self.thresholds = _threshold(self.scale, np.arange(1, _HEAD))
        else:
            #: f's last factor, indexed by count + [large prime] and clipped at 2
            self.factor = np.array([1, 0 if zero[1] else unit[1], 0], dtype=dtype)
            self.work = np.empty(self.size, dtype=dtype)  # |val|, then factor
            self.mask = np.empty(self.size, dtype=bool)


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


def _n_view(lo: int, hi: int, plan: _Plan) -> np.ndarray:
    """n in [lo, hi), a read-only view into the plan's n buffer."""
    if plan.n_lo != lo:
        plan.n += lo - plan.n_lo
        plan.n_lo = lo
    n = plan.n[: hi - lo]
    n.flags.writeable = False
    return n


def _f_block(lo: int, hi: int, plan: _Plan) -> tuple[np.ndarray, np.ndarray]:
    """(n, f(n)) for n in [lo, hi), 1 <= lo < hi <= lo + plan.size, as
    views into the plan's buffers (n read-only)."""
    size = hi - lo
    n = _n_view(lo, hi, plan)
    if plan.codes:
        code = plan.count[:size]
        _codes(lo, hi, plan, code)
        return n, _take(code, plan)
    val, count = plan.val[:size], plan.count[:size]
    _tile(val, plan.val_period, lo)
    if plan.zeros:
        _tile(count, plan.count_period, lo)
    for q, p, m, dz in plan.strided:
        if p * p >= hi:
            break
        s = -lo % q  # first multiple of q in the block
        if s >= size:
            continue
        if m != 1:
            val[s::q] *= m
        if dz:
            count[s::q] += dz
    if plan.modulus:
        smooth = plan.work.view(np.float64)[:size]
        np.abs(val, out=smooth)
        np.rint(smooth, out=smooth)  # the exact smooth part
        mask = plan.mask[:size]
        np.not_equal(smooth, n, out=mask)  # one prime factor p with p^2 >= hi
        # Two forms, not one: a broadcast division of val's float64 view by
        # smooth[:, None] has the same bits, but on a 2^18 block (copy
        # included, best of 7 x 50, one Xeon vCPU) it took 1.76 ms against
        # 1.28 ms for a complex val and 0.42 ms against 0.43 ms for a real one
        if plan.real:
            np.divide(val, smooth, out=val)
        else:  # real division keeps +-1 and +-i exact, unlike complex by real
            np.divide(val.real, smooth, out=val.real)
            np.divide(val.imag, smooth, out=val.imag)
        index = np.add(count, mask, out=count) if plan.zeros else mask.view(np.int8)
    elif plan.zeros:
        index = count
    else:
        return n, val
    factor = plan.work[:size]  # smooth is spent
    np.take(plan.factor, index, out=factor, mode="clip")
    val *= factor
    return n, val


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
    """The lattice codes of n in [lo, hi) into code, less the large-prime
    threshold: the stored period, a strided add of each dense power and
    one scatter of the sparse ones, all with p^2 < hi."""
    size = hi - lo
    _tile(code, plan.count_period, lo)
    for q, p, _, c in plan.strided:
        if p * p >= hi:
            break
        s = -lo % q  # first multiple of q in the window
        if s < size:
            code[s::q] += c
    _scatter(lo, hi, plan, code)
    if plan.modulus:
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


def _take(code: np.ndarray, plan: _Plan) -> np.ndarray:
    """f of the codes: one np.take of their high bytes from the plan's
    table, into the plan's f buffer."""
    val = plan.val[: code.size]
    # the high bytes, a strided uint8 view; on a complex 2^18 block
    # (best of 7 x 20, one Xeon vCPU) the take cost 0.32 ms with
    # mode="clip" and 0.92 ms with the default bounds check
    np.take(plan.table, code.view(np.uint8)[_HIGH::2], out=val, mode="clip")
    return val


def _blocks(lo: int, hi: int, plan: _Plan):
    """(n, f) of each block of plan.size numbers in [lo, hi), in ascending
    order, as views into the plan's buffers, which the next block
    overwrites.  A lattice plan sieves a segment of up to two blocks of
    codes at a time, then takes f block by block."""
    step = plan.count.size  # a segment, or one block on the value path
    for seg in range(lo, hi, step):
        top = min(seg + step, hi)
        if not plan.codes:
            yield _f_block(seg, top, plan)
            continue
        _codes(seg, top, plan, plan.count[: top - seg])
        for a in range(seg, top, plan.size):
            b = min(a + plan.size, top)
            yield _n_view(a, b, plan), _take(plan.count[a - seg : b - seg], plan)


def _sweep(spec: EpsilonSpec, n_max: int, consume) -> None:
    """Sieve n in [1, n_max] block by block, calling consume(n, f) per
    block (the consume contract of the module docstring)."""
    if n_max < 1:
        return
    plan = _Plan(spec, n_max)
    for n, f in _blocks(1, n_max + 1, plan):
        consume(n, f)


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

    def consume(n, f):
        lo, size = int(n[0]), n.size
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
