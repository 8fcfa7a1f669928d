"""Ground-truth oracle: f(n) by sieve and the direct smoothed sum.

f(n) = prod_p eps_{v_p(n)} over the distinct primes dividing n.  Point
queries use a smallest-prime-factor table (`f_of_n`, also the reference
the block sieve is tested against).  The large direct sum
A_exp(x) = sum_n f(n) e^{-n/x} runs `_sweep`, which walks [1, n_max] in
blocks of BLOCK = W^2 = 2^18 numbers, so nothing of size ~37.5x is ever
held in memory at once.  (A block's buffer is 4 MB complex or 2 MB real,
not less than a core's L2; smaller blocks were slower all the same,
because the per-block Python loop over the prime powers then dominates.)

A block is sieved into one buffer by strided slice updates, with no
integer division and no index gather.  The buffer is float64 where every
eps_k (k <= 60) has an imaginary part of exactly 0, so that f is real,
and complex128 otherwise; the plan picks it once per sweep, and both
take the same steps.  A per-sweep plan lists every prime power
q = p^k <= n_max with p <= sqrt(n_max), with
r_k = e'_k / e'_{k-1}, where e'_k is eps_k with zeros replaced by 1
(e'_0 = 1), and dz_k = [eps_k = 0] - [eps_{k-1} = 0].  Each q updates its
multiples in the block:

    val[s::q] *= m_k     m_k = p r_k (or r_k, below)
    zc[s::q]  += 2 dz_k  zc is twice the number of primes p of n with
                         eps_{v_p(n)} = 0

A block [lo, hi) takes the primes with p^2 < hi, so n is its smooth part
S (the product of the sieved prime powers) times at most one prime
p^2 >= hi, to the first power, which takes e'_1, or f = 0 when eps_1 = 0.

The smooth part rides in the modulus.  With m_k = p r_k, val ends at
S prod_p e'_{v_p(n)}.  This rests on every nonzero eps having |eps| close
to 1: the spec stores an eps within UNIT_TOL = 1e-12 of 0 as an exact 0
(`eps_model`), and every other eps_k is within UNIT_TOL of the unit
circle, save cm:xi, whose |xi^k| = |xi|^k may drift by about k UNIT_TOL.
So |prod_p e'_{v_p(n)}| is within Omega(n) UNIT_TOL of 1, and an
n <= DEFAULT_CUTOFF_MULT DIRECT_X_CAP = 3.75e9 < 2^32 has Omega(n) <= 31.
The rounding of the ratios r_k and of the Omega(n) products adds ~1e-14
relative.  |val| is then within 3.2e-11 relative of the integer S, under
0.12 absolute, against the 0.5 that S = rint(|val|) needs to be exact;
S != n marks the large prime.  f is val / S times F[zc + [S != n]] with
F = (1, e'_1 or 0, 0), the index clipped at 2.  A real buffer is divided
by S in one pass, a complex one on the real and the imaginary part
apart, each correctly rounded, so where every eps is in {0, +-1, +-i}
(every product an exact integer) f is exact; numpy's complex-by-real
division is not (161/161 gave 0.9999999999999999).  A real product
rounds as the real part of the same complex product, so the float64
buffer holds bit for bit what the complex one would.
Where eps_1 = 1 the large prime leaves f alone: m_k = r_k, and the plan
keeps only the powers with r_k != 1 or dz_k != 0, so f = 1 (cm:xi=1)
takes no strided update at all.  f is a product of ratios, so elsewhere
it differs from `f_of_n` by a few ulp.

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
from dataclasses import dataclass

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


def build_spf(limit: int, cap: int = SPF_CAP) -> SpfTable:
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
    """The prime powers of one sweep over [1, n_max] and the block buffers
    it reuses (size min(BLOCK, n_max))."""

    def __init__(self, spec: EpsilonSpec, n_max: int):
        eps = [eps_at(spec, k) for k in range(_MAX_VP + 1)]
        #: f is real where every eps_k is; exp(i pi) = -1 + 1.2e-16i is not
        self.real = all(e.imag == 0 for e in eps)
        if self.real:
            eps = [e.real for e in eps]
        dtype = np.float64 if self.real else np.complex128
        zero = [e == 0 for e in eps]
        unit = [1.0 if z else e for e, z in zip(eps, zero)]  # e'_k
        #: the smooth part rides in |val| where the large prime changes f
        self.modulus = zero[1] or unit[1] != 1
        #: f's last factor, indexed by zc + [large prime] and clipped at 2
        self.factor = np.array([1, 0 if zero[1] else unit[1], 0], dtype=dtype)
        #: (q = p^k, p, m_k, 2 dz_k) ordered by p, then k
        self.powers: list[tuple[int, int, float | complex, int]] = []
        for p in primes_up_to(math.isqrt(n_max)).tolist():
            q, k = p, 1
            while q <= n_max:
                m = unit[k] / unit[k - 1]
                if self.modulus:
                    m *= p
                dz = 2 * (zero[k] - zero[k - 1])
                if m != 1 or dz:
                    self.powers.append((q, p, m, dz))
                q *= p
                k += 1
        self.zeros = any(dz for *_, dz in self.powers)
        self.size = min(BLOCK, n_max)
        self.n = np.arange(self.size, dtype=np.float64)
        self.n_lo = 0  # n holds n_lo, n_lo + 1, ...
        self.val = np.empty(self.size, dtype=dtype)
        self.work = np.empty(self.size, dtype=dtype)  # |val|, then factor
        self.zc = np.empty(self.size, dtype=np.int8)
        self.mask = np.empty(self.size, dtype=bool)


def _f_block(lo: int, hi: int, plan: _Plan) -> tuple[np.ndarray, np.ndarray]:
    """(n, f(n)) for n in [lo, hi), 1 <= lo < hi <= lo + plan.size, as
    views into the plan's buffers (n read-only)."""
    size = hi - lo
    if plan.n_lo != lo:
        plan.n += lo - plan.n_lo
        plan.n_lo = lo
    n, val, zc, mask = (b[:size] for b in (plan.n, plan.val, plan.zc, plan.mask))
    n.flags.writeable = False
    val.fill(1.0)
    if plan.zeros:
        zc.fill(0)
    for q, p, m, dz in plan.powers:
        if p * p >= hi:
            break
        s = -lo % q  # first multiple of q in the block
        if s >= size:
            continue
        if m != 1:
            val[s::q] *= m
        if dz:
            zc[s::q] += dz
    if plan.modulus:
        smooth = plan.work.view(np.float64)[:size]
        np.abs(val, out=smooth)
        np.rint(smooth, out=smooth)  # the exact smooth part
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
        index = np.add(zc, mask, out=zc) if plan.zeros else mask.view(np.int8)
    elif plan.zeros:
        index = zc
    else:
        return n, val
    factor = plan.work[:size]  # smooth is spent
    np.take(plan.factor, index, out=factor, mode="clip")
    val *= factor
    return n, val


def _sweep(spec: EpsilonSpec, n_max: int, consume) -> None:
    """Sieve n in [1, n_max] block by block, calling consume(n, f) per
    block (the consume contract of the module docstring)."""
    if n_max < 1:
        return
    plan = _Plan(spec, n_max)
    lo = 1
    while lo <= n_max:
        hi = min(lo + plan.size, n_max + 1)
        consume(*_f_block(lo, hi, plan))
        lo = hi


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
    """
    xs = np.asarray(xs, dtype=np.float64)
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
