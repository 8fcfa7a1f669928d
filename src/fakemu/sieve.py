"""Ground-truth oracle: f(n) by sieve and direct summatory sums.

f(n) = prod_p eps_{v_p(n)} over the distinct primes dividing n.  Point
queries use a smallest-prime-factor table; the large direct sums
A(x) = sum_{n<=x} f(n) and A_exp(x) = sum_n f(n) e^{-n/x} run a segmented
factorization pass (blocks of 2^22) so nothing of size ~45x is ever held
in memory at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eps_model import EpsilonSpec, eps_at
from .errors import CapacityError, DomainError, RangeError

DEFAULT_CUTOFF_MULT = 45.0
SPF_CAP = 10 ** 9
DIRECT_X_CAP = 10 ** 8
BLOCK = 1 << 22

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


def _eps_table(spec: EpsilonSpec) -> np.ndarray:
    return np.array([eps_at(spec, k) for k in range(_MAX_VP + 1)], dtype=np.complex128)


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


def _f_block(lo: int, hi: int, primes: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """f(n) for n in [lo, hi); primes must cover sqrt(hi-1)."""
    size = hi - lo
    val = np.ones(size, dtype=np.complex128)
    rem = np.arange(lo, hi, dtype=np.int64)
    for p in primes:
        p = int(p)
        if p * p >= hi:
            break
        start = ((lo + p - 1) // p) * p
        if start >= hi:
            continue
        idx = np.arange(start - lo, size, p)
        m = rem[idx] // p
        v = np.ones(idx.size, dtype=np.int64)
        cur = np.nonzero(m % p == 0)[0]
        while cur.size:
            m[cur] //= p
            v[cur] += 1
            cur = cur[m[cur] % p == 0]
        rem[idx] = m
        val[idx] *= eps[v]
    big = rem > 1  # one prime factor above sqrt left
    val[big] *= eps[1]
    if lo == 0:
        val[0] = 0.0  # n = 0 is not summed
    return val


class _Kahan:
    """Compensated complex accumulator (block partial sums feed it)."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0 + 0.0j
        self.c = 0.0 + 0.0j

    def add(self, v: complex) -> None:
        y = v - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t


def _sweep(spec: EpsilonSpec, n_max: int, consume) -> None:
    """Run the segmented factorization over n in [1, n_max], calling
    consume(n_array, f_array) per block."""
    if n_max < 1:
        return
    primes = primes_up_to(math.isqrt(n_max))
    eps = _eps_table(spec)
    lo = 1
    while lo <= n_max:
        hi = min(lo + BLOCK, n_max + 1)
        f = _f_block(lo, hi, primes, eps)
        consume(np.arange(lo, hi, dtype=np.float64), f)
        lo = hi


def direct_exp_sum(
    spec: EpsilonSpec, x: float, cutoff_mult: float = DEFAULT_CUTOFF_MULT
) -> complex:
    """A_exp(x) = sum_n f(n) e^{-n/x}, truncated at n <= cutoff_mult*x."""
    return complex(direct_exp_sums_multi(spec, [x], cutoff_mult)[0])


def direct_sharp_sum(spec: EpsilonSpec, x: float) -> complex:
    """A(x) = sum_{n <= x} f(n), exact over n <= floor(x)."""
    if x < 1:
        raise DomainError("direct_sharp_sum requires x >= 1")
    if x > DIRECT_X_CAP:
        raise CapacityError(f"x={x} beyond direct-summation cap {DIRECT_X_CAP}")
    acc = _Kahan()

    def consume(n, f):
        acc.add(complex(np.sum(f)))

    _sweep(spec, int(math.floor(x)), consume)
    return acc.s


def direct_exp_sums_multi(
    spec: EpsilonSpec,
    xs: np.ndarray,
    cutoff_mult: float = DEFAULT_CUTOFF_MULT,
) -> np.ndarray:
    """A_exp at several ascending x values from one segmented pass.

    Sample i only consumes blocks up to cutoff_mult*xs[i], so total work is
    sum_i cutoff_mult*xs[i] exponentials rather than n_samples full passes.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        return np.empty(0, dtype=np.complex128)
    if np.any(xs < 1) or np.any(np.diff(xs) < 0):
        raise DomainError("sample points must be ascending and >= 1")
    if cutoff_mult < 30:
        raise DomainError("cutoff_mult must be >= 30")
    if xs[-1] > DIRECT_X_CAP:
        raise CapacityError(f"x_max={xs[-1]} beyond cap {DIRECT_X_CAP}")
    cut = np.floor(cutoff_mult * xs).astype(np.int64)
    accs = [_Kahan() for _ in xs]

    def consume(n, f):
        lo = int(n[0])
        for i in range(xs.size):
            hi_i = int(cut[i]) - lo + 1  # count of entries of this block used
            if hi_i <= 0:
                continue
            hi_i = min(hi_i, n.size)
            accs[i].add(complex(np.sum(f[:hi_i] * np.exp(-n[:hi_i] / xs[i]))))

    _sweep(spec, int(cut[-1]), consume)
    return np.array([a.s for a in accs], dtype=np.complex128)
