"""Sieve oracle tests: f(n), direct sums, hand-checked values."""

import functools
import math
import random
import tracemalloc

import numpy as np
import pytest

from fakemu import sieve
from fakemu.eps_model import eps_at, parse_eps_spec
from fakemu.errors import CapacityError, DomainError, RangeError
from fakemu.sieve import (
    BLOCK,
    DIRECT_X_CAP,
    W,
    _f_block,
    _Plan,
    build_spf,
    direct_exp_sum,
    direct_exp_sums_multi,
    f_of_n,
    primes_up_to,
)

MOBIUS = parse_eps_spec("finite:[-1]")
LIOUVILLE = parse_eps_spec("cm:xi=-1")
ONES = parse_eps_spec("cm:xi=1")
PER_I = parse_eps_spec("periodic:m=2:[i,-i]")

# mu(1..45), classical table (hand oracle for the x=1 smoothed sum)
MU_45 = [
    1, -1, -1, 0, -1, 1, -1, 0, 0, 1,
    -1, 0, -1, 1, 1, 0, -1, 0, -1, 0,
    1, 1, -1, 0, 0, 1, 0, 0, -1, -1,
    -1, 0, 0, 1, 1, 0, -1, 0, 1, 0,
    -1, 1, -1, 0, 0,
]


@pytest.fixture(scope="module")
def spf_1e5():
    return build_spf(100_000)


def test_spf_small_table():
    t = build_spf(10)
    assert t.spf[1:11].tolist() == [1, 2, 3, 2, 5, 2, 7, 2, 3, 2]


def test_spf_invariants(spf_1e5):
    spf = spf_1e5.spf
    assert spf[49] == 7
    rng = random.Random(5)
    primes = set(primes_up_to(400).tolist())
    for _ in range(300):
        n = rng.randint(2, 100_000)
        p = int(spf[n])
        assert n % p == 0
        assert all(n % q != 0 for q in primes if q < p)


def test_spf_capacity(spf_1e5):
    with pytest.raises(CapacityError):
        build_spf(10 ** 9 + 1)
    # a float limit or n used to raise TypeError or IndexError
    for limit in (2.5, 100.0, True):
        with pytest.raises(DomainError, match="integer"):
            build_spf(limit)
    for n in (2.5, 6.0, True):
        with pytest.raises(DomainError, match="integer"):
            f_of_n(spf_1e5, MOBIUS, n)
    assert f_of_n(spf_1e5, MOBIUS, np.int64(6)) == 1


def test_f_values(spf_1e5):
    assert f_of_n(spf_1e5, MOBIUS, 4) == 0
    assert f_of_n(spf_1e5, LIOUVILLE, 12) == pytest.approx(-1)
    assert f_of_n(spf_1e5, PER_I, 12) == pytest.approx(1)  # eps_2 * eps_1 = (-i)(i)
    assert f_of_n(spf_1e5, ONES, 99_991) == pytest.approx(1)
    with pytest.raises(RangeError):
        f_of_n(spf_1e5, MOBIUS, 100_001)


def test_f_multiplicative(spf_1e5):
    rng = random.Random(41)
    done = 0
    while done < 500:
        m = rng.randint(2, 900)
        n = rng.randint(2, 100_000 // m)
        if math.gcd(m, n) != 1:
            continue
        fm = f_of_n(spf_1e5, PER_I, m)
        fn = f_of_n(spf_1e5, PER_I, n)
        assert abs(f_of_n(spf_1e5, PER_I, m * n) - fm * fn) <= 1e-14
        done += 1


def test_f_unimodular_or_zero(spf_1e5):
    spec = parse_eps_spec("cm:xi=exp(i*pi/7)")
    for n in range(1, 2001):
        m = abs(f_of_n(spf_1e5, spec, n))
        assert m == 0 or abs(m - 1) <= 1e-12


def test_exp_sum_geometric_closed_form():
    for x in (10.0, 100.0, 1000.0):
        want = 1.0 / math.expm1(1.0 / x)
        assert abs(direct_exp_sum(ONES, x) - want) <= 1e-9 * want


def test_exp_sum_cutoff_is_set_by_its_tail_bound():
    # |sum_{n > C x} f(n) e^{-n/x}| <= (x + 1) e^{-C} for |f| <= 1; C keeps
    # that below 2^-53 x, the rounding unit of a sum of |terms| <= x, and
    # half a unit less would not (x = 1, where (x + 1) / x is largest)
    c = sieve.DEFAULT_CUTOFF_MULT
    for x in [1.0, *np.geomspace(1.0, DIRECT_X_CAP, 41)]:
        assert (x + 1) * math.exp(-c) <= 2.0 ** -53 * x, x
    assert 2 * math.exp(-(c - 0.5)) > 2.0 ** -53
    for x in (1.0, 10.0, 1e3, 1e5):
        want = 1.0 / math.expm1(1.0 / x)
        bound = (x + 1) * math.exp(-c) + W * 2.0 ** -53 * x
        assert abs(direct_exp_sum(ONES, x) - want) <= bound, x


def test_exp_sum_mobius_hand_oracle():
    # hand summation of mu(1..45) at x=1; the sieve sum stops at n = 37
    # (DEFAULT_CUTOFF_MULT = 37.5), and the terms 38..45 add < 5e-17
    want = sum(mu * math.exp(-n) for n, mu in enumerate(MU_45, start=1))
    assert direct_exp_sum(MOBIUS, 1.0) == pytest.approx(want, abs=1e-12)


def test_exp_sum_preconditions():
    with pytest.raises(DomainError):
        direct_exp_sum(MOBIUS, 0.5)
    with pytest.raises(CapacityError):
        direct_exp_sum(MOBIUS, 2e8)
    # nan used to sum to 0j after a cast warning, inf to be refused as
    # beyond the cap
    for x in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            direct_exp_sum(MOBIUS, x)
        with pytest.raises(DomainError, match="finite"):
            direct_exp_sums_multi(MOBIUS, [10.0, x])
    # a 0-d or 2-d point set used to raise a bare ValueError, a complex x
    # TypeError, and a string was parsed as a number
    for xs in (5.0, [[10.0, 20.0]], [10.0 + 1j], ["1e3"], [True]):
        with pytest.raises(DomainError, match="real numbers"):
            direct_exp_sums_multi(MOBIUS, xs)
    for x in (10.0 + 1j, "1e3"):
        with pytest.raises(DomainError, match="real numbers"):
            direct_exp_sum(MOBIUS, x)
    assert direct_exp_sums_multi(MOBIUS, (10, 20.0)).shape == (2,)


def test_dirichlet_series_consistency():
    # sum f(n) n^-s matches the Euler product at s = 2.5
    from fakemu.eps_model import _g_eval_array
    from fakemu.sieve import _sweep

    spec = parse_eps_spec("finite:[exp(i*pi/5),1]")
    s = 2.5
    blocks = []  # one sum per sieve block, 4 at 10^6
    _sweep(spec, 10 ** 6, lambda lo, f: blocks.append(
        complex(np.sum(f * np.arange(lo, lo + f.size, dtype=np.float64) ** -s))))
    u = np.exp(-s * np.log(primes_up_to(1000).astype(float)))
    prod = complex(np.exp(np.sum(np.log(_g_eval_array(spec, u)))))
    series_tail = (10.0 ** 6) ** (1 - s) / (s - 1)
    prod_tail = 3e-6
    assert abs(sum(blocks) - prod) <= 10 * (series_tail + prod_tail)


def test_multi_sums_match_single():
    # independent path: f(n) from the SPF table, summed term by term
    xs = np.array([10.0, 40.0, 160.0])
    multi = direct_exp_sums_multi(PER_I, xs)
    table = build_spf(int(45 * xs[-1]))
    for x, got in zip(xs, multi):
        single = sum(
            f_of_n(table, PER_I, n) * math.exp(-n / x)
            for n in range(1, int(45 * x) + 1)
        )
        assert abs(got - single) <= 1e-10 * (1 + abs(single))


# ------------------------------------------------------------ block sieve

BLOCK_SPECS = [
    "finite:[-1]",
    "cm:xi=-1",
    "cm:xi=1",
    "finite:[exp(i*pi/5),1]",
    "periodic:m=2:[i,-i]",
    # eps_k != 0 after eps_{k-1} = 0: the zero counter goes up and down
    "finite:[0]",
    "finite:[1,0,1]",
    "periodic:m=3:[0,i,1]",
    "quadphase:alpha=0.381966",
    # eps_1 = 1, so no large-prime factor: a product and the zero count of
    # p^3, or a product and no codes at all
    "finite:[1,exp(i*0.7)]",
    "periodic:m=2:[1,exp(i*0.7)]",
]
#: every eps in {0, +-1, +-i}: f comes from the codes alone, save for
#: cm:xi=1, whose f = 1 is a fill
LATTICE_SPECS = [
    "finite:[-1]",
    "cm:xi=-1",
    "cm:xi=1",
    "periodic:m=2:[i,-i]",
    "finite:[0]",
    "finite:[1,0,1]",
    "periodic:m=3:[0,i,1]",
]
SPF_TOP = 10 ** 7 + 3000


@pytest.fixture(scope="module")
def spf_1e7():
    return build_spf(SPF_TOP)


def _test_blocks(rng: random.Random) -> list[tuple[int, int]]:
    """(lo, hi) of blocks below 1e7: three random ones shorter than the
    stored period, one at a period's start, and from 3 before a period's
    start one block of 2 (inside the first, partial period) and one over
    two whole periods and a partial one."""
    blocks = [(lo, lo + 3000) for lo in (1, rng.randint(2, 10 ** 7), rng.randint(2, 10 ** 7))]
    start = sieve.PERIOD * rng.randint(1, 10 ** 7 // sieve.PERIOD - 3)
    return blocks + [(start, start + 3000), (start - 3, start - 1),
                     (start - 3, start + 2 * sieve.PERIOD + 500)]


@pytest.mark.parametrize("text", BLOCK_SPECS)
def test_f_block_matches_f_of_n(spf_1e7, text):
    spec = parse_eps_spec(text)
    plan = _Plan(spec, SPF_TOP)
    for lo, hi in _test_blocks(random.Random(text)):
        f = _f_block(lo, hi, plan)
        want = np.array([f_of_n(spf_1e7, spec, k) for k in range(lo, hi)])
        assert np.max(np.abs(f - want)) <= 1e-14, (lo, hi)


def _factor(n: int, primes: list[int]) -> list[int]:
    """Exponents of the prime factorization of n, by trial division."""
    vs = []
    for p in primes:
        if p * p > n:
            break
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        if v:
            vs.append(v)
    return vs + [1] if n > 1 else vs


@pytest.mark.parametrize("lo", [2 ** 32 - 300, 45 * DIRECT_X_CAP - 600])
def test_f_block_near_the_cap(lo):
    # n up to 4.5e9, and 2^32 = q itself
    n_max = int(45 * DIRECT_X_CAP)
    primes = primes_up_to(math.isqrt(n_max)).tolist()
    exps = [_factor(k, primes) for k in range(lo, lo + 600)]
    for text in ("finite:[1,0,1]", "cm:xi=exp(i*pi/5)", "periodic:m=3:[0,i,1]"):
        spec = parse_eps_spec(text)
        f = _f_block(lo, lo + 600, _Plan(spec, n_max))
        want = np.array([math.prod(eps_at(spec, v) for v in vs) for vs in exps])
        assert np.max(np.abs(f - want)) <= 1e-14


def _swept(spec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, f) of one `_sweep` over [1, n_max], copied out of its blocks."""
    blocks = []
    sieve._sweep(spec, n_max, lambda lo, f: blocks.append((np.arange(lo, lo + f.size), f.copy())))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def test_sweep_matches_f_of_n_at_block_edges(monkeypatch):
    # sweeps of one short block, whose plan holds no prime (n_max < 4), only
    # 2, or only some of the primes of the stored period (2, 3, 5 at 30;
    # all but 11 at 120); then blocks of 1000 in segments of 2000, each
    # segment taking the primes with p^2 < its top afresh, codes and product
    # alike, and a last segment of one partial block or of a whole block
    # and a partial one.  Codes take a large-prime threshold per n below
    # 2048, then one per row of 512
    table = build_spf(13_500)
    cases = [(n_max, sieve.BLOCK) for n_max in (1, 2, 3, 4, 8, 30, 120)]
    for n_max, block in cases + [(12_345, 1000), (13_500, 1000)]:
        monkeypatch.setattr(sieve, "BLOCK", block)
        for text in BLOCK_SPECS:
            spec = parse_eps_spec(text)
            n, f = _swept(spec, n_max)
            assert n.tolist() == list(range(1, n_max + 1)), (text, n_max)
            want = np.array([f_of_n(table, spec, k) for k in range(1, n_max + 1)])
            assert np.max(np.abs(f - want)) <= 1e-14, (text, n_max)
    plans = {text: _Plan(parse_eps_spec(text), 12_345) for text in BLOCK_SPECS}
    coded = {text for text, plan in plans.items() if plan.codes}
    assert coded == set(BLOCK_SPECS) - {"cm:xi=1", "periodic:m=2:[1,exp(i*0.7)]"}
    products = {text for text, plan in plans.items() if plan.product}
    assert products == set(BLOCK_SPECS) - set(LATTICE_SPECS) | {"cm:xi=1"}


@pytest.mark.parametrize("text", ["finite:[1e-13]", "cm:xi=1e-13", "periodic:m=2:[-1,1e-13]"])
def test_sweep_matches_f_of_n_for_tiny_eps(spf_1e5, text):
    # an eps within UNIT_TOL of 0 is stored as an exact 0, which the codes
    # count as a zero, and not as a factor 2e-13 of f
    spec = parse_eps_spec(text)
    assert 0j in (eps_at(spec, 1), eps_at(spec, 2))
    n, f = _swept(spec, 3000)
    want = np.array([f_of_n(spf_1e5, spec, k) for k in range(1, 3001)])
    assert np.array_equal(f, want)
    smoothed = np.sum(want[:2250] * np.exp(-np.arange(1, 2251) / 50.0))
    assert abs(direct_exp_sum(spec, 50.0) - smoothed) <= 1e-12


@pytest.mark.parametrize(
    "text",
    [
        "finite:[-1]",
        "cm:xi=-1",
        "periodic:m=2:[i,-i]",
        "periodic:m=3:[0,i,1]",
        "finite:[1,0,1]",
    ],
)
def test_f_block_exact_for_lattice_specs(spf_1e7, text):
    # every eps in {0, +-1, +-i}: f is read off the codes, exactly
    spec = parse_eps_spec(text)
    plan = _Plan(spec, SPF_TOP)
    assert plan.codes and not plan.product
    for lo, hi in _test_blocks(random.Random(text)):
        f = _f_block(lo, hi, plan)
        want = np.array([f_of_n(spf_1e7, spec, k) for k in range(lo, hi)])
        assert np.array_equal(f, want), (lo, hi)
    n_max = int(45 * DIRECT_X_CAP)
    primes = primes_up_to(math.isqrt(n_max)).tolist()
    plan = _Plan(spec, n_max)
    for lo in (2 ** 32 - 300, n_max - 600):
        f = _f_block(lo, lo + 600, plan)
        want = np.array(
            [math.prod(eps_at(spec, v) for v in _factor(k, primes)) for k in range(lo, lo + 600)]
        )
        assert np.array_equal(f, want), lo


def test_plan_stores_the_small_powers_and_drops_those_past_an_absorbing_zero():
    # eps_j = 0 for every j >= 2 (Mobius): f(n) = 0 is settled at p^2, so no
    # p^k with k >= 3 is sieved, 8 included, and the stored period is
    # 4 9 5 7 11; where a nonzero eps follows a zero, the powers stay.  The
    # period is the lcm of the sieved powers that divide PERIOD: 8 9 for
    # finite:[1,0,1], whose eps_1 = 1 leaves p itself out
    def cubes(plan):
        return [q for q, p, *_ in plan.powers if q >= p ** 3]

    mobius = _Plan(MOBIUS, 10 ** 6)
    assert cubes(mobius) == [] and mobius.code_period.size == sieve.PERIOD // 2
    assert mobius.val_period.size == 1  # no product on the lattice
    for text, period in (("finite:[1,0,1]", 72), ("periodic:m=3:[0,i,1]", sieve.PERIOD)):
        plan = _Plan(parse_eps_spec(text), 10 ** 6)
        assert 8 in cubes(plan) and plan.code_period.size == period, text
    assert _Plan(PER_I, 10 ** 6).code_period.size == sieve.PERIOD
    plan = _Plan(parse_eps_spec("finite:[exp(i*pi/5),1]"), 10 ** 6)
    assert plan.val_period.size == plan.code_period.size == sieve.PERIOD
    # f = 1 sieves nothing: a period of 1, which a block takes by a fill
    ones = _Plan(ONES, 10 ** 6)
    assert ones.powers == [] and ones.val_period.size == 1 and not ones.codes
    assert np.array_equal(_f_block(5, 105, ones), np.ones(100))


def _value_plan(monkeypatch, spec, n_max: int) -> _Plan:
    """The value path's plan for any spec: with no value known to lie on
    the lattice, every phase rides in the float product, and the codes keep
    only the zero count and the large prime."""
    with monkeypatch.context() as patch:
        patch.setattr(sieve, "_TURNS", {})
        plan = _Plan(spec, n_max)
    assert plan.product
    return plan


@pytest.mark.parametrize("text", LATTICE_SPECS)
def test_lattice_codes_match_the_value_path(monkeypatch, text):
    # every block of a full sweep to 7.5e6 (x = 2e5) holds the same f from
    # the phases of the codes as from float products of the units, and the
    # sums of a 48-point grid to 2e5 have the same bits
    spec = parse_eps_spec(text)
    n_max = int(sieve.DEFAULT_CUTOFF_MULT * 2e5)
    codes, values = _Plan(spec, n_max), _value_plan(monkeypatch, spec, n_max)
    assert codes.codes == (text != "cm:xi=1") and codes.product == (text == "cm:xi=1")
    for lo in range(1, n_max + 1, codes.size):
        hi = min(lo + codes.size, n_max + 1)
        got, want = _f_block(lo, hi, codes), _f_block(lo, hi, values)
        assert got.dtype == want.dtype and np.array_equal(got, want), lo
    xs = np.exp(np.linspace(math.log(1e3), math.log(2e5), 48))
    got = direct_exp_sums_multi(spec, xs)
    with monkeypatch.context() as patch:
        patch.setattr(sieve, "_TURNS", {})
        want = direct_exp_sums_multi(spec, xs)
    assert got.tobytes() == want.tobytes()


def test_lattice_codes_near_the_cap(monkeypatch):
    # the large-prime threshold where it is tightest, on a plan for the
    # largest n_max (4.5e9): an n with omega(n) = 9, whose log byte rounds
    # nine times, and n = 2P with P = 521, the first prime above sqrt(hi)
    # in a sweep's first block, the largest smooth part a large prime
    # leaves near there; the block around each as on the value path
    n_max = int(45 * DIRECT_X_CAP)
    omega9 = 20 * 223092870  # 2^2 3 5^2 7 11 13 17 19 23
    assert len(_factor(omega9, primes_up_to(100).tolist())) == 9
    assert primes_up_to(521)[-2:].tolist() == [509, 521] and 512 ** 2 < BLOCK + 1
    for text in ("finite:[-1]", "periodic:m=2:[i,-i]", "periodic:m=3:[0,i,1]", "finite:[0]"):
        spec = parse_eps_spec(text)
        codes, values = _Plan(spec, n_max), _value_plan(monkeypatch, spec, n_max)
        for n, (lo, hi) in ((omega9, (omega9 - 300, omega9 + 300)), (2 * 521, (1, BLOCK + 1))):
            got = _f_block(lo, hi, codes)
            assert np.array_equal(got, _f_block(lo, hi, values)), (text, n)
            want = math.prod(eps_at(spec, v) for v in _factor(n, primes_up_to(521).tolist()))
            assert got[n - lo] == want, (text, n)
    # omega(n) <= 9 holds below the tenth primorial, and no further
    with pytest.raises(CapacityError):
        _Plan(MOBIUS, 6469693230)


def test_every_plan_is_capped():
    # the large-prime borrow rests on omega(n) <= 9, on and off the lattice,
    # and a sweep at the cap of x stays below it
    assert int(sieve.DEFAULT_CUTOFF_MULT * DIRECT_X_CAP) < sieve._CAP == 6469693230
    for text in ("finite:[exp(i*pi/5),1]", "quadphase:alpha=0.381966", "periodic:m=2:[1,exp(i*0.7)]"):
        with pytest.raises(CapacityError):
            _Plan(parse_eps_spec(text), sieve._CAP)


#: lattice specs of the segment tests: Mobius, Liouville, fig53 and a phase
#: that turns through all four units
SEGMENT_SPECS = ["finite:[-1]", "cm:xi=-1", "periodic:m=2:[i,-i]", "periodic:m=4:[i,-1,-i,1]"]
#: specs off the lattice, whose f takes a float product: three with a
#: large-prime factor, and two with eps_1 = 1, one of them with codes for
#: the zero count and one with no codes
PRODUCT_SPECS = [
    "finite:[exp(i*pi/5),1]",
    "quadphase:alpha=0.381966",
    "cm:xi=exp(i*pi)",
    "finite:[1,exp(i*0.7)]",
    "periodic:m=2:[1,exp(i*0.7)]",
]


@pytest.mark.parametrize("n_max", [2 ** 19 + 2 ** 18 + 17, 3 * 2 ** 19 - 1, 100_000])
def test_lattice_sweep_matches_the_value_path_block_by_block(monkeypatch, n_max):
    # a sweep sieves the codes of two blocks at a time and calls consume once
    # per block, in order; n_max ends 17 into the second segment's second
    # block, one short of the third segment's end, and inside the first block
    blocks = [(lo, min(lo + BLOCK, n_max + 1)) for lo in range(1, n_max + 1, BLOCK)]
    for text in SEGMENT_SPECS:
        spec = parse_eps_spec(text)
        codes, values = _Plan(spec, n_max), _value_plan(monkeypatch, spec, n_max)
        assert codes.codes and codes.sparse[0].size, text  # some powers are scattered
        seen = []

        def consume(lo, f):
            want = _f_block(*blocks[len(seen)], values)
            assert lo == blocks[len(seen)][0] and f.size == want.size, (text, lo)
            assert f.dtype == want.dtype and np.array_equal(f, want), (text, lo)
            seen.append(lo)

        sieve._sweep(spec, n_max, consume)
        assert seen == [lo for lo, _ in blocks], text


@functools.lru_cache(maxsize=4)
def _trial_division(lo: int, hi: int, n_max: int) -> tuple[list, np.ndarray]:
    """The prime factorization of n in [lo, hi), n <= n_max, by trial
    division: for each prime p <= sqrt(n_max) that divides some n, p, the
    offset of its first multiple and v_p of each multiple; and where n
    keeps a prime factor above sqrt(n_max), to the first power."""
    rest = np.arange(lo, hi, dtype=np.int64)
    powers = []
    for p in primes_up_to(math.isqrt(n_max)).tolist():
        s = -lo % p
        if s >= rest.size:
            continue
        multiples = rest[s::p]
        v = np.zeros(multiples.size, dtype=np.int8)
        hit = np.ones(multiples.size, dtype=bool)
        while hit.any():
            multiples[hit] //= p
            v += hit
            hit = multiples % p == 0
        powers.append((p, s, v))
    return powers, rest > 1


def _trial_f(spec, lo: int, hi: int, n_max: int) -> np.ndarray:
    """f(n) for n in [lo, hi) from `_trial_division`, as a complex product
    in another order than the sieve's."""
    powers, large = _trial_division(lo, hi, n_max)
    eps = np.array([eps_at(spec, k) for k in range(sieve._MAX_VP + 1)])
    f = np.where(large, eps[1], 1).astype(np.complex128)
    for p, s, v in powers:
        f[s::p] *= eps[v]
    return f


def _segments(plan: _Plan, n_max: int):
    """(lo, [(a, f copy) per block]) of a sweep's first segment, its top one
    and two seeded random ones, each taken as the sweep takes it."""
    last = (n_max - 1) // plan.segment
    rng = random.Random(n_max)
    for k in (0, last, rng.randint(1, last - 1), rng.randint(1, last - 1)):
        lo = 1 + k * plan.segment
        hi = min(lo + plan.segment, n_max + 1)
        blocks = [(a, f.copy()) for a, f in sieve._blocks(lo, hi, plan)]
        assert [a for a, _ in blocks] == list(range(lo, hi, BLOCK)), lo
        assert sum(f.size for _, f in blocks) == hi - lo
        yield lo, hi, blocks


@pytest.mark.parametrize("n_max", [375_000_000, 3_750_000_000, 6_000_000_000])
@pytest.mark.parametrize("text", SEGMENT_SPECS)
def test_lattice_segments_match_the_value_path_up_to_the_cap(monkeypatch, text, n_max):
    # the first segment of a sweep, its top one and two seeded random ones,
    # each taken as the sweep takes it, block by block: equal to the value
    # path and to trial division, where no SPF table reaches
    spec = parse_eps_spec(text)
    codes, values = _Plan(spec, n_max), _value_plan(monkeypatch, spec, n_max)
    assert codes.segment == 2 * BLOCK and not codes.product
    for lo, hi, blocks in _segments(codes, n_max):
        want = _trial_f(spec, lo, hi, n_max)
        for a, f in blocks:
            value = _f_block(a, a + f.size, values)
            assert f.dtype == value.dtype and np.array_equal(f, value), (lo, a)
            assert np.array_equal(f, want[a - lo : a - lo + f.size]), (lo, a)


@pytest.mark.parametrize("n_max", [375_000_000, 3_750_000_000, 6_000_000_000])
@pytest.mark.parametrize("text", PRODUCT_SPECS)
def test_product_segments_match_trial_division_up_to_the_cap(text, n_max):
    # the same segments off the lattice: the float product over the primes
    # with p^2 below the segment's top, times the codes' factor, against
    # trial division; a product over the block's primes alone would drop,
    # in the first block, the primes 2^18 < p^2 < 2^19 that the codes of
    # the first segment count as sieved
    spec = parse_eps_spec(text)
    plan = _Plan(spec, n_max)
    assert plan.product and plan.codes == (text != "periodic:m=2:[1,exp(i*0.7)]")
    for lo, hi, blocks in _segments(plan, n_max):
        want = _trial_f(spec, lo, hi, n_max)
        for a, f in blocks:
            assert f.dtype == plan.val.dtype
            err = np.max(np.abs(f - want[a - lo : a - lo + f.size]))
            assert err <= 1e-14, (lo, a, err)


def _loop_powers(spec, n_max: int) -> list[tuple]:
    """The (q, p, r_k, c_k) table by a loop over the primes and their
    powers, the reference for the plan's array form."""
    eps = [eps_at(spec, k) for k in range(sieve._MAX_VP + 1)]
    if all(e.imag == 0 for e in eps):
        eps = [e.real for e in eps]
    zero = [e == 0 for e in eps]
    unit = [1.0 if z else e for e, z in zip(eps, zero)]
    borrow = zero[1] or unit[1] != 1
    absorb = sieve._MAX_VP + 1
    while absorb > 1 and zero[absorb - 1]:
        absorb -= 1
    turns = [sieve._TURNS.get(u) for u in unit]
    lattice = None not in turns
    if not lattice:
        turns = [0] * len(unit)
    scale = (255 - sieve._OMEGA / 2) / math.log2(max(n_max, 2)) if borrow else 0.0
    powers = []
    for p in primes_up_to(math.isqrt(n_max)).tolist():
        q, k = p, 1
        logp = scale * math.log2(p)
        while q <= n_max and k <= absorb:
            r = 1 if lattice else unit[k] / unit[k - 1]
            code = (round(k * logp) - round((k - 1) * logp) + ((2 * (zero[k] - zero[k - 1])) << 8)
                    + ((turns[k] - turns[k - 1]) << 14)) % 2 ** 16
            if r != 1 or code:
                powers.append((q, p, r, code))
            q *= p
            k += 1
    return powers


@pytest.mark.parametrize("text", BLOCK_SPECS + ["periodic:m=4:[i,-1,-i,1]", "cm:xi=exp(i*pi)"])
def test_plan_power_table_matches_the_loop(text):
    # element-equal, and each r_k with the loop's bits (as a complex)
    spec = parse_eps_spec(text)
    for n_max in (1, 3, 4, 30, 120, 12_000, SPF_TOP, 375_000_000, 4_500_000_000):
        got, want = _Plan(spec, n_max).powers, _loop_powers(spec, n_max)
        assert got == want, (text, n_max)
        bits = [np.array([t[2] for t in table], dtype=np.complex128).tobytes()
                for table in (got, want)]
        assert bits[0] == bits[1], (text, n_max)


REAL_SPECS = ["finite:[-1]", "cm:xi=-1", "cm:xi=1", "finite:[1,0,1]", "periodic:m=2:[-1,1]"]


@pytest.mark.parametrize(
    "text, dtype",
    [(text, np.float64) for text in REAL_SPECS]
    # eps_1 = exp(i pi) = -1 + 1.2e-16i is not real, however close
    + [("cm:xi=exp(i*pi)", np.complex128), ("periodic:m=2:[i,-i]", np.complex128)],
)
def test_plan_buffers_are_real_only_for_real_eps(text, dtype):
    # f, its table and its product are float64 or complex128 together; the
    # codes of a segment of two blocks are uint16.  f = 1 (cm:xi=1) sieves
    # no codes and is a fill, and cm:xi=exp(i*pi) is off the lattice, so
    # its f is a product times the codes' factor
    plan = _Plan(parse_eps_spec(text), 10 ** 6)
    assert plan.val.dtype == plan.table.dtype == plan.val_period.dtype == dtype
    assert plan.code.dtype == plan.code_period.dtype == np.uint16
    assert plan.codes == (text != "cm:xi=1")
    assert plan.product == (text in ("cm:xi=1", "cm:xi=exp(i*pi)"))
    assert plan.code.size == (2 * BLOCK if plan.codes else 0)
    assert plan.work.dtype == dtype
    assert plan.work.size == (BLOCK if plan.codes and plan.product else 0)


@pytest.mark.parametrize("text", REAL_SPECS)
def test_real_f_on_the_float64_path(spf_1e7, text):
    # f is the real part of f_of_n bit for bit, on a block near 2e6 and on
    # the (short) top block of a full sweep at x = 2e5
    spec = parse_eps_spec(text)
    lo = 2 * 10 ** 6
    blocks = [(lo, _f_block(lo, lo + BLOCK, _Plan(spec, SPF_TOP)))]
    n_max = int(sieve.DEFAULT_CUTOFF_MULT * 2e5)

    def keep_top(lo, f):
        if lo + f.size - 1 == n_max:
            blocks.append((lo, f.copy()))

    sieve._sweep(spec, n_max, keep_top)
    assert len(blocks) == 2
    for lo, f in blocks:
        assert f.dtype == np.float64
        want = np.array([f_of_n(spf_1e7, spec, k) for k in range(lo, lo + f.size)])
        assert np.array_equal(f, want.real), lo


def _spf_sums(table, spec, x: float, mult: float) -> tuple[complex, float]:
    n_max = math.floor(mult * x)
    terms = [f_of_n(table, spec, n) * math.exp(-n / x) for n in range(1, n_max + 1)]
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return total, math.fsum(abs(t) for t in terms)


def test_sums_across_blocks(monkeypatch):
    # blocks of 1000 read as rows of W = 512 and a short row of 488:
    # cutoffs below W (300), on a row's last n (1512), on the next row's
    # first n (1513), mid-row (1800), on a block's last n (2000), on the
    # next block's first n (2001) and several blocks on (7200); the x are
    # taken in one column chunk and in chunks of 3.  At the default cutoff
    # the terms near it are e^-37.5 of the sum, so the cutoffs are also
    # taken at 2x, where a term lost or kept at the edge shows.  The real
    # specs (finite:[1,0,1] with no modulus step, Mobius and Liouville
    # with one) take the float64 buffers and a real matrix product.
    monkeypatch.setattr(sieve, "BLOCK", 1000)
    assert sieve.W == 512
    edges = [300, 1512, 1513, 1800, 2000, 2001, 7200]
    table = build_spf(7200)
    chunks = (sieve.X_CHUNK, 3)
    specs = (
        PER_I,
        MOBIUS,
        parse_eps_spec("periodic:m=3:[0,i,1]"),
        parse_eps_spec("finite:[1,0,1]"),
        LIOUVILLE,
    )
    for mult in (sieve.DEFAULT_CUTOFF_MULT, 2.0):
        monkeypatch.setattr(sieve, "DEFAULT_CUTOFF_MULT", mult)
        xs = (np.array(edges) + 0.5) / mult
        assert np.floor(mult * xs).tolist() == edges
        for spec in specs:
            wants = [_spf_sums(table, spec, x, mult) for x in xs]
            for chunk in chunks:
                monkeypatch.setattr(sieve, "X_CHUNK", chunk)
                multi = direct_exp_sums_multi(spec, xs)
                for got, (want, mag) in zip(multi, wants):
                    assert abs(got - want) <= 1e-13 * mag
            for i in (0, 2, 4):
                want, mag = wants[i]
                assert abs(direct_exp_sum(spec, xs[i]) - want) <= 1e-13 * mag


def _peak_bytes(xs: np.ndarray) -> int:
    tracemalloc.start()
    try:
        direct_exp_sums_multi(PER_I, xs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_multi_sum_memory_does_not_grow_with_the_points():
    # the weights are taken in column chunks: a W x n_x table for 5000 x
    # alone would be 40 MB, several times the sieve's block buffers
    few = _peak_bytes(np.geomspace(10.0, 1e4, 50))
    many = _peak_bytes(np.geomspace(10.0, 1e4, 5000))
    assert many <= 2 * few, (few, many)
