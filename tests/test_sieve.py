"""Sieve oracle tests: f(n), direct sums, hand-checked values."""

import math
import random

import numpy as np
import pytest

from fakemu.eps_model import parse_eps_spec
from fakemu.errors import CapacityError, DomainError, RangeError
from fakemu.sieve import (
    build_spf,
    direct_exp_sum,
    direct_exp_sums_multi,
    direct_sharp_sum,
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


def test_spf_capacity():
    with pytest.raises(CapacityError):
        build_spf(10 ** 9 + 1)


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


def test_sharp_sums_hand_values():
    assert direct_sharp_sum(MOBIUS, 5) == pytest.approx(-2)
    assert direct_sharp_sum(ONES, 7.9) == pytest.approx(7)
    assert direct_sharp_sum(LIOUVILLE, 4) == pytest.approx(0)


def test_exp_sum_geometric_closed_form():
    for x in (10.0, 100.0, 1000.0):
        want = 1.0 / math.expm1(1.0 / x)
        assert abs(direct_exp_sum(ONES, x) - want) <= 1e-9 * want


def test_exp_sum_mobius_hand_oracle():
    # 45-term hand summation at x=1 (tail < e^-45)
    want = sum(mu * math.exp(-n) for n, mu in enumerate(MU_45, start=1))
    assert direct_exp_sum(MOBIUS, 1.0) == pytest.approx(want, abs=1e-12)


def test_exp_sum_preconditions():
    with pytest.raises(DomainError):
        direct_exp_sum(MOBIUS, 0.5)
    with pytest.raises(DomainError):
        direct_exp_sum(MOBIUS, 10.0, cutoff_mult=10.0)
    with pytest.raises(CapacityError):
        direct_exp_sum(MOBIUS, 2e8)


def test_dirichlet_series_consistency():
    # sum f(n) n^-s matches the Euler product at s = 2.5
    from fakemu.eps_model import _g_eval_array
    from fakemu.sieve import _Kahan, _sweep

    spec = parse_eps_spec("finite:[exp(i*pi/5),1]")
    s = 2.5
    acc = _Kahan()
    _sweep(spec, 10 ** 6, lambda n, f: acc.add(complex(np.sum(f * n ** -s))))
    u = np.exp(-s * np.log(primes_up_to(1000).astype(float)))
    prod = complex(np.exp(np.sum(np.log(_g_eval_array(spec, u)))))
    series_tail = (10.0 ** 6) ** (1 - s) / (s - 1)
    prod_tail = 3e-6
    assert abs(acc.s - prod) <= 10 * (series_tail + prod_tail)


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


def test_multi_sums_cutoff_precondition():
    with pytest.raises(DomainError):
        direct_exp_sums_multi(MOBIUS, [10.0, 20.0], cutoff_mult=10.0)
