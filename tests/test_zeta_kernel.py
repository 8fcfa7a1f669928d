"""Zeta/gamma evaluators and branch-tracked logarithm tests.

Reference values come from independent oracles: mpmath (arbitrary
precision), an alternating-series (eta function) evaluation of zeta on the
critical line, scipy's complex gamma, and the exact reflection identity
|Gamma(1/2+it)|^2 = pi/cosh(pi t).
"""

import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps

from fakemu.errors import (
    ConsistencyError,
    CutError,
    DomainError,
    PlatformError,
    PoleError,
    RangeError,
    StepError,
)
from fakemu import zeta_kernel
from fakemu.zeta_kernel import (
    ZeroTable,
    ZetaKernel,
    _continue_legs,
    default_kernel,
    default_zero_table,
    gamma,
    load_zero_table,
    log_zeta_euler,
    zeta,
    zeta_times_s_minus_1,
)

mp.mp.dps = 30


@pytest.fixture(scope="module")
def kernel():
    return default_kernel()


# ---------------------------------------------------------------- zeta

def _eta_zeta_half(t: float, terms: int = 2_000_000) -> complex:
    """zeta(1/2+it) via the alternating series (independent oracle)."""
    s = complex(0.5, t)
    n = np.arange(1, terms + 1)
    signs = np.where(n % 2 == 1, 1.0, -1.0)
    # Cesaro-smoothed tail: average two consecutive partial sums to
    # accelerate the conditionally convergent series
    terms_v = signs * np.exp(-s * np.log(n))
    partial = np.cumsum(terms_v)
    eta = 0.5 * (partial[-1] + partial[-2])
    return complex(eta / (1 - 2 ** (1 - s)))


def test_zeta_classical_value():
    assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-13)


def test_zeta_half_alternating_oracle():
    # frozen from the eta-series oracle (and mpmath agrees to 16 digits)
    assert _eta_zeta_half(0.0).real == pytest.approx(-1.4603545088095868, rel=1e-9)
    assert zeta(0.5) == pytest.approx(-1.4603545088095868, rel=1e-12)


U = 2.0 ** -53
#: |B_26 / 26!|, the coefficient of the first Euler-Maclaurin term zeta omits
_B26 = float(abs(mp.bernoulli(26) / mp.factorial(26)))


def _em_terms(s: complex) -> int:
    return int(zeta_kernel._em_terms(np.array([s]))[0])


def _em_remainder(s: complex) -> float:
    """The remainder after zeta's 12 corrections is at most |s+25| / (Re s+25)
    times the first omitted term (Edwards, Riemann's Zeta Function, 6.4)."""
    poch = math.prod(abs(s + j) for j in range(25))
    return abs(s + 25) / (s.real + 25) * _B26 * poch * _em_terms(s) ** (-s.real - 25)


def _zeta_error_bound(s: complex) -> float:
    """|zeta(s) - computed zeta(s)|: the Euler-Maclaurin remainder plus the
    rounding of the sum, to first order in U.

    A term n^{-s} = e^{-Re s log n} e^{-i phase} carries 3 |Re s| log n U
    from log n and the product, |Im s| log n 2^-63 from the phase reduced
    in extended precision, 4 U from rounding that phase to float64 and 5 U
    from exp, cos, sin and the product; a row sum in numpy's pairwise
    order adds at most ceil(log2 N) + 16 U relative to the sum of |terms|.
    A correction term B_2k/(2k)! (s)_{2k-1} N^{1-2k} takes one rounding
    per factor, 8k + 16 U in all, and N/(s-1) four.
    """
    n = _em_terms(s)
    sigma, t = s.real, abs(s.imag)
    k = np.arange(1.0, n + 1)
    per = (3 * abs(sigma) + t / 1024) * np.log(k) + 9 + math.ceil(math.log2(n)) + 16
    mag = k ** -sigma  # |n^{-s}|
    j = np.arange(1, 13)
    poch = np.cumprod(np.abs(s + np.arange(23)))  # |(s)_m|, m = 1..23
    terms = np.abs(zeta_kernel._EM_COEF) * poch[2 * j - 2] * n ** (1.0 - 2 * j)
    pole = n / abs(s - 1)
    corr = mag[-1] * (per[-1] * (pole + 0.5 + terms.sum()) + 4 * pole + ((8 * j + 16) * terms).sum())
    return _em_remainder(s) + U * ((per[:-1] * mag[:-1]).sum() + corr)


def test_zeta_reference_set():
    rng = random.Random(101)
    pts = [complex(2, 0), complex(0.5, 14.0), complex(3, 200.0), complex(-1, 5.0),
           complex(1.5, 599.0), complex(0.35, 0.0), complex(0.9, 236.5)]
    for _ in range(40):
        pts.append(complex(rng.uniform(-1, 5), rng.uniform(-600, 600)))
    for s in pts:
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
        # the bound, plus the rounding of the 30-digit reference to complex
        tol = _zeta_error_bound(s) + U * abs(ref)
        assert abs(zeta(s) - ref) <= tol, s


def test_zeta_remainder_bound_over_the_box():
    # the docstring's 3.2e-21: at fixed N(s) the bound grows with |Im s|
    # and falls with Re s, so it peaks at Re s = -1 just below each step
    # of N, the last of which is |Im s| -> 600
    tops = [_em_remainder(complex(-1, m / 1.5 - 1e-9)) for m in range(25, 901)]
    assert max(tops) == tops[-1] <= 3.2e-21
    grid = [complex(a, b) for a in np.linspace(-1, 40, 42) for b in np.linspace(0, 600, 61)]
    assert max(_em_remainder(s) for s in grid) <= tops[-1]


def test_zeta_vanishes_at_first_zero(kernel):
    g1 = kernel.table.ordinates[0]
    assert abs(zeta(complex(0.5, g1))) <= 1e-8


def test_zeta_errors():
    with pytest.raises(PoleError):
        zeta(1.0)
    with pytest.raises(RangeError):
        zeta(complex(41.0, 0.0))
    with pytest.raises(RangeError):
        zeta(complex(2.0, 601.0))


def test_zeta_phase_needs_extended_precision(monkeypatch):
    # where longdouble is no wider than float64, a phase t*log(n) that
    # float64 rounds more coarsely than a reduced one raises PlatformError
    if np.finfo(np.longdouble).nmant >= 63:
        assert zeta_kernel._EXTENDED_PHASE
    small, real = complex(2.0, 1.0), complex(0.5, 0.0)  # 1 rad * log 24 < 8
    want = (zeta(small), zeta(real))
    monkeypatch.setattr(zeta_kernel, "_EXTENDED_PHASE", False)
    assert (zeta(small), zeta(real)) == want
    for s in (complex(0.5, 14.134725), complex(2.0, -3.0)):
        with pytest.raises(PlatformError):
            zeta(s)


# |Im s| log 24 below and above 8 rad (N = 24 for every one of them), the
# phase's sign both ways, and a real point
PHASE_MIX = np.array([0.5, 0.5 + 1.0j, 1.5 - 2.5j, 0.5 + 2.6j, -0.5 - 7.9j, 2.0 + 0.01j])


def test_zeta_phase_rule_is_per_point():
    # float64 powers for a narrow point and the extended phase for a wide
    # one: a batch that mixes them gives each row the bits it has alone
    n = zeta_kernel._logn(25)[0][-1]
    wide = np.abs(PHASE_MIX.imag) * n >= zeta_kernel._PHASE_MAX_FLOAT64
    assert wide.any() and not wide.all()
    got = zeta(PHASE_MIX)
    for i, s in enumerate(PHASE_MIX.tolist()):
        assert got[i] == zeta(s), s
    order = np.arange(PHASE_MIX.size)[::-1]
    assert np.array_equal(zeta(PHASE_MIX[order]), got[order])


def test_narrow_powers_within_their_bound_of_the_extended_phase(monkeypatch):
    # 1000 points s and 2s on the disc |s - 1/2| < 0.1 around the cut at
    # 1/2, as L1 reads them.  float64 forms t log n with two roundings (log
    # n and the product), 2u|t| log n radians; the extended phase, reduced
    # to [0, 2 pi), rounds to float64 within 4u radians; each path's exp
    # and product add at most ~3u relative, so the rows agree within (2|t|
    # log n + 12) u relative, u = 2^-53
    rng = np.random.default_rng(5)
    s = 0.5 + 0.1 * np.sqrt(rng.random(500)) * np.exp(2j * math.pi * rng.random(500))
    pts = np.concatenate([s, 2.0 * s])
    logn, logn128 = zeta_kernel._logn(25)  # N = 24 at every point
    narrow = zeta_kernel._pow_minus_s(logn, pts, logn128)
    monkeypatch.setattr(zeta_kernel, "_PHASE_MAX_FLOAT64", 0.0)  # every point wide
    wide = zeta_kernel._pow_minus_s(logn, pts, logn128)
    bound = (2.0 * np.abs(pts.imag)[:, None] * logn + 12.0) * 2.0 ** -53
    assert np.all(np.abs(narrow - wide) <= bound * np.abs(wide))


def test_narrow_batch_needs_no_extended_phase(monkeypatch):
    # without a longdouble wider than float64 a batch of narrow points
    # keeps its bits; one wide point in it raises
    narrow = PHASE_MIX[np.abs(PHASE_MIX.imag) < 2.0]
    want = zeta(narrow)
    monkeypatch.setattr(zeta_kernel, "_EXTENDED_PHASE", False)
    assert np.array_equal(zeta(narrow), want)
    with pytest.raises(PlatformError):
        zeta(PHASE_MIX)


def test_zeta_schwarz_reflection():
    rng = random.Random(17)
    for _ in range(100):
        s = complex(rng.uniform(-1, 4), rng.uniform(0.1, 300))
        assert abs(zeta(s.conjugate()) - zeta(s).conjugate()) <= 1e-11 * (
            1 + abs(zeta(s))
        )


def test_zs1_smooth_through_pole():
    ds = (1e-5, 1e-9, 0.0, -1e-9, -1e-4, 1e-12j, -3e-7j, 2e-4 * cmath.exp(2.1j))
    for d in ds:
        s = 1.0 + d
        got = zeta_times_s_minus_1(s)
        s_mp = mp.mpc(s.real, s.imag)  # the point as rounded, exactly
        want = complex(mp.zeta(s_mp) * (s_mp - 1)) if d else 1.0
        assert abs(got - want) <= 1e-15 * abs(want), d  # the docstring's 6e-16
    # s = 1 inside a batch, alone in one and twice in one
    pts = np.array([1.0, 2.0, 1.0 + 1e-9, 1.0, 0.5 + 14.0j])
    got = zeta_times_s_minus_1(pts)
    assert got[0] == got[3] == 1.0
    assert got.tolist() == [zeta_times_s_minus_1(v) for v in pts.tolist()]
    assert zeta_times_s_minus_1(np.array([1.0])).tolist() == [1.0]


# ---------------------------------------------------------------- gamma

def test_gamma_classical_values():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)


def test_gamma_stirling_magnitude_at_zero_height():
    t = 14.134725
    exact = math.sqrt(math.pi / math.cosh(math.pi * t))
    assert abs(gamma(complex(0.5, t))) == pytest.approx(exact, rel=1e-12)


def test_gamma_against_scipy():
    rng = random.Random(3)
    for _ in range(150):
        s = complex(rng.uniform(-8, 10), rng.uniform(-30, 30))
        if s.imag == 0:
            continue
        ref = complex(sps.gamma(s))
        assert abs(gamma(s) - ref) <= 2e-13 * abs(ref), s


def test_gamma_recurrence():
    rng = random.Random(23)
    for _ in range(100):
        s = complex(rng.uniform(-8, 8), rng.uniform(-200, 200))
        if s.imag == 0:
            continue
        g1 = gamma(s + 1)
        assert abs(g1 - s * gamma(s)) <= 1e-12 * abs(g1)


def test_gamma_poles():
    for n in (0, -1, -5):
        with pytest.raises(PoleError):
            gamma(float(n))


# ---------------------------------------------------------------- log zeta

def test_log_zeta_euler_values():
    assert log_zeta_euler(2.0) == pytest.approx(math.log(math.pi ** 2 / 6), abs=1e-12)
    # zeta(3) by direct series as oracle
    z3 = sum(n ** -3.0 for n in range(1, 200_000))
    assert log_zeta_euler(3.0) == pytest.approx(math.log(z3), abs=1e-9)
    assert log_zeta_euler(2.5).imag == 0.0
    with pytest.raises(RangeError):
        log_zeta_euler(1.1)


def test_log_zeta_euler_vs_mpmath_high():
    for s in (complex(1.2, 50), complex(3, 473), complex(1.25, -300)):
        ref = complex(mp.log(mp.zeta(mp.mpc(s.real, s.imag))))
        assert abs(log_zeta_euler(s) - ref) <= 1e-12


def test_log_zeta_euler_principal_on_re_1_2():
    # |Im log zeta| <= (pi/2) P(1.2) < (pi/2) log zeta(1.2) = 2.70 < pi on
    # Re s >= 1.2, so the principal Log is the standard branch there
    bound = 0.5 * math.pi * float(mp.log(mp.zeta(1.2)))
    assert bound < 2.71
    for t in np.linspace(-600.0, 600.0, 121):
        s = complex(1.2, t)
        got = log_zeta_euler(s)
        assert abs(got.imag) <= bound, t
        ref = complex(mp.log(mp.zeta(mp.mpc(s.real, s.imag))))
        assert abs(got - ref) <= 1e-14, t


# ---------------------------------------------------------------- zero table

def test_zero_table_sanity(kernel):
    t = kernel.table
    assert len(t) >= 100
    o = t.ordinates
    assert 14.13 < o[0] < 14.14
    assert all(a < b for a, b in zip(o, o[1:]))
    for g in o:
        assert abs(zeta(complex(0.5, g))) <= 1e-8


def test_zero_table_rejects_corruption(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("# corrupt\n14.1347251417346938\n21.03\n")
    with pytest.raises(ConsistencyError):
        load_zero_table(str(p))


def test_zero_table_file_roundtrip(tmp_path):
    src = default_zero_table()
    p = tmp_path / "zeros.txt"
    p.write_text(
        "# copy\n" + "\n".join(f"{g:.17g}" for g in src.ordinates[:100]) + "\n"
    )
    again = load_zero_table(str(p))
    assert again.ordinates[:100] == src.ordinates[:100]


def test_zero_table_ordering_rejected():
    with pytest.raises(DomainError):
        ZeroTable((14.134725141734694, 14.0), source="test")


# ---------------------------------------------------------------- L1 / Z

def test_L1_normalization(kernel):
    assert kernel.L1(1.0) == 0
    assert kernel.L1(2.0) == pytest.approx(math.log(math.pi ** 2 / 6), abs=1e-12)
    # (0.5-1) zeta(0.5) = 0.73017725440479343
    assert kernel.L1(0.5) == pytest.approx(
        math.log(0.73017725440479343), abs=1e-12
    )


def test_L1_real_on_reals(kernel):
    for s in (0.4, 0.75, 1.5, 2.9, 5.0):
        assert abs(kernel.L1(s).imag) <= 1e-13


def test_L1_exp_identity(kernel):
    rng = random.Random(5)
    done = 0
    while done < 200:
        s = complex(rng.uniform(0.36, 3.0), rng.uniform(-50, 50))
        try:
            v = kernel.L1(s)
        except CutError:
            continue
        h = zeta_times_s_minus_1(s)
        assert abs(cmath.exp(v) - h) <= 1e-10 * (1 + abs(h)), s
        assert isinstance(v, complex)
        done += 1


def test_L1_cut_guard(kernel):
    g1 = kernel.table.ordinates[0]
    with pytest.raises(CutError):
        kernel.L1(complex(0.45, g1))
    with pytest.raises(RangeError):
        kernel.L1(complex(0.2, 1.0))


def test_L1_jump_across_cut(kernel):
    """Crossing a zero cut changes the branch by ~2 pi i."""
    g1 = kernel.table.ordinates[0]
    above = kernel.L1(complex(0.45, g1 + 0.01))
    below = kernel.L1(complex(0.45, g1 - 0.01))
    assert abs(above - below - 2j * math.pi) < 0.5


def test_Z_values(kernel):
    # Z(s; z) = ((s-1) zeta(s))^z / s = exp(z L1(s)) / s
    def Z(s, z):
        return cmath.exp(z * kernel.L1(s)) / s

    for w in (0.3 + 0.1j, -1.0, 2.0):
        assert Z(1.0, w) == pytest.approx(1.0)
    assert Z(2.0, 1.0) == pytest.approx(math.pi ** 2 / 12, rel=1e-12)
    s = 0.4 + 0.1j
    assert Z(s, 0.0) == pytest.approx(1 / s)


# ---------------------------------------------------------------- logs at a zero

def test_L_rho_exp_identity(kernel):
    # on the line (u real), off it (one leg from Re u) and at the zero
    rho = kernel.rho(1)
    sweep = kernel.rho_sweep(1)
    for du in (0.01, -0.1, 0.2, 0.1j, 0.05 - 0.05j, -1e-5):
        s = rho + du
        v = complex(sweep.at(-du)[0][0])
        lhs = cmath.exp(v) * (s - rho)
        rhs = zeta_times_s_minus_1(s)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs), du


def test_L_rho_at_the_zero(kernel):
    got = complex(kernel.rho_sweep(1).at(0.0)[0][0])
    want = cmath.log((kernel.rho(1) - 1) * kernel.zeta_prime_at_zero(1))
    # same branch: the anchor normalization keeps it on the principal sheet
    assert abs(got - want) <= 1e-7


def test_L_rho_range_error(kernel):
    sweep = kernel.rho_sweep(1)
    for u in (3.0, 0.3 + 0.4j):  # |u| > 0.45, the gap radius at zero 1
        with pytest.raises(RangeError):
            sweep.at(u)


def test_L_rho_conjugate_zero(kernel):
    rho_bar = kernel.rho(1, conjugate=True)
    sweep = kernel.rho_sweep(1, conjugate=True)
    for u in (0.05, 0.05 + 0.03j):
        s = rho_bar - u
        lhs = cmath.exp(complex(sweep.at(u)[0][0])) * (s - rho_bar)
        assert abs(lhs - zeta_times_s_minus_1(s)) <= 1e-9 * abs(lhs), u


@pytest.mark.parametrize("k", [1, 2, 30])
def test_zero_divided_difference_against_mpmath(k):
    # the sweep's h_local(s) = (s - 1)(zeta(s) - zeta(rho))/(s - rho) from
    # its Cauchy ring, against mpmath at 40 digits at the same double rho
    # and s = rho - u, down to u = 0 (the limit (rho - 1) zeta'(rho)).  The
    # quotient (s - 1) zeta(s)/(s - rho) it replaced was off by ~1e-15/|u|
    # here (9.7e-9 at u = 1e-7, 4.1e-13 at 1e-12 at zero 1) near the zero
    sweep = ZetaKernel(default_kernel().table).rho_sweep(k)
    rho, r = sweep.rho, 0.9 * sweep.radius
    us = [0.0, 1e-12, 1e-8, 1e-6, 1e-4, 0.1, 0.05j, r * 1j, -r * 1j]
    s = rho - np.array(us, dtype=np.complex128)
    got = sweep.h_local(s)
    with mp.workdps(40):
        mrho = mp.mpc(rho.real, rho.imag)
        for u, sv, g in zip(us, s.tolist(), got.tolist()):
            ms = mp.mpc(sv.real, sv.imag)
            if ms == mrho:
                want = (ms - 1) * mp.zeta(mrho, derivative=1)
            else:
                want = (ms - 1) * (mp.zeta(ms) - mp.zeta(mrho)) / (ms - mrho)
            want = complex(want)
            assert abs(g - want) <= 1e-14 * abs(want), (u, g, want)


def test_rho_sweep_ring_matches_direct_values(kernel):
    # the ring in one array call, each point one leg from the line at Re u,
    # against one point at a time on a fresh sweep
    sweep = kernel.rho_sweep(2)
    ring = 0.05 * np.exp(2j * math.pi * np.arange(16) / 16)
    lr, cz, gs = sweep.at(ring)
    ref = ZetaKernel(kernel.table).rho_sweep(2)
    one = [ref.at(u) for u in ring.tolist()]
    assert lr.tolist() == [complex(v[0][0]) for v in one]
    assert cz.tolist() == [complex(v[1][0]) for v in one]
    assert gs.tolist() == gamma(sweep.rho - ring).tolist()
    for u, v, c in zip(ring.tolist(), lr.tolist(), cz.tolist()):
        s = sweep.rho - u
        assert abs(cmath.exp(v) * (s - sweep.rho) - zeta_times_s_minus_1(s)) <= 1e-12, u
        assert abs(cmath.exp(c) - zeta(2.0 * s)) <= 1e-12 * abs(zeta(2.0 * s)), u


def _winding(s):  # log h = 5is + log(s + 3) winds ~3 times over [-1, 2.5]
    s = np.asarray(s)
    return np.exp(5j * s) * (s + 3.0)


def _winding_log(s):
    return 5j * s + np.log(s + 3.0)


def test_continue_log_depends_only_on_the_end_point():
    s1 = complex(1.3, 0.1)
    s0 = np.array([-1.0 + 0.2j, 2.5 - 0.3j])
    got = _continue_legs(_winding, s0, _winding_log(s0), np.array([s1, s1]))
    assert got[0] == got[1]
    assert got[0].real == cmath.log(_winding(s1)).real
    assert abs(got[0] - _winding_log(s1)) <= 1e-13


def test_continue_log_raises_where_h_vanishes():
    # h = s - 1/2 vanishes on the path from 0 to 1, at a halving midpoint
    def h(s):
        return np.asarray(s) - 0.5

    s0 = np.array([0.0 + 0.0j])
    with pytest.raises(StepError, match="vanished"):
        _continue_legs(h, s0, np.log(h(s0) + 0j), np.array([1.0 + 0.0j]))


def test_continue_log_raises_on_step_underflow():
    # arg h jumps by pi at s = 0.3 (h = sign(Re s - 0.3), Re h never 0):
    # the steps around the jump halve down to the floor
    def h(s):
        return np.where(np.asarray(s).real < 0.3, -1.0, 1.0) + 0j

    s0 = np.array([0.1 + 0.0j])
    with pytest.raises(StepError, match="underflow"):
        _continue_legs(h, s0, np.array([1j * math.pi]), np.array([0.35 + 0.0j]))


@pytest.mark.parametrize("k", [0, 101])
def test_zero_index_outside_table(kernel, k):
    # k = 0 used to read the last ordinate (Python's index -1)
    for call in (kernel.rho, kernel.rho_sweep, kernel.zeta_prime_at_zero):
        with pytest.raises(RangeError, match=f"zero index {k} outside table"):
            call(k)


def test_rho_sweep_is_memoized_per_kernel(kernel):
    assert kernel.rho_sweep(2) is kernel.rho_sweep(2)
    assert kernel.rho_sweep(2, conjugate=True) is not kernel.rho_sweep(2)
    fresh = ZetaKernel(kernel.table)
    assert fresh.rho_sweep(2) is not kernel.rho_sweep(2)
    assert kernel.sweep("half") is kernel.sweep("half") is not fresh.sweep("half")
    assert kernel.sweep((2, False)) is kernel.rho_sweep(2)


@pytest.mark.parametrize("point, s0", [("one", 1.0), ("half", 0.5)])
def test_line_sweep_keeps_L1_and_gamma_per_point(point, s0):
    # at 1 and 1/2 the sweep gives L1(s), L1(2s) and Gamma(s), s = s0 - u,
    # with the bits of the direct calls; it counts each point looked up as
    # a hit or a miss and keeps every point once, read-only
    kernel = ZetaKernel(default_kernel().table)
    sweep = kernel.sweep(point)
    u = np.array([0.1, 0.02 + 0.03j, 0.1, 0.0, 0.12])
    l1, l2, g = sweep.at(u)
    s = s0 - u
    assert l1.tolist() == [kernel.L1(v) for v in s.tolist()]
    assert l2.tolist() == [kernel.L1(2.0 * v) for v in s.tolist()]
    assert g.tolist() == [gamma(v) for v in s.tolist()]
    assert (sweep.hits, sweep.misses, sweep.u.size) == (0, 5, 4)
    again = sweep.at(u[::-1])
    assert [v.tolist() for v in again] == [v.tolist()[::-1] for v in (l1, l2, g)]
    assert (sweep.hits, sweep.misses, sweep.u.size) == (5, 5, 4)
    assert not any(a.flags.writeable for a in (sweep.u, sweep.l1, sweep.l2, sweep.gamma))
    with pytest.raises(RangeError):  # Re s = 1/3 - 0.05 at 1/2, or Re 2s at 1
        sweep.at(np.array([0.2, s0 - 0.3]))
    assert sweep.u.size == 4  # a failed call keeps nothing
    rho = kernel.rho_sweep(1)  # keeps u = 0 from its construction
    rho.at(np.array([0.0, 0.05]))
    assert (rho.hits, rho.misses) == (1, 1)


# ---------------------------------------------------------------- zeta'(rho)

def test_zeta_prime_first_zero(kernel):
    # against mpmath's zeta' at 40 digits, at the table's rho, for the
    # first zero and four more up the table (measured 1.3e-16 at zero 1,
    # 3.3e-16, 1.0e-15, 4.9e-16 and 5.1e-16 at zeros 2, 5, 30 and 100)
    for k in (1, 2, 5, 30, 100):
        rho = kernel.rho(k)
        with mp.workdps(40):
            want = complex(mp.zeta(mp.mpc(rho.real, rho.imag), derivative=1))
        got = kernel.zeta_prime_at_zero(k)
        assert abs(got - want) <= 1e-14 * abs(want), k


@pytest.mark.parametrize("s", [0.5 + 3j, -0.5 + 10j, 0.25 + 0.1j, 3.0 + 100j, -1.0 + 599j])
def test_zeta_prime_off_the_zeros(s):
    # the differentiated Euler-Maclaurin sum that gives zeta'(rho), at
    # points off the zeros (measured <= 1.4e-14 relative)
    pts = np.array([s])
    got = complex(zeta_kernel._zeta_em(pts, int(zeta_kernel._em_terms(pts)[0]), True)[0])
    with mp.workdps(40):
        want = complex(mp.zeta(mp.mpc(s.real, s.imag), derivative=1))
    assert abs(got - want) <= 3e-14 * abs(want)


def test_zeta_prime_simple_zero_magnitude(kernel):
    assert abs(kernel.zeta_prime_at_zero(2)) > 1e-3


def test_zeta_prime_h_refinement(kernel):
    # zeta'(rho_1) against 4-point differences of zeta, whose O(h^4)
    # truncation and O(eps/h) rounding both stay far below 1e-9 here
    rho = kernel.rho(1)
    want = kernel.zeta_prime_at_zero(1)

    def fd(h):
        return (
            -zeta(rho + 2 * h) + 8 * zeta(rho + h) - 8 * zeta(rho - h)
            + zeta(rho - 2 * h)
        ) / (12 * h)

    for h in (1e-4, 5e-5):
        assert abs(fd(h) - want) <= 1e-9 * abs(want), h


# ---------------------------------------------------------------- log zeta(2s) at a zero

def test_clog_zeta_matches_exp(kernel):
    # s = rho_k - u: 2s = 0.9 + 2i gamma_k on the line, then one leg off it
    for k in (1, 3, 10):
        sweep = kernel.rho_sweep(k)
        for u in (0.05, 0.05 + 0.03j):
            s2 = 2.0 * kernel.rho(k) - 2.0 * u
            v = complex(sweep.at(u)[1][0])
            assert abs(cmath.exp(v) - zeta(s2)) <= 1e-10 * abs(zeta(s2)), (k, u)


# ---------------------------------------------------------------- array kernels

def test_zeta_array_against_mpmath_in_its_box():
    rng = np.random.default_rng(41)
    s = rng.uniform(-1.0, 40.0, 60) + 1j * rng.uniform(-600.0, 600.0, 60)
    got = zeta(s)
    assert got.shape == s.shape
    for v, g in zip(s.tolist(), got.tolist()):
        ref = complex(mp.zeta(mp.mpc(v.real, v.imag)))
        assert abs(g - ref) <= 1e-12 * abs(ref), v


def test_gamma_array_against_mpmath():
    # exp of a log-gamma of size ~pi |t|/2 carries ~eps pi |t|/2 of relative
    # rounding, so the box stops at |t| = 8
    rng = np.random.default_rng(43)
    s = rng.uniform(-4.0, 6.0, 200) + 1j * rng.uniform(-8.0, 8.0, 200)
    got = gamma(s)
    for v, g in zip(s.tolist(), got.tolist()):
        ref = complex(mp.gamma(mp.mpc(v.real, v.imag)))
        assert abs(g - ref) <= 1e-14 * abs(ref), v


def _mixed_points():
    """Points of several Euler-Maclaurin term counts, both gamma routes and
    every L1 route (principal, plain log, continuation)."""
    rng = np.random.default_rng(47)
    pts = rng.uniform(0.36, 3.0, 40) + 1j * rng.uniform(-0.35, 0.35, 40)
    pts = np.concatenate([
        pts,
        rng.uniform(0.36, 3.0, 20) + 1j * rng.uniform(-60.0, 60.0, 20),
        [0.5, 1.0 + 1e-4, 1.3, 0.45 + 14.0j, 0.7 - 21.5j],
    ])
    return pts[rng.permutation(pts.size)]


@pytest.mark.parametrize("name", ["zeta", "gamma", "zeta_times_s_minus_1", "L1"])
def test_batch_bits_equal_one_point(name):
    # a value's bits do not depend on the batch it comes in: N(s) is per
    # point and every row reduction runs over one C-contiguous row
    fn = getattr(zeta_kernel, name, None) or default_kernel().L1
    pts = _mixed_points()
    if name == "gamma":
        pts = np.concatenate([pts, pts - 3.0])  # the reflection route too
    batch = fn(pts)
    assert batch.dtype == np.complex128 and batch.shape == pts.shape
    assert batch.tolist() == [fn(v) for v in pts.tolist()]
    assert fn(pts[::-1]).tolist() == batch.tolist()[::-1]


def test_zeta_one_point_is_a_complex():
    assert isinstance(zeta(2.0), complex) and isinstance(gamma(0.5), complex)
    assert isinstance(default_kernel().L1(0.5), complex)
    with pytest.raises(PoleError):
        zeta(np.array([2.0, 1.0]))
    with pytest.raises(RangeError):
        zeta(np.array([2.0, 41.0]))
    with pytest.raises(PoleError):
        gamma(np.array([0.5, -2.0]))


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("conjugate", [False, True])
def test_rho_sweep_line_matches_point_by_point(k, conjugate):
    # one array call at all new positions against one point at a time, each
    # on a fresh kernel; positions beyond one step of the seed and of each
    # other take the _track_log route
    table = default_kernel().table
    sweep = ZetaKernel(table).rho_sweep(k, conjugate)
    rng = np.random.default_rng(53 + k)
    u = np.sort(rng.uniform(-0.9, 0.9, 40) * sweep.radius)
    u = np.concatenate([u, u[:5]])  # repeated positions read kept values
    lr, cz, _ = sweep.at(u)
    ref = ZetaKernel(table).rho_sweep(k, conjugate)
    one = [ref.at(v) for v in u.tolist()]
    assert lr.tolist() == [complex(v[0][0]) for v in one]
    assert cz.tolist() == [complex(v[1][0]) for v in one]
    far = ZetaKernel(table).rho_sweep(k, conjugate)
    v = 0.95 * far.radius  # beyond one step of the seed at -radius/2
    lr, cz, _ = far.at(v)
    want = ref.at(v)
    assert (complex(lr[0]), complex(cz[0])) == (complex(want[0][0]), complex(want[1][0]))
    with pytest.raises(RangeError):
        sweep.at(np.array([0.0, 1.01 * sweep.radius]))


def _count_h_calls(sweep) -> list:
    """Points of each call of the sweep's two functions, in call order."""
    calls = []
    for name in ("h_local", "h_zeta2"):
        h = getattr(sweep, name)
        setattr(sweep, name, lambda s, h=h: calls.append(np.size(s)) or h(s))
    return calls


def test_rho_sweep_line_takes_single_steps():
    # nodes whose legs from u = 0 are within one step (|u|, |2u| <= 0.25):
    # one call of each function at all of them, no halving round; kept
    # nodes call nothing
    sweep = ZetaKernel(default_kernel().table).rho_sweep(1)
    calls = _count_h_calls(sweep)
    u = np.linspace(-0.12, 0.12, 32)[:31]  # 31 nodes, none at the kept u = 0
    first = sweep.at(u)
    assert calls == [31, 31], calls
    calls.clear()
    again = sweep.at(u)
    assert calls == []
    assert [v.tolist() for v in again] == [v.tolist() for v in first]


def test_malformed_zero_table_is_a_domain_error(tmp_path):
    with pytest.raises(DomainError, match="'test', line 3: not a number"):
        zeta_kernel._parse_zero_table("# c\n14.134725141734694\n21.0x\n", "test")
    p = tmp_path / "zeros.txt"
    p.write_bytes(b"14.134725141734694\n\xff\n")
    with pytest.raises(DomainError, match="line 2: not UTF-8"):
        load_zero_table(str(p))
