"""Residual Euler product tests: cancellations, tails, factorization."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fakemu import euler_residual, verify, zeta_kernel
from fakemu.eps_model import EpsilonSpec, eps_at, parse_eps_spec, zw_params
from fakemu.errors import CapacityError, DomainError, PlatformError, RangeError
from fakemu.euler_residual import G_f, G_f_tail_estimate, GfConfig, _log_near_unit
from fakemu.sieve import _sweep, primes_up_to
from fakemu.zeta_kernel import default_kernel

MOBIUS = parse_eps_spec("finite:[-1]")
LIOUVILLE = parse_eps_spec("cm:xi=-1")
FIG53 = parse_eps_spec("periodic:m=2:[i,-i]")
FIG51A = parse_eps_spec("finite:[exp(i*pi/5),1]")
QUAD = parse_eps_spec("quadphase:alpha=0.381966")
ONES = parse_eps_spec("cm:xi=1")

TEST_SPECS = [MOBIUS, LIOUVILLE, FIG53, FIG51A, QUAD]
REF_SPECS = [MOBIUS, LIOUVILLE, ONES, FIG51A, FIG53, QUAD]
REF_POINTS = [0.35, 0.4, 0.5, 0.45 + 0.03j, 0.42 + 14.13j, 1.0, 2.0]
EPS = np.finfo(np.float64).eps


@pytest.fixture(scope="module")
def cfg():
    return GfConfig()


def test_configs_share_one_read_only_prime_table():
    a, b = GfConfig().logp, GfConfig().logp
    assert a is b
    assert not a.flags.writeable
    big = GfConfig(prime_limit=200_000).logp
    assert big is not a and big.size > a.size
    assert np.array_equal(big[: a.size], a)


def test_prime_limit_bounds():
    # refused before any sieve: the mask alone would take prime_limit bytes
    with pytest.raises(CapacityError):
        GfConfig(prime_limit=10 ** 8 + 1)
    with pytest.raises(DomainError):
        GfConfig(prime_limit=1)
    assert GfConfig(prime_limit=10 ** 7).prime_limit == 10 ** 7


@pytest.mark.parametrize("limit", [1e5, 100_000.0, True, "100000", None])
def test_prime_limit_must_be_an_integer(limit):
    # 1e5 used to pass and fail at the first logp with a bare TypeError
    with pytest.raises(DomainError, match="prime_limit must be an integer"):
        GfConfig(prime_limit=limit)
    assert GfConfig(prime_limit=np.int64(1000)).logp.size == 168


def test_log_near_unit_matches_cmath():
    angles = (0.0, 1e-3, 0.7, -2.5, 3.1)
    moduli = [1.0 + d for d in (1e-12, -1e-12, 1e-6, -1e-6, 0.3, -0.3)]
    moduli += [1e-12, 0.05, 3.0, 1e3]
    vs = [cmath.rect(r, t) for r in moduli for t in angles]
    got = _log_near_unit(np.array(vs))
    for v, g in zip(vs, got):
        want = cmath.log(v)
        assert abs(g - want) <= 4e-16 * max(1.0, abs(want)), v


def test_log_near_unit_relative_accuracy_near_one():
    # the explicit primes' three logs cancel to ~|log v|^3, so the logs
    # must be accurate relative to |log v|, not only to 1
    import mpmath as mp

    rng = np.random.default_rng(3)
    delta = 10.0 ** rng.uniform(-14, -0.3, 400) * np.exp(
        1j * rng.uniform(-math.pi, math.pi, 400)
    )
    vs = 1.0 + delta
    got = _log_near_unit(vs)
    with mp.workdps(40):
        for v, g in zip(vs, got):
            want = mp.log(mp.mpc(v.real, v.imag))
            assert abs(mp.mpc(g.real, g.imag) - want) <= 4 * EPS * abs(want), v


def test_log_near_unit_branch_on_negative_axis():
    # the sign of a zero imaginary part picks +pi or -pi, as in np.log
    vs = np.array([complex(-r, z) for r in (0.5, 1.0, 2.0) for z in (0.0, -0.0)])
    got = _log_near_unit(vs)
    want = np.log(vs)
    assert np.array_equal(got.imag, want.imag)
    assert np.allclose(got.real, want.real, rtol=0.0, atol=4e-16)


def test_G_f_matches_np_log_reference(cfg):
    # the table is emptied before and after the np.log pass, so that pass
    # fills its own E_1 and E_2 and leaves none behind
    cases = [(spec, s) for spec in REF_SPECS for s in REF_POINTS]
    got = [G_f(spec, s, cfg) for spec, s in cases]
    cfg.prime_sums.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(euler_residual, "_log_near_unit", np.log)
        for (spec, s), g in zip(cases, got):
            want = G_f(spec, s, cfg)
            assert abs(g - want) <= 1e-13 * abs(want), (spec.class_tag, s)
    cfg.prime_sums.clear()


def test_mobius_identically_one(cfg):
    for s in (0.4, 0.5 + 3j, 2.0):
        assert G_f(MOBIUS, s, cfg) == pytest.approx(1.0, abs=1e-13)


def test_liouville_identically_one(cfg):
    for s in (0.5, 0.7 + 3j, 1.4):
        assert G_f(LIOUVILLE, s, cfg) == pytest.approx(1.0, abs=1e-12)


def test_range_error(cfg):
    with pytest.raises(RangeError):
        G_f(FIG53, 0.3, cfg)


def test_G_vanishes_at_a_zero_of_a_local_factor(cfg):
    # g(u) = 1 - u - u^2 vanishes at u = (sqrt(5)-1)/2 = 2^{-s*}: G is the
    # product, 0 up to the rounding of g there
    spec = parse_eps_spec("finite:[-1,-1]")
    s_star = -math.log((math.sqrt(5.0) - 1.0) / 2.0) / math.log(2.0)
    assert abs(G_f(spec, s_star, cfg)) <= 1e-14
    assert abs(G_f(spec, s_star + 0.1, cfg)) > 0.1
    # an exact 0 has log -inf, whose exp is 0, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log0 = _log_near_unit(np.zeros(2, dtype=np.complex128))
    assert np.all(log0.real == -math.inf) and np.all(np.exp(log0) == 0.0)


def test_tail_estimate_examples(cfg):
    assert G_f_tail_estimate(MOBIUS, 0.5, cfg) <= 1e-90
    # the bound covers what the primes up to 1e7 add, within a factor 3
    est = G_f_tail_estimate(FIG53, 0.5, cfg)
    moved = abs(cmath.log(G_f(FIG53, 0.5, GfConfig(prime_limit=10 ** 7)) / G_f(FIG53, 0.5, cfg)))
    assert moved <= est <= 3 * moved
    est2 = G_f_tail_estimate(FIG53, 0.5, GfConfig(prime_limit=200_000))
    assert est2 < est


def test_tail_estimate_zero_where_G_is_one(cfg):
    # every a_k is 0, so only the majorant's remainder B S(65 sigma) is
    # left: 1.2e-92 at Re s = 0.35, 2e-141 at 1/2
    for spec in (ONES, LIOUVILLE):
        for s in REF_POINTS:
            bound = 1e-86 if complex(s).real < 0.4 else 1e-90
            assert 0.0 <= G_f_tail_estimate(spec, s, cfg) <= bound, (spec.xi, s)


def test_tail_estimate_inf_where_the_series_fails(cfg):
    # at P = 2 and Re s = 0.35, P^-sigma = 0.78: the majorant's series in
    # 2 P^-sigma diverges
    small = GfConfig(prime_limit=2)
    assert G_f_tail_estimate(FIG53, 0.35, small) == math.inf
    assert math.isfinite(G_f_tail_estimate(FIG53, 2.0, small))
    tails = [G_f_tail_estimate(FIG53, s, cfg) for s in (0.35, 0.5, 1.0, 2.0)]
    assert tails == sorted(tails, reverse=True) and tails[-1] > 0.0
    for s in (complex(math.nan, 0.0), complex(0.5, math.inf)):
        with pytest.raises(DomainError):
            G_f_tail_estimate(FIG53, s, cfg)
    with pytest.raises(RangeError):
        G_f_tail_estimate(FIG53, 0.3, cfg)


def test_truncation_convergence(cfg):
    # the bound covers, with no slack, what the primes up to P' add
    bigger = [GfConfig(prime_limit=200_000), GfConfig(prime_limit=1_000_000)]
    for spec in REF_SPECS:
        for s in (0.45, 0.5, 1.0, 0.4 + 14.134725141734694j):
            base = G_f(spec, s, cfg)
            est = G_f_tail_estimate(spec, s, cfg)
            for big in bigger:
                moved = abs(cmath.log(G_f(spec, s, big) / base))
                assert moved <= est, (spec.class_tag, s, big.prime_limit)


def test_conjugation_symmetry_real_eps(cfg):
    s = 0.6 + 2.5j
    a = G_f(MOBIUS, s.conjugate(), cfg)
    b = G_f(MOBIUS, s, cfg).conjugate()
    assert abs(a - b) <= 1e-13


@pytest.mark.parametrize("s", [2.0, 1.5])
def test_global_factorization_identity(cfg, s):
    """sum f(n) n^-s == zeta(s)^z zeta(2s)^w G(s) within truncation budgets."""
    kernel = default_kernel()
    for spec in (FIG53, FIG51A):
        pars = zw_params(spec)
        blocks = []  # one sum per sieve block, 4 at 10^6
        _sweep(spec, 10 ** 6, lambda lo, f: blocks.append(
            complex(np.sum(f * np.arange(lo, lo + f.size, dtype=np.float64) ** (-s)))))
        zeta_z = cmath.exp(pars.z * kernel.L1(s)) * (s - 1) ** (-pars.z)
        zeta2_w = cmath.exp(pars.w * kernel.L1(2 * s)) * (2 * s - 1) ** (-pars.w)
        rhs = zeta_z * zeta2_w * G_f(spec, s, cfg)
        series_tail = (10.0 ** 6) ** (1 - s) / (s - 1)
        g_tail = G_f_tail_estimate(spec, s, cfg) * abs(rhs)
        assert abs(sum(blocks) - rhs) <= 3 * (series_tail + g_tail) + 1e-10, spec.class_tag


def test_periodic_i_product_identity(cfg):
    """zeta(2s) prod_p (1 + i p^-s - (1+i) p^-2s) equals the factorization at s=2."""
    kernel = default_kernel()
    s = 2.0
    pars = zw_params(FIG53)
    p = primes_up_to(10 ** 7).astype(np.float64)
    u = np.exp(-s * np.log(p))
    lhs = complex(np.exp(np.sum(np.log(1 + 1j * u - (1 + 1j) * u * u))))
    lhs *= math.pi ** 4 / 90  # zeta(4)
    zeta_z = cmath.exp(pars.z * kernel.L1(2.0)) * (2.0 - 1) ** (-pars.z)
    zeta2_w = cmath.exp(pars.w * kernel.L1(4.0)) * (4.0 - 1) ** (-pars.w)
    rhs = zeta_z * zeta2_w * G_f(FIG53, 2.0, cfg)
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


# ---------------------------------------------------------------- the G kernel

CANONICAL = [MOBIUS, LIOUVILLE, ONES, FIG51A, FIG53]
PERIODIC3 = parse_eps_spec("periodic:m=3:[i,-1,exp(i*1.0)]")


@pytest.mark.parametrize(
    "spec", CANONICAL + [QUAD, PERIODIC3],
    ids=["mobius", "liouville", "ones", "fig51a", "fig53", "quadphase", "periodic3"],
)
def test_log_coefficients_against_mpmath_taylor(spec):
    # a_1 and a_2 vanish by the choice of z and w; a_3..a_12 are the Taylor
    # coefficients of log[g(u) (1-u)^z (1-u^2)^w] at u = 0
    import mpmath as mp

    a = euler_residual._log_coeffs(spec)
    assert abs(a[0]) == 0.0 and abs(a[1]) <= 1e-15 and abs(a[2]) <= 1e-15
    pars = zw_params(spec)
    eps = [mp.mpc(eps_at(spec, k)) for k in range(1, 120)]

    def log_h(u):
        g = 1 + mp.fsum(e * u ** k for k, e in enumerate(eps, start=1))
        return mp.log(g) + pars.z * mp.log(1 - u) + pars.w * mp.log(1 - u * u)

    with mp.workdps(40):
        want = mp.taylor(log_h, 0, 12)
    for k in range(3, 13):
        assert abs(a[k] - complex(want[k])) <= 1e-14 * max(1.0, abs(a[k])), (k, a[k], want[k])


@pytest.mark.parametrize("sigma", [0.35, 1.0])
@pytest.mark.parametrize("spec", [FIG53, FIG51A, QUAD], ids=["fig53", "fig51a", "quadphase"])
def test_ten_more_series_terms_stay_within_the_bound(spec, sigma, cfg):
    # the terms k = K_p + 1 .. K_p + 10 of every series prime, which the
    # kernel drops, add up to no more than SERIES_TOL; the orders are the
    # same for every spec
    logp = cfg.logp
    n_exp = int(np.searchsorted(logp, -math.log(euler_residual.RHO_SERIES) / sigma))
    logq = logp[n_exp:]
    order = euler_residual._series_orders(sigma, logq)
    a = euler_residual._log_coeffs(spec)
    for t in (0.0, 14.13, 21.02):
        s = complex(sigma, t)
        k = order[:, None] + np.arange(1, 11)  # primes x 10 dropped orders
        extra = np.sum(a[k] * np.exp(-k * s * logq[:, None]))
        assert abs(extra) <= euler_residual.SERIES_TOL, (s, abs(extra))
    assert order.max() < euler_residual._MAX_ORDER - 10


@pytest.mark.parametrize("limit", [200, 100_000])
def test_kernel_matches_the_all_primes_logs(limit):
    # below 200 every prime is explicit at Re s <= 1/2; at P = 1e5 all
    # but ~300 are series primes.  Where G is identically 1 the all-primes
    # sum carries up to 4.3e-13 of its own rounding (cm:xi=1 at s = 2: the
    # roundings of 1/(1-u) and 1 - u near 1 do not cancel over 9592
    # primes), so only the other specs are compared at 1e5.
    cfg = GfConfig(prime_limit=limit)
    specs = REF_SPECS if limit == 200 else [FIG51A, FIG53, QUAD]
    for spec in specs:
        for s in REF_POINTS:
            got = euler_residual.G_f_line(spec, s, [0.0], cfg)
            want = np.exp(np.sum(verify._log_terms(spec, s, cfg.logp)))
            assert got.shape == (1,)
            assert abs(got[0] - want) <= 3e-14 * abs(want), (spec.class_tag, s)


def test_kernel_batch_agrees_with_single_points(cfg):
    # a batch shares the phase p^{-s0} and the split of the primes at its
    # leftmost point; each point on its own may split elsewhere
    u = 0.15 * np.sin(np.arange(17) * math.pi / 32) ** 2
    for spec in (FIG53, QUAD):
        for s0 in (0.5, 0.5 + 21.022j, 1.0):
            got = euler_residual.G_f_line(spec, s0, u, cfg)
            want = np.array([G_f(spec, s0 - uk, cfg) for uk in u])
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14, (spec.class_tag, s0)


def test_kernel_argument_errors(cfg):
    with pytest.raises(RangeError):
        euler_residual.G_f_line(FIG53, 0.5, [0.0, 0.2], cfg)  # reaches Re s = 0.3
    for u in ([-0.1], [math.nan], [[0.1]], []):
        with pytest.raises(DomainError):
            euler_residual.G_f_line(FIG53, 0.5, u, cfg)
    # a zero of a local factor is a value, not an error
    spec = parse_eps_spec("finite:[-1,-1]")
    s_star = -math.log((math.sqrt(5.0) - 1.0) / 2.0) / math.log(2.0)
    got = euler_residual.G_f_line(spec, s_star + 0.1, [0.0, 0.1], cfg)
    assert abs(got[0]) > 0.1 and abs(got[1]) <= 1e-14


def test_row_map_gives_each_row_its_own_bits(cfg):
    # the series sum computes products once per upper-half-plane value and
    # hands them to every row that reads them: a repeated row, a mirror
    # given before its zero, a real row written with -0.0, two real parts
    # and 2000 rows of one real part, each with the bits of its own call
    u = np.array([0.0, 0.1, 0.25])
    line = 1.5 + 1j * np.linspace(-50.0, 50.0, 2000)
    rows = np.concatenate([
        [0.9 + 14.134725j, 0.9 + 14.134725j],  # repeated
        [0.9 - 21.022j, 0.9 + 21.022j],  # mirror first
        [complex(1.2, -0.0), 1.2 + 0j, complex(1.2, -0.0)],
        line,
    ])
    # the shared table is emptied before every call, so that each row's
    # prime sums are filled both in the batch and alone
    cfg.prime_sums.clear()
    got = euler_residual.G_f_line(FIG53, rows, u, cfg)
    assert got.shape == (rows.size, u.size)
    for i, s0 in enumerate(rows.tolist()):
        cfg.prime_sums.clear()
        want = euler_residual.G_f_line(FIG53, s0, u, cfg)
        assert got[i].tobytes() == want.tobytes(), (i, s0)


@pytest.mark.parametrize("sigma", [0.45, 0.5, 1.0])
def test_series_buffers_within_block(sigma, cfg, monkeypatch):
    # a one-point G takes its ~9500 series primes in blocks, so that no
    # buffer of the prime sums' fill holds more than _BLOCK float64 entries;
    # so do eight rows on a segment of 64 points
    import sys

    sizes = []
    empty = np.empty

    def spy(shape, dtype=float, *args, **kwargs):
        out = empty(shape, dtype, *args, **kwargs)
        if sys._getframe(1).f_code.co_name == "_fill_sums":
            sizes.append(out.nbytes // 8)
        return out

    cfg.prime_sums.clear()  # so that the point's sums are filled here
    monkeypatch.setattr(np, "empty", spy)
    G_f(FIG53, sigma, cfg)
    rows = sigma + 0.1 + 3j * np.arange(8)
    euler_residual.G_f_line(FIG53, rows, np.linspace(0.0, 0.1, 64), cfg)
    assert sizes and max(sizes) <= euler_residual._BLOCK, sizes


def test_wide_phase_needs_extended_precision(cfg, monkeypatch):
    # G reduces a phase of 8 rad or more as zeta does, so without a
    # longdouble wider than float64 it refuses such a point; a real point
    # keeps its bits.  The table is emptied first, so that the wide point's
    # powers are computed here
    real = G_f(FIG53, 0.5, cfg)
    cfg.prime_sums.clear()
    monkeypatch.setattr(zeta_kernel, "_EXTENDED_PHASE", False)
    with pytest.raises(PlatformError):
        G_f(FIG53, 0.5 + 14.134725141734694j, cfg)
    assert G_f(FIG53, 0.5, cfg) == real


def test_phase_rule_is_per_row(cfg):
    # at sigma_min = 0.4 the largest explicit prime is 53: |Im s| log 53 is
    # below 8 rad for |Im s| <= 2 and above it from 2.1 on, so one group of
    # rows mixes the float64 and the extended phase, and each row keeps the
    # bits it has alone
    u = np.array([0.0, 0.05, 0.1])
    rows = 0.5 + 1j * np.array([0.0, 1.0, -2.0, 2.1, -14.134725, 21.022, 0.3])
    logp = cfg.logp
    top = logp[np.searchsorted(logp, -math.log(euler_residual.RHO_SERIES) / 0.4) - 1]
    assert round(math.exp(top)) == 53
    wide = np.abs(rows.imag) * top >= zeta_kernel._PHASE_MAX_FLOAT64
    assert wide.any() and not wide.all()
    got = euler_residual.G_f_line(FIG53, rows, u, cfg)
    for i, s0 in enumerate(rows.tolist()):
        assert got[i].tobytes() == euler_residual.G_f_line(FIG53, s0, u, cfg).tobytes(), s0


# sigma_min: (explicit primes, top series order), as the euler_residual
# docstring and README quote them
SPLIT_AT = {0.35: (25, 46), 0.4: (16, 45), 0.5: (9, 43), 1.0: (2, 46), 1.5: (1, 44)}


@pytest.mark.parametrize("sigma", sorted(SPLIT_AT))
def test_quoted_split_of_the_primes(sigma, cfg, monkeypatch):
    # the explicit count is _G_rows's searchsorted, the top order that of
    # _series_orders at sigma_min on its 1/256 grid, both read off one
    # fill of the table
    seen = {}
    fill_explicit, fill_sums = euler_residual._fill_explicit, euler_residual._fill_sums

    def spy_explicit(points, logp):
        seen["explicit"] = logp.size
        return fill_explicit(points, logp)

    def spy_fill(reps, u, logq, active, out):
        seen["top"] = active.size - 2  # active[k], k = 0..top + 1
        return fill_sums(reps, u, logq, active, out)

    monkeypatch.setattr(euler_residual, "_fill_explicit", spy_explicit)
    monkeypatch.setattr(euler_residual, "_fill_sums", spy_fill)
    cfg.prime_sums.clear()  # so that the point's sums are filled here
    G_f(FIG53, sigma, cfg)
    assert (seen["explicit"], seen["top"]) == SPLIT_AT[sigma]


# ---------------------------------------------------------------- the shared prime sums

ORDERS = np.arange(3, euler_residual._MAX_ORDER + 1)
# g = (1-2u)/(1-u), z = w = -1: |a_k| = (2^k - 2 - 2[k even])/k
MINUS_ONES = parse_eps_spec("periodic:m=1:[-1]")


@pytest.mark.parametrize(
    "spec", CANONICAL + [QUAD, PERIODIC3, MINUS_ONES],
    ids=["mobius", "liouville", "ones", "fig51a", "fig53", "quadphase", "periodic3", "minus_ones"],
)
def test_log_coefficients_within_the_majorant(spec):
    # the series orders of every spec come from A_k = (1 + UNIT_TOL)^k
    # (2^k + 4[k even])/k >= |a_k|, k = 3..64
    a = np.abs(euler_residual._log_coeffs(spec)[3:])
    assert np.all(a <= euler_residual._majorant(ORDERS))


def test_majorant_is_tight():
    a = np.abs(euler_residual._log_coeffs(MINUS_ONES)[3:])
    want = (2.0 ** ORDERS - 2.0 - 2.0 * (ORDERS % 2 == 0)) / ORDERS
    assert np.allclose(a, want, rtol=1e-13, atol=0.0)
    ratio = a / euler_residual._majorant(ORDERS)
    assert np.all(ratio[ORDERS >= 10] >= 0.99), ratio
    # at k = 3, eps = (i, 1, -i) reaches A_3 = 8/3 up to the unit slack
    a3 = abs(euler_residual._log_coeffs(parse_eps_spec("finite:[i,1,-i]"))[3])
    assert a3 == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert a3 <= euler_residual._majorant(np.array([3]))[0] <= a3 * (1.0 + 1e-11)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.none(), st.floats(0.0, 2.0 * math.pi)), min_size=1, max_size=6))
def test_majorant_holds_on_finite_specs(angles):
    # up to six values, each unimodular or zero (None)
    values = tuple(0j if t is None else cmath.exp(1j * t) for t in angles)
    a = np.abs(euler_residual._log_coeffs(EpsilonSpec("FINITE", values=values))[3:])
    assert np.all(a <= euler_residual._majorant(ORDERS)), values


def test_prime_sums_are_shared_by_every_spec_and_batch(cfg):
    # S_k = sum_p p^{-k s} depends on the row and u only: a row has the
    # same bits whether its sums were filled by this spec or another,
    # alone or in a batch, and a second spec's call fills nothing
    sums = cfg.prime_sums
    u = 0.1 * np.sin(np.arange(17) * math.pi / 32) ** 2
    rows = np.array([0.5, 0.5 + 14.134725141734694j, 0.5 - 14.134725141734694j, 0.5 + 21.022j])

    def bits(spec):
        return [euler_residual.G_f_line(spec, s0, u, cfg).tobytes() for s0 in rows]

    sums.clear()
    alone = bits(FIG53)  # each row fills alone; the mirror reads its zero's sums
    misses = sums.misses
    assert bits(FIG53) == alone and sums.misses == misses
    sums.clear()
    batch = euler_residual.G_f_line(FIG53, rows, u, cfg)
    assert [row.tobytes() for row in batch] == alone
    for other in (QUAD, FIG51A):
        sums.clear()
        euler_residual.G_f_line(other, rows, u, cfg)
        misses, hits = sums.misses, sums.hits
        assert bits(FIG53) == alone
        assert sums.misses == misses and sums.hits == hits + rows.size


def test_row_bits_do_not_depend_on_who_filled_its_entry(cfg):
    # U = p^{-s}, E_1 and E_2 of the explicit primes live in the table
    # beside S: at sigma_min = 0.35 (25 explicit primes) a row has the same
    # G bits on a fresh table and on one that another spec filled, alone
    # and in a batch, in either half-plane
    u = np.array([0.0, 0.05, 0.1])
    rows = np.array([0.45 + 0.03j, 0.45 - 0.03j, 0.45 + 21.022j, 0.45 - 21.022j, 0.45])
    specs = (FIG53, QUAD, MINUS_ONES)

    def each_row(spec, fresh):
        out = []
        for s0 in rows.tolist():
            if fresh:
                cfg.prime_sums.clear()
            out.append(euler_residual.G_f_line(spec, s0, u, cfg).tobytes())
        return out

    # what a lower-half row reads conjugated is what it would fill itself
    points = rows[:4:2, None] - u  # the upper rows off the real axis
    mine = euler_residual._fill_explicit(points.ravel(), cfg.logp[:25])
    mirror = euler_residual._fill_explicit(points.conj().ravel(), cfg.logp[:25])
    for got, want in zip(mirror, mine):
        assert got.tobytes() == want.conj().tobytes()
    for spec in specs:
        alone = each_row(spec, fresh=True)
        cfg.prime_sums.clear()
        batch = euler_residual.G_f_line(spec, rows, u, cfg)
        assert [row.tobytes() for row in batch] == alone
        for other in specs:
            if other is not spec:
                cfg.prime_sums.clear()
                euler_residual.G_f_line(other, rows, u, cfg)
                batch = euler_residual.G_f_line(spec, rows, u, cfg)
                assert [row.tobytes() for row in batch] == alone
                assert each_row(spec, fresh=False) == alone


def test_second_spec_takes_no_powers_and_no_logs(cfg, monkeypatch):
    # a spec whose keys another spec filled computes no p^{-s} and no log:
    # g at the stored powers, one product and one dot per row
    u = np.linspace(0.0, 0.1, 9)
    rows = np.array([0.5, 0.5 + 14.134725141734694j, 0.5 - 14.134725141734694j])
    ring = 0.5 - 0.05 * np.exp(2j * math.pi * np.arange(16) / 16)
    cfg.prime_sums.clear()
    euler_residual.G_f_line(QUAD, rows, u, cfg)
    G_f(QUAD, ring, cfg)
    calls = []
    for name in ("_pow_minus_s", "_log_near_unit"):
        fn = getattr(euler_residual, name)
        monkeypatch.setattr(
            euler_residual, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args)
        )
    for spec in (FIG53, FIG51A, MOBIUS):
        euler_residual.G_f_line(spec, rows, u, cfg)
        G_f(spec, ring, cfg)
    assert calls == []
    cfg.prime_sums.clear()  # a fill takes both, so the spies see one
    G_f(FIG53, 0.5, cfg)
    assert calls == ["_pow_minus_s", "_log_near_unit", "_log_near_unit"]


def test_G_at_a_zero_of_g_at_two(cfg):
    # g(2^{-1/2}) = 1 + eps_1 2^{-1/2} + eps_2/2 = 0 with unimodular eps_2
    # where cos theta = -1.25/sqrt(2), so c_1/2 vanishes off z + w in Z: the
    # product of g at the explicit primes gives G(1/2) = 0 up to the
    # rounding of g, with no log of it taken
    eps_1 = cmath.exp(1j * math.acos(-1.25 / math.sqrt(2.0)))
    eps_2 = -2.0 - math.sqrt(2.0) * eps_1
    assert abs(abs(eps_2) - 1.0) <= 1e-15
    spec = EpsilonSpec("FINITE", values=(eps_1, eps_2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = G_f(spec, 0.5, cfg)
    assert cmath.isfinite(got) and abs(got) <= 1e-15
    assert abs(G_f(spec, 0.6, cfg)) > 1e-3


def test_prime_sums_keep_their_cap(cfg, monkeypatch):
    # past the cap the least recently used entries go: a Watson ring fills
    # one entry per upper-half-plane point, and only the last ones stay
    sums = cfg.prime_sums
    sums.clear()
    misses = sums.misses
    monkeypatch.setattr(euler_residual, "PRIME_SUMS_CAP", 20_000)
    ring = 0.5 - 0.05 * np.exp(2j * math.pi * np.arange(256) / 256)
    G_f(FIG53, ring, cfg)
    entries = sums._entries
    assert 0 < len(entries) < sums.misses - misses
    assert sums.nbytes == sum(euler_residual._entry_bytes(*e) for e in entries.items())
    assert sums.nbytes <= 20_000
    (newest, _), (oldest, _) = next(reversed(entries)), next(iter(entries))
    hits = sums.hits
    G_f(FIG53, [newest, oldest], cfg)
    assert sums.hits == hits + 2
    sums.clear()
