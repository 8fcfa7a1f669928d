"""Residual Euler product tests: cancellations, tails, factorization."""

import cmath
import math

import numpy as np
import pytest

from fakemu import euler_residual
from fakemu.eps_model import _g_eval_array, eps_at, parse_eps_spec, zw_params
from fakemu.errors import DomainError, RangeError
from fakemu.euler_residual import (
    G_f,
    G_f_tail_estimate,
    GfConfig,
    _exp1,
    _log_near_unit,
)
from fakemu.sieve import _Kahan, _sweep, primes_up_to
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
    # the tail estimate's top-octave terms cancel to ~|log v|^3, so the
    # logs must be accurate relative to |log v|, not only to 1
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


def _tail_rounding(spec, s, cfg):
    """Bound on what rounding in the three logs moves G_f_tail_estimate by.

    Its top-octave terms cancel from ~p^-sigma to ~p^-3sigma, so a relative
    error of 2 eps in each log, in either implementation, moves the decay
    constant by up to 4 eps max_p (|log g| + |z||log(1-u)| + |w||log(1-u^2)|)
    p^{3 sigma}.
    """
    pars = zw_params(spec)
    sigma = complex(s).real
    top = cfg.logp[cfg.logp >= math.log(cfg.prime_limit / 2.0)]
    u = np.exp(-complex(s) * top)
    size = (
        np.abs(np.log(_g_eval_array(spec, u)))
        + abs(pars.z) * np.abs(np.log(1.0 - u))
        + abs(pars.w) * np.abs(np.log(1.0 - u * u))
    )
    c = 4 * EPS * float(np.max(size * np.exp(3.0 * sigma * top)))
    return c * _exp1((3.0 * sigma - 1.0) * math.log(cfg.prime_limit))


def test_G_f_matches_np_log_reference(cfg):
    cases = [(spec, s) for spec in REF_SPECS for s in REF_POINTS]
    got = [(G_f(spec, s, cfg), G_f_tail_estimate(spec, s, cfg)) for spec, s in cases]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(euler_residual, "_log_near_unit", np.log)
        for (spec, s), (g, tail) in zip(cases, got):
            want = G_f(spec, s, cfg)
            assert abs(g - want) <= 1e-13 * abs(want), (spec.class_tag, s)
            want = G_f_tail_estimate(spec, s, cfg)
            floor = _tail_rounding(spec, s, cfg)
            assert abs(tail - want) <= 1e-13 * want + floor, (spec.class_tag, s)


def test_mobius_identically_one(cfg):
    for s in (0.4, 0.5 + 3j, 2.0):
        assert G_f(MOBIUS, s, cfg) == pytest.approx(1.0, abs=1e-13)


def test_liouville_identically_one(cfg):
    for s in (0.5, 0.7 + 3j, 1.4):
        assert G_f(LIOUVILLE, s, cfg) == pytest.approx(1.0, abs=1e-12)


def test_range_error(cfg):
    with pytest.raises(RangeError):
        G_f(FIG53, 0.3, cfg)


def test_vanishing_local_factor_raises(cfg):
    # g(u) = 1 - u - u^2 vanishes at u = (sqrt(5)-1)/2 = 2^{-s*}
    spec = parse_eps_spec("finite:[-1,-1]")
    s_star = -math.log((math.sqrt(5.0) - 1.0) / 2.0) / math.log(2.0)
    with pytest.raises(DomainError):
        G_f(spec, s_star, cfg)


def test_exp1_against_series():
    # cross-check CF branch against numerical quadrature
    import scipy.integrate as si

    for x in (0.5, 1.5, 3.0, 8.0):
        val, _ = si.quad(lambda t: math.exp(-t) / t, x, 200.0)
        assert _exp1(x) == pytest.approx(val, rel=1e-9)


def test_tail_estimate_examples(cfg):
    assert G_f_tail_estimate(MOBIUS, 0.5, cfg) == 0.0
    est = G_f_tail_estimate(FIG53, 0.5, cfg)
    assert 0 < est <= 1e-3
    est2 = G_f_tail_estimate(FIG53, 0.5, GfConfig(prime_limit=200_000))
    assert est2 < est


def test_tail_estimate_zero_where_G_is_one(cfg):
    # G is identically 1, so every top-octave term is rounding noise
    for spec in (ONES, LIOUVILLE):
        for s in REF_POINTS:
            assert G_f_tail_estimate(spec, s, cfg) == 0.0, (spec.xi, s)


def test_tail_estimate_zero_below_rounding(cfg):
    # at Re s = 2 the top-octave terms, ~p^-6, lie below the rounding of
    # their three logs, ~eps; at Re s <= 1 they do not
    assert G_f_tail_estimate(FIG53, 2.0, cfg) == 0.0
    assert G_f_tail_estimate(FIG53, 1.0, cfg) > 0.0
    assert G_f_tail_estimate(FIG53, 0.5, cfg) == 0.0005010646952603314  # unchanged


def test_truncation_convergence(cfg):
    big = GfConfig(prime_limit=200_000)
    for spec in TEST_SPECS:
        for s in (0.5, 0.75, 1.5):
            base = cmath.log(G_f(spec, s, cfg))
            refined = cmath.log(G_f(spec, s, big))
            est = G_f_tail_estimate(spec, s, cfg)
            assert abs(refined - base) <= 3 * est + 1e-13, (spec.class_tag, s)


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
        acc = _Kahan()
        _sweep(spec, 10 ** 6, lambda n, f: acc.add(complex(np.sum(f * n ** (-s)))))
        zeta_z = cmath.exp(pars.z * kernel.L1(s)) * (s - 1) ** (-pars.z)
        zeta2_w = cmath.exp(pars.w * kernel.L1(2 * s)) * (2 * s - 1) ** (-pars.w)
        rhs = zeta_z * zeta2_w * G_f(spec, s, cfg)
        series_tail = (10.0 ** 6) ** (1 - s) / (s - 1)
        g_tail = G_f_tail_estimate(spec, s, cfg) * abs(rhs)
        assert abs(acc.s - rhs) <= 3 * (series_tail + g_tail) + 1e-10, spec.class_tag


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
    # kernel drops, add up to no more than SERIES_TOL
    logp = cfg.logp
    n_exp = int(np.searchsorted(logp, -math.log(euler_residual.RHO_SERIES) / sigma))
    logq = logp[n_exp:]
    order = euler_residual._series_orders(spec, sigma, logq)
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
            want = np.exp(np.sum(euler_residual._log_terms(spec, s, cfg.logp)))
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
    # a vanishing local factor is caught on the explicit primes of a batch
    spec = parse_eps_spec("finite:[-1,-1]")
    s_star = -math.log((math.sqrt(5.0) - 1.0) / 2.0) / math.log(2.0)
    with pytest.raises(DomainError, match="p ~ 2,"):
        euler_residual.G_f_line(spec, s_star + 0.1, [0.0, 0.1], cfg)
