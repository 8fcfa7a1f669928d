"""Explicit-formula parts: integrands, quadrature, residues, Watson."""

import cmath
import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from fakemu import euler_residual, explicit_formula, zeta_kernel
from fakemu.eps_model import parse_eps_spec, zw_params
from fakemu.errors import (
    DomainError,
    QuadratureError,
    RangeError,
    WindowError,
)
from fakemu.explicit_formula import (
    FormulaConfig,
    J,
    a_exp_formula,
    c_half,
    delta_1,
    delta_half,
    delta_rho,
    watson_coeffs,
    watson_delta_half,
    zero_sum,
)
from fakemu.sieve import direct_exp_sum
from fakemu.euler_residual import G_f, G_f_line, GfConfig
from fakemu.zeta_kernel import ZetaKernel, default_kernel, gamma, zeta

MOBIUS = parse_eps_spec("finite:[-1]")
LIOUVILLE = parse_eps_spec("cm:xi=-1")
ONES = parse_eps_spec("cm:xi=1")
FIG53 = parse_eps_spec("periodic:m=2:[i,-i]")
FIG53_CONJ = parse_eps_spec("periodic:m=2:[-i,i]")
FIG51A = parse_eps_spec("finite:[exp(i*pi/5),1]")
# w = 1 (within 2.2e-16) at the non-real z = 1/4 + i sqrt(15)/4
W_ONE = parse_eps_spec("finite:[exp(i*1.3181160716528177),exp(i*0.8127555613686607)]")

ZETA_HALF = -1.4603545088095868
L1_HALF = math.log(0.73017725440479343)


@pytest.fixture(scope="module")
def cfg():
    return FormulaConfig()


# ---------------------------------------------------------------- integrands

def test_j1_at_zero_mobius(cfg):
    assert J(MOBIUS, "one", 0.0, cfg) == pytest.approx(1.0, rel=1e-12)


def test_j1_at_zero_general(cfg):
    # J1(0) = zeta(2)^w G(1)
    pars = zw_params(FIG53)
    kernel = default_kernel()
    want = cmath.exp(pars.w * kernel.L1(2.0)) * G_f(FIG53, 1.0, cfg.gf_config)
    assert J(FIG53, "one", 0.0, cfg) == pytest.approx(want, rel=1e-10)


def test_j1_exp_identity_interior(cfg):
    # internal consistency: J1 equals the product of its factors at u=0.25
    u = 0.25
    kernel = default_kernel()
    pars = zw_params(LIOUVILLE)
    want = (
        cmath.exp(pars.z * kernel.L1(1 - u) + pars.w * kernel.L1(2 - 2 * u))
        * (1 - 2 * u) ** (-pars.w)
        * G_f(LIOUVILLE, 1 - u, cfg.gf_config)
        * gamma(1 - u)
    )
    assert J(LIOUVILLE, "one", u, cfg) == pytest.approx(want, rel=1e-12)


def test_j1_range_errors(cfg):
    with pytest.raises(RangeError):
        J(MOBIUS, "one", 0.6, cfg)
    with pytest.raises(RangeError):
        J(MOBIUS, "one", 0.5, cfg)


def test_j_half_at_zero_mobius(cfg):
    """J_half(0) = (1/4)(1/2)^{-z} Z(1/2;z) G(1/2) sqrt(pi); regression lock.

    For z=-1: (1/8) * 2 e^{-L1(1/2)} * sqrt(pi) = 0.60685738983691...
    """
    want = 0.25 * 0.5 * (2 * math.exp(-L1_HALF)) * math.sqrt(math.pi)
    assert want == pytest.approx(0.6068573898369161, rel=1e-12)
    assert J(MOBIUS, "half", 0.0, cfg) == pytest.approx(want, rel=1e-10)


def test_j_half_conj_symmetry(cfg):
    # real-eps spec: Schwarz reflection in u
    u = 0.03 + 0.02j
    a = J(MOBIUS, "half", u.conjugate(), cfg)
    b = J(MOBIUS, "half", u, cfg).conjugate()
    assert a == pytest.approx(b, rel=1e-11)


def test_j_half_range_error(cfg):
    with pytest.raises(RangeError):
        J(MOBIUS, "half", 0.2, cfg)


def test_j_rho_limit_identity(cfg):
    """J_rho(0) built from the local log sweep equals the direct product
    with Z_rho(rho;z) = exp(z log((rho-1) zeta'(rho)))."""
    kernel = default_kernel()
    rho = kernel.rho(1)
    pars = zw_params(FIG53)
    zp = kernel.zeta_prime_at_zero(1)
    from fakemu.explicit_formula import _ctx

    ctx = _ctx(FIG53, cfg)
    direct = (
        (rho - 1.0) ** (-pars.z)
        * ctx.G(rho)
        * cmath.exp(pars.z * cmath.log((rho - 1.0) * zp))
        * cmath.exp(pars.w * complex(kernel.rho_sweep(1).at(0.0)[1][0]))  # zeta(2 rho)^w
        * gamma(rho)
    )
    assert J(FIG53, ("zero", 1), 0.0, cfg) == pytest.approx(direct, rel=1e-7)


def test_j_rho_gamma_decay_bound(cfg):
    kernel = default_kernel()
    for k in (1, 3):
        g = kernel.table.ordinates[k - 1]
        for u in (0.0, 0.05, 0.1):
            val = abs(J(FIG53, ("zero", k), u, cfg))
            assert val <= 1e3 * math.exp(-math.pi * g / 2) * (1 + g) ** 3


def test_j_rho_range_error(cfg):
    with pytest.raises(RangeError):
        J(FIG53, ("zero", 1), 1.0, cfg)
    with pytest.raises(RangeError):
        J(FIG53, ("zero", 1), 0.3 + 0.4j, cfg)  # off the disc |u| <= 0.45


def test_j_off_the_disc_does_no_work():
    # u = 0.2 + 0.1i is inside zero 1's gap radius 0.45 but at Re s = 0.3 <
    # RE_S_MIN: J refuses it before it continues the zero's logs there
    kernel = ZetaKernel(default_kernel().table)
    cfg = FormulaConfig(n_zeros=1, kernel=kernel)
    with pytest.raises(RangeError):
        J(FIG53, ("zero", 1), 0.2 + 0.1j, cfg)
    assert kernel.rho_sweep(1).u.size == 1
    assert J(FIG53, "zero:1", 0.05, cfg) == J(FIG53, ("zero", 1), 0.05, cfg)


# frozen from the previous continuation routes (a straight segment from
# rho + r for the local log, a horizontal path from 3 + 2i gamma for
# log zeta(2s)); the one-leg route agrees to ~3e-15 relative
J_RHO_COMPLEX = [
    (FIG53, 1, 0.03 + 0.02j, -5.638176460871695e-10 + 5.111343341295134e-10j),
    (FIG53, 1, -0.05 + 0.1j, -9.746192955746177e-10 + 6.347822018496239e-10j),
    (FIG53, 1, -0.3 + 0.2j, -2.195715716670576e-09 - 6.251129708381603e-11j),
    (FIG53, 2, 0.1j, 1.1667528183666013e-14 - 5.4107483350537665e-15j),
    (FIG53, 2, -0.3 + 0.2j, 2.4745464278391492e-14 - 2.4018064734504085e-14j),
    (FIG51A, 1, 0.1j, -7.438560956316341e-10 - 4.985184098333281e-10j),
    (FIG51A, 2, 0.03 + 0.02j, 1.845044615987107e-15 - 7.041137155004344e-15j),
    (FIG51A, 2, -0.05 + 0.1j, 2.2210482929068254e-15 - 1.2382184611242055e-14j),
    (MOBIUS, 1, -0.3 + 0.2j, -1.2515451541371074e-09 - 2.1462749010583277e-09j),
    (MOBIUS, 2, 0.03 + 0.02j, 5.946152701165774e-15 - 7.138628987928883e-15j),
]


@pytest.mark.parametrize("spec, k, u, want", J_RHO_COMPLEX)
def test_j_rho_complex_u_frozen(spec, k, u, want):
    got = J(spec, ("zero", k), u, FormulaConfig(n_zeros=2))
    assert abs(got - want) <= 1e-13 * abs(want)


def test_j_rho_continuous_off_the_line(cfg):
    # a wrong branch off the line would jump by a factor e^{2 pi i z} or
    # e^{2 pi i w}; the analytic J moves by ~1e-6 |J'| and its mean over
    # u +- 1e-6 i by ~1e-12 |J''|
    for spec in (FIG53, FIG51A):
        for k in (1, 2):
            for u in (0.05, 0.1, -0.2):
                j0 = J(spec, ("zero", k), u, cfg)
                up = J(spec, ("zero", k), complex(u, 1e-6), cfg)
                down = J(spec, ("zero", k), complex(u, -1e-6), cfg)
                assert abs(up - j0) <= 1e-4 * abs(j0), (k, u)
                assert abs(down - j0) <= 1e-4 * abs(j0), (k, u)
                assert abs((up + down) / 2 - j0) <= 1e-9 * abs(j0), (k, u)


def test_j_rho_exp_identity_ones(cfg):
    # cm:xi=1: z = 1, w = 0, so no branch enters and
    # J_rho(u) = zeta(s) Gamma(s) G(s) (s-1) / ((rho-1-u)(s-rho)), s = rho - u
    assert zw_params(ONES).z == 1 and zw_params(ONES).w == 0
    kernel = default_kernel()
    for k in (1, 2, 5):
        rho = kernel.rho(k)
        for u in (0.03 + 0.02j, -0.05 + 0.1j, 0.1j, -0.3 + 0.2j, 0.05, -0.2):
            s = rho - u
            want = -zeta(s) * gamma(s) * G_f(ONES, s, cfg.gf_config) / u
            assert abs(J(ONES, ("zero", k), u, cfg) - want) <= 1e-12 * abs(want), (k, u)


# ---------------------------------------------------------------- delta_1

def test_delta_1_mobius_zero(cfg):
    assert delta_1(MOBIUS, 1e4, cfg) == 0


def test_delta_1_ones_residue(cfg):
    # f == 1: residue x * zeta(2)^0 * G(1) = x
    for x in (100.0, 1e4):
        assert delta_1(ONES, x, cfg) == pytest.approx(x, rel=1e-12)
        direct = direct_exp_sum(ONES, x)
        assert abs(direct - delta_1(ONES, x, cfg)) < 0.51  # -1/2 + O(1/x)


def test_delta_1_precondition(cfg):
    with pytest.raises(DomainError):
        delta_1(MOBIUS, 2.0, cfg)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "part",
    [
        lambda x: a_exp_formula(MOBIUS, x),
        lambda x: delta_1(FIG53, x),
        lambda x: delta_half(FIG53, x),
        lambda x: delta_rho(FIG53, 1, x),
        lambda x: zero_sum(MOBIUS, x),
        lambda x: watson_delta_half(FIG53, x, 2),
    ],
    ids=["a_exp_formula", "delta_1", "delta_half", "delta_rho", "zero_sum", "watson"],
)
def test_non_finite_x_is_a_domain_error(part, x):
    # nan used to give NaN parts (or a QuadratureError), inf a bare ValueError
    with pytest.raises(DomainError, match="finite"):
        part(x)


# ---------------------------------------------------------------- delta_half

def test_delta_half_liouville_residue(cfg):
    # sqrt(x) Gamma(1/2) / (2 zeta(1/2))
    coef = math.sqrt(math.pi) / (2 * ZETA_HALF)
    assert coef == pytest.approx(-0.6068573898369092, rel=1e-12)
    got = delta_half(LIOUVILLE, 1e4, cfg)
    assert got == pytest.approx(coef * 100.0, rel=1e-10)


def test_delta_half_sine_zero(cfg):
    # z + w = 1 integer, w = 0 != 1: exactly zero
    assert delta_half(ONES, 1e3, cfg) == 0


def test_delta_half_fig53_regression(cfg):
    # quadrature value locked after first computation; the Watson
    # truncation cross-checks order of magnitude (its remainder at
    # L = log 1e4 is ~L^-4 * 385 ~ 1.6, a third of the value)
    got = delta_half(FIG53, 1e4, cfg)
    assert got == pytest.approx(complex(-4.66409808551258, 0.5301488920658628), rel=1e-9)
    wats = watson_delta_half(FIG53, 1e4, 3, cfg)
    assert abs(wats - got) <= 0.5 * abs(got)


def test_delta_half_window_error(cfg):
    # cos(theta) = -1/4, eps_2 = 1 attains Re w = 25/16 > 1 with w != 1
    spec = parse_eps_spec("finite:[exp(i*1.8234765819369751),1]")
    pars = zw_params(spec)
    assert pars.w.real > 1 and not pars.w_is_one
    with pytest.raises(WindowError):
        delta_half(spec, 1e3, cfg)


def test_delta_1_window_error(cfg):
    # (1 - 2u)^(-w) is not integrable at u = 1/2 for Re w >= 1: the window is
    # checked before the quadrature, also at the w = 1 that the residue at
    # 1/2 admits (W_ONE's quadrature used to stop at MAX_LEVEL instead)
    for spec in (parse_eps_spec("finite:[exp(i*1.8234765819369751),1]"), W_ONE):
        with pytest.raises(WindowError):
            delta_1(spec, 1e3, cfg)
        with pytest.raises(WindowError):
            a_exp_formula(spec, 1e3, cfg)


def test_delta_half_conj_spec_symmetry(cfg):
    a = delta_half(FIG53_CONJ, 1e3, cfg)
    b = delta_half(FIG53, 1e3, cfg).conjugate()
    assert a == pytest.approx(b, rel=1e-9)


# ---------------------------------------------------------------- delta_rho

def test_delta_rho_mobius_residue(cfg):
    got = delta_rho(MOBIUS, 1, 1e4, cfg)
    # residue Gamma(rho) x^rho / zeta'(rho); magnitude oracle
    kernel = default_kernel()
    rho = kernel.rho(1)
    mag = abs(gamma(rho)) * 100.0 / abs(kernel.zeta_prime_at_zero(1))
    assert abs(got) == pytest.approx(mag, rel=1e-8)
    assert got == pytest.approx(
        complex(-5.922727565412239e-08, 4.0897995000733135e-08), rel=1e-7
    )


@pytest.mark.parametrize("k", [1, 2])
def test_delta_rho_mobius_residue_against_mpmath(cfg, k):
    # Gamma(rho) x^rho / zeta'(rho) at the table's rho, with mpmath at 40
    # digits (measured 1.0e-14 and 1.5e-14 relative at zeros 1 and 2)
    rho = default_kernel().rho(k)
    with mp.workdps(40):
        r = mp.mpc(rho.real, rho.imag)
        want = complex(mp.gamma(r) * mp.power(1e3, r) / mp.zeta(r, derivative=1))
    got = delta_rho(MOBIUS, k, 1e3, cfg)
    assert abs(got - want) <= 5e-14 * abs(want)


def test_delta_rho_sine_zeros(cfg):
    assert delta_rho(ONES, 1, 1e3, cfg) == 0


def test_delta_rho_decay_in_index(cfg):
    vals = [abs(delta_rho(FIG53, k, 1e4, cfg)) for k in (1, 2, 3, 5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_zero_sum_tail_ratio(cfg):
    t1 = abs(delta_rho(FIG53, 1, 1e4, cfg))
    t30 = abs(delta_rho(FIG53, 30, 1e4, cfg))
    assert t30 / t1 < 1e-20


def test_zero_sum_real_for_real_eps(cfg):
    v = zero_sum(MOBIUS, 1e4, cfg)
    assert v.imag == 0
    assert abs(v) <= 1e-6


@pytest.mark.parametrize("x", ["1e3", None, 1e3 + 0j])
def test_x_must_be_a_real_number(x):
    # each used to raise a bare TypeError from the range comparison
    cfg = FormulaConfig(n_zeros=1)
    for part in (delta_1, delta_half, zero_sum, a_exp_formula):
        with pytest.raises(DomainError, match="x must be a finite real number"):
            part(ONES, x, cfg)
    assert delta_1(ONES, np.float64(1e3), cfg) == delta_1(ONES, 1000, cfg)


@pytest.mark.parametrize("n_zeros", [0, 1])
def test_zero_sum_checks_x(n_zeros):
    # x is checked up front, also when no zero pair is summed
    with pytest.raises(DomainError):
        zero_sum(FIG53, 1.0, FormulaConfig(n_zeros=n_zeros))


def test_delta_rho_mirror_vs_conj_spec(cfg):
    # independent continuation at -gamma must mirror the conjugated spec
    a = delta_rho(FIG53, 1, 1e4, cfg, conjugate=True)
    b = delta_rho(FIG53_CONJ, 1, 1e4, cfg).conjugate()
    assert a == pytest.approx(b, rel=1e-10)


# ---------------------------------------------------------------- quadrature

# Cuts whose endpoint exponent Re beta nears 1 inside the paper's window,
# at x = 1e4 with two pairs of zeros.  Each singular end is a closed-form
# piece over [0, r], so an exponent near 1 costs no nodes; the parts with a
# reference and the whole evaluates once stopped at a level cap of the
# tanh-sinh rule this replaced.  The references are a Hankel-loop
# quadrature of the same integrals (Gauss-Legendre on a loop around each
# end), stable to ~1e-14 across its radii.
@pytest.mark.parametrize("part, text, want", [
    pytest.param(part, text, want, id=f"{part}-{text}") for part, text, want in (
        ("delta_1", "finite:[exp(i*0.25)]", None),  # Re z = 0.969
        ("delta_1", "finite:[exp(i*0.2)]", 5371.6245279803 + 2638.2880784156j),  # Re z = 0.980
        # Re(-z) = 0.999
        ("delta_rho", "finite:[exp(i*3.1)]", -5.3181352971019e-8 + 4.8430474702713e-8j),
        ("delta_half", "finite:[exp(i*1.009099),1]", None),  # Re w = 0.95
        ("delta_half", "finite:[exp(i*1.024249),1]", 5.3445290241617 - 5.1923255611412j),  # 0.97
        # Re w = 0.990: the right end of the cut at 1 and the left end at 1/2
        ("a_exp_formula", "finite:[exp(i*1.0398),1]", None),
        ("a_exp_formula", "finite:[exp(i*2.55),i]", None),  # Re(-z) = 0.83: the zero cuts
        ("a_exp_formula", "finite:[exp(i*3.34),i]", None),  # Re(-z) = 0.98
    )
])
def test_endpoint_exponent_near_one(part, text, want):
    spec = parse_eps_spec(text)
    cfg = FormulaConfig(n_zeros=2)
    if part == "delta_rho":
        got = delta_rho(spec, 1, 1e4, cfg)
    elif part == "a_exp_formula":
        got = a_exp_formula(spec, 1e4, cfg).total
    else:
        got = {"delta_1": delta_1, "delta_half": delta_half}[part](spec, 1e4, cfg)
    assert cmath.isfinite(got) and got != 0
    if want is not None:
        assert abs(got - want) <= 3e-14 * abs(want), got


def _every_part(spec, x, cfg):
    """delta_1, delta_half and delta_rho at zero 1 and its mirror."""
    parts = [delta_1(spec, x, cfg), delta_half(spec, x, cfg)]
    return parts + [delta_rho(spec, 1, x, cfg, conj) for conj in (False, True)]


def test_zero_parts_hold_at_half_the_split_radius(monkeypatch):
    # each end's piece and the panels that start at its r meet at r = R/16;
    # at r = R/32 (another series length, other panels) no part moves by
    # more than 1e-14, near the window's edge too
    specs = [
        parse_eps_spec(text) for text in (
            "finite:[exp(i*3.1)]", "finite:[exp(i*2.55),i]", "finite:[exp(i*3.34),i]",
            "quadphase:alpha=0.381966",
        )
    ]
    default = [_every_part(spec, 1e4, FormulaConfig(n_zeros=1)) for spec in specs]
    monkeypatch.setattr(explicit_formula, "_SPLIT", 32.0)
    for spec, parts in zip(specs, default):
        for got, want in zip(_every_part(spec, 1e4, FormulaConfig(n_zeros=1)), parts):
            assert abs(got - want) <= 1e-14 * abs(want), (spec, got, want)


@pytest.mark.parametrize("part", [delta_1, a_exp_formula])
def test_a_part_past_the_largest_double_is_a_range_error(part):
    # Delta_1 of fig53 at x = 1e308 is x times ~2: it used to come back as
    # inf+infj (and the CLI wrote Infinity, which is not JSON)
    with pytest.raises(RangeError, match="delta_1 at x = 1e[+]?308 is .*not a finite number"):
        part(FIG53, 1e308, FormulaConfig(n_zeros=2))
    assert cmath.isfinite(delta_1(FIG53, 1e300, FormulaConfig(n_zeros=2)))


def test_config_invariants():
    with pytest.raises(DomainError):
        FormulaConfig(a=0.3)
    with pytest.raises(DomainError):
        FormulaConfig(a=0.34)  # G_f is read down to Re s = a >= 0.35
    assert FormulaConfig(a=0.35).a == 0.35
    with pytest.raises(DomainError):
        FormulaConfig(a=0.55)
    with pytest.raises(DomainError):
        FormulaConfig(a=0.45)  # the Watson ring needs 1/2 - a > 0.05
    with pytest.raises(DomainError):
        FormulaConfig(n_zeros=101)  # exceeds table size


@pytest.mark.parametrize("n_zeros", [2.5, 2.0, True, "2", None])
def test_n_zeros_must_be_an_integer(n_zeros):
    # 2.5 used to pass and fail in the zero sum with a bare TypeError
    with pytest.raises(DomainError, match="n_zeros must be an integer"):
        FormulaConfig(n_zeros=n_zeros)
    cfg = FormulaConfig(n_zeros=np.int64(1))
    assert len(a_exp_formula(FIG53, 1e3, cfg).delta_rho) == 1


@pytest.mark.parametrize("a", ["0.4", None, 0.4 + 0j, True])
def test_a_must_be_a_real_number(a):
    # "0.4" and None used to raise a bare TypeError
    with pytest.raises(DomainError, match="a must be a real number"):
        FormulaConfig(a=a)
    assert FormulaConfig(a=np.float64(0.37), n_zeros=0).a == 0.37


@pytest.mark.parametrize("kernel", ["x", 0, default_kernel().table])
def test_kernel_must_be_a_zeta_kernel(kernel):
    # "x" used to raise an AttributeError
    with pytest.raises(DomainError, match="kernel must be a ZetaKernel or None"):
        FormulaConfig(kernel=kernel)


@pytest.mark.parametrize("M", ["3", 2.0, True, None])
def test_watson_order_must_be_an_integer(M):
    # "3" used to raise a bare TypeError, and True read as 1
    cfg = FormulaConfig(n_zeros=1)
    with pytest.raises(DomainError, match="Watson order M must be an integer"):
        watson_coeffs(FIG53, "one", M, cfg)
    assert watson_coeffs(FIG53, "one", np.int64(1), cfg) == watson_coeffs(FIG53, "one", 1, cfg)


def test_config_is_frozen_once_used():
    # the config holds its contexts' cache, whose cuts its fields fixed
    cfg = FormulaConfig(n_zeros=2)
    delta_half(FIG53, 1e3, cfg)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.a = 0.36
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_zeros = -3
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.gf_config.prime_limit = 1000


def test_replaced_config_starts_an_empty_cache():
    cfg = FormulaConfig(n_zeros=2)
    delta_half(FIG53, 1e3, cfg)
    got = delta_half(FIG53, 1e3, dataclasses.replace(cfg, a=0.36))
    assert got == delta_half(FIG53, 1e3, FormulaConfig(a=0.36))


def test_quadrature_deterministic(cfg):
    a = delta_half(FIG53, 1e3, cfg)
    b = delta_half(FIG53, 1e3, FormulaConfig())
    assert a == b  # bit-identical across fresh configs


# ---------------------------------------------------------------- watson

def test_watson_lambda0_matches_j(cfg):
    for point, j0 in (
        ("one", J(FIG53, "one", 0.0, cfg)),
        ("half", J(FIG53, "half", 0.0, cfg)),
        (("zero", 1), J(FIG53, ("zero", 1), 0.0, cfg)),
    ):
        lam = watson_coeffs(FIG53, point, 2, cfg)
        assert abs(lam[0] - j0) <= 1e-9 * abs(j0)


@pytest.mark.parametrize(
    "spec, point, j0",
    [
        (MOBIUS, "one", lambda cfg: J(MOBIUS, "one", 0.0, cfg)),              # zero part
        (MOBIUS, "zero:1", lambda cfg: J(MOBIUS, ("zero", 1), 0.0, cfg)),     # residue part
        (LIOUVILLE, "half", lambda cfg: J(LIOUVILLE, "half", 0.0, cfg)),      # residue part
    ],
)
def test_watson_lambda0_off_quadrature(cfg, spec, point, j0):
    # J and its ring exist whatever the mode of the part
    want = j0(cfg)
    lam = watson_coeffs(spec, point, 1, cfg)
    assert abs(lam[0] - want) <= 1e-9 * abs(want)


def test_watson_mobius_lambda_one(cfg):
    lam = watson_coeffs(MOBIUS, "one", 2, cfg)
    assert lam[0] == pytest.approx(1.0, rel=1e-10)


def test_watson_node_doubling(cfg, monkeypatch):
    a = watson_coeffs(FIG53, "half", 4, cfg)
    monkeypatch.setattr(explicit_formula, "WATSON_NODES", 512)
    b = watson_coeffs(FIG53, "half", 4, FormulaConfig())  # cfg's cut keeps its ring
    for x, y in zip(a, b):
        assert abs(x - y) <= 1e-11 * max(1.0, abs(y))


def test_watson_ring_is_read_once_per_cut(monkeypatch):
    # lambda_0..8 come from one ring per cut; a later x or order reads them
    cfg = FormulaConfig(n_zeros=2)
    watson_delta_half(FIG53, 1e3, 3, cfg)
    calls = _count_G_f(monkeypatch)
    watson_delta_half(FIG53, 1e4, 3, cfg)
    assert watson_coeffs(FIG53, "half", 8, cfg)[:4] == watson_coeffs(FIG53, "half", 3, cfg)
    assert calls == []


def test_watson_order_cap(cfg):
    with pytest.raises(DomainError):
        watson_coeffs(FIG53, "half", 9, cfg)


@pytest.mark.parametrize("point", ["zero:abc", "zero:", "zero:1.5", "two", ("zero", "x")])
def test_unknown_expansion_point(cfg, point):
    # "zero:abc" used to fail in a bare int()
    with pytest.raises(DomainError, match="unknown expansion point"):
        watson_coeffs(FIG53, point, 1, cfg)


def test_watson_delta_half_m0_is_c_half(cfg):
    x = 1e6
    pars = zw_params(FIG53)
    want = (
        c_half(FIG53, cfg)
        * math.sqrt(x)
        * cmath.exp((pars.w - 1) * math.log(math.log(x)))
    )
    assert watson_delta_half(FIG53, x, 0, cfg) == pytest.approx(want, rel=1e-9)


def test_watson_remainder_shrinks(cfg):
    pars = zw_params(FIG53)

    def rem(x):
        scale = math.sqrt(x) * math.log(x) ** (pars.w.real - 1)
        return abs(delta_half(FIG53, x, cfg) - watson_delta_half(FIG53, x, 3, cfg)) / scale

    r3 = rem(1e3)
    c_fit = 2.0 * r3 * math.log(1e3) ** 4  # fit at 1e3 with 2x headroom
    for x in (1e4, 1e5):
        assert rem(x) <= c_fit * math.log(x) ** (-4.0), x


# ---------------------------------------------------------------- c_half

def test_c_half_liouville(cfg):
    want = math.sqrt(math.pi) / (2 * ZETA_HALF)
    assert c_half(LIOUVILLE, cfg) == pytest.approx(want, rel=1e-10)


def test_c_half_sine_zero(cfg):
    assert c_half(ONES, cfg) == 0


def test_c_half_residue_phase_at_non_real_z(cfg):
    # z = 1/4 + i sqrt(15)/4 and w = 1: the residue at 1/2 takes
    # zeta(1/2)^z from above the cut (-inf, 1], a phase e^{-i pi z} that is
    # not real, unlike Liouville's -1
    pars = zw_params(W_ONE)
    assert pars.w_is_one and pars.z_integer_case is None
    assert abs(pars.z - complex(0.25, math.sqrt(15.0) / 4.0)) <= 1e-15
    ln_zeta_half = float(mp.log(-mp.zeta(0.5)))
    want = (
        math.sqrt(math.pi) / 2.0
        * cmath.exp(pars.z * (ln_zeta_half - 1j * math.pi))
        * G_f(W_ONE, 0.5, cfg.gf_config)
    )
    got = c_half(W_ONE, cfg)
    assert abs(got - want) <= 1e-13 * abs(want), (got, want)


def test_c_half_builds_only_the_half_cut():
    from fakemu.explicit_formula import _ctx

    cfg = FormulaConfig()
    c_half(LIOUVILLE, cfg)
    ctx = _ctx(LIOUVILLE, cfg)
    assert list(ctx._cuts) == ["half"]


def test_c_half_window_error(cfg):
    spec = parse_eps_spec("finite:[exp(i*1.8234765819369751),1]")
    with pytest.raises(WindowError):
        c_half(spec, cfg)


@pytest.mark.parametrize("k", range(1, 13))
def test_cut_sines_keep_their_digits_near_integers(k):
    # finite:[exp(i theta)] has z = e^{i theta} near 1 and z + w = z(1-z)/2
    # near 0; finite:[exp(i (pi + theta))] has z near -1 and z + w near -1.
    # Each cut's sine, and so c_1/2, takes the integer out of pi z first:
    # within 4 eps of mpmath, where sin(pi z)/pi loses up to 1/theta ulps
    from fakemu.explicit_formula import _ctx

    theta = 10.0 ** -k
    for base in (0.0, math.pi):
        spec = parse_eps_spec(f"finite:[exp(i*{base + theta!r})]")
        pars = zw_params(spec)
        z, w = (mp.mpc(v.real, v.imag) for v in (pars.z, pars.w))
        ctx = _ctx(spec, FormulaConfig(n_zeros=1))
        with mp.workdps(40):
            want = {
                "one": mp.sin(mp.pi * z) / mp.pi,
                "half": mp.sin(mp.pi * (z + w)) / mp.pi * mp.power(2, 1 - w),
                (1, False): -mp.sin(mp.pi * z) / mp.pi,
            }
            for key, value in want.items():
                got = ctx.cut(key).sine
                err = abs(mp.mpc(got.real, got.imag) - value) / abs(value)
                assert err <= 4 * 2.0 ** -52, (base, theta, key, float(err))


# ---------------------------------------------------------------- assembled

def test_a_exp_formula_structure(cfg):
    b = a_exp_formula(FIG53, 1e3, cfg)
    assert b.total == b.delta_1 + b.delta_half + b.zero_sum
    assert len(b.delta_rho) == cfg.n_zeros
    assert b.modes["delta_1"] == "quadrature"
    assert b.zero_tail <= 1e-20


def test_a_exp_formula_modes_integer(cfg):
    b = a_exp_formula(LIOUVILLE, 1e3, cfg)
    assert b.modes == {
        "delta_1": "zero",
        "delta_half": "residue",
        "delta_rho": "residue",
    }


@pytest.mark.parametrize(
    "text, modes",
    [
        ("finite:[-1]", ("zero", "zero", "residue")),
        ("finite:[0]", ("zero", "zero", "zero")),
        ("cm:xi=1", ("residue", "zero", "zero")),
        ("cm:xi=-1", ("zero", "residue", "residue")),
        # z + w = -1 with z, w non-integer (acceptance criterion 9)
        (
            "finite:[exp(i*2.4188584057763776),-0.5625-0.82679728470768465i]",
            ("quadrature", "zero", "quadrature"),
        ),
        ("periodic:m=2:[i,-i]", ("quadrature", "quadrature", "quadrature")),
    ],
)
def test_a_exp_formula_modes_table(text, modes):
    b = a_exp_formula(parse_eps_spec(text), 1e3, FormulaConfig(n_zeros=1))
    assert b.modes == dict(zip(("delta_1", "delta_half", "delta_rho"), modes))


def test_a_exp_formula_vs_direct_small(cfg):
    for spec in (MOBIUS, ONES, LIOUVILLE):
        b = a_exp_formula(spec, 1e3, cfg)
        d = direct_exp_sum(spec, 1e3)
        assert abs(d - b.total) <= 0.25 * 1e3 ** 0.45, spec.class_tag


# ---------------------------------------------------------------- G on a cut

QUAD = parse_eps_spec("quadphase:alpha=0.381966")
CANONICAL = (MOBIUS, LIOUVILLE, ONES, FIG51A, FIG53)


def _fill_cuts(spec, a):
    """Run every part once; return the context's quadrature cuts.

    quadphase runs zero 1 alone; the others run two pairs."""
    from fakemu.explicit_formula import _ctx

    cfg = FormulaConfig(a=a, n_zeros=2)
    if spec is QUAD:
        delta_1(spec, 1e3, cfg)
        delta_half(spec, 1e3, cfg)
        delta_rho(spec, 1, 1e3, cfg)
    else:
        a_exp_formula(spec, 1e3, cfg)
    ctx = _ctx(spec, cfg)
    return [cut for cut in ctx._cuts.values() if cut.mode == "quadrature"], cfg


def _rule_nodes(cut):
    """(u, cu, log cu, log weight - beta log u) at the cut's middle nodes, the
    rows of its table, with the scale _Cut.set_rule passes to cut.j."""
    u, cu, weight = cut.middle()
    return u, cu, np.log(cu), np.log(weight) - cut.beta * np.log(u)


def _cut_nodes(cut):
    u, cu, _ = cut.middle()
    return u, cu


# a = 0.45 itself leaves no room for the Watson ring (see
# test_config_invariants); 0.449 is the shortest segment a config takes
@pytest.mark.parametrize("a", [0.35, 0.40, 0.449])
@pytest.mark.parametrize(
    "spec", CANONICAL + (QUAD,),
    ids=["mobius", "liouville", "ones", "fig51a", "fig53", "quadphase"],
)
def test_g_line_matches_direct_at_every_node(spec, a):
    # The interpolant sits within CHEB_TOL of G and the kernel within
    # ~6e-15 of it (against a long-double evaluation over the same
    # primes), so they may differ by 4 CHEB_TOL.
    cuts, cfg = _fill_cuts(spec, a)
    if spec in (MOBIUS, LIOUVILLE, ONES):
        assert cuts == []  # residue and zero parts: no interpolant
        return
    for cut in cuts:
        u, cu = _cut_nodes(cut)
        got = cut.g_line(u, cu)
        want = G_f_line(spec, cut.s0, u, cfg.gf_config)
        rel = np.abs(got - want) / np.abs(want)
        assert rel.max() <= 4 * explicit_formula.CHEB_TOL, (cut.s0, rel.max())


def _g_long_double(spec, s, logp):
    """G over the same float64 log-prime table, in long double, at an array
    of points s (blocks of 16 keep the (points x primes) arrays small).

    g(u) takes the closed forms of _g_eval_array, which keep the long
    double; a quadratic phase sums its series to |u|^K < 1e-21 instead."""
    from fakemu.eps_model import _g_eval_array, eps_at

    def g(u):
        if spec.class_tag != "QUADPHASE":
            return _g_eval_array(spec, u)
        order = int(np.ceil(np.log(1e-21) / np.log(float(np.max(np.abs(u))))))
        acc = np.zeros_like(u)
        for k in range(order, 0, -1):
            acc = (acc + np.clongdouble(eps_at(spec, k))) * u
        return 1 + acc

    pars = zw_params(spec)
    z, w = np.clongdouble(pars.z), np.clongdouble(pars.w)
    logp = logp.astype(np.longdouble)
    s = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    out = np.empty(s.size, dtype=np.complex128)
    for lo in range(0, s.size, 16):
        col = s[lo : lo + 16, None]
        mod = np.exp(-col.real.astype(np.longdouble) * logp)
        ph = -col.imag.astype(np.longdouble) * logp
        u = (mod * np.cos(ph)).astype(np.clongdouble) + 1j * (mod * np.sin(ph))
        total = np.sum(np.log(g(u)) + z * np.log(1 - u) + w * np.log(1 - u * u), axis=1)
        out[lo : lo + 16] = np.exp(total)
    return out


LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="long double is float64 on this platform",
)
#: the reference points of test_euler_residual
REF_SPECS = (MOBIUS, LIOUVILLE, ONES, FIG51A, FIG53, QUAD)
REF_POINTS = [0.35, 0.4, 0.5, 0.45 + 0.03j, 0.42 + 14.13j, 1.0, 2.0]


@pytest.fixture(scope="module")
def fig53_nodes_long_double():
    """fig53's quadrature cuts at a = 0.35, each with its middle nodes
    and G there in long double."""
    cuts, cfg = _fill_cuts(FIG53, 0.35)
    logp = cfg.gf_config.logp
    return cfg, [
        (cut, *_cut_nodes(cut), _g_long_double(FIG53, cut.s0 - _cut_nodes(cut)[0], logp))
        for cut in cuts
    ]


@LONG_DOUBLE
def test_G_kernel_within_8e_15_of_long_double(fig53_nodes_long_double):
    # the parent's sum of three principal logs over all 9592 primes
    # reached 2.6e-14 here: each log carries ~eps of absolute rounding
    cfg, cuts = fig53_nodes_long_double
    logp = cfg.gf_config.logp
    for spec in REF_SPECS:
        got = np.array([G_f(spec, s, cfg.gf_config) for s in REF_POINTS])
        want = _g_long_double(spec, REF_POINTS, logp)
        rel = np.abs(got - want) / np.abs(want)
        assert rel.max() <= 8e-15, (spec.class_tag, rel.max())
    for cut, u, _, want in cuts:
        got = G_f_line(FIG53, cut.s0, u, cfg.gf_config)
        rel = np.abs(got - want) / np.abs(want)
        assert rel.max() <= 8e-15, (cut.s0, rel.max())


@LONG_DOUBLE
def test_g_line_error_grows_within_its_bound_on_the_end_rings(fig53_nodes_long_double):
    # Bernstein-Walsh: off its segment the line's error grows by at most
    # rho_z^n <= _LINE_GROWTH on an end ring, against the product in long
    # double at the same points
    cfg, cuts = fig53_nodes_long_double
    for cut, u, cu, want in cuts:
        on_segment = np.max(np.abs(cut.g_line(u, cu) - want) / np.abs(want))
        for i, end in enumerate(cut.ends):
            t = end.radius * np.exp(2j * math.pi * np.arange(end.taylor.size) / end.taylor.size)
            ring = cut.s0 - (cut.s0 - (t if i == 0 else cut.b - t))  # exact offsets
            ref = _g_long_double(FIG53, cut.s0 - ring, cfg.gf_config.logp)
            rel = np.abs(cut.g_line(ring, cut.b - ring) - ref) / np.abs(ref)
            assert rel.max() <= explicit_formula._LINE_GROWTH * on_segment, (cut.s0, i)


@LONG_DOUBLE
def test_g_line_within_the_rounding_of_G_f(fig53_nodes_long_double):
    # against the product in long double, the interpolant is within
    # 2 CHEB_TOL, its own bound (the kernel G_f_line reaches ~6e-15)
    _, cuts = fig53_nodes_long_double
    for cut, u, cu, want in cuts:
        got = cut.g_line(u, cu)
        rel = np.abs(got - want) / np.abs(want)
        assert rel.max() <= 2 * explicit_formula.CHEB_TOL, (cut.s0, rel.max())


def _end_rings(spec):
    """(cut, ring offsets u from s0) of every end ring of spec's
    quadrature cuts, two pairs of zeros, each u the exact offset s0 - s of
    the double s = s0 - u that G_f reads (at |Im s| = 21, G moves by up to
    2e-14 over the rounding of s)."""
    from fakemu.explicit_formula import _ctx

    cfg = FormulaConfig(n_zeros=2)
    a_exp_formula(spec, 1e4, cfg)
    out = []
    for cut in _ctx(spec, cfg)._cuts.values():
        for i, end in enumerate(cut.ends):
            t = end.radius * np.exp(2j * math.pi * np.arange(end.taylor.size) / end.taylor.size)
            out.append((cut, cut.s0 - (cut.s0 - (t if i == 0 else cut.b - t))))
    assert len(out) == 7
    return cfg, out


@pytest.mark.parametrize("spec", [FIG53, FIG51A, QUAD], ids=["fig53", "fig51a", "quadphase"])
def test_g_line_on_the_end_rings_within_1e_14_of_G_f(spec):
    # the end rings read G off the line, past its segment
    cfg, rings = _end_rings(spec)
    for cut, u in rings:
        want = G_f(spec, cut.s0 - u, cfg.gf_config)
        rel = np.abs(cut.g_line(u, cut.b - u) - want) / np.abs(want)
        assert rel.max() <= 1e-14, (cut.s0, rel.max())


def test_g_line_reproduces_its_samples():
    # at its own Chebyshev points the interpolant returns the samples
    calls = []

    def line(s0, u):
        calls.append((s0, u))
        s = s0[:, None] - u
        return np.exp(s * s) / (s + 2.0)

    line_s0 = 0.5 + 3j
    (g_line,) = explicit_formula._sample_g_lines(line, np.array([line_s0]), 0.15)
    n = g_line.c.size - 1
    points = np.concatenate([u for _, u in calls])
    assert all(s0.tolist() == [line_s0] for s0, _ in calls)
    assert len(calls) == round(math.log2(n / 16)) + 1  # one call per degree
    assert points.size == n + 1 and np.unique(points).size == n + 1  # nested: no point twice
    j = np.arange(n + 1)
    u = 0.15 * np.sin(j * math.pi / (2 * n)) ** 2
    cu = 0.15 * np.cos(j * math.pi / (2 * n)) ** 2
    want = line(np.array([line_s0]), u)[0]
    assert np.max(np.abs(g_line(u, cu) - want) / np.abs(want)) <= 1e-14


def _count_G_f(monkeypatch):
    calls = []
    monkeypatch.setattr(
        explicit_formula, "G_f", lambda *args: calls.append(args) or G_f(*args)
    )
    return calls


def _count_G_f_line(monkeypatch):
    """Kernel points (rows x points) of each G_f_line call, in call order."""
    points = []
    monkeypatch.setattr(
        explicit_formula,
        "G_f_line",
        lambda spec, s0, u, cfg: points.append(np.size(s0) * len(u))
        or G_f_line(spec, s0, u, cfg),
    )
    return points


def test_g_line_degree_cap(monkeypatch):
    # s = 1's segment [1/2, 1] needs degree 64 for fig53; capped at 32
    # the coefficients have not decayed, and no per-node path takes over
    monkeypatch.setattr(explicit_formula, "CHEB_MAX_DEGREE", 32)
    points = _count_G_f_line(monkeypatch)
    calls = _count_G_f(monkeypatch)
    with pytest.raises(QuadratureError, match="did not decay"):
        delta_1(FIG53, 1e3, FormulaConfig())
    # 17 + 16 points in two kernel calls, nothing after the error
    assert (points, calls) == ([17, 16], [])


def test_work_count_cold_evaluate(monkeypatch):
    # one kernel call per Chebyshev degree of each segment group: the cut
    # at 1 alone, and the cut at 1/2 with the 4 zero cuts of two pairs in
    # lock-step on the a-segment; a G_f call per tanh-sinh node took 808
    from fakemu.explicit_formula import _ctx

    points = _count_G_f_line(monkeypatch)
    cfg = FormulaConfig(n_zeros=2)
    a_exp_formula(FIG53, 1e4, cfg)
    assert sum(points) <= 250, points
    ctx = _ctx(FIG53, cfg)
    degrees = {
        key: cut.g_line.c.size - 1 for key, cut in ctx._cuts.items() if cut.mode == "quadrature"
    }
    assert len(degrees) == 6
    calls = {key: round(math.log2(n / 16)) + 1 for key, n in degrees.items()}
    one = calls.pop("one")
    assert len(points) <= one + max(calls.values()), (points, degrees)
    assert sum(points) == sum(n + 1 for n in degrees.values())


def _rows(cut):
    """(u, c) of the cut's rows, without their zero row."""
    u, c = cut.rows
    return u[1:], c[1:]


@pytest.mark.parametrize("x", [1e3, 3e4, 1e6])
def test_work_count_quadphase_zero_cuts(x):
    # each zero cut of quadphase holds 7 panels of 17 nodes at every x, as
    # the other canonical specs do; the tanh-sinh rule it replaced ran to
    # 979-3916 nodes on the zero quotient's ~1e-10 noise floor
    from fakemu.explicit_formula import _ctx

    cfg = FormulaConfig(n_zeros=2)
    a_exp_formula(QUAD, x, cfg)
    ctx = _ctx(QUAD, cfg)
    rows = [_rows(cut)[0].size for cut in ctx.zero_cuts]
    assert len(rows) == 4 and max(rows) <= 7 * 17, rows


@pytest.mark.parametrize("text", [
    "finite:[exp(i*pi/5),1]", "periodic:m=2:[i,-i]", "quadphase:alpha=0.381966",
    "quadphase:alpha=0.7", "cm:xi=exp(i*pi/3)", "finite:[exp(i*0.25)]",
    # Re(-z) = 0.999 at the zero cuts: 27574 tanh-sinh nodes once
    "finite:[exp(i*3.1)]", "finite:[exp(i*3.34),i]",
    "periodic:m=2:[exp(i*1.602646),exp(i*3.111332)]",
])
def test_rows_of_a_two_pair_evaluate(text):
    # every quadrature cut is one fixed table: at most 900 rows in all for
    # a 2-pair evaluate, whatever the end exponents
    from fakemu.explicit_formula import _ctx

    spec, cfg = parse_eps_spec(text), FormulaConfig(n_zeros=2)
    a_exp_formula(spec, 1e4, cfg)
    ctx = _ctx(spec, cfg)
    assert sum(cut.rows[0].size - 1 for cut in ctx._cuts.values() if cut.rows) <= 900


def test_l1_repeats_keep_their_point_bits():
    # L1 takes any array of points, repeats too (a call reads s and 2s):
    # a repeat keeps its point's bits
    kernel = ZetaKernel(default_kernel().table)
    L1 = ZetaKernel.L1
    points = np.array([0.5, 0.8, 0.5, 0.45 + 0.1j, 0.5, 0.8])
    assert L1(kernel, points).tolist() == [L1(kernel, s) for s in points.tolist()]


@pytest.mark.parametrize("spec", [FIG53, LIOUVILLE], ids=["quadrature", "residue"])
def test_work_count_classify(monkeypatch, spec):
    from fakemu import bias

    calls = _count_G_f(monkeypatch)
    bias.classify(spec, FormulaConfig())
    assert len(calls) == 1


def test_second_spec_fills_no_prime_sums():
    # the prime sums S_k = sum_p p^{-ks} are one table for every spec: a
    # cold 2-pair evaluate of a second spec reads the sums of the first
    sums = GfConfig().prime_sums
    sums.clear()
    a_exp_formula(FIG53, 1e4, FormulaConfig(n_zeros=2))
    hits, misses = sums.hits, sums.misses
    a_exp_formula(FIG51A, 1e4, FormulaConfig(n_zeros=2))
    assert sums.misses == misses and sums.hits > hits


def test_default_evaluate_keeps_its_prime_sums_within_the_cap():
    # a cold 30-pair evaluate fills every sum it reads (64 entries, ~0.35
    # MB) and the table keeps them all within PRIME_SUMS_CAP
    sums = GfConfig().prime_sums
    sums.clear()
    misses = sums.misses
    a_exp_formula(FIG53, 1e4, FormulaConfig())
    assert len(sums) == sums.misses - misses > 0  # none evicted
    assert sums.nbytes <= euler_residual.PRIME_SUMS_CAP


# ---------------------------------------------------------------- the fixed rule of a cut

CUT_KINDS = {"one": "one", "half": "half", "zero": (1, False), "mirror": (1, True)}


def _counting_cut(a, kind):
    """A fresh fig53 quadrature cut whose J calls are counted, and its
    context."""
    from fakemu.explicit_formula import _ctx

    ctx = _ctx(FIG53, FormulaConfig(a=a, n_zeros=1))
    cut = ctx.cut(CUT_KINDS[kind])
    assert cut.mode == "quadrature" and cut.rows is None
    calls = []
    j = cut.j
    cut.j = lambda *args: calls.append(args) or j(*args)
    return ctx, cut, calls


def _ring_values(cut, end_index):
    """(the end ring's points, J there as the end's series reads it): at u = 0
    J itself, at the right end of the cut at 1, u = 1/2 - v, u^{-beta} J v^w
    (the (2v)^{-w} of P_1 taken out), each from the cut's G line."""
    end = cut.ends[end_index]
    t = end.radius * np.exp(2j * math.pi * np.arange(end.taylor.size) / end.taylor.size)
    if end_index == 0:
        return t, cut.j(t, None, cut.g_line(t, cut.b - t))
    u = cut.b - t
    j = cut.j(u, np.log(t), cut.g_line(u, t))
    return t, j * np.exp(cut.w * np.log(t) - cut.beta * np.log(u))


@pytest.mark.parametrize("kind", list(CUT_KINDS))
@pytest.mark.parametrize("a", [0.35, 0.40, 0.449])
def test_levels_are_nested_bit_for_bit(monkeypatch, a, kind):
    # the levels of the cut's G line: each doubling of the Chebyshev degree
    # samples only the points new at it, so the samples are the final
    # grid, every point once and bit for bit; the line takes its samples'
    # values there
    samples = []

    def g_kernel(spec, s0, u, cfg):
        (row,) = G_f_line(spec, s0, u, cfg)  # a group of one cut
        samples.append((u, row))
        return row[None]

    monkeypatch.setattr(explicit_formula, "G_f_line", g_kernel)
    ctx, cut, _ = _counting_cut(a, kind)
    ctx.deltas(1e4, [cut])
    n = cut.g_line.c.size - 1
    grid = cut.b * np.sin(np.arange(n + 1) * (math.pi / (2 * n))) ** 2
    u = np.concatenate([u for u, _ in samples])
    assert len(samples) == round(math.log2(n / 16)) + 1
    assert sorted(u.tolist()) == sorted(grid.tolist()) and np.unique(u).size == n + 1
    want = np.concatenate([g for _, g in samples])
    got = cut.g_line(u, cut.b - u)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


@pytest.mark.parametrize("kind", list(CUT_KINDS))
@pytest.mark.parametrize("a", [0.35, 0.40, 0.449])
def test_cold_delta_calls_j_once_per_node(a, kind):
    # one J call on each end ring, then one on the middle nodes, whose
    # table rows are u and that call's c, each node once
    ctx, cut, calls = _counting_cut(a, kind)
    ctx.deltas(1e4, [cut])
    assert len(calls) == len(cut.ends) + 1
    for args, end in zip(calls, cut.ends):
        assert np.size(args[0]) == end.taylor.size
    u, cu, log_cu, log_scale = _rule_nodes(cut)
    args = calls[-1]
    assert args[0].tobytes() == u.tobytes() and args[1].tobytes() == log_cu.tobytes()
    assert np.unique(u).size == u.size and np.all((0 < u) & (u < cut.b))
    rows_u, rows_c = _rows(cut)
    assert rows_u.tobytes() == u.tobytes()
    assert rows_c.tobytes() == cut.j(u, log_cu, cut.g_line(u, cu), log_scale).tobytes()


@pytest.mark.parametrize("kind", list(CUT_KINDS))
@pytest.mark.parametrize("a", [0.35, 0.40, 0.449])
def test_warm_delta_reads_the_level_table(monkeypatch, a, kind):
    # a new x on a warm cut builds no rule and calls no J: it reads the
    # cut's table and end pieces
    ctx, cut, calls = _counting_cut(a, kind)
    for x in (1e3, 1e5, 1e8):
        ctx.deltas(x, [cut])
    rows, ends, n_calls = cut.rows, cut.ends, len(calls)
    built = []
    panels = explicit_formula._panels
    monkeypatch.setattr(
        explicit_formula, "_panels", lambda *args: built.append(args) or panels(*args)
    )
    ctx.deltas(3e4, [cut])
    assert (len(calls), built) == (n_calls, []) and cut.rows is rows and cut.ends is ends


@pytest.mark.parametrize("x", [1e3, 1e8])
@pytest.mark.parametrize("kind", list(CUT_KINDS))
@pytest.mark.parametrize("a", [0.35, 0.40, 0.449])
def test_layers_sum_to_the_plain_trapezoid(a, kind, x):
    # each end's Taylor coefficients are the plain trapezoid rule on its
    # ring, lambda_k R^k = (1/N) sum_j J(u_j) e^{-2 pi i jk/N}; the table's
    # segment sums to the plain sum of c e^{-Lu} over the middle nodes, each
    # term one cut.j call with -Lu in its log scale, within 8 ulps of its
    # mass; and delta is sine x^xi times that sum plus the end pieces
    ctx, cut, _ = _counting_cut(a, kind)
    [got] = ctx.deltas(x, [cut])
    assert len(cut.ends) == (2 if kind == "one" else 1)
    for i, end in enumerate(cut.ends):
        _, vals = _ring_values(cut, i)
        k = np.arange(vals.size)
        trapezoid = np.exp(-2j * math.pi * np.outer(k, k) / vals.size) @ vals / vals.size
        assert np.max(np.abs(end.taylor - trapezoid)) <= 64 * 2.0 ** -53 * np.max(np.abs(vals))
    ell = math.log(x)
    u, cu, log_cu, log_scale = _rule_nodes(cut)
    terms = cut.j(u, log_cu, cut.g_line(u, cu), log_scale - ell * u)
    want, mass = complex(np.sum(terms)), float(np.sum(np.abs(terms)))
    rows_u, rows_c = _rows(cut)
    assert abs(complex(np.sum(rows_c * np.exp(-ell * rows_u))) - want) <= 8 * 2.0 ** -53 * mass
    ends = [end(ell) for end in cut.ends]
    scale = cut.sine * cut.x_pow(x)
    bound = 8 * 2.0 ** -53 * abs(scale) * (mass + sum(map(abs, ends)))
    assert abs(got - scale * (want + sum(ends))) <= bound, (got, scale * (want + sum(ends)))


@pytest.mark.parametrize("spec", [FIG53, FIG51A, QUAD], ids=["fig53", "fig51a", "quadphase"])
def test_end_rings_mean_is_j_at_the_end(spec):
    # lambda_0, the mean of J over each end ring, is J at the end itself
    # (the direct value, G from G_f): at u = 0 of every quadrature cut J(0),
    # and at u = 1/2 of the cut at 1 the limit of u^{-z} J (1-2u)^w 2^{-w}
    from fakemu.explicit_formula import _ctx

    cfg = FormulaConfig(n_zeros=2)
    a_exp_formula(spec, 1e4, cfg)
    cuts = [cut for cut in _ctx(spec, cfg)._cuts.values() if cut.mode == "quadrature"]
    assert len(cuts) == 6
    for cut in cuts:
        assert abs(cut.ends[0].taylor[0] - cut.j0) <= 1e-14 * abs(cut.j0), cut.s0
    one = _ctx(spec, cfg).cut("one")
    pars = zw_params(spec)
    at_half = (
        cmath.exp(pars.z * (math.log(2.0) + L1_HALF) - pars.w * math.log(2.0))
        * G_f(spec, 0.5, cfg.gf_config) * math.sqrt(math.pi)
    )
    assert abs(one.ends[1].taylor[0] - at_half) <= 1e-14 * abs(at_half)


def test_warm_a_exp_formula_does_only_x_work(monkeypatch):
    # a new x on a filled config reads the table, the end pieces and the
    # context's cut lists: no J, G, node, rule, gamma, zeta, L1, sweep,
    # realness or sampling call, and the bits a cold config gets at that x
    from fakemu.eps_model import EpsilonSpec

    specs = (FIG53, FIG51A, LIOUVILLE, QUAD)
    cfg = FormulaConfig(n_zeros=1)
    for spec in specs:
        for x in (1e3, 1e5, 1e8):
            a_exp_formula(spec, x, cfg)
    cold = [a_exp_formula(spec, 3.7e5, FormulaConfig(n_zeros=1)) for spec in specs]
    calls = []
    for owner, name in (
        (explicit_formula._Cut, "j"),
        (explicit_formula, "G_f_line"),
        (explicit_formula, "G_f"),
        (explicit_formula, "_panels"),
        (explicit_formula, "gamma"),
        (zeta_kernel, "zeta"),
        (zeta_kernel.ZetaKernel, "L1"),
        (zeta_kernel.RhoSweep, "at"),
        (EpsilonSpec, "is_real_valued"),
        (explicit_formula, "_sample_g_lines"),
        (explicit_formula._Cut, "set_rule"),
    ):
        f = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *args, f=f, name=name: calls.append(name) or f(*args)
        )
    assert [a_exp_formula(spec, 3.7e5, cfg) for spec in specs] == cold
    assert calls == []


def _parts_alone(spec, x, cfg_of):
    """delta_1, delta_half, each zero pair and zero_sum, each part on the
    config cfg_of() gives (a pair's mirror term as a_exp_formula takes it)."""
    real = spec.is_real_valued()
    parts = [delta_1(spec, x, cfg_of()), delta_half(spec, x, cfg_of())]
    for k in (1, 2):
        d = delta_rho(spec, k, x, cfg_of())
        parts.append(d + (d.conjugate() if real else delta_rho(spec, k, x, cfg_of(), True)))
    return parts + [zero_sum(spec, x, cfg_of())]


@pytest.mark.parametrize("x", [1e3, 3.7e5])
@pytest.mark.parametrize("spec", [FIG53, FIG51A, QUAD, LIOUVILLE], ids=lambda s: s.class_tag)
def test_a_part_has_the_same_bits_in_any_pass(spec, x):
    # a part alone on a fresh config, alone on one warmed at 1e3 and 1e8
    # (whose table holds every other cut), and inside a_exp_formula on a
    # fresh config: each middle sum is its own segment's, so the three are
    # bitwise equal, and each cut holds the same rows alone as inside
    # a_exp_formula
    warm = FormulaConfig(n_zeros=2)
    for x_fill in (1e3, 1e8):
        a_exp_formula(spec, x_fill, warm)
    cfg = FormulaConfig(n_zeros=2)
    b = a_exp_formula(spec, x, cfg)
    inside = [b.delta_1, b.delta_half, *(p for _, p in b.delta_rho), b.zero_sum]
    fresh = []
    alone = _parts_alone(spec, x, lambda: fresh.append(FormulaConfig(n_zeros=2)) or fresh[-1])
    assert alone == _parts_alone(spec, x, lambda: warm) == inside

    def rows(cut):
        return cut.rows and cut.rows[0].tobytes()

    depth = {key: rows(cut) for key, cut in cfg._memo[spec]._cuts.items()}
    alone_depth = [(key, rows(cut)) for c in fresh for key, cut in c._memo[spec]._cuts.items()]
    assert {key for key, _ in alone_depth} == set(depth)
    assert alone_depth == [(key, depth[key]) for key, _ in alone_depth]


def test_warm_a_exp_formula_is_one_pass_over_the_table(monkeypatch):
    # a new x on a filled config: one exp over the rows of every quadrature
    # cut (one _middles) and no rule built; a part alone on that config
    # sums its own cut's rows and no other cut's
    from fakemu.explicit_formula import _ctx, _Ctx, _Cut

    cfg = FormulaConfig(n_zeros=2)
    for spec in (FIG53, FIG51A, QUAD):
        for x in (1e3, 1e8):
            a_exp_formula(spec, x, cfg)
    calls = []
    middles, set_rule = _Ctx._middles, _Cut.set_rule
    monkeypatch.setattr(
        _Ctx, "_middles",
        lambda ctx, ell, cuts: calls.append((ctx, list(cuts))) or middles(ctx, ell, cuts),
    )
    monkeypatch.setattr(_Cut, "set_rule", lambda *args: calls.append("rule") or set_rule(*args))
    for spec in (FIG53, FIG51A, QUAD):
        ctx = _ctx(spec, cfg)
        quadrature = [cut for cut in ctx._cuts.values() if cut.mode == "quadrature"]
        assert len(quadrature) == 6
        calls.clear()
        a_exp_formula(spec, 3.7e5, cfg)
        assert calls == [(ctx, [ctx.cut("one"), ctx.cut("half"), *ctx.zero_cuts])]
        for part, key in ((delta_1, "one"), (delta_half, "half")):
            calls.clear()
            part(spec, 3.7e5, cfg)
            assert calls == [(ctx, [ctx.cut(key)])], key


# frozen from the per-node G_f path: (spec, x, delta_1, delta_half,
# delta_rho at zero 1, its mirror, zero 2, its mirror), n_zeros = 2; the
# Mobius and Liouville delta_rho re-frozen when zeta'(rho) came from the
# differentiated Euler-Maclaurin sum (moved <= 3.4e-12, now <= 1.5e-14
# from mpmath); the FIG51A and FIG53 zero parts re-frozen when node terms
# went to log space and the zero's divided difference to a Cauchy ring
# (moved <= 3.3e-14 and <= 6.8e-14)
PARTS_FROZEN = [
    (MOBIUS, 1e3, 0j, 0j, (
        3.7165916970526058e-09+2.2455256930346824e-08j, 3.7165916970526058e-09-2.2455256930346824e-08j,
        3.174879378542069e-13-1.7738615671056418e-14j, 3.174879378542069e-13+1.7738615671056418e-14j,
    )),
    (MOBIUS, 3e4, 0j, 0j, (
        8.829980376101494e-08-8.800393846459909e-08j, 8.829980376101494e-08+8.800393846459909e-08j,
        -1.1979220360211507e-12+1.2642706477175716e-12j, -1.1979220360211507e-12-1.2642706477175716e-12j,
    )),
    (LIOUVILLE, 1e3, 0j, -19.190515667893525+2.350160358667294e-15j, (
        2.1449204706471864e-08+3.882412869333671e-08j, 2.1449204706471848e-08-3.882412869333667e-08j,
        2.6106417045662464e-13+4.07919504497552e-14j, 2.6106417045662475e-13-4.079195044975517e-14j,
    )),
    (LIOUVILLE, 3e4, 0j, -105.11078321461602+1.2872358421965087e-14j, (
        1.048754180537479e-07-2.1914056499917766e-07j, 1.0487541805374772e-07+2.1914056499917745e-07j,
        -1.1932251527018003e-12+8.190044349640555e-13j, -1.1932251527018009e-12-8.19004434964056e-13j,
    )),
    (ONES, 1e3, 1000.0000000000084+0j, 0j, (0j, 0j, 0j, 0j)),
    (ONES, 3e4, 30000.000000000255+0j, 0j, (0j, 0j, 0j, 0j)),
    (FIG51A, 1e3, 284.9911416614445+667.5946419059819j, 0.8192289524391818+0.17379573790885977j, (
        2.924335139188033e-11+1.083445870199996e-10j, 4.732404203512478e-12-1.3450556148537997e-10j,
        9.743700698809771e-16-1.8367076938647935e-16j, 1.3324194258498405e-16-1.5062976402494215e-16j,
    )),
    (FIG51A, 3e4, 3695.937089804742+20782.09121413137j, 4.1103055125126415+0.5274397428011548j, (
        3.093906617387975e-10-3.9577112600910665e-10j, 4.875681829886761e-10+3.5237203120469105e-10j,
        -2.5487043660482772e-15+3.6823818954834465e-15j, -8.952863965101713e-16+7.678195612655212e-17j,
    )),
    (FIG53, 1e3, -198.49728974842665+62.54599691891861j, -1.6823903708670418+0.01442621680278977j, (
        2.466968483506391e-09+3.144313386255542e-09j, 4.910358941066143e-09-6.3095417645659825e-09j,
        -2.325076717884407e-14+6.340915033012225e-14j, -2.096908733407017e-14+1.1525905265652325e-14j,
    )),
    (FIG53, 3e4, -4848.265035477774-692.8690345663126j, -7.577332876451255+1.256558338415274j, (
        3.976269031494333e-09-1.8073090095444527e-08j, 1.3370410167253754e-08+3.4391908729866974e-08j,
        -1.4469267128074261e-13-2.751026709159858e-13j, 1.0893256863380946e-13+1.8522467567188476e-14j,
    )),
]


@pytest.mark.parametrize(
    "spec, x, d1, dh, rho", PARTS_FROZEN, ids=lambda v: getattr(v, "class_tag", None)
)
def test_parts_frozen(spec, x, d1, dh, rho):
    cfg = FormulaConfig(n_zeros=2)
    got = [delta_1(spec, x, cfg), delta_half(spec, x, cfg)]
    got += [delta_rho(spec, k, x, cfg, conj) for k in (1, 2) for conj in (False, True)]
    for g, want in zip(got, (d1, dh) + rho):
        assert abs(g - want) <= 2e-14 * abs(want), (g, want)


def test_direct_G_paths_bitwise_frozen():
    # c_1/2, Watson coefficients and residues call G_f directly, the G kernel
    # at one point; frozen from it (Mobius, whose G is exactly 1, kept its
    # bits).  J in numpy arrays moved c_1/2 and the Watson lines by <= 7.2e-15;
    # capping the series buffers at 2^14 entries re-blocked one-point G and
    # moved c_1/2(FIG53).imag (...158j -> ...16j) and the "half" line's
    # lambda_0.imag (...2914j -> ...29134j), both by ~2e-16 relative.  The
    # Bernoulli corrections of zeta as array operations and the continued
    # logs' np.log moved c_1/2, the "one" and "half" lines and delta_half
    # by <= 2.7e-15 relative and the "zero:1" line by <= 1.0e-14 (its
    # lambda_2); zeta'(rho) from the differentiated sum moved the two
    # residues by 3.0e-12 and 7.6e-13, to within 1.5e-14 of mpmath.  One
    # integrand for the three cuts, and each residue as phase * J(0), moved
    # the Watson lines by <= 4.5e-15 and the residues by <= 4.6e-16.  Each
    # prefactor as a log inside J's one exp, and the zero's divided
    # difference from a Cauchy ring, moved c_1/2 of FIG51A and LIOUVILLE by
    # <= 1.8e-16, the Watson lines by <= 4.5e-14 (the "zero:1" lambda_2),
    # delta_half(LIOUVILLE) by 1.9e-16 and the two residues by <= 8.5e-16.
    # Series orders from the spec-free majorant, and each row's series as
    # a_k dotted with the shared prime sums, moved the "half" line's
    # lambda_1.real (...4493 -> ...4499) by 6.0e-16 and lambda_2.real
    # (...077 -> ...082) by 9.4e-16 relative.  The sines reduced to the
    # nearest integer first moved c_1/2(FIG51A).real (...534 -> ...535) by
    # 1.2e-16 relative.  Series primes from p^{-sigma_min} <= 0.2 (was
    # 0.07), float64 powers n^{-s} in zeta wherever the phase stays below 8
    # rad, and the fill's last orders in one step moved, relative to each
    # value: c_1/2(FIG53).real (...917 -> ...92) by 2.2e-16, c_1/2(FIG51A)
    # (...535 -> ...542, ...825j -> ...827j) by 6.5e-16, c_1/2(LIOUVILLE)
    # (...172 -> ...171, ...981e-17j -> ...98e-17j) by 1.8e-16; the "one"
    # line's lambda_0.imag (...921j -> ...9209j) by 9.9e-17 and lambda_2
    # (...026 -> ...0372, ...172j -> ...183j) by 3.4e-15; the "half" line's
    # lambda_1.real (...499 -> ...493) by 6.0e-16 and lambda_2.real (...082
    # -> ...077) by 9.4e-16; the "zero:1" line's lambda_1.imag (...065j ->
    # ...055j) by 3.6e-16 and lambda_2 (...9696e-09 -> ...944e-09, ...119e-09j
    # -> ...129e-09j) by 3.7e-15; delta_half(LIOUVILLE) (...763 -> ...76,
    # ...227e-15j -> ...223e-15j) by 1.9e-16 and the Liouville residue
    # (...454e-13 -> ...444e-13, ...525e-14j -> ...521e-14j) by 4.1e-16.
    cfg = FormulaConfig(n_zeros=2)
    assert c_half(FIG53, cfg) == 0.0684096884973992 + 0.10362335917983151j
    assert c_half(FIG51A, cfg) == -0.09422578122261542 + 0.06516941744283827j
    assert c_half(LIOUVILLE, cfg) == -0.6068573898369171 + 7.43185960002698e-17j
    assert watson_coeffs(FIG53, "one", 2, cfg) == [
        0.8854657004659543 - 0.6946286740269209j,
        -0.711654955524535 - 2.39305362949768j,
        -3.3537575608880372 - 3.195306640445183j,
    ]
    assert watson_coeffs(FIG53, "half", 2, cfg) == [
        0.31880303445385116 + 0.3353786866282914j,
        -0.8986811081294493 - 0.2427910474398723j,
        -5.632969973908077 - 0.6117178597499716j,
    ]
    assert watson_coeffs(FIG53, "zero:1", 2, cfg) == [
        -6.254788380768638e-10 + 4.2081717842128486e-10j,
        2.597102711916893e-09 + 1.3126628633247055e-09j,
        2.089938378085944e-09 - 7.055732049228129e-09j,
    ]
    assert delta_1(ONES, 1e3, cfg) == 999.9999999999995 + 0j  # G(1) = 1, Gamma(1) = 1 - 4.4e-16
    assert delta_half(LIOUVILLE, 1e3, cfg) == -19.19051566789376 + 2.3501603586673223e-15j
    assert delta_rho(MOBIUS, 1, 1e3, cfg) == 3.7165916970526107e-09 + 2.245525693034682e-08j
    assert delta_rho(LIOUVILLE, 2, 1e3, cfg, True) == 2.6106417045662444e-13 - 4.079195044975521e-14j


# ---------------------------------------------------------------- zero index and shared sweeps

@pytest.mark.parametrize("k", [0, 101])
@pytest.mark.parametrize("spec", [ONES, MOBIUS, FIG53], ids=["zero", "residue", "quadrature"])
def test_zero_index_outside_table(spec, k):
    # k = 0 used to read the last zero (delta_rho(ONES, 0, 1e3) gave 0j),
    # k = 101 a bare IndexError
    cfg = FormulaConfig(n_zeros=2)
    match = f"zero index {k} outside table"
    with pytest.raises(RangeError, match=match):
        delta_rho(spec, k, 1e3, cfg)
    with pytest.raises(RangeError, match=match):
        watson_coeffs(spec, f"zero:{k}", 1, cfg)
    with pytest.raises(RangeError, match=match):
        J(spec, ("zero", k), 0.05, cfg)


def test_shared_sweeps_are_free_of_call_history():
    # B after A on one kernel continues from the line values A kept (other
    # nodes, since A's segment is longer); continued logs depend only on
    # the end point, so B's bits are those of B alone
    table = default_kernel().table

    def nodes(ctx, cut):
        # c = weight u^{-beta} J in the table, J at the middle nodes from
        # the cut's G line, and the end rings' Taylor coefficients
        if cut.rows is None:
            return []
        u, cu, log_cu, _ = _rule_nodes(cut)
        c = _rows(cut)[1].tolist()
        rings = [end.taylor.tolist() for end in cut.ends]
        return [c, cut.j(u, log_cu, cut.g_line(u, cu)).tolist(), rings]

    def run_b(kernel):
        cfg = FormulaConfig(n_zeros=2, kernel=kernel)
        parts = a_exp_formula(FIG51A, 1e3, cfg).delta_rho
        ctx = cfg._memo[FIG51A]
        return (
            parts,
            {key: nodes(ctx, cut) for key, cut in ctx._cuts.items()},
            watson_coeffs(FIG51A, "zero:2", 2, cfg),
            J(FIG51A, ("zero", 1), 0.06 + 0.02j, cfg),
        )

    alone = run_b(ZetaKernel(table))
    shared = ZetaKernel(table)
    a_exp_formula(FIG53, 1e3, FormulaConfig(a=0.37, n_zeros=2, kernel=shared))
    assert run_b(shared) == alone


def _count_sweep_calls(kernel) -> list:
    """Points of each call of the functions of every sweep kept on kernel:
    a zero's two continued logs, L1 at 1 and 1/2."""
    calls = []
    for sweep in kernel._sweeps.values():
        names = ("h_local", "h_zeta2") if isinstance(sweep, zeta_kernel.RhoSweep) else ("L1",)
        for name in names:
            h = getattr(sweep, name)
            setattr(sweep, name, lambda s, h=h: calls.append(np.size(s)) or h(s))
    return calls


def test_fresh_config_reuses_the_kernel_sweeps():
    # the Laplace nodes of every zero are read from the kernel's sweeps: a
    # warm kernel calls neither of their functions
    kernel = ZetaKernel(default_kernel().table)

    def run():
        cfg = FormulaConfig(n_zeros=2, kernel=kernel)
        return a_exp_formula(FIG53, 1e3, cfg), a_exp_formula(LIOUVILLE, 1e3, cfg)

    first = run()
    calls = _count_sweep_calls(kernel)
    assert run() == first
    assert calls == []


def test_watson_ring_repeats_bit_for_bit():
    # the ring's logs depend only on the zero: a second config, a second
    # spec and a fresh kernel give the same bits, and the kept ring calls
    # neither of the sweep's functions
    kernel = ZetaKernel(default_kernel().table)
    first = watson_coeffs(FIG53, "zero:1", 2, FormulaConfig(kernel=kernel))
    calls = _count_sweep_calls(kernel)
    assert watson_coeffs(FIG53, "zero:1", 2, FormulaConfig(kernel=kernel)) == first
    assert calls == []
    other = watson_coeffs(FIG51A, "zero:1", 2, FormulaConfig(kernel=kernel))
    fresh = FormulaConfig(kernel=ZetaKernel(default_kernel().table))
    assert watson_coeffs(FIG51A, "zero:1", 2, fresh) == other


def test_residue_reads_the_kept_value_at_the_zero():
    # the sweep keeps both logs at u = 0 from its construction: J_rho(0)
    # of a residue (z = -1) calls neither of its functions
    kernel = ZetaKernel(default_kernel().table)
    kernel.rho_sweep(1)
    calls = _count_sweep_calls(kernel)
    got = delta_rho(MOBIUS, 1, 1e3, FormulaConfig(kernel=kernel))
    assert calls == []
    assert got == delta_rho(MOBIUS, 1, 1e3, FormulaConfig(kernel=ZetaKernel(kernel.table)))


def test_each_level_is_one_call_of_each_sweep_function():
    # at the shortest abscissa the legs from u = 0 reach |u| = b = 0.15
    # (|2u| = 0.3 for zeta(2s), whose legs past |2u| = 0.25 take two
    # pieces); each J call of the rule, on its end ring and on its middle
    # nodes, still takes one call of each function, with no halving round
    from fakemu.euler_residual import RE_S_MIN
    from fakemu.explicit_formula import _ctx

    kernel = ZetaKernel(default_kernel().table)
    kernel.rho_sweep(1)
    calls = _count_sweep_calls(kernel)
    ctx = _ctx(FIG53, FormulaConfig(a=RE_S_MIN, n_zeros=1, kernel=kernel))
    cut = ctx.cut((1, False))
    per_call, j = [], cut.j

    def counted_j(u, *args):
        calls.clear()
        out = j(u, *args)
        per_call.append((np.asarray(u), list(calls)))
        return out

    cut.j = counted_j
    ctx.deltas(1e4, [cut])
    assert len(per_call) == 2
    for u, got in per_call:
        two = np.count_nonzero(2.0 * np.abs(u) > zeta_kernel._STEP0)
        assert got == [u.size, u.size + two], got
    assert np.count_nonzero(2.0 * np.abs(per_call[1][0]) > zeta_kernel._STEP0) > 0


def _spec_outputs(spec, x, cfg):
    """Every part at x, c_1/2 and Watson lambda_0..2 at 1/2 and zero 1."""
    b = a_exp_formula(spec, x, cfg)
    return (
        [b.delta_1, b.delta_half, *(p for _, p in b.delta_rho), b.zero_sum, b.total],
        c_half(spec, cfg),
        watson_coeffs(spec, "half", 2, cfg),
        watson_coeffs(spec, "zero:1", 2, cfg),
    )


@pytest.mark.parametrize("x", [1e3, 3.7e5])
@pytest.mark.parametrize("first, second", [(QUAD, FIG53), (FIG53, QUAD)], ids=["quad-fig53", "fig53-quad"])
def test_outputs_have_the_same_bits_on_a_kernel_another_spec_filled(first, second, x):
    # the sweeps hold spec-free values only: the second spec reads the
    # first one's points at 1, 1/2 and zero 1 (its Watson ring at least)
    # and gets the bits of a fresh kernel
    table = default_kernel().table
    alone = _spec_outputs(second, x, FormulaConfig(n_zeros=2, kernel=ZetaKernel(table)))
    kernel = ZetaKernel(table)
    _spec_outputs(first, x, FormulaConfig(n_zeros=2, kernel=kernel))
    hits = {key: sweep.hits for key, sweep in kernel._sweeps.items()}
    assert _spec_outputs(second, x, FormulaConfig(n_zeros=2, kernel=kernel)) == alone
    assert all(kernel.sweep(key).hits > hits[key] for key in ("one", "half", (1, False)))


def test_a_second_spec_on_filled_node_sets_computes_no_log_or_gamma(monkeypatch):
    # quadphase and fig53 sample G to the same degrees on the cuts at 1
    # and 1/2 (64 and 32), so their rules have the same nodes and rings:
    # after quadphase, fig53's parts there, their Watson rings and J(0)
    # read every log and Gamma from the kernel's two sweeps
    calls = []
    for owner, name in (
        (zeta_kernel, "zeta"), (zeta_kernel.ZetaKernel, "L1"), (zeta_kernel, "gamma"),
    ):
        f = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *args, f=f, name=name: calls.append(name) or f(*args)
        )
    kernel = ZetaKernel(default_kernel().table)

    def run(spec):
        cfg = FormulaConfig(n_zeros=0, kernel=kernel)
        out = [delta_1(spec, 1e4, cfg), delta_half(spec, 1e4, cfg), c_half(spec, cfg)]
        cuts = [explicit_formula._ctx(spec, cfg).cut(key) for key in ("one", "half")]
        return out + [watson_coeffs(spec, key, 2, cfg) for key in ("one", "half")], cuts

    run(QUAD)
    assert "L1" in calls and "gamma" in calls
    sweeps = [kernel.sweep(key) for key in ("one", "half")]
    misses = [sweep.misses for sweep in sweeps]
    calls.clear()
    got, cuts = run(FIG53)
    assert calls == []
    assert [sweep.misses for sweep in sweeps] == misses
    assert [cut.g_line.c.size for cut in cuts] == [65, 33]
    fresh = FormulaConfig(n_zeros=0, kernel=ZetaKernel(kernel.table))
    assert got == [
        delta_1(FIG53, 1e4, fresh), delta_half(FIG53, 1e4, fresh), c_half(FIG53, fresh),
        watson_coeffs(FIG53, "one", 2, fresh), watson_coeffs(FIG53, "half", 2, fresh),
    ]


def test_a_kernel_over_another_table_shares_nothing():
    # the sweeps live on their kernel: a kernel over a shorter table starts
    # empty after another kernel served every branch point, and serving it
    # looks up nothing in the other kernel's sweeps
    full = ZetaKernel(default_kernel().table)
    a_exp_formula(FIG53, 1e3, FormulaConfig(n_zeros=2, kernel=full))
    counts = {key: (s.hits, s.misses, s.u.size) for key, s in full._sweeps.items()}
    assert set(counts) == {"one", "half", *((k, c) for k in (1, 2) for c in (False, True))}
    short = ZetaKernel(zeta_kernel.ZeroTable(default_kernel().table.ordinates[:3], "first 3"))
    assert short._sweeps == {}
    cfg = FormulaConfig(n_zeros=2, kernel=short)
    got = a_exp_formula(FIG53, 1e3, cfg)
    assert set(short._sweeps) == set(counts)
    for key, sweep in short._sweeps.items():
        assert sweep is not full._sweeps[key] and sweep.misses > 0
    assert {key: (s.hits, s.misses, s.u.size) for key, s in full._sweeps.items()} == counts
    # zeros 1 and 2 have the same gap radius in both tables (zero 3 is kept)
    assert got == a_exp_formula(FIG53, 1e3, FormulaConfig(n_zeros=2, kernel=full))


def _anchored_outputs():
    """Outputs that read both continued logs of a zero, on a fresh kernel."""
    cfg = FormulaConfig(n_zeros=2, kernel=ZetaKernel(default_kernel().table))
    return (
        a_exp_formula(FIG53, 1e3, cfg).delta_rho,
        watson_coeffs(FIG53, "zero:1", 2, cfg),
        delta_rho(LIOUVILLE, 2, 1e3, cfg, True),
        J(FIG53, ("zero", 3), 0.04 + 0.03j, cfg),
        cfg.kernel.L1(complex(0.45, 20.0)),
    )


@pytest.mark.parametrize("anchor", [2.0, 3.0])
def test_anchor_moves_no_bit(monkeypatch, anchor):
    want = _anchored_outputs()
    monkeypatch.setattr(zeta_kernel, "_ANCHOR_RE", anchor)
    assert _anchored_outputs() == want


# ---------------------------------------------------------------- array paths

@pytest.mark.parametrize("spec", [FIG53, FIG51A], ids=["fig53", "fig51a"])
def test_grouped_g_lines_equal_alone(spec):
    # the cut at 1/2 and the zero cuts sample G in lock-step; each keeps
    # the interpolant (degree and coefficients) it gets when built alone
    from fakemu.explicit_formula import _ctx

    grouped = FormulaConfig(n_zeros=3)
    a_exp_formula(spec, 1e3, grouped)
    cuts = {k: c for k, c in _ctx(spec, grouped)._cuts.items() if c.mode == "quadrature"}
    assert len(cuts) == 8
    for key, cut in cuts.items():
        ctx = _ctx(spec, FormulaConfig(n_zeros=3))
        alone = ctx.cut(key)
        ctx.deltas(1e3, [alone])
        assert alone.g_line.c.tobytes() == cut.g_line.c.tobytes(), key


def test_g_line_groups_share_one_kernel_call_per_degree(monkeypatch):
    # a zero_sum alone samples its zero cuts together; delta_half alone is
    # a group of one
    rows = []
    monkeypatch.setattr(
        explicit_formula,
        "G_f_line",
        lambda spec, s0, u, cfg: rows.append(np.size(s0)) or G_f_line(spec, s0, u, cfg),
    )
    cfg = FormulaConfig(n_zeros=2)
    zero_sum(FIG53, 1e3, cfg)
    assert rows[0] == 4 and len(rows) <= 3, rows
    rows.clear()
    delta_half(FIG53, 1e3, cfg)
    assert rows and set(rows) == {1}, rows


@pytest.mark.parametrize("kind", list(CUT_KINDS))
def test_j_batch_bits_equal_one_point(kind):
    # J over the rule's middle nodes in one call against one node at a time, each
    # on a fresh kernel; J(0) and the public J are the one-point case
    from fakemu.explicit_formula import _ctx

    table = default_kernel().table

    def fresh_ctx():
        cfg = FormulaConfig(n_zeros=1, kernel=ZetaKernel(table))
        ctx = _ctx(FIG53, cfg)
        return ctx, ctx.cut(CUT_KINDS[kind])

    ctx, cut = fresh_ctx()
    ctx.deltas(1e4, [cut])  # samples the G line and builds the rule
    u, cu, log_cu, log_scale = _rule_nodes(cut)
    g = cut.g_line(u, cu)
    batch = cut.j(u, log_cu, g, log_scale)
    _, one = fresh_ctx()
    assert batch.tolist() == [
        complex(one.j(*(v[i : i + 1] for v in (u, log_cu, g, log_scale)))[0])
        for i in range(u.size)
    ]
    point = {"one": "one", "half": "half", "zero": ("zero", 1)}.get(kind)
    if point is not None:
        assert J(FIG53, point, 0.0, FormulaConfig(n_zeros=1)) == cut.j0


def test_kernel_buffers_stay_within_256_kB():
    # every (points x terms) temporary of the array kernels is blocked to at
    # most 256 kB, so a call's peak does not grow with its rows and points:
    # unblocked, the G call below would hold ~6 MB per temporary, zeta
    # ~20 MB and gamma ~1 MB
    import tracemalloc

    from fakemu.euler_residual import _log_primes

    kernel = default_kernel()
    g = np.array(kernel.table.ordinates[:10])
    s0 = np.concatenate([[0.5], 0.5 + 1j * g, 0.5 - 1j * g])
    u = 0.1 * np.sin(np.arange(129) * math.pi / 256) ** 2
    _log_primes(100_000)
    calls = [
        lambda: G_f_line(FIG53, s0, u),
        lambda: zeta(0.5 + 1j * np.linspace(500.0, 501.0, 2000)),
        lambda: gamma(np.linspace(-3.0, 3.0, 5000) + 0.5j),
        lambda: kernel.L1(np.linspace(0.4, 2.0, 5000)),
    ]
    for call in calls:
        call()
        tracemalloc.start()
        call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 16 * 256 * 1024, peak
