"""Explicit-formula parts: integrands, quadrature, residues, Watson."""

import cmath
import math

import pytest

from fakemu import explicit_formula
from fakemu.eps_model import parse_eps_spec, zw_params
from fakemu.errors import (
    DomainError,
    QuadratureError,
    RangeError,
    WindowError,
)
from fakemu.explicit_formula import (
    FormulaConfig,
    J1,
    J_half,
    J_rho,
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
from fakemu.euler_residual import G_f
from fakemu.zeta_kernel import default_kernel, gamma, zeta

MOBIUS = parse_eps_spec("finite:[-1]")
LIOUVILLE = parse_eps_spec("cm:xi=-1")
ONES = parse_eps_spec("cm:xi=1")
FIG53 = parse_eps_spec("periodic:m=2:[i,-i]")
FIG53_CONJ = parse_eps_spec("periodic:m=2:[-i,i]")
FIG51A = parse_eps_spec("finite:[exp(i*pi/5),1]")

ZETA_HALF = -1.4603545088095868
L1_HALF = math.log(0.73017725440479343)


@pytest.fixture(scope="module")
def cfg():
    return FormulaConfig()


# ---------------------------------------------------------------- integrands

def test_j1_at_zero_mobius(cfg):
    assert J1(MOBIUS, 0.0, cfg) == pytest.approx(1.0, rel=1e-12)


def test_j1_at_zero_general(cfg):
    # J1(0) = zeta(2)^w G(1)
    pars = zw_params(FIG53)
    kernel = default_kernel()
    want = cmath.exp(pars.w * kernel.L1(2.0)) * G_f(FIG53, 1.0, cfg.gf_config)
    assert J1(FIG53, 0.0, cfg) == pytest.approx(want, rel=1e-10)


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
    assert J1(LIOUVILLE, u, cfg) == pytest.approx(want, rel=1e-12)


def test_j1_range_errors(cfg):
    with pytest.raises(RangeError):
        J1(MOBIUS, 0.6, cfg)
    with pytest.raises(RangeError):
        J1(MOBIUS, 0.5, cfg)


def test_j_half_at_zero_mobius(cfg):
    """J_half(0) = (1/4)(1/2)^{-z} Z(1/2;z) G(1/2) sqrt(pi); regression lock.

    For z=-1: (1/8) * 2 e^{-L1(1/2)} * sqrt(pi) = 0.60685738983691...
    """
    want = 0.25 * 0.5 * (2 * math.exp(-L1_HALF)) * math.sqrt(math.pi)
    assert want == pytest.approx(0.6068573898369161, rel=1e-12)
    assert J_half(MOBIUS, 0.0, cfg) == pytest.approx(want, rel=1e-10)


def test_j_half_conj_symmetry(cfg):
    # real-eps spec: Schwarz reflection in u
    u = 0.03 + 0.02j
    a = J_half(MOBIUS, u.conjugate(), cfg)
    b = J_half(MOBIUS, u, cfg).conjugate()
    assert a == pytest.approx(b, rel=1e-11)


def test_j_half_range_error(cfg):
    with pytest.raises(RangeError):
        J_half(MOBIUS, 0.2, cfg)


def test_j_rho_limit_identity(cfg):
    """J_rho(0) built from the local log sweep equals the direct product
    with Z_rho(rho;z) = exp(z log((rho-1) zeta'(rho)))."""
    kernel = default_kernel()
    rho = kernel.rho(1)
    pars = zw_params(FIG53)
    zp = kernel.zeta_prime_at_zero(1)
    from fakemu.explicit_formula import _ctx

    ctx, _ = _ctx(FIG53, cfg)
    direct = (
        (rho - 1.0) ** (-pars.z)
        * ctx.G(rho)
        * cmath.exp(pars.z * cmath.log((rho - 1.0) * zp))
        * ctx.zeta_2rho_pow_w(1)
        * gamma(rho)
    )
    assert J_rho(FIG53, 1, 0.0, cfg) == pytest.approx(direct, rel=1e-7)


def test_j_rho_gamma_decay_bound(cfg):
    kernel = default_kernel()
    for k in (1, 3):
        g = kernel.table.ordinates[k - 1]
        for u in (0.0, 0.05, 0.1):
            val = abs(J_rho(FIG53, k, u, cfg))
            assert val <= 1e3 * math.exp(-math.pi * g / 2) * (1 + g) ** 3


def test_j_rho_range_error(cfg):
    with pytest.raises(RangeError):
        J_rho(FIG53, 1, 1.0, cfg)
    with pytest.raises(RangeError):
        J_rho(FIG53, 1, 0.3 + 0.4j, cfg)  # off the disc |u| <= 0.45


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
    got = J_rho(spec, k, u, FormulaConfig(n_zeros=2))
    assert abs(got - want) <= 1e-13 * abs(want)


def test_j_rho_continuous_off_the_line(cfg):
    # a wrong branch off the line would jump by a factor e^{2 pi i z} or
    # e^{2 pi i w}; the analytic J moves by ~1e-6 |J'| and its mean over
    # u +- 1e-6 i by ~1e-12 |J''|
    for spec in (FIG53, FIG51A):
        for k in (1, 2):
            for u in (0.05, 0.1, -0.2):
                j0 = J_rho(spec, k, u, cfg)
                up = J_rho(spec, k, complex(u, 1e-6), cfg)
                down = J_rho(spec, k, complex(u, -1e-6), cfg)
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
            assert abs(J_rho(ONES, k, u, cfg) - want) <= 1e-12 * abs(want), (k, u)


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
    # same spec: (1 - 2u)^(-w) overflows near u = 1/2 unless the window is
    # checked before the quadrature
    spec = parse_eps_spec("finite:[exp(i*1.8234765819369751),1]")
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

def test_quadrature_error_when_capped(monkeypatch):
    monkeypatch.setattr(explicit_formula, "MAX_LEVEL", 3)
    with pytest.raises(QuadratureError):
        delta_1(FIG53, 1e3, FormulaConfig())


def test_config_invariants():
    with pytest.raises(DomainError):
        FormulaConfig(a=0.3)
    with pytest.raises(DomainError):
        FormulaConfig(a=0.55)
    with pytest.raises(DomainError):
        FormulaConfig(a=0.45)  # the Watson ring needs 1/2 - a > 0.05
    with pytest.raises(DomainError):
        FormulaConfig(n_zeros=101).get_kernel()  # exceeds table size


def test_quadrature_deterministic(cfg):
    a = delta_half(FIG53, 1e3, cfg)
    b = delta_half(FIG53, 1e3, FormulaConfig())
    assert a == b  # bit-identical across fresh configs


# ---------------------------------------------------------------- watson

def test_watson_lambda0_matches_j(cfg):
    for point, j0 in (
        ("one", J1(FIG53, 0.0, cfg)),
        ("half", J_half(FIG53, 0.0, cfg)),
        (("zero", 1), J_rho(FIG53, 1, 0.0, cfg)),
    ):
        lam = watson_coeffs(FIG53, point, 2, cfg)
        assert abs(lam[0] - j0) <= 1e-9 * abs(j0)


@pytest.mark.parametrize(
    "spec, point, j0",
    [
        (MOBIUS, "one", lambda cfg: J1(MOBIUS, 0.0, cfg)),            # zero part
        (MOBIUS, "zero:1", lambda cfg: J_rho(MOBIUS, 1, 0.0, cfg)),   # residue part
        (LIOUVILLE, "half", lambda cfg: J_half(LIOUVILLE, 0.0, cfg)),  # residue part
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
    b = watson_coeffs(FIG53, "half", 4, cfg)
    for x, y in zip(a, b):
        assert abs(x - y) <= 1e-11 * max(1.0, abs(y))


def test_watson_order_cap(cfg):
    with pytest.raises(DomainError):
        watson_coeffs(FIG53, "half", 9, cfg)


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


def test_c_half_builds_only_the_half_cut():
    from fakemu.explicit_formula import _ctx

    cfg = FormulaConfig()
    c_half(LIOUVILLE, cfg)
    ctx, _ = _ctx(LIOUVILLE, cfg)
    assert list(ctx._cuts) == ["half"]


def test_c_half_window_error(cfg):
    spec = parse_eps_spec("finite:[exp(i*1.8234765819369751),1]")
    with pytest.raises(WindowError):
        c_half(spec, cfg)


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
