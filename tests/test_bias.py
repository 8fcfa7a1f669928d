"""Bias classification, normalized summatory function, trajectories."""

import cmath
import math

import numpy as np
import pytest

from fakemu import bias
from fakemu.eps_model import near_integer, parse_eps_spec, zw_params
from fakemu.errors import CapacityError, DomainError, GridError, WindowError
from fakemu.explicit_formula import FormulaConfig, c_half, delta_1, delta_half

ONES = parse_eps_spec("cm:xi=1")
FIG53 = parse_eps_spec("periodic:m=2:[i,-i]")
FIG51B = parse_eps_spec("finite:[exp(i*pi/5),-0.25+0.96824583655185426i]")


@pytest.fixture(scope="module")
def cfg():
    return FormulaConfig()


# ---------------------------------------------------------------- B_of_x

def test_B_ones_against_closed_form(cfg):
    # w=0: B(x) = (1/(e^{1/x}-1) - x) log(x)/sqrt(x) -> -log(x)/(2 sqrt x)
    x = 1e4
    got = bias.B_of_x(ONES, x, bias.DIRECT, cfg)
    want = (1 / math.expm1(1 / x) - x) * math.log(x) / math.sqrt(x)
    assert got == pytest.approx(want, abs=1e-9)
    assert abs(got) < 0.05


def test_B_direct_window_error_comes_before_the_sieve(cfg, monkeypatch):
    # w = 1 at non-integer z: Delta_1 is a window error, raised unsieved
    from fakemu import sieve

    def no_sieve(*args):
        raise AssertionError("the sieve ran")

    monkeypatch.setattr(sieve, "_sweep", no_sieve)
    w_one = parse_eps_spec("finite:[exp(i*1.3181160716528177),exp(i*0.8127555613686607)]")
    with pytest.raises(WindowError):
        bias.B_of_x(w_one, 1e6, bias.DIRECT, cfg)


def test_B_direct_vs_formula(cfg):
    x = 1e4
    bd = bias.B_of_x(FIG53, x, bias.DIRECT, cfg)
    bf = bias.B_of_x(FIG53, x, bias.FORMULA, cfg)
    assert abs(bd - bf) < 0.1


def test_B_converges_toward_c_half(cfg):
    c = c_half(FIG53, cfg)
    b5 = bias.B_of_x(FIG53, 1e5, bias.DIRECT, cfg)
    assert abs(b5 - c) < 1.0


def test_B_precondition(cfg):
    with pytest.raises(DomainError):
        bias.B_of_x(FIG53, 2.0, bias.DIRECT, cfg)
    for x in (math.nan, math.inf):  # nan used to give a NaN B
        for mode in (bias.DIRECT, bias.FORMULA):
            with pytest.raises(DomainError, match="finite"):
                bias.B_of_x(FIG53, x, mode, cfg)


@pytest.mark.parametrize("mode", [bias.DIRECT, bias.FORMULA])
def test_B_of_x_is_the_one_point_trajectory(cfg, mode):
    # one path per mode: a FORMULA sample has B_of_x's bits.  A DIRECT
    # sample shares its sieve sweep with the other x, whose matrix product
    # rounds A_exp(x) by a few ulps otherwise (~2 here), so its numerator
    # is within 4 ulps of |A_exp(x)| of B_of_x's; alone in its sweep, it
    # has B_of_x's bits
    from fakemu.sieve import direct_exp_sum

    w = zw_params(FIG53).w
    samples = bias.trajectory(FIG53, 1e3, 1e4, 3, "LOG", mode, cfg)
    for s in samples:
        got = bias.B_of_x(FIG53, s.x, mode, cfg)
        if mode == bias.FORMULA:
            assert (got.real.hex(), got.imag.hex()) == (s.B.real.hex(), s.B.imag.hex())
        else:
            scale = bias._scale(s.x, w)
            assert abs(got - s.B) * abs(scale) <= 4 * np.spacing(abs(direct_exp_sum(FIG53, s.x)))
            d1 = delta_1(FIG53, s.x, cfg)
            assert got == (direct_exp_sum(FIG53, s.x) - d1) / scale


# ---------------------------------------------------------------- classify

@pytest.mark.parametrize(
    "text,label,rzw",
    [
        ("finite:[exp(i*pi/5),1]", bias.PERSISTENT, 1.25),
        ("finite:[exp(i*pi/5),-0.25+0.96824583655185426i]", bias.APPARENT, 0.0),
        ("finite:[exp(i*pi/5),-1]", bias.UNBOUNDED, -0.75),
        ("cm:xi=exp(i*pi/5)", bias.PERSISTENT, 0.5590169943749474),
        ("cm:xi=exp(i*pi/3)", bias.APPARENT, 0.0),
        ("cm:xi=exp(i*2*pi/3)", bias.UNBOUNDED, -0.5),
    ],
)
def test_classify_paper_configurations(cfg, text, label, rzw):
    rep = bias.classify(parse_eps_spec(text), cfg)
    assert rep.classification == label
    assert rep.re_z_plus_w == pytest.approx(rzw, abs=1e-4)
    if label in (bias.PERSISTENT, bias.APPARENT):
        assert abs(rep.c_half) > 1e-12


def test_classify_integer_specials(cfg):
    for text in ("finite:[-1]", "cm:xi=-1", "cm:xi=1"):
        rep = bias.classify(parse_eps_spec(text), cfg)
        assert rep.classification == bias.INTEGER_SPECIAL


def test_classify_window_error(cfg):
    with pytest.raises(WindowError):
        bias.classify(parse_eps_spec("finite:[exp(i*1.8234765819369751),1]"), cfg)


# z + w = 1 (a zero part at 1/2) with w = 5/4 - 0.968i: the vanishing
# sine multiplies an integral that diverges at u = 0, so every reader of
# Delta_{1/2} or c_{1/2} refuses it, not only the quadrature at s = 1
WINDOW_CORNER = parse_eps_spec(
    "finite:[exp(i*1.8234765819369754),0.6875000000000001-0.72618437741389075i]"
)


@pytest.mark.parametrize(
    "call",
    [
        lambda cfg: c_half(WINDOW_CORNER, cfg),
        lambda cfg: delta_half(WINDOW_CORNER, 1e3, cfg),
        lambda cfg: bias.B_of_x(WINDOW_CORNER, 1e3, bias.FORMULA, cfg),
        lambda cfg: bias.trajectory(WINDOW_CORNER, 1e3, 1e4, 3, mode=bias.FORMULA, cfg=cfg),
        lambda cfg: bias.classify(WINDOW_CORNER, cfg),
    ],
    ids=["c_half", "delta_half", "B_formula", "trajectory_formula", "classify"],
)
def test_window_corner_zero_part_is_a_window_error(call):
    pars = zw_params(WINDOW_CORNER)
    assert near_integer(pars.z + pars.w) == 1 and pars.w.real > 1.0
    with pytest.raises(WindowError):
        call(FormulaConfig(n_zeros=2))


def test_classify_report_invariants(cfg):
    rep = bias.classify(FIG53, cfg)
    assert rep.classification == bias.PERSISTENT
    assert rep.re_z_plus_w > 1e-12 and abs(rep.c_half) > 1e-12


# ---------------------------------------------------------------- cesaro

def _mk_samples(xs, values):
    return [
        bias.TrajectorySample(float(x), complex(v), complex(v), bias.FORMULA)
        for x, v in zip(xs, values)
    ]


def test_cesaro_constant_is_zero():
    xs = np.exp(np.linspace(np.log(10), np.log(1e4), 50))
    samples = _mk_samples(xs, [0.3 + 0.1j] * 50)
    assert abs(bias.cesaro_mean(samples, 0.3 + 0.1j)) <= 1e-14


def test_cesaro_oscillation_bound():
    # B(u) = b + u^{i tau}: logarithmic mean decays like 2/(tau log span)
    tau = 5.0
    b = 0.2 + 0.0j
    xs = np.exp(np.linspace(np.log(1e2), np.log(1e6), 4000))
    vals = [b + cmath.exp(1j * tau * math.log(x)) for x in xs]
    got = abs(bias.cesaro_mean(_mk_samples(xs, vals), b))
    assert got <= 2.0 / (tau * math.log(1e6 / 1e2)) * 1.05


def test_cesaro_grid_errors():
    xs = np.exp(np.linspace(np.log(10), np.log(1e4), 5))
    with pytest.raises(GridError):
        bias.cesaro_mean(_mk_samples(xs, [0] * 5), 0.0)  # too few
    xs = np.concatenate([np.linspace(10, 100, 6), np.linspace(200, 5000, 6)])
    with pytest.raises(GridError):
        bias.cesaro_mean(_mk_samples(xs, [0] * 12), 0.0)  # not log-uniform


def test_cesaro_apparent_bias_shrinks_with_span(cfg):
    """Fig 5.1 middle spec: |log-Cesaro(B - c)| decreases as span grows."""
    c = c_half(FIG51B, cfg)
    full = bias.trajectory(FIG51B, 1e2, 1e6, 81, "LOG", bias.FORMULA, cfg)
    short = full[:41]  # spans 1e2..1e4, same spacing
    m_short = abs(bias.cesaro_mean(short, c))
    m_full = abs(bias.cesaro_mean(full, c))
    assert m_full < m_short


# ---------------------------------------------------------------- trajectory

def test_trajectory_endpoints(cfg):
    ts = bias.trajectory(ONES, 10.0, 1000.0, 2, "LOG", bias.FORMULA, cfg)
    assert len(ts) == 2
    assert ts[0].x == pytest.approx(10.0)
    assert ts[-1].x == pytest.approx(1000.0)


def test_trajectory_loglog_uniform(cfg):
    ts = bias.trajectory(ONES, 10.0, 1e6, 7, "LOGLOG", bias.FORMULA, cfg)
    u = [math.log(math.log(s.x)) for s in ts]
    steps = np.diff(u)
    assert np.allclose(steps, steps[0], rtol=1e-9)


def test_trajectory_centered_invariant(cfg):
    c = c_half(FIG53, cfg)
    ts = bias.trajectory(FIG53, 100.0, 1e4, 5, "LOG", bias.DIRECT, cfg)
    for s in ts:
        assert s.B_centered == s.B - c
        assert s.mode == bias.DIRECT


def test_trajectory_direct_capacity(cfg):
    with pytest.raises(CapacityError):
        bias.trajectory(ONES, 10.0, 2e8, 5, "LOG", bias.DIRECT, cfg)


def test_trajectory_checks_before_c_half(cfg):
    # Re w > 1 makes c_half raise WindowError; the refusals come first
    spec = parse_eps_spec("finite:[exp(i*1.8234765819369751),1]")
    with pytest.raises(CapacityError):
        bias.trajectory(spec, 10.0, 2e8, 5, "LOG", bias.DIRECT, cfg)
    with pytest.raises(DomainError):
        bias.trajectory(spec, 10.0, 100.0, 5, "LOG", "SIEVE", cfg)


def test_trajectory_spiral_contracts(cfg):
    """Fig 5.3 reproduction: the centered trajectory approaches 0."""
    ts = bias.trajectory(FIG53, 1e3, 1e5, 9, "LOG", bias.DIRECT, cfg)
    assert abs(ts[-1].B_centered) < abs(ts[0].B_centered)


def test_trajectory_preconditions(cfg):
    with pytest.raises(DomainError):
        bias.trajectory(ONES, 2.0, 100.0, 5, "LOG", bias.FORMULA, cfg)
    with pytest.raises(DomainError):
        bias.trajectory(ONES, 10.0, 100.0, 1, "LOG", bias.FORMULA, cfg)
    with pytest.raises(DomainError):
        bias.trajectory(ONES, 10.0, 100.0, 5, "SQRT", bias.FORMULA, cfg)
    with pytest.raises(DomainError):
        bias.trajectory(ONES, 10.0, math.inf, 5, "LOG", bias.FORMULA, cfg)
