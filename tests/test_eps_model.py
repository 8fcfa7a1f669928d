"""Parser, sequence and parameter-derivation tests."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fakemu.eps_model import (
    G_TOL,
    EpsilonSpec,
    _g_eval_array,
    eps_at,
    g_eval,
    parse_eps_spec,
    zw_params,
)
from fakemu.errors import DomainError, ParseError

EPS = np.finfo(np.float64).eps


# ---------------------------------------------------------------- parsing

def test_parse_mobius():
    spec = parse_eps_spec("finite:[-1]")
    assert spec.class_tag == "FINITE"
    assert spec.values == (-1 + 0j,)


def test_parse_liouville():
    spec = parse_eps_spec("cm:xi=-1")
    assert spec.class_tag == "CM"
    assert spec.xi == -1 + 0j


def test_parse_periodic_i():
    spec = parse_eps_spec("periodic:m=2:[i,-i]")
    assert spec.class_tag == "PERIODIC"
    assert spec.period == 2
    assert spec.values == (1j, -1j)


def test_parse_exp_literals():
    spec = parse_eps_spec("finite:[exp(i*pi/5),1]")
    assert abs(spec.values[0] - cmath.exp(1j * math.pi / 5)) < 1e-15
    spec = parse_eps_spec("cm:xi=exp(i*(1+2)/4*pi)")
    assert abs(spec.xi - cmath.exp(3j * math.pi / 4)) < 1e-15


def test_parse_cartesian_literal():
    spec = parse_eps_spec("finite:[-0.25+0.96824583655185426i]")
    assert abs(abs(spec.values[0]) - 1.0) < 1e-12


def test_parse_quadphase():
    spec = parse_eps_spec("quadphase:alpha=0.381966")
    assert spec.alpha == pytest.approx(0.381966)


def test_cm_xi_zero_allowed():
    spec = parse_eps_spec("cm:xi=0")
    assert eps_at(spec, 0) == 1 and eps_at(spec, 3) == 0
    pars = zw_params(spec)
    assert pars.z == 0 and pars.w == 0 and pars.z_integer_case == 0
    assert g_eval(spec, 0.4) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "text",
    [
        "finite:[bogus",
        "nonsense:[1]",
        "cm:xi",
        "periodic:m=x:[i]",
        "finite:",
        "quadphase:alpha=i",
        "finite:[1+i]",  # missing coefficient on i
        # nested past MAX_NESTING: a ParseError, not a RecursionError
        pytest.param("cm:xi=exp(i*" + "(" * 3000 + "1" + ")" * 3000 + ")", id="3000-parentheses"),
        pytest.param("cm:xi=exp(i*" + "-" * 5000 + "1)", id="5000-minus-signs"),
    ],
)
def test_parse_syntax_errors(text):
    with pytest.raises(ParseError):
        parse_eps_spec(text)


@pytest.mark.parametrize(
    "text",
    [
        "finite:[0.5]",          # not unimodular
        "periodic:m=2:[i]",      # list length != m
        "periodic:m=0:[]",       # m = 0
        "finite:[]",             # empty list
        "cm:xi=2",               # |xi| not in {0, 1}
        "cm:xi=exp(i*1e400)",    # xi = nan+nanj
        "finite:[1,exp(i*1e400)]",
        "periodic:m=1:[1e400]",  # |v| = inf
        "quadphase:alpha=1e400",  # alpha = inf
    ],
)
def test_parse_domain_errors(text):
    with pytest.raises(DomainError):
        parse_eps_spec(text)


def test_parse_deterministic():
    a = zw_params(parse_eps_spec("finite:[exp(i*pi/5),1]"))
    b = zw_params(parse_eps_spec("finite:[exp(i*pi/5),1]"))
    assert a.z == b.z and a.w == b.w


# ---------------------------------------------------------------- eps_at

def test_eps_at_examples():
    assert eps_at(parse_eps_spec("cm:xi=i"), 3) == pytest.approx(-1j)
    assert eps_at(parse_eps_spec("quadphase:alpha=0.25"), 2) == pytest.approx(1.0)
    assert eps_at(parse_eps_spec("finite:[-1]"), 2) == 0
    # eps_0 = 1 for every class
    for text in ("cm:xi=i", "periodic:m=2:[i,-i]", "finite:[-1]", "quadphase:alpha=0.3"):
        assert eps_at(parse_eps_spec(text), 0) == 1


def test_eps_at_periodic_wraps():
    spec = parse_eps_spec("periodic:m=3:[i,-1,1]")
    for k in range(1, 101):
        assert eps_at(spec, k) == eps_at(spec, k + 3)


# ---------------------------------------------------------------- zw_params

def test_zw_mobius():
    pars = zw_params(parse_eps_spec("finite:[-1]"))
    assert pars.z == -1 and pars.w == 0
    assert pars.z_integer_case == -1
    assert not pars.w_is_one


def test_zw_cm_angle_pi_3():
    pars = zw_params(parse_eps_spec("cm:xi=exp(i*pi/3)"))
    assert abs(pars.re_z_plus_w) < 1e-10


def test_zw_finite_first_figure_case():
    pars = zw_params(parse_eps_spec("finite:[exp(i*pi/5),1]"))
    assert pars.re_z_plus_w == pytest.approx(1.25, abs=1e-10)
    assert pars.z_integer_case is None


def test_zw_liouville_w_is_one():
    pars = zw_params(parse_eps_spec("cm:xi=-1"))
    assert pars.z == -1 and pars.w == 1
    assert pars.w_is_one


# ---------------------------------------------------------------- g_eval

def test_g_mobius_linear():
    assert g_eval(parse_eps_spec("finite:[-1]"), 0.3) == pytest.approx(0.7)


def test_g_geometric():
    assert g_eval(parse_eps_spec("cm:xi=1"), 0.5) == pytest.approx(2.0)


def test_g_periodic_closed_form():
    u = 0.2
    want = (1 + 1j * u - (1 + 1j) * u * u) / (1 - u * u)
    assert g_eval(parse_eps_spec("periodic:m=2:[i,-i]"), u) == pytest.approx(want)


def test_g_domain_error():
    with pytest.raises(DomainError):
        g_eval(parse_eps_spec("cm:xi=1"), 1.0)


# ---------------------------------------------------------------- properties

SPEC_STRATEGY = st.one_of(
    st.builds(
        lambda t: parse_eps_spec(f"cm:xi=exp(i*{t})"),
        st.floats(0, 6.28, allow_nan=False),
    ),
    st.builds(
        lambda ts: EpsilonSpec(
            "PERIODIC",
            period=len(ts),
            values=tuple(cmath.exp(1j * t) for t in ts),
        ),
        st.lists(st.floats(0, 6.28, allow_nan=False), min_size=1, max_size=4),
    ),
    st.builds(
        lambda ts: EpsilonSpec(
            "FINITE", values=tuple(cmath.exp(1j * t) for t in ts)
        ),
        st.lists(st.floats(0, 6.28, allow_nan=False), min_size=1, max_size=4),
    ),
    st.builds(
        lambda a: EpsilonSpec("QUADPHASE", alpha=a),
        st.floats(0, 1, allow_nan=False),
    ),
)


@settings(max_examples=60, deadline=None)
@given(SPEC_STRATEGY)
def test_unimodularity_everywhere(spec):
    for k in range(0, 201):
        assert abs(eps_at(spec, k)) <= 1 + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    SPEC_STRATEGY,
    st.floats(0.0, 0.5),
    st.floats(0, 6.28),
)
def test_g_matches_defining_series(spec, r, theta):
    u = cmath.rect(r, theta)
    series = sum(eps_at(spec, k) * u ** k for k in range(201))
    assert abs(g_eval(spec, u) - series) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(SPEC_STRATEGY)
def test_window_bounds(spec):
    pars = zw_params(spec)
    assert abs(pars.z) <= 1 + 1e-12
    assert -2 - 1e-12 <= pars.w.real <= 25.0 / 16.0 + 1e-12


def test_quadphase_order_per_point():
    # each point takes its own truncation order: its value in one array
    # (sorted by order inside) matches the point alone, and meets the
    # defining series to the tail bound G_TOL |u|^3 plus rounding
    spec = parse_eps_spec("quadphase:alpha=0.381966")
    rng = np.random.default_rng(5)
    r = np.concatenate([[0.0, 0.785, 1e-9], 10.0 ** rng.uniform(-6, -0.1, 60)])
    u = r * np.exp(1j * rng.uniform(-math.pi, math.pi, r.size))
    together = _g_eval_array(spec, u)
    for uk, gk in zip(u, together):
        assert abs(gk - _g_eval_array(spec, np.array([uk]))[0]) <= 4 * EPS
        series = sum(eps_at(spec, k) * uk ** k for k in range(400))
        terms = sum(abs(uk) ** k for k in range(400))
        assert abs(gk - series) <= G_TOL * abs(uk) ** 3 + 8 * EPS * terms, abs(uk)
