"""The benchmark's workloads: seeded inputs, timed operations and checks.

A workload is a list of operations (one pass) that every pass repeats.
The seed sets only the x values and the grid jitter; the spec lists are
fixed.  Every operation's output is checked after timing, against an
oracle that does not share the timed code path, with the tolerances the
repository itself uses:

  criterion 1 / verify:  classification labels and Re(z+w)
  criterion 3:           fig53 c_1/2 within 1e-3 of the paper's constant
  criterion 4:           cm:xi=1 against 1/expm1(1/x) to 1e-9 relative
  verify oracle suite:   |direct - formula| <= 0.25 x^0.45
  formula-warm:          timed values bitwise equal to the fill pass

Workloads are looked up by name in WORKLOADS.  The package must already
be importable (the worker puts the checkout's ``src`` on ``sys.path``).
Package functions are always called through their module attribute, so
the tracer's wrappers are the ones that run.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from fakemu import bias, cli, eps_model, explicit_formula, sieve

CUTOFF_MULT = sieve.DEFAULT_CUTOFF_MULT
CLOSURE_K, CLOSURE_EXP = 0.25, 0.45  # verify's direct-vs-formula bound
C_HALF_FIG53 = complex(0.0684338509001, 0.1036422146372)  # criterion 3
C_HALF_LIOUVILLE = -0.6068573898369092  # Gamma(1/2)/(2 zeta(1/2)), criterion 6

# The one operation expected to fail at baseline: its closure gap is the
# line integral on Re s = a that the explicit formula omits.
KNOWN_GAP_SPEC = "periodic:m=2:[exp(i*1.602646),exp(i*3.111332)]"


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output is right
    known_failure: bool = False
    repeats: int = 1  # times a pass, when not tracing


@dataclass
class Workload:
    ops: list[Op]  # one pass, in any order, each operation op.repeats times
    sieve_terms: int = 0  # sum over sweeps of floor(45 x_max), per pass
    exp_terms: int = 0  # sum over samples of floor(45 x_i), per pass
    info: dict = field(default_factory=dict)
    setup: Optional[Callable[[], None]] = None  # untimed, counted in setup_s


def _jitter(rng: random.Random, x: float) -> float:
    return x * (1.0 + rng.uniform(-0.05, 0.05))


def _log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    # the same expression bias.trajectory uses for a LOG grid
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


def _scale(x: float, w: complex) -> complex:
    """sqrt(x) (log x)^{w-1}, the normalisation of B(x)."""
    return math.sqrt(x) * cmath.exp((w - 1.0) * math.log(math.log(x)))


def _rel_err(got: complex, want: complex, scale: float) -> float:
    return abs(got - want) / max(scale, 1e-300)


# --------------------------------------------------------------- direct-sweep

DIRECT_SPECS = ("finite:[-1]", "cm:xi=1", "periodic:m=2:[i,-i]")
DIRECT_POINTS = 48


def _spf_exp_sum(spec, x: float) -> tuple[complex, float]:
    """sum_{n <= 45x} f(n) e^{-n/x} from SPF point queries, and sum |term|."""
    n_max = int(math.floor(CUTOFF_MULT * x))
    table = sieve.build_spf(n_max)
    re, im, mag = [], [], []
    for n in range(1, n_max + 1):
        t = sieve.f_of_n(table, spec, n) * math.exp(-n / x)
        re.append(t.real)
        im.append(t.imag)
        mag.append(abs(t))
    return complex(math.fsum(re), math.fsum(im)), math.fsum(mag)


def direct_sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    x_lo, x_hi = _jitter(rng, 1e3), _jitter(rng, 2e5)
    xs = _log_grid(x_lo, x_hi, DIRECT_POINTS)
    ops = []
    for text in DIRECT_SPECS:
        spec = eps_model.parse_eps_spec(text)
        w = eps_model.zw_params(spec).w
        memo: dict = {}

        def run(spec=spec):
            return bias.trajectory(
                spec, x_lo, x_hi, DIRECT_POINTS, grid="LOG", mode=bias.DIRECT,
                cfg=explicit_formula.FormulaConfig(),
            )

        def check(samples, spec=spec, text=text, w=w, memo=memo):
            if len(samples) != DIRECT_POINTS:
                return f"{len(samples)} samples"
            for s, x in zip(samples, xs):
                if s.x != float(x) or s.mode != bias.DIRECT:
                    return f"sample at {s.x} does not match the grid"
                if not (cmath.isfinite(s.B) and cmath.isfinite(s.B_centered)):
                    return f"non-finite B at x={s.x}"
            if "first" not in memo:
                x0 = samples[0].x
                d1 = explicit_formula.delta_1(spec, x0, explicit_formula.FormulaConfig())
                memo["first"] = (x0, d1, *_spf_exp_sum(spec, x0))
            x0, d1, want, mag = memo["first"]
            got = samples[0].B * _scale(x0, w) + d1
            if _rel_err(got, want, mag) > 1e-9:
                return f"first sample A_exp({x0}) = {got} vs SPF sum {want}"
            if text == "cm:xi=1":
                # f = 1: A_exp(x) = 1/expm1(1/x) and Delta_1(x) = x exactly
                for s in samples:
                    want1 = 1.0 / math.expm1(1.0 / s.x)
                    got1 = s.B * _scale(s.x, w) + s.x
                    if _rel_err(got1, want1, want1) > 1e-9:
                        return f"A_exp({s.x}) = {got1} vs 1/expm1(1/x) = {want1}"
            return None

        ops.append(Op(f"trajectory {text}", run, check))
    cut = np.floor(CUTOFF_MULT * xs)
    return Workload(
        ops,
        sieve_terms=len(DIRECT_SPECS) * int(cut[-1]),
        exp_terms=len(DIRECT_SPECS) * int(np.sum(cut)),
        info={"x_min": x_lo, "x_max": x_hi, "points": DIRECT_POINTS},
    )


# --------------------------------------------------------------- formula-cold

EVALUATE_SPECS = (
    "finite:[exp(i*pi/5),1]",
    "cm:xi=exp(i*2*pi/3)",
    "periodic:m=2:[i,-i]",
    KNOWN_GAP_SPEC,
    "finite:[-1]",
    "cm:xi=-1",
)
EVALUATE_X = (1e3, 3e4)
# on the residue path: an evaluate takes ~15 ms here, against seconds for
# the other specs
RESIDUE_SPECS = ("finite:[-1]", "cm:xi=-1")
LIGHT_REPEATS = 100  # a pass, of each residue-path evaluate and classify


def _quadphase_re_z_plus_w(alpha: float) -> float:
    # eps_k = exp(2 pi i alpha k^2); z = eps_1, w = eps_2 - z(z+1)/2
    z = cmath.exp(2j * math.pi * alpha)
    w = cmath.exp(8j * math.pi * alpha) - z * (z + 1.0) / 2.0
    return (z + w).real


# spec -> (label, Re(z+w), tolerance); Fig 5.1 values and tolerances from
# criterion 1, Fig 5.2 from criterion 2 and verify's bias-labels check, the
# rest from the trichotomy applied to (z, w) worked out by hand
CLASSIFY_CASES = {
    "finite:[exp(i*pi/5),1]": ("PERSISTENT", 1.25, 1e-10),
    "finite:[exp(i*pi/5),-0.25+0.96824583655185426i]": ("APPARENT", 0.0, 1e-10),
    "finite:[exp(i*pi/5),-1]": ("UNBOUNDED", -0.75, 1e-10),
    "cm:xi=exp(i*pi/5)": ("PERSISTENT", 0.5590169943749474, 1e-4),
    "cm:xi=exp(i*pi/3)": ("APPARENT", 0.0, 1e-10),
    "cm:xi=exp(i*2*pi/3)": ("UNBOUNDED", -0.5, 1e-10),
    "periodic:m=2:[i,-i]": ("PERSISTENT", 0.5, 1e-10),
    "finite:[-1]": ("INTEGER_SPECIAL", -1.0, 1e-10),
    "cm:xi=-1": ("INTEGER_SPECIAL", 0.0, 1e-10),
    "cm:xi=1": ("INTEGER_SPECIAL", 1.0, 1e-10),
    "quadphase:alpha=0.381966": (
        "UNBOUNDED", _quadphase_re_z_plus_w(0.381966), 1e-10,
    ),
}


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _closure_error(text: str, x: float, total: complex, direct: dict) -> Optional[str]:
    """verify's closure bound; direct sums are memoized in `direct`."""
    if (text, x) not in direct:
        direct[text, x] = sieve.direct_exp_sum(eps_model.parse_eps_spec(text), x)
    gap = abs(direct[text, x] - total)
    bound = CLOSURE_K * x ** CLOSURE_EXP
    if not gap <= bound:
        return f"|direct - formula| = {gap:.4g} > {bound:.4g} at x={x:.6g}"
    return None


def _check_evaluate(text: str, x: float, direct: dict):
    def check(out) -> Optional[str]:
        rc, payload = out
        if rc != 0:
            return f"exit code {rc}"
        total = json.loads(payload)["total"]
        return _closure_error(text, x, complex(total["re"], total["im"]), direct)

    return check


def _check_classify(text: str):
    label, rzw, tol = CLASSIFY_CASES[text]

    def check(out) -> Optional[str]:
        rc, payload = out
        if rc != 0:
            return f"exit code {rc}"
        rep = json.loads(payload)
        if rep["classification"] != label:
            return f"label {rep['classification']}, expected {label}"
        if not abs(rep["re_z_plus_w"] - rzw) <= tol:
            return f"Re(z+w) = {rep['re_z_plus_w']}, expected {rzw}"
        c = complex(rep["c_half"]["re"], rep["c_half"]["im"])
        if text == "periodic:m=2:[i,-i]":
            if not (
                abs(c.real - C_HALF_FIG53.real) <= 1e-3
                and abs(c.imag - C_HALF_FIG53.imag) <= 1e-3
            ):
                return f"c_1/2 = {c}, paper {C_HALF_FIG53}"
        if text == "cm:xi=-1" and not abs(c - C_HALF_LIOUVILLE) <= 1e-9:
            return f"c_1/2 = {c}, expected {C_HALF_LIOUVILLE}"
        if label in ("PERSISTENT", "APPARENT") and not abs(c) > 1e-12:
            return f"c_1/2 = {c} vanishes"
        return None

    return check


def formula_cold(seed: int) -> Workload:
    rng = random.Random(seed)
    lo, hi = (math.log(v) for v in EVALUATE_X)
    direct: dict = {}  # untimed direct sums, keyed by (spec, x)
    heavy, light = [], []
    xs = {}
    for text in EVALUATE_SPECS:
        x = float(f"{math.exp(rng.uniform(lo, hi)):.6g}")  # as typed on a command line
        xs[text] = x
        argv = ["evaluate", "--mode", "formula", "--n-zeros", "2",
                "--x", repr(x), "--eps", text]
        (light if text in RESIDUE_SPECS else heavy).append(Op(
            f"evaluate {text}",
            lambda argv=argv: _cli(argv),
            _check_evaluate(text, x, direct),
            known_failure=text == KNOWN_GAP_SPEC,
        ))
    light += [
        Op(f"classify {text}", lambda argv=["classify", "--eps", text]: _cli(argv),
           _check_classify(text))
        for text in CLASSIFY_CASES
    ]
    # The seconds-long evaluates take ~12 s, so a run holds them once.  The
    # commands of a few ms each run LIGHT_REPEATS times in the same pass,
    # shuffled between the evaluates, so that each is timed often enough
    # for its best to be steady.
    for op in light:
        op.repeats = LIGHT_REPEATS
    ops = heavy + light
    return Workload(ops, info={"evaluate_x": xs})


# --------------------------------------------------------------- formula-warm

WARM_SPECS = ("periodic:m=2:[i,-i]", "cm:xi=exp(i*pi/3)", "finite:[exp(i*pi/5),1]")
# few enough x that a pass takes ~0.2 s, so a run times each x ~80 times
WARM_POINTS = 64
WARM_N_ZEROS = 2


def _parts(b) -> list[complex]:
    parts = [b.delta_1, b.delta_half, b.zero_sum, b.total]
    return [complex(v) for v in parts + [v for _, v in b.delta_rho]]


def _bits(b) -> tuple:
    return tuple((v.real.hex(), v.imag.hex()) for v in _parts(b))


def formula_warm(seed: int) -> Workload:
    rng = random.Random(seed)
    xs = [float(x) for x in _log_grid(_jitter(rng, 1e3), _jitter(rng, 1e8), WARM_POINTS)]
    # closure against the direct sum, where that sum is cheap
    closure_xs = {xs[0], max(x for x in xs if x <= 1e4)}
    direct: dict = {}
    ops = []
    fills = []
    for text in WARM_SPECS:
        spec = eps_model.parse_eps_spec(text)
        cfg = explicit_formula.FormulaConfig(n_zeros=WARM_N_ZEROS)
        filled: dict[float, tuple] = {}
        fills.append((spec, cfg, filled))
        for x in xs:
            def check(b, text=text, x=x, filled=filled) -> Optional[str]:
                if _bits(b) != filled[x]:
                    return f"value at x={x} differs from the fill pass"
                if x in closure_xs:
                    return _closure_error(text, x, b.total, direct)
                return None

            ops.append(Op(
                f"a_exp_formula {text}",
                lambda spec=spec, x=x, cfg=cfg: explicit_formula.a_exp_formula(spec, x, cfg),
                check,
            ))

    def fill() -> None:
        for spec, cfg, filled in fills:
            for x in xs:
                b = explicit_formula.a_exp_formula(spec, x, cfg)
                if not all(map(cmath.isfinite, _parts(b))):
                    raise ArithmeticError(f"non-finite formula value at x={x}")
                filled[x] = _bits(b)

    return Workload(ops, setup=fill,
                    info={"x_min": xs[0], "x_max": xs[-1], "points": WARM_POINTS})


WORKLOADS = {
    "direct-sweep": direct_sweep,
    "formula-cold": formula_cold,
    "formula-warm": formula_warm,
}
