"""Self-check suites behind `fakemu verify --suite {core|oracle|asymptotics}`.

core:         parser/sequence semantics, the coefficients of log G, zeta-kernel
              identities, zeta'(rho) against a Cauchy integral, and batch
              against one-point bits of the array kernels
oracle:       sieve ground truths, the block sieve against the SPF table's
              f(n), and direct-vs-formula closure
asymptotics:  Watson remainder order, sine-factor exactness, bias labels

Each check either returns quietly or raises AssertionError; the runner
reports one PASS/FAIL line per check with its wall time, then the suite's
total time.  Checks are deterministic (fixed RNG seeds) so repeated runs
compute the same values bit for bit.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from typing import Callable, Optional

import numpy as np

from . import bias, eps_model, sieve
from . import euler_residual as er, explicit_formula as xf, zeta_kernel as zk

CANONICAL = (
    ("mobius", "finite:[-1]"),
    ("liouville", "cm:xi=-1"),
    ("ones", "cm:xi=1"),
    ("fig51a", "finite:[exp(i*pi/5),1]"),
    ("fig53", "periodic:m=2:[i,-i]"),
)
#: specs whose generating function g is checked as a power series
G_SERIES_SPECS = (
    "cm:xi=exp(i*pi/7)",
    "periodic:m=3:[i,-1,exp(i*1.0)]",
    "finite:[exp(i*pi/5),1]",
    "quadphase:alpha=0.381966",
)


def _spec(text: str) -> eps_model.EpsilonSpec:
    return eps_model.parse_eps_spec(text)


# ---------------------------------------------------------------- core

def check_parser_semantics() -> None:
    mob = _spec("finite:[-1]")
    assert eps_model.eps_at(mob, 2) == 0
    pars = eps_model.zw_params(mob)
    assert pars.z == -1 and pars.w == 0
    cm = _spec("cm:xi=i")
    assert abs(eps_model.eps_at(cm, 3) - (-1j)) < 1e-15
    qp = _spec("quadphase:alpha=0.25")
    assert abs(eps_model.eps_at(qp, 2) - 1.0) < 1e-12
    per = _spec("periodic:m=2:[i,-i]")
    got = eps_model.g_eval(per, 0.2)
    u = 0.2
    want = (1 + 1j * u - (1 + 1j) * u * u) / (1 - u * u)
    assert abs(got - want) < 1e-14


def check_g_series_agreement() -> None:
    rng = random.Random(11)
    for spec in map(_spec, G_SERIES_SPECS):
        for _ in range(8):
            u = cmath.rect(rng.uniform(0, 0.5), rng.uniform(0, 2 * math.pi))
            series = sum(
                eps_model.eps_at(spec, k) * u ** k for k in range(201)
            )
            assert abs(eps_model.g_eval(spec, u) - series) <= 1e-12, (spec, u)


def check_log_G_coefficients() -> None:
    # z and w cancel a_1 and a_2 of log[g(u) (1-u)^z (1-u^2)^w] = sum a_k u^k,
    # so log G_p = O(p^{-3s}); every |a_k| lies within the majorant A_k the
    # series orders come from; the G kernel (explicit primes plus that
    # series) against three principal logs summed over every prime
    k = np.arange(3, er._MAX_ORDER + 1)
    # periodic:m=1:[-1] comes within 1% of the majorant from k = 10 on
    for text in [t for _, t in CANONICAL] + ["periodic:m=1:[-1]"]:
        assert np.all(np.abs(er._log_coeffs(_spec(text))[3:]) <= er._majorant(k)), text
    cfg = er.GfConfig()
    for text in G_SERIES_SPECS:
        spec = _spec(text)
        a = er._log_coeffs(spec)
        assert abs(a[1]) <= 1e-15 and abs(a[2]) <= 1e-15, (text, a[1], a[2])
        assert np.all(np.abs(a[3:]) <= er._majorant(k)), text
        for s in (0.45, 0.42 + 14.13j):
            got = er.G_f(spec, s, cfg)
            want = complex(np.exp(np.sum(er._log_terms(spec, s, cfg.logp))))
            assert abs(got - want) <= 3e-14 * abs(want), (text, s, abs(got / want - 1))


def check_exp_log_identity() -> None:
    kernel = zk.default_kernel()
    rng = random.Random(5)
    n_done = 0
    while n_done < 200:
        s = complex(rng.uniform(0.35, 3.0), rng.uniform(-50.0, 50.0))
        try:
            v = kernel.L1(s)
        except zk.CutError:
            continue
        h = zk.zeta_times_s_minus_1(s)
        assert abs(cmath.exp(v) - h) <= 1e-10 * (1.0 + abs(h)), s
        n_done += 1


def check_branch_coherence() -> None:
    kernel = zk.default_kernel()
    for z in (-1, 1, 2):
        for i in range(40):
            s = 1.101 + (3.0 - 1.101) * i / 39.0
            lhs = (s - 1.0) ** (-z) * cmath.exp(z * kernel.L1(s))
            rhs = zk.zeta(s) ** z
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs), (z, s)


def check_schwarz_reflection() -> None:
    rng = random.Random(17)
    for _ in range(100):
        s = complex(rng.uniform(-1.0, 4.0), rng.uniform(0.1, 300.0))
        a = zk.zeta(s.conjugate())
        b = zk.zeta(s).conjugate()
        assert abs(a - b) <= 1e-11 * (1 + abs(b)), s


def check_gamma_recurrence() -> None:
    rng = random.Random(23)
    for _ in range(100):
        s = complex(rng.uniform(-8.0, 8.0), rng.uniform(-200.0, 200.0))
        if s.imag == 0.0:
            continue
        g1 = zk.gamma(s + 1.0)
        assert abs(g1 - s * zk.gamma(s)) <= 1e-12 * abs(g1), s


def check_log_zeta_principal() -> None:
    # |Im log zeta| <= (pi/2) log zeta(1.2) < pi on Re s >= 1.2, where the
    # principal Log is therefore the standard branch
    bound = 0.5 * math.pi * zk.log_zeta_euler(1.2).real
    assert bound < math.pi, bound
    for t in np.linspace(-600.0, 600.0, 241):
        assert abs(zk.log_zeta_euler(complex(1.2, t)).imag) <= bound, t


def check_zero_table() -> None:
    table = zk.default_kernel().table
    assert len(table) >= 100
    for g in table.ordinates:
        assert abs(zk.zeta(complex(0.5, g))) <= 1e-8, g


def check_zeta_prime() -> None:
    # two independent estimates of zeta'(rho): the differentiated
    # Euler-Maclaurin sum, and the zero's RhoSweep at u = 0, a trapezoid
    # Cauchy ring of zeta values of radius 2 gap radii (<= 3.6e-15 apart)
    kernel = zk.ZetaKernel(zk.default_kernel().table)
    for k in (1, 2, 30, 100):
        rho = kernel.rho(k)
        ring = complex(kernel.rho_sweep(k).h_local(np.array([rho]))[0]) / (rho - 1.0)
        got = kernel.zeta_prime_at_zero(k)
        assert abs(got - ring) <= 1e-14 * abs(ring), (k, got, ring)


def check_array_kernels() -> None:
    # a point's bits are the same alone and inside a mixed batch: zeta and
    # gamma; J over a cut's quadrature nodes and on the Watson ring (on fresh
    # kernels, so the zero's sweep computes every point); a G line sampled
    # with others on its segment or alone, and G rows of mixed real parts
    rng = random.Random(29)
    pts = [complex(rng.uniform(-1.0, 5.0), rng.uniform(-60.0, 60.0)) for _ in range(24)]
    pts += [0.5, 2.0, 0.5 + 14.134725141734694j]
    for fn in (zk.zeta, zk.gamma):
        batch = fn(np.array(pts)).tolist()
        for s, got in zip(pts, batch):
            assert got == fn(s), (fn.__name__, s)
    spec = _spec("periodic:m=2:[i,-i]")
    table = zk.default_kernel().table
    u = 0.1 * np.linspace(0.02, 0.98, 9)
    g = np.ones(u.size, dtype=np.complex128)
    n = xf.WATSON_NODES
    ring = xf.WATSON_RADIUS * np.exp(2j * math.pi * np.arange(n) / n)
    for key in ("one", "half", (1, False)):
        cuts = [
            xf._ctx(spec, xf.FormulaConfig(n_zeros=1, kernel=zk.ZetaKernel(table))).cut(key)
            for _ in range(3)
        ]
        args = (u, np.log(cuts[0].b - u), g, -cuts[0].beta * np.log(u))  # (u, log cu, G, scale)
        batch = cuts[0].j(*args).tolist()
        for i, got in enumerate(batch):
            assert got == complex(cuts[1].j(*(v[i : i + 1] for v in args))[0]), (key, i)
        batch = cuts[0].j(ring).tolist()
        for i in range(0, n, 16):
            assert batch[i] == complex(cuts[2].j(ring[i : i + 1])[0]), (key, i)
    # each row's prime sums filled in the batch and alone, with the shared
    # table emptied before every call
    cfg = er.GfConfig()
    for s0, seg in (
        (np.array([0.5, 0.5 + 14.134725141734694j, 0.5 - 21.022039638771555j]), u),
        (np.array([0.45 + 0.02j, 0.5, 0.45 - 0.02j, 0.5 + 14.134725141734694j, 0.7 - 1.0j]), u[:4]),
    ):
        cfg.prime_sums.clear()
        grouped = er.G_f_line(spec, s0, seg, cfg)
        for row, s in zip(grouped, s0.tolist()):
            cfg.prime_sums.clear()
            assert np.array_equal(row, er.G_f_line(spec, s, seg, cfg)), s


CORE_CHECKS = [
    ("parser-semantics", check_parser_semantics),
    ("g-series-agreement", check_g_series_agreement),
    ("log-G-coefficients", check_log_G_coefficients),
    ("array-kernels", check_array_kernels),
    ("exp-log-identity", check_exp_log_identity),
    ("integer-power-coherence", check_branch_coherence),
    ("schwarz-reflection", check_schwarz_reflection),
    ("gamma-recurrence", check_gamma_recurrence),
    ("log-zeta-principal", check_log_zeta_principal),
    ("zero-table-sanity", check_zero_table),
    ("zeta-prime", check_zeta_prime),
]


# ---------------------------------------------------------------- oracle

def check_geometric_closed_form() -> None:
    xs = (10.0, 100.0, 1000.0)
    for x, got in zip(xs, sieve.direct_exp_sums_multi(_spec("cm:xi=1"), xs)):
        want = 1.0 / math.expm1(1.0 / x)
        # the cutoff's tail bound and the rounding of W-term inner sums
        bound = (x + 1) * math.exp(-sieve.DEFAULT_CUTOFF_MULT) + sieve.W * 2.0 ** -53 * x
        assert abs(got - want) <= bound, (x, abs(got - want))


def check_multiplicativity() -> None:
    table = sieve.build_spf(100_000)
    spec = _spec("periodic:m=2:[i,-i]")
    rng = random.Random(41)
    done = 0
    while done < 500:
        m = rng.randint(2, 900)
        n = rng.randint(2, 100_000 // m)
        if math.gcd(m, n) != 1:
            continue
        fm = sieve.f_of_n(table, spec, m)
        fn = sieve.f_of_n(table, spec, n)
        fmn = sieve.f_of_n(table, spec, m * n)
        assert abs(fmn - fm * fn) <= 1e-14, (m, n)
        done += 1


def check_dirichlet_consistency() -> None:
    spec = _spec("finite:[exp(i*pi/5),1]")
    s = 2.5
    blocks = []  # one sum per sieve block, 4 at 10^6

    def consume(lo, f):
        n = np.arange(lo, lo + f.size, dtype=np.float64)
        blocks.append(complex(np.sum(f * np.exp(-s * np.log(n)))))

    sieve._sweep(spec, 10 ** 6, consume)
    series = sum(blocks)
    prod = complex(
        np.exp(
            np.sum(
                np.log(
                    eps_model._g_eval_array(
                        spec, np.exp(-s * np.log(sieve.primes_up_to(1000).astype(float)))
                    )
                )
            )
        )
    )
    series_tail = (10.0 ** 6) ** (1 - s) / (s - 1)
    prod_tail = 3e-6  # ~ sum_{p > 1e3} p^{-2.5}
    assert abs(series - prod) <= 10 * (series_tail + prod_tail), abs(series - prod)


def check_block_sieve() -> None:
    # past two segments of codes (four blocks) and into a partial block, on
    # and off the lattice (fig51a's f takes a float product too): every
    # n <= 1e5, a seeded sample above and every block edge
    n_max = 5 * sieve.BLOCK + 12_345
    table = sieve.build_spf(n_max)
    head = 100_000
    sample = np.random.default_rng(29).choice(n_max - head, 20_000, replace=False) + head + 1
    edges = [e + d for e in range(sieve.BLOCK, n_max, sieve.BLOCK) for d in (0, 1)]
    ks = np.unique(np.concatenate([np.arange(1, head + 1), sample, edges, [n_max]]))
    for name, text in CANONICAL:
        spec = _spec(text)
        next_lo, got = 1, []

        def consume(lo, f):
            nonlocal next_lo
            assert lo == next_lo, name
            pick = ks[(lo <= ks) & (ks < lo + f.size)]
            got.append(f[pick - lo])
            next_lo += f.size

        sieve._sweep(spec, n_max, consume)
        assert next_lo == n_max + 1, name
        want = np.array([sieve.f_of_n(table, spec, k) for k in ks.tolist()])
        err = float(np.max(np.abs(np.concatenate(got) - want)))
        assert err <= 1e-14, (name, err)


def check_direct_vs_formula() -> None:
    cfg = xf.FormulaConfig()
    for name, text in CANONICAL:
        spec = _spec(text)
        xs = (1e3, 1e4)
        for x, direct in zip(xs, sieve.direct_exp_sums_multi(spec, xs)):
            b = xf.a_exp_formula(spec, x, cfg)
            assert abs(direct - b.total) <= 0.25 * x ** 0.45, (name, x)


ORACLE_CHECKS = [
    ("geometric-closed-form", check_geometric_closed_form),
    ("multiplicativity", check_multiplicativity),
    ("dirichlet-consistency", check_dirichlet_consistency),
    ("block-sieve", check_block_sieve),
    ("direct-vs-formula", check_direct_vs_formula),
]


# ---------------------------------------------------------------- asymptotics

def check_sine_factor_exactness() -> None:
    cfg = xf.FormulaConfig()
    mob = _spec("finite:[-1]")
    ones = _spec("cm:xi=1")
    assert xf.delta_1(mob, 1e3, cfg) == 0
    assert xf.delta_rho(ones, 1, 1e3, cfg) == 0
    assert xf.delta_half(ones, 1e3, cfg) == 0  # z+w = 1 integer, w = 0


def check_watson_remainder_order() -> None:
    cfg = xf.FormulaConfig()
    spec = _spec("periodic:m=2:[i,-i]")
    w = eps_model.zw_params(spec).w

    def rem(x: float) -> float:
        scale = math.sqrt(x) * math.log(x) ** (w.real - 1.0)
        return abs(
            xf.delta_half(spec, x, cfg) - xf.watson_delta_half(spec, x, 3, cfg)
        ) / scale

    r3, r5 = rem(1e3), rem(1e5)
    bound = 2.0 * (math.log(1e5) / math.log(1e3)) ** (-4.0)
    assert r5 <= bound * r3, (r3, r5, bound)


def check_bias_labels() -> None:
    cfg = xf.FormulaConfig()
    cases = [
        ("finite:[exp(i*pi/5),1]", bias.PERSISTENT, 1.25),
        ("finite:[exp(i*pi/5),-0.25+0.96824583655185426i]", bias.APPARENT, 0.0),
        ("finite:[exp(i*pi/5),-1]", bias.UNBOUNDED, -0.75),
        ("cm:xi=exp(i*pi/5)", bias.PERSISTENT, 0.5590169943749474),
        ("cm:xi=exp(i*pi/3)", bias.APPARENT, 0.0),
        ("cm:xi=exp(i*2*pi/3)", bias.UNBOUNDED, -0.5),
    ]
    for text, want, rzw in cases:
        rep = bias.classify(_spec(text), cfg)
        assert rep.classification == want, (text, rep.classification)
        assert abs(rep.re_z_plus_w - rzw) <= 1e-4, (text, rep.re_z_plus_w)


def check_trajectory_contraction() -> None:
    cfg = xf.FormulaConfig()
    spec = _spec("periodic:m=2:[i,-i]")
    samples = bias.trajectory(spec, 1e3, 1e5, 9, "LOG", bias.DIRECT, cfg)
    assert abs(samples[-1].B_centered) < abs(samples[0].B_centered), [
        abs(s.B_centered) for s in samples
    ]


ASYMPTOTICS_CHECKS = [
    ("sine-factor-exactness", check_sine_factor_exactness),
    ("watson-remainder-order", check_watson_remainder_order),
    ("bias-labels", check_bias_labels),
    ("trajectory-contraction", check_trajectory_contraction),
]

SUITES = {
    "core": CORE_CHECKS,
    "oracle": ORACLE_CHECKS,
    "asymptotics": ASYMPTOTICS_CHECKS,
}


def run_suite(name: str, emit: Optional[Callable[[str], None]] = print) -> tuple[int, int]:
    """Run one suite; returns (passed, failed)."""
    checks = SUITES.get(name)
    if checks is None:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    passed = failed = 0
    suite_start = time.perf_counter()
    for label, fn in checks:
        start = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report any failure kind
            failed += 1
            line = f"FAIL {name}:{label}: {exc!r}"
        else:
            passed += 1
            line = f"PASS {name}:{label}"
        if emit:
            emit(f"{line} ({time.perf_counter() - start:.3f} s)")
    if emit:
        emit(
            f"suite {name}: {passed} passed, {failed} failed"
            f" ({time.perf_counter() - suite_start:.3f} s)"
        )
    return passed, failed
