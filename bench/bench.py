"""Timings of fakemu's end-to-end operations, written as one JSON file.

    python bench/bench.py --out BENCH.json [--other CHECKOUT]

Each of the RUNS runs per checkout is a fresh interpreter that imports
fakemu from the checkout's ``src`` and times every case once with
``time.perf_counter``; the file holds, per case, the median and the
quartiles over the runs.  With ``--other`` the runs alternate between
this checkout and the other one (this one first in even runs, the other
first in odd runs), and each case also records in how many of the run
pairs this checkout was faster.

Every worker runs with one BLAS/OpenMP thread (WORKER_THREADS), as
perfbench's workers do: with threaded OpenBLAS on 2 cores, the first
sieve sweep of a fresh interpreter sometimes took ~6x its usual time.

A "cold" case starts from a new FormulaConfig over a new ZetaKernel,
whose sweeps are empty (the kernel keeps l1, l2 and Gamma at every point
it has served at 1, 1/2 and each zero, for every spec), and from an
emptied table of prime sums (`GfConfig().prime_sums`, which every spec
shares), so only the per-process tables (zero table, log-prime table) are
already built.  A "shared" case starts from a new config and kernel too,
but on a table of prime sums that a quadphase `a_exp_formula` (2 pairs)
and `classify` filled: the cost of a second spec.  A checkout without the
table runs it as a cold case after the same quadphase work.  An
"other_spec" case runs fig53 on a new config over a kernel and prime sums
that the same quadphase work filled: the cost of a second spec in one
process, where both its G lines and the sweeps' points are shared; its
".misses" and ".hits" entries count the points the kernel's sweeps
computed and read in the timed call (absent from a checkout whose sweeps
do not count them).  The "classify.torus" case classifies the TORUS^2
specs finite:[e^{ia}, e^{ib}], a and b multiples of 2 pi/TORUS, on one
new config over a new kernel and emptied prime sums; a WindowError (Re w
>= 1) counts as an outcome.  A
"warm" case first fills its config on the same grid it then times.  The
"cli" cases run a command in-process through cli.main, its output
captured, on the default kernel with its sweeps emptied (the DIRECT
trajectories' Delta_1 used it) and on an emptied table of prime sums, as
a command in a fresh process.
The "G_f", "zeta", "gamma" and "L1" cases time one layer on a batch of
points: one point, a Watson ring, or a line of LINE_POINTS points; the
"L1.cut.half" case, per call, the real points s and 2s of the half cut's
middle nodes, where every power n^{-s} of zeta has a small phase.  The
"RhoSweep" case builds zero 1's sweep on a new kernel and continues both
logs to the SWEEP_POINTS points of a degree-128 Chebyshev line of the
zero's cut.  A
"sieve.top_segment" case is the sieve alone, in ns per n: the mean of
BLOCK_REPEAT passes over the top 2 BLOCK numbers of a sweep to n_max,
after one untimed pass on a plan built outside the timing, for two
lattice specs and a control off the lattice.  A pass sieves them as the
sweep does (`sieve._blocks`: one segment of codes, then f block by
block).

With ``--other``, each case also records the paired differences
this - other, one per run pair, with their median and quartiles, and how
many pairs favour each checkout: two medians taken apart do not show a
shift smaller than the spread of the runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIG53 = "periodic:m=2:[i,-i]"
MOBIUS = "finite:[-1]"
#: a top-segment control off the lattice: its eps_1 = exp(i pi/5) makes f a
#: float product of the ratios times the codes' large-prime factor
CONTROL = "finite:[exp(i*pi/5),1]"
QUAD = "quadphase:alpha=0.381966"
EDGE = "finite:[exp(i*0.25)]"  # Re z = 0.969: Delta_1's left end near the window's edge
NEAR_ONE = "finite:[exp(i*3.1)]"  # Re(-z) = 0.999 at the zero cuts
WORKER_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUNS = 15  # per checkout: enough for a median and quartiles
WARM_POINTS = 64  # a LOG grid on [1e3, 1e8], as a trajectory takes it
SIEVE_POINTS = 48  # a LOG grid on [1e3, 2e5]
POINT_REPEAT = 16  # one-point G calls per sample
RING_POINTS = 256  # a Watson ring of radius 0.05
SWEEP_POINTS = 129  # a Chebyshev line of degree 128 on the zero cut, b = 1/2 - a = 0.1
LINE_POINTS = 4000  # Re s = 1.5, |Im s| <= 50
#: n_max of the sieve's top-segment cases: x = 2e5, 1e7 and the cap 1e8 at
#: DEFAULT_CUTOFF_MULT = 37.5
TOP_SEGMENTS = (("7.5e6", 7_500_000), ("3.75e8", 375_000_000), ("3.75e9", 3_750_000_000))
TOP_SEGMENT = "sieve.top_segment."
BLOCK_REPEAT = 8
TORUS = 16  # classify.torus: a TORUS x TORUS grid of two-point finite specs


def _timed(fn) -> float:
    gc.collect()
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def run_cases(tree: str) -> dict[str, float]:
    """One sample of every case, in seconds, with fakemu from tree/src."""
    sys.path.insert(0, os.path.join(tree, "src"))
    import numpy as np

    from fakemu import bias, cli, euler_residual as er, explicit_formula as xf, sieve
    from fakemu import zeta_kernel as zk
    from fakemu.eps_model import parse_eps_spec
    from fakemu.errors import WindowError

    spec, quad, edge = parse_eps_spec(FIG53), parse_eps_spec(QUAD), parse_eps_spec(EDGE)
    near_one = parse_eps_spec(NEAR_ONE)
    table = zk.default_kernel().table

    def empty_prime_sums() -> None:
        sums = getattr(er.GfConfig(), "prime_sums", None)  # absent before the table
        if sums is not None:
            sums.clear()

    def new_config(n_zeros: int):
        return xf.FormulaConfig(n_zeros=n_zeros, kernel=zk.ZetaKernel(table))

    def fresh(n_zeros: int):
        empty_prime_sums()
        return new_config(n_zeros)

    def shared(n_zeros: int):
        xf.a_exp_formula(quad, 1e4, fresh(2))
        bias.classify(quad, new_config(30))
        return new_config(n_zeros)

    def other_spec(n_zeros: int):
        empty_prime_sums()
        kernel = zk.ZetaKernel(table)
        xf.a_exp_formula(quad, 1e4, xf.FormulaConfig(n_zeros=2, kernel=kernel))
        bias.classify(quad, xf.FormulaConfig(n_zeros=30, kernel=kernel))
        return xf.FormulaConfig(n_zeros=n_zeros, kernel=kernel)

    def sweep_counts(kernel) -> tuple[int, int]:
        sweeps = kernel._sweeps.values()
        return sum(s.misses for s in sweeps), sum(s.hits for s in sweeps)

    def classify_all(specs, cfg) -> None:
        for s in specs:
            try:
                bias.classify(s, cfg)
            except WindowError:
                pass

    grid = [float(x) for x in np.exp(np.linspace(math.log(1e3), math.log(1e8), WARM_POINTS))]
    out = {}
    for n in (2, 30):
        out[f"a_exp_formula.cold.fig53.n_zeros={n}"] = _timed(
            lambda: xf.a_exp_formula(spec, 1e4, fresh(n))
        )
        cfg = fresh(n)
        for x in grid:
            xf.a_exp_formula(spec, x, cfg)
        # per x, over the grid
        out[f"a_exp_formula.warm.fig53.n_zeros={n}"] = _timed(
            lambda: [xf.a_exp_formula(spec, x, cfg) for x in grid]
        ) / len(grid)
    # one part on the config a_exp_formula filled, per x
    out["delta_1.warm.fig53.n_zeros=30"] = _timed(
        lambda: [xf.delta_1(spec, x, cfg) for x in grid]
    ) / len(grid)
    out["a_exp_formula.cold.quadphase.n_zeros=30"] = _timed(
        lambda: xf.a_exp_formula(quad, 1e4, fresh(30))
    )
    out["delta_1.cold.edge.n_zeros=2"] = _timed(lambda: xf.delta_1(edge, 1e4, fresh(2)))
    out["a_exp_formula.cold.near_one.n_zeros=2"] = _timed(
        lambda: xf.a_exp_formula(near_one, 1e4, fresh(2))
    )
    # one cut's quadrature: the zero's G line, sweep and rule, then per x
    cfg = fresh(1)
    out["delta_rho.cold.fig53.zero=1"] = _timed(lambda: xf.delta_rho(spec, 1, 1e4, cfg))
    for x in grid:
        xf.delta_rho(spec, 1, x, cfg)
    out["delta_rho.warm.fig53.zero=1"] = _timed(
        lambda: [xf.delta_rho(spec, 1, x, cfg) for x in grid]
    ) / len(grid)
    out["c_half.fig53.cold"] = _timed(lambda: xf.c_half(spec, fresh(30)))
    cfg = fresh(30)
    for state in ("cold", "warm"):
        out[f"trajectory.formula.fig53.{WARM_POINTS}.{state}"] = _timed(
            lambda: bias.trajectory(spec, 1e3, 1e8, WARM_POINTS, "LOG", bias.FORMULA, cfg)
        )
    out["classify.fig53.cold"] = _timed(lambda: bias.classify(spec, fresh(30)))
    cfg = shared(2)
    out["a_exp_formula.shared.fig53.n_zeros=2"] = _timed(lambda: xf.a_exp_formula(spec, 1e4, cfg))
    cfg = shared(30)
    out["classify.shared.fig53"] = _timed(lambda: bias.classify(spec, cfg))
    cfg = other_spec(2)
    counted = hasattr(zk, "Sweep")  # sweeps that count their points
    before = sweep_counts(cfg.kernel) if counted else None
    name = "a_exp_formula.other_spec.fig53.n_zeros=2"
    out[name] = _timed(lambda: xf.a_exp_formula(spec, 1e4, cfg))
    if counted:
        after = sweep_counts(cfg.kernel)
        out[f"{name}.misses"], out[f"{name}.hits"] = (a - b for a, b in zip(after, before))
    angles = [2.0 * math.pi * k / TORUS for k in range(TORUS)]
    torus = [parse_eps_spec(f"finite:[exp(i*{a!r}),exp(i*{b!r})]") for a in angles for b in angles]
    out[f"classify.torus.{TORUS}x{TORUS}"] = _timed(lambda: classify_all(torus, fresh(30)))
    # the layers on their own, each after one untimed call that builds the
    # series orders and, at a point and on the ring, fills the prime sums:
    # G at classify's one point s = 1/2, per call, also with the prime sums
    # emptied before each call ("fill"); G on a Watson ring around 1/2; G,
    # zeta, gamma and L1 on one line, whose points but the first fill their
    # prime sums in the timed call
    er.G_f(spec, 0.5)
    out["G_f.fig53.point"] = _timed(
        lambda: [er.G_f(spec, 0.5) for _ in range(POINT_REPEAT)]
    ) / POINT_REPEAT
    out["G_f.fig53.point.fill"] = _timed(
        lambda: [(empty_prime_sums(), er.G_f(spec, 0.5)) for _ in range(POINT_REPEAT)]
    ) / POINT_REPEAT
    ring = 0.5 - 0.05 * np.exp(2j * math.pi * np.arange(RING_POINTS) / RING_POINTS)
    er.G_f(spec, ring)
    out[f"G_f.fig53.ring.{RING_POINTS}"] = _timed(lambda: er.G_f(spec, ring))
    line = 1.5 + 1j * np.linspace(-50.0, 50.0, LINE_POINTS)
    er.G_f(spec, line[:1])
    out[f"G_f.fig53.line.{LINE_POINTS}"] = _timed(lambda: er.G_f(spec, line))
    out[f"zeta.line.{LINE_POINTS}"] = _timed(lambda: zk.zeta(line))
    out[f"gamma.line.{LINE_POINTS}"] = _timed(lambda: zk.gamma(line))
    kernel = zk.ZetaKernel(table)  # not the default kernel the cli cases use
    out[f"L1.line.{LINE_POINTS}"] = _timed(lambda: kernel.L1(line))
    # L1 at the middle nodes s = 1/2 - u of fig53's half cut, with 2s, as
    # the cut reads its two logs in one call, per call
    cfg = fresh(2)
    xf.delta_half(spec, 1e4, cfg)
    s = 0.5 - xf._ctx(spec, cfg).cut("half").middle()[0]
    half = np.concatenate([s, 2.0 * s])
    out[f"L1.cut.half.{s.size}"] = _timed(
        lambda: [kernel.L1(half) for _ in range(POINT_REPEAT)]
    ) / POINT_REPEAT
    sweep_u = 0.1 * np.sin(np.arange(SWEEP_POINTS) * math.pi / (2 * (SWEEP_POINTS - 1))) ** 2
    out[f"RhoSweep.cold.zero=1.{SWEEP_POINTS}"] = _timed(
        lambda: zk.ZetaKernel(table).rho_sweep(1).at(sweep_u)
    )
    xs = np.exp(np.linspace(math.log(1e3), math.log(2e5), SIEVE_POINTS))
    out[f"sieve.direct_exp_sums_multi.fig53.{SIEVE_POINTS}"] = _timed(
        lambda: sieve.direct_exp_sums_multi(spec, xs)
    )
    for name, direct in (("fig53", spec), ("mobius", parse_eps_spec(MOBIUS))):
        out[f"trajectory.direct.{name}.{SIEVE_POINTS}"] = _timed(
            lambda: bias.trajectory(direct, 1e3, 2e5, SIEVE_POINTS, "LOG", bias.DIRECT)
        )

    def top_segment(plan, lo: int) -> None:
        for _ in sieve._blocks(lo, lo + 2 * sieve.BLOCK, plan):
            pass

    for name, text in (("mobius", MOBIUS), ("fig53", FIG53), ("control", CONTROL)):
        for label, n_max in TOP_SEGMENTS:
            plan = sieve._Plan(parse_eps_spec(text), n_max)
            lo = n_max - 2 * sieve.BLOCK + 1
            top_segment(plan, lo)
            seconds = _timed(lambda: [top_segment(plan, lo) for _ in range(BLOCK_REPEAT)])
            out[f"{TOP_SEGMENT}{name}.n_max={label}"] = seconds * 1e9 / (BLOCK_REPEAT * 2 * sieve.BLOCK)

    def command(*argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(list(argv)) != 0:
                raise RuntimeError(f"fakemu {' '.join(argv)} failed")

    cli._parser()  # built once per process, outside the timed commands
    zk.default_kernel()._sweeps.clear()  # the DIRECT trajectories' delta_1 filled its sweep at 1
    empty_prime_sums()
    out["cli.classify.fig53"] = _timed(lambda: command("classify", "--eps", FIG53))
    empty_prime_sums()
    out["cli.evaluate.both.fig53.n_zeros=2"] = _timed(
        lambda: command(
            "evaluate", "--eps", FIG53, "--x", "1e4", "--mode", "both", "--n-zeros", "2"
        )
    )
    return out


def _sample(tree: str) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", tree],
        check=True, capture_output=True, text=True, env={**os.environ, **WORKER_THREADS},
    )
    return json.loads(done.stdout.splitlines()[-1])


def _commit(tree: str):
    """The checkout's commit, "-dirty" if its files differ from it."""
    done = subprocess.run(
        ["git", "-C", tree, "describe", "--always", "--dirty"], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else None


def _machine() -> dict:
    import numpy as np

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),  # the CPUs this process may use
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "worker_env": WORKER_THREADS,
    }


def _stats(samples: list[float]) -> dict:
    import numpy as np

    q1, med, q3 = (float(v) for v in np.percentile(samples, [25, 50, 75]))
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "samples": samples}


def _unit(case: str) -> str:
    if case.startswith(TOP_SEGMENT):
        return "ns/n"
    return "points" if case.endswith((".misses", ".hits")) else "s"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="JSON file to write")
    ap.add_argument("--other", help="a second checkout, alternated with this one")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(run_cases(args.worker)))
        return 0
    if not args.out:
        ap.error("--out is required")
    trees = {"this": ROOT}
    if args.other:
        trees["other"] = os.path.abspath(args.other)
    runs: dict[str, list[dict]] = {name: [] for name in trees}
    for r in range(RUNS):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for name in order:
            runs[name].append(_sample(trees[name]))
            print(f"run {r + 1}/{RUNS} {name}", file=sys.stderr)
    cases = {}
    for case in runs["this"][0]:
        entry = {"unit": _unit(case)}
        for name in trees:
            if case in runs[name][0]:
                entry[name] = _stats([sample[case] for sample in runs[name]])
        if "other" in entry:
            diffs = [a[case] - b[case] for a, b in zip(runs["this"], runs["other"])]
            entry["this_minus_other"] = _stats(diffs)
            entry["this_faster_pairs"] = sum(d < 0 for d in diffs)
            entry["other_faster_pairs"] = sum(d > 0 for d in diffs)
            entry["pairs"] = RUNS
        cases[case] = entry
    report = {
        "machine": _machine(),
        "timer": "time.perf_counter",
        "runs": RUNS,
        "trees": {name: {"commit": _commit(path)} for name, path in trees.items()},
        "cases": cases,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
