"""One workload in one fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Set-up (import, default kernel, prime list, the workload's own set-up)
ends with a ``READY`` line on stdout; the parent times the process from
spawn to that line.  Then the worker runs whole passes over the workload's
operations until the next pass would end after S seconds (at least one
pass; with tracing, untraced and traced passes taken in turn, at least
one of each), checks every output, and prints one JSON summary line.
Every pass repeats the same operations on the same inputs, in an order
shuffled from the seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def _import_package():
    sys.path.insert(0, SRC)
    import fakemu

    if os.path.dirname(os.path.dirname(os.path.abspath(fakemu.__file__))) != SRC:
        raise ImportError(f"fakemu imported from {fakemu.__file__}, not from {SRC}")
    import fakemu.cli  # noqa: F401  (imports every layer)


def _common_setup():
    from fakemu import euler_residual, zeta_kernel

    zeta_kernel.default_kernel()  # zero table load and its 100 zeta checks
    euler_residual.GfConfig().logp


def _env() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
    }


@dataclass
class Pass:
    traced: bool
    spans: tuple = (0, 0)  # [lo, hi) span indices recorded during the pass
    samples: list = field(default_factory=list)  # per operation, its latencies
    # (operation index, output), in run order, of each output that differs
    # from its operation's first one (and of that first one), so memory
    # does not grow with the number of samples
    outputs: list = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """Time in the timed operations, without what runs between them."""
        return sum(map(sum, self.samples))

    @property
    def wall(self) -> float:
        """Time of the workload's operations once each, at their mean in the pass."""
        return sum(map(statistics.fmean, self.samples))


def _tail(values: list[float]) -> tuple[str, float]:
    """Highest of p50/p90/p99/p99.9 with >= 10 samples beyond it, else max."""
    for label, q in (("p99.9", 99.9), ("p99", 99.0), ("p90", 90.0), ("p50", 50.0)):
        if len(values) * (1.0 - q / 100.0) >= 10.0:
            return label, float(np.percentile(values, q))
    return "max", max(values)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _import_package()
    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.on = True
    setup_lo = tracer.mark() if tracer else 0
    _common_setup()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if wl.setup:
        wl.setup()
    setup_hi = tracer.mark() if tracer else 0
    if tracer:
        tracer.on = False
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # Successive passes (pairs of passes when tracing) run pinned to the
    # available CPUs in turn: on a shared host one CPU can run at half speed
    # for a minute while the other does not, and a best-of over passes on
    # one CPU alone would keep that slowdown.
    # The order of the operations is shuffled in every pass, so that the
    # samples of one operation fall at unrelated moments of the run.  A
    # traced run times each operation once a pass, so that per-layer
    # figures are those of one instance of the workload.
    cpus = sorted(os.sched_getaffinity(0))
    # what set-up made lives to the end: keep it out of every collection,
    # so the collections between operations cost microseconds
    gc.collect()
    gc.freeze()
    order_rng = random.Random(args.seed)
    slots = [j for j, op in enumerate(wl.ops) for _ in range(1 if tracer else op.repeats)]
    first_out: dict[int, object] = {}
    passes: list[Pass] = []
    t_begin = time.perf_counter()
    while True:
        turn = len(passes) // 2 if tracer else len(passes)
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        p = Pass(traced=bool(tracer) and len(passes) % 2 == 1,
                 samples=[array("d") for _ in wl.ops])
        order_rng.shuffle(slots)
        lo = tracer.mark() if tracer else 0
        for j in slots:
            # free the previous operation's cyclic garbage outside the timed
            # region, so that no operation pays for another's and the peak
            # RSS does not depend on when the collector happened to run
            gc.collect()
            if p.traced:
                tracer.on = True
            t0 = time.perf_counter()
            try:
                out = wl.ops[j].run()
            except Exception:  # noqa: BLE001 - a raising operation counts as failed
                out = RuntimeError(traceback.format_exc(limit=3))
            p.samples[j].append(time.perf_counter() - t0)
            if tracer:
                tracer.on = False
            if j not in first_out:
                first_out[j] = out
                p.outputs.append((j, out))
            elif out != first_out[j]:
                p.outputs.append((j, out))
        p.spans = (lo, tracer.mark() if tracer else 0)
        passes.append(p)
        if tracer and len(passes) < 2:  # one untraced and one traced pass
            continue
        if time.perf_counter() - t_begin + p.elapsed > args.seconds:
            break
    os.sched_setaffinity(0, cpus)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures: dict[str, dict] = {}

    def fail(op, msg: str, count: int) -> None:
        entry = failures.setdefault(
            op.label, {"known": op.known_failure, "count": 0, "detail": msg}
        )
        entry["count"] += count

    verdict: dict[int, Optional[str]] = {}  # of each operation's first output
    kept = [0] * len(wl.ops)
    for p in passes:
        for j, out in p.outputs:
            kept[j] += 1
            msg = f"raised: {out}" if isinstance(out, Exception) else wl.ops[j].check(out)
            verdict.setdefault(j, msg)
            if msg is not None:
                fail(wl.ops[j], msg, 1)
    # every output not kept equals its operation's first one
    for j, op in enumerate(wl.ops):
        same = sum(len(p.samples[j]) for p in passes) - kept[j]
        if same and verdict[j] is not None:
            fail(op, verdict[j], same)
    attempted = sum(len(v) for p in passes for v in p.samples)
    failed = sum(f["count"] for f in failures.values())

    # Each operation's latency is its best over all its samples in the
    # untraced passes, and wall_s adds those up: on a shared host the same
    # work runs up to 1.8x slower in stretches of about a second, and the
    # best of many samples spread over the run is what stays put from run
    # to run.
    untraced = [p for p in passes if not p.traced]
    samples = [[lat for p in untraced for lat in p.samples[j]] for j in range(len(wl.ops))]
    best = [min(v) for v in samples]
    tail_label, tail = _tail(best)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "passes": len(passes),
        "ops_per_pass": len(slots),
        "distinct_ops": len(wl.ops),
        "samples_per_op": [min(map(len, samples)), max(map(len, samples))],
        "wall_s": sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_tail_ms": tail * 1e3,
        "op_tail_pct": tail_label,
        "peak_rss_mb": peak_rss_mb,
        "env": _env(),
        "inputs": wl.info,
    }
    if tracer:
        summary["layers"] = _layer_metrics(tracer, wl, passes, (setup_lo, setup_hi))
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.dump(path)
        summary["spans_file"] = os.path.relpath(path, ROOT)
        summary["spans"] = tracer.mark()
    print(json.dumps(summary), flush=True)
    return 0


_NO_SPANS = (0, 0.0, 0.0)  # (calls, self_s, total_s) of a name never called


def _layer_metrics(tracer, wl, passes, setup_range) -> dict:
    """Per-layer metrics per pass (median over traced passes); the tracing
    overhead compares the fastest traced and untraced passes."""
    traced = [p for p in passes if p.traced]
    per_pass = []
    for p in traced:
        agg = tracer.aggregate(*p.spans)

        def calls(name):
            return agg.get(name, _NO_SPANS)[0]

        def self_s(name):
            return agg.get(name, _NO_SPANS)[1]

        sieve_self = sum(v[1] for k, v in agg.items() if k.startswith("sieve."))
        g_calls, g_self = calls("euler_residual.G_f"), self_s("euler_residual.G_f")
        evals = calls("explicit_formula.a_exp_formula")
        m = {
            "sieve.direct_exp_sums_multi.self_s": self_s("sieve.direct_exp_sums_multi"),
            "sieve.self_frac": sieve_self / p.wall,
            "sieve.ns_per_term": sieve_self / wl.sieve_terms * 1e9 if wl.sieve_terms else 0.0,
            "sieve.exp_terms": wl.exp_terms,
            "euler_residual.G_f.calls": g_calls,
            "euler_residual.G_f.self_s": g_self,
            "euler_residual.G_f.us_per_call": g_self / g_calls * 1e6 if g_calls else 0.0,
            "euler_residual.G_f.self_frac": g_self / p.wall,
            "euler_residual.G_f_tail_estimate.self_s": self_s("euler_residual.G_f_tail_estimate"),
            "explicit_formula.g_per_eval": g_calls / evals if evals else 0.0,
        }
        for name in (
            "zeta_kernel.zeta", "zeta_kernel.zeta_times_s_minus_1",
            "zeta_kernel.log_zeta_euler", "zeta_kernel.gamma",
            "zeta_kernel.ZetaKernel.L1", "zeta_kernel.ZetaKernel.zeta_prime_at_zero",
            "explicit_formula.a_exp_formula", "eps_model.parse_eps_spec",
            "eps_model.zw_params", "cli.main",
        ):
            m[f"{name}.calls"] = calls(name)
        for name in (
            "zeta_kernel.zeta", "zeta_kernel.log_zeta_euler", "zeta_kernel.gamma",
            "zeta_kernel.ZetaKernel.L1", "explicit_formula.a_exp_formula",
            "explicit_formula.delta_1", "explicit_formula.delta_half",
            "explicit_formula.delta_rho", "explicit_formula.c_half",
            "bias.trajectory", "bias.classify", "eps_model.parse_eps_spec", "cli.main",
        ):
            m[f"{name}.self_s"] = self_s(name)
        per_pass.append(m)
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    _, kernel_self, kernel_total = tracer.aggregate(*setup_range).get(
        "zeta_kernel.default_kernel", _NO_SPANS
    )
    out["zeta_kernel.default_kernel.self_s"] = kernel_self
    out["zeta_kernel.default_kernel.total_s"] = kernel_total
    out["trace.overhead_s"] = min(p.wall for p in traced) - min(
        p.wall for p in passes if not p.traced
    )
    return out


if __name__ == "__main__":
    sys.exit(main())
