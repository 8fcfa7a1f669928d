"""fakemu benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Workloads (see workloads.py and BENCHMARK.json for why each exists):

  direct-sweep   three DIRECT trajectories on a 48-point LOG grid to ~2e5
  formula-cold   in-process CLI `evaluate --mode formula` and `classify`
                 commands, each with a fresh FormulaConfig
  formula-warm   a_exp_formula per x over 64 x after a fill pass

With --trace 0 the result carries every end-to-end metric of
BENCHMARK.json: set-up time is the median over several fresh processes
(spawn to READY), the rest comes from one worker process.  With --trace 1
one worker runs untraced and traced passes in turn and the result carries
every per-layer metric; spans are written under .bench_out/.

Human-readable lines come first; the last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
``correct`` is false when any operation fails its check, except an
operation known to fail at baseline; every failure counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
PACKAGE = os.path.join(ROOT, "src", "fakemu", "__init__.py")

# fresh processes timed for setup_s; formula-warm set-up includes its fill pass
SETUP_SAMPLES = {"direct-sweep": 15, "formula-cold": 15, "formula-warm": 3}
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the worker imports the package from src/
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(argv: list[str], deadline: float) -> tuple[float, subprocess.Popen, threading.Timer]:
    """Start a worker; return (seconds from spawn to READY, process, watchdog)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    except BaseException:
        _stop(proc, watchdog)
        raise
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        _stop(proc, watchdog)
        raise BenchError(f"worker did not finish set-up (exit {proc.returncode})")
    return ready, proc, watchdog


def _stop(proc: subprocess.Popen, watchdog: threading.Timer) -> None:
    watchdog.cancel()
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc: subprocess.Popen, watchdog: threading.Timer) -> str:
    """Wait for a worker to exit and return the rest of its stdout."""
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        _stop(proc, watchdog)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return rest


def _on_signal(signum, _frame):
    # unwinds through _spawn/_finish, which stop the running worker
    raise BenchError(f"stopped by signal {signum}")


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not os.path.isfile(PACKAGE):
        raise BenchError(f"package source not found at {os.path.relpath(PACKAGE, ROOT)}")
    spec = _benchmark_spec()
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]

    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES[workload] - 1):
            ready, proc, watchdog = _spawn([*base, "--setup-only"], deadline)
            _finish(proc, watchdog)
            setups.append(ready)
    ready, proc, watchdog = _spawn(
        [*base, "--seconds", str(seconds), "--trace", str(int(trace))], deadline
    )
    setups.append(ready)
    res = json.loads(_finish(proc, watchdog).strip().splitlines()[-1])

    known = sum(f["count"] for f in res["failures"].values() if f["known"])
    correct = res["failed"] == known
    env = res["env"]
    print(f"workload {workload} seed {seed}: {res['passes']} passes x "
          f"{res['ops_per_pass']} operations, inputs {res['inputs']}")
    print(f"platform {env['platform']} ({env['machine']}), nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}, "
          f"longdouble eps {env['longdouble_eps']:.3g}")
    for label, f in res["failures"].items():
        kind = "known failure" if f["known"] else "FAILED"
        print(f"{kind}: {label} ({f['count']}x): {f['detail']}")

    if trace:
        layers = res["layers"]
        metrics = {}
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
        for name, v in metrics.items():
            print(f"{name:48s} {v['value']:.6g} {v['unit']}")
        print(f"spans: {res['spans']} in {res['spans_file']}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": res["wall_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_tail_ms": res["op_tail_ms"],
            "failed_frac": res["failed"] / res["attempted"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        lo, hi = res["samples_per_op"]
        best_of = f"{lo}" if lo == hi else f"{lo} to {hi}"
        per_op = f"of {res['distinct_ops']} operations, each the best of {best_of} samples"
        notes = {
            "setup_s": f"median of {len(setups)} fresh processes",
            "wall_s": f"sum {per_op}",
            "op_p50_ms": f"median {per_op}",
            "op_tail_ms": f"{res['op_tail_pct']} {per_op}",
            "failed_frac": f"{res['failed']} of {res['attempted']}, {known} known",
        }
        for name, unit in END_TO_END_UNITS.items():
            print(f"{name:12s} {values[name]:.6g} {unit}  {notes.get(name, '')}".rstrip())
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP_SAMPLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, _on_signal)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
