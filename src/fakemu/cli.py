"""Command-line interface.

Commands:
  classify    bias classification report (JSON)
  trajectory  B(x) samples on a log/loglog grid (CSV or JSON)
  evaluate    explicit-formula breakdown vs direct sum at one x (JSON)
  watson      Taylor coefficients of an integrand (JSON)
  verify      self-check suites; exit 0 iff all pass

Exit codes: 0 ok, 1 suite/internal failure, 2 parse error, 3 window error,
4 capacity error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import bias as bias_mod
from . import verify as verify_mod
from .eps_model import parse_eps_spec
from .errors import CapacityError, FakeMuError, ParseError, WindowError
from .euler_residual import G_f_tail_estimate, GfConfig
from .explicit_formula import FormulaConfig, a_exp_formula, watson_coeffs
from .sieve import direct_exp_sum
from .zeta_kernel import ZetaKernel, load_zero_table

_FMT = ".17g"


def _c(v: complex) -> dict:
    return {"re": float(v.real), "im": float(v.imag)}


def _config_from_args(args) -> FormulaConfig:
    kernel = None
    if args.zeros_file:
        kernel = ZetaKernel(load_zero_table(args.zeros_file))
    return FormulaConfig(
        a=args.a,
        n_zeros=args.n_zeros,
        gf_config=GfConfig(prime_limit=args.prime_limit),
        kernel=kernel,
    )


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_shared(p: argparse.ArgumentParser) -> None:
    """Flags of every command that evaluates a spec (all but verify)."""
    p.add_argument("--eps", required=True, help="epsilon-spec string")
    p.add_argument("--prime-limit", type=int, default=100_000)
    p.add_argument("--n-zeros", type=int, default=30)
    p.add_argument("--a", type=float, default=0.40)
    p.add_argument("--zeros-file", default=None)
    p.add_argument("--out", default=None)


def cmd_classify(args) -> int:
    spec = parse_eps_spec(args.eps)
    cfg = _config_from_args(args)
    report = bias_mod.classify(spec, cfg)
    payload = {
        "z": _c(report.params.z),
        "w": _c(report.params.w),
        "re_z_plus_w": report.re_z_plus_w,
        "c_half": _c(report.c_half),
        "classification": report.classification,
        "prime_limit": args.prime_limit,
        "tail_estimate": G_f_tail_estimate(spec, 0.5, cfg.gf_config),
        "notes": list(report.notes),
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_trajectory(args) -> int:
    spec = parse_eps_spec(args.eps)
    cfg = _config_from_args(args)
    samples = bias_mod.trajectory(
        spec, args.x_min, args.x_max, args.points,
        grid=args.grid.upper(), mode=args.mode.upper(), cfg=cfg,
    )
    if not args.center:
        samples = [
            bias_mod.TrajectorySample(s.x, s.B, s.B, s.mode) for s in samples
        ]
    if args.format == "csv":
        rows = ["x,re_B,im_B,re_B_centered,im_B_centered,mode"]
        for s in samples:
            rows.append(
                f"{s.x:{_FMT}},{s.B.real:{_FMT}},{s.B.imag:{_FMT}},"
                f"{s.B_centered.real:{_FMT}},{s.B_centered.imag:{_FMT}},{s.mode}"
            )
        _emit("\n".join(rows) + "\n", args.out)
    else:
        payload = [
            {
                "x": s.x,
                "B": _c(s.B),
                "B_centered": _c(s.B_centered),
                "mode": s.mode,
            }
            for s in samples
        ]
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_evaluate(args) -> int:
    spec = parse_eps_spec(args.eps)
    cfg = _config_from_args(args)
    mode = args.mode.lower()
    direct = None
    if mode in ("direct", "both"):
        direct = direct_exp_sum(spec, args.x)
    payload = {"x": args.x}
    if mode in ("formula", "both"):
        b = a_exp_formula(spec, args.x, cfg)
        payload.update(
            {
                "delta_1": _c(b.delta_1),
                "delta_half": _c(b.delta_half),
                "zero_sum": _c(b.zero_sum),
                "per_zero": [
                    {"index": k, "re": v.real, "im": v.imag} for k, v in b.delta_rho
                ],
                "total": _c(b.total),
                "modes": b.modes,
                "zero_tail": b.zero_tail,
            }
        )
        payload["abs_discrepancy"] = (
            abs(direct - b.total) if direct is not None else None
        )
    payload["direct"] = _c(direct) if direct is not None else None
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_watson(args) -> int:
    spec = parse_eps_spec(args.eps)
    cfg = _config_from_args(args)
    coeffs = watson_coeffs(spec, args.point, args.order, cfg)
    payload = {
        "point": args.point,
        "order": args.order,
        "coefficients": [_c(v) for v in coeffs],
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    _, failed = verify_mod.run_suite(args.suite)
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fakemu",
        description="Explicit-formula and bias machinery for fake Mobius functions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="bias classification report")
    _add_shared(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("trajectory", help="emit B(x) samples")
    _add_shared(p)
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--grid", choices=("log", "loglog"), default="log")
    p.add_argument("--mode", choices=("direct", "formula"), default="direct")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument(
        "--center",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="subtract c_1/2 in the centered columns (default on)",
    )
    p.set_defaults(fn=cmd_trajectory)

    p = sub.add_parser("evaluate", help="formula breakdown at one x")
    _add_shared(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--mode", choices=("direct", "formula", "both"), default="both")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("watson", help="Taylor coefficients of an integrand")
    _add_shared(p)
    p.add_argument("--point", required=True, help="one | half | zero:K")
    p.add_argument("--order", type=int, default=3)
    p.set_defaults(fn=cmd_watson)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("--suite", choices=sorted(verify_mod.SUITES), required=True)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except WindowError as exc:
        print(f"window error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4
    except FakeMuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
