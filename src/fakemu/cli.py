"""Command-line interface.

Commands:
  classify    bias classification report (JSON)
  trajectory  B(x) samples on a log/loglog grid (CSV or JSON)
  evaluate    explicit-formula breakdown vs direct sum at one x (JSON)
  watson      Taylor coefficients of an integrand (JSON)
  verify      self-check suites; exit 0 iff all pass

Exit codes: 0 ok, 1 suite failure or another typed error (a domain error
such as a non-finite x or an unreadable zeros file, a range or quadrature
error), 2 parse error, 3 window error, 4 capacity error.  Each error prints
one "... error:" line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
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
    """The config of the command's flags; a flag it does not register
    keeps the FormulaConfig default."""
    flags = vars(args)
    kernel = None
    if flags.get("zeros_file"):
        kernel = ZetaKernel(load_zero_table(args.zeros_file))
    return FormulaConfig(
        a=flags.get("a", FormulaConfig.a),
        n_zeros=flags.get("n_zeros", FormulaConfig.n_zeros),
        gf_config=GfConfig(prime_limit=args.prime_limit),
        kernel=kernel,
    )


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_shared(p: argparse.ArgumentParser, *, zeros_file: bool, contour: bool) -> None:
    """Flags of a command that evaluates a spec (all but verify): those of
    every such command, --zeros-file if it reads the zero table, and
    --n-zeros and --a if it reads the contour's zeros and abscissa."""
    p.add_argument("--eps", required=True, help="epsilon-spec string")
    p.add_argument("--prime-limit", type=int, default=GfConfig.prime_limit)
    if contour:
        p.add_argument("--n-zeros", type=int, default=FormulaConfig.n_zeros)
        p.add_argument("--a", type=float, default=FormulaConfig.a)
    if zeros_file:
        p.add_argument("--zeros-file", default=None)
    p.add_argument("--out", default=None)


def cmd_classify(args) -> int:
    spec = parse_eps_spec(args.eps)
    cfg = _config_from_args(args)
    report = bias_mod.classify(spec, cfg)
    tail = G_f_tail_estimate(spec, 0.5, cfg.gf_config)
    payload = {
        "z": _c(report.params.z),
        "w": _c(report.params.w),
        "re_z_plus_w": report.re_z_plus_w,
        "c_half": _c(report.c_half),
        "classification": report.classification,
        "prime_limit": args.prime_limit,
        "tail_estimate": tail if math.isfinite(tail) else None,  # JSON has no inf
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
    # the formula first: a window error exits before the sieve runs
    b = a_exp_formula(spec, args.x, cfg) if mode in ("formula", "both") else None
    direct = direct_exp_sum(spec, args.x) if mode in ("direct", "both") else None
    payload = {"x": args.x}
    if b is not None:
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

    # c_1/2 reads only J_1/2(0): no zero, no contour
    p = sub.add_parser("classify", help="bias classification report")
    _add_shared(p, zeros_file=False, contour=False)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("trajectory", help="emit B(x) samples")
    _add_shared(p, zeros_file=True, contour=True)
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--grid", choices=("log", "loglog"), default="log")
    p.add_argument("--mode", choices=("direct", "formula"), default="direct")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_trajectory)

    p = sub.add_parser("evaluate", help="formula breakdown at one x")
    _add_shared(p, zeros_file=True, contour=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--mode", choices=("direct", "formula", "both"), default="both")
    p.set_defaults(fn=cmd_evaluate)

    # a Watson ring reads J on |u| = 0.05 only: neither a nor n_zeros
    p = sub.add_parser("watson", help="Taylor coefficients of an integrand")
    _add_shared(p, zeros_file=True, contour=False)
    p.add_argument("--point", required=True, help="one | half | zero:K")
    p.add_argument("--order", type=int, default=3)
    p.set_defaults(fn=cmd_watson)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("--suite", choices=sorted(verify_mod.SUITES), required=True)
    p.set_defaults(fn=cmd_verify)
    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parse_args keeps no state between calls."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
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
