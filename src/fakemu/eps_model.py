"""Epsilon-sequence model.

An epsilon sequence prescribes the values of a multiplicative function on
prime powers, f(p^k) = eps_k, independently of the prime p.  Four sequence
classes are supported:

    CM         eps_k = xi^k            (completely multiplicative)
    PERIODIC   eps_{k+m} = eps_k       (k >= 1, period m)
    FINITE     eps_k = 0 for k > m     (polynomial generating function)
    QUADPHASE  eps_k = e^{2 pi i alpha k^2}

Every eps_k must be unimodular or zero; a value within UNIT_TOL of 0 is
stored as an exact 0, so that every consumer (the sieve, f(n) by SPF
table and the formula) sees the same zeros.  The module also evaluates the
generating function g(u) = sum_k eps_k u^k and derives the factorization
parameters z = eps_1, w = eps_2 - eps_1(eps_1 + 1)/2 that control the
zeta-power factorization of the Dirichlet series.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ParseError

#: Tolerance for "is unimodular", "is zero" and "is an integer" decisions.
#: Centralized so downstream integer-case branching is consistent.
UNIT_TOL = 1e-12

#: Truncation tolerance for QUADPHASE series evaluation: at each u the
#: dropped tail is at most G_TOL |u|^3, the size of log G_p at u = p^-s.
G_TOL = 2.0 ** -52

CM = "CM"
PERIODIC = "PERIODIC"
FINITE = "FINITE"
QUADPHASE = "QUADPHASE"


@dataclass(frozen=True)
class EpsilonSpec:
    """Symbolic description of an epsilon sequence (eps_0 = 1 implicit)."""

    class_tag: str
    xi: Optional[complex] = None              # CM
    period: Optional[int] = None              # PERIODIC
    values: Optional[tuple[complex, ...]] = None  # PERIODIC / FINITE
    alpha: Optional[float] = None             # QUADPHASE

    def __post_init__(self):
        tag = self.class_tag
        if tag == CM:
            if self.xi is None:
                raise DomainError("CM spec requires xi")
            object.__setattr__(self, "xi", _unit_or_zero(self.xi))
        elif tag == PERIODIC:
            if not self.period or self.period < 1:
                raise DomainError("PERIODIC spec requires period m >= 1")
            if not self.values or len(self.values) != self.period:
                raise DomainError("PERIODIC spec requires exactly m values")
            object.__setattr__(self, "values", tuple(map(_unit_or_zero, self.values)))
        elif tag == FINITE:
            if not self.values:
                raise DomainError("FINITE spec requires at least one value")
            object.__setattr__(self, "values", tuple(map(_unit_or_zero, self.values)))
        elif tag == QUADPHASE:
            if self.alpha is None or not math.isfinite(self.alpha):
                raise DomainError(f"QUADPHASE spec requires a finite alpha, got {self.alpha}")
        else:
            raise DomainError(f"unknown class tag {tag!r}")

    def is_real_valued(self) -> bool:
        """True when every eps_k is real (enables conjugation shortcuts)."""
        if self.class_tag == CM:
            return abs(self.xi.imag) <= UNIT_TOL
        if self.class_tag in (PERIODIC, FINITE):
            return all(abs(v.imag) <= UNIT_TOL for v in self.values)
        # e^{2 pi i alpha k^2} is real for all k iff 2*alpha is an integer
        return abs(2 * self.alpha - round(2 * self.alpha)) <= UNIT_TOL


@dataclass(frozen=True)
class FactorParams:
    """Factorization parameters (z, w) plus derived quantities."""

    z: complex
    w: complex
    re_z_plus_w: float
    z_integer_case: Optional[int]
    w_is_one: bool


def _unit_or_zero(v: complex) -> complex:
    """v if unimodular, 0 if within UNIT_TOL of 0, else DomainError."""
    # NaN fails both tests: exp(i*1e400) parses to nan+nanj
    m = abs(v)
    if m <= UNIT_TOL:
        return 0j
    if abs(m - 1.0) <= UNIT_TOL:
        return v
    raise DomainError(f"epsilon value {v!r} is neither unimodular nor zero")


def near_integer(c: complex) -> Optional[int]:
    """Round c to the nearest integer when within UNIT_TOL, else None."""
    n = round(c.real)
    if abs(c.real - n) <= UNIT_TOL and abs(c.imag) <= UNIT_TOL:
        return int(n)
    return None


# --------------------------------------------------------------------------
# Grammar:
#   spec      := class ":" body
#   class     := "cm" | "periodic" | "finite" | "quadphase"
#   cm        := "xi=" cnum
#   periodic  := "m=" INT ":" "[" cnum ("," cnum)* "]"
#   finite    := "[" cnum ("," cnum)* "]"
#   quadphase := "alpha=" REAL
#   cnum      := REAL | REAL("+"|"-")REAL"i" | "i" | "-i" | "exp(i*" rexpr ")"
#   rexpr     := arithmetic over REAL and "pi" with + - * / and parentheses
# --------------------------------------------------------------------------

_REAL_RE = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_CNUM_AB_RE = re.compile(rf"^({_REAL_RE})([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$")
_CNUM_REAL_RE = re.compile(rf"^{_REAL_RE}$")


#: Deepest nesting of parentheses and unary signs: one parser recursion each.
MAX_NESTING = 100


class _RexprParser:
    """Recursive-descent parser for real arithmetic over decimals and pi."""

    _TOKEN = re.compile(rf"\s*(?:(\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|(pi)|([-+*/()]))")

    def __init__(self, text: str):
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            m = self._TOKEN.match(text, pos)
            if not m:
                raise ParseError(f"bad token in expression at {text[pos:]!r}")
            self.tokens.append(text[m.start() : m.end()].strip())
            pos = m.end()
        self.i = 0
        self.depth = 0  # open parentheses and unary signs above the factor

    def peek(self) -> Optional[str]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.i += 1
        return tok

    def parse(self) -> float:
        val = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing tokens {self.tokens[self.i:]!r}")
        return val

    def expr(self) -> float:
        val = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                val += self.term()
            else:
                val -= self.term()
        return val

    def term(self) -> float:
        val = self.factor()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                val *= self.factor()
            else:
                d = self.factor()
                if d == 0.0:
                    raise ParseError("division by zero in expression")
                val /= d
        return val

    def factor(self) -> float:
        tok = self.take()
        if tok in ("-", "+", "("):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"expression nests deeper than {MAX_NESTING}")
            val = self.expr() if tok == "(" else self.factor()
            if tok == "(" and self.take() != ")":
                raise ParseError("missing closing parenthesis")
            self.depth -= 1
            return -val if tok == "-" else val
        if tok == "pi":
            return math.pi
        try:
            return float(tok)
        except ValueError:
            raise ParseError(f"bad factor {tok!r}") from None


def _parse_cnum(text: str) -> complex:
    text = text.strip()
    if not text:
        raise ParseError("empty complex literal")
    if text == "i":
        return 1j
    if text == "-i":
        return -1j
    if text.startswith("exp(i*") and text.endswith(")"):
        return cmath.exp(1j * _RexprParser(text[len("exp(i*") : -1]).parse())
    m = _CNUM_AB_RE.match(text)
    if m:
        return complex(float(m.group(1)), float(m.group(2)))
    if _CNUM_REAL_RE.match(text):
        return complex(float(text), 0.0)
    raise ParseError(f"bad complex literal {text!r}")


def _parse_list(text: str) -> tuple[complex, ...]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("expected a [..] value list")
    inner = text[1:-1].strip()
    if not inner:
        raise DomainError("empty value list")
    # exp(i*...) literals contain no commas, so a flat split is safe
    return tuple(_parse_cnum(part) for part in inner.split(","))


def parse_eps_spec(text: str) -> EpsilonSpec:
    """Parse an epsilon-spec string, e.g. ``"periodic:m=2:[i,-i]"``."""
    if not isinstance(text, str):
        raise ParseError("spec must be a string")
    head, sep, body = text.strip().partition(":")
    if not sep:
        raise ParseError("missing ':' after class name")
    head = head.strip().lower()
    body = body.strip()
    if head == "cm":
        if not body.startswith("xi="):
            raise ParseError("cm spec must be 'cm:xi=<cnum>'")
        return EpsilonSpec(CM, xi=_parse_cnum(body[3:]))
    if head == "periodic":
        m = re.match(r"^m=(\d+)\s*:\s*(\[.*\])$", body)
        if not m:
            raise ParseError("periodic spec must be 'periodic:m=<int>:[..]'")
        period = int(m.group(1))
        if period == 0:
            raise DomainError("period m must be >= 1")
        values = _parse_list(m.group(2))
        if len(values) != period:
            raise DomainError(
                f"periodic list has {len(values)} values, expected m={period}"
            )
        return EpsilonSpec(PERIODIC, period=period, values=values)
    if head == "finite":
        return EpsilonSpec(FINITE, values=_parse_list(body))
    if head == "quadphase":
        if not body.startswith("alpha="):
            raise ParseError("quadphase spec must be 'quadphase:alpha=<real>'")
        arg = body[len("alpha="):].strip()
        if not _CNUM_REAL_RE.match(arg):
            raise ParseError(f"bad alpha value {arg!r}")
        return EpsilonSpec(QUADPHASE, alpha=float(arg))
    raise ParseError(f"unknown class {head!r}")


# --------------------------------------------------------------------------
# Sequence evaluation
# --------------------------------------------------------------------------

def eps_at(spec: EpsilonSpec, k: int) -> complex:
    """k-th sequence value; eps_0 = 1 for every class."""
    if k < 0:
        raise DomainError("k must be >= 0")
    if k == 0:
        return 1.0 + 0.0j
    if spec.class_tag == CM:
        return complex(spec.xi) ** k
    if spec.class_tag == PERIODIC:
        return spec.values[(k - 1) % spec.period]
    if spec.class_tag == FINITE:
        return spec.values[k - 1] if k <= len(spec.values) else 0.0 + 0.0j
    # QUADPHASE: reduce alpha*k^2 mod 1 before exponentiating to limit
    # phase roundoff for large k
    return cmath.exp(2j * math.pi * math.fmod(spec.alpha * k * k, 1.0))


def zw_params(spec: EpsilonSpec) -> FactorParams:
    """Derive (z, w) = (eps_1, eps_2 - eps_1(eps_1+1)/2) and their integer cases."""
    z = eps_at(spec, 1)
    w = eps_at(spec, 2) - z * (z + 1) / 2
    return FactorParams(
        z=z,
        w=w,
        re_z_plus_w=(z + w).real,
        z_integer_case=near_integer(z),
        w_is_one=near_integer(w) == 1,
    )


def g_eval(spec: EpsilonSpec, u: complex) -> complex:
    """Generating function g(u) = sum_k eps_k u^k, |u| < 1.

    CM, PERIODIC and FINITE use their closed forms; QUADPHASE sums the
    series to the least order K whose geometric tail bound
    |u|^{K+1}/(1-|u|) is at most G_TOL |u|^3.
    """
    u = complex(u)
    if abs(u) >= 1.0:
        raise DomainError(f"g(u) requires |u| < 1, got |u| = {abs(u)}")
    return complex(_g_eval_array(spec, np.asarray([u]))[0])


def _g_eval_array(spec: EpsilonSpec, u: np.ndarray) -> np.ndarray:
    """Vectorized g(u) over a numpy array of points with |u| < 1."""
    tag = spec.class_tag
    if tag == CM:
        return 1.0 / (1.0 - spec.xi * u)
    if tag == FINITE:
        acc = np.zeros_like(u)
        for v in reversed(spec.values):
            acc = (acc + v) * u
        return 1.0 + acc
    if tag == PERIODIC:
        num = np.zeros_like(u)
        for v in reversed(spec.values):
            num = (num + v) * u
        return 1.0 + num / (1.0 - u ** spec.period)
    # QUADPHASE: an order K per point, the least with |u|^{K-2} <= G_TOL
    # (1-|u|).  Horner runs over the points sorted by decreasing K, so the
    # points that still need the term of degree k are the first count[k].
    r = np.abs(u)
    with np.errstate(divide="ignore"):
        order = 2.0 + np.ceil(np.log(G_TOL * (1.0 - r)) / np.log(r))
    if not np.all(order <= 100_000):
        raise DomainError("QUADPHASE series truncation did not converge")
    by_order = np.argsort(-order, kind="stable")
    ks = np.arange(int(order.max(initial=0.0)) + 1)
    count = np.searchsorted(-order[by_order], -ks, side="right")
    eps = np.exp(2j * np.pi * np.fmod(spec.alpha * ks * ks, 1.0))
    us = np.asarray(u[by_order], dtype=np.complex128)
    acc = np.zeros_like(us)
    for k in range(ks[-1], 0, -1):
        head = acc[: count[k]]
        head += eps[k]
        head *= us[: count[k]]
    acc += 1.0
    us[by_order] = acc  # back to the input order
    return us
