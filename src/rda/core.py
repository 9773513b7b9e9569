"""Domain types, scenario configuration, and validation.

All types are immutable value objects.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

__all__ = [
    "PolyTerm",
    "SystemSpec",
    "Grid",
    "EnvelopeSpec",
    "InitialData",
    "Scenario",
    "ValidationReport",
    "validate_spec",
    "validate_scenario",
    "evaluate_initial",
    "parse_expression",
]

ENVELOPE_KINDS = ("exponential", "algebraic", "drag")
INITIAL_KINDS = ("gaussian", "algebraic", "remark51", "zero", "custom")
DEFAULT_BLOW_UP_THRESHOLD = 1e8

# Trust-region cutoff: the sup of exponentially weighted fields is only
# taken where the reference Gaussian exceeds 1e-12 of its peak.
TRUST_LOG = math.log(1e12)


@dataclass(frozen=True)
class PolyTerm:
    """One monomial d/dx^gamma (coeff * u^alpha * v^beta)."""
    coeff: float
    alpha: int
    beta: int
    gamma: int = 0

    @property
    def p(self) -> int:
        """Scaling degree alpha + beta + gamma."""
        return self.alpha + self.beta + self.gamma

    @property
    def is_mix(self) -> bool:
        return self.alpha >= 1 and self.beta >= 1


@dataclass(frozen=True)
class SystemSpec:
    """Two-component system u_t = d1 u_xx + c1 u_x + f1 + (g1)_x, ditto for v."""
    d1: float
    d2: float
    c1: float
    c2: float
    f1: tuple[PolyTerm, ...] = ()
    f2: tuple[PolyTerm, ...] = ()
    g1: tuple[PolyTerm, ...] = ()
    g2: tuple[PolyTerm, ...] = ()

    def all_terms(self):
        for name in ("f1", "f2", "g1", "g2"):
            for term in getattr(self, name):
                yield name, term


@dataclass(frozen=True)
class Grid:
    """Periodic grid on [-L, L) with n collocation points."""
    half_width: float
    n: int

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n

    def points(self) -> np.ndarray:
        return -self.half_width + self.dx * np.arange(self.n)


@dataclass(frozen=True)
class EnvelopeSpec:
    """One of the spatio-temporal weights (see analysis module)."""
    kind: str
    M: float = 16.0
    r: float = 3.0


@dataclass(frozen=True)
class InitialData:
    """Per-component initial profile."""
    kind: str
    amplitude: float = 0.0
    width: float = 4.0       # gaussian: e^{-(x-center)^2/width}
    power: float = 3.0       # algebraic: (1 + |x-center|)^{-power}
    center: float = 0.0
    expression: str = ""     # custom: small arithmetic grammar in x


@dataclass(frozen=True)
class Scenario:
    name: str
    system: SystemSpec
    grid: Grid
    initial_u: InitialData
    initial_v: InitialData
    t_end: float
    dt: float
    sample_dt: float
    envelope: Optional[EnvelopeSpec] = None
    outputs: tuple[str, ...] = ("trajectory",)
    blow_up_threshold: float = DEFAULT_BLOW_UP_THRESHOLD
    description: str = ""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return not self.violations


def _check_terms(name: str, terms, expected_gamma: int, out: list[str]):
    for term in terms:
        if term.alpha < 0 or term.beta < 0:
            out.append(f"{name}: alpha, beta >= 0 failed for {term}")
        if term.alpha + term.beta < 2:
            out.append(f"{name}: alpha+beta >= 2 failed for {term}")
        if term.gamma not in (0, 1):
            out.append(f"{name}: gamma in {{0,1}} failed for {term}")
        elif term.gamma != expected_gamma:
            out.append(f"{name}: gamma = {expected_gamma} failed for {term}")
        if not math.isfinite(term.coeff):
            out.append(f"{name}: finite coefficient failed for {term}")


def validate_spec(spec: SystemSpec) -> ValidationReport:
    """Structural validation of a SystemSpec; pure and non-throwing."""
    violations: list[str] = []
    if not (spec.d1 > 0):
        violations.append("d1 > 0 failed")
    if not (spec.d2 > 0):
        violations.append("d2 > 0 failed")
    for c_name in ("c1", "c2"):
        if not math.isfinite(getattr(spec, c_name)):
            violations.append(f"{c_name} finite failed")
    _check_terms("f1", spec.f1, 0, violations)
    _check_terms("f2", spec.f2, 0, violations)
    _check_terms("g1", spec.g1, 1, violations)
    _check_terms("g2", spec.g2, 1, violations)
    return ValidationReport(violations=tuple(violations))


def trust_radius(M: float, s: float) -> float:
    """Distance from a comoving centre at which e^{-y^2/(M(1+s))} falls to 1e-12."""
    return math.sqrt(M * (1.0 + s) * TRUST_LOG)


def wraparound_budget(grid: Grid, system: SystemSpec, t_end: float, M: float) -> float:
    """Fraction of the half-domain consumed by frame drift plus the trust radius."""
    drift = max(abs(system.c1), abs(system.c2)) * t_end
    return (drift + trust_radius(M, t_end)) / grid.half_width


def _whole_steps(span: float, dt: float) -> bool:
    """True iff span is a whole number >= 1 of dt steps, to 1e-9 relative.

    The stepper rounds span/dt to an integer step count, so any other
    ratio would silently end or sample at a time nobody asked for.
    """
    ratio = span / dt
    if not math.isfinite(ratio):
        return False
    steps = round(ratio)
    return steps >= 1 and abs(ratio - steps) <= 1e-9 * ratio


def _has_remark51_shape(scenario: Scenario) -> bool:
    """True iff the scenario is the exactly solvable benchmark of remark 5.1."""
    s = scenario.system
    return (s.d1 == 1.0 and s.d2 == 0.25 and not s.f1 and not s.g1 and not s.g2
            and tuple((t.alpha, t.beta, t.gamma) for t in s.f2) == ((4, 0, 0),)
            and scenario.initial_u.kind == "remark51"
            and scenario.initial_v.kind == "zero")


def validate_scenario(scenario: Scenario) -> ValidationReport:
    """Validate a full Scenario: system invariants, grid/time sanity, and
    that each requested output can be computed for it."""
    report = validate_spec(scenario.system)
    violations = list(report.violations)
    warnings: list[str] = []
    grid = scenario.grid
    if grid.half_width <= 0:
        violations.append("grid half-width > 0 failed")
    if grid.n < 64 or (grid.n & (grid.n - 1)) != 0:
        violations.append("grid n must be a power of two >= 64")
    if not (0 < scenario.dt < scenario.t_end):
        violations.append("0 < dt < t_end failed")
    elif not _whole_steps(scenario.t_end, scenario.dt):
        violations.append("t_end = whole number of dt steps failed")
    if scenario.sample_dt <= 0:
        violations.append("sample_dt > 0 failed")
    elif scenario.dt > 0 and not _whole_steps(scenario.sample_dt, scenario.dt):
        violations.append("sample_dt = whole multiple of dt failed")
    cmax = max(abs(scenario.system.c1), abs(scenario.system.c2))
    if grid.n >= 64 and grid.half_width > 0 and scenario.dt * cmax / grid.dx > 10.0:
        violations.append("dt*max|c|/dx <= 10 failed")
    if scenario.envelope is not None:
        env = scenario.envelope
        if env.kind not in ENVELOPE_KINDS:
            violations.append(f"unknown envelope kind {env.kind!r}")
        if env.kind == "drag" and scenario.system.c1 == scenario.system.c2:
            violations.append("drag envelope requires c1 != c2")
        if env.kind in ("exponential", "drag"):
            m0 = max(16.0 * scenario.system.d1, 16.0 * scenario.system.d2, 1.0)
            if env.M < m0:
                violations.append(f"envelope M >= max(16 d1, 16 d2, 1) = {m0} failed")
        if env.kind == "algebraic" and env.r < 3:
            violations.append("envelope r >= 3 failed")
        if grid.half_width > 0 and wraparound_budget(
                grid, scenario.system, scenario.t_end, env.M) > 1.0:
            warnings.append(
                "wraparound budget exceeded: envelope checks unreliable past the "
                "time where frame drift plus the trust radius reaches the "
                "half-domain width")
    if "lower_bounds" in scenario.outputs and scenario.initial_u.kind != "gaussian":
        violations.append("lower_bounds output requires Gaussian initial data")
    if "exact_error" in scenario.outputs and not _has_remark51_shape(scenario):
        violations.append(
            "exact_error output requires the exactly solvable benchmark shape: "
            "d=(1, 1/4), f2 = u^4, u0 the unit-mass width-4 Gaussian, v0 = 0")
    grid_ok = grid.half_width > 0 and grid.n >= 64
    for label, init in (("initial.u", scenario.initial_u), ("initial.v", scenario.initial_v)):
        before = len(violations)
        if init.kind not in INITIAL_KINDS:
            violations.append(f"{label}: unknown kind {init.kind!r}")
        elif init.kind == "custom":
            try:
                parse_expression(init.expression)
            except ValueError as exc:
                violations.append(f"{label}: {exc}")
        if not math.isfinite(init.amplitude):
            violations.append(f"{label}: finite amplitude failed")
        if len(violations) == before and grid_ok:
            # A pole or overflow on a grid point would otherwise be reported
            # as blow-up at the first step.
            with np.errstate(all="ignore"):
                values = evaluate_initial(init, grid.points())
            if not np.all(np.isfinite(values)):
                violations.append(f"{label}: finite values on the grid failed")
    return ValidationReport(violations=tuple(violations), warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+\.?\d*(?:[eE][+-]?\d+)?|[()+\-*/^]|x|exp|abs)")


def _tokenize(expr: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if m is None:
            if expr[pos:].strip() == "":
                break
            raise ValueError(f"bad token at position {pos} in {expr!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_expression(expr: str) -> Callable[[np.ndarray], np.ndarray]:
    """Parse the small arithmetic grammar (+,-,*,/,^, exp, abs, x).

    Returns a numpy-vectorized callable of x. Raises ValueError on any
    malformed input; there is no eval and no name lookup.
    """
    tokens = _tokenize(expr)
    if not tokens:
        raise ValueError("empty expression")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of expression")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def parse_sum():
        node = parse_product()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_product()
            node = (lambda a, b: (lambda x: a(x) + b(x)))(node, rhs) if op == "+" \
                else (lambda a, b: (lambda x: a(x) - b(x)))(node, rhs)
        return node

    def parse_product():
        node = parse_power()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_power()
            node = (lambda a, b: (lambda x: a(x) * b(x)))(node, rhs) if op == "*" \
                else (lambda a, b: (lambda x: a(x) / b(x)))(node, rhs)
        return node

    def parse_power():
        # Unary minus binds looser than ^: -x^2 means -(x^2).
        if peek() == "-":
            take()
            inner = parse_power()
            return lambda x: -inner(x)
        base = parse_atom()
        if peek() == "^":
            take("^")
            expo = parse_power()  # right associative
            return lambda x: base(x) ** expo(x)
        return base

    def parse_atom():
        tok = peek()
        if tok == "(":
            take("(")
            inner = parse_sum()
            take(")")
            return inner
        if tok in ("exp", "abs"):
            fn = np.exp if take() == "exp" else np.abs
            take("(")
            inner = parse_sum()
            take(")")
            return (lambda f, g: lambda x: f(g(x)))(fn, inner)
        if tok == "x":
            take()
            return lambda x: x
        if tok is None:
            raise ValueError("unexpected end of expression")
        value = float(take())
        return lambda x: np.full_like(x, value, dtype=float)

    result = parse_sum()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens {tokens[pos:]!r}")
    return lambda x: np.asarray(result(np.asarray(x, dtype=float)), dtype=float)


def evaluate_initial(init: InitialData, x: np.ndarray) -> np.ndarray:
    """Evaluate an initial profile analytically at the collocation points."""
    x = np.asarray(x, dtype=float)
    if init.kind == "zero":
        return np.zeros_like(x)
    if init.kind == "gaussian":
        return init.amplitude * np.exp(-((x - init.center) ** 2) / init.width)
    if init.kind == "algebraic":
        return init.amplitude / (1.0 + np.abs(x - init.center)) ** init.power
    if init.kind == "remark51":
        # u-component of the exact drag solution at t=0; the matching
        # v-component starts from zero, so use kind="zero" there.
        return np.exp(-(x ** 2) / 4.0) / math.sqrt(4.0 * math.pi)
    if init.kind == "custom":
        return parse_expression(init.expression)(x)
    raise ValueError(f"unknown initial kind {init.kind!r}")
