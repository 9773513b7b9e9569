"""Domain types, scenario configuration, validation, and the time grid.

All types are immutable value objects. SLOTS is the one owner of the
coupling convention, and SystemSpec.monomials the one coefficient extractor.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "SLOTS",
    "PolyTerm",
    "SystemSpec",
    "Grid",
    "EnvelopeSpec",
    "InitialData",
    "Scenario",
    "ValidationReport",
    "validate_scenario",
    "steps",
    "sample_times",
    "evaluate_initial",
    "gaussian_profile",
    "parse_expression",
]

# The fields each initial-data and envelope kind reads besides kind itself,
# in serialization order. Config parsing rejects the others and
# serialization writes exactly these.
INITIAL_READS = {
    "gaussian": ("amplitude", "width", "center"),
    "algebraic": ("amplitude", "power", "center"),
    "remark51": (), "zero": (), "custom": ("expression",),
}
ENVELOPE_READS = {"exponential": ("M",), "algebraic": ("M", "r"), "drag": ("M",)}
DEFAULT_BLOW_UP_THRESHOLD = 1e8

# Trust-region cutoff: the sup of exponentially weighted fields is only
# taken where the reference Gaussian exceeds 1e-12 of its peak.
TRUST_LOG = math.log(1e12)


# Each coupling slot's (component whose equation it enters, derivative
# order gamma): u_t = ... + f1 + (g1)_x and v_t = ... + f2 + (g2)_x.
SLOTS = {"f1": (0, 0), "f2": (1, 0), "g1": (0, 1), "g2": (1, 1)}


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
        for name in SLOTS:
            for term in getattr(self, name):
                yield name, term

    def monomials(self) -> dict[tuple[str, int, int], float]:
        """{(slot, alpha, beta): coefficient}, the coefficients of equal
        monomials summed in listed order from 0."""
        out: dict[tuple[str, int, int], float] = {}
        for name, t in self.all_terms():
            out[name, t.alpha, t.beta] = out.get((name, t.alpha, t.beta), 0) + t.coeff
        return out


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
    kind: str = "zero"
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
    """What validation found. validate_scenario also hands on the read-only
    (2, n) initial fields (u, v) it evaluated on the grid when the scenario
    is valid, so a run does not evaluate them again; initial is None
    otherwise."""
    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()
    initial: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    @property
    def valid(self) -> bool:
        return not self.violations


def _check_positive(name: str, value: float, out: list[str]):
    """Record a violation unless value is finite and > 0; nan fails > 0."""
    if not (value > 0):
        out.append(f"{name} > 0 failed")
    elif not math.isfinite(value):
        out.append(f"{name} finite failed")


def _check_system(spec: SystemSpec, out: list[str]):
    """Record the violations of the system's coefficients and terms."""
    for d_name in ("d1", "d2"):
        _check_positive(d_name, getattr(spec, d_name), out)
    for c_name in ("c1", "c2"):
        if not math.isfinite(getattr(spec, c_name)):
            out.append(f"{c_name} finite failed")
    for name, term in spec.all_terms():
        if term.alpha < 0 or term.beta < 0:
            out.append(f"{name}: alpha, beta >= 0 failed for {term}")
        if term.alpha + term.beta < 2:
            out.append(f"{name}: alpha+beta >= 2 failed for {term}")
        if term.gamma not in (0, 1):
            out.append(f"{name}: gamma in {{0,1}} failed for {term}")
        elif term.gamma != SLOTS[name][1]:
            out.append(f"{name}: gamma = {SLOTS[name][1]} failed for {term}")
        if not math.isfinite(term.coeff):
            out.append(f"{name}: finite coefficient failed for {term}")


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


def steps(t_end: float, dt: float, sample_dt: float):
    """(t, sampled) after each of a run's round(t_end/dt) steps, t advanced
    as t += dt: the run's one time grid. A run samples t = 0, every
    round(sample_dt/dt) steps and its last step."""
    total, stride, t = round(t_end / dt), max(1, round(sample_dt / dt)), 0.0
    for i in range(1, total + 1):
        t += dt
        yield t, i % stride == 0 or i == total


def sample_times(scenario: Scenario) -> np.ndarray:
    """The t of every sample a run of scenario takes unless it blows up."""
    return np.array([0.0, *(t for t, sampled in steps(
        scenario.t_end, scenario.dt, scenario.sample_dt) if sampled)])


# The largest |initial value| at the box edge, relative to the maximum, that
# validate_scenario accepts. Every builtin reads at most 2.8e-8; algebraic
# power-3 data on a half-width of 60 reads 61^-3 = 4.4e-6.
_EDGE_RATIO = 1e-5


def validate_scenario(scenario: Scenario) -> ValidationReport:
    """Validate a full Scenario: system invariants, grid/time sanity, and,
    once these hold, what each requested output requires of its initial
    fields and sample times (analysis.output_violations).

    Never raises: every float, nan and infinities included, is either
    accepted or reported as a violation. The wraparound warning and the
    initial fields are only worked out for a scenario without violations.
    """
    violations: list[str] = []
    name = scenario.name  # the output directory of a multi-target run
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        violations.append(
            f"name {name!r}: non-empty, not '.' or '..', no '/' or '\\' failed")
    _check_system(scenario.system, violations)
    warnings: list[str] = []
    grid = scenario.grid
    _check_positive("grid half-width", grid.half_width, violations)
    if grid.n < 64 or (grid.n & (grid.n - 1)) != 0:
        violations.append("grid n must be a power of two >= 64")
    grid_ok = grid.n >= 64 and 0 < grid.half_width < math.inf
    if not (0 < scenario.dt < scenario.t_end):
        violations.append("0 < dt < t_end failed")
    elif not _whole_steps(scenario.t_end, scenario.dt):
        violations.append("t_end = whole number of dt steps failed")
    if scenario.sample_dt <= 0:
        violations.append("sample_dt > 0 failed")
    elif scenario.dt > 0 and not _whole_steps(scenario.sample_dt, scenario.dt):
        violations.append("sample_dt = whole multiple of dt failed")
    cmax = max(abs(scenario.system.c1), abs(scenario.system.c2))
    # dt*max|c|/dx <= 10, multiplied out so that no dx divides.
    if grid_ok and scenario.dt * cmax > 10.0 * grid.dx:
        violations.append("dt*max|c|/dx <= 10 failed")
    _check_positive("blow_up_threshold", scenario.blow_up_threshold, violations)
    env = scenario.envelope
    if env is not None:
        if env.kind not in ENVELOPE_READS:
            violations.append(f"unknown envelope kind {env.kind!r}")
        if env.kind == "drag" and scenario.system.c1 == scenario.system.c2:
            violations.append("drag envelope requires c1 != c2")
        before = len(violations)
        _check_positive("envelope M", env.M, violations)
        if len(violations) == before and env.kind in ("exponential", "drag"):
            m0 = max(16.0 * scenario.system.d1, 16.0 * scenario.system.d2, 1.0)
            if env.M < m0:
                violations.append(f"envelope M >= max(16 d1, 16 d2, 1) = {m0} failed")
        if not (env.r >= 3):
            violations.append("envelope r >= 3 failed")
        elif not math.isfinite(env.r):
            violations.append("envelope r finite failed")
    fields = []
    for label, init in (("initial.u", scenario.initial_u), ("initial.v", scenario.initial_v)):
        before = len(violations)
        if init.kind not in INITIAL_READS:
            violations.append(f"{label}: unknown kind {init.kind!r}")
        elif init.kind == "custom":
            try:
                parse_expression(init.expression)
            except ValueError as exc:
                violations.append(f"{label}: {exc}")
        elif init.kind == "gaussian":
            _check_positive(f"{label}: width", init.width, violations)
        elif init.kind == "algebraic":
            _check_positive(f"{label}: power", init.power, violations)
        if not math.isfinite(init.amplitude):
            violations.append(f"{label}: finite amplitude failed")
        if len(violations) == before and grid_ok:
            # A pole or overflow on a grid point would otherwise be reported
            # as blow-up at the first step.
            with np.errstate(all="ignore"):
                values = evaluate_initial(init, grid.points())
            if not np.all(np.isfinite(values)):
                violations.append(f"{label}: finite values on the grid failed")
                continue
            peak = np.max(np.abs(values))
            if max(abs(values[0]), abs(values[-1])) > _EDGE_RATIO * peak:
                # Data cut off at the box edge has a jump there once the
                # grid is made periodic.
                violations.append(
                    f"{label}: |value at the box edge| <= {_EDGE_RATIO:g} "
                    "max|value| failed")
            if 0 < scenario.blow_up_threshold <= peak:
                # The blow-up guard would flag the first step, and the
                # input would be reported as a blow-up at t = 0.
                violations.append(f"{label}: max|value| < blow_up_threshold failed")
            fields.append(values)
    initial = None
    if not violations:
        # A valid scenario has a valid grid and both data, so both were evaluated.
        initial = np.stack(fields)
        initial.flags.writeable = False
    from .analysis import output_violations  # analysis imports this module
    violations += output_violations(scenario, initial)
    if env is not None and not violations and wraparound_budget(
            grid, scenario.system, scenario.t_end, env.M) > 1.0:
        warnings.append(
            "wraparound budget exceeded: envelope checks unreliable past the "
            "time where frame drift plus the trust radius reaches the "
            "half-domain width")
    return ValidationReport(violations=tuple(violations), warnings=tuple(warnings),
                            initial=None if violations else initial)


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+\.?\d*(?:[eE][+-]?\d+)?|[()+\-*/^]|x|exp|abs)")
# The longest expression parse_expression accepts. It bounds the depth of
# Python's parser, of the tree walk and of the evaluation, so no input can
# reach the recursion limit.
MAX_EXPRESSION_TOKENS = 256
_BINARY = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide, ast.Pow: np.power}
_FUNCTIONS = {"exp": np.exp, "abs": np.abs}


def parse_expression(expr: str) -> Callable[[np.ndarray], np.ndarray]:
    """Parse the small arithmetic grammar (+,-,*,/,^, exp, abs, x).

    Precedence is Python's, with ^ for **: ^ is right-associative and
    binds tighter than unary minus (-x^2 is -(x^2)), which binds tighter
    than * and /. At most MAX_EXPRESSION_TOKENS tokens are accepted.

    Returns a numpy-vectorized callable of x. Raises ValueError on any
    malformed input. Python's parser only builds the syntax tree; a
    whitelist walk turns it into numpy calls, so there is no eval and no
    name lookup.
    """
    words: list[str] = []
    constants: dict[str, float] = {}
    pos = 0
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if m is None:
            if expr[pos:].strip() == "":
                break
            raise ValueError(f"bad token at position {pos} in {expr!r}")
        if len(words) == MAX_EXPRESSION_TOKENS:
            raise ValueError(f"more than {MAX_EXPRESSION_TOKENS} tokens in expression")
        token = m.group(1)
        if token[0].isdigit():
            # A placeholder name keeps float()'s reading of 007 and 1e999.
            name = f"c{len(constants)}"
            constants[name] = float(token)
            token = name
        words.append("**" if token == "^" else token)
        pos = m.end()
    if not words:
        raise ValueError("empty expression")
    try:
        tree = ast.parse(" ".join(words), mode="eval").body
    except SyntaxError:
        raise ValueError(f"malformed expression {expr!r}") from None

    def build(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            op = _BINARY[type(node.op)]
            left, right = build(node.left), build(node.right)
            return lambda x: op(left(x), right(x))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            operand = build(node.operand)
            return lambda x: np.negative(operand(x))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS and len(node.args) == 1
                and not node.keywords):
            fn, arg = _FUNCTIONS[node.func.id], build(node.args[0])
            return lambda x: fn(arg(x))
        if isinstance(node, ast.Name) and node.id == "x":
            return lambda x: x
        if isinstance(node, ast.Name) and node.id in constants:
            value = constants[node.id]
            return lambda x: np.full_like(x, value, dtype=float)
        raise ValueError(f"malformed expression {expr!r}")

    result = build(tree)
    return lambda x: np.asarray(result(np.asarray(x, dtype=float)), dtype=float)


def gaussian_profile(zeta: np.ndarray, t: float, d1: float) -> np.ndarray:
    """Unit-mass diffusive profile e^{-zeta^2/(4 d1 (1+t))}/sqrt(4 pi d1 (1+t))."""
    return np.exp(-zeta ** 2 / (4.0 * d1 * (1.0 + t))) / math.sqrt(
        4.0 * math.pi * d1 * (1.0 + t))


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
        return gaussian_profile(x, 0.0, 1.0)
    if init.kind == "custom":
        return parse_expression(init.expression)(x)
    raise ValueError(f"unknown initial kind {init.kind!r}")
