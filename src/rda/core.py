"""Domain types, scenario configuration, validation, the time grid and the
initial data.

All types are immutable value objects. SLOTS is the one owner of the
coupling convention, SystemSpec.monomials the one coefficient extractor,
FIELDS the one owner of the config keys, and FIELDS, RELATIONS, DATA_NEEDS
and analysis.OUTPUT_RULES the tables that every refusal comes from. Each
initial kind is one of the paper's two profiles, gaussian and algebraic
(exponentially and algebraically localized data), centred at the origin,
where the paper's results and every envelope weight are; amplitude 0, the
default, is zero data. The envelope weights, their trust radius and the
wraparound budget are analysis's: core holds no envelope numerics.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import MISSING, dataclass, field
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
    "FIELDS",
    "KEYS",
    "NAME",
    "scenario_from",
    "ValidationReport",
    "validate_scenario",
    "BLOW_UP_THRESHOLD",
    "steps",
    "sample_times",
    "evaluate_initial",
]

# A run's limits, each checked by one entry of the refusal tables.
# - The blow-up guard flags the first step whose sup passes
#   BLOW_UP_THRESHOLD or is not finite, so initial data must lie below it.
#   1e6 flags the same step as 1e8 in both cas2 builtins at three dt.
# - _MAX_N is 128x the largest builtin grid (n = 8192): a run at 2^20
#   points peaks near 0.3 GB, one at 2^25 would need about 8 GB.
# - _MAX_STEPS is 1000x the longest builtin (cas3-stable, 10^4 steps).
#   sample_times sums the time grid in chunks, 33 ms for 10^7 steps on a
#   2-vCPU VM; the run itself, at about 0.3 ms a step on the largest
#   builtin grid, would take close to an hour.
BLOW_UP_THRESHOLD = 1e8
_MAX_N = 2**20
_MAX_STEPS = 10**7
# The steps whose times one np.add.accumulate call sums (512 KB).
_CHUNK = 2**16


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
    kind: str = "gaussian"
    amplitude: float = 0.0
    width: float = 4.0       # gaussian: e^{-x^2/width}
    power: float = 3.0       # algebraic: (1 + |x|)^{-power}


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
    description: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """What validation found: the refusals, each a table entry's text, and,
    for a valid scenario, the read-only (2, n) initial fields (u, v) it
    evaluated on the grid, so a run does not evaluate them again; initial
    is None otherwise."""
    violations: tuple[str, ...] = ()
    initial: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    @property
    def valid(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Config keys
# ---------------------------------------------------------------------------

_INITIAL_KINDS = ("gaussian", "algebraic")
_ENVELOPE_KINDS = ("exponential", "algebraic", "drag")
# The dataclass behind each Scenario attribute that dotted keys fill, and
# each dataclass field's default, MISSING where it has none.
_SECTIONS = {"system": SystemSpec, "grid": Grid, "initial_u": InitialData,
             "initial_v": InitialData, "envelope": EnvelopeSpec}
_DEFAULTS = {cls: {f.name: f.default for f in dataclasses.fields(cls)}
             for cls in (Scenario, *_SECTIONS.values())}


@dataclass(frozen=True)
class Field:
    """One config key: the Scenario attribute it sets (path; a dotted key's
    section, then the attribute there), the converter of its text, the label
    that names it in refusals ({value!r} shows the value), the kinds of its
    section that read it (None: every scenario with the section does) and
    its own requirements as (holds(value), text) pairs. An entry both initial
    components share writes {c} for the component."""
    key: str
    path: tuple[str, ...]
    convert: Callable[[str], object]
    label: str
    reads: Optional[tuple[str, ...]] = None
    needs: tuple = ()

    def at(self, c: str) -> Field:
        return dataclasses.replace(
            self, key=self.key.replace("{c}", c), label=self.label.replace("{c}", c),
            path=tuple(part.replace("{c}", c) for part in self.path))

    @property
    def default(self):
        """The field's dataclass default, or MISSING, which no value equals."""
        *section, attr = self.path
        return _DEFAULTS[_SECTIONS[section[0]] if section else Scenario][attr]

    @property
    def required(self) -> bool:
        """Every config sets the key: neither its field nor its section has a default."""
        return self.default is MISSING and _DEFAULTS[Scenario][self.path[0]] is MISSING

    def owner(self, scenario: Scenario):
        """What holds the field in scenario; None when scenario does not read it."""
        owner = getattr(scenario, self.path[0]) if len(self.path) > 1 else scenario
        if owner is None or (self.reads is not None and owner.kind not in self.reads):
            return None
        return owner

    def unmet(self, value) -> Optional[str]:
        """The text of the first requirement value fails, None if it meets all."""
        return _first_unmet(self.needs, value)


def _first_unmet(needs, *args) -> Optional[str]:
    """The text of the first (holds, text) of needs not holding on args, or None."""
    return next((text for holds, text in needs if not holds(*args)), None)


_TERM = re.compile(
    r"^\s*([+-]?\d*\.?\d+(?:[eE][+-]?\d+)?)\s+u\^(\d+)\s+v\^(\d+)(\s+ddx)?\s*$")


def _terms(text: str) -> tuple[PolyTerm, ...]:
    """The terms of a "coeff u^a v^b [ddx], ..." list; a blank list has none."""
    terms = []
    for entry in text.split(",") if text.strip() else ():
        m = _TERM.match(entry)
        if m is None:
            raise ValueError(f"bad term {entry.strip()!r} (expected \"coeff u^a v^b [ddx]\")")
        terms.append(PolyTerm(float(m[1]), int(m[2]), int(m[3]), 1 if m[4] else 0))
    return tuple(terms)


def _term_needs(gamma: int) -> tuple:
    """What every term of a slot of derivative order gamma requires."""
    return tuple((lambda terms, holds=holds: all(map(holds, terms)), text) for holds, text in (
        (lambda t: t.alpha >= 0 and t.beta >= 0, "alpha, beta >= 0"),
        (lambda t: t.alpha + t.beta >= 2, "alpha+beta >= 2"),
        (lambda t: t.gamma == gamma, f"gamma = {gamma}"),
        (lambda t: math.isfinite(t.coeff), "finite coefficient")))


_POSITIVE = ((lambda v: v > 0, "> 0"), (math.isfinite, "finite"))
_FINITE = ((math.isfinite, "finite"),)
# A string that a config line holds as it is.
_ONE_LINE = ((lambda s: "#" not in s and s.splitlines() in ([], [s]) and s == s.strip(),
              "has no '#', line break or surrounding whitespace"),)

# The scenario's name, and the output directory of a multi-target run.
NAME = Field("name", ("name",), str, "name {value!r}:", needs=(
    (lambda s: s not in ("", ".", "..") and "/" not in s and "\\" not in s,
     "non-empty, not '.' or '..', no '/' or '\\'"), *_ONE_LINE))

# Every config key, in serialization order. Validation reports each read
# field's first unmet requirement as "{label} {text} failed".
FIELDS = (
    NAME,
    Field("description", ("description",), str, "description", needs=_ONE_LINE),
    Field("system.d1", ("system", "d1"), float, "d1", needs=_POSITIVE),
    Field("system.d2", ("system", "d2"), float, "d2", needs=_POSITIVE),
    Field("system.c1", ("system", "c1"), float, "c1", needs=_FINITE),
    Field("system.c2", ("system", "c2"), float, "c2", needs=_FINITE),
    *(Field(f"system.{slot}", ("system", slot), _terms, f"{slot} terms:",
            needs=_term_needs(gamma)) for slot, (_, gamma) in SLOTS.items()),
    Field("grid.L", ("grid", "half_width"), float, "grid half-width", needs=_POSITIVE),
    Field("grid.n", ("grid", "n"), int, "grid n", needs=(
        (lambda n: n >= 64 and (n & (n - 1)) == 0, "= power of two >= 64"),
        (lambda n: n <= _MAX_N, f"<= {_MAX_N}"))),
    Field("time.dt", ("dt",), float, "dt"),
    Field("time.t_end", ("t_end",), float, "t_end"),
    Field("time.sample_dt", ("sample_dt",), float, "sample_dt",
          needs=((lambda v: v > 0, "> 0"),)),
    Field("initial.{c}.kind", ("initial_{c}", "kind"), str, "initial.{c}: kind {value!r}",
          needs=((lambda kind: kind in _INITIAL_KINDS, f"in {_INITIAL_KINDS}"),)),
    Field("initial.{c}.amplitude", ("initial_{c}", "amplitude"), float,
          "initial.{c}: amplitude", needs=_FINITE),
    Field("initial.{c}.width", ("initial_{c}", "width"), float,
          "initial.{c}: width", ("gaussian",), _POSITIVE),
    Field("initial.{c}.power", ("initial_{c}", "power"), float,
          "initial.{c}: power", ("algebraic",), _POSITIVE),
    Field("envelope.kind", ("envelope", "kind"), str, "envelope kind {value!r}",
          needs=((lambda kind: kind in _ENVELOPE_KINDS, f"in {_ENVELOPE_KINDS}"),)),
    Field("envelope.M", ("envelope", "M"), float, "envelope M", _ENVELOPE_KINDS, _POSITIVE),
    Field("envelope.r", ("envelope", "r"), float, "envelope r", ("algebraic",),
          ((lambda v: v >= 3, ">= 3"), (math.isfinite, "finite"))),
    Field("outputs", ("outputs",),
          lambda text: tuple(name.strip() for name in text.split(",") if name.strip()),
          "outputs"),
)
# {key: Field} of every config key in serialization order: the run of
# entries both components share comes once for u, then once for v.
_SHARED = [entry for entry in FIELDS if "{c}" in entry.key]
KEYS = {entry.key: entry for entry in (
    *FIELDS[:FIELDS.index(_SHARED[0])], *(entry.at(c) for c in "uv" for entry in _SHARED),
    *FIELDS[FIELDS.index(_SHARED[-1]) + 1:])}


def scenario_from(values: dict[tuple[str, ...], object]) -> Scenario:
    """The Scenario with the value at each path of values and defaults
    elsewhere; a section no path names is None if that is its default."""
    top = {path[0]: value for path, value in values.items() if len(path) == 1}
    for section, cls in _SECTIONS.items():
        given = {path[1]: value for path, value in values.items() if path[0] == section}
        if given or _DEFAULTS[Scenario][section] is MISSING:
            top[section] = cls(**given)
    return Scenario(**top)


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


def _step_times(total: int, dt: float):
    """(start, times) per chunk of _CHUNK steps: times[j] is the t after
    step start + j + 1 of total, t advanced as t += dt.

    np.add.accumulate adds left to right, each partial sum rounded once,
    which is the sequence of sums t += dt makes, so a chunk holds the same
    floats as the loop while memory stays at one chunk."""
    t = 0.0
    for start in range(0, total, _CHUNK):
        times = np.full(min(_CHUNK, total - start), dt)
        times[0] = t + dt
        np.add.accumulate(times, out=times)
        t = times.item(-1)
        yield start, times


def steps(t_end: float, dt: float, sample_dt: float):
    """(t, sampled) after each of a run's round(t_end/dt) steps, t advanced
    as t += dt and handed out as a Python float: the run's one time grid. A
    run samples t = 0, every round(sample_dt/dt) steps and its last step."""
    total, stride = round(t_end / dt), max(1, round(sample_dt / dt))
    for start, times in _step_times(total, dt):
        for j in range(len(times)):
            i = start + j + 1
            yield times.item(j), i % stride == 0 or i == total


def sample_times(scenario: Scenario) -> np.ndarray:
    """The t of every sample a run of scenario takes unless it blows up:
    the steps that steps() marks as sampled, picked from its chunks."""
    total = round(scenario.t_end / scenario.dt)
    stride = max(1, round(scenario.sample_dt / scenario.dt))
    # t = 0, every stride-th step and the last step if it is not one.
    sampled = np.zeros(1 + total // stride + (total % stride > 0))
    filled = 1
    for start, times in _step_times(total, scenario.dt):
        # times[j] is step start + j + 1, sampled when that is a multiple of stride.
        picked = times[(-start - 1) % stride::stride]
        sampled[filled:filled + len(picked)] = picked
        filled += len(picked)
        # The last step is always sampled; the last chunk writes it last.
        sampled[-1] = times[-1]
    return sampled


def _finite_spacing(grid: Grid) -> bool:
    """True iff the spacing dx = 2L/n and the square of the top wavenumber
    pi/dx are finite; a dx that underflowed to 0 fails without dividing.

    Otherwise the grid points or the stepper's multipliers are not finite:
    dx = inf makes every norm nan, and a dx below about 2.3e-154 makes
    (pi/dx)^2 overflow, or pi/dx itself."""
    dx = grid.dx
    top = math.pi / dx if dx > 0 else math.inf
    return math.isfinite(dx) and math.isfinite(top * top)


# The requirements that relate fields, as (the keys a check reads,
# holds(scenario), text). A check runs once the scenario reads its keys and
# they met their own requirements and every earlier check's; a refusal
# fails its keys.
RELATIONS = (
    (("time.dt", "time.t_end"), lambda sc: 0 < sc.dt < sc.t_end, "0 < dt < t_end"),
    (("time.dt", "time.t_end"), lambda sc: _whole_steps(sc.t_end, sc.dt),
     "t_end = whole number of dt steps"),
    (("time.dt", "time.t_end"), lambda sc: round(sc.t_end / sc.dt) <= _MAX_STEPS,
     f"round(t_end/dt) <= {_MAX_STEPS}"),
    (("time.dt", "time.sample_dt"), lambda sc: _whole_steps(sc.sample_dt, sc.dt),
     "sample_dt = whole multiple of dt"),
    (("grid.L", "grid.n"), lambda sc: _finite_spacing(sc.grid), "2L/n and (pi/dx)^2 finite"),
    # Multiplied out, so that no dx divides.
    (("time.dt", "grid.L", "grid.n", "system.c1", "system.c2"),
     lambda sc: sc.dt * max(abs(sc.system.c1), abs(sc.system.c2)) <= 10.0 * sc.grid.dx,
     "dt*max|c|/dx <= 10"),
    (("envelope.kind", "system.c1", "system.c2"),
     lambda sc: sc.envelope.kind != "drag" or sc.system.c1 != sc.system.c2,
     "drag envelope: c1 != c2"),
    # The floor of the exponential and drag weights; the algebraic one has none.
    (("envelope.kind", "envelope.M", "system.d1", "system.d2"),
     lambda sc: sc.envelope.kind == "algebraic"
     or sc.envelope.M >= max(16.0 * sc.system.d1, 16.0 * sc.system.d2, 1.0),
     "envelope M >= max(16 d1, 16 d2, 1)"),
)

# The largest |initial value| at the box edge, relative to the maximum, that
# validate_scenario accepts. Every builtin reads at most 2.8e-8; algebraic
# power-3 data on a half-width of 60 reads 61^-3 = 4.4e-6.
_EDGE_RATIO = 1e-5

# What each component's initial values on the grid require, as
# (holds(values), text); a component reports its first unmet one.
# Data cut off at the box edge has a jump there once the grid is made
# periodic; data at BLOW_UP_THRESHOLD would be reported as a blow-up at the
# first step. Zero data meets the edge need (0 <= 0). Every kind is finite at
# the finite points of a grid that meets RELATIONS, so no entry checks
# finiteness.
DATA_NEEDS = (
    (lambda values: max(abs(values[0]), abs(values[-1]))
     <= _EDGE_RATIO * np.max(np.abs(values)),
     f"|value at the box edge| <= {_EDGE_RATIO:g} max|value|"),
    (lambda values: np.max(np.abs(values)) < BLOW_UP_THRESHOLD,
     f"max|value| < {BLOW_UP_THRESHOLD:g}, the blow-up threshold"),
)


def validate_scenario(scenario: Scenario) -> ValidationReport:
    """Validate a full Scenario: each field it reads against its entry in
    FIELDS, the RELATIONS, each component's initial data on the grid against
    DATA_NEEDS and, once these hold, the requested outputs' requirements
    (analysis.output_violations). Each refusal is a table entry's text.

    Never raises: every float, nan and infinities included, is either
    accepted or reported as a violation. Validation has no other channel:
    what it does not refuse runs, and the initial fields are handed on
    only for a scenario without violations.
    """
    violations, read, passed = [], set(), set()
    for key, entry in KEYS.items():
        if (owner := entry.owner(scenario)) is None:
            continue
        read.add(key)
        value = getattr(owner, entry.path[-1])
        if (unmet := entry.unmet(value)) is None:
            passed.add(key)
        else:
            violations.append(f"{entry.label.format(value=value)} {unmet} failed")
    for reads, holds, text in RELATIONS:
        if passed.issuperset(reads) and not holds(scenario):
            violations.append(f"{text} failed")
            passed.difference_update(reads)
    failed, x, fields = read - passed, None, []
    with np.errstate(all="ignore"):  # e.g. exp(-x^2/width) underflows
        if not any(key.startswith("grid.") for key in failed):
            x = scenario.grid.points()
        for c in "uv":
            label = f"initial.{c}"
            if x is None or any(key.startswith(f"{label}.") for key in failed):
                continue
            values = evaluate_initial(getattr(scenario, f"initial_{c}"), x)
            if (unmet := _first_unmet(DATA_NEEDS, values)) is not None:
                violations.append(f"{label}: {unmet} failed")
            fields.append(values)
    # A valid scenario has a valid grid and both data, so both were evaluated.
    initial = None if violations else np.stack(fields)
    if initial is not None:
        initial.flags.writeable = False
    from .analysis import output_violations  # analysis imports this module
    violations += output_violations(scenario, initial)
    return ValidationReport(violations=tuple(violations),
                            initial=None if violations else initial)


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------

def evaluate_initial(init: InitialData, x: np.ndarray) -> np.ndarray:
    """Evaluate an initial profile of a kind in _INITIAL_KINDS, centred at
    the origin, analytically at the collocation points."""
    x = np.asarray(x, dtype=float)
    if init.kind == "algebraic":
        return init.amplitude / (1.0 + np.abs(x)) ** init.power
    return init.amplitude * np.exp(-(x ** 2) / init.width)
