"""Classification, admissibility, envelope verdicts, and growth diagnostics.

This module turns sampled trajectories into the quantities the theory
talks about: scaling classes of polynomial terms, structural admissibility
of a system for each stability result, spatio-temporal weight suprema
(with their trust radius, and the wraparound budget past which the
envelope and decay outputs are refused), the fitted temporal decay
exponent, the explicit blow-up lower bounds, and the logarithmic
amplitude law of the normal form. OUTPUT_RULES holds, per output, what
validation requires, what each sample is reduced to
(SampleReduction, the solver's on_sample hook) and how diagnose judges it.
Each requirement on a system's shape compares SystemSpec.monomials(), and
a slot's component and derivative order are read from core.SLOTS.

Nothing here imports the stepper: the exact remark 5.1 solution that
exact_error compares with is built from gaussian_profile and
kernels.drag_profile. Nothing here loads a scipy module at import: the
distinct-velocity lower bounds apply the standard library's erf
elementwise, the decay fit is a closed form without LAPACK, and
DecayFit.half_width, which no rda command reads, imports the scipy.special
package for stdtrit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import kernels
from .core import (
    SLOTS,
    EnvelopeSpec,
    Grid,
    PolyTerm,
    Scenario,
    SystemSpec,
    sample_times,
)
from .kernels import drag_weight_profile

# The envelope verdict is anchored at the first sample with t >= T_ANCHOR.
T_ANCHOR = 1.0
# The fewest samples past its t_min that a decay fit takes.
DECAY_MIN_SAMPLES = 8
# Burn-in: the amplitude law is judged on samples with t >= T_BURN only.
T_BURN = 10.0

__all__ = [
    "Category",
    "classify_term",
    "AdmissibilityReport",
    "check_admissibility",
    "normal_form_rates",
    "Envelope",
    "EnvelopeVerdict",
    "envelope_verdict",
    "DecayFit",
    "fit_decay_exponent",
    "LowerBoundCurve",
    "cas2_lower_bounds",
    "T_BURN",
    "AmplitudeLawVerdict",
    "amplitude_law_check",
    "sample_norms",
    "gaussian_profile",
    "Rule",
    "OUTPUT_RULES",
    "output_violations",
    "SampleReduction",
    "Diagnosis",
    "diagnose",
]


# ---------------------------------------------------------------------------
# Scaling classification
# ---------------------------------------------------------------------------

class Category(str, Enum):
    RELEVANT = "Relevant"
    MARGINAL = "Marginal"
    IRRELEVANT = "Irrelevant"


def classify_term(term: PolyTerm) -> Category:
    """Scaling class of one monomial on the line: its degree term.p against 3."""
    if term.p < 3:
        return Category.RELEVANT
    if term.p > 3:
        return Category.IRRELEVANT
    return Category.MARGINAL


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    thm1_admissible: bool
    thm2_admissible: bool
    sign_value: Optional[float]     # -mu, stabilizing if < 0; None without the shape
    reasons: tuple[str, ...] = ()


def check_admissibility(system: SystemSpec) -> AdmissibilityReport:
    """Structural admissibility for the two stability results and the
    normal-form shape.

    First result: velocities must differ, every cross coupling must be of
    mix type, and pure self terms need degree >= 4 in the reaction slots
    or >= 2 in the flux slots. Second result: additionally allows non-mix
    cross couplings when their degree makes them irrelevant, >= 4 in the
    reaction slots and >= 3 in the flux slots.
    """
    reasons: list[str] = []
    thm1 = True
    thm2 = True
    if system.c1 == system.c2:
        thm1 = thm2 = False
        reasons.append("velocities are equal: no velocity separation to exploit")
    for slot, term in system.all_terms():
        if term.is_mix:
            continue
        # own and other: the powers of this equation's component and of
        # the other one.
        comp, is_flux = SLOTS[slot]
        own, other = (term.alpha, term.beta)[comp], (term.beta, term.alpha)[comp]
        if other < 1:  # self term
            min_deg = 2 if is_flux else 4
            if own < min_deg:
                thm1 = thm2 = False
                reasons.append(
                    f"{slot}: self term of degree {own} below the required {min_deg}")
        else:  # cross, non-mix
            thm1 = False
            reasons.append(f"{slot}: non-mix cross coupling of degree {other}")
            min_deg = 3 if is_flux else 4
            if other < min_deg:
                thm2 = False
                reasons.append(
                    f"{slot}: cross coupling degree {other} below the required "
                    f"{min_deg}, not irrelevant")

    sign_value = None
    if _has_normal_form_shape(system):
        sign_value = -normal_form_rates(system)[0]
    return AdmissibilityReport(
        thm1_admissible=thm1, thm2_admissible=thm2, sign_value=sign_value,
        reasons=tuple(reasons))


_UV, _U3, _U2X = ("f1", 1, 1), ("f1", 3, 0), ("g2", 2, 0)


def _has_normal_form_shape(system: SystemSpec) -> bool:
    """True iff c1 != c2 and the couplings are exactly f1 = a uv (+ b u^3),
    g2 = g (u^2)_x: the shape whose normal form the amplitude law reads."""
    return (system.c1 != system.c2
            and {_UV, _U2X} <= set(system.monomials()) <= {_UV, _U3, _U2X})


def normal_form_rates(system: SystemSpec) -> tuple[float, float]:
    """(mu, nu) of the normal form of the shape f1 = alpha uv + beta u^3,
    g2 = gamma u^2, each coefficient summed over its monomial (0 if absent).

    The transform v + (gamma/c) u^2 divides by c = c2 - c1, which the shape
    makes nonzero. mu = gamma*alpha/c - beta is the effective cubic
    coefficient and nu = mu/(4 sqrt(3) d1 pi) the amplitude-law rate.
    """
    c = system.c2 - system.c1
    monomials = system.monomials()
    alpha, beta, gamma = (monomials.get(key, 0) for key in (_UV, _U3, _U2X))
    mu = gamma * alpha / c - beta
    return mu, mu / (4.0 * math.sqrt(3.0) * system.d1 * math.pi)


# ---------------------------------------------------------------------------
# Envelope verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeVerdict:
    eta_series: np.ndarray          # cumulative sup, nondecreasing
    bounded_flags: np.ndarray       # eta <= 3 x anchor, per sample

    @property
    def max_eta(self) -> float:
        return float(self.eta_series[-1])

    @property
    def bounded(self) -> bool:
        return bool(np.all(self.bounded_flags))


def sample_norms(fields: np.ndarray, dx: float, buf: np.ndarray | None = None):
    """(linf, l1): the sup and L1 norms of the rows u and v of one (2, n) sample.

    |fields| is taken into buf when one is given, so a run reuses one buffer.
    """
    buf = np.abs(fields, out=buf)
    return buf.max(axis=-1), buf.sum(axis=-1) * dx


# The trust cut-off: a weighted field counts only where its weight is at
# least TRUST_FLOOR of the weight's peak.
TRUST_FLOOR = 1e-12


def trust_radius(M: float, s: float) -> float:
    """Distance from a comoving centre at which e^{-y^2/(M(1+s))} falls to
    TRUST_FLOOR of its peak."""
    return math.sqrt(M * (1.0 + s) * -math.log(TRUST_FLOOR))


def wraparound_budget(grid: Grid, system: SystemSpec, t_end: float, M: float) -> float:
    """Fraction of the half-width that frame drift plus the trust radius
    take up by t_end. Past 1, a tail of the drifting pulses wraps around
    the periodic box, where the line's envelope bounds say nothing. At
    M = 4 max(d1, d2) the trust radius is the heat kernel's spread, the
    decay output's budget."""
    drift = max(abs(system.c1), abs(system.c2)) * t_end
    return (drift + trust_radius(M, t_end)) / grid.half_width


def _gaussian(shifted: np.ndarray, s: float, M: float) -> np.ndarray:
    return np.exp(-shifted ** 2 / (M * (1.0 + s))) / math.sqrt(1.0 + s)


class Envelope:
    """The weighted supremum eta(s) = sup_x sum_i |field_i| / denom_i of one
    sample under env.kind's weights.

    Each rule, the method _<kind>_rule, maps the sample time s to
    (denom, keep), two (2, n) arrays for u and v: the weight denominators
    and the trust region where the weighted field counts. Outside it the
    weighted field is round-off amplified past meaning. The grid points
    and the velocity column (c1, c2) are built once, here.
    """

    def __init__(self, grid: Grid, system: SystemSpec, env: EnvelopeSpec):
        self._rule = getattr(self, f"_{env.kind}_rule")
        self.grid, self.system, self.env = grid, system, env
        self.x = grid.points()
        self.velocity = np.array([[system.c1], [system.c2]])

    def eta(self, s: float, fields: np.ndarray) -> float:
        """eta of the (2, n) pair (u, v) sampled at time s."""
        denom, keep = self._rule(s)
        weighted = np.divide(np.abs(fields), denom,
                             out=np.zeros_like(denom), where=keep)
        return float(np.max(weighted.sum(axis=0), initial=0.0))

    def _comoving(self, s: float) -> np.ndarray:
        """x + c_i s per component, wrapped back into the periodic domain.

        The simulation lives on a torus, so the distance to the drifting
        pulse is the periodic one; without wrapping, tails near the far edge
        would be weighted as if they were a full drift further out.
        """
        L = self.grid.half_width
        return np.mod(self.x + self.velocity * s + L, 2.0 * L) - L

    def _exponential_rule(self, s):
        """Gaussian e^{-(x+c_i s)^2/(M(1+s))}/sqrt(1+s) within the trust radius."""
        shifted = self._comoving(s)
        M = self.env.M
        return _gaussian(shifted, s, M), np.abs(shifted) <= trust_radius(M, s)

    def _algebraic_rule(self, s):
        """Gaussian plus (1+|x+c_i s|+sqrt(s))^{-r}, which keeps the weight
        polynomially bounded, so the whole domain is kept."""
        shifted = self._comoving(s)
        denom = (1.0 + np.abs(shifted) + math.sqrt(s)) ** (-self.env.r) \
            + _gaussian(shifted, s, self.env.M)
        return denom, np.ones(denom.shape, dtype=bool)

    def _drag_rule(self, s):
        """Gaussian plus the swept-source drag weight, which tolerates the
        non-Gaussian tails that irrelevant cross couplings produce.

        Both components share one unwrapped segment, the one swept between
        the comoving centres plus the trust radius; within it a denominator
        below TRUST_FLOOR of its segment max is dropped, as in the Gaussian
        trust region.
        """
        x, M = self.x, self.env.M
        c1, c2 = self.system.c1, self.system.c2
        margin = trust_radius(M, s)
        segment = (x >= min(-c1 * s, -c2 * s) - margin) \
            & (x <= max(-c1 * s, -c2 * s) + margin)
        xs = x[segment]
        denom = np.zeros((2, len(x)))
        denom[:, segment] = _gaussian(xs + self.velocity * s, s, M) \
            + drag_weight_profile(xs, s, c1, c2, M)
        floor = TRUST_FLOOR * denom.max(axis=1, keepdims=True)
        return denom, segment & (denom >= floor)


def envelope_verdict(times: np.ndarray, eta: np.ndarray) -> EnvelopeVerdict:
    """The verdict on a run's per-sample suprema: eta[j] is Envelope.eta of
    the sample at times[j].

    eta_series is the cumulative sup of eta. A sample is bounded when its
    eta_series value is at most 3x the anchor, the value at the first
    sample with t >= T_ANCHOR, which times must hold; the verdict is
    bounded when every sample is.
    """
    times = np.asarray(times)
    eta_series = np.maximum.accumulate(np.asarray(eta, dtype=float))
    flags = eta_series <= 3.0 * eta_series[np.argmax(times >= T_ANCHOR)]
    return EnvelopeVerdict(eta_series=eta_series, bounded_flags=flags)


# ---------------------------------------------------------------------------
# Decay exponent
# ---------------------------------------------------------------------------

class DecayFit(NamedTuple):
    """A decay fit: the slope, its standard error and the residual degrees
    of freedom."""

    exponent: float
    stderr: float
    dof: int

    @property
    def half_width(self) -> float:
        """The 95% confidence half-width of the exponent.

        The Student-t quantile lives only in the scipy.special package,
        so the first read imports it (about 0.27 s); the verdicts do not
        read it.
        """
        from scipy.special import stdtrit

        return float(stdtrit(self.dof, 0.975)) * self.stderr


def fit_decay_exponent(times: np.ndarray, values: np.ndarray,
                       t_min: float) -> DecayFit:
    """Least-squares slope of log(value) against log(1+t) for t >= t_min.

    The values past t_min must be strictly positive; the decay output's
    rule supplies at least DECAY_MIN_SAMPLES of them. The slope is the
    closed form dx.dy / dx.dx over the centred X = log1p(t) and
    Y = log(value), so no LAPACK solver is loaded (np.linalg.lstsq's SVD
    costs 1.0 MB on its first call). A constant X has no slope: it gives a
    nan exponent and an infinite stderr.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    sel = times >= t_min
    t, y = times[sel], values[sel]
    if np.any(y <= 0.0):
        raise ValueError("values must be strictly positive for a log fit")
    dx = np.log1p(t)
    dx -= dx.mean()
    dy = np.log(y)
    dy -= dy.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ dy) / sxx if sxx > 0 else math.nan
    resid = dy - slope * dx
    dof = len(t) - 2
    s2 = float(resid @ resid) / dof
    stderr = math.sqrt(s2 / sxx) if sxx > 0 else math.inf
    return DecayFit(slope, stderr, dof)


# ---------------------------------------------------------------------------
# Explicit lower bounds for the growth result
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowerBoundCurve:
    l1_bound: np.ndarray
    linf_bound: np.ndarray


def cas2_lower_bounds(system: SystemSpec, nu0: float, a: float,
                      times: np.ndarray) -> LowerBoundCurve:
    """Explicit lower bounds on ||u(t)||_1 and ||u(t)||_inf for the
    quadratically cross-coupled system with u0 >= nu0 e^{-a x^2}.

    Evaluates the closed-form final displays of the growth proof, one for
    equal and one for distinct velocities c1, c2; the distinct-velocity L1
    display can dip negative for small t and is clamped at zero (the norm
    bound is vacuous there).
    """
    t = np.asarray(times, dtype=float)
    d1, d2 = system.d1, system.d2
    dm = min(d1, d2)
    X = 1.0 + 4.0 * a * dm * t
    if system.c1 == system.c2:
        l1 = nu0 ** 4 * dm ** 4 * math.sqrt(math.pi) * t ** 3 / (
            64.0 * d1 ** 3 * d2 * math.sqrt(a) * X ** 1.5)
        linf = nu0 ** 4 * dm ** 4 * t ** 3 / (32.0 * d1 ** 3 * d2 * X ** 2)
    else:
        dc = abs(system.c1 - system.c2)
        erf = np.vectorize(math.erf, otypes=[float])
        erf_l1 = erf(math.sqrt(a) * dc * t / (2.0 * np.sqrt(X)))
        l1 = nu0 ** 4 * dm ** 4 * math.sqrt(math.pi) * t * (
            -2.0 * np.sqrt(X) + math.sqrt(a * math.pi) * dc * t * erf_l1
        ) / (32.0 * d1 ** 3 * d2 * a ** 2 * dc ** 2 * math.sqrt(a) * X)
        l1 = np.maximum(l1, 0.0)
        erf_li = erf(np.sqrt(2.0 * a * t / X) * dc)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_term = np.log((1.0 + 4.0 * a * t) / (1.0 + 4.0 * a * np.sqrt(t)))
        linf = nu0 ** 4 * dm ** 4 * math.pi * log_term * erf_li ** 2 / (
            128.0 * a ** 2 * d1 * math.sqrt(d1 * d2) * dc ** 2)
        linf = np.maximum(np.nan_to_num(linf, nan=0.0), 0.0)
    return LowerBoundCurve(l1_bound=np.asarray(l1, dtype=float),
                           linf_bound=np.asarray(linf, dtype=float))


# ---------------------------------------------------------------------------
# Amplitude law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmplitudeLawVerdict:
    passed: bool
    in_window: bool                 # final-decade values within [0.3, 1.1]
    statistic: float                # max law value past the burn-in


def amplitude_law_check(times: np.ndarray, amplitudes: np.ndarray, mu: float,
                        nu: float) -> AmplitudeLawVerdict:
    """Check the logarithmic amplitude decay |A(t)| sqrt(2 nu log(1+t)) <= 1.1.

    amplitudes[j] is the normal-form amplitude A, the integral of u, at
    times[j]; mu and nu come from normal_form_rates.

    The pass verdict is the upper bound alone for t >= T_BURN, and the
    statistic is the largest law value there; times must reach T_BURN and
    mu must be positive, as the amplitude_law output's rule makes them. The
    in_window flag additionally asks the quantity to sit in [0.3, 1.1] over
    the final decade past the burn-in; it diagnoses whether the law is
    saturated rather than vacuously satisfied and is not part of the pass
    verdict.
    """
    times = np.asarray(times, dtype=float)
    law = np.abs(amplitudes) * np.sqrt(2.0 * nu * np.log1p(times))
    after = law[times >= T_BURN]
    window = law[(times >= T_BURN) & (times >= times[-1] / 10.0)]
    passed = bool(np.all(after <= 1.1))
    in_window = bool(np.all((window >= 0.3) & (window <= 1.1)))
    return AmplitudeLawVerdict(passed=passed, in_window=in_window,
                               statistic=float(np.max(after)))


# ---------------------------------------------------------------------------
# The outputs: what each needs, reads and is judged by
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """One output: its verdict row names ({envelope.kind} is filled in), its
    requirements as (predicate, what it requires) pairs on the scenario and
    its (2, n) initial fields (needs) and on the sample times (samples), the
    reader(t, fields) = column(scenario) of its per-sample value, and
    judge(scenario, run) -> ((passed, statistic) per row, the verdict that
    write_outputs draws or None), run holding times, sup = max(linf_u,
    linf_v), l1 = l1_u + l1_v, the column's values and the last fields."""
    rows: tuple = ()
    needs: tuple = ()
    samples: tuple = ()
    column: Optional[Callable] = None
    judge: Optional[Callable] = None


def _judge_envelope(scenario: Scenario, run):
    verdict = envelope_verdict(run.times, run.column)
    return [(verdict.bounded, verdict.max_eta)], verdict


def _decay_t_min(times: np.ndarray) -> float:
    return min(5.0, times[-1] / 4.0)


def _judge_decay(scenario: Scenario, run):
    exponent = fit_decay_exponent(run.times, run.sup, _decay_t_min(run.times)).exponent
    return [(exponent <= -0.4, exponent)], None


def _judge_lower_bounds(scenario: Scenario, run):
    # L1 dominates the explicit bound at every sample, and the sup norm
    # grows strictly over the second half of the run.
    init = scenario.initial_u
    bound = cas2_lower_bounds(scenario.system, init.amplitude, 1.0 / init.width,
                              run.times).l1_bound
    late = run.sup[run.times >= run.times[-1] / 2.0]
    return [(bool(np.all(run.l1 >= bound)), float(np.min(run.l1 - bound))),
            (bool(np.all(np.diff(late) > 0)), float(run.sup[-1]))], None


def _judge_amplitude_law(scenario: Scenario, run):
    # Without the stabilizing sign mu > 0 the law fails with the sign value.
    mu, nu = normal_form_rates(scenario.system)
    if mu <= 0.0:
        return [(False, -mu)], None
    law = amplitude_law_check(run.times, run.column, mu, nu)
    return [(law.passed, law.statistic)], None


def gaussian_profile(zeta: np.ndarray, t: float, d1: float) -> np.ndarray:
    """Unit-mass diffusive profile e^{-zeta^2/(4 d1 (1+t))}/sqrt(4 pi d1 (1+t))."""
    return np.exp(-zeta ** 2 / (4.0 * d1 * (1.0 + t))) / math.sqrt(
        4.0 * math.pi * d1 * (1.0 + t))


def _exact_remark51(scenario: Scenario, t: float):
    """Closed-form (u, v) of the exactly solvable benchmark at time t. The
    unit-mass solution is scaled by the mass m of u0 = a e^{-x^2/4}: u is
    linear, so it scales by m, and v, driven by u^4, by m^4."""
    s = scenario.system
    x = scenario.grid.points()
    mass = scenario.initial_u.amplitude * math.sqrt(4.0 * math.pi)
    u_exact = mass * gaussian_profile(x + s.c1 * t, t, s.d1)
    v_exact = mass ** 4 * kernels.drag_profile(x, t, s.c2, s.c1) / (16.0 * math.pi ** 2)
    return u_exact, v_exact


def _judge_exact_error(scenario: Scenario, run):
    # Relative sup errors of the final sample: u within 1e-4, v within 5e-4.
    exact = _exact_remark51(scenario, run.times[-1])
    err_u, err_v = (float(np.max(np.abs(f - e)) / np.max(np.abs(e)))
                    for f, e in zip(run.last, exact))
    # np.maximum keeps a nan error, which max(err_u, nan) would drop.
    return [(err_u <= 1e-4 and err_v <= 5e-4, float(np.maximum(err_u, err_v)))], None


def _has_remark51_shape(scenario: Scenario, initial) -> bool:
    s, u0 = scenario.system, scenario.initial_u
    return (s.d1 == 1.0 and s.d2 == 0.25 and s.monomials() == {("f2", 4, 0): 1.0}
            and u0.kind == "gaussian" and u0.width == 4.0 and u0.amplitude > 0
            and not np.any(initial[1]))


# Every output, in the order diagnose writes their rows. The envelope
# weights are centred at x = 0, comoving; the amplitude law reads A, the
# integral of u.
OUTPUT_RULES = {
    "trajectory": Rule(),
    "envelope": Rule(
        ("eta_{envelope.kind}",),
        ((lambda sc, _: sc.envelope is not None, "an envelope.kind"),
         (lambda sc, _: sc.envelope is None or wraparound_budget(
             sc.grid, sc.system, sc.t_end, sc.envelope.M) <= 1.0,
          "frame drift plus the trust radius within the half-width: "
          "max|c| t_end + sqrt(M (1 + t_end) ln 1e12) <= L")),
        ((lambda times: np.any(times >= T_ANCHOR),
          f"a sample at t >= {T_ANCHOR:g}, its anchor"),),
        column=lambda sc: Envelope(sc.grid, sc.system, sc.envelope).eta,
        judge=_judge_envelope),
    "decay": Rule(
        ("decay_exponent",),
        ((lambda sc, initial: np.any(initial), "nonzero initial data"),
         (lambda sc, _: wraparound_budget(
             sc.grid, sc.system, sc.t_end, 4.0 * max(sc.system.d1, sc.system.d2)) <= 1.0,
          "frame drift plus the heat kernel's spread within the half-width: "
          "max|c| t_end + sqrt(4 max(d1, d2) (1 + t_end) ln 1e12) <= L")),
        ((lambda times: np.count_nonzero(times >= _decay_t_min(times)) >= DECAY_MIN_SAMPLES,
          f">= {DECAY_MIN_SAMPLES} samples at t >= min(5, t_end/4)"),),
        judge=_judge_decay),
    "lower_bounds": Rule(
        ("l1_lower_bound", "linf_growth"),
        ((lambda sc, _: sc.system.monomials() == {("f1", 0, 2): 1.0, ("f2", 2, 0): 1.0},
          "the growth system: f1 = v^2, f2 = u^2, no other coupling"),
         (lambda sc, _: sc.initial_u.kind == "gaussian" and sc.initial_u.amplitude > 0,
          "initial.u = nu0 e^{-a x^2} with nu0 > 0"),
         (lambda sc, initial: np.all(initial[1] >= 0), "initial.v >= 0 on the grid")),
        ((lambda times: np.count_nonzero(times >= times[-1] / 2.0) >= 2,
          ">= 2 samples in the second half of the run"),),
        judge=_judge_lower_bounds),
    "amplitude_law": Rule(
        ("amplitude_law",),
        ((lambda sc, _: _has_normal_form_shape(sc.system),
          "the normal-form shape: f1 = a uv (+ b u^3), g2 = g (u^2)_x, "
          "no f2 or g1, c1 != c2"),),
        ((lambda times: np.any(times >= T_BURN),
          f"a sample at t >= T_BURN = {T_BURN:g}"),),
        column=lambda sc: lambda t, fields: np.trapezoid(fields[0], dx=sc.grid.dx),
        judge=_judge_amplitude_law),
    "exact_error": Rule(
        ("exact_error",),
        ((_has_remark51_shape, "the exactly solvable benchmark shape: d=(1, 1/4), "
          "f2 = u^4, no other coupling, u0 = a e^{-x^2/4} with a > 0, v0 = 0 on the grid"),),
        judge=_judge_exact_error),
}


def _declared(scenario: Scenario):
    """(name, rule) of each output the scenario declares, in table order."""
    return [(name, rule) for name, rule in OUTPUT_RULES.items()
            if name in scenario.outputs]


def output_violations(scenario: Scenario, initial: Optional[np.ndarray]) -> list[str]:
    """Each unknown output name, then, for a scenario otherwise valid with
    the (2, n) initial fields initial, what each declared output requires
    and lacks; its sample requirements are checked once its needs are met."""
    violations = [f"unknown output {name!r}" for name in scenario.outputs
                  if name not in OUTPUT_RULES]
    if violations or initial is None:
        return violations
    declared = _declared(scenario)
    times = (sample_times(scenario) if any(rule.samples for _, rule in declared)
             else None)
    for name, rule in declared:
        unmet = [needed for holds, needed in rule.needs if not holds(scenario, initial)]
        unmet = unmet or [needed for holds, needed in rule.samples if not holds(times)]
        violations += [f"{name} output requires {needed}" for needed in unmet]
    return violations


class SampleReduction:
    """The per-sample reduction of one run of a scenario, the solver's
    on_sample(t, spectra, fields) hook: each call appends t, linf_u, linf_v,
    l1_u, l1_v to rows and each declared output's per-sample value (eta, A)
    to columns[output]. last is the latest sample's fields, which
    exact_error reads; no other sample is kept."""

    def __init__(self, scenario: Scenario):
        self.dx = scenario.grid.dx
        self._abs = np.empty((2, scenario.grid.n))
        self._readers = {name: rule.column(scenario)
                         for name, rule in _declared(scenario) if rule.column}
        self.rows: list[tuple] = []
        self.columns: dict[str, list] = {name: [] for name in self._readers}
        self.last = None

    def __call__(self, t: float, spectra: np.ndarray, fields: np.ndarray) -> None:
        linf, l1 = sample_norms(fields, self.dx, self._abs)
        self.rows.append((t, *linf, *l1))
        for name, read in self._readers.items():
            self.columns[name].append(read(t, fields))
        self.last = fields


@dataclass(frozen=True)
class Diagnosis:
    norms: tuple                    # (times, linf_u, linf_v, l1_u, l1_v) arrays
    envelope: Optional[EnvelopeVerdict]
    verdicts: tuple                 # (name, passed, statistic) rows


def diagnose(scenario: Scenario, samples: SampleReduction) -> Diagnosis:
    """Norm series, envelope verdict and verdict rows of one validated run.

    Each declared output's judge adds its rows in the order of OUTPUT_RULES.
    Only a blow-up can cut a run short of the times validation predicted.
    A run whose only sample is t = 0 has nothing to judge, and an output
    whose sample requirements fail on the times the run reached is not
    judged either: each such output writes its rows as fail, nan.
    """
    norms = tuple(np.array(samples.rows).T)
    times, linf_u, linf_v, l1_u, l1_v = norms
    sup, l1 = np.maximum(linf_u, linf_v), l1_u + l1_v
    envelope, rows = None, []
    for name, rule in _declared(scenario):
        values = [(False, math.nan)] * len(rule.rows)
        if (rule.judge and len(times) > 1
                and all(holds(times) for holds, _ in rule.samples)):
            values, drawn = rule.judge(scenario, SimpleNamespace(
                times=times, sup=sup, l1=l1, last=samples.last,
                column=np.array(samples.columns.get(name, ()))))
            envelope = envelope if drawn is None else drawn
        rows += [(row.format(envelope=scenario.envelope), *value)
                 for row, value in zip(rule.rows, values)]
    return Diagnosis(norms=norms, envelope=envelope, verdicts=tuple(rows))
