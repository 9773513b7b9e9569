"""Classification, admissibility, envelope verdicts, and growth diagnostics.

This module turns sampled trajectories into the quantities the theory
talks about: scaling classes of polynomial terms, structural admissibility
of a system for each stability result, spatio-temporal weight suprema, the
fitted temporal decay exponent, the explicit blow-up lower bounds, and the
logarithmic amplitude law of the normal form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy import stats
from scipy.special import erf

from .core import EnvelopeSpec, Grid, PolyTerm, SystemSpec, trust_radius
from .kernels import drag_weight_profile

__all__ = [
    "TermClass",
    "Category",
    "classify_term",
    "AdmissibilityReport",
    "check_admissibility",
    "normal_form_coeffs",
    "normal_form_rates",
    "EnvelopeVerdict",
    "envelope_verdict",
    "fit_decay_exponent",
    "Cas2Params",
    "LowerBoundCurve",
    "cas2_lower_bounds",
    "AmplitudeLawVerdict",
    "amplitude_law_check",
    "norm_series",
]


# ---------------------------------------------------------------------------
# Scaling classification
# ---------------------------------------------------------------------------

class Category(str, Enum):
    RELEVANT = "Relevant"
    MARGINAL = "Marginal"
    IRRELEVANT = "Irrelevant"


@dataclass(frozen=True)
class TermClass:
    p: int
    category: Category
    is_mix: bool


def classify_term(term: PolyTerm, dims: int = 1) -> TermClass:
    """Scaling class of one monomial against the threshold 1 + 2/dims."""
    if dims < 1:
        raise ValueError("dims must be a positive integer")
    threshold = 1.0 + 2.0 / dims
    p = term.p
    if p < threshold:
        cat = Category.RELEVANT
    elif p > threshold:
        cat = Category.IRRELEVANT
    else:
        cat = Category.MARGINAL
    return TermClass(p=p, category=cat, is_mix=term.is_mix)


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    thm1_admissible: bool
    thm2_admissible: bool
    thm4_shape: bool
    sign_condition: Optional[bool]
    sign_value: Optional[float]
    reasons: tuple[str, ...] = ()


def _term_role(slot: str, term: PolyTerm) -> str:
    """One of 'self', 'mix', 'cross' relative to the equation the slot is in."""
    own_is_u = slot in ("f1", "g1")
    own = term.alpha if own_is_u else term.beta
    other = term.beta if own_is_u else term.alpha
    if own >= 1 and other >= 1:
        return "mix"
    if other >= 1:
        return "cross"
    return "self"


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
        role = _term_role(slot, term)
        own_is_u = slot in ("f1", "g1")
        own = term.alpha if own_is_u else term.beta
        other = term.beta if own_is_u else term.alpha
        is_flux = slot in ("g1", "g2")
        if role == "mix":
            continue
        if role == "self":
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

    thm4 = _matches_normal_form_shape(system)
    sign_condition = None
    sign_value = None
    if thm4:
        sign_value = -normal_form_rates(system)[0]
        sign_condition = sign_value < 0.0
    return AdmissibilityReport(
        thm1_admissible=thm1, thm2_admissible=thm2, thm4_shape=thm4,
        sign_condition=sign_condition, sign_value=sign_value,
        reasons=tuple(reasons))


def normal_form_coeffs(system: SystemSpec) -> tuple[float, float, float]:
    """(alpha, beta, gamma) of f1 = alpha uv + beta u^3 and g2 = gamma u^2.

    Each is the summed coefficient of its monomial, 0 when it is absent.
    """
    def coeff(terms, shape):
        return sum(t.coeff for t in terms if (t.alpha, t.beta, t.gamma) == shape)
    return (coeff(system.f1, (1, 1, 0)), coeff(system.f1, (3, 0, 0)),
            coeff(system.g2, (2, 0, 1)))


def normal_form_rates(system: SystemSpec) -> tuple[float, float]:
    """(mu, nu) of the normal form of the cubic-flux system shape.

    The transform v + (gamma/c) u^2 divides by c = c2 - c1, so c1 != c2 is
    required. mu = gamma*alpha/c - beta is the effective cubic coefficient
    and nu = mu/(4 sqrt(3) d1 pi) the amplitude-law rate.
    """
    c = system.c2 - system.c1
    if c == 0.0:
        raise ValueError("normal form requires c1 != c2")
    alpha, beta, gamma = normal_form_coeffs(system)
    mu = gamma * alpha / c - beta
    return mu, mu / (4.0 * math.sqrt(3.0) * system.d1 * math.pi)


def _matches_normal_form_shape(system: SystemSpec) -> bool:
    """True iff the couplings are exactly f1 = a uv + b u^3 and g2 = g u^2."""
    if system.c1 == system.c2:
        return False
    if system.g1 or system.f2:
        return False
    f1_shapes = {(t.alpha, t.beta, t.gamma) for t in system.f1}
    g2_shapes = {(t.alpha, t.beta, t.gamma) for t in system.g2}
    return (f1_shapes <= {(1, 1, 0), (3, 0, 0)} and (1, 1, 0) in f1_shapes
            and g2_shapes == {(2, 0, 1)})


# ---------------------------------------------------------------------------
# Envelope verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeVerdict:
    times: np.ndarray
    eta_series: np.ndarray          # cumulative sup, nondecreasing
    bounded_flags: np.ndarray       # eta <= 3 x anchor, per sample

    @property
    def max_eta(self) -> float:
        return float(self.eta_series[-1])

    @property
    def bounded(self) -> bool:
        return bool(np.all(self.bounded_flags))


def norm_series(times: np.ndarray, fields: np.ndarray, dx: float):
    """(times, linf_u, linf_v, l1_u, l1_v) arrays over the (S, 2, n) samples.

    |fields| is taken one sample at a time into a reused (2, n) buffer, so
    no temporary of the whole array's size is allocated.
    """
    buf = np.empty(fields.shape[1:])
    linf = np.empty(fields.shape[:2])
    l1 = np.empty(fields.shape[:2])
    for j, row in enumerate(fields):
        np.abs(row, out=buf)
        linf[j] = buf.max(axis=-1)
        l1[j] = buf.sum(axis=-1)
    l1 *= dx
    return np.asarray(times), linf[:, 0], linf[:, 1], l1[:, 0], l1[:, 1]


# Envelope rules. Each maps (x, s, grid, system, env) to (denom, keep), two
# (2, len(x)) arrays for u and v at sample time s: the weight denominators
# and the trust region where the weighted field counts. Outside it the
# weighted field is round-off amplified past meaning.

def _gaussian(shifted: np.ndarray, s: float, M: float) -> np.ndarray:
    return np.exp(-shifted ** 2 / (M * (1.0 + s))) / math.sqrt(1.0 + s)


def _comoving(x: np.ndarray, s: float, grid: Grid, system: SystemSpec) -> np.ndarray:
    """x + c_i s per component, wrapped back into the periodic domain.

    The simulation lives on a torus, so the distance to the drifting pulse
    is the periodic one; without wrapping, tails near the far edge would be
    weighted as if they were a full drift further out.
    """
    L = grid.half_width
    return np.mod(x + np.array([[system.c1], [system.c2]]) * s + L, 2.0 * L) - L


def _exponential_rule(x, s, grid, system, env):
    """Gaussian e^{-(x+c_i s)^2/(M(1+s))}/sqrt(1+s) within the trust radius."""
    shifted = _comoving(x, s, grid, system)
    return _gaussian(shifted, s, env.M), np.abs(shifted) <= trust_radius(env.M, s)


def _algebraic_rule(x, s, grid, system, env):
    """Gaussian plus (1+|x+c_i s|+sqrt(s))^{-r}, which keeps the weight
    polynomially bounded, so the whole domain is kept."""
    shifted = _comoving(x, s, grid, system)
    denom = (1.0 + np.abs(shifted) + math.sqrt(s)) ** (-env.r) \
        + _gaussian(shifted, s, env.M)
    return denom, np.ones(denom.shape, dtype=bool)


def _drag_rule(x, s, grid, system, env):
    """Gaussian plus the swept-source drag weight, which tolerates the
    non-Gaussian tails that irrelevant cross couplings produce.

    Both components share one unwrapped segment, the one swept between the
    comoving centres plus the trust radius; within it a denominator below
    1e-12 of its segment max is dropped, as in the Gaussian trust region.
    """
    c1, c2 = system.c1, system.c2
    if c1 == c2:
        raise ValueError("drag weight requires c1 != c2")
    margin = trust_radius(env.M, s)
    segment = (x >= min(-c1 * s, -c2 * s) - margin) \
        & (x <= max(-c1 * s, -c2 * s) + margin)
    xs = x[segment]
    denom = np.zeros((2, len(x)))
    denom[:, segment] = _gaussian(xs + np.array([[c1], [c2]]) * s, s, env.M) \
        + drag_weight_profile(xs, s, c1, c2, env.M)
    return denom, segment & (denom >= 1e-12 * denom.max(axis=1, keepdims=True))


_ENVELOPE_RULES = {"exponential": _exponential_rule,
                   "algebraic": _algebraic_rule, "drag": _drag_rule}


def envelope_verdict(times: np.ndarray, fields: np.ndarray, grid: Grid,
                     system: SystemSpec, env: EnvelopeSpec) -> EnvelopeVerdict:
    """Weighted supremum eta(s) = sup_x sum_i |field_i| / denom_i and its verdict.

    fields[j] is the (2, n) pair (u, v) sampled at times[j].

    The sup runs over the trust region of env.kind's rule; eta_series is
    its cumulative sup. A sample is bounded when its eta is at most 3x the
    anchor, the eta of the first sample at t >= 1 (the first sample if
    there is none); the verdict is bounded when every sample is.
    """
    rule = _ENVELOPE_RULES.get(env.kind)
    if rule is None:
        raise ValueError(f"envelope kind {env.kind!r} has no evaluator")
    x = grid.points()
    times = np.asarray(times)
    eta = np.empty(len(times))
    for i, (s, row) in enumerate(zip(times, fields)):
        denom, keep = rule(x, float(s), grid, system, env)
        weighted = np.divide(np.abs(row), denom,
                             out=np.zeros_like(denom), where=keep)
        eta[i] = np.max(weighted.sum(axis=0), initial=0.0)
    eta_series = np.maximum.accumulate(eta)
    flags = eta_series <= 3.0 * eta_series[np.argmax(times >= 1.0)]
    return EnvelopeVerdict(times=times, eta_series=eta_series, bounded_flags=flags)


# ---------------------------------------------------------------------------
# Decay exponent
# ---------------------------------------------------------------------------

def fit_decay_exponent(times: np.ndarray, values: np.ndarray,
                       t_min: float) -> tuple[float, float]:
    """Least-squares slope of log(value) against log(1+t) for t >= t_min.

    Returns (exponent, 95% confidence half-width). Requires at least 8
    samples past t_min with strictly positive values.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    sel = times >= t_min
    t, y = times[sel], values[sel]
    if len(t) < 8:
        raise ValueError(f"need >= 8 samples with t >= {t_min}, have {len(t)}")
    if np.any(y <= 0.0):
        raise ValueError("values must be strictly positive for a log fit")
    X = np.log1p(t)
    Y = np.log(y)
    A = np.column_stack([X, np.ones_like(X)])
    coef, _, _, _ = np.linalg.lstsq(A, Y, rcond=None)
    slope = float(coef[0])
    resid = Y - A @ coef
    dof = len(t) - 2
    if dof <= 0:
        return slope, 0.0
    s2 = float(resid @ resid) / dof
    sxx = float(np.sum((X - X.mean()) ** 2))
    stderr = math.sqrt(s2 / sxx) if sxx > 0 else math.inf
    half_width = float(stats.t.ppf(0.975, dof)) * stderr
    return slope, half_width


# ---------------------------------------------------------------------------
# Explicit lower bounds for the growth result
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cas2Params:
    d1: float
    d2: float
    c1: float
    c2: float
    nu0: float
    alpha_width: float


@dataclass(frozen=True)
class LowerBoundCurve:
    times: np.ndarray
    l1_bound: np.ndarray
    linf_bound: np.ndarray
    regime: str  # "equal_velocities" or "distinct_velocities"


def cas2_lower_bounds(params: Cas2Params, times: np.ndarray) -> LowerBoundCurve:
    """Explicit lower bounds on ||u(t)||_1 and ||u(t)||_inf for the
    quadratically cross-coupled system with u0 >= nu0 e^{-alpha x^2}.

    Evaluates the closed-form final displays of the growth proof; the
    distinct-velocity L1 display can dip negative for small t and is
    clamped at zero (the norm bound is vacuous there).
    """
    t = np.asarray(times, dtype=float)
    d1, d2 = params.d1, params.d2
    dm = min(d1, d2)
    a = params.alpha_width
    nu0 = params.nu0
    X = 1.0 + 4.0 * a * dm * t
    if params.c1 == params.c2:
        l1 = nu0 ** 4 * dm ** 4 * math.sqrt(math.pi) * t ** 3 / (
            64.0 * d1 ** 3 * d2 * math.sqrt(a) * X ** 1.5)
        linf = nu0 ** 4 * dm ** 4 * t ** 3 / (32.0 * d1 ** 3 * d2 * X ** 2)
        regime = "equal_velocities"
    else:
        dc = abs(params.c1 - params.c2)
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
        regime = "distinct_velocities"
    return LowerBoundCurve(times=t, l1_bound=np.asarray(l1, dtype=float),
                           linf_bound=np.asarray(linf, dtype=float),
                           regime=regime)


# ---------------------------------------------------------------------------
# Amplitude law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmplitudeLawVerdict:
    times: np.ndarray
    law_values: np.ndarray          # |A(t)| sqrt(2 nu log(1+t))
    nu: float
    passed: bool
    in_window: bool                 # final-decade values within [0.3, 1.1]


def amplitude_law_check(times: np.ndarray, amplitudes: np.ndarray, mu: float,
                        nu: float, t_burn: float = 10.0) -> AmplitudeLawVerdict:
    """Check the logarithmic amplitude decay |A(t)| sqrt(2 nu log(1+t)) <= 1.1.

    amplitudes[j] is the normal-form amplitude A, the integral of u, at
    times[j]; mu and nu come from normal_form_rates.

    The pass verdict is the upper bound alone for t >= t_burn. The
    in_window flag additionally asks the quantity to sit in [0.3, 1.1]
    over the final decade; it diagnoses whether the law is saturated
    rather than vacuously satisfied and is not part of the pass verdict.
    """
    times = np.asarray(times, dtype=float)
    if len(times) == 0:
        raise ValueError("empty normal-form series")
    if mu <= 0.0:
        raise ValueError("amplitude law requires mu > 0")
    law = np.abs(amplitudes) * np.sqrt(2.0 * nu * np.log1p(times))
    after = times >= t_burn
    passed = bool(np.all(law[after] <= 1.1)) if np.any(after) else False
    t_end = times[-1]
    decade = times >= t_end / 10.0
    window_vals = law[decade & after] if np.any(decade & after) else law[decade]
    in_window = bool(len(window_vals) > 0
                     and np.all((window_vals >= 0.3) & (window_vals <= 1.1)))
    return AmplitudeLawVerdict(times=times, law_values=law,
                               nu=nu, passed=passed, in_window=in_window)
