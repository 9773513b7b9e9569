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
from typing import Optional, Sequence

import numpy as np
from scipy import stats

from .core import TRUST_LOG, EnvelopeSpec, Grid, PolyTerm, State, SystemSpec
from .kernels import drag_weight_profile
from .solver import NormalFormState
from .special import erf

__all__ = [
    "TermClass",
    "Category",
    "classify_term",
    "AdmissibilityReport",
    "check_admissibility",
    "EnvelopeVerdict",
    "eta_exponential",
    "eta_algebraic",
    "eta_drag",
    "fit_decay_exponent",
    "Cas2Params",
    "LowerBoundCurve",
    "cas2_lower_bounds",
    "AmplitudeLawVerdict",
    "amplitude_law_check",
    "sup_norm_series",
    "l1_norm_series",
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
        alpha_c = _coeff(system.f1, 1, 1, 0)
        beta_c = _coeff(system.f1, 3, 0, 0)
        gamma_c = _coeff(system.g2, 2, 0, 1)
        c = system.c2 - system.c1
        sign_value = beta_c - gamma_c * alpha_c / c
        sign_condition = sign_value < 0.0
    return AdmissibilityReport(
        thm1_admissible=thm1, thm2_admissible=thm2, thm4_shape=thm4,
        sign_condition=sign_condition, sign_value=sign_value,
        reasons=tuple(reasons))


def _coeff(terms, alpha, beta, gamma):
    return sum(t.coeff for t in terms if (t.alpha, t.beta, t.gamma) == (alpha, beta, gamma))


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
    kind: str
    times: np.ndarray
    eta_series: np.ndarray          # cumulative sup, nondecreasing
    max_eta: float
    bounded: bool
    decay_exponent: float
    decay_half_width: float
    valid: bool = True


def sup_norm_series(history: Sequence[State]) -> np.ndarray:
    return np.array([
        max(float(np.max(np.abs(s.u))), float(np.max(np.abs(s.v))))
        for s in history])


def l1_norm_series(history: Sequence[State], grid: Grid) -> np.ndarray:
    dx = grid.dx
    return np.array([
        float(np.sum(np.abs(s.u)) + np.sum(np.abs(s.v))) * dx for s in history])


def _comoving(x: np.ndarray, c: float, s: float, half_width: float) -> np.ndarray:
    """Comoving coordinate x + c s wrapped back into the periodic domain.

    The simulation lives on a torus, so the distance to the drifting pulse
    is the periodic one; without wrapping, tails near the far edge would be
    weighted as if they were a full drift further out.
    """
    return np.mod(x + c * s + half_width, 2.0 * half_width) - half_width


def _finalize_verdict(kind: str, history: Sequence[State],
                      times: np.ndarray, pointwise: np.ndarray,
                      valid: bool = True) -> EnvelopeVerdict:
    eta_series = np.maximum.accumulate(pointwise)
    max_eta = float(eta_series[-1])
    anchor_idx = int(np.argmax(times >= 1.0)) if np.any(times >= 1.0) else 0
    anchor = eta_series[anchor_idx]
    bounded = bool(max_eta <= 3.0 * anchor) if anchor > 0 else True
    sup_series = sup_norm_series(history)
    try:
        exponent, half_width = fit_decay_exponent(times, sup_series, t_min=1.0)
    except ValueError:
        exponent, half_width = math.nan, math.nan
    return EnvelopeVerdict(kind=kind, times=times, eta_series=eta_series,
                           max_eta=max_eta, bounded=bounded,
                           decay_exponent=exponent, decay_half_width=half_width,
                           valid=valid)


def eta_exponential(history: Sequence[State], grid: Grid, system: SystemSpec,
                    env: EnvelopeSpec) -> EnvelopeVerdict:
    """Gaussian-weighted supremum sqrt(1+s)(|u| e^{(x+c1 s)^2/(M(1+s))} + ...).

    The sup is restricted per component to the trust region where the
    reference Gaussian stays above 1e-12 of its peak; outside it the
    weighted field is round-off amplified past meaning.
    """
    if env.kind != "exponential":
        raise ValueError("eta_exponential requires envelope kind 'exponential'")
    x = grid.points()
    M = env.M
    values = np.empty(len(history))
    for i, state in enumerate(history):
        s = state.t
        total = np.zeros_like(x)
        for field, c in ((state.u, system.c1), (state.v, system.c2)):
            shifted = _comoving(x, c, s, grid.half_width)
            mask = np.abs(shifted) <= math.sqrt(M * (1.0 + s) * TRUST_LOG)
            total[mask] += np.abs(field[mask]) * np.exp(
                shifted[mask] ** 2 / (M * (1.0 + s)))
        values[i] = math.sqrt(1.0 + s) * float(np.max(total))
    times = np.array([st.t for st in history])
    return _finalize_verdict("exponential", history, times, values)


def eta_algebraic(history: Sequence[State], grid: Grid, system: SystemSpec,
                  env: EnvelopeSpec) -> EnvelopeVerdict:
    """Weight with algebraic far-field relief:
    [(1+|x+c_i s|+sqrt(s))^{-r} + e^{-(x+c_i s)^2/(M(1+s))}/sqrt(1+s)]^{-1}.

    The algebraic branch keeps the weight polynomially bounded everywhere,
    so no trust-region restriction is needed.
    """
    if env.kind != "algebraic":
        raise ValueError("eta_algebraic requires envelope kind 'algebraic'")
    x = grid.points()
    M, r = env.M, env.r
    values = np.empty(len(history))
    for i, state in enumerate(history):
        s = state.t
        total = np.zeros_like(x)
        for field, c in ((state.u, system.c1), (state.v, system.c2)):
            shifted = _comoving(x, c, s, grid.half_width)
            denom = (1.0 + np.abs(shifted) + math.sqrt(s)) ** (-r) \
                + np.exp(-shifted ** 2 / (M * (1.0 + s))) / math.sqrt(1.0 + s)
            total += np.abs(field) / denom
        values[i] = float(np.max(total))
    times = np.array([st.t for st in history])
    return _finalize_verdict("algebraic", history, times, values)


def eta_drag(history: Sequence[State], grid: Grid, system: SystemSpec,
             env: EnvelopeSpec) -> EnvelopeVerdict:
    """Drag-augmented weight: the Gaussian denominator is enlarged by the
    swept-source integral, which tolerates the non-Gaussian tails that
    irrelevant cross couplings produce.

    The trust region covers the segment swept between the two comoving
    frames plus the Gaussian margin; it is the same for both components, so
    one drag_weight_profile call per sample serves u (row 0) and v (row 1).
    """
    if env.kind != "drag":
        raise ValueError("eta_drag requires envelope kind 'drag'")
    if system.c1 == system.c2:
        raise ValueError("drag weight requires c1 != c2")
    x = grid.points()
    M = env.M
    c1, c2 = system.c1, system.c2
    values = np.empty(len(history))
    for i, state in enumerate(history):
        s = state.t
        margin = math.sqrt(M * (1.0 + s) * TRUST_LOG)
        lo = min(-c1 * s, -c2 * s) - margin
        hi = max(-c1 * s, -c2 * s) + margin
        mask = (x >= lo) & (x <= hi)
        xm = x[mask]
        if s > 0.0:
            drag = drag_weight_profile(xm, s, c1, c2, M)
        else:
            drag = np.zeros((2, len(xm)))
        total = np.zeros_like(xm)
        for field, c_self, row in ((state.u, c1, drag[0]), (state.v, c2, drag[1])):
            shifted = xm + c_self * s
            gauss = np.exp(-shifted ** 2 / (M * (1.0 + s))) / math.sqrt(1.0 + s)
            denom = gauss + row
            # Same 1e-12-of-peak rule as the Gaussian trust region, applied
            # to the composite denominator: below it the weighted field is
            # round-off amplified past meaning.
            keep = denom >= 1e-12 * float(np.max(denom))
            total[keep] += np.abs(field[mask][keep]) / denom[keep]
        # Outside the trust region the weighted field counts as 0.
        values[i] = float(np.max(total, initial=0.0))
    times = np.array([st.t for st in history])
    return _finalize_verdict("drag", history, times, values)


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
        erf_l1 = np.array([erf(math.sqrt(a) * dc * ti / (2.0 * math.sqrt(Xi)))
                           for ti, Xi in zip(t, X)])
        l1 = nu0 ** 4 * dm ** 4 * math.sqrt(math.pi) * t * (
            -2.0 * np.sqrt(X) + math.sqrt(a * math.pi) * dc * t * erf_l1
        ) / (32.0 * d1 ** 3 * d2 * a ** 2 * dc ** 2 * math.sqrt(a) * X)
        l1 = np.maximum(l1, 0.0)
        erf_li = np.array([erf(math.sqrt(2.0 * a * ti / Xi) * dc)
                           for ti, Xi in zip(t, X)])
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
    amplitudes: np.ndarray
    law_values: np.ndarray          # |A(t)| sqrt(2 nu log(1+t))
    nu: float
    passed: bool
    in_window: bool                 # final-decade values within [0.3, 1.1]


def amplitude_law_check(nf_series: Sequence[NormalFormState], delta: float,
                        t_burn: float = 10.0) -> AmplitudeLawVerdict:
    """Check the logarithmic amplitude decay |A(t)| sqrt(2 nu log(1+t)) <= 1.1.

    The pass verdict is the upper bound alone for t >= t_burn. The
    in_window flag additionally asks the quantity to sit in [0.3, 1.1]
    over the final decade; it diagnoses whether the law is saturated
    rather than vacuously satisfied and is not part of the pass verdict.
    """
    if not nf_series:
        raise ValueError("empty normal-form series")
    nu = nf_series[-1].nu
    mu = nf_series[-1].mu
    if mu <= 0.0:
        raise ValueError("amplitude law requires mu > 0")
    times = np.array([s.t for s in nf_series])
    amps = np.array([s.A for s in nf_series])
    law = np.abs(amps) * np.sqrt(2.0 * nu * np.log1p(times))
    after = times >= t_burn
    passed = bool(np.all(law[after] <= 1.1)) if np.any(after) else False
    t_end = times[-1]
    decade = times >= t_end / 10.0
    window_vals = law[decade & after] if np.any(decade & after) else law[decade]
    in_window = bool(len(window_vals) > 0
                     and np.all((window_vals >= 0.3) & (window_vals <= 1.1)))
    return AmplitudeLawVerdict(times=times, amplitudes=amps, law_values=law,
                               nu=nu, passed=passed, in_window=in_window)
