"""Pseudospectral Strang-splitting time stepper on the periodic line.

The linear part u_t = d u_xx + c u_x diagonalizes in Fourier space, so it
is propagated exactly through the multiplier e^{(-d k^2 + i c k) dt}. The
polynomial couplings are advanced with classical RK4 in spectral space,
with products formed on the collocation grid and the 2/3 rule applied both
to the inputs of each product and to the result.

The evolving state is one stacked (2, n/2+1) array: row 0 is the rfft of
u, row 1 the rfft of v. Over the non-negative rfft frequencies the modes
the 2/3 rule keeps, |k| <= 2/3 kmax, are a prefix [:K]. Each RK4 stage
therefore makes one batched inverse transform of the first K modes of
both rows, copied into a stage buffer whose modes beyond K stay zero
(this dealiases the inputs, whatever the state holds beyond K), and one
batched forward transform of the non-empty coupling slots f1, f2, g1, g2,
of which only the first K modes are kept; the flux derivative is the
multiplier ik in spectral space. The monomial
plan and the RK4 buffers are built once per workspace. Modes beyond K
never enter the RK4 update and only see the linear multiplier, so they
stay exactly zero once the initial spectrum is masked.

Physical fields are materialized only when sampled, by one batched
inverse transform per sample into the next row of the run's (S, 2, n)
sample array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .core import (
    DEFAULT_BLOW_UP_THRESHOLD,
    Grid,
    Scenario,
    SystemSpec,
    evaluate_initial,
)

__all__ = [
    "BlowUpError",
    "SpectralWorkspace",
    "SpectralState",
    "RunResult",
    "step",
    "run",
    "run_scenario",
    "gaussian_profile",
    "detect_blow_up",
]


class BlowUpError(RuntimeError):
    """Raised by step() when a field exceeds the finite-amplitude threshold."""

    def __init__(self, t: float, sup: float):
        super().__init__(f"solution exceeded blow-up threshold at t={t} (sup={sup:.3e})")
        self.t = t
        self.sup = sup


@dataclass
class SpectralWorkspace:
    """Precomputed grids, multipliers, monomial plan and RK4 buffers for one run.

    dealias is the 2/3-rule mask over all n/2+1 modes; the kept modes are
    its prefix [:n_kept]. slots holds the (coeff, alpha, beta) triples of
    each non-empty slot in f1, f2, g1, g2 order, one row of the batched
    forward transform each, and rows maps component 0 (u) and 1 (v) to the
    slot indices of its reaction and flux terms (None when empty).
    """

    grid: Grid
    system: SystemSpec
    dt: float
    k: np.ndarray = field(init=False)
    dealias: np.ndarray = field(init=False)
    n_kept: int = field(init=False)
    ik: np.ndarray = field(init=False, repr=False)
    lin_half: np.ndarray = field(init=False, repr=False)
    slots: tuple[tuple[tuple[float, int, int], ...], ...] = field(init=False)
    rows: tuple[tuple[int | None, int | None], ...] = field(init=False)
    _buffers: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        n = self.grid.n
        self.k = 2.0 * math.pi * np.fft.rfftfreq(n, d=self.grid.dx)
        kmax = np.max(np.abs(self.k))
        self.dealias = np.abs(self.k) <= (2.0 / 3.0) * kmax
        self.n_kept = int(np.count_nonzero(self.dealias))
        self.ik = 1j * self.k[:self.n_kept]
        self.lin_half = np.stack((
            self._multiplier(self.system.d1, self.system.c1, 0.5 * self.dt),
            self._multiplier(self.system.d2, self.system.c2, 0.5 * self.dt),
        ))

        slots: list[tuple[tuple[float, int, int], ...]] = []
        index: dict[str, int] = {}
        for name in ("f1", "f2", "g1", "g2"):
            terms = getattr(self.system, name)
            if terms:
                index[name] = len(slots)
                slots.append(tuple((t.coeff, t.alpha, t.beta) for t in terms))
        self.slots = tuple(slots)
        self.rows = ((index.get("f1"), index.get("g1")),
                     (index.get("f2"), index.get("g2")))
        max_alpha = max((a for s in slots for _, a, _ in s), default=0)
        max_beta = max((b for s in slots for _, _, b in s), default=0)
        stage_shape = (2, self.n_kept)
        self._buffers = {
            "phys": np.empty((len(slots), n)),
            "term": np.empty(n),
            "pow_u": np.empty((max(max_alpha - 1, 0), n)),
            "pow_v": np.empty((max(max_beta - 1, 0), n)),
            # Rows of components without couplings are never written and
            # stay zero.
            "acc": np.zeros(stage_shape, dtype=complex),
            "k": np.zeros(stage_shape, dtype=complex),
            "stage": np.zeros((2, n // 2 + 1), dtype=complex),
        }

    def _multiplier(self, d: float, c: float, dt: float) -> np.ndarray:
        return np.exp((-d * self.k ** 2 + 1j * c * self.k) * dt)


@dataclass(frozen=True)
class SpectralState:
    """State in spectral space at time t: spectra = rfft of (u, v), shape (2, n/2+1)."""
    t: float
    spectra: np.ndarray


def _powers(base: np.ndarray, buf: np.ndarray) -> list:
    """[None, base, base**2, ...] by repeated multiplication into the rows of buf.

    None stands for the zeroth power, which products skip.
    """
    powers = [None, base]
    for row in buf:
        powers.append(np.multiply(powers[-1], base, out=row))
    return powers


def _monomial(out: np.ndarray, coeff: float, x, y) -> None:
    """out = (coeff * x) * y, skipping factors that are 1 (coeff 1, power 0)."""
    factors = [f for f in (x, y) if f is not None]
    if not factors:
        out.fill(coeff)
        return
    if coeff == 1.0:
        if len(factors) == 2:
            np.multiply(factors[0], factors[1], out=out)
        else:
            out[...] = factors[0]
        return
    np.multiply(factors[0], coeff, out=out)
    if len(factors) == 2:
        out *= factors[1]


def _coupling_rhs(ws: SpectralWorkspace, y: np.ndarray, out: np.ndarray) -> None:
    """Write the first K modes of the spectral coupling terms of y into out.

    y is a (2, n/2+1) spectrum whose modes beyond K are zero. Monomials are
    summed per slot in the order the system lists them; rows of out whose
    component has no couplings are left untouched.
    """
    buf = ws._buffers
    u, v = scipy.fft.irfft(y, n=ws.grid.n, axis=-1)
    pu = _powers(u, buf["pow_u"])
    pv = _powers(v, buf["pow_v"])
    phys, term = buf["phys"], buf["term"]
    for row, ((coeff, alpha, beta), *rest) in zip(phys, ws.slots):
        _monomial(row, coeff, pu[alpha], pv[beta])
        for coeff, alpha, beta in rest:
            _monomial(term, coeff, pu[alpha], pv[beta])
            row += term
    spec = scipy.fft.rfft(phys, axis=-1)
    kept = ws.n_kept
    for comp, (f_row, g_row) in enumerate(ws.rows):
        if g_row is not None:
            np.multiply(ws.ik, spec[g_row, :kept], out=out[comp])
            if f_row is not None:
                out[comp] += spec[f_row, :kept]
        elif f_row is not None:
            out[comp] = spec[f_row, :kept]


def _rk4_couplings(ws: SpectralWorkspace, y: np.ndarray) -> None:
    """Advance the kept modes y[:, :K] by one RK4 step of the couplings, in place.

    acc accumulates k1 + 2 k2 + 2 k3 + k4 in that order, k holds the
    current stage slope and stage the next stage's input; modes beyond K of
    the stage buffer stay zero, which dealiases every stage input.
    """
    buf = ws._buffers
    acc, k, padded = buf["acc"], buf["k"], buf["stage"]
    stage = padded[:, :ws.n_kept]
    dt = ws.dt
    half = 0.5 * dt
    kept = y[:, :ws.n_kept]
    stage[...] = kept
    _coupling_rhs(ws, padded, acc)
    np.multiply(acc, half, out=stage)
    stage += kept
    _coupling_rhs(ws, padded, k)
    np.multiply(k, half, out=stage)
    stage += kept
    k *= 2.0
    acc += k
    _coupling_rhs(ws, padded, k)
    np.multiply(k, dt, out=stage)
    stage += kept
    k *= 2.0
    acc += k
    _coupling_rhs(ws, padded, k)
    acc += k
    acc *= dt / 6.0
    kept += acc


def detect_blow_up(spectra: np.ndarray, n: int,
                   threshold: float = DEFAULT_BLOW_UP_THRESHOLD) -> float | None:
    """Return the sup amplitude if it is non-finite or above threshold, else None.

    spectra is the stacked (2, n/2+1) rfft of (u, v). Parseval gives a cheap
    upper bound first; the exact sup norm is only computed when the bound
    is already suspicious.
    """
    bound = float(np.sum(np.abs(spectra))) * (2.0 / n)
    if math.isfinite(bound) and bound <= threshold:
        return None
    sup = float(np.max(np.abs(scipy.fft.irfft(spectra, n=n, axis=-1))))
    if not math.isfinite(sup) or sup > threshold:
        return sup if math.isfinite(sup) else math.inf
    return None


def step(ws: SpectralWorkspace, state: SpectralState,
         blow_up_threshold: float = DEFAULT_BLOW_UP_THRESHOLD) -> SpectralState:
    """One Strang step: half linear, RK4 on the couplings, half linear."""
    y = state.spectra * ws.lin_half
    if ws.slots:
        _rk4_couplings(ws, y)
    y *= ws.lin_half
    t_next = state.t + ws.dt
    sup = detect_blow_up(y, ws.grid.n, blow_up_threshold)
    if sup is not None:
        raise BlowUpError(t_next, sup)
    return SpectralState(t=t_next, spectra=y)


@dataclass(frozen=True)
class RunResult:
    """Sampled trajectory of one simulation: fields[j] is (u, v) at times[j].

    times has shape (S,) and fields (S, 2, n); row 0 is the initial data.
    After a blow-up both hold only the samples taken before it.
    """
    times: np.ndarray
    fields: np.ndarray
    blew_up: bool
    blow_up_time: float | None


def run(ws: SpectralWorkspace, initial: np.ndarray, t_end: float, sample_dt: float,
        blow_up_threshold: float = DEFAULT_BLOW_UP_THRESHOLD,
        observer=None) -> RunResult:
    """Advance the (2, n) initial fields (u, v) from t = 0 to t_end, sampling
    every sample_dt.

    Blow-up terminates the run cleanly: the result carries the samples
    collected so far plus the flag and detection time. The optional observer
    is called as observer(SpectralState) at every accepted step.
    """
    # Mask the initial spectrum once: dealiased modes then stay identically
    # zero (the linear multiplier preserves zeros and the RK4 update never
    # touches them), which makes the nullity invariant exact.
    state = SpectralState(t=0.0,
                          spectra=scipy.fft.rfft(initial, axis=-1) * ws.dealias)
    steps_total = int(round(t_end / ws.dt))
    stride = max(1, int(round(sample_dt / ws.dt)))
    # One row for t = 0, one per stride steps and one for a final partial stride.
    times = np.empty(1 + math.ceil(steps_total / stride))
    fields = np.empty((len(times), 2, ws.grid.n))
    times[0] = 0.0
    fields[0] = initial
    taken = 1
    blew_up = False
    blow_up_time = None
    for i in range(1, steps_total + 1):
        try:
            state = step(ws, state, blow_up_threshold)
        except BlowUpError as exc:
            blew_up = True
            blow_up_time = exc.t
            break
        if observer is not None:
            observer(state)
        if i % stride == 0 or i == steps_total:
            times[taken] = state.t
            fields[taken] = scipy.fft.irfft(state.spectra, n=ws.grid.n, axis=-1)
            taken += 1
    return RunResult(times=times[:taken], fields=fields[:taken],
                     blew_up=blew_up, blow_up_time=blow_up_time)


def run_scenario(scenario: Scenario, observer=None) -> RunResult:
    """Build the workspace and initial data for a Scenario and run it."""
    grid = scenario.grid
    x = grid.points()
    initial = np.stack((evaluate_initial(scenario.initial_u, x),
                        evaluate_initial(scenario.initial_v, x)))
    ws = SpectralWorkspace(grid=grid, system=scenario.system, dt=scenario.dt)
    return run(ws, initial, scenario.t_end, scenario.sample_dt,
               blow_up_threshold=scenario.blow_up_threshold, observer=observer)


def gaussian_profile(zeta: np.ndarray, t: float, d1: float) -> np.ndarray:
    """Unit-mass diffusive profile e^{-zeta^2/(4 d1 (1+t))}/sqrt(4 pi d1 (1+t))."""
    return np.exp(-zeta ** 2 / (4.0 * d1 * (1.0 + t))) / math.sqrt(
        4.0 * math.pi * d1 * (1.0 + t))
