"""Pseudospectral Strang-splitting time stepper on the periodic line.

The linear part u_t = d u_xx + c u_x diagonalizes in Fourier space, so it
is propagated exactly through the multiplier e^{(-d k^2 + i c k) dt}. The
polynomial couplings are advanced with classical RK4 in spectral space,
with products formed on the collocation grid and the 2/3 rule applied both
to the inputs of each product and to the result.

The evolving state is one stacked (2, n/2+1) array: row 0 is the rfft of
u, row 1 the rfft of v. Over the non-negative rfft frequencies the modes
the 2/3 rule keeps, |k| <= 2/3 kmax, are a prefix [:K]. The stage input
is copied into a buffer whose modes beyond K stay zero, which dealiases
it whatever the state holds beyond K. The flux derivative is the
multiplier ik in spectral space. The RK4 and transform buffers, the row
sets below and the stage op lists are built once per workspace. Modes
beyond K never enter the RK4 update and only see the linear multiplier,
so they stay exactly zero once the initial spectrum is masked.

A component with coupling terms "moves"; one without is "still" (toy's v
and remark51-exact's u are the still components among the builtins). RK4
works on the moving rows only: acc and k have one row per moving
component, and the still rows of the stage buffer are copied from the
state once per step, so a still component enters every stage with the
same kept modes and leaves RK4 untouched.

Each RK4 step transforms only what can change:

- stage 1 makes one batched inverse transform of the rows the monomials
  read (components with a power above zero), and one batched forward
  transform of the non-empty coupling slots f1, f2, g1, g2, of which only
  the first K modes are kept;
- stages 2-4 inverse-transform only the read rows that move; the stage-1
  field and powers of a still component are reused as they are;
- when no read component moves, the stage-1 forward transform is the
  slope of every stage and is reused, with no transform and no monomial
  work.

No transform is made of an empty set of rows. The stage transforms write
into a (2, n) field buffer and an (n_slots, n/2+1) spectrum buffer. Stage
1 and stages 2-4 each have one op list of bound ufunc calls with out=:
the powers [None, base, base**2, ...] of the rows the stage transforms,
in the rows of the field and power buffers; each monomial, in one or two
calls (a coefficient of 1 is not multiplied, a power of 0 is not a
factor), summed per slot in the order the system lists the terms; and
the rows of acc or k (a copy of the reaction slot, ik times the flux
slot, plus the reaction slot). A stage makes no other decision, so a
step allocates its (2, n/2+1) result and little else: under tracemalloc
its peak at n = 1024 is 1.4 (toy's shape) to 1.8 (both components move)
times the result's bytes.

A still component only sees its linear multiplier, so its high modes
decay geometrically into the subnormal range, where rounding pins them
and they never reach zero; every multiply, transform and blow-up check on
a subnormal then costs a slow microcode assist. After each step the
subnormal real and imaginary parts of the kept modes of still rows are
set to zero: nothing refills these modes, and a value below the smallest
normal float is far under the last bit of any field value it enters, so
every builtin's samples are bitwise those of an unflushed run. Without
the flush, 1589 of toy's 2731 kept v modes are subnormal at its last step.
Moving rows are left as they are, since the round-off of the coupling
terms reaches them at every stage.

step maps a spectrum to a new one and never writes its input, so a
caller may keep the spectra it is given. run owns the time t, advanced
as t += dt after each step, and the blow-up check: detect_blow_up runs
after every step, and the first flagged step ends the run with its t as
the blow-up time, which run returns. It first bounds the sup by
sum(|Re| + |Im|) * 2/n, which needs no hypot, and only computes the
exact sup when that bound is not finite or exceeds the threshold.
Physical fields are materialized only when sampled, by one batched
inverse transform per sample into a new array, and handed with t and the
spectrum to the run's on_sample hook. run keeps no sample, not even its
time, so a run's memory does not grow with its sample count.

Every transform goes through _rfft and _irfft, which call pocketfft's
r2c and c2r kernels directly with the arguments that scipy.fft's rfft
and irfft pass them along the last axis. scipy.fft's dispatch and argument
checks cost about 10 us per call, as much as the transform itself at
n <= 2048, and a step makes up to 8 calls. The kernels' signature is
private to scipy; a test pins both functions bit for bit to scipy.fft
(checked on scipy 1.17.1), so a changed signature fails loudly, and a
hygiene test keeps every other transform and kernel import out of rda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft._pocketfft import pypocketfft

from .core import DEFAULT_BLOW_UP_THRESHOLD, Grid, Scenario, SystemSpec

__all__ = [
    "SpectralWorkspace",
    "step",
    "run",
    "run_scenario",
    "detect_blow_up",
]

# The smallest positive normal float; a smaller nonzero magnitude is subnormal.
_TINY = np.finfo(np.float64).tiny


def _rfft(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """scipy.fft's rfft(x, axis=-1) of a float64 array: pocketfft's r2c
    kernel, written into out when it is given."""
    return pypocketfft.r2c(x, (x.ndim - 1,), True, 0, out, 1)


def _irfft(x: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """scipy.fft's irfft(x, n=n, axis=-1) of a complex128 array with n//2+1
    modes on its last axis: pocketfft's c2r kernel, written into out when
    it is given."""
    return pypocketfft.c2r(x, (x.ndim - 1,), n, False, 2, out, 1)


@dataclass
class SpectralWorkspace:
    """Precomputed grids, multipliers, buffers and stage op lists for one run.

    dealias is the 2/3-rule mask over all n/2+1 modes; the kept modes are
    its prefix [:n_kept]. slots holds the (coeff, alpha, beta) triples of
    each non-empty slot in f1, f2, g1, g2 order, one row of the batched
    forward transform each, and rows maps component 0 (u) and 1 (v) to the
    slot indices of its reaction and flux terms (None when empty). moving
    is the range of components with coupling terms and still the others.
    _stages holds (rows, ops, writes) for stage 1 and for stages 2-4: the
    range of components to inverse-transform (those the monomials read,
    and at stages 2-4 only those of them that move), the power and
    monomial calls (None when the stage reuses stage 1's forward
    transform) and the calls that write acc or k. Each range is a row
    slice, or None when empty.
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
    moving: slice | None = field(init=False)
    still: slice | None = field(init=False)
    _buffers: dict = field(init=False, repr=False)
    _stages: tuple = field(init=False, repr=False)

    def __post_init__(self):
        n = self.grid.n
        # numpy.fft.rfftfreq(n, d=dx), operation for operation.
        freq = np.arange(n // 2 + 1) * (1.0 / (n * self.grid.dx))
        self.k = 2.0 * math.pi * freq
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
        read = [comp for comp, top in enumerate((max_alpha, max_beta)) if top > 0]
        moving = [comp for comp, pair in enumerate(self.rows) if pair != (None, None)]
        self.moving = _row_slice(moving)
        self.still = _row_slice([comp for comp in (0, 1) if comp not in moving])
        late = [comp for comp in read if comp in moving]
        stage_shape = (len(moving), self.n_kept)
        buf = self._buffers = {
            "fields": np.empty((2, n)),
            "phys": np.empty((len(slots), n)),
            "spec": np.empty((len(slots), n // 2 + 1), dtype=complex),
            # One row per moving component.
            "acc": np.empty(stage_shape, dtype=complex),
            "k": np.empty(stage_shape, dtype=complex),
            "stage": np.zeros((2, n // 2 + 1), dtype=complex),
        }
        # [None, base, base**2, ...] for u and v; None is the zeroth power.
        pows = [np.empty((max(top - 1, 0), n)) for top in (max_alpha, max_beta)]
        pu, pv = powers = [[None, buf["fields"][c], *pows[c]] for c in (0, 1)]
        term, mono = np.empty(n), []
        for row, ((coeff, alpha, beta), *rest) in zip(buf["phys"], slots):
            mono += _product_ops(row, coeff, pu[alpha], pv[beta])
            for coeff, alpha, beta in rest:
                mono += _product_ops(term, coeff, pu[alpha], pv[beta])
                mono.append((np.add, (row, term, row)))
        spec = buf["spec"][:, :self.n_kept]

        def ops(comps):
            return [(np.multiply, (powers[c][j], powers[c][1], powers[c][j + 1]))
                    for c in comps for j in range(1, len(powers[c]) - 1)] + mono

        def writes(out):
            calls = []
            for row, (f_row, g_row) in zip(out, (self.rows[c] for c in moving)):
                if g_row is None:
                    calls.append((np.copyto, (row, spec[f_row])))
                    continue
                calls.append((np.multiply, (self.ik, spec[g_row], row)))
                if f_row is not None:
                    calls.append((np.add, (row, spec[f_row], row)))
            return calls

        self._stages = ((_row_slice(read), ops(read), writes(buf["acc"])),
                        (_row_slice(late), ops(late) if late else None,
                         writes(buf["k"])))

    def _multiplier(self, d: float, c: float, dt: float) -> np.ndarray:
        return np.exp((-d * self.k ** 2 + 1j * c * self.k) * dt)


def _row_slice(comps: list[int]) -> slice | None:
    """The rows of the sorted components comps as one slice, None if empty.

    Every non-empty subset of the two components is contiguous.
    """
    return slice(comps[0], comps[-1] + 1) if comps else None


def _product_ops(out: np.ndarray, coeff: float, x, y) -> list:
    """The calls that set out = (coeff * x) * y, skipping factors that are
    1 (coeff 1, power 0)."""
    factors = [f for f in (x, y) if f is not None]
    if not factors:
        return [(out.fill, (coeff,))]
    if coeff == 1.0:
        if len(factors) == 2:
            return [(np.multiply, (*factors, out))]
        return [(np.copyto, (out, factors[0]))]
    return [(np.multiply, (factors[0], coeff, out)),
            *[(np.multiply, (out, f, out)) for f in factors[1:]]]


def _coupling_rhs(ws: SpectralWorkspace, first: bool) -> None:
    """Write the first K modes of the spectral coupling terms of the stage
    buffer into acc (first) or k, one row per moving component.

    At the first stage of a step every read row is transformed; later
    stages transform only the read rows that move and reuse the others'
    powers, or, when none moves, reuse the first stage's forward transform.
    """
    rows, ops, writes = ws._stages[0 if first else 1]
    if ops is not None:
        buf = ws._buffers
        if rows is not None:
            _irfft(buf["stage"][rows], ws.grid.n, out=buf["fields"][rows])
        for op, args in ops:
            op(*args)
        _rfft(buf["phys"], out=buf["spec"])
    for op, args in writes:
        op(*args)


def _rk4_couplings(ws: SpectralWorkspace, y: np.ndarray) -> None:
    """Advance the kept modes y[moving, :K] by one RK4 step of the couplings,
    in place.

    acc accumulates k1 + 2 k2 + 2 k3 + k4 in that order, k holds the
    current stage slope and stage the next stage's input, all over the
    moving rows. The still rows of the stage buffer are copied from y once
    and hold for every stage; modes beyond K of the stage buffer stay zero,
    which dealiases every stage input.
    """
    buf = ws._buffers
    acc, k, padded = buf["acc"], buf["k"], buf["stage"]
    n_kept = ws.n_kept
    stage = padded[ws.moving, :n_kept]
    dt = ws.dt
    half = 0.5 * dt
    kept = y[ws.moving, :n_kept]
    padded[:, :n_kept] = y[:, :n_kept]
    _coupling_rhs(ws, first=True)
    np.multiply(acc, half, out=stage)
    stage += kept
    _coupling_rhs(ws, first=False)
    np.multiply(k, half, out=stage)
    stage += kept
    k *= 2.0
    acc += k
    _coupling_rhs(ws, first=False)
    np.multiply(k, dt, out=stage)
    stage += kept
    k *= 2.0
    acc += k
    _coupling_rhs(ws, first=False)
    acc += k
    acc *= dt / 6.0
    kept += acc


def detect_blow_up(spectra: np.ndarray, n: int,
                   threshold: float = DEFAULT_BLOW_UP_THRESHOLD) -> float | None:
    """Return the sup amplitude if it is non-finite or above threshold, else None.

    spectra is the stacked, C-contiguous (2, n/2+1) rfft of (u, v). The
    bound sum(|Re| + |Im|) * 2/n on the sup needs no hypot; the exact sup
    norm is only computed when that bound is not finite or exceeds the
    threshold.
    """
    bound = float(np.sum(np.abs(spectra.view(np.float64)))) * (2.0 / n)
    if math.isfinite(bound) and bound <= threshold:
        return None
    sup = float(np.max(np.abs(_irfft(spectra, n))))
    if not math.isfinite(sup) or sup > threshold:
        return sup if math.isfinite(sup) else math.inf
    return None


def step(ws: SpectralWorkspace, spectra: np.ndarray) -> np.ndarray:
    """One Strang step of the (2, n/2+1) spectra: half linear, RK4 on the
    couplings, half linear. Returns a new array; spectra is not written."""
    y = spectra * ws.lin_half
    if ws.moving is not None:
        _rk4_couplings(ws, y)
    y *= ws.lin_half
    if ws.still is not None:
        # Nothing refills the kept modes of a still row, so a subnormal
        # part would otherwise stay pinned there by rounding and slow every
        # later operation on it; it lies far under the last bit of any
        # field value it enters.
        parts = y[ws.still, :ws.n_kept].view(np.float64)
        np.copyto(parts, 0.0, where=np.abs(parts) < _TINY)
    return y


def run(ws: SpectralWorkspace, initial: np.ndarray, t_end: float, sample_dt: float,
        on_sample, blow_up_threshold: float = DEFAULT_BLOW_UP_THRESHOLD) -> float | None:
    """Advance the (2, n) initial fields (u, v) from t = 0 to t_end, handing
    a sample to on_sample every sample_dt; return the blow-up time, or None
    when the run reaches t_end.

    on_sample(t, spectra, fields) is called at t = 0 with the masked
    initial spectrum and the initial fields as given, then every stride
    steps and at the last step; fields is the fresh (2, n) inverse
    transform of spectra, so the hook may keep either. Blow-up terminates
    the run cleanly: the first step detect_blow_up flags is not accepted
    and is never sampled, and its t is the blow-up time.
    """
    # Mask the initial spectrum once: dealiased modes then stay identically
    # zero (the linear multiplier preserves zeros and the RK4 update never
    # touches them), which makes the nullity invariant exact.
    spectra = _rfft(initial) * ws.dealias
    t = 0.0
    steps_total = int(round(t_end / ws.dt))
    stride = max(1, int(round(sample_dt / ws.dt)))
    on_sample(0.0, spectra, initial)
    for i in range(1, steps_total + 1):
        spectra = step(ws, spectra)
        t += ws.dt
        if detect_blow_up(spectra, ws.grid.n, blow_up_threshold) is not None:
            return t
        if i % stride == 0 or i == steps_total:
            on_sample(t, spectra, _irfft(spectra, ws.grid.n))
    return None


def run_scenario(scenario: Scenario, initial: np.ndarray, on_sample) -> float | None:
    """Build the workspace for a Scenario and run it from the (2, n) initial
    fields, the ValidationReport.initial of the scenario, handing each
    sample to on_sample; return the blow-up time, or None."""
    ws = SpectralWorkspace(grid=scenario.grid, system=scenario.system, dt=scenario.dt)
    return run(ws, initial, scenario.t_end, scenario.sample_dt, on_sample,
               blow_up_threshold=scenario.blow_up_threshold)
