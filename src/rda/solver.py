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
slot, plus the reaction slot). A stage makes no other decision. acc and
k are the first K modes of zeroed full-width rows, so they have the
strides of the stage and state rows they are combined with, and the
still-row flush below writes into workspace buffers of the strides it
reads: a ufunc that writes a strided output from an operand of other
strides copies through a temporary buffer. So a step allocates its
(2, n/2+1) result and little else: under tracemalloc its peak at n =
1024 is 1.04 (toy's shape) to 1.10 (both components move) times the
result's bytes. The updates of acc and k alone (k *= 2, acc += k, acc *=
dt/6) run over one contiguous span, from the first element to the last
kept mode, whose modes beyond K stay zero; with two moving rows this is
about 0.8 us per call faster than the strided rows.

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
caller may keep the spectra it is given. run reads each step's time t
and whether it is sampled from core.steps, the one owner of the time
grid, and owns the blow-up check: detect_blow_up runs after every step,
and the first flagged step ends the run with its t as the blow-up time,
which run returns. A stage that overflows leaves inf or nan, which the
check flags, so the steps run with numpy's overflow warnings off. The
check first bounds the sup by sum(|Re| + |Im|) * 2/n, which needs no
hypot, and only computes the exact sup when that bound is not finite or
exceeds the threshold, core.BLOW_UP_THRESHOLD.
Physical fields are materialized only when sampled, by one batched
inverse transform per sample into a new array, and handed with t and the
spectrum to the run's on_sample hook. run keeps no sample, not even its
time, so a run's memory does not grow with its sample count.

Every transform goes through _rfft and _irfft, which call pocketfft's
r2c and c2r kernels directly with the arguments that scipy.fft's rfft
and irfft pass them along the last axis. scipy.fft's dispatch and argument
checks cost about 10 us per call, as much as the transform itself at
n <= 2048, and a step makes up to 8 calls. The kernels' compiled module
is loaded from its file by _scipy_ext.load_extension, so rda never
imports the scipy.fft package (about 37 ms). The kernels' signature and
the module's place are private to scipy; a test pins both functions bit
for bit to scipy.fft (checked on scipy 1.17.1), so a changed signature or
a moved module fails loudly, and a hygiene test keeps every other
transform and kernel load out of rda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._scipy_ext import load_extension
from .core import BLOW_UP_THRESHOLD, SLOTS, Grid, Scenario, SystemSpec, steps

__all__ = [
    "SpectralWorkspace",
    "step",
    "run",
    "run_scenario",
    "detect_blow_up",
]

pypocketfft = load_extension("scipy.fft._pocketfft.pypocketfft")

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
    its prefix [:n_kept]. Each non-empty slot, in core.SLOTS order, is one
    row of the batched forward transform. moving is the range of
    components with coupling terms and still the others. _stages holds
    (rows, ops, writes) for stage 1 and for stages 2-4: the range of
    components to inverse-transform (those the monomials read, and at
    stages 2-4 only those of them that move), the power and monomial calls
    (None when the stage reuses stage 1's forward transform) and the calls
    that write acc or k. Each range is a row slice, or None when empty.
    """

    grid: Grid
    system: SystemSpec
    dt: float
    dealias: np.ndarray = field(init=False)
    n_kept: int = field(init=False)
    lin_half: np.ndarray = field(init=False, repr=False)
    moving: slice | None = field(init=False)
    still: slice | None = field(init=False)
    _buffers: dict = field(init=False, repr=False)
    _stages: tuple = field(init=False, repr=False)

    def __post_init__(self):
        n = self.grid.n
        # numpy.fft.rfftfreq(n, d=dx), operation for operation.
        freq = np.arange(n // 2 + 1) * (1.0 / (n * self.grid.dx))
        k = 2.0 * math.pi * freq
        kmax = np.max(np.abs(k))
        self.dealias = np.abs(k) <= (2.0 / 3.0) * kmax
        self.n_kept = int(np.count_nonzero(self.dealias))
        ik = 1j * k[:self.n_kept]
        system, half = self.system, 0.5 * self.dt
        self.lin_half = np.stack([np.exp((-d * k ** 2 + 1j * c * k) * half)
                                  for d, c in ((system.d1, system.c1),
                                               (system.d2, system.c2))])

        # The (coeff, alpha, beta) triples of each non-empty slot, and per
        # component 0 (u) and 1 (v) the slot indices of its reaction and
        # flux terms (None when empty).
        slots: list[tuple[tuple[float, int, int], ...]] = []
        rows: list[list[int | None]] = [[None, None], [None, None]]
        for name, (comp, order) in SLOTS.items():
            if terms := getattr(system, name):
                rows[comp][order] = len(slots)
                slots.append(tuple((t.coeff, t.alpha, t.beta) for t in terms))
        max_alpha = max((a for s in slots for _, a, _ in s), default=0)
        max_beta = max((b for s in slots for _, _, b in s), default=0)
        read = [comp for comp, top in enumerate((max_alpha, max_beta)) if top > 0]
        moving = [comp for comp, pair in enumerate(rows) if pair != [None, None]]
        self.moving = _row_slice(moving)
        self.still = _row_slice([comp for comp in (0, 1) if comp not in moving])
        late = [comp for comp in read if comp in moving]
        modes, n_still = n // 2 + 1, 2 - len(moving)
        # One zeroed full-width row per moving component for acc and k.
        acc, k = [np.zeros((len(moving), modes), dtype=complex) for _ in range(2)]
        span = max(len(moving) - 1, 0) * modes + self.n_kept
        buf = self._buffers = {
            "fields": np.empty((2, n)),
            "phys": np.empty((len(slots), n)),
            "spec": np.empty((len(slots), modes), dtype=complex),
            "acc": acc[:, :self.n_kept],
            "k": k[:, :self.n_kept],
            # From the first element to the last kept mode, in one run.
            "acc_span": acc.reshape(-1)[:span],
            "k_span": k.reshape(-1)[:span],
            "stage": np.zeros((2, modes), dtype=complex),
            # |Re|, |Im| of the kept modes of the still rows and the mask
            # of the subnormal ones, strided as y[still, :K].view(float).
            "still_abs": np.empty((n_still, 2 * modes))[:, :2 * self.n_kept],
            "still_tiny": np.empty((n_still, 2 * modes), dtype=bool)[:, :2 * self.n_kept],
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
            for row, (f_row, g_row) in zip(out, (rows[c] for c in moving)):
                if g_row is None:
                    calls.append((np.copyto, (row, spec[f_row])))
                    continue
                calls.append((np.multiply, (ik, spec[g_row], row)))
                if f_row is not None:
                    calls.append((np.add, (row, spec[f_row], row)))
            return calls

        self._stages = ((_row_slice(read), ops(read), writes(buf["acc"])),
                        (_row_slice(late), ops(late) if late else None,
                         writes(buf["k"])))


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
    acc_span, k_span = buf["acc_span"], buf["k_span"]
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
    k_span *= 2.0
    acc_span += k_span
    _coupling_rhs(ws, first=False)
    np.multiply(k, dt, out=stage)
    stage += kept
    k_span *= 2.0
    acc_span += k_span
    _coupling_rhs(ws, first=False)
    acc_span += k_span
    acc_span *= dt / 6.0
    kept += acc


def detect_blow_up(spectra: np.ndarray, n: int,
                   threshold: float = BLOW_UP_THRESHOLD) -> float | None:
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
        magnitude, tiny = ws._buffers["still_abs"], ws._buffers["still_tiny"]
        np.abs(parts, out=magnitude)
        np.less(magnitude, _TINY, out=tiny)
        np.copyto(parts, 0.0, where=tiny)
    return y


def run(ws: SpectralWorkspace, initial: np.ndarray, t_end: float, sample_dt: float,
        on_sample) -> float | None:
    """Advance the (2, n) initial fields (u, v) from t = 0 to t_end, handing
    a sample to on_sample every sample_dt; return the blow-up time, or None
    when the run reaches t_end.

    on_sample(t, spectra, fields) is called at t = 0 with the masked
    initial spectrum and the initial fields as given, then at each step
    that core.steps marks as sampled, with its t; fields is the fresh
    (2, n) inverse transform of spectra, so the hook may keep either.
    Blow-up terminates the run cleanly: the first step detect_blow_up
    flags is not accepted and is never sampled, and its t is the blow-up
    time. The steps run with numpy's overflow and invalid-value warnings
    off, so a stage that overflows leaves inf or nan for detect_blow_up to
    flag; on_sample runs under the caller's error state.
    """
    # Mask the initial spectrum once: dealiased modes then stay identically
    # zero (the linear multiplier preserves zeros and the RK4 update never
    # touches them), which makes the nullity invariant exact.
    spectra = _rfft(initial) * ws.dealias
    on_sample(0.0, spectra, initial)
    caller = np.geterr()
    with np.errstate(over="ignore", invalid="ignore"):
        for t, sampled in steps(t_end, ws.dt, sample_dt):
            spectra = step(ws, spectra)
            if detect_blow_up(spectra, ws.grid.n) is not None:
                return t
            if sampled:
                with np.errstate(**caller):
                    on_sample(t, spectra, _irfft(spectra, ws.grid.n))
    return None


def run_scenario(scenario: Scenario, initial: np.ndarray, on_sample) -> float | None:
    """Build the workspace for a Scenario and run it from the (2, n) initial
    fields, the ValidationReport.initial of the scenario, handing each
    sample to on_sample; return the blow-up time, or None."""
    ws = SpectralWorkspace(grid=scenario.grid, system=scenario.system, dt=scenario.dt)
    return run(ws, initial, scenario.t_end, scenario.sample_dt, on_sample)
