"""Pseudospectral Strang-splitting time stepper on the periodic line.

The linear part u_t = d u_xx + c u_x diagonalizes in Fourier space, so it
is propagated exactly through the multiplier e^{(-d k^2 + i c k) dt}, and a
linear problem is solved exactly at any dt. The splitting is second order:
scripts/convergence_study.py measures an error ratio of 4 per halving of
dt on toy. The polynomial couplings are advanced with classical RK4 in
spectral space, with products formed on the collocation grid and the 2/3
rule applied both to the inputs of each product and to the result: the
projected step. That rule is exact for quadratic products only: a cubic
or quartic product aliases into the kept band, by at most 3.7e-8 relative
on cas3-stable's under-resolved initial sample and 3.8e-16 on
remark51-exact.

The 2/3 rule (Orszag, J. Atmos. Sci. 28, 1971) has to hold for the step's
result only. So a step whose coupling terms are all reactions (no g1 or g2
term) and read a moving component (see below) first tries the grid path:
RK4 on the grid values of the half-stepped spectrum. It inverse-transforms
the read rows once, runs the stage programs below four times on the grid
with the moving rows set to u + c h N, sums h/6 (k1 + 2 k2 + 2 k3 + k4) on
the grid and forward-transforms that increment once. It differs from the
projected step only through what the projection would cut between stages,
the slopes' modes beyond the kept band, and the increment's own modes
beyond the band bound that part. The step accepts the increment's kept
modes only if no real or imaginary part of its modes K..n/2 exceeds
_ROUND_OFF = 1e-15 times the largest part of the kept modes of the moving
rows; a nan or inf fails. Otherwise, for data that fill the kept band or an
attempt that overflows, it takes the projected step, with the attempt's
transforms spent. The projected step stays the only path for flux terms,
whose derivative ik needs a spectrum at every stage, and for couplings
that read only still components (remark51-exact), whose stage-1 slope
serves every stage at one transform pair already.

The grid path steps only the window where the couplings can move a bit.
Every monomial c u^a v^b other than a constant has a gate, u when a >= 1
and v otherwise, and is at most |gate(x)| times |c| and the grid maxima
of its other factors (a constant moves every point, so a coupling with
one always takes the whole grid). After the one inverse transform, A_g
sums |c| times those maxima over the monomials that g gates, and a point
is quiet when every gate g is at most tau_g = 2^-53 M / (h A_g) there,
with M the largest grid value of the moving rows the couplings read. At
a quiet point, h times the monomials of each gate is at most 2^-53 M,
below one unit in the last place of M: the size of the rounding that the
inverse transform already leaves in the grid values the stages start
from. So leaving the quiet points' increments out moves the state by no
more than the transforms' own rounding (to first order in h, as the
stage values stay within O(h) of the stage-1 values the gates are read
from). The window is the smallest index range that holds every loud
point, rounded out to whole blocks of _WINDOW_BLOCK points. The stage
programs, the stage-input updates and the acc sums run on the window's
views, and acc stays zero outside it; the one inverse and one forward
transform stay whole. The views and slot calls are rebound only when
the window moves. When no point is loud, say when every gate is zero,
the increment is zero and no stage runs.

The window is a plain index range, so a gate above tau at both box edges
(a pulse across the periodic edge) takes the whole grid, as do data loud
everywhere, such as noise: one code path serves every case. The 1e-15
tail check stays the guard. A window that cut off increments that reach
the kept modes would leave a step in acc at its edge, whose modes beyond
the band fail the check, and the projected step would take over; a tau
2^20 times too large is caught this way in tests/test_stepper_oracle.py.

An accepted grid step transforms 3 rows at toy's shape and 4 when both
components move, where the projected step transforms 9 (toy) and 16
(thm2-irrelevant, cas2-*). toy and thm2-irrelevant take the grid path at
every step, on windows of 128 to 896 of their 8192 points (median 640),
rebound 13 times in 5000 steps. Those 5000 steps, blow-up checks
included, took 1.2 s for toy and 1.5 s for thm2-irrelevant, against 1.45
and 1.8 s with the window set to the whole grid and 3.0 and 4.3 s on the
projected path (medians of five alternating rounds on a 2-vCPU VM).
cas2-equal takes the grid path at 801 of its 816 steps and cas2-distinct
at 1413 of 1421 (the last steps before the blow-up fall back), on
windows of 128 to 1024 of their 1024 points. At n = 1024 the window's
own calls cost about as much as the stage work they save.

The evolving state is one stacked (2, n/2+1) array: row 0 is the rfft of
u, row 1 the rfft of v. Over the non-negative rfft frequencies the modes
the 2/3 rule keeps, |k| <= 2/3 kmax, are a prefix [:K]. The stage input
is copied into a buffer whose modes beyond K stay zero, which dealiases
it whatever the state holds beyond K. The flux derivative is the
multiplier ik in spectral space. The RK4 and transform buffers, the row
sets below and the stage programs are built once per workspace. Modes
beyond K never enter the RK4 update and only see the linear multiplier,
so they stay exactly zero once the initial spectrum is masked.

A component with coupling terms "moves"; one without is "still" (toy's v
and remark51-exact's u are the still components among the builtins). RK4
works on the moving rows only: acc and k have one row per moving
component, and the still rows of the stage buffer are copied from the
state once per step, so a still component enters every stage with the
same kept modes and leaves RK4 untouched.

Each projected step transforms only what can change:

- stage 1 makes one batched inverse transform of the rows the monomials
  read (components with a power above zero), and one batched forward
  transform of the distinct coupling slots among f1, f2, g1, g2, of which
  only the first K modes are kept;
- stages 2-4 inverse-transform only the read rows that move; the stage-1
  field of a still component is reused as it is;
- when no read component moves, the stage-1 forward transform is the
  slope of every stage and is reused, with no transform and no monomial
  work.

No transform is made of an empty set of rows. Each stage runs a program
of bound calls with out=, built once:

- the slot calls, the same at every stage. Each distinct slot's
  SystemSpec.monomials (equal terms summed once) are evaluated into its
  own row by Horner's rule (Knuth, TAOCP vol. 2, 4.6.4) in the component
  of the higher power, u on a tie; identical slots share one row
  (thm1-*'s f1 = f2 = uv). Each coefficient is a polynomial in the other
  component: a constant, the bare field row, or one temp row that
  Horner's rule fills just before it is read. A leading coefficient of 1
  is not multiplied and the leading factor enters the first multiply, so
  nothing is copied: toy's u^4 + uv is ((u u) u + v) u, 4 calls over the
  u, v and slot rows. A still component read at a power of 2 or more is
  raised again at every stage; no builtin reads one so;
- the rows of acc (stage 1) or k (stages 2-4). The forward transform
  writes one spectrum buffer, and a row is a copy of its component's
  reaction slot, or ik times its flux slot plus its reaction slot.

A stage makes no other decision. Per projected stage the slot calls are
toy 4, thm1-* 3, thm2-irrelevant and cas3-* 5 and cas2-* 2 (remark51-exact
3 at stage 1 only), and thm1-*'s forward transform takes 3 rows instead
of 4.
acc and k are the first K modes of zeroed full-width rows, so they have
the strides of the stage and state rows they are combined with, and the
still-row flush below writes into workspace buffers of the strides it
reads: a ufunc that writes a strided output from an operand of other
strides copies through a temporary buffer. So a step allocates its
(2, n/2+1) result and little else: under tracemalloc its peak at n =
1024 is 1.10 (both components move) to 1.11 (toy's shape) times the
result's bytes. The updates of acc and k alone (k *= 2, acc += k, acc *=
dt/6) run over one contiguous span, from the first element to the last
kept mode; with two moving rows this is about 0.8 us per call faster
than the strided rows. The modes of that span beyond K are zero, or hold
what the grid path left in these buffers; nothing reads them.

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
check first bounds the sup by (2/n) sqrt(N sum|c|^2) over the N entries c
of the spectrum, a dot product with no temporary, and only computes the
exact sup when that bound is not finite or exceeds the threshold,
core.BLOW_UP_THRESHOLD.
Physical fields are materialized only when sampled, by one batched
inverse transform per sample into a new array, and handed with t and the
spectrum to the run's on_sample hook. run keeps no sample, not even its
time, so a run's memory does not grow with its sample count.

Every transform goes through _rfft and _irfft, which call pocketfft's
r2c and c2r kernels directly with the arguments that scipy.fft's rfft
and irfft pass them along the last axis. scipy.fft's dispatch and argument
checks cost about 10 us per call, as much as the transform itself at
n <= 2048, and a projected step makes up to 8 calls. The kernels' compiled module
is loaded from its file by _scipy_ext.load_extension, so rda never
imports the scipy.fft package (about 37 ms). The kernels' signature and
the module's place are private to scipy. A test pins both functions bit
for bit to scipy.fft (checked on scipy 1.17.1), and a hygiene test keeps
every other transform and kernel load out of rda. At import the loader
also hands the module to _transforms_agree, which takes a unit impulse
through the two functions and compares it with its closed-form spectrum.
So a scipy that moved the module or changed what the kernels compute
fails every `rda run` with the loader's one-line ImportError, and not
with wrong numbers, which lets pyproject.toml leave scipy>=1.17 open.
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

# The smallest positive normal float; a smaller nonzero magnitude is subnormal.
_TINY = np.finfo(np.float64).tiny
# The most entries detect_blow_up hands one np.vdot; OpenBLAS threads more.
_DOT_BLOCK = 10000
# A grid step's increment is accepted when no real or imaginary part of its
# modes beyond the kept band exceeds this fraction of the largest part of
# the kept modes of the moving rows.
_ROUND_OFF = 1e-15
# The grid path's window is rounded out to whole blocks of this many points.
_WINDOW_BLOCK = 64


def _transforms(kernels):
    """(_rfft, _irfft) on kernels, pocketfft's compiled module."""

    def rfft(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """scipy.fft's rfft(x, axis=-1) of a float64 array: pocketfft's r2c
        kernel, written into out when it is given."""
        return kernels.r2c(x, (x.ndim - 1,), True, 0, out, 1)

    def irfft(x: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """scipy.fft's irfft(x, n=n, axis=-1) of a complex128 array with
        n//2+1 modes on its last axis: pocketfft's c2r kernel, written into
        out when it is given."""
        return kernels.c2r(x, (x.ndim - 1,), n, False, 2, out, 1)

    return rfft, irfft


def _transforms_agree(kernels) -> bool:
    """Whether _transforms(kernels) takes the unit impulse at index 1 of
    length 8 to its spectrum e^{-2 pi i k/8}, k = 0..4, and back, each to
    1e-15. It costs a few microseconds."""
    rfft, irfft = _transforms(kernels)
    impulse = np.zeros(8)
    impulse[1] = 1.0
    spectrum = rfft(impulse)
    expected = np.exp(-0.25j * math.pi * np.arange(5))
    return (np.allclose(spectrum, expected, rtol=0.0, atol=1e-15)
            and np.allclose(irfft(spectrum, 8), impulse, rtol=0.0, atol=1e-15))


pypocketfft = load_extension("scipy.fft._pocketfft.pypocketfft", check=_transforms_agree)
_rfft, _irfft = _transforms(pypocketfft)


@dataclass
class SpectralWorkspace:
    """Precomputed grids, multipliers, buffers and stage programs for one run.

    dealias is the 2/3-rule mask over all n/2+1 modes; the kept modes are
    its prefix [:n_kept]. Each distinct slot is one row of the batched
    forward transform, in core.SLOTS order. moving is the range of
    components with coupling terms and still the others. _stages holds
    (inverse, ops, writes) for stage 1 and for stages 2-4: the rows of the
    stage and field buffers to inverse-transform, of the components the
    monomials read (at stages 2-4 only those of them that move), or None
    when there are none; the Horner calls that write each slot's row of
    phys, one list for every stage (None at stages 2-4 when they reuse
    stage 1's forward transform); and the calls that write acc or k from
    the forward transform's spectra. _grid holds the grid
    path's arrays over the whole grid, or None when a step takes the
    projected path only: (base, fields, slope, late_slope, acc, increment,
    program), each over the moving rows or the read moving rows. base and
    increment lie in the idle k and stage buffers, and acc is the grid
    path's own, zero outside the window; program(points) builds the slot
    calls over a slice of grid points. _gates holds what _window reads:
    the read rows of the field buffer, the |fields| buffer, one boolean
    row per gate of its loud points with the first row's 64-bit words in
    order and reversed, each gate's row and (|coeff|, a, b) terms, and the
    read and read moving components; it is None when the window is always
    the whole grid. _bound holds the window the grid path is bound to and
    its views of base, fields, slope, late_slope and acc, and its slot
    calls: (window, base, fields, slope, late_slope, acc, ops), or (None,)
    before the first grid step.
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
    _grid: tuple | None = field(init=False, repr=False)
    _gates: tuple | None = field(init=False, repr=False)
    _bound: tuple = field(init=False, repr=False)

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

        # Per component 0 (u) and 1 (v), the (coeff, alpha, beta) monomials
        # of its reaction and flux slots (None when empty).
        comp_slots: list[list] = [[None, None], [None, None]]
        for (name, alpha, beta), coeff in system.monomials().items():
            comp, order = SLOTS[name]
            comp_slots[comp][order] = (*(comp_slots[comp][order] or ()), (coeff, alpha, beta))
        named = [s for comp, order in SLOTS.values() if (s := comp_slots[comp][order])]
        read = [comp for comp in (0, 1) if any(t[1 + comp] for s in named for t in s)]
        moving = [comp for comp in (0, 1) if comp_slots[comp] != [None, None]]
        self.moving = _row_slice(moving)
        self.still = _row_slice([comp for comp in (0, 1) if comp not in moving])
        late = [comp for comp in read if comp in moving]
        # Identical slots share a row of the forward transform's spectrum
        # buffer, from which each stage slope is assembled.
        slots = list(dict.fromkeys(named))
        modes, n_still = n // 2 + 1, 2 - len(moving)
        # One zeroed full-width row per moving component for acc and k.
        acc, k = [np.zeros((len(moving), modes), dtype=complex) for _ in range(2)]
        span = max(len(moving) - 1, 0) * modes + self.n_kept
        buf = self._buffers = {
            "fields": np.empty((2, n)),
            "phys": np.empty((len(slots), n)),
            "acc": acc[:, :self.n_kept],
            "k": k[:, :self.n_kept],
            # From the first element to the last kept mode, in one run.
            "acc_span": acc.reshape(-1)[:span],
            "k_span": k.reshape(-1)[:span],
            "stage": np.zeros((2, modes), dtype=complex),
            "spectra": np.empty((len(slots), modes), dtype=complex),
            # |Re|, |Im| of the kept modes of the still rows and the mask
            # of the subnormal ones, strided as y[still, :K].view(float).
            "still_abs": np.empty((n_still, 2 * modes))[:, :2 * self.n_kept],
            "still_tiny": np.empty((n_still, 2 * modes), dtype=bool)[:, :2 * self.n_kept],
        }
        # Each slot's Horner program writes its own row of phys; temp holds
        # a coefficient that is neither a constant nor a bare field.
        temp = np.empty(n)

        def program(points=slice(None)):
            return [call for row, s in zip(buf["phys"][:, points], slots)
                    for call in _slot_program(row, s, buf["fields"][:, points], temp[points])]

        ops = program()
        row_of = {s: r for r, s in enumerate(slots)}
        spec = buf["spectra"][:, :self.n_kept]

        def writes(out):
            calls = []
            for row, (f, g) in zip(out, (comp_slots[c] for c in moving)):
                if g is None:
                    calls.append((np.copyto, (row, spec[row_of[f]])))
                    continue
                calls.append((np.multiply, (ik, spec[row_of[g]], row)))
                if f is not None:
                    calls.append((np.add, (row, spec[row_of[f]], row)))
            return calls

        def inverse(comps):
            rows = _row_slice(comps)
            return None if rows is None else (buf["stage"][rows], buf["fields"][rows])

        self._stages = ((inverse(read), ops, writes(buf["acc"])),
                        (inverse(late), ops if late else None, writes(buf["k"])))
        self._grid = self._gates = None
        self._bound = (None,)
        if late and all(g is None for _, g in comp_slots):
            # The grid path's buffers: base in the idle k rows, which hold n
            # floats each, the increment in the moving stage rows, and a
            # zeroed acc of its own. Reaction slots are one row each in
            # moving order, or one row that f1 = f2 share.
            rows = _row_slice([moving.index(c) for c in late])
            slope = (buf["phys"] if len(slots) == len(moving)
                     else np.broadcast_to(buf["phys"][0], (len(moving), n)))
            self._grid = (k.view(np.float64)[rows, :n], buf["fields"][_row_slice(late)],
                          slope, slope[rows], np.zeros((len(moving), n)),
                          buf["stage"][self.moving], program)
            # Per gate component, the (|coeff|, power of u, power of v) of
            # the monomials it gates, with the gate's own power lowered by
            # one. A constant monomial moves every point, and then the
            # window is always the whole grid (_gates is None).
            terms = [(coeff, alpha, beta)
                     for (_, alpha, beta), coeff in system.monomials().items() if coeff]
            if terms and all(alpha or beta for _, alpha, beta in terms):
                gated: dict[int, list] = {}
                for coeff, alpha, beta in terms:
                    gate = 0 if alpha else 1
                    gated.setdefault(gate, []).append(
                        (abs(coeff), alpha - (gate == 0), beta - (gate == 1)))
                # |fields| of the read rows, one row per gate of the points
                # it leaves loud, and the first row as 64-bit words in
                # order and reversed; the rows are padded with False to
                # whole words.
                gates = tuple((read.index(g), tuple(t)) for g, t in gated.items())
                loud = np.zeros((len(gates), -(-n // 8) * 8), dtype=bool)
                words = loud[0].view(np.uint64)
                self._gates = (buf["fields"][_row_slice(read)], np.empty((len(read), n)),
                               loud[:, :n], (words, words[::-1]), gates, read, late)


def _window(ws: SpectralWorkspace) -> tuple[int, int] | None:
    """The grid points (lo, hi) that the grid path steps, from the fields
    of the read rows, or None when every point is quiet.

    With M_u and M_v the grid maxima of |u| and |v|, M the largest of the
    read moving rows, and A_g the sum of |coeff| M_u^a M_v^b over the
    monomials that gate g gates (its own power lowered by one), a point is
    loud when some gate exceeds 2^-53 M / (h A_g) there. The window is the
    smallest index range that holds every loud point, rounded out to
    whole 8-point words and then to whole _WINDOW_BLOCK blocks. It is the
    whole grid when a constant monomial moves every point, or when M or a
    bound is not a finite float.
    """
    n = ws.grid.n
    if ws._gates is None:
        return 0, n
    fields, absolute, loud, words, gates, read, late = ws._gates
    np.abs(fields, out=absolute)
    maxima = [1.0, 1.0]
    for comp, peak in zip(read, absolute.max(axis=1).tolist()):
        maxima[comp] = peak
    scale = 2.0 ** -53 * max([maxima[comp] for comp in late]) / ws.dt
    mu, mv = maxima
    try:
        bounds = [sum([c * mu ** a * mv ** b for c, a, b in terms]) for _, terms in gates]
    except OverflowError:
        return 0, n
    if not math.isfinite(scale + sum(bounds)):
        return 0, n
    for row, (gate, _), bound in zip(loud, gates, bounds):
        np.greater(absolute[gate], scale / bound if bound else math.inf, out=row)
    if len(gates) > 1:
        np.logical_or(loud[0], loud[1], out=loud[0])
    first = int(words[0].argmax())
    if not words[0][first]:
        return None
    last = words[0].size - int(words[1].argmax())
    block = math.gcd(n, _WINDOW_BLOCK)
    return 8 * first // block * block, min(n, -(-8 * last // block) * block)


def _bind_window(ws: SpectralWorkspace, window: tuple[int, int]) -> None:
    """Bind the grid path's views and slot calls to the points of window
    and zero acc, which the grid path writes only inside it."""
    base, fields, slope, late_slope, acc, _, program = ws._grid
    points = slice(*window)
    acc.fill(0.0)
    ws._bound = (window, base[:, points], fields[:, points], slope[:, points],
                 late_slope[:, points], acc[:, points], program(points))


def _row_slice(comps: list[int]) -> slice | None:
    """The rows of the sorted components comps as one slice, None if empty.

    Every non-empty subset of the two components is contiguous.
    """
    return slice(comps[0], comps[-1] + 1) if comps else None


def _slot_program(row: np.ndarray, slot: tuple, fields: np.ndarray,
                  temp: np.ndarray) -> list:
    """The calls that evaluate slot's (coeff, alpha, beta) monomials into
    row by Horner's rule in the component of the higher power (u on a tie).

    Each coefficient is a polynomial in the other component: a constant,
    the bare field row, or else filled into temp by Horner's rule just
    before the call that reads it.
    """
    x = max((0, 1), key=lambda c: max(t[1 + c] for t in slot))
    polys: dict[int, dict] = {}
    for coeff, *powers in slot:
        polys.setdefault(powers[x], {})[powers[1 - x]] = (coeff, ())

    def coefficient(poly):
        if list(poly) == [0]:
            return poly[0]
        if poly == {1: (1.0, ())}:
            return fields[1 - x], ()
        return temp, _horner(temp, fields[1 - x], poly)

    return _horner(row, fields[x], {j: coefficient(p) for j, p in polys.items()})


def _horner(out: np.ndarray, base: np.ndarray, coeffs: dict) -> list:
    """The calls that set out = sum_j c_j base**j by Horner's rule, from
    {j: (c_j, fill)}: c_j is a float, or an array that the calls fill
    write just before c_j is read. A missing c_j is zero.

    The value starts as the leading coefficient and is not copied: 1 times
    base is base itself, and the first multiply or add writes out from it.
    A value that never reaches out, a constant or a bare field, is copied
    into it at the end.
    """
    top = max(coeffs)
    value, fill = coeffs[top]
    calls = list(fill)
    for j in range(top - 1, -1, -1):
        if isinstance(value, np.ndarray) or value != 1.0:
            calls.append((np.multiply, (value, base, out)))
            value = out
        else:
            value = base
        if j in coeffs:
            c, fill = coeffs[j]
            calls += [*fill, (np.add, (value, c, out))]
            value = out
    if value is not out:
        calls.append((np.copyto, (out, value)))
    return calls


def _coupling_rhs(ws: SpectralWorkspace, first: bool) -> None:
    """Write the first K modes of the spectral coupling terms of the stage
    buffer into acc (first) or k, one row per moving component.

    At the first stage of a step every read row is transformed; later
    stages transform only the read rows that move and reuse the others'
    fields, or, when none moves, reuse the first stage's forward transform.
    """
    inverse, ops, writes = ws._stages[0 if first else 1]
    if ops is not None:
        if inverse is not None:
            _irfft(inverse[0], ws.grid.n, out=inverse[1])
        for op, args in ops:
            op(*args)
        _rfft(ws._buffers["phys"], out=ws._buffers["spectra"])
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


@np.errstate(over="ignore", invalid="ignore")
def _grid_rk4(ws: SpectralWorkspace, y: np.ndarray) -> bool:
    """Advance the kept modes y[moving, :K] by one RK4 step of the couplings
    taken on the grid values, if the round-off check accepts it; return
    whether it did. A rejected attempt leaves y as it was.

    The read rows of the dealiased stage buffer are inverse-transformed
    once, and _window picks the points to step; when it picks none, the
    increment is zero and the step is accepted. Over the window, base
    keeps the moving read rows, each stage runs the slot calls on the field
    buffer and leaves the slope of every moving component in slope, and
    the next stage input of a read moving row is base + c h slope. acc sums
    h/6 (k1 + 2 k2 + 2 k3 + k4) over the window and stays zero outside it,
    and one forward transform of acc into the moving rows of the stage
    buffer makes the increment, whose modes beyond K are set back to zero
    afterwards. The attempt runs with overflow warnings off: an overflow
    leaves inf or nan in the increment, which the check rejects.
    """
    inverse = ws._stages[0][0]
    n_kept, dt = ws.n_kept, ws.dt
    ws._buffers["stage"][:, :n_kept] = y[:, :n_kept]
    _irfft(inverse[0], ws.grid.n, out=inverse[1])
    window = _window(ws)
    if window is None:
        return True
    if ws._bound[0] != window:
        _bind_window(ws, window)
    _, base, fields, slope, late_slope, acc, ops = ws._bound
    np.copyto(base, fields)
    for op, args in ops:
        op(*args)
    np.copyto(acc, slope)
    for c, twice in ((0.5 * dt, True), (0.5 * dt, True), (dt, False)):
        np.multiply(late_slope, c, out=fields)
        fields += base
        for op, args in ops:
            op(*args)
        acc += slope
        if twice:
            acc += slope
    acc *= dt / 6.0
    whole_acc, increment = ws._grid[4:6]
    _rfft(whole_acc, out=increment)
    kept = y[ws.moving, :n_kept]
    parts, tail = kept.view(np.float64), increment[:, n_kept:].view(np.float64)
    # A nan on either side fails the comparison.
    bound = _ROUND_OFF * max(parts.max(), -parts.min())
    accepted = max(tail.max(), -tail.min()) <= bound < math.inf
    if accepted:
        kept += increment[:, :n_kept]
    increment[:, n_kept:] = 0.0
    return accepted


def detect_blow_up(spectra: np.ndarray, n: int,
                   threshold: float = BLOW_UP_THRESHOLD) -> float | None:
    """Return the sup amplitude if it is non-finite or above threshold, else None.

    spectra is the stacked, C-contiguous (2, n/2+1) rfft of (u, v). Its N
    entries c bound the sup by (2/n) sum|c| <= (2/n) sqrt(N sum|c|^2)
    (Cauchy-Schwarz), and the right side is one np.vdot of the spectrum
    with itself: no abs pass and no temporary. The exact sup norm is only
    computed when that bound is not finite or exceeds the threshold, so the
    step flagged is the one whose exact sup is. OpenBLAS runs a dot product
    of more than 10000 entries on its thread pool, whose waiting threads
    take the CPU a step needs, so a larger spectrum is summed in blocks of
    _DOT_BLOCK entries; every builtin's (n <= 8192) is one block.
    """
    flat = spectra.reshape(-1)
    power = 0.0
    for start in range(0, flat.size, _DOT_BLOCK):
        block = flat[start:start + _DOT_BLOCK]
        power += np.vdot(block, block).real
    bound = math.sqrt(flat.size * power) * (2.0 / n)
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
    if ws.moving is not None and (ws._grid is None or not _grid_rk4(ws, y)):
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
