"""The stacked-spectrum stepper against a per-component reference stepper.

The reference below is the plain form of the same scheme: each component
is transformed on its own, the 2/3 rule re-masks every product input and
result, and the powers are rebuilt for every monomial. The stacked
stepper must reproduce it to round-off while the solution stays below the
blow-up threshold, and its blow-up check must stop it at the first step
that does not, as solver.run does.

A reaction-only system whose couplings read a moving component may take
its coupling substep on the grid instead; the tests at the end tell the
two paths apart by the rows the step transforms.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import count_transform_rows
from rda import solver
from rda.core import BLOW_UP_THRESHOLD, Grid, PolyTerm, SystemSpec
from rda.scenarios import BUILTIN_SCENARIOS, get_scenario
from rda.solver import SpectralWorkspace, detect_blow_up, step

RTOL = 1e-12
STEPS = 10


def _wavenumbers(grid):
    k = 2.0 * math.pi * np.fft.rfftfreq(grid.n, d=grid.dx)
    return k, np.abs(k) <= (2.0 / 3.0) * np.max(np.abs(k))


def reference_rhs(grid, system, u_hat, v_hat):
    """Spectral RHS of the coupling terms, dealiased on the way in and out."""
    k, mask = _wavenumbers(grid)
    u = np.fft.irfft(u_hat * mask, n=grid.n)
    v = np.fft.irfft(v_hat * mask, n=grid.n)
    powers_u = {0: np.ones_like(u), 1: u}
    powers_v = {0: np.ones_like(v), 1: v}

    def monomial(term):
        for powers, base, order in ((powers_u, u, term.alpha),
                                    (powers_v, v, term.beta)):
            while order not in powers:
                top = max(powers)
                powers[top + 1] = powers[top] * base
        return term.coeff * powers_u[term.alpha] * powers_v[term.beta]

    def assemble(f_terms, g_terms):
        rhs = np.zeros(u_hat.shape, dtype=complex)
        if f_terms:
            rhs += np.fft.rfft(sum(monomial(t) for t in f_terms))
        if g_terms:
            rhs += 1j * k * np.fft.rfft(sum(monomial(t) for t in g_terms))
        return rhs * mask

    return (assemble(system.f1, system.g1), assemble(system.f2, system.g2))


def reference_step(grid, system, dt, u_hat, v_hat):
    """One Strang step: half linear, RK4 on the couplings, half linear."""
    k, _ = _wavenumbers(grid)
    m1 = np.exp((-system.d1 * k ** 2 + 1j * system.c1 * k) * 0.5 * dt)
    m2 = np.exp((-system.d2 * k ** 2 + 1j * system.c2 * k) * 0.5 * dt)
    u = u_hat * m1
    v = v_hat * m2

    k1u, k1v = reference_rhs(grid, system, u, v)
    k2u, k2v = reference_rhs(grid, system, u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
    k3u, k3v = reference_rhs(grid, system, u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
    k4u, k4v = reference_rhs(grid, system, u + dt * k3u, v + dt * k3v)
    u = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return u * m1, v * m2


def _initial_spectra(grid, seed, masked=True):
    rng = np.random.default_rng(seed)
    x = grid.points()
    envelope = np.exp(-x ** 2 / 9.0)
    fields = np.stack((0.05 * (1.0 + rng.standard_normal(grid.n)) * envelope,
                       0.05 * (1.0 + rng.standard_normal(grid.n)) * envelope))
    spectra = scipy.fft.rfft(fields, axis=-1)
    return spectra * _wavenumbers(grid)[1] if masked else spectra


def reference_run(grid, system, dt, spectra):
    """STEPS reference steps, or None once the sup norm of either component
    goes non-finite or past the blow-up threshold (the reference itself
    never stops)."""
    u_ref, v_ref = spectra
    with np.errstate(all="ignore"):
        for _ in range(STEPS):
            u_ref, v_ref = reference_step(grid, system, dt, u_ref, v_ref)
            sup = max(np.max(np.abs(np.fft.irfft(u_ref, n=grid.n))),
                      np.max(np.abs(np.fft.irfft(v_ref, n=grid.n))))
            if not sup <= BLOW_UP_THRESHOLD:
                return None
    return np.stack((u_ref, v_ref))


def stepped(grid, system, dt, spectra):
    """STEPS steps, or None at the first step detect_blow_up flags."""
    ws = SpectralWorkspace(grid=grid, system=system, dt=dt)
    for _ in range(STEPS):
        spectra = step(ws, spectra)
        if detect_blow_up(spectra, grid.n) is not None:
            return None
    return spectra


def assert_close(spectra, ref):
    assert spectra is not None
    assert np.max(np.abs(spectra - ref)) <= RTOL * np.max(np.abs(ref))


def assert_matches_reference(grid, system, dt, spectra):
    ref = reference_run(grid, system, dt, spectra)
    assert ref is not None
    assert_close(stepped(grid, system, dt, spectra), ref)


# Every builtin term has coefficient 1, which Horner's rule does not
# multiply by.
_coeffs = st.one_of(st.just(1.0), st.floats(-3.0, 3.0, allow_nan=False))


def _slot(gamma):
    term = st.builds(PolyTerm, coeff=_coeffs, alpha=st.integers(0, 4),
                     beta=st.integers(0, 4), gamma=st.just(gamma))
    return st.lists(term, min_size=0, max_size=3).map(tuple)


_systems = st.builds(SystemSpec,
                     d1=st.floats(0.1, 2.0), d2=st.floats(0.1, 2.0),
                     c1=st.floats(-3.0, 3.0), c2=st.floats(-3.0, 3.0),
                     f1=_slot(0), f2=_slot(0), g1=_slot(1), g2=_slot(1))


# Constant forcing drives v up until the v^4 flux steepens it past the
# threshold on the last of the STEPS steps: both steppers pass 1e40 there.
_UNSTABLE = dict(
    system=SystemSpec(d1=1.0, d2=0.25, c1=0.0, c2=0.0,
                      f1=(PolyTerm(0.0, 0, 0, 0),),
                      f2=(PolyTerm(3.0, 0, 0, 0), PolyTerm(3.0, 0, 0, 0)),
                      g1=(PolyTerm(0.0, 0, 0, 1),),
                      g2=(PolyTerm(2.0, 0, 4, 1),)),
    n=128, dt=0.03125, seed=0)

# One-way couplings: a component without coupling terms carries the same
# kept modes through every RK4 stage, and the stepper reuses its field.
# toy: only f1 = u^4 + uv, which reads the uncoupled v.
_TOY_SHAPE = dict(
    system=SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=5.0,
                      f1=(PolyTerm(1.0, 4, 0, 0), PolyTerm(1.0, 1, 1, 0))),
    n=128, dt=0.02, seed=1)
# remark51: only f2 = u^4, whose input u is uncoupled.
_REMARK51_SHAPE = dict(
    system=SystemSpec(d1=1.0, d2=0.25, c1=0.0, c2=1.0,
                      f2=(PolyTerm(1.0, 4, 0, 0),)),
    n=64, dt=0.025, seed=2)
# Constant-only monomials read no component at all.
_CONSTANT_ONLY = dict(
    system=SystemSpec(d1=0.5, d2=1.5, c1=1.0, c2=-2.0,
                      f1=(PolyTerm(0.4, 0, 0, 0),),
                      f2=(PolyTerm(-1.5, 0, 0, 0), PolyTerm(0.25, 0, 0, 0)),
                      g2=(PolyTerm(2.0, 0, 0, 1),)),
    n=64, dt=0.04, seed=3)

# thm1: f1 = f2 = uv share one transform row, and g1 = u^2, g2 = v^2 are
# one multiply each.
_IDENTICAL_SLOTS = dict(
    system=SystemSpec(d1=1.0, d2=0.5, c1=0.0, c2=1.0,
                      f1=(PolyTerm(1.0, 1, 1, 0),), f2=(PolyTerm(1.0, 1, 1, 0),),
                      g1=(PolyTerm(1.0, 2, 0, 1),), g2=(PolyTerm(1.0, 0, 2, 1),)),
    n=128, dt=0.02, seed=4)
# thm2 with f1 and f2 swapped: f1 = ((u u) u + v) u by Horner's rule in
# u, in its own row beside f2's uv.
_SHARED_TERM = dict(
    system=SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=5.0,
                      f1=(PolyTerm(1.0, 4, 0, 0), PolyTerm(1.0, 1, 1, 0)),
                      f2=(PolyTerm(1.0, 1, 1, 0),)),
    n=128, dt=0.02, seed=5)
# cas3: f1 = ((1.5 u) u + v) u, its leading constant folded into the
# first multiply, beside g2 = u^2.
_POWER_ALONE_AND_INSIDE = dict(
    system=SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0,
                      f1=(PolyTerm(1.0, 1, 1, 0), PolyTerm(1.5, 3, 0, 0)),
                      g2=(PolyTerm(1.0, 2, 0, 1),)),
    n=64, dt=0.02, seed=6)
# v is still and read at power 2 in a sum: every stage squares its stage-1
# field again and adds the moving u.
_STILL_POWER_IN_SUM = dict(
    system=SystemSpec(d1=1.0, d2=0.5, c1=0.0, c2=0.0,
                      f1=(PolyTerm(1.0, 0, 2, 0), PolyTerm(1.0, 1, 0, 0))),
    n=64, dt=0.02, seed=7)
# u^2 is in both slots: f1 = u u + v, and f2 = (2 u + 1) u adds its
# constant coefficient 1.
_POWER_READ_AFTER_SUM = dict(
    system=SystemSpec(d1=1.0, d2=0.5, c1=0.0, c2=1.0,
                      f1=(PolyTerm(1.0, 2, 0, 0), PolyTerm(1.0, 0, 1, 0)),
                      f2=(PolyTerm(2.0, 2, 0, 0), PolyTerm(1.0, 1, 0, 0))),
    n=64, dt=0.02, seed=8)
# v's power is the higher, so Horner's rule runs in v, and the
# coefficients 2 u^2 and -u of v^3 and v are filled into the temp row by
# Horner's rule in u: ((2 u^2) v v - u) v + 3.
_HORNER_IN_V = dict(
    system=SystemSpec(d1=1.0, d2=0.5, c1=0.0, c2=1.0,
                      f1=(PolyTerm(2.0, 2, 3, 0), PolyTerm(-1.0, 1, 1, 0),
                          PolyTerm(3.0, 0, 0, 0))),
    n=64, dt=0.02, seed=9)
# A constant-only slot beside a product: f1 is filled, f2 = uv multiplied.
_CONSTANT_BESIDE_PRODUCT = dict(
    system=SystemSpec(d1=1.0, d2=0.5, c1=0.0, c2=1.0,
                      f1=(PolyTerm(0.75, 0, 0, 0),), f2=(PolyTerm(1.0, 1, 1, 0),)),
    n=64, dt=0.02, seed=10)
# The still v is read at power 2 with the moving u as its coefficient:
# (u v) v at every stage.
_STILL_SQUARED = dict(
    system=SystemSpec(d1=1.0, d2=0.5, c1=0.0, c2=1.0,
                      f1=(PolyTerm(1.0, 1, 2, 0),)),
    n=64, dt=0.02, seed=11)
_UNMASKED_SYSTEM = SystemSpec(d1=1.0, d2=0.5, c1=0.0, c2=2.0,
                              f1=(PolyTerm(-0.7, 4, 0, 0), PolyTerm(2.0, 1, 1, 0)),
                              f2=(PolyTerm(0.3, 0, 3, 0),),
                              g1=(PolyTerm(1.5, 2, 0, 1),),
                              g2=(PolyTerm(-2.0, 1, 2, 1),))
_FLUX_ONLY_SYSTEM = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0,
                               g1=(PolyTerm(1.5, 2, 0, 1),),
                               g2=(PolyTerm(-0.5, 0, 2, 1), PolyTerm(2.0, 1, 1, 1)))
# Every system the tests below step by name.
ORACLE_SYSTEMS = {
    **{name: case["system"] for name, case in (
        ("unstable", _UNSTABLE), ("toy_shape", _TOY_SHAPE),
        ("remark51_shape", _REMARK51_SHAPE), ("constant_only", _CONSTANT_ONLY),
        ("identical_slots", _IDENTICAL_SLOTS), ("shared_term", _SHARED_TERM),
        ("power_alone_and_inside", _POWER_ALONE_AND_INSIDE),
        ("still_power_in_sum", _STILL_POWER_IN_SUM),
        ("power_read_after_sum", _POWER_READ_AFTER_SUM), ("horner_in_v", _HORNER_IN_V),
        ("constant_beside_product", _CONSTANT_BESIDE_PRODUCT),
        ("still_squared", _STILL_SQUARED))},
    "unmasked": _UNMASKED_SYSTEM,
    "flux_only": _FLUX_ONLY_SYSTEM,
}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(system=_systems, n=st.sampled_from([64, 128]),
       dt=st.floats(1e-3, 0.05), seed=st.integers(0, 2 ** 31 - 1))
@example(**_UNSTABLE)
@example(**_TOY_SHAPE)
@example(**_REMARK51_SHAPE)
@example(**_CONSTANT_ONLY)
@example(**_IDENTICAL_SLOTS)
@example(**_SHARED_TERM)
@example(**_POWER_ALONE_AND_INSIDE)
@example(**_STILL_POWER_IN_SUM)
@example(**_POWER_READ_AFTER_SUM)
@example(**_HORNER_IN_V)
@example(**_CONSTANT_BESIDE_PRODUCT)
@example(**_STILL_SQUARED)
def test_all_slots_match_reference(system, n, dt, seed):
    grid = Grid(half_width=20.0, n=n)
    spectra = _initial_spectra(grid, seed)
    ref = reference_run(grid, system, dt, spectra)
    # A draw whose reference solution leaves the finite-amplitude range is
    # a blow-up, at which the stepper stops instead of matching.
    assume(ref is not None)
    assert_close(stepped(grid, system, dt, spectra), ref)


def test_unstable_draw_raises_blow_up():
    grid = Grid(half_width=20.0, n=_UNSTABLE["n"])
    spectra = _initial_spectra(grid, _UNSTABLE["seed"])
    assert reference_run(grid, _UNSTABLE["system"], _UNSTABLE["dt"], spectra) is None
    assert stepped(grid, _UNSTABLE["system"], _UNSTABLE["dt"], spectra) is None


def test_unmasked_input_matches_reference():
    # step() must dealias an input whose masked modes are not zero, as the
    # reference does by re-masking.
    grid = Grid(half_width=20.0, n=128)
    system = _UNMASKED_SYSTEM
    spectra = _initial_spectra(grid, seed=3, masked=False)
    _, mask = _wavenumbers(grid)
    assert np.max(np.abs(spectra[:, ~mask])) > 0.0
    assert_matches_reference(grid, system, 0.01, spectra)


def test_no_couplings_match_reference():
    grid = Grid(half_width=20.0, n=64)
    system = SystemSpec(d1=1.0, d2=0.5, c1=-1.0, c2=2.0)
    assert_matches_reference(grid, system, 0.02, _initial_spectra(grid, seed=5))


def test_flux_only_matches_reference():
    grid = Grid(half_width=20.0, n=128)
    assert_matches_reference(grid, _FLUX_ONLY_SYSTEM, 0.01,
                             _initial_spectra(grid, seed=7))


def repeated_ufunc_calls(ws):
    """The ufunc calls of each stage program of ws that repeat an earlier
    call of that program on the same operands, with nothing written to any
    operand in between.

    An array operand is known by its memory and the number of writes to
    memory it shares so far; the forward transform writes its spectra
    between the monomial calls and the slope calls.
    """
    repeats = []
    for _, ops, writes in ws._stages:
        written, seen = [], set()

        def operand(x):
            if not isinstance(x, np.ndarray):
                return x
            return (x.__array_interface__["data"][0], x.shape, x.strides,
                    sum(np.shares_memory(x, w) for w in written))

        program = [*(ops or []), (None, (ws._buffers["spectra"],)), *writes]
        for op, args in program:
            owner = getattr(op, "__self__", None)
            if isinstance(op, np.ufunc):
                key = (op, *map(operand, args[:-1]))
                if key in seen:
                    repeats.append((op.__name__, key))
                seen.add(key)
                written.append(args[-1])
            elif isinstance(owner, np.ndarray):
                written.append(owner)  # a buffer's fill
            else:
                written.append(args[0])  # np.copyto or the transform
    return repeats


@pytest.mark.parametrize("name", [*BUILTIN_SCENARIOS, *ORACLE_SYSTEMS])
def test_no_stage_repeats_a_product(name):
    if name in ORACLE_SYSTEMS:
        ws = SpectralWorkspace(grid=Grid(half_width=20.0, n=64),
                               system=ORACLE_SYSTEMS[name], dt=0.01)
    else:
        scenario = get_scenario(name)
        ws = SpectralWorkspace(grid=scenario.grid, system=scenario.system,
                               dt=scenario.dt)
    assert repeated_ufunc_calls(ws) == []


# The rows (inverse, forward) one grid step transforms: the read rows in,
# the moving rows out.
_GRID_SHAPES = {
    # toy: f1 = u^4 + uv; u moves, v is still.
    "toy": (_TOY_SHAPE["system"], [2], [1]),
    # thm2-irrelevant: f1 = uv, f2 = u^4 + uv.
    "thm2": (SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=5.0,
                        f1=(PolyTerm(1.0, 1, 1, 0),),
                        f2=(PolyTerm(1.0, 4, 0, 0), PolyTerm(1.0, 1, 1, 0))), [2], [2]),
    # cas2-distinct: f1 = v^2, f2 = u^2.
    "cas2": (SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=2.0,
                        f1=(PolyTerm(1.0, 0, 2, 0),), f2=(PolyTerm(1.0, 2, 0, 0),)),
             [2], [2]),
    # f1 = f2 = uv share one row, whose grid values are both slopes.
    "shared_reaction": (SystemSpec(d1=1.0, d2=0.5, c1=0.0, c2=1.0,
                                   f1=(PolyTerm(1.0, 1, 1, 0),),
                                   f2=(PolyTerm(1.0, 1, 1, 0),)), [2], [2]),
    # u moves but no term reads it: only v's grid values are taken in.
    "unread_mover": (SystemSpec(d1=1.0, d2=0.5, c1=0.0, c2=1.0,
                                f1=(PolyTerm(1.0, 0, 2, 0),),
                                f2=(PolyTerm(-1.0, 0, 3, 0),)), [1], [2]),
}


def _gaussian_spectra(grid, amplitude):
    """Gaussians of width 3: u^4 keeps nothing but round-off beyond the
    kept band of a 256-point grid on [-30, 30)."""
    x = grid.points()
    fields = amplitude * np.stack((np.exp(-x ** 2 / 9.0), np.exp(-(x - 1.0) ** 2 / 9.0)))
    return scipy.fft.rfft(fields, axis=-1) * _wavenumbers(grid)[1]


def counted_steps(monkeypatch, ws, spectra, steps=STEPS):
    """steps steps of spectra and the transform rows of each step."""
    rows = count_transform_rows(monkeypatch)
    per_step = []
    for _ in range(steps):
        spectra = step(ws, spectra)
        per_step.append((rows["irfft"][:], rows["rfft"][:]))
        rows["irfft"].clear()
        rows["rfft"].clear()
    return spectra, per_step


def projected_steps(monkeypatch, ws, spectra, steps=STEPS):
    """steps steps of spectra with the grid path refused."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_grid_rk4", lambda ws, y: False)
        for _ in range(steps):
            spectra = step(ws, spectra)
    return spectra


@pytest.mark.parametrize("name", sorted(_GRID_SHAPES))
def test_smooth_data_take_the_grid_path(monkeypatch, name):
    system, inverse, forward = _GRID_SHAPES[name]
    grid, dt = Grid(half_width=30.0, n=256), 0.02
    spectra = _gaussian_spectra(grid, 0.5 if name == "cas2" else 0.05)
    ws = SpectralWorkspace(grid=grid, system=system, dt=dt)
    stepped_spectra, per_step = counted_steps(monkeypatch, ws, spectra)
    assert per_step == [(inverse, forward)] * STEPS
    ref = reference_run(grid, system, dt, spectra)
    assert np.max(np.abs(stepped_spectra - ref)) <= 1e-13 * np.max(np.abs(ref))


# The reaction-only systems above whose couplings read a moving component,
# and the rows (inverse, forward) of a rejected grid attempt followed by
# a projected step.
_REACTION_ONLY = {
    "toy_shape": (_TOY_SHAPE, [2, 2, 1, 1, 1], [1, 1, 1, 1, 1]),
    "shared_term": (_SHARED_TERM, [2, 2, 2, 2, 2], [2, 2, 2, 2, 2]),
    "still_power_in_sum": (_STILL_POWER_IN_SUM, [2, 2, 1, 1, 1], [1, 1, 1, 1, 1]),
    "power_read_after_sum": (_POWER_READ_AFTER_SUM, [2, 2, 2, 2, 2], [2, 2, 2, 2, 2]),
}


@pytest.mark.parametrize("name", sorted(_REACTION_ONLY))
def test_rough_data_fall_back_to_the_projected_step(monkeypatch, name):
    # The noise fills the kept band, so the products reach beyond it and
    # every grid attempt is rejected: the step makes the attempt's rows,
    # then the projected step's, and returns the projected step's bits.
    case, inverse, forward = _REACTION_ONLY[name]
    grid = Grid(half_width=20.0, n=case["n"])
    spectra = _initial_spectra(grid, case["seed"])
    ws = SpectralWorkspace(grid=grid, system=case["system"], dt=case["dt"])
    expected = projected_steps(monkeypatch, ws, spectra)
    stepped_spectra, per_step = counted_steps(monkeypatch, ws, spectra)
    assert per_step == [(inverse, forward)] * STEPS
    assert stepped_spectra.tobytes() == expected.tobytes()


# Flux slots, and couplings that read no moving component (remark51's
# f2 = u^4 with u still), keep the projected step even on smooth data.
_NEVER_GRID = {
    "remark51_shape": (_REMARK51_SHAPE["system"], [1], [1]),
    "identical_slots": (_IDENTICAL_SLOTS["system"], [2, 2, 2, 2], [3, 3, 3, 3]),
    "power_alone_and_inside": (_POWER_ALONE_AND_INSIDE["system"], [2, 2, 2, 2], [2, 2, 2, 2]),
}


@pytest.mark.parametrize("name", sorted(_NEVER_GRID))
def test_flux_and_still_reads_never_take_the_grid_path(monkeypatch, name):
    system, inverse, forward = _NEVER_GRID[name]
    grid = Grid(half_width=30.0, n=256)
    ws = SpectralWorkspace(grid=grid, system=system, dt=0.02)
    spectra = _gaussian_spectra(grid, 0.05)
    expected = projected_steps(monkeypatch, ws, spectra)
    stepped_spectra, per_step = counted_steps(monkeypatch, ws, spectra)
    assert per_step == [(inverse, forward)] * STEPS
    assert stepped_spectra.tobytes() == expected.tobytes()


def test_overflowing_grid_attempt_falls_back_without_a_warning(monkeypatch):
    # u = A cos(12 x), v = A sin(12 x) on 64 points: uv = A^2/2 sin(24 x)
    # lies wholly beyond the kept band (modes 0-21). One projected step cuts
    # it from every stage input and stays finite; on the grid each stage
    # multiplies u by about h A = 1e4, and the third stage overflows.
    grid, n = Grid(half_width=20.0, n=64), 64
    amplitude, dt = 1e152, 1e-148
    system = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=0.0, f1=(PolyTerm(1.0, 1, 1, 0),))
    phase = 2.0 * np.pi * 12 * np.arange(n) / n
    u, v = amplitude * np.cos(phase), amplitude * np.sin(phase)
    with np.errstate(over="ignore"):
        second = u + 0.5 * dt * u * v
        third = u + 0.5 * dt * second * v
        assert np.isinf(third * v).any()
    spectra = scipy.fft.rfft(np.stack((u, v)), axis=-1)
    ws = SpectralWorkspace(grid=grid, system=system, dt=dt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = projected_steps(monkeypatch, ws, spectra, steps=1)
        stepped_spectra, per_step = counted_steps(monkeypatch, ws, spectra, steps=1)
    assert np.isfinite(expected).all()
    assert per_step == [([2, 2, 1, 1, 1], [1, 1, 1, 1, 1])]
    assert stepped_spectra.tobytes() == expected.tobytes()
