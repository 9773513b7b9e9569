"""The stacked-spectrum stepper against a per-component reference stepper.

The reference below is the plain form of the same scheme: each component
is transformed on its own, the 2/3 rule re-masks every product input and
result, and the powers are rebuilt for every monomial. The stacked
stepper must reproduce it to round-off while the solution stays below the
blow-up threshold, and its blow-up check must stop it at the first step
that does not, as solver.run does.
"""

import math

import numpy as np
import scipy.fft
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from rda.core import DEFAULT_BLOW_UP_THRESHOLD, Grid, PolyTerm, SystemSpec
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
            if not sup <= DEFAULT_BLOW_UP_THRESHOLD:
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


# Every builtin term has coefficient 1, which the stepper does not multiply.
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


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(system=_systems, n=st.sampled_from([64, 128]),
       dt=st.floats(1e-3, 0.05), seed=st.integers(0, 2 ** 31 - 1))
@example(**_UNSTABLE)
@example(**_TOY_SHAPE)
@example(**_REMARK51_SHAPE)
@example(**_CONSTANT_ONLY)
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
    system = SystemSpec(d1=1.0, d2=0.5, c1=0.0, c2=2.0,
                        f1=(PolyTerm(-0.7, 4, 0, 0), PolyTerm(2.0, 1, 1, 0)),
                        f2=(PolyTerm(0.3, 0, 3, 0),),
                        g1=(PolyTerm(1.5, 2, 0, 1),),
                        g2=(PolyTerm(-2.0, 1, 2, 1),))
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
    system = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0,
                        g1=(PolyTerm(1.5, 2, 0, 1),),
                        g2=(PolyTerm(-0.5, 0, 2, 1), PolyTerm(2.0, 1, 1, 1)))
    assert_matches_reference(grid, system, 0.01, _initial_spectra(grid, seed=7))
