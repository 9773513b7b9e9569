"""Time stepper against exact linear solutions and normal-form identities."""

import math

import numpy as np
import pytest

from rda.core import Grid, InitialData, PolyTerm, Scenario, State, SystemSpec
from rda.solver import (
    SpectralState,
    SpectralWorkspace,
    detect_blow_up,
    gaussian_profile,
    run,
    run_scenario,
    to_normal_form,
)


def linear_system(d1=1.0, d2=0.5, c1=0.0, c2=2.0):
    return SystemSpec(d1=d1, d2=d2, c1=c1, c2=c2)


def test_linear_problem_solved_exactly():
    # With no couplings the splitting is the exact spectral propagator, so
    # a Gaussian pulse must match the closed-form advected heat solution to
    # round-off regardless of dt.
    grid = Grid(half_width=60.0, n=512)
    system = linear_system()
    x = grid.points()
    w = 4.0
    initial = State(t=0.0, u=np.exp(-x ** 2 / w), v=np.exp(-x ** 2 / w))
    ws = SpectralWorkspace(grid=grid, system=system, dt=0.05)
    result = run(ws, initial, t_end=2.0, sample_dt=2.0)
    final = result.states[-1]
    t = final.t

    def exact(d, c):
        spread = w + 4.0 * d * t
        return math.sqrt(w / spread) * np.exp(-((x + c * t) ** 2) / spread)

    assert np.max(np.abs(final.u - exact(system.d1, system.c1))) < 1e-12
    assert np.max(np.abs(final.v - exact(system.d2, system.c2))) < 1e-12


def test_zero_data_stays_zero():
    grid = Grid(half_width=30.0, n=128)
    system = SystemSpec(d1=1, d2=1, c1=0, c2=1,
                        f1=(PolyTerm(1.0, 1, 1, 0),),
                        f2=(PolyTerm(1.0, 2, 0, 0),))
    initial = State(t=0.0, u=np.zeros(grid.n), v=np.zeros(grid.n))
    ws = SpectralWorkspace(grid=grid, system=system, dt=0.01)
    result = run(ws, initial, t_end=0.5, sample_dt=0.1)
    assert not result.blew_up
    for s in result.states:
        assert not s.u.any() and not s.v.any()


def test_dealiased_modes_identically_zero():
    grid = Grid(half_width=30.0, n=256)
    system = SystemSpec(d1=1, d2=1, c1=0, c2=1,
                        f1=(PolyTerm(1.0, 2, 0, 0),),
                        g2=(PolyTerm(0.5, 2, 0, 1),))
    x = grid.points()
    initial = State(t=0.0, u=0.01 * np.exp(-x ** 2),
                    v=0.01 * np.exp(-(x - 1) ** 2))
    ws = SpectralWorkspace(grid=grid, system=system, dt=0.01)
    seen = []
    run(ws, initial, t_end=1.0, sample_dt=0.5, observer=seen.append)
    u_hat, v_hat = seen[-1].u_hat, seen[-1].v_hat
    assert np.max(np.abs(u_hat[~ws.dealias])) == 0.0
    assert np.max(np.abs(v_hat[~ws.dealias])) == 0.0


def test_blow_up_detected_and_run_terminates():
    # u_t = u_xx + u^2 with large data ignites in finite time.
    grid = Grid(half_width=30.0, n=256)
    system = SystemSpec(d1=1, d2=1, c1=0, c2=1,
                        f1=(PolyTerm(1.0, 2, 0, 0),))
    x = grid.points()
    initial = State(t=0.0, u=50.0 * np.exp(-x ** 2), v=np.zeros(grid.n))
    ws = SpectralWorkspace(grid=grid, system=system, dt=1e-3)
    result = run(ws, initial, t_end=5.0, sample_dt=0.05,
                 blow_up_threshold=1e6)
    assert result.blew_up
    assert result.blow_up_time is not None and result.blow_up_time < 5.0
    assert result.states[-1].t <= result.blow_up_time
    assert all(s.is_finite() for s in result.states)


def test_detect_blow_up_flags_threshold_and_nan():
    n = 64
    small = np.fft.rfft(np.full(n, 0.5))
    zeros = np.zeros(n // 2 + 1, dtype=complex)
    assert detect_blow_up(small, zeros, n, threshold=1.0) is None
    big = np.fft.rfft(np.full(n, 3.0))
    assert detect_blow_up(big, zeros, n, threshold=1.0) == pytest.approx(3.0)
    bad = zeros.copy()
    bad[0] = np.nan
    assert detect_blow_up(bad, zeros, n, threshold=1.0) == math.inf


def test_run_scenario_sampling_cadence():
    grid = Grid(half_width=60.0, n=256)
    scenario = Scenario(
        name="cadence", system=linear_system(),
        grid=grid,
        initial_u=InitialData(kind="gaussian", amplitude=1e-3),
        initial_v=InitialData(kind="zero"),
        t_end=1.0, dt=0.01, sample_dt=0.25,
    )
    result = run_scenario(scenario)
    np.testing.assert_allclose(result.times, [0.0, 0.25, 0.5, 0.75, 1.0],
                               atol=1e-12)


def test_spectral_state_round_trip():
    grid = Grid(half_width=10.0, n=128)
    rng = np.random.default_rng(7)
    state = State(t=1.5, u=rng.standard_normal(grid.n),
                  v=rng.standard_normal(grid.n))
    back = SpectralState.from_physical(state).to_physical(grid)
    assert back.t == state.t
    np.testing.assert_allclose(back.u, state.u, atol=1e-13)
    np.testing.assert_allclose(back.v, state.v, atol=1e-13)


class TestNormalForm:
    grid = Grid(half_width=40.0, n=512)
    system = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0)

    def test_requires_distinct_velocities(self):
        equal = SystemSpec(d1=1, d2=1, c1=2.0, c2=2.0)
        state = State(t=0.0, u=np.zeros(self.grid.n), v=np.zeros(self.grid.n))
        with pytest.raises(ValueError):
            to_normal_form(state, self.grid, equal, 1.0, 0.1, 1.0)

    def test_v_tilde_vanishes_on_slaved_branch(self):
        # v = -(gamma/c) u^2 is exactly the branch the transform removes.
        x = self.grid.points()
        u = 0.3 * np.exp(-x ** 2 / 3)
        gamma = 2.0
        c = self.system.c2 - self.system.c1
        state = State(t=0.5, u=u, v=-(gamma / c) * u ** 2)
        nf = to_normal_form(state, self.grid, self.system, 1.0, 0.1, gamma)
        assert np.max(np.abs(nf.v_tilde)) < 1e-15

    def test_gaussian_input_has_no_residual(self):
        t, a = 3.0, 0.7
        zeta = self.grid.points() + self.system.c1 * t
        u = a * gaussian_profile(zeta, t, self.system.d1)
        state = State(t=t, u=u, v=np.zeros(self.grid.n))
        nf = to_normal_form(state, self.grid, self.system, 1.0, 0.1, 1.0)
        assert nf.A == pytest.approx(a, abs=1e-9)
        assert np.max(np.abs(nf.R)) < 1e-9

    def test_rate_constants(self):
        state = State(t=0.0, u=np.zeros(self.grid.n), v=np.zeros(self.grid.n))
        nf = to_normal_form(state, self.grid, self.system,
                            alpha=1.0, beta=0.1, gamma_coeff=1.0)
        assert nf.mu == pytest.approx(0.9)
        assert nf.nu == pytest.approx(0.9 / (4 * math.sqrt(3) * math.pi),
                                      rel=1e-12)
        assert nf.nu == pytest.approx(0.0413497, abs=5e-8)

    def test_profile_unit_mass(self):
        x = np.linspace(-200, 200, 40001)
        sigma = gaussian_profile(x, 5.0, 1.3)
        assert np.trapezoid(sigma, x) == pytest.approx(1.0, abs=1e-12)


def test_strang_self_convergence_second_order():
    # Small nonlinear problem: dt halving must shrink the error by ~4.
    grid = Grid(half_width=30.0, n=256)
    system = SystemSpec(d1=1, d2=1, c1=0, c2=1,
                        f1=(PolyTerm(1.0, 1, 1, 0),),
                        f2=(PolyTerm(-1.0, 2, 0, 0),))
    x = grid.points()
    initial = State(t=0.0, u=0.5 * np.exp(-x ** 2), v=0.5 * np.exp(-x ** 2))

    def final_u(dt):
        ws = SpectralWorkspace(grid=grid, system=system, dt=dt)
        return run(ws, initial, t_end=1.0, sample_dt=1.0).states[-1].u

    coarse, mid, fine = (final_u(dt) for dt in (0.04, 0.02, 0.01))
    err_coarse = np.max(np.abs(coarse - mid))
    err_mid = np.max(np.abs(mid - fine))
    assert err_coarse / err_mid == pytest.approx(4.0, rel=0.1)
