"""Time stepper against exact linear solutions and normal-form identities."""

import math

import numpy as np
import pytest

from rda.analysis import normal_form_rates
from rda.core import Grid, InitialData, PolyTerm, Scenario, SystemSpec
from rda.solver import (
    SpectralWorkspace,
    detect_blow_up,
    gaussian_profile,
    run,
    run_scenario,
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
    initial = np.stack((np.exp(-x ** 2 / w), np.exp(-x ** 2 / w)))
    ws = SpectralWorkspace(grid=grid, system=system, dt=0.05)
    result = run(ws, initial, t_end=2.0, sample_dt=2.0)
    final_u, final_v = result.fields[-1]
    t = result.times[-1]

    def exact(d, c):
        spread = w + 4.0 * d * t
        return math.sqrt(w / spread) * np.exp(-((x + c * t) ** 2) / spread)

    assert np.max(np.abs(final_u - exact(system.d1, system.c1))) < 1e-12
    assert np.max(np.abs(final_v - exact(system.d2, system.c2))) < 1e-12


def test_zero_data_stays_zero():
    grid = Grid(half_width=30.0, n=128)
    system = SystemSpec(d1=1, d2=1, c1=0, c2=1,
                        f1=(PolyTerm(1.0, 1, 1, 0),),
                        f2=(PolyTerm(1.0, 2, 0, 0),))
    initial = np.zeros((2, grid.n))
    ws = SpectralWorkspace(grid=grid, system=system, dt=0.01)
    result = run(ws, initial, t_end=0.5, sample_dt=0.1)
    assert not result.blew_up
    for u, v in result.fields:
        assert not u.any() and not v.any()


def test_dealiased_modes_identically_zero():
    grid = Grid(half_width=30.0, n=256)
    system = SystemSpec(d1=1, d2=1, c1=0, c2=1,
                        f1=(PolyTerm(1.0, 2, 0, 0),),
                        g2=(PolyTerm(0.5, 2, 0, 1),))
    x = grid.points()
    initial = np.stack((0.01 * np.exp(-x ** 2), 0.01 * np.exp(-(x - 1) ** 2)))
    ws = SpectralWorkspace(grid=grid, system=system, dt=0.01)
    seen = []
    run(ws, initial, t_end=1.0, sample_dt=0.5, observer=seen.append)
    u_hat, v_hat = seen[-1].spectra[0], seen[-1].spectra[1]
    assert np.max(np.abs(u_hat[~ws.dealias])) == 0.0
    assert np.max(np.abs(v_hat[~ws.dealias])) == 0.0


def test_blow_up_detected_and_run_terminates():
    # u_t = u_xx + u^2 with large data ignites in finite time.
    grid = Grid(half_width=30.0, n=256)
    system = SystemSpec(d1=1, d2=1, c1=0, c2=1,
                        f1=(PolyTerm(1.0, 2, 0, 0),))
    x = grid.points()
    initial = np.stack((50.0 * np.exp(-x ** 2), np.zeros(grid.n)))
    ws = SpectralWorkspace(grid=grid, system=system, dt=1e-3)
    result = run(ws, initial, t_end=5.0, sample_dt=0.05,
                 blow_up_threshold=1e6)
    assert result.blew_up
    assert result.blow_up_time is not None and result.blow_up_time < 5.0
    # Only the samples taken before the blow-up are returned.
    assert result.times.shape == (len(result.fields),)
    assert len(result.times) < 1 + round(5.0 / 0.05)
    assert result.times[-1] <= result.blow_up_time
    assert np.isfinite(result.fields).all()


def test_detect_blow_up_flags_threshold_and_nan():
    n = 64
    small = np.fft.rfft(np.full(n, 0.5))
    zeros = np.zeros(n // 2 + 1, dtype=complex)
    assert detect_blow_up(np.stack((small, zeros)), n, threshold=1.0) is None
    big = np.fft.rfft(np.full(n, 3.0))
    assert detect_blow_up(np.stack((big, zeros)), n,
                          threshold=1.0) == pytest.approx(3.0)
    bad = zeros.copy()
    bad[0] = np.nan
    assert detect_blow_up(np.stack((bad, zeros)), n, threshold=1.0) == math.inf


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
    np.testing.assert_allclose(result.times,
                               [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)


@pytest.mark.parametrize("t_end,sample_dt", [(1.0, 0.25), (1.0, 0.3), (0.5, 1.0)])
def test_sample_array_shape_and_initial_row(t_end, sample_dt):
    # One row at t = 0, one every sample_dt and one at t_end; row 0 is the
    # initial data bit for bit, not its dealiased spectral round trip.
    grid = Grid(half_width=10.0, n=128)
    system = SystemSpec(d1=1, d2=1, c1=0, c2=1, f1=(PolyTerm(1.0, 1, 1, 0),))
    rng = np.random.default_rng(7)
    initial = 1e-3 * rng.standard_normal((2, grid.n))
    ws = SpectralWorkspace(grid=grid, system=system, dt=0.05)
    result = run(ws, initial, t_end=t_end, sample_dt=sample_dt)
    steps, stride = round(t_end / 0.05), round(sample_dt / 0.05)
    expected = [0.0, *(0.05 * i for i in range(1, steps + 1)
                       if i % stride == 0 or i == steps)]
    assert result.times.shape == (len(expected),)
    assert result.fields.shape == (len(expected), 2, grid.n)
    np.testing.assert_allclose(result.times, expected, atol=1e-12)
    assert result.fields[0].tobytes() == initial.tobytes()


class TestNormalForm:
    grid = Grid(half_width=40.0, n=512)
    system = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0)

    def test_requires_distinct_velocities(self):
        equal = SystemSpec(d1=1, d2=1, c1=2.0, c2=2.0)
        with pytest.raises(ValueError):
            normal_form_rates(equal)

    def test_gaussian_input_has_no_residual(self):
        # A Gaussian u is all amplitude: A, the trapezoid integral of u as
        # the CLI takes it over the sample array, is its mass.
        t, a = 3.0, 0.7
        zeta = self.grid.points() + self.system.c1 * t
        u = a * gaussian_profile(zeta, t, self.system.d1)
        fields = np.stack((u, np.zeros(self.grid.n)))[None]
        A = np.trapezoid(fields[:, 0], dx=self.grid.dx, axis=-1)
        assert A.shape == (1,)
        assert A[0] == pytest.approx(a, abs=1e-9)

    def test_rate_constants(self):
        system = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0,
                            f1=(PolyTerm(1.0, 1, 1, 0), PolyTerm(0.1, 3, 0, 0)),
                            g2=(PolyTerm(1.0, 2, 0, 1),))
        mu, nu = normal_form_rates(system)
        assert mu == pytest.approx(0.9)
        assert nu == pytest.approx(0.9 / (4 * math.sqrt(3) * math.pi),
                                   rel=1e-12)
        assert nu == pytest.approx(0.0413497, abs=5e-8)

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
    initial = np.stack((0.5 * np.exp(-x ** 2), 0.5 * np.exp(-x ** 2)))

    def final_u(dt):
        ws = SpectralWorkspace(grid=grid, system=system, dt=dt)
        return run(ws, initial, t_end=1.0, sample_dt=1.0).fields[-1, 0]

    coarse, mid, fine = (final_u(dt) for dt in (0.04, 0.02, 0.01))
    err_coarse = np.max(np.abs(coarse - mid))
    err_mid = np.max(np.abs(mid - fine))
    assert err_coarse / err_mid == pytest.approx(4.0, rel=0.1)
