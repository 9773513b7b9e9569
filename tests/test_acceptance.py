"""End-to-end acceptance suite.

Each criterion pins one headline claim of the laboratory:
  1. closed-form kernel identities vs Gauss-Legendre quadrature,
  2. the exactly solvable benchmark vs simulation,
  3. small-data Gaussian decay (mix couplings),
  4. decay with an irrelevant cross coupling (drag envelope),
  5. norm growth of the quadratically cross-coupled system vs the
     explicit lower bounds,
  6. the logarithmic amplitude law under the stabilizing sign,
  7. structural invariants under a property-testing harness,
  8. second-order self-convergence of the splitting.
"""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import history_envelope, history_norms, record_run
from rda import kernels, solver
from rda.analysis import (
    Category,
    amplitude_law_check,
    cas2_lower_bounds,
    check_admissibility,
    classify_term,
    fit_decay_exponent,
    normal_form_rates,
)
from rda.core import EnvelopeSpec, Grid, PolyTerm, SystemSpec
from rda.scenarios import get_scenario
from rda.solver import SpectralWorkspace, run

PROPERTY_SETTINGS = settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture])


# ---------------------------------------------------------------------------
# Criterion 1: kernel identity suite
# ---------------------------------------------------------------------------

def test_criterion_1_identity_suite():
    report = kernels.verify_identity_suite()
    for name, cases in report.cases.items():
        assert cases >= 20, f"{name} has only {cases} parameter points"
    name, worst = report.worst()
    assert worst <= 1e-8, f"worst identity {name} at {worst:.3e}"


# ---------------------------------------------------------------------------
# Criterion 2: exactly solvable benchmark
# ---------------------------------------------------------------------------

def test_criterion_2_exact_benchmark(remark51_run):
    scenario, result = remark51_run
    assert not result.blew_up
    final_u, final_v = result.fields[-1]
    t = result.times[-1]
    assert t == pytest.approx(5.0, abs=1e-9)
    x = scenario.grid.points()
    s = scenario.system

    u_exact = np.exp(-((x + s.c1 * t) ** 2) / (4.0 * (1.0 + t))) / math.sqrt(
        4.0 * math.pi * (1.0 + t))
    v_exact = kernels.drag_profile(x, t, s.c2, s.c1) / (16.0 * math.pi ** 2)

    err_u = np.max(np.abs(final_u - u_exact)) / np.max(np.abs(u_exact))
    err_v = np.max(np.abs(final_v - v_exact)) / np.max(np.abs(v_exact))
    assert err_u <= 1e-4
    assert err_v <= 5e-4


# ---------------------------------------------------------------------------
# Criterion 3: small-data decay with mix couplings
# ---------------------------------------------------------------------------

def test_criterion_3_decay_exponent(toy_run):
    scenario, result = toy_run
    times, linf_u, _, _, _ = history_norms(result.times, result.fields,
                                           scenario.grid.dx)
    exponent = fit_decay_exponent(times, linf_u, t_min=5.0).exponent
    assert exponent == pytest.approx(-0.5, abs=0.1)


def test_criterion_3_envelope_bounded(toy_run):
    scenario, result = toy_run
    verdict = history_envelope(result.times, result.fields, scenario.grid,
                               scenario.system, scenario.envelope)
    assert verdict.bounded, f"eta grew to {verdict.max_eta:.3e}"


def test_criterion_3_l1_nearly_conserved(toy_run):
    scenario, result = toy_run
    _, _, _, l1_u, _ = history_norms(result.times, result.fields,
                                     scenario.grid.dx)
    variation = float(np.max(l1_u) / np.min(l1_u)) - 1.0
    assert variation < 0.20


# ---------------------------------------------------------------------------
# Criterion 4: decay with an irrelevant cross coupling
# ---------------------------------------------------------------------------

def test_criterion_4_drag_envelope_bounded(thm2_run):
    scenario, result = thm2_run
    verdict = history_envelope(result.times, result.fields, scenario.grid,
                               scenario.system, scenario.envelope)
    assert verdict.bounded, f"drag eta grew to {verdict.max_eta:.3e}"


def test_criterion_4_both_components_decay(thm2_run):
    scenario, result = thm2_run
    times, linf_u, linf_v, _, _ = history_norms(result.times, result.fields,
                                                scenario.grid.dx)
    for series in (linf_u, linf_v):
        exponent = fit_decay_exponent(times, series, t_min=10.0).exponent
        assert exponent <= -0.4


# ---------------------------------------------------------------------------
# Criterion 5: norm growth vs the explicit lower bounds
# ---------------------------------------------------------------------------

def _cas2_bounds(scenario, times):
    init = scenario.initial_u
    return cas2_lower_bounds(scenario.system, init.amplitude, 1.0 / init.width,
                             times)


def test_criterion_5_l1_dominates_lower_bound(cas2_distinct_run):
    scenario, result = cas2_distinct_run
    times, _, _, l1_u, l1_v = history_norms(result.times, result.fields,
                                            scenario.grid.dx)
    curve = _cas2_bounds(scenario, times)
    l1_total = l1_u + l1_v
    assert np.all(l1_total >= curve.l1_bound)


def test_criterion_5_l1_growth_exponent(cas2_distinct_run):
    scenario, result = cas2_distinct_run
    times, _, _, l1_u, l1_v = history_norms(result.times, result.fields,
                                            scenario.grid.dx)
    exponent = fit_decay_exponent(times, l1_u + l1_v,
                                  t_min=times[-1] / 10.0).exponent
    assert exponent >= 0.8


def test_criterion_5_linf_bound_increases_after_two(cas2_distinct_run):
    # The log-growth regime is visible in the explicit bound curve; the
    # simulated sup norm first sheds its initial mass before the forced
    # growth takes over, which the companion test below checks.
    scenario, _ = cas2_distinct_run
    t = np.linspace(2.0, 20.0, 721)
    curve = _cas2_bounds(scenario, t)
    assert np.all(np.diff(curve.linf_bound) > 0.0)


def test_criterion_5_simulated_linf_grows(cas2_distinct_run):
    scenario, result = cas2_distinct_run
    times, linf_u, linf_v, _, _ = history_norms(result.times, result.fields,
                                                scenario.grid.dx)
    sup = np.maximum(linf_u, linf_v)
    half = times >= times[-1] / 2.0
    assert np.all(np.diff(sup[half]) > 0.0)


# ---------------------------------------------------------------------------
# Criterion 6: amplitude law under the stabilizing sign
# ---------------------------------------------------------------------------

def test_criterion_6_no_blow_up(cas3_run):
    _, result = cas3_run
    assert not result.blew_up
    assert result.times[-1] == pytest.approx(200.0, abs=1e-6)


def test_criterion_6_decay_exponent(cas3_run):
    scenario, result = cas3_run
    times, linf_u, _, _, _ = history_norms(result.times, result.fields,
                                           scenario.grid.dx)
    exponent = fit_decay_exponent(times, linf_u, t_min=10.0).exponent
    assert exponent == pytest.approx(-0.5, abs=0.15)


def test_criterion_6_amplitude_law(cas3_run):
    scenario, result = cas3_run
    adm = check_admissibility(scenario.system)
    assert adm.sign_value is not None and adm.sign_value < 0.0
    mu, nu = normal_form_rates(scenario.system)
    assert mu == pytest.approx(0.5)
    assert nu == pytest.approx(0.5 / (4 * math.sqrt(3) * math.pi))
    amplitudes = np.trapezoid(result.fields[:, 0], dx=scenario.grid.dx, axis=-1)
    verdict = amplitude_law_check(result.times, amplitudes, mu, nu)
    assert verdict.passed, \
        f"law peaked at {verdict.statistic:.3f} after burn-in"


# ---------------------------------------------------------------------------
# Criterion 7: property suites
# ---------------------------------------------------------------------------

_terms = st.builds(
    PolyTerm,
    coeff=st.floats(-3.0, 3.0, allow_nan=False).filter(lambda c: c != 0.0),
    alpha=st.integers(0, 4), beta=st.integers(0, 4),
    gamma=st.integers(0, 1),
).filter(lambda t: t.alpha + t.beta >= 2)


class TestProperty1Classification:
    @PROPERTY_SETTINGS
    @given(term=_terms)
    def test_partition(self, term):
        category = classify_term(term)
        threshold = 3
        if term.p < threshold:
            assert category is Category.RELEVANT
        elif term.p > threshold:
            assert category is Category.IRRELEVANT
        else:
            assert category is Category.MARGINAL

    @PROPERTY_SETTINGS
    @given(f1=st.lists(_terms.map(lambda t: PolyTerm(t.coeff, t.alpha, t.beta, 0)),
                       max_size=2),
           f2=st.lists(_terms.map(lambda t: PolyTerm(t.coeff, t.alpha, t.beta, 0)),
                       max_size=2),
           c2=st.floats(0.5, 5.0, allow_nan=False))
    def test_first_result_implies_second(self, f1, f2, c2):
        system = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=c2,
                            f1=tuple(f1), f2=tuple(f2))
        report = check_admissibility(system)
        if report.thm1_admissible:
            assert report.thm2_admissible


class TestProperty2EnvelopeHomogeneityAndOrdering:
    grid = Grid(half_width=80.0, n=256)
    system = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0)

    def _history(self, amplitude, width, offset):
        x = self.grid.points()
        times = np.array([0.5, 2.0, 5.0])
        fields = np.empty((len(times), 2, self.grid.n))
        for j, s_t in enumerate(times):
            fields[j, 0] = amplitude * np.exp(
                -(x - offset + self.system.c1 * s_t) ** 2 / width) / math.sqrt(1 + s_t)
            fields[j, 1] = amplitude * np.exp(
                -(x - offset + self.system.c2 * s_t) ** 2 / width) / math.sqrt(1 + s_t)
        return times, fields

    @PROPERTY_SETTINGS
    @given(amplitude=st.floats(1e-6, 1.0, allow_nan=False),
           width=st.floats(1.0, 16.0, allow_nan=False),
           offset=st.floats(-3.0, 3.0, allow_nan=False),
           scale=st.floats(0.1, 10.0, allow_nan=False))
    def test_homogeneity(self, amplitude, width, offset, scale):
        times, fields = self._history(amplitude, width, offset)
        for env in (EnvelopeSpec(kind="exponential", M=16.0),
                    EnvelopeSpec(kind="algebraic", M=16.0, r=3.0)):
            base = history_envelope(times, fields, self.grid, self.system, env)
            big = history_envelope(times, scale * fields, self.grid,
                                   self.system, env)
            np.testing.assert_allclose(big.eta_series,
                                       scale * base.eta_series, rtol=1e-10)

    @PROPERTY_SETTINGS
    @given(amplitude=st.floats(1e-6, 1.0, allow_nan=False),
           width=st.floats(1.0, 16.0, allow_nan=False),
           offset=st.floats(-3.0, 3.0, allow_nan=False))
    def test_drag_never_exceeds_exponential(self, amplitude, width, offset):
        # The drag weight only enlarges the denominator, so its supremum is
        # dominated by the pure-Gaussian one on the same history.
        hist = self._history(amplitude, width, offset)
        exp_v = history_envelope(*hist, self.grid, self.system,
                                 EnvelopeSpec(kind="exponential", M=16.0))
        drag_v = history_envelope(*hist, self.grid, self.system,
                                  EnvelopeSpec(kind="drag", M=16.0))
        assert np.all(drag_v.eta_series <=
                      exp_v.eta_series * (1.0 + 1e-9) + 1e-300)


class TestProperty3LinearMassConservation:
    @PROPERTY_SETTINGS
    @given(d1=st.floats(0.05, 4.0, allow_nan=False),
           d2=st.floats(0.05, 4.0, allow_nan=False),
           c2=st.floats(-5.0, 5.0, allow_nan=False),
           dt=st.floats(1e-3, 0.1, allow_nan=False),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_mass_invariant_per_step(self, d1, d2, c2, dt, seed):
        grid = Grid(half_width=20.0, n=64)
        system = SystemSpec(d1=d1, d2=d2, c1=0.0, c2=c2)
        rng = np.random.default_rng(seed)
        x = grid.points()
        u = rng.uniform(-1, 1) * np.exp(-x ** 2 / rng.uniform(1, 9))
        v = rng.uniform(-1, 1) * np.exp(-x ** 2 / rng.uniform(1, 9))
        ws = SpectralWorkspace(grid=grid, system=system, dt=dt)
        spectra = scipy.fft.rfft(np.stack((u, v)), axis=-1)
        before = (spectra[0][0].real, spectra[1][0].real)
        after_spectra = solver.step(ws, spectra)
        after = (after_spectra[0][0].real, after_spectra[1][0].real)
        scale = grid.dx
        assert abs(after[0] - before[0]) * scale <= 1e-12
        assert abs(after[1] - before[1]) * scale <= 1e-12


class TestProperty4GalileanConsistency:
    @PROPERTY_SETTINGS
    @given(boost=st.floats(-2.0, 2.0, allow_nan=False),
           coeff=st.floats(-1.0, 1.0, allow_nan=False),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_boosted_run_is_shifted_run(self, boost, coeff, seed):
        # Shifting both velocities by a common boost must shift the solution
        # by boost * t and change nothing else.
        grid = Grid(half_width=20.0, n=64)
        rng = np.random.default_rng(seed)
        x = grid.points()
        initial = np.stack((0.1 * rng.uniform(0.5, 1) * np.exp(-x ** 2 / 4),
                            0.1 * rng.uniform(0.5, 1) * np.exp(-x ** 2 / 4)))
        f1 = (PolyTerm(coeff, 1, 1, 0),) if coeff != 0.0 else ()
        dt, steps = 0.02, 10
        t_end = dt * steps

        def final_u(c1, c2):
            system = SystemSpec(d1=1.0, d2=1.0, c1=c1, c2=c2, f1=f1)
            ws = SpectralWorkspace(grid=grid, system=system, dt=dt)
            return record_run(ws, initial, t_end, sample_dt=t_end).fields[-1, 0]

        base = final_u(0.0, 1.0)
        boosted = final_u(boost, 1.0 + boost)
        k = 2 * math.pi * np.fft.rfftfreq(grid.n, d=grid.dx)
        shifted = np.fft.irfft(np.fft.rfft(base)
                               * np.exp(1j * k * boost * t_end), n=grid.n)
        assert np.max(np.abs(boosted - shifted)) <= 1e-6


class TestProperty5DealiasNullity:
    @PROPERTY_SETTINGS
    @given(term=_terms, seed=st.integers(0, 2 ** 31 - 1),
           flux=st.booleans())
    def test_masked_modes_stay_zero(self, term, seed, flux):
        grid = Grid(half_width=20.0, n=64)
        term = PolyTerm(term.coeff, term.alpha, term.beta, 1 if flux else 0)
        kwargs = {"g1" if flux else "f1": (term,)}
        system = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0, **kwargs)
        rng = np.random.default_rng(seed)
        x = grid.points()
        initial = 0.05 * rng.standard_normal((2, grid.n)) * np.exp(-x ** 2 / 9)
        ws = SpectralWorkspace(grid=grid, system=system, dt=0.01)
        seen = []
        run(ws, initial, t_end=0.05, sample_dt=ws.dt,
            on_sample=lambda t, spectra, fields: seen.append(spectra))
        u_hat, v_hat = seen[-1][0], seen[-1][1]
        assert np.max(np.abs(u_hat[~ws.dealias])) == 0.0
        assert np.max(np.abs(v_hat[~ws.dealias])) == 0.0


class TestProperty7FitExactness:
    @PROPERTY_SETTINGS
    @given(exponent=st.floats(-3.0, -0.1, allow_nan=False),
           prefactor=st.floats(1e-6, 1e3, allow_nan=False),
           t_max=st.floats(20.0, 500.0, allow_nan=False),
           samples=st.integers(10, 200))
    def test_power_law_recovered(self, exponent, prefactor, t_max, samples):
        t = np.linspace(1.0, t_max, samples)
        values = prefactor * (1.0 + t) ** exponent
        fit = fit_decay_exponent(t, values, t_min=1.0)
        assert fit.exponent == pytest.approx(exponent, abs=1e-10)
        assert fit.half_width <= 1e-8


# ---------------------------------------------------------------------------
# Criterion 8: splitting self-convergence
# ---------------------------------------------------------------------------

def test_criterion_8_self_convergence():
    scenario = get_scenario("toy")
    x = scenario.grid.points()
    from rda.core import evaluate_initial
    initial = np.stack((evaluate_initial(scenario.initial_u, x),
                        evaluate_initial(scenario.initial_v, x)))

    def final_u(dt):
        ws = SpectralWorkspace(grid=scenario.grid, system=scenario.system,
                               dt=dt)
        return record_run(ws, initial, t_end=1.0, sample_dt=1.0).fields[-1, 0]

    coarse, mid, fine = (final_u(dt) for dt in (4e-3, 2e-3, 1e-3))
    err_coarse = float(np.max(np.abs(coarse - mid)))
    err_fine = float(np.max(np.abs(mid - fine)))
    factor = err_coarse / err_fine
    assert factor >= 3.5, f"convergence factor {factor:.2f}"
