"""Classification, admissibility, envelopes, fits, and the growth bounds."""

import math

import numpy as np
import pytest

from rda.analysis import (
    AmplitudeLawVerdict,
    Cas2Params,
    Category,
    amplitude_law_check,
    cas2_lower_bounds,
    check_admissibility,
    classify_term,
    eta_algebraic,
    eta_drag,
    eta_exponential,
    fit_decay_exponent,
    l1_norm_series,
    sup_norm_series,
)
from rda.core import TRUST_LOG, EnvelopeSpec, Grid, PolyTerm, State, SystemSpec
from rda.kernels import drag_weight_profile
from rda.scenarios import get_scenario
from rda.solver import NormalFormState


class TestClassification:
    @pytest.mark.parametrize("alpha,beta,expected", [
        (2, 0, Category.RELEVANT),      # p = 2 < 3
        (1, 1, Category.RELEVANT),
        (3, 0, Category.MARGINAL),      # p = 3
        (2, 1, Category.MARGINAL),
        (4, 0, Category.IRRELEVANT),    # p = 4 > 3
        (2, 3, Category.IRRELEVANT),
    ])
    def test_one_dimension(self, alpha, beta, expected):
        tc = classify_term(PolyTerm(1.0, alpha, beta, 0))
        assert tc.category is expected
        assert tc.p == alpha + beta

    def test_threshold_moves_with_dimension(self):
        quad = PolyTerm(1.0, 2, 0, 0)
        assert classify_term(quad, dims=2).category is Category.MARGINAL
        assert classify_term(quad, dims=3).category is Category.IRRELEVANT

    def test_dims_must_be_positive(self):
        with pytest.raises(ValueError):
            classify_term(PolyTerm(1.0, 2, 0, 0), dims=0)


class TestAdmissibility:
    def test_mix_couplings_with_quartic_self_pass(self):
        report = check_admissibility(get_scenario("toy").system)
        assert report.thm1_admissible and report.thm2_admissible
        assert not report.thm4_shape
        assert report.reasons == ()

    def test_quadratic_cross_fails_everything(self):
        report = check_admissibility(get_scenario("cas2-distinct").system)
        assert not report.thm1_admissible
        assert not report.thm2_admissible
        assert any("cross" in r for r in report.reasons)

    def test_equal_velocities_fail(self):
        system = SystemSpec(d1=1, d2=1, c1=1.0, c2=1.0,
                            f1=(PolyTerm(1.0, 1, 1, 0),))
        report = check_admissibility(system)
        assert not report.thm1_admissible and not report.thm2_admissible

    def test_quartic_cross_is_second_result_only(self):
        system = get_scenario("thm2-irrelevant").system
        report = check_admissibility(system)
        assert not report.thm1_admissible
        assert report.thm2_admissible

    def test_normal_form_shape_and_sign(self):
        report = check_admissibility(get_scenario("cas3-stable").system)
        assert report.thm4_shape
        assert report.sign_value == pytest.approx(-0.5)
        assert report.sign_condition is True

    def test_sign_violated_variant(self):
        report = check_admissibility(get_scenario("cas3-sign-violated").system)
        assert report.thm4_shape
        assert report.sign_value == pytest.approx(0.5)
        assert report.sign_condition is False


def _history_exponential(grid, system, M, delta, times):
    """Fields that saturate the Gaussian weight exactly: eta should be delta."""
    x = grid.points()
    hist = []
    for s in times:
        u = delta * np.exp(-(x + system.c1 * s) ** 2 / (M * (1 + s))) \
            / math.sqrt(1 + s)
        hist.append(State(t=s, u=u, v=np.zeros_like(x)))
    return hist


class TestEnvelopes:
    grid = Grid(half_width=100.0, n=1024)
    system = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0)

    def test_exponential_weight_saturating_field(self):
        times = np.linspace(0.0, 10.0, 21)
        hist = _history_exponential(self.grid, self.system, 16.0, 0.01, times)
        verdict = eta_exponential(hist, self.grid, self.system,
                                  EnvelopeSpec(kind="exponential", M=16.0))
        np.testing.assert_allclose(verdict.eta_series, 0.01, rtol=1e-12)
        assert verdict.bounded
        assert verdict.max_eta == pytest.approx(0.01, rel=1e-12)

    def test_exponential_eta_scales_linearly_in_amplitude(self):
        times = np.linspace(0.0, 5.0, 11)
        small = _history_exponential(self.grid, self.system, 16.0, 1e-3, times)
        large = _history_exponential(self.grid, self.system, 16.0, 5e-3, times)
        env = EnvelopeSpec(kind="exponential", M=16.0)
        eta_small = eta_exponential(small, self.grid, self.system, env)
        eta_large = eta_exponential(large, self.grid, self.system, env)
        np.testing.assert_allclose(eta_large.eta_series,
                                   5.0 * eta_small.eta_series, rtol=1e-12)

    def test_algebraic_weight_saturating_field(self):
        # u equal to the composite weight denominator makes the weighted
        # field identically one.
        x = self.grid.points()
        M, r = 16.0, 3.0
        hist = []
        for s in np.linspace(0.0, 10.0, 21):
            shifted = x + self.system.c1 * s
            u = (1 + np.abs(shifted) + math.sqrt(s)) ** (-r) \
                + np.exp(-shifted ** 2 / (M * (1 + s))) / math.sqrt(1 + s)
            hist.append(State(t=s, u=u, v=np.zeros_like(x)))
        verdict = eta_algebraic(hist, self.grid, self.system,
                                EnvelopeSpec(kind="algebraic", M=M, r=r))
        np.testing.assert_allclose(verdict.eta_series, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("component", ["u", "v"])
    def test_drag_weight_saturating_field(self, component):
        # A field equal to its own composite denominator (the Gaussian plus
        # the drag weight, both in its own comoving frame) weighs one.
        x = self.grid.points()
        M = 16.0
        c1, c2 = self.system.c1, self.system.c2
        c_self, c_other = (c1, c2) if component == "u" else (c2, c1)
        hist = []
        for s in np.linspace(0.0, 6.0, 7):
            margin = math.sqrt(M * (1.0 + s) * TRUST_LOG)
            mask = (x >= min(-c_self * s, -c_other * s) - margin) \
                & (x <= max(-c_self * s, -c_other * s) + margin)
            xm = x[mask]
            field = np.zeros_like(x)
            field[mask] = np.exp(-(xm + c_self * s) ** 2 / (M * (1.0 + s))) / math.sqrt(1.0 + s) \
                + drag_weight_profile(xm, s, c_self, c_other, M)[0]
            zero = np.zeros_like(x)
            hist.append(State(t=s, u=field, v=zero) if component == "u"
                        else State(t=s, u=zero, v=field))
        verdict = eta_drag(hist, self.grid, self.system, EnvelopeSpec(kind="drag", M=M))
        np.testing.assert_allclose(verdict.eta_series, 1.0, rtol=1e-12)

    def test_drag_weight_dominates_exponential(self):
        # The drag term only enlarges the denominator, so for the same
        # history the drag eta can never exceed the exponential eta.
        times = np.linspace(0.5, 8.0, 16)
        hist = _history_exponential(self.grid, self.system, 16.0, 0.01, times)
        exp_v = eta_exponential(hist, self.grid, self.system,
                                EnvelopeSpec(kind="exponential", M=16.0))
        drag_v = eta_drag(hist, self.grid, self.system,
                          EnvelopeSpec(kind="drag", M=16.0))
        assert np.all(drag_v.eta_series <= exp_v.eta_series + 1e-12)

    def test_drag_requires_distinct_velocities(self):
        hist = _history_exponential(self.grid, self.system, 16.0, 0.01,
                                    np.array([0.0, 1.0]))
        equal = SystemSpec(d1=1, d2=1, c1=1.0, c2=1.0)
        with pytest.raises(ValueError):
            eta_drag(hist, self.grid, equal, EnvelopeSpec(kind="drag", M=16.0))

    def test_kind_mismatch_rejected(self):
        hist = _history_exponential(self.grid, self.system, 16.0, 0.01,
                                    np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            eta_exponential(hist, self.grid, self.system,
                            EnvelopeSpec(kind="drag", M=16.0))

    def test_norm_series(self):
        x = self.grid.points()
        u = np.exp(-np.abs(x))
        hist = [State(t=0.0, u=u, v=2 * u)]
        assert sup_norm_series(hist)[0] == pytest.approx(2.0)
        # integral of 3 e^{-|x|} over the line is 6
        assert l1_norm_series(hist, self.grid)[0] == pytest.approx(6.0, rel=1e-2)


class TestDecayFit:
    def test_pure_power_law_recovered_exactly(self):
        t = np.linspace(1.0, 100.0, 50)
        exponent, half_width = fit_decay_exponent(t, (1 + t) ** -0.5, t_min=1.0)
        assert exponent == pytest.approx(-0.5, abs=1e-13)
        assert half_width < 1e-12

    def test_amplitude_prefactor_does_not_bias_slope(self):
        t = np.linspace(1.0, 100.0, 80)
        exponent, _ = fit_decay_exponent(t, 7.3 * (1 + t) ** -1.25, t_min=5.0)
        assert exponent == pytest.approx(-1.25, abs=1e-12)

    def test_too_few_samples(self):
        t = np.linspace(1.0, 2.0, 5)
        with pytest.raises(ValueError):
            fit_decay_exponent(t, np.ones_like(t), t_min=1.0)

    def test_nonpositive_values(self):
        t = np.linspace(1.0, 10.0, 20)
        v = np.ones_like(t)
        v[3] = 0.0
        with pytest.raises(ValueError):
            fit_decay_exponent(t, v, t_min=1.0)


class TestLowerBounds:
    def test_equal_velocity_closed_form_value(self):
        lb = cas2_lower_bounds(Cas2Params(1, 1, 0, 0, 1, 1), np.array([4.0]))
        assert lb.regime == "equal_velocities"
        assert lb.l1_bound[0] == pytest.approx(math.sqrt(math.pi) / 17 ** 1.5,
                                               rel=1e-14)

    def test_zero_initial_mass_gives_zero_bounds(self):
        t = np.linspace(0.0, 30.0, 61)
        for c2 in (0.0, 2.0):
            lb = cas2_lower_bounds(Cas2Params(1, 1, 0, c2, 0.0, 1), t)
            assert not lb.l1_bound.any() and not lb.linf_bound.any()

    def test_bounds_are_nonnegative(self):
        t = np.linspace(0.0, 50.0, 201)
        for c2 in (0.0, 2.0):
            lb = cas2_lower_bounds(Cas2Params(1.0, 0.5, 0.0, c2, 0.8, 1.0), t)
            assert np.all(lb.l1_bound >= 0.0)
            assert np.all(lb.linf_bound >= 0.0)

    def test_equal_velocity_large_time_growth(self):
        # l1 ~ t^{3/2} and linf ~ t for large t in the equal-velocity regime.
        t = np.array([1e4, 4e4])
        lb = cas2_lower_bounds(Cas2Params(1, 1, 0, 0, 1, 1), t)
        assert lb.l1_bound[1] / lb.l1_bound[0] == pytest.approx(8.0, rel=0.01)
        assert lb.linf_bound[1] / lb.linf_bound[0] == pytest.approx(4.0, rel=0.01)

    def test_distinct_velocity_linf_increases_after_two(self):
        t = np.linspace(2.0, 100.0, 500)
        lb = cas2_lower_bounds(Cas2Params(1, 1, 0, 2, 0.5, 1), t)
        assert lb.regime == "distinct_velocities"
        assert np.all(np.diff(lb.linf_bound) > 0.0)

    def test_distinct_velocity_l1_eventually_increases(self):
        t = np.linspace(0.0, 100.0, 500)
        lb = cas2_lower_bounds(Cas2Params(1, 1, 0, 2, 0.5, 1), t)
        tail = lb.l1_bound[t >= 20.0]
        assert np.all(np.diff(tail) > 0.0)


def _nf(t, A, mu, nu):
    z = np.zeros(4)
    return NormalFormState(t=t, zeta=z, w=z, v_tilde=z, A=A, sigma=z, R=z,
                           mu=mu, nu=nu)


class TestAmplitudeLaw:
    def test_slow_log_decay_passes(self):
        nu = 0.04
        times = np.linspace(0.0, 200.0, 401)
        series = [_nf(t, 1.0 / math.sqrt(max(1e-9, 2 * nu * math.log1p(t))) * 0.9
                      if t > 0 else 1.0, mu=0.5, nu=nu) for t in times]
        verdict = amplitude_law_check(series, delta=1e-2)
        assert verdict.passed
        assert verdict.in_window
        assert verdict.nu == pytest.approx(nu)

    def test_constant_amplitude_fails(self):
        times = np.linspace(0.0, 200.0, 401)
        series = [_nf(t, 5.0, mu=0.5, nu=0.04) for t in times]
        verdict = amplitude_law_check(series, delta=1e-2)
        assert not verdict.passed

    def test_fast_decay_passes_but_not_in_window(self):
        times = np.linspace(0.0, 200.0, 401)
        series = [_nf(t, 1e-4 * (1 + t) ** -0.5, mu=0.5, nu=0.04)
                  for t in times]
        verdict = amplitude_law_check(series, delta=1e-2)
        assert verdict.passed
        assert not verdict.in_window

    def test_wrong_sign_rejected(self):
        series = [_nf(t, 1.0, mu=-0.5, nu=-0.02) for t in (0.0, 1.0)]
        with pytest.raises(ValueError):
            amplitude_law_check(series, delta=1e-2)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            amplitude_law_check([], delta=1e-2)
