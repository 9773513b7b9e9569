"""Classification, admissibility, envelopes, fits, and the growth bounds."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from conftest import history_envelope, history_norms, record_scenario
from rda import analysis
from rda.analysis import (
    T_BURN,
    Category,
    amplitude_law_check,
    cas2_lower_bounds,
    check_admissibility,
    classify_term,
    diagnose,
    fit_decay_exponent,
)
from rda.core import (EnvelopeSpec, Grid, PolyTerm, SystemSpec, trust_radius,
                      validate_scenario)
from rda.kernels import drag_weight_profile
from rda.scenarios import get_scenario


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
        term = PolyTerm(1.0, alpha, beta, 0)
        assert classify_term(term) is expected
        assert term.p == alpha + beta


class TestAdmissibility:
    def test_mix_couplings_with_quartic_self_pass(self):
        report = check_admissibility(get_scenario("toy").system)
        assert report.thm1_admissible and report.thm2_admissible
        assert report.sign_value is None
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
        assert report.sign_value is not None
        assert report.sign_value == pytest.approx(-0.5)
        assert report.sign_value < 0.0

    def test_sign_violated_variant(self):
        report = check_admissibility(get_scenario("cas3-sign-violated").system)
        assert report.sign_value is not None
        assert report.sign_value == pytest.approx(0.5)
        assert not report.sign_value < 0.0

    @pytest.mark.parametrize("name,thm1,thm2,sign_value,reasons", [
        ("toy", True, True, None, ()),
        ("thm1-exp", True, True, None, ()),
        ("thm1-alg", True, True, None, ()),
        ("thm2-irrelevant", False, True, None,
         ("f2: non-mix cross coupling of degree 4",)),
        ("remark51-exact", False, True, None,
         ("f2: non-mix cross coupling of degree 4",)),
        ("cas2-equal", False, False, None,
         ("velocities are equal: no velocity separation to exploit",
          "f1: non-mix cross coupling of degree 2",
          "f1: cross coupling degree 2 below the required 4, not irrelevant",
          "f2: non-mix cross coupling of degree 2",
          "f2: cross coupling degree 2 below the required 4, not irrelevant")),
        ("cas2-distinct", False, False, None,
         ("f1: non-mix cross coupling of degree 2",
          "f1: cross coupling degree 2 below the required 4, not irrelevant",
          "f2: non-mix cross coupling of degree 2",
          "f2: cross coupling degree 2 below the required 4, not irrelevant")),
        ("cas3-stable", False, False, -0.5,
         ("f1: self term of degree 3 below the required 4",
          "g2: non-mix cross coupling of degree 2",
          "g2: cross coupling degree 2 below the required 3, not irrelevant")),
        ("cas3-sign-violated", False, False, 0.5,
         ("f1: self term of degree 3 below the required 4",
          "g2: non-mix cross coupling of degree 2",
          "g2: cross coupling degree 2 below the required 3, not irrelevant")),
    ])
    def test_report_of_every_builtin(self, name, thm1, thm2, sign_value, reasons):
        report = check_admissibility(get_scenario(name).system)
        assert (report.thm1_admissible, report.thm2_admissible, report.sign_value,
                report.reasons) == (thm1, thm2, sign_value, reasons)

    def test_each_slot_reads_its_own_component_and_order(self):
        # f1 and g1 enter u's equation, f2 and g2 v's; g1 and g2 are fluxes.
        system = SystemSpec(d1=1, d2=1, c1=0.0, c2=1.0,
                            f1=(PolyTerm(1.0, 3, 0, 0),), f2=(PolyTerm(1.0, 0, 3, 0),),
                            g1=(PolyTerm(1.0, 0, 2, 1),), g2=(PolyTerm(1.0, 3, 0, 1),))
        report = check_admissibility(system)
        assert not report.thm1_admissible and not report.thm2_admissible
        assert report.reasons == (
            "f1: self term of degree 3 below the required 4",
            "f2: self term of degree 3 below the required 4",
            "g1: non-mix cross coupling of degree 2",
            "g1: cross coupling degree 2 below the required 3, not irrelevant",
            "g2: non-mix cross coupling of degree 3")


def _history_exponential(grid, system, M, delta, times):
    """(times, fields) that saturate the Gaussian weight exactly: eta
    should be delta."""
    x = grid.points()
    fields = np.zeros((len(times), 2, grid.n))
    for j, s in enumerate(times):
        fields[j, 0] = delta * np.exp(-(x + system.c1 * s) ** 2 / (M * (1 + s))) \
            / math.sqrt(1 + s)
    return np.asarray(times, dtype=float), fields


def _spiked(history, grid, at, height):
    """The history with u raised by height at the grid point nearest at."""
    times, fields = history
    i = int(np.argmin(np.abs(grid.points() - at)))
    spiked = fields.copy()
    spiked[:, 0, i] += height
    return times, spiked


class TestEnvelopes:
    grid = Grid(half_width=100.0, n=1024)
    system = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0)

    def test_exponential_weight_saturating_field(self):
        times = np.linspace(0.0, 10.0, 21)
        hist = _history_exponential(self.grid, self.system, 16.0, 0.01, times)
        verdict = history_envelope(*hist, self.grid, self.system,
                                   EnvelopeSpec(kind="exponential", M=16.0))
        np.testing.assert_allclose(verdict.eta_series, 0.01, rtol=1e-12)
        assert verdict.bounded
        assert verdict.max_eta == pytest.approx(0.01, rel=1e-12)

    def test_growing_field_flags_samples_past_three_anchors(self):
        # eta = 0.01 (1+t)^2; the anchor at t = 1 is 0.04, so samples with
        # (1+t)^2 > 12 exceed three anchors.
        times = np.linspace(0.0, 10.0, 21)
        _, fields = _history_exponential(self.grid, self.system, 16.0, 0.01,
                                         times)
        fields[:, 0] *= ((1 + times) ** 2)[:, None]
        verdict = history_envelope(times, fields, self.grid, self.system,
                                   EnvelopeSpec(kind="exponential", M=16.0))
        np.testing.assert_array_equal(verdict.bounded_flags, times <= 2.0)
        assert not verdict.bounded

    def test_exponential_eta_scales_linearly_in_amplitude(self):
        times = np.linspace(0.0, 5.0, 11)
        small = _history_exponential(self.grid, self.system, 16.0, 1e-3, times)
        large = _history_exponential(self.grid, self.system, 16.0, 5e-3, times)
        env = EnvelopeSpec(kind="exponential", M=16.0)
        eta_small = history_envelope(*small, self.grid, self.system, env)
        eta_large = history_envelope(*large, self.grid, self.system, env)
        np.testing.assert_allclose(eta_large.eta_series,
                                   5.0 * eta_small.eta_series, rtol=1e-12)

    def test_algebraic_weight_saturating_field(self):
        # u equal to the composite weight denominator makes the weighted
        # field identically one.
        x = self.grid.points()
        M, r = 16.0, 3.0
        times = np.linspace(0.0, 10.0, 21)
        fields = np.zeros((len(times), 2, self.grid.n))
        for j, s in enumerate(times):
            shifted = x + self.system.c1 * s
            fields[j, 0] = (1 + np.abs(shifted) + math.sqrt(s)) ** (-r) \
                + np.exp(-shifted ** 2 / (M * (1 + s))) / math.sqrt(1 + s)
        verdict = history_envelope(times, fields, self.grid, self.system,
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
        row = 0 if component == "u" else 1
        times = np.linspace(0.0, 6.0, 7)
        fields = np.zeros((len(times), 2, self.grid.n))
        for j, s in enumerate(times):
            margin = trust_radius(M, s)
            mask = (x >= min(-c_self * s, -c_other * s) - margin) \
                & (x <= max(-c_self * s, -c_other * s) + margin)
            xm = x[mask]
            fields[j, row, mask] = np.exp(-(xm + c_self * s) ** 2 / (M * (1.0 + s))) / math.sqrt(1.0 + s) \
                + drag_weight_profile(xm, s, c_self, c_other, M)[0]
        verdict = history_envelope(times, fields, self.grid, self.system,
                                   EnvelopeSpec(kind="drag", M=M))
        np.testing.assert_allclose(verdict.eta_series, 1.0, rtol=1e-12)

    def test_drag_weight_dominates_exponential(self):
        # The drag term only enlarges the denominator, so for the same
        # history the drag eta can never exceed the exponential eta.
        times = np.linspace(0.5, 8.0, 16)
        hist = _history_exponential(self.grid, self.system, 16.0, 0.01, times)
        exp_v = history_envelope(*hist, self.grid, self.system,
                                 EnvelopeSpec(kind="exponential", M=16.0))
        drag_v = history_envelope(*hist, self.grid, self.system,
                                  EnvelopeSpec(kind="drag", M=16.0))
        assert np.all(drag_v.eta_series <= exp_v.eta_series + 1e-12)

    def test_drag_requires_distinct_velocities(self):
        hist = _history_exponential(self.grid, self.system, 16.0, 0.01,
                                    np.array([0.0, 1.0]))
        equal = SystemSpec(d1=1, d2=1, c1=1.0, c2=1.0)
        with pytest.raises(ValueError):
            history_envelope(*hist, self.grid, equal,
                             EnvelopeSpec(kind="drag", M=16.0))

    def test_normal_form_kind_rejected(self):
        # normal-form is not an envelope kind: validation reports it as
        # unknown, and the evaluator has no rule for it.
        env = EnvelopeSpec(kind="normal-form", M=16.0)
        scenario = get_scenario("toy")
        report = validate_scenario(dataclasses.replace(scenario, envelope=env))
        assert report.violations == (
            "envelope kind 'normal-form' in ('exponential', 'algebraic', 'drag') failed",)
        hist = _history_exponential(self.grid, self.system, 16.0, 0.01,
                                    np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="has no evaluator"):
            history_envelope(*hist, self.grid, self.system, env)

    # Trust regions. At s <= 4 with M = 16 the trust radius is at most 47,
    # so x = 60 lies outside u's region (centred at 0) for every kind and
    # outside the drag rule's swept segment [-4 - 47, 47].

    @pytest.mark.parametrize("kind", ["exponential", "drag"])
    def test_spike_outside_trust_region_ignored(self, kind):
        env = EnvelopeSpec(kind=kind, M=16.0)
        hist = _history_exponential(self.grid, self.system, 16.0, 0.01,
                                    np.array([0.0, 1.0, 2.0, 4.0]))
        base = history_envelope(*hist, self.grid, self.system, env)
        outside = history_envelope(*_spiked(hist, self.grid, 60.0, 1e-6),
                                   self.grid, self.system, env)
        inside = history_envelope(*_spiked(hist, self.grid, -20.0, 1e-6),
                                  self.grid, self.system, env)
        np.testing.assert_array_equal(outside.eta_series, base.eta_series)
        assert inside.max_eta > 10.0 * base.max_eta

    def test_algebraic_keeps_whole_domain(self):
        env = EnvelopeSpec(kind="algebraic", M=16.0, r=3.0)
        hist = _history_exponential(self.grid, self.system, 16.0, 0.01,
                                    np.array([0.0, 1.0, 2.0, 4.0]))
        base = history_envelope(*hist, self.grid, self.system, env)
        far = history_envelope(*_spiked(hist, self.grid, 99.0, 1.0),
                               self.grid, self.system, env)
        assert far.max_eta > 10.0 * base.max_eta

    def test_drag_drops_denominators_below_trust_floor(self):
        # At s = 4, x = -50 is inside the swept segment [-51, 47], but u's
        # composite denominator there is below 1e-12 of its peak.
        env = EnvelopeSpec(kind="drag", M=16.0)
        hist = _history_exponential(self.grid, self.system, 16.0, 0.01,
                                    np.array([4.0]))
        base = history_envelope(*hist, self.grid, self.system, env)
        edge = history_envelope(*_spiked(hist, self.grid, -50.0, 1e-6),
                                self.grid, self.system, env)
        np.testing.assert_array_equal(edge.eta_series, base.eta_series)

    @pytest.mark.parametrize("kind", ["exponential", "algebraic"])
    def test_distance_is_periodic(self, kind):
        # v drifts with c2 = 1: at s = 150 its centre -150 has wrapped round
        # the torus [-100, 100) to 50. A v equal to its own denominator at
        # the periodic distance from 50 weighs exactly delta.
        env = EnvelopeSpec(kind=kind, M=16.0, r=3.0)
        s, delta, L = 150.0, 0.01, self.grid.half_width
        x = self.grid.points()
        d = np.mod(x - 50.0 + L, 2.0 * L) - L
        v = np.exp(-d ** 2 / (env.M * (1.0 + s))) / math.sqrt(1.0 + s)
        if kind == "algebraic":
            v += (1.0 + np.abs(d) + math.sqrt(s)) ** (-env.r)
        fields = np.stack((np.zeros_like(x), delta * v))[None]
        verdict = history_envelope(np.array([s]), fields, self.grid,
                                   self.system, env)
        np.testing.assert_allclose(verdict.eta_series, delta, rtol=1e-12)

    def test_norm_series(self):
        x = self.grid.points()
        u = np.exp(-np.abs(x))
        fields = np.array([[u, 2 * u], [0.5 * u, 0 * u]])
        times, linf_u, linf_v, l1_u, l1_v = history_norms(
            np.array([0.0, 0.5]), fields, self.grid.dx)
        np.testing.assert_array_equal(times, [0.0, 0.5])
        assert linf_u[0] == pytest.approx(1.0) and linf_v[0] == pytest.approx(2.0)
        assert linf_u[1] == pytest.approx(0.5) and linf_v[1] == 0.0
        # integral of e^{-|x|} over the line is 2
        assert l1_u[0] == pytest.approx(2.0, rel=1e-2)
        assert l1_v[0] == pytest.approx(4.0, rel=1e-2)
        assert l1_u[1] == pytest.approx(1.0, rel=1e-2) and l1_v[1] == 0.0

    def test_norm_series_matches_per_row_numpy_exactly(self):
        # Signed rough rows, one of them all zero: each norm must equal the
        # per-row NumPy reduction bit for bit.
        rng = np.random.default_rng(3)
        fields = rng.standard_normal((5, 2, self.grid.n)) \
            * rng.uniform(1e-6, 1e3, size=(5, 2, 1))
        fields[2, 1] = 0.0
        times = np.linspace(0.0, 2.0, 5)
        dx = self.grid.dx
        got_times, linf_u, linf_v, l1_u, l1_v = history_norms(times, fields, dx)
        np.testing.assert_array_equal(got_times, times)
        for j, (u, v) in enumerate(fields):
            assert linf_u[j] == np.max(np.abs(u))
            assert linf_v[j] == np.max(np.abs(v))
            assert l1_u[j] == np.sum(np.abs(u)) * dx
            assert l1_v[j] == np.sum(np.abs(v)) * dx


class TestDecayFit:
    def test_pure_power_law_recovered_exactly(self):
        # An exact power law leaves no residual: n samples, n - 2 degrees
        # of freedom, and no scatter.
        t = np.linspace(1.0, 100.0, 50)
        fit = fit_decay_exponent(t, (1 + t) ** -0.5, t_min=1.0)
        assert fit.exponent == pytest.approx(-0.5, abs=1e-13)
        assert fit.dof == len(t) - 2
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)
        assert fit.half_width < 1e-12

    def test_amplitude_prefactor_does_not_bias_slope(self):
        t = np.linspace(1.0, 100.0, 80)
        fit = fit_decay_exponent(t, 7.3 * (1 + t) ** -1.25, t_min=5.0)
        assert fit.exponent == pytest.approx(-1.25, abs=1e-12)

    def test_half_width_is_the_student_t_interval(self):
        # 95% half-width of the slope: linregress's standard error times the
        # two-sided Student-t quantile with n - 2 degrees of freedom.
        rng = np.random.default_rng(3)
        t = np.linspace(5.0, 200.0, 40)
        y = 2.0 * (1 + t) ** -0.6 * np.exp(0.05 * rng.standard_normal(len(t)))
        fit = fit_decay_exponent(t, y, t_min=5.0)
        reference = stats.linregress(np.log1p(t), np.log(y))
        assert fit.exponent == pytest.approx(reference.slope, rel=1e-12)
        assert fit.stderr == pytest.approx(reference.stderr, rel=1e-12)
        assert fit.dof == len(t) - 2
        assert fit.half_width == pytest.approx(
            reference.stderr * stats.t.ppf(0.975, len(t) - 2), rel=1e-12)
        assert fit.half_width > 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_closed_form_matches_lstsq(self, seed):
        # The oracle: the two-column least-squares solve the closed form
        # replaced, on scattered power laws at uneven times.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 400))
        t = np.sort(rng.uniform(0.0, 10.0 ** rng.uniform(1.0, 4.0), n))
        y = (rng.uniform(1e-6, 1e3) * (1 + t) ** rng.uniform(-3.0, -0.1)
             * np.exp(rng.uniform(0.0, 0.5) * rng.standard_normal(n)))
        fit = fit_decay_exponent(t, y, t_min=0.0)
        X, Y = np.log1p(t), np.log(y)
        A = np.column_stack([X, np.ones_like(X)])
        coef = np.linalg.lstsq(A, Y, rcond=None)[0]
        resid = Y - A @ coef
        stderr = math.sqrt(float(resid @ resid) / (n - 2)
                           / float(np.sum((X - X.mean()) ** 2)))
        assert fit.exponent == pytest.approx(coef[0], rel=1e-13)
        assert fit.stderr == pytest.approx(stderr, rel=1e-13)
        assert fit.dof == n - 2

    def test_constant_log_time_has_no_slope(self):
        # Every sample at one time: no slope, and no ZeroDivisionError.
        t = np.full(10, 3.0)
        fit = fit_decay_exponent(t, np.linspace(1.0, 2.0, 10), t_min=1.0)
        assert math.isnan(fit.exponent)
        assert fit.stderr == math.inf
        assert fit.dof == 8

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


def _system(d1, d2, c1, c2):
    return SystemSpec(d1=d1, d2=d2, c1=c1, c2=c2)


class TestLowerBounds:
    def test_equal_velocity_closed_form_value(self):
        lb = cas2_lower_bounds(_system(1, 1, 0, 0), 1, 1, np.array([4.0]))
        assert lb.l1_bound[0] == pytest.approx(math.sqrt(math.pi) / 17 ** 1.5,
                                               rel=1e-14)

    def test_zero_initial_mass_gives_zero_bounds(self):
        t = np.linspace(0.0, 30.0, 61)
        for c2 in (0.0, 2.0):
            lb = cas2_lower_bounds(_system(1, 1, 0, c2), 0.0, 1, t)
            assert not lb.l1_bound.any() and not lb.linf_bound.any()

    def test_bounds_are_nonnegative(self):
        t = np.linspace(0.0, 50.0, 201)
        for c2 in (0.0, 2.0):
            lb = cas2_lower_bounds(_system(1.0, 0.5, 0.0, c2), 0.8, 1.0, t)
            assert np.all(lb.l1_bound >= 0.0)
            assert np.all(lb.linf_bound >= 0.0)

    def test_equal_velocity_large_time_growth(self):
        # l1 ~ t^{3/2} and linf ~ t for large t in the equal-velocity regime.
        t = np.array([1e4, 4e4])
        lb = cas2_lower_bounds(_system(1, 1, 0, 0), 1, 1, t)
        assert lb.l1_bound[1] / lb.l1_bound[0] == pytest.approx(8.0, rel=0.01)
        assert lb.linf_bound[1] / lb.linf_bound[0] == pytest.approx(4.0, rel=0.01)

    def test_distinct_velocity_linf_increases_after_two(self):
        t = np.linspace(2.0, 100.0, 500)
        lb = cas2_lower_bounds(_system(1, 1, 0, 2), 0.5, 1, t)
        assert np.all(np.diff(lb.linf_bound) > 0.0)

    def test_distinct_velocity_l1_eventually_increases(self):
        t = np.linspace(0.0, 100.0, 500)
        lb = cas2_lower_bounds(_system(1, 1, 0, 2), 0.5, 1, t)
        tail = lb.l1_bound[t >= 20.0]
        assert np.all(np.diff(tail) > 0.0)


class TestAmplitudeLaw:
    def test_slow_log_decay_passes(self):
        nu = 0.04
        times = np.linspace(0.0, 200.0, 401)
        amps = [1.0 / math.sqrt(max(1e-9, 2 * nu * math.log1p(t))) * 0.9
                if t > 0 else 1.0 for t in times]
        verdict = amplitude_law_check(times, np.array(amps), mu=0.5, nu=nu)
        assert verdict.passed
        assert verdict.in_window

    def test_constant_amplitude_fails(self):
        times = np.linspace(0.0, 200.0, 401)
        verdict = amplitude_law_check(times, np.full(len(times), 5.0),
                                      mu=0.5, nu=0.04)
        assert not verdict.passed

    def test_fast_decay_passes_but_not_in_window(self):
        times = np.linspace(0.0, 200.0, 401)
        verdict = amplitude_law_check(times, 1e-4 * (1 + times) ** -0.5,
                                      mu=0.5, nu=0.04)
        assert verdict.passed
        assert not verdict.in_window

    def test_statistic_is_max_past_burn_in(self):
        times = np.linspace(0.0, 200.0, 401)
        amps = np.where(times < T_BURN, 50.0, 1.0)
        verdict = amplitude_law_check(times, amps, mu=0.5, nu=0.04)
        law = np.abs(amps) * np.sqrt(2.0 * 0.04 * np.log1p(times))
        after = times >= T_BURN
        assert verdict.statistic == np.max(law[after])
        assert verdict.statistic < np.max(law)

    def test_no_sample_past_burn_in_rejected(self):
        # A series too short to judge is refused, not failed: validation
        # requires a sample at t >= T_BURN of the amplitude_law output.
        times = np.linspace(0.0, 0.9 * T_BURN, 10)
        with pytest.raises(ValueError, match="t >= 10"):
            amplitude_law_check(times, np.ones(len(times)), mu=0.5, nu=0.04)

    def test_wrong_sign_rejected(self):
        with pytest.raises(ValueError):
            amplitude_law_check(np.array([0.0, 1.0]), np.ones(2),
                                mu=-0.5, nu=-0.02)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            amplitude_law_check(np.array([]), np.array([]), mu=0.5, nu=0.04)

    # A system without the normal-form shape is refused by validation
    # (tests/test_core.py); one with the shape and the wrong sign runs.
    @pytest.mark.parametrize("name,statistic", [
        ("cas3-sign-violated", 0.5),        # the sign value -mu = 0.5
    ])
    def test_unjudged_law_fails_with_the_sign_value(self, name, statistic):
        # Without the stabilizing sign the law is not judged: its row
        # fails with the sign value, a scientific result.
        # The run must reach T_BURN; at t_end = T_BURN its last t, summed
        # as t += 0.02, is 9.99999999999983.
        scenario = dataclasses.replace(
            get_scenario(name), grid=Grid(half_width=60.0, n=256),
            t_end=T_BURN + 1.0, sample_dt=0.5,
            outputs=("trajectory", "amplitude_law"))
        (row,) = diagnose(scenario, record_scenario(scenario).samples).verdicts
        assert row[:2] == ("amplitude_law", False)
        np.testing.assert_equal(row[2], statistic)


class TestExactError:
    @pytest.mark.parametrize("component", [0, 1])
    def test_nan_error_fails_with_nan(self, remark51_run, monkeypatch, component):
        # max(err_u, nan) is err_u, so a nan v error once read as u's tiny
        # finite error in a failed row.
        scenario, result = remark51_run
        exact = analysis._exact_remark51

        def nan_exact(scenario, t):
            fields = list(exact(scenario, t))
            fields[component] = np.full_like(fields[component], np.nan)
            return tuple(fields)

        monkeypatch.setattr(analysis, "_exact_remark51", nan_exact)
        rows = {name: (passed, statistic) for name, passed, statistic
                in diagnose(scenario, result.samples).verdicts}
        passed, statistic = rows["exact_error"]
        assert passed is False
        assert math.isnan(statistic)

    def test_error_reads_the_same_at_a_scaled_amplitude(self):
        # u is linear and v is driven by u^4, so the closed form scales by
        # the mass of u0: u by m and v by m^4. A cut run at 1.05 times the
        # amplitude, which unscaled would read a v error near 0.22, reads
        # the error of the unit-mass run.
        exact = dataclasses.replace(get_scenario("remark51-exact"), t_end=1.0,
                                    outputs=("trajectory", "exact_error"))
        errors = []
        for factor in (1.0, 1.05):
            u0 = exact.initial_u
            scenario = dataclasses.replace(exact, initial_u=dataclasses.replace(
                u0, amplitude=factor * u0.amplitude))
            (row,) = diagnose(scenario, record_scenario(scenario).samples).verdicts
            assert row[:2] == ("exact_error", True)
            errors.append(row[2])
        assert errors[1] == pytest.approx(errors[0], rel=1e-6)
