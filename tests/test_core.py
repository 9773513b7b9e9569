"""Domain types, validation, and the initial-data expression grammar."""

import math

import numpy as np
import pytest

from rda.core import (
    EnvelopeSpec,
    Grid,
    InitialData,
    PolyTerm,
    Scenario,
    SystemSpec,
    evaluate_initial,
    parse_expression,
    validate_scenario,
    validate_spec,
    wraparound_budget,
)


def make_scenario(**overrides):
    base = dict(
        name="test",
        system=SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0),
        grid=Grid(half_width=60.0, n=256),
        initial_u=InitialData(kind="gaussian", amplitude=1e-3),
        initial_v=InitialData(kind="zero"),
        t_end=1.0, dt=0.01, sample_dt=0.1,
    )
    base.update(overrides)
    return Scenario(**base)


class TestValidateSpec:
    def test_valid_system(self):
        spec = SystemSpec(d1=1.0, d2=0.5, c1=0.0, c2=3.0,
                          f1=(PolyTerm(1.0, 1, 1, 0),),
                          g2=(PolyTerm(-0.5, 2, 0, 1),))
        assert validate_spec(spec).valid

    def test_nonpositive_diffusion_rejected(self):
        assert not validate_spec(SystemSpec(d1=0.0, d2=1.0, c1=0, c2=1)).valid
        assert not validate_spec(SystemSpec(d1=1.0, d2=-1.0, c1=0, c2=1)).valid

    def test_linear_term_rejected(self):
        spec = SystemSpec(d1=1, d2=1, c1=0, c2=1, f1=(PolyTerm(1.0, 1, 0, 0),))
        report = validate_spec(spec)
        assert not report.valid
        assert any("alpha+beta >= 2" in v for v in report.violations)

    def test_flux_slot_requires_derivative_flag(self):
        spec = SystemSpec(d1=1, d2=1, c1=0, c2=1, g1=(PolyTerm(1.0, 2, 0, 0),))
        assert not validate_spec(spec).valid

    def test_reaction_slot_rejects_derivative_flag(self):
        spec = SystemSpec(d1=1, d2=1, c1=0, c2=1, f1=(PolyTerm(1.0, 2, 0, 1),))
        assert not validate_spec(spec).valid


class TestValidateScenario:
    def test_builtin_like_scenario(self):
        assert validate_scenario(make_scenario()).valid

    def test_grid_power_of_two(self):
        bad = make_scenario(grid=Grid(half_width=60.0, n=300))
        assert not validate_scenario(bad).valid

    def test_dt_ordering(self):
        bad = make_scenario(dt=2.0, t_end=1.0)
        assert not validate_scenario(bad).valid

    def test_t_end_not_whole_number_of_steps(self):
        # The stepper would silently stop at t = 0.9.
        report = validate_scenario(make_scenario(t_end=1.0, dt=0.3))
        assert "t_end = whole number of dt steps failed" in report.violations

    @pytest.mark.parametrize("sample_dt", [0.004, 0.015, float("nan")])
    def test_sample_dt_not_whole_multiple_of_dt(self, sample_dt):
        # sample_dt < dt would silently sample every step, 0.015 every
        # other step, and NaN passes the sample_dt > 0 check.
        report = validate_scenario(make_scenario(dt=0.01, sample_dt=sample_dt))
        assert "sample_dt = whole multiple of dt failed" in report.violations

    def test_envelope_m_floor(self):
        bad = make_scenario(envelope=EnvelopeSpec(kind="exponential", M=2.0))
        report = validate_scenario(bad)
        assert any("M >=" in v for v in report.violations)

    def test_drag_requires_distinct_velocities(self):
        env = EnvelopeSpec(kind="drag", M=16.0)
        equal = make_scenario(system=SystemSpec(d1=1.0, d2=1.0, c1=0.5, c2=0.5),
                              envelope=env)
        assert validate_scenario(equal).violations == (
            "drag envelope requires c1 != c2",)
        assert validate_scenario(make_scenario(envelope=env)).valid

    def test_algebraic_r_floor(self):
        bad = make_scenario(envelope=EnvelopeSpec(kind="algebraic", M=16.0, r=2.0))
        assert not validate_scenario(bad).valid

    def test_wraparound_warning(self):
        slow = make_scenario(
            system=SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=50.0),
            t_end=10.0,
            envelope=EnvelopeSpec(kind="exponential", M=16.0))
        report = validate_scenario(slow)
        assert report.valid
        assert any("wraparound" in w for w in report.warnings)

    def test_budget_monotone_in_time(self):
        grid = Grid(half_width=100.0, n=256)
        system = SystemSpec(d1=1, d2=1, c1=0, c2=2)
        assert wraparound_budget(grid, system, 10.0, 16.0) < \
            wraparound_budget(grid, system, 20.0, 16.0)

    def test_bad_custom_expression_reported(self):
        bad = make_scenario(
            initial_u=InitialData(kind="custom", expression="exp(x"))
        report = validate_scenario(bad)
        assert not report.valid

    @pytest.mark.parametrize("label,field", [("initial.u", "initial_u"),
                                             ("initial.v", "initial_v")])
    def test_nonfinite_initial_values_reported(self, label, field):
        # x = 0 is a grid point, so 1/x is infinite there.
        bad = make_scenario(**{field: InitialData(kind="custom", expression="1/x")})
        report = validate_scenario(bad)
        assert report.violations == (f"{label}: finite values on the grid failed",)

    def test_overflowing_initial_values_reported(self):
        bad = make_scenario(
            initial_u=InitialData(kind="custom", expression="exp(x^2)"))
        report = validate_scenario(bad)
        assert "initial.u: finite values on the grid failed" in report.violations


class TestExpressionGrammar:
    @pytest.mark.parametrize("expr,fn", [
        ("x", lambda x: x),
        ("2 + 3 * x", lambda x: 2 + 3 * x),
        ("(1 + x) ^ 2", lambda x: (1 + x) ** 2),
        ("exp(-x^2 / 4)", lambda x: np.exp(-x ** 2 / 4)),
        ("1 / (1 + abs(x)) ^ 3", lambda x: 1 / (1 + np.abs(x)) ** 3),
        ("-x + 2 ^ 2 ^ 2", lambda x: -x + 16.0),
        ("1.5e-3 * exp(-abs(x))", lambda x: 1.5e-3 * np.exp(-np.abs(x))),
    ])
    def test_evaluates(self, expr, fn):
        x = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(parse_expression(expr)(x), fn(x), rtol=1e-14)

    @pytest.mark.parametrize("expr", [
        "", "x +", "(x", "x)", "sin(x)", "x ** 2", "1 2", "exp x",
    ])
    def test_rejects(self, expr):
        with pytest.raises(ValueError):
            parse_expression(expr)


class TestInitialData:
    def test_gaussian(self):
        init = InitialData(kind="gaussian", amplitude=0.5, width=2.0, center=1.0)
        x = np.array([1.0, 3.0])
        expected = 0.5 * np.exp(-np.array([0.0, 4.0]) / 2.0)
        np.testing.assert_allclose(evaluate_initial(init, x), expected)

    def test_algebraic(self):
        init = InitialData(kind="algebraic", amplitude=2.0, power=3.0)
        x = np.array([0.0, 1.0])
        np.testing.assert_allclose(evaluate_initial(init, x), [2.0, 0.25])

    def test_remark51_is_unit_mass_gaussian(self):
        x = np.linspace(-40, 40, 4001)
        u = evaluate_initial(InitialData(kind="remark51"), x)
        assert np.trapezoid(u, x) == pytest.approx(1.0, abs=1e-12)
        assert np.max(u) == pytest.approx(1.0 / math.sqrt(4 * math.pi))

    def test_zero(self):
        x = np.linspace(-1, 1, 11)
        assert not evaluate_initial(InitialData(kind="zero"), x).any()


class TestPolyTerm:
    def test_degree_and_mix(self):
        term = PolyTerm(coeff=2.0, alpha=1, beta=2, gamma=1)
        assert term.p == 4
        assert term.is_mix
        assert not PolyTerm(1.0, 0, 2, 0).is_mix

    def test_grid_points(self):
        grid = Grid(half_width=10.0, n=8)
        x = grid.points()
        assert x[0] == -10.0
        assert len(x) == 8
        assert x[-1] == pytest.approx(10.0 - grid.dx)
