"""Domain types, validation, and the initial data."""

import dataclasses
import math

import numpy as np
import pytest

from rda.analysis import OUTPUT_RULES
from rda.core import (
    _INITIAL_KINDS,
    BLOW_UP_THRESHOLD,
    DATA_NEEDS,
    KEYS,
    RELATIONS,
    SLOTS,
    EnvelopeSpec,
    Grid,
    InitialData,
    PolyTerm,
    Scenario,
    SystemSpec,
    evaluate_initial,
    validate_scenario,
    wraparound_budget,
)
from rda.scenarios import BUILTIN_SCENARIOS, get_scenario


def make_scenario(**overrides):
    base = dict(
        name="test",
        system=SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0),
        grid=Grid(half_width=60.0, n=256),
        initial_u=InitialData(kind="gaussian", amplitude=1e-3),
        initial_v=InitialData(),
        t_end=1.0, dt=0.01, sample_dt=0.1,
    )
    base.update(overrides)
    return Scenario(**base)


class TestValidateSpec:
    def test_valid_system(self):
        spec = SystemSpec(d1=1.0, d2=0.5, c1=0.0, c2=3.0,
                          f1=(PolyTerm(1.0, 1, 1, 0),),
                          g2=(PolyTerm(-0.5, 2, 0, 1),))
        assert validate_scenario(make_scenario(system=spec)).valid

    def test_nonpositive_diffusion_rejected(self):
        spec = SystemSpec(d1=0.0, d2=1.0, c1=0, c2=1)
        assert not validate_scenario(make_scenario(system=spec)).valid
        spec = SystemSpec(d1=1.0, d2=-1.0, c1=0, c2=1)
        assert not validate_scenario(make_scenario(system=spec)).valid

    def test_linear_term_rejected(self):
        spec = SystemSpec(d1=1, d2=1, c1=0, c2=1, f1=(PolyTerm(1.0, 1, 0, 0),))
        report = validate_scenario(make_scenario(system=spec))
        assert not report.valid
        assert any("alpha+beta >= 2" in v for v in report.violations)

    def test_flux_slot_requires_derivative_flag(self):
        spec = SystemSpec(d1=1, d2=1, c1=0, c2=1, g1=(PolyTerm(1.0, 2, 0, 0),))
        assert not validate_scenario(make_scenario(system=spec)).valid

    def test_reaction_slot_rejects_derivative_flag(self):
        spec = SystemSpec(d1=1, d2=1, c1=0, c2=1, f1=(PolyTerm(1.0, 2, 0, 1),))
        assert not validate_scenario(make_scenario(system=spec)).valid


_INF, _NAN = math.inf, math.nan
_EXPONENTIAL = EnvelopeSpec(kind="exponential")
_EXACT_SHAPE = ("the exactly solvable benchmark shape: d=(1, 1/4), f2 = u^4, "
                "u0 = a e^{-x^2/4} with a > 0, v0 = 0 on the grid")
_GROWTH = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0, f1=(PolyTerm(1.0, 0, 2),),
                     f2=(PolyTerm(1.0, 2, 0),))


def _system(**overrides):
    return dataclasses.replace(make_scenario().system, **overrides)


def _data(c, **init):
    return {f"initial_{c}": InitialData(**init)}


def _slot_examples():
    """Per slot, one term that fails each of its requirements alone."""
    for slot, (_, gamma) in SLOTS.items():
        for text, term in (("alpha, beta >= 0", PolyTerm(1.0, -1, 3, gamma)),
                           ("alpha+beta >= 2", PolyTerm(1.0, 1, 0, gamma)),
                           (f"gamma = {gamma}", PolyTerm(1.0, 2, 0, 1 - gamma)),
                           ("finite coefficient", PolyTerm(_INF, 2, 0, gamma))):
            yield (f"system.{slot}", text), dict(system=_system(**{slot: (term,)}))


def _component_examples(c):
    """Per initial component, data that fails each requirement on it alone."""
    def data(kind, **fields):
        return _data(c, kind=kind, **{"amplitude": 1e-3, **fields})

    yield from {
        (f"initial.{c}.kind",
         "in ('gaussian', 'algebraic')"): data("bogus"),
        (f"initial.{c}.amplitude", "finite"): data("gaussian", amplitude=_NAN),
        (f"initial.{c}.width", "> 0"): data("gaussian", width=-1.0),
        (f"initial.{c}.width", "finite"): data("gaussian", width=_INF),
        (f"initial.{c}.power", "> 0"): data("algebraic", power=-1.0),
        (f"initial.{c}.power", "finite"): data("algebraic", power=_INF),
        (f"initial.{c}.center", "finite"): data("gaussian", center=_NAN),
        # On L = 60 this reads 1/61 of its peak at the edge.
        (f"DATA_NEEDS initial.{c}", "|value at the box edge| <= 1e-05 max|value|"):
            data("algebraic", power=1.0),
        (f"DATA_NEEDS initial.{c}", "max|value| < 1e+08, the blow-up threshold"):
            data("gaussian", amplitude=2e8),
    }.items()


# (table entry, make_scenario overrides that violate the entry alone), the
# entry a config key (its own requirements), RELATIONS, DATA_NEEDS with the
# component, or an output of OUTPUT_RULES, and the requirement's text.
REFUSAL_EXAMPLES = {
    ("name", "non-empty, not '.' or '..', no '/' or '\\'"): dict(name=""),
    ("name", "has no '#', line break or surrounding whitespace"): dict(name="a#b"),
    ("description", "has no '#', line break or surrounding whitespace"):
        dict(description=" padded"),
    ("system.d1", "> 0"): dict(system=_system(d1=-1.0)),
    ("system.d1", "finite"): dict(system=_system(d1=_INF)),
    ("system.d2", "> 0"): dict(system=_system(d2=0.0)),
    ("system.d2", "finite"): dict(system=_system(d2=_INF)),
    ("system.c1", "finite"): dict(system=_system(c1=_NAN)),
    ("system.c2", "finite"): dict(system=_system(c2=_INF)),
    **dict(_slot_examples()),
    ("grid.L", "> 0"): dict(grid=Grid(half_width=-60.0, n=256)),
    ("grid.L", "finite"): dict(grid=Grid(half_width=_INF, n=256)),
    ("grid.n", "= power of two >= 64"): dict(grid=Grid(half_width=60.0, n=32)),
    ("grid.n", "<= 1048576"): dict(grid=Grid(half_width=60.0, n=2 ** 21)),
    ("time.sample_dt", "> 0"): dict(sample_dt=-0.1),
    **dict(_component_examples("u")),
    **dict(_component_examples("v")),
    ("envelope.kind", "in ('exponential', 'algebraic', 'drag')"):
        dict(envelope=EnvelopeSpec(kind="bogus")),
    ("envelope.M", "> 0"): dict(envelope=EnvelopeSpec(kind="drag", M=-1.0)),
    ("envelope.M", "finite"): dict(envelope=EnvelopeSpec(kind="exponential", M=_INF)),
    ("envelope.r", ">= 3"): dict(envelope=EnvelopeSpec(kind="algebraic", r=2.0)),
    ("envelope.r", "finite"): dict(envelope=EnvelopeSpec(kind="algebraic", r=_INF)),
    ("RELATIONS", "0 < dt < t_end"): dict(dt=2.0),
    ("RELATIONS", "t_end = whole number of dt steps"): dict(dt=0.3),
    # dt = 0.01, so 10^7 + 1 steps.
    ("RELATIONS", "round(t_end/dt) <= 10000000"): dict(t_end=100000.01),
    ("RELATIONS", "sample_dt = whole multiple of dt"): dict(sample_dt=0.015),
    # L = 1e308 is finite, but dx = 2L/n overflows.
    ("RELATIONS", "2L/n and (pi/dx)^2 finite"): dict(grid=Grid(half_width=1e308, n=64)),
    # dx = 120/256, so dt*|c2|/dx = 21.3.
    ("RELATIONS", "dt*max|c|/dx <= 10"): dict(system=_system(c2=1000.0)),
    ("RELATIONS", "drag envelope: c1 != c2"):
        dict(system=_system(c1=1.0), envelope=EnvelopeSpec(kind="drag")),
    ("RELATIONS", "envelope M >= max(16 d1, 16 d2, 1)"):
        dict(envelope=EnvelopeSpec(kind="exponential", M=2.0)),
    ("envelope", "an envelope.kind"): dict(outputs=("envelope",)),
    ("envelope", "initial.u.center = 0"):
        dict(outputs=("envelope",), envelope=_EXPONENTIAL,
             **_data("u", kind="gaussian", amplitude=1e-3, center=10.0)),
    ("envelope", "initial.v.center = 0"):
        dict(outputs=("envelope",), envelope=_EXPONENTIAL,
             **_data("v", kind="gaussian", amplitude=1e-3, center=10.0)),
    ("envelope", "a sample at t >= 1, its anchor"):
        dict(outputs=("envelope",), envelope=_EXPONENTIAL, t_end=0.5),
    ("decay", "nonzero initial data"): dict(outputs=("decay",), **_data("u")),
    # Three samples, two of them at t >= t_end/4.
    ("decay", ">= 8 samples at t >= min(5, t_end/4)"):
        dict(outputs=("decay",), sample_dt=0.5),
    ("lower_bounds", "the growth system: f1 = v^2, f2 = u^2, no other coupling"):
        dict(outputs=("lower_bounds",)),
    ("lower_bounds", "initial.u = nu0 e^{-a x^2} with nu0 > 0"):
        dict(outputs=("lower_bounds",), system=_GROWTH,
             **_data("u", kind="gaussian", amplitude=-1e-3)),
    ("lower_bounds", "initial.v >= 0 on the grid"):
        dict(outputs=("lower_bounds",), system=_GROWTH,
             **_data("v", kind="gaussian", amplitude=-1e-3)),
    ("lower_bounds", ">= 2 samples in the second half of the run"):
        dict(outputs=("lower_bounds",), system=_GROWTH, sample_dt=1.0),
    ("amplitude_law", "the normal-form shape: f1 = a uv (+ b u^3), g2 = g (u^2)_x, "
                      "no f2 or g1, c1 != c2"): dict(outputs=("amplitude_law",)),
    ("amplitude_law", "a sample at t >= T_BURN = 10"):
        dict(outputs=("amplitude_law",), system=get_scenario("cas3-stable").system),
    ("exact_error", _EXACT_SHAPE): dict(outputs=("exact_error",)),
}


def _table_entries():
    """(entry, refusal(scenario)) of every requirement of the four tables."""
    for key, field_ in KEYS.items():
        for _, text in field_.needs:
            yield (key, text), lambda sc, field_=field_, text=text: (
                f"{field_.label.format(value=getattr(field_.owner(sc), field_.path[-1]))} "
                f"{text} failed")
    for _, _, text in RELATIONS:
        yield ("RELATIONS", text), lambda sc, text=text: f"{text} failed"
    for c in "uv":
        for _, text in DATA_NEEDS:
            yield (f"DATA_NEEDS initial.{c}", text), \
                lambda sc, c=c, text=text: f"initial.{c}: {text} failed"
    for name, rule in OUTPUT_RULES.items():
        for _, text in (*rule.needs, *rule.samples):
            yield (name, text), lambda sc, name=name, text=text: (
                f"{name} output requires {text}")


_REFUSALS = dict(_table_entries())


class TestRefusalTables:
    @pytest.mark.parametrize("entry", list(_REFUSALS), ids=": ".join)
    def test_each_entry_refuses_its_example_alone(self, entry):
        # Each requirement of core.FIELDS (per key), core.RELATIONS,
        # core.DATA_NEEDS (per component) and analysis.OUTPUT_RULES has an
        # example that it alone refuses, with exactly its text; an entry
        # without an example fails here.
        scenario = make_scenario(**REFUSAL_EXAMPLES[entry])
        assert validate_scenario(scenario).violations == (_REFUSALS[entry](scenario),)

    def test_every_example_names_one_entry(self):
        assert len(_REFUSALS) == len(list(_table_entries()))
        assert set(REFUSAL_EXAMPLES) == set(_REFUSALS)

    def test_grid_too_large_to_allocate_reported(self):
        # 2^57 points are 1 EiB, more than any 64-bit address space; the grid
        # ceiling refuses them before any allocation. With c1 = c2 = 0 the
        # CFL relation holds.
        huge = make_scenario(grid=Grid(half_width=60.0, n=2 ** 57),
                             system=_system(c2=0.0))
        assert validate_scenario(huge).violations == ("grid n <= 1048576 failed",)


    @pytest.mark.parametrize("field,init", [
        ("initial_u", InitialData(kind="algebraic", amplitude=0.2)),
        ("initial_u", InitialData(kind="gaussian", amplitude=0.2, width=3.0)),
        ("initial_u", InitialData(kind="gaussian", amplitude=0.2, center=1.0)),
        ("initial_u", InitialData(kind="gaussian", amplitude=0.0)),
        ("initial_v", InitialData(kind="gaussian", amplitude=1e-3)),
    ], ids=["algebraic-u", "width-3", "centre-1", "amplitude-0", "nonzero-v"])
    def test_each_exact_error_clause_refuses_its_example_alone(self, field, init):
        # remark51-exact with one clause of the exact_error need broken.
        exact = dataclasses.replace(get_scenario("remark51-exact"), outputs=("exact_error",))
        assert validate_scenario(exact).valid
        bad = dataclasses.replace(exact, **{field: init})
        assert validate_scenario(bad).violations == (
            f"exact_error output requires {_EXACT_SHAPE}",)

    def test_huge_step_count_refused_before_the_sample_walk(self):
        # 6.25e306 steps: the decay output's sample requirement would walk
        # them all in sample_times; the step ceiling refuses first.
        huge = make_scenario(t_end=1e308, dt=16.0, sample_dt=16.0,
                             system=_system(c2=0.0), outputs=("decay",))
        assert validate_scenario(huge).violations == (
            "round(t_end/dt) <= 10000000 failed",)


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

    @pytest.mark.parametrize("sample_dt,message", [
        (0.004, "sample_dt = whole multiple of dt failed"),
        (0.015, "sample_dt = whole multiple of dt failed"),
        (float("nan"), "sample_dt > 0 failed")], ids=["0.004", "0.015", "nan"])
    def test_sample_dt_not_whole_multiple_of_dt(self, sample_dt, message):
        # sample_dt < dt would silently sample every step, 0.015 every
        # other step, and NaN fails the field's own sample_dt > 0 before
        # the whole-multiple relation sees it.
        report = validate_scenario(make_scenario(dt=0.01, sample_dt=sample_dt))
        assert message in report.violations

    def test_envelope_m_floor(self):
        bad = make_scenario(envelope=EnvelopeSpec(kind="exponential", M=2.0))
        report = validate_scenario(bad)
        assert any("M >=" in v for v in report.violations)

    def test_drag_requires_distinct_velocities(self):
        env = EnvelopeSpec(kind="drag", M=16.0)
        equal = make_scenario(system=SystemSpec(d1=1.0, d2=1.0, c1=0.5, c2=0.5),
                              envelope=env)
        assert validate_scenario(equal).violations == (
            "drag envelope: c1 != c2 failed",)
        assert validate_scenario(make_scenario(envelope=env)).valid

    def test_amplitude_law_requires_the_normal_form_shape(self):
        # The law is judged on the normal form, which toy's quartic self
        # term and mix coupling do not have.
        outputs = ("trajectory", "amplitude_law")
        toy = dataclasses.replace(get_scenario("toy"), outputs=outputs)
        assert validate_scenario(toy).violations == (
            "amplitude_law output requires the normal-form shape: "
            "f1 = a uv (+ b u^3), g2 = g (u^2)_x, no f2 or g1, c1 != c2",)
        # The shape with the wrong sign runs, and its law fails as a result.
        signed = dataclasses.replace(get_scenario("cas3-sign-violated"),
                                     outputs=outputs)
        assert validate_scenario(signed).valid

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

    @pytest.mark.parametrize("label,field", [("initial.u", "initial_u"),
                                             ("initial.v", "initial_v")])
    def test_nonfinite_initial_values_reported(self, label, field):
        # grid.L = 1e308 meets its own requirements, but dx = 2L/n overflows,
        # so the grid points would be nan and inf: the grid is refused and
        # neither datum is evaluated on it.
        data = {"initial_u": InitialData(), "initial_v": InitialData(),
                field: InitialData(kind="algebraic", amplitude=1e-3)}
        bad = make_scenario(grid=Grid(half_width=1e308, n=64), **data)
        report = validate_scenario(bad)
        assert report.violations == ("2L/n and (pi/dx)^2 finite failed",)

    def test_data_cut_off_at_the_box_edge_reported(self):
        # On L = 60 this reads 1/61 of its peak at the edge.
        init = InitialData(kind="algebraic", amplitude=1e-3, power=1.0)
        report = validate_scenario(make_scenario(initial_u=init))
        assert report.violations == (
            "initial.u: |value at the box edge| <= 1e-05 max|value| failed",)

    @pytest.mark.parametrize("label,field", [("initial.u", "initial_u"),
                                             ("initial.v", "initial_v")])
    def test_data_above_blow_up_threshold_reported(self, label, field):
        # Against the threshold 1e8 the blow-up guard would flag the first
        # step and report the input as a blow-up at t = 0.
        bad = make_scenario(**{field: InitialData(kind="gaussian", amplitude=2e8)})
        assert validate_scenario(bad).violations == (
            f"{label}: max|value| < 1e+08, the blow-up threshold failed",)

    def test_data_reports_its_first_unmet_requirement(self):
        # Cut off at the box edge and above the threshold: DATA_NEEDS lists
        # the edge first.
        init = InitialData(kind="algebraic", amplitude=2e8, power=1.0)
        assert validate_scenario(make_scenario(initial_u=init)).violations == (
            "initial.u: |value at the box edge| <= 1e-05 max|value| failed",)

    def test_slot_reports_its_first_unmet_requirement(self):
        # Both terms fail gamma = 0; the first also fails alpha+beta >= 2,
        # which comes first, and the slot is named once.
        spec = SystemSpec(d1=1, d2=1, c1=0, c2=1, f1=(PolyTerm(1.0, 1, 0, 1),
                                                      PolyTerm(2.0, 2, 0, 1)))
        assert validate_scenario(make_scenario(system=spec)).violations == (
            "f1 terms: alpha+beta >= 2 failed",)

    def test_data_reaching_the_threshold_reported(self):
        # x = 0 is a grid point, so the peak is the amplitude itself.
        at = make_scenario(initial_u=InitialData(
            kind="gaussian", amplitude=BLOW_UP_THRESHOLD))
        below = make_scenario(initial_u=InitialData(
            kind="gaussian", amplitude=math.nextafter(BLOW_UP_THRESHOLD, 0.0)))
        assert validate_scenario(at).violations == (
            "initial.u: max|value| < 1e+08, the blow-up threshold failed",)
        assert validate_scenario(below).valid

    def test_off_centre_data_reported_with_an_envelope_or_lower_bounds(self):
        # The envelope weights are centred at x = 0, and the lower bounds
        # are stated for u0 >= nu0 e^{-a x^2}; a trajectory reads no centre.
        shifted = InitialData(kind="gaussian", amplitude=1e-3, center=10.0)
        enveloped = make_scenario(
            initial_u=shifted, initial_v=shifted,
            envelope=EnvelopeSpec(kind="exponential", M=16.0),
            outputs=("trajectory", "envelope"))
        assert validate_scenario(enveloped).violations == (
            "envelope output requires initial.u.center = 0",
            "envelope output requires initial.v.center = 0")
        bounded = make_scenario(system=get_scenario("cas2-equal").system,
                                initial_u=shifted, initial_v=shifted,
                                outputs=("trajectory", "lower_bounds"))
        assert validate_scenario(bounded).violations == (
            "lower_bounds output requires initial.u = nu0 e^{-a x^2} with nu0 > 0",)
        centred = InitialData(kind="gaussian", amplitude=1e-3)
        assert validate_scenario(dataclasses.replace(
            bounded, initial_u=centred, initial_v=centred)).valid
        assert validate_scenario(make_scenario(
            initial_u=shifted, initial_v=shifted)).valid

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "", ".", "..", "a\\b"],
                             ids=["parent", "nested", "empty", "dot", "dotdot",
                                  "backslash"])
    def test_name_that_is_not_one_directory_reported(self, name):
        # A multi-target run writes each scenario to OUT/<name>.
        report = validate_scenario(make_scenario(name=name))
        assert report.violations == (
            f"name {name!r}: non-empty, not '.' or '..', no '/' or '\\' failed",)

    @pytest.mark.parametrize("name", ["toy", "a.b", "..a"])
    def test_plain_names_pass(self, name):
        assert validate_scenario(make_scenario(name=name)).valid

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtins_are_valid(self, name):
        assert validate_scenario(get_scenario(name)).violations == ()

    @pytest.mark.parametrize("overrides,message", [
        (dict(envelope=EnvelopeSpec(kind="exponential", M=math.nan)),
         "envelope M > 0 failed"),
        (dict(envelope=EnvelopeSpec(kind="exponential", M=-1.0)),
         "envelope M > 0 failed"),
        (dict(envelope=EnvelopeSpec(kind="drag", M=math.inf)),
         "envelope M finite failed"),
        (dict(envelope=EnvelopeSpec(kind="algebraic", M=0.0)),
         "envelope M > 0 failed"),
        (dict(envelope=EnvelopeSpec(kind="algebraic", r=math.nan)),
         "envelope r >= 3 failed"),
        (dict(envelope=EnvelopeSpec(kind="algebraic", r=math.inf)),
         "envelope r finite failed"),
        (dict(system=SystemSpec(d1=1.0, d2=math.inf, c1=0.0, c2=1.0)),
         "d2 finite failed"),
        (dict(system=SystemSpec(d1=math.inf, d2=1.0, c1=0.0, c2=1.0)),
         "d1 finite failed"),
        (dict(system=SystemSpec(d1=math.nan, d2=1.0, c1=0.0, c2=1.0)),
         "d1 > 0 failed"),
        (dict(grid=Grid(half_width=math.nan, n=256)),
         "grid half-width > 0 failed"),
        (dict(grid=Grid(half_width=math.inf, n=256)),
         "grid half-width finite failed"),
    ], ids=["M_nan", "M_negative", "M_inf_drag", "M_zero_algebraic", "r_nan",
            "r_inf", "d2_inf", "d1_inf", "d1_nan", "half_width_nan", "half_width_inf"])
    def test_nonfinite_or_out_of_range_number_reported(self, overrides, message):
        # Each of these ran before and reported its effect as a result
        # (a pass, a nan statistic or a blow-up), or stopped with a math
        # domain error.
        report = validate_scenario(make_scenario(**overrides))
        assert report.violations == (message,)

    @pytest.mark.parametrize("label,field", [("initial.u", "initial_u"),
                                             ("initial.v", "initial_v")])
    @pytest.mark.parametrize("kind,name,value,condition", [
        ("gaussian", "width", math.inf, "finite"),
        ("gaussian", "width", -math.inf, "> 0"),
        ("gaussian", "width", -1e308, "> 0"),
        ("gaussian", "width", 0.0, "> 0"),
        ("gaussian", "width", math.nan, "> 0"),
        ("algebraic", "power", 0.0, "> 0"),
        ("algebraic", "power", -1.0, "> 0"),
        ("algebraic", "power", math.inf, "finite"),
        ("algebraic", "power", math.nan, "> 0"),
    ])
    def test_shape_parameter_out_of_range_reported(
            self, label, field, kind, name, value, condition):
        # Each of these starts from data that is not localized (constant,
        # growing like 1+|x|, or a one-point spike).
        init = InitialData(kind=kind, amplitude=1e-3, **{name: value})
        report = validate_scenario(make_scenario(**{field: init}))
        assert report.violations == (f"{label}: {name} {condition} failed",)

    @pytest.mark.parametrize("kind,name", [("gaussian", "power"),
                                           ("algebraic", "width"),
                                           ("exponential", "r"),
                                           ("drag", "r")])
    def test_shape_parameter_checked_only_where_read(self, kind, name):
        # NaN fails every requirement a shape field has (> 0, >= 3, finite),
        # and only the kinds that read the field check it.
        if name == "r":
            scenario = make_scenario(envelope=EnvelopeSpec(kind=kind, r=math.nan))
        else:
            scenario = make_scenario(initial_u=InitialData(**{
                "kind": kind, "amplitude": 1e-3, name: math.nan}))
        assert validate_scenario(scenario).violations == ()

    @pytest.mark.parametrize("field", [
        "t_end", "dt", "sample_dt", "system.d1",
        "system.c2", "grid.half_width", "envelope.M", "envelope.r",
        "initial_u.amplitude", "initial_u.width", "initial_u.power",
        "initial_u.center"])
    @pytest.mark.parametrize("kind", ["exponential", "algebraic", "drag"])
    def test_never_raises_on_any_float(self, kind, field):
        base = make_scenario(envelope=EnvelopeSpec(kind=kind))
        owner, _, name = field.rpartition(".")
        for value in (math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e308):
            if owner:
                part = dataclasses.replace(getattr(base, owner), **{name: value})
                scenario = dataclasses.replace(base, **{owner: part})
            else:
                scenario = dataclasses.replace(base, **{name: value})
            validate_scenario(scenario)

    def test_overflowing_initial_values_reported(self):
        # Both kinds are finite on a finite grid. At n = 64 these
        # half-widths meet their own requirements, but dx = 2L/n is inf
        # (1e308), 0 (5e-324) or so small that pi/dx (1e-320) or (pi/dx)^2
        # (1e-300) overflows. With c1 = c2 = 0, 5e-324 once raised
        # ZeroDivisionError.
        for L in (1e308, 5e-324, 1e-320, 1e-300):
            bad = make_scenario(grid=Grid(half_width=L, n=64), system=_system(c2=0.0),
                                initial_v=InitialData(kind="algebraic", amplitude=1e-3))
            assert validate_scenario(bad).violations == (
                "2L/n and (pi/dx)^2 finite failed",), L

    @pytest.mark.parametrize("kind", _INITIAL_KINDS)
    def test_every_initial_kind_is_centred_where_validation_reads(self, kind):
        # The envelope weights are centred at x = 0. Every kind reads its
        # center, which the envelope output reads too, so off-centre data
        # is refused.
        assert KEYS["initial.u.center"].reads is None
        init = InitialData(kind=kind, amplitude=1e-3, center=1.0)
        bad = make_scenario(initial_u=init, envelope=_EXPONENTIAL, outputs=("envelope",))
        assert validate_scenario(bad).violations == (
            "envelope output requires initial.u.center = 0",)


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
        # remark51-exact starts u from the closed form's unit-mass Gaussian.
        x = np.linspace(-40, 40, 4001)
        u = evaluate_initial(get_scenario("remark51-exact").initial_u, x)
        assert np.trapezoid(u, x) == pytest.approx(1.0, abs=1e-12)
        assert np.max(u) == pytest.approx(1.0 / math.sqrt(4 * math.pi))

    def test_zero(self):
        # The default datum, amplitude 0, is zero in every bit.
        x = np.linspace(-60, 60, 1025)
        np.testing.assert_array_equal(evaluate_initial(InitialData(), x), np.zeros_like(x))


class TestMonomials:
    def test_equal_monomials_summed_in_listed_order(self):
        # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit.
        system = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0,
                            f1=(PolyTerm(0.1, 1, 1, 0), PolyTerm(2.0, 3, 0, 0),
                                PolyTerm(0.2, 1, 1, 0), PolyTerm(0.3, 1, 1, 0)),
                            g2=(PolyTerm(-1.0, 1, 1, 1),))
        monomials = system.monomials()
        assert monomials == {("f1", 1, 1): sum((0.1, 0.2, 0.3)),
                             ("f1", 3, 0): 2.0, ("g2", 1, 1): -1.0}
        assert monomials[("f1", 1, 1)] != sum((0.3, 0.2, 0.1))
        assert list(monomials) == [("f1", 1, 1), ("f1", 3, 0), ("g2", 1, 1)]

    def test_same_shape_in_two_slots_stays_apart(self):
        system = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0,
                            f1=(PolyTerm(1.0, 2, 0, 0),),
                            f2=(PolyTerm(3.0, 2, 0, 0),),
                            g1=(PolyTerm(5.0, 2, 0, 1),))
        assert system.monomials() == {("f1", 2, 0): 1.0, ("f2", 2, 0): 3.0,
                                      ("g1", 2, 0): 5.0}

    def test_opposite_coefficients_keep_their_key(self):
        # A cancelled monomial is still listed, with coefficient 0.
        system = SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0,
                            f2=(PolyTerm(1.0, 4, 0, 0), PolyTerm(-1.0, 4, 0, 0)))
        assert system.monomials() == {("f2", 4, 0): 0.0}

    def test_no_terms_give_an_empty_map(self):
        assert SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0).monomials() == {}


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
