"""Scenario config parsing, serialization round-trips, and error reporting."""

import contextlib
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rda.analysis import OUTPUT_RULES
from rda.config import (
    ConfigError,
    parse_scenario,
    parse_scenario_text,
    serialize_scenario,
)
from rda.core import (_INITIAL_KINDS, FIELDS, KEYS, SLOTS, InitialData, PolyTerm,
                      scenario_from, validate_scenario)
from rda.scenarios import BUILTIN_SCENARIOS, get_scenario

MINIMAL = """\
# minimal valid scenario
system.d1 = 1.0
system.d2 = 1.0
system.c1 = 0.0
system.c2 = 1.0
system.f1 = 1.0 u^1 v^1
grid.L = 60.0
grid.n = 256
time.dt = 0.01
time.t_end = 1.0
time.sample_dt = 0.1
initial.u.kind = gaussian
initial.u.amplitude = 1e-3
"""


def test_minimal_config_parses():
    scenario = parse_scenario_text(MINIMAL, name_hint="minimal")
    assert scenario.name == "minimal"
    assert scenario.system.f1[0].is_mix
    assert scenario.initial_v == InitialData()  # zero data
    assert scenario.outputs == ("trajectory",)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_round_trip(name):
    scenario = get_scenario(name)
    text = serialize_scenario(scenario)
    assert parse_scenario_text(text) == scenario
    # Serialization is a fixed point, not just an equivalence.
    assert serialize_scenario(parse_scenario_text(text)) == text


def test_parse_from_file(tmp_path):
    path = tmp_path / "minimal.conf"
    path.write_text(MINIMAL, encoding="utf-8")
    scenario = parse_scenario(path)
    assert scenario.name == "minimal"


def test_unknown_key_reports_line():
    text = MINIMAL + "bogus.key = 1\n"
    with pytest.raises(ConfigError, match=r"line 14: unknown key 'bogus.key'"):
        parse_scenario_text(text)


def test_duplicate_key_reports_line():
    text = MINIMAL + "system.d1 = 2.0\n"
    with pytest.raises(ConfigError, match=r"line 14: duplicate key"):
        parse_scenario_text(text)


def test_bad_term_reports_line_and_key():
    text = MINIMAL.replace("system.f1 = 1.0 u^1 v^1",
                           "system.f1 = u squared")
    with pytest.raises(ConfigError,
                       match=r"line 6: bad value for 'system.f1': bad term 'u squared'"):
        parse_scenario_text(text)


def test_bad_number_reports_line():
    text = MINIMAL.replace("system.d2 = 1.0", "system.d2 = one")
    with pytest.raises(ConfigError, match=r"line 3: bad value for 'system.d2'"):
        parse_scenario_text(text)


def test_missing_required_key():
    text = MINIMAL.replace("grid.n = 256\n", "")
    with pytest.raises(ConfigError, match=r"missing required key 'grid.n'"):
        parse_scenario_text(text)


def test_invalid_scenario_surfaces_violations():
    # Parsing checks the format only; validation finds the violation.
    text = MINIMAL.replace("system.f1 = 1.0 u^1 v^1",
                           "system.f1 = 1.0 u^1 v^0")
    report = validate_scenario(parse_scenario_text(text))
    assert any("alpha+beta >= 2" in v for v in report.violations)


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
        parse_scenario_text("just some words\n")


def test_comments_and_blank_lines_ignored():
    text = "\n\n# full-line comment\n" + MINIMAL.replace(
        "grid.n = 256", "grid.n = 256   # inline comment")
    scenario = parse_scenario_text(text)
    assert scenario.grid.n == 256


def test_term_list_with_flux_entries():
    text = MINIMAL.replace(
        "system.f1 = 1.0 u^1 v^1",
        "system.f1 = 1.0 u^1 v^1, -0.5 u^4 v^0\nsystem.g2 = 2.0 u^2 v^0 ddx")
    scenario = parse_scenario_text(text)
    assert len(scenario.system.f1) == 2
    assert scenario.system.f1[1].coeff == -0.5
    assert scenario.system.g2[0].gamma == 1


@pytest.mark.parametrize("edits,message", [
    ((("", "envelope.M = 2.0\n"),),
     "line 14: 'envelope.M' is not read without envelope.kind"),
    ((("", "envelope.r = 4.0\n"),),
     "line 14: 'envelope.r' is not read without envelope.kind"),
    ((("", "envelope.kind = exponential\nenvelope.M = 2.0\nenvelope.r = 4.0\n"),),
     "line 16: 'envelope.r' is not read by envelope.kind 'exponential'"),
    ((("", "initial.u.power = 7.0\n"),),
     "line 14: 'initial.u.power' is not read by initial.u.kind 'gaussian'"),
    ((("initial.u.kind = gaussian", "initial.u.kind = algebraic"),
      ("", "initial.u.width = 2.0\n")),
     "line 14: 'initial.u.width' is not read by initial.u.kind 'algebraic'"),
    # The default datum, zero data, is gaussian.
    ((("", "initial.v.power = 7.0\n"),),
     "line 14: 'initial.v.power' is not read by initial.v.kind 'gaussian'"),
], ids=["envelope_M_without_kind", "envelope_r_without_kind",
        "envelope_r_on_exponential", "power_on_gaussian", "width_on_algebraic",
        "shape_on_zero"])
def test_key_the_kind_does_not_read_is_rejected(edits, message):
    # Each edit either replaces a line or, with an empty old text, appends.
    text = MINIMAL
    for old, new in edits:
        assert old in text
        text = text.replace(old, new) if old else text + new
    with pytest.raises(ConfigError) as info:
        parse_scenario_text(text)
    assert str(info.value) == message


def test_keys_the_kind_reads_are_kept():
    text = MINIMAL.replace("initial.u.kind = gaussian", "initial.u.kind = algebraic") + (
        "initial.u.power = 3.0\n"
        "initial.v.kind = gaussian\ninitial.v.amplitude = 1e-3\ninitial.v.width = 2.0\n"
        "envelope.kind = algebraic\nenvelope.M = 2.0\nenvelope.r = 4.0\n")
    scenario = parse_scenario_text(text)
    assert scenario.initial_u.power == 3.0
    assert (scenario.initial_v.amplitude, scenario.initial_v.width) == (1e-3, 2.0)
    assert (scenario.envelope.M, scenario.envelope.r) == (2.0, 4.0)
    assert parse_scenario_text(serialize_scenario(scenario)) == scenario


def test_numbers_of_any_type_serialize_as_their_fields_read_them():
    # A library caller may pass an int or a numpy scalar for a float field.
    scenario = get_scenario("cas3-stable")
    typed = dataclasses.replace(
        scenario, dt=np.float64(scenario.dt), t_end=int(scenario.t_end),
        grid=dataclasses.replace(scenario.grid, n=np.int64(scenario.grid.n)))
    assert serialize_scenario(typed) == serialize_scenario(scenario)


_ONE_LINE = "has no '#', line break or surrounding whitespace failed"


@pytest.mark.parametrize("changes,message", [
    (dict(name="a#b"), f"name 'a#b': {_ONE_LINE}"),
    (dict(description="a # b"), f"description {_ONE_LINE}"),
    (dict(description="  lead"), f"description {_ONE_LINE}"),
    (dict(description="two\nlines"), f"description {_ONE_LINE}"),
], ids=["hash_in_name", "hash_in_description", "leading_whitespace",
        "line_break_in_description"])
def test_string_a_config_line_cannot_hold_is_refused(changes, message):
    scenario = dataclasses.replace(get_scenario("cas3-stable"), **changes)
    assert validate_scenario(scenario).violations == (message,)
    # Written out anyway, it parses to another scenario or not at all: "a#b"
    # comes back as "a", "  lead" as "lead", and a line break splits the line.
    with contextlib.suppress(ConfigError):
        assert parse_scenario_text(serialize_scenario(scenario)) != scenario


# Boundary values first, then anything a field's own requirements accept.
_FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, 3.0, 16.0]),
                    st.floats(allow_nan=False))
_STRINGS = st.one_of(
    st.sampled_from(["a", "a#b", "a # b", "  lead", "trail ", "two\nlines", "a\r\nb",
                     "a=b", "a  b", "..a", "1e-3*exp(-x^2)"]),
    st.text(st.characters(codec="utf-8"), max_size=8))
_KINDS = st.sampled_from(["gaussian", "algebraic", "exponential", "drag"])


def _domain(key, entry):
    """The values of key's field that meet the field's own requirements."""
    if key.endswith(".kind"):
        values = _KINDS
    elif entry.convert is float:
        values = _FLOATS
    elif entry.convert is str:
        values = _STRINGS
    elif entry.convert is int:
        values = st.integers(0, 40).map(lambda k: 1 << k)
    elif key == "outputs":
        values = st.lists(st.sampled_from(sorted(OUTPUT_RULES)), max_size=3).map(tuple)
    else:  # a coupling slot's terms
        values = st.lists(st.builds(
            PolyTerm, st.floats(allow_nan=False, allow_infinity=False),
            st.integers(0, 5), st.integers(0, 5), st.just(SLOTS[entry.path[1]][1])),
            max_size=3).map(tuple)
    return values.filter(lambda value: entry.unmet(value) is None)


_DOMAINS = {key: _domain(key, entry) for key, entry in KEYS.items()}


@st.composite
def _scenarios(draw):
    """A scenario with each key its kinds read drawn from the key's domain,
    with or without an envelope, and every other field at its default."""
    values = {}
    for key, entry in KEYS.items():
        kind = values.get((*entry.path[:-1], "kind"))
        if (key == "envelope.kind" and draw(st.booleans())) or (
                entry.reads is not None and kind not in entry.reads):
            continue
        values[entry.path] = draw(_DOMAINS[key])
    return scenario_from(values)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_scenarios())
def test_generated_scenarios_round_trip(scenario):
    text = serialize_scenario(scenario)
    assert parse_scenario_text(text) == scenario
    assert serialize_scenario(parse_scenario_text(text)) == text


def _readme_config_keys():
    """The README's "Config keys" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("### Config keys", 1)[1].split("\n#", 1)[0]


def test_readme_key_reference_lists_every_key():
    assert re.findall(r"^\| `([^`]+)` \|", _readme_config_keys(), flags=re.M) == [
        entry.key for entry in FIELDS]


def test_readme_names_the_initial_kinds_the_code_accepts():
    # The row's requirements cell (cells are split at unescaped pipes) names
    # the kinds as quoted strings.
    (row,) = re.findall(r"^\| `initial\.\{c\}\.kind` \|.*$", _readme_config_keys(),
                        flags=re.M)
    requirements = re.split(r"(?<!\\)\|", row)[4]
    assert tuple(re.findall(r"'([^']+)'", requirements)) == _INITIAL_KINDS
