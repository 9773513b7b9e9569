"""The special-function values rda computes, against mpmath references.

erf enters the growth lower bounds (analysis.cas2_lower_bounds), which
apply the standard library's math.erf elementwise. The half-line closed
form (kernels.halfline_gauss_integral) reads e^q erfc(sqrt(q)) from
math.exp and math.erfc, and the quartic tail's Gamma(5/4) is a literal.
"""

import math

import mpmath
import pytest

from rda import analysis, kernels
from rda.core import sample_times
from rda.scenarios import get_scenario

POINTS = [0.0, 1e-8, 0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 2.999, 3.0, 3.5, 5.0,
          8.0, 12.0, 20.0, 50.0]
# The half-line closed form takes e^q for q = x^2 up to 700, its domain.
SCALED_POINTS = [x for x in POINTS if x * x <= 700.0]


def exact(function, *args):
    """function of args in mpmath at 40 digits, rounded to a float."""
    with mpmath.workdps(40):
        return float(function(*(mpmath.mpf(arg) for arg in args)))


@pytest.mark.parametrize("x", POINTS)
def test_erf_reference(x):
    ref = exact(mpmath.erf, x)
    assert math.erf(x) == pytest.approx(ref, rel=1e-15, abs=1e-300)
    assert math.erf(-x) == pytest.approx(-ref, rel=1e-15, abs=1e-300)


@pytest.mark.parametrize("x", POINTS)
def test_erfc_reference(x):
    ref = exact(mpmath.erfc, x)
    assert math.erfc(x) == pytest.approx(ref, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("x", SCALED_POINTS)
def test_erfcx_reference(x):
    # e^{x^2} erfc(x), as the half-line closed form computes it.
    ref = exact(lambda y: mpmath.exp(y * y) * mpmath.erfc(y), x)
    assert math.exp(x * x) * math.erfc(x) == pytest.approx(ref, rel=1e-13)


def test_erf_at_the_distinct_velocity_bound_arguments(monkeypatch):
    # Every argument cas2-distinct's lower bounds hand erf, at every sample
    # time its run can take.
    scenario = get_scenario("cas2-distinct")
    init = scenario.initial_u
    erf, seen = math.erf, []

    def recorded(x):
        seen.append(x)
        return erf(x)

    monkeypatch.setattr(math, "erf", recorded)
    times = sample_times(scenario)
    analysis.cas2_lower_bounds(scenario.system, init.amplitude, 1.0 / init.width, times)
    monkeypatch.undo()
    assert len(seen) == 2 * len(times)
    for x in seen:
        assert erf(x) == pytest.approx(exact(mpmath.erf, x), rel=1e-15, abs=1e-300)


@pytest.mark.parametrize("a,r", kernels._HALFLINE_CASES)
def test_halfline_closed_form_reference(a, r):
    q = 4.0 * a * (r + 1.0)
    ref = exact(lambda a, q: mpmath.sqrt(mpmath.pi) * (
        mpmath.exp(q) * mpmath.erfc(mpmath.sqrt(q)) + 1) / (2 * mpmath.sqrt(a)), a, q)
    assert kernels.halfline_gauss_integral(a, r) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 1.25, 2.5, 5.0, 7.5, 10.5, 20.0])
def test_gamma_reference(x):
    # Gamma as rda reads it: 2 Gamma(5/4) / a^{1/4}, the quartic tail at a = x.
    ref = exact(lambda a: 2 * mpmath.gamma(mpmath.mpf(5) / 4) / a ** 0.25, x)
    assert kernels.quartic_tail_integral(x) == pytest.approx(ref, rel=1e-15)


def test_gamma_five_quarters():
    # The literal is mpmath's correctly rounded Gamma(5/4); math.gamma(1.25)
    # is two ulps above it.
    literal = kernels._GAMMA_5_4
    assert literal == exact(mpmath.gamma, 1.25)
    assert math.gamma(1.25) == literal + 2.0 * math.ulp(literal)
