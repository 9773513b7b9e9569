"""The special functions rda calls (scipy.special), against mpmath references.

erf enters the growth lower bounds (analysis); erfcx and gamma enter the
closed forms of the identity suite (kernels).
"""

import math

import mpmath
import pytest

from rda.analysis import erf
from rda.kernels import erfcx, gamma

POINTS = [0.0, 1e-8, 0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 2.999, 3.0, 3.5, 5.0,
          8.0, 12.0, 20.0, 50.0]


@pytest.mark.parametrize("x", POINTS)
def test_erf_reference(x):
    ref = float(mpmath.erf(x))
    assert erf(x) == pytest.approx(ref, rel=1e-12, abs=1e-300)
    assert erf(-x) == pytest.approx(-ref, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("x", POINTS)
def test_erfc_reference(x):
    # erfc as the half-line closed form uses it: e^{-x^2} times erfcx.
    ref = float(mpmath.erfc(x))
    assert erfcx(x) * math.exp(-x * x) == pytest.approx(ref, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("x", POINTS)
def test_erfcx_reference(x):
    ref = float(mpmath.erfc(x) * mpmath.exp(x * x))
    assert erfcx(x) == pytest.approx(ref, rel=1e-12)


def test_erfcx_large_argument_no_underflow():
    # The plain product erfc(x) e^{x^2} would be 0 * inf here.
    x = 1e4
    assert erfcx(x) == pytest.approx(1.0 / (x * math.sqrt(math.pi)), rel=1e-6)


@pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 1.25, 2.5, 5.0, 7.5, 10.5, 20.0])
def test_gamma_reference(x):
    assert gamma(x) == pytest.approx(float(mpmath.gamma(x)), rel=1e-12)


def test_gamma_reflection():
    assert gamma(-0.5) == pytest.approx(float(mpmath.gamma(-0.5)), rel=1e-12)


def test_gamma_five_quarters():
    # The constant entering the quartic tail integral.
    assert gamma(1.25) == pytest.approx(float(mpmath.gamma(1.25)), rel=1e-13)
