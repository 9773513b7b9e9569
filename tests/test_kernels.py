"""Kernel closed forms against independent oracles (mpmath, scipy)."""

import ast
import inspect
import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from scipy import integrate

from rda import kernels
from rda.kernels import (
    _conv_lattice,
    conv_cross_velocity,
    conv_mix,
    conv_same_velocity,
    _BLOCK_DOUBLES,
    _gaussian_sweep,
    drag_profile,
    drag_weight_profile,
    gauss_integral,
    gauss_legendre_panels,
    halfline_gauss_integral,
    quartic_tail_integral,
    verify_identity_suite,
)


@dataclass(frozen=True)
class GaussKernelParams:
    """Diffusion-advection kernel parameters."""
    d: float
    c: float
    t: float

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("diffusion coefficient d must be positive")
        if self.t <= 0:
            raise ValueError("elapsed time t must be positive")


def heat_kernel(x, p: GaussKernelParams):
    """Drifting heat kernel e^{-(x+ct)^2/(4dt)} / sqrt(4 pi d t)."""
    return np.exp(-((x + p.c * p.t) ** 2) / (4.0 * p.d * p.t)) / math.sqrt(4.0 * math.pi * p.d * p.t)


def linear_envelope_bound(x, t, M: float, d: float, c: float, delta: float):
    """Propagated Gaussian envelope of delta*e^{-x^2/M} initial data.

    This is an upper envelope, not the exact convolution: the exact result
    delta*sqrt(M/(M+4dt))*e^{-(x+ct)^2/(M+4dt)} is dominated by this bound
    precisely when M >= 4d (with equality at M = 4d).
    """
    if M < 4.0 * d:
        raise ValueError("envelope bound requires M >= 4d")
    return (
        delta * math.sqrt(M) * np.exp(-((x + c * t) ** 2) / (M * (1.0 + t)))
        / (2.0 * math.sqrt(d * (1.0 + t)))
    )


def drag_integral(x: float, t: float, c_self: float, c_other: float, M: float,
                  power_decay: float = 0.0, tol: float = 1e-9) -> float:
    """QUADPACK value of the drag integral at a single point.

    The pointwise oracle for drag_profile: the same integrand, each point
    adapted on its own.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    root = 1.0 / math.sqrt(1.0 + t)

    def gaussian(s):
        shift = x + t * c_self + s * (c_other - c_self)
        return np.exp(-(shift ** 2) / (M * (1.0 + t)))

    def integrand(s):
        return gaussian(s) * root / (1.0 + s) ** power_decay

    return integrate.quad(integrand, 0.0, t, epsabs=tol, epsrel=0.0)[0]


IDENTITY_NAMES = {
    "gauss", "conv_same_velocity", "conv_mix",
    "conv_cross_velocity", "halfline_gauss", "quartic_tail",
}


def test_identity_suite_passes_strict():
    report = verify_identity_suite()
    assert set(report.max_abs_error) == IDENTITY_NAMES
    for name in IDENTITY_NAMES:
        assert report.cases[name] >= 20
    assert report.passed(1e-8)
    name, worst = report.worst()
    assert worst <= 1e-12, (name, worst)


def test_conv_lattice_has_s_before_t():
    # The convolution integrands divide by t - s with no guard.
    cases = _conv_lattice()
    assert len(cases) == 31
    for x, t, s, c1, c2, M in cases:
        assert 0.0 <= s < t, (x, t, s)


def test_identity_suite_oracle_is_strict_and_integrands_scalar(monkeypatch):
    quadpack = kernels._quadpack()
    qagse = quadpack._qagse
    calls = []

    values = []

    def recording_qagse(f, lo, hi, *args):
        calls.append((args, f(0.5 * (lo + hi)), f.__closure__))
        result = qagse(f, lo, hi, *args)
        values.append(result[0])
        return result

    monkeypatch.setattr(quadpack, "_qagse", recording_qagse)
    report = verify_identity_suite()
    assert len(calls) == 158
    # The report holds each integral's value, in call order, one per case.
    assert report.integrals == tuple(values)
    assert len(report.integrals) == sum(report.cases.values())
    for args, midpoint_value, closure in calls:
        # (args, full_output, epsabs, epsrel, limit), as integrate.quad
        # passes them for epsabs=1e-11, epsrel=0.0, limit=4000.
        assert args == ((), 0, 1e-11, 0.0, 4000)
        # An np.float64 here means a numpy scalar path crept back in.
        assert type(midpoint_value) is float
        # Everything an integrand reads, exp and sqrt included, is a default
        # (a fast local), not a cell of the enclosing suite.
        assert closure is None


def _suite_integrals():
    """(f, lo, hi) of every integral the identity suite computes."""
    quad_conv = kernels._quad_conv
    integrals = []

    def recording(f, lo, hi):
        integrals.append((f, lo, hi))
        return quad_conv(f, lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_quad_conv", recording)
        verify_identity_suite()
    return integrals


def test_quad_conv_equals_scipy_quad_bit_for_bit():
    # _quad_conv calls QUADPACK's private _qagse from the compiled module
    # it loads itself; a change of that call's signature or convention in
    # scipy, or a moved module, must fail here.
    integrals = _suite_integrals()
    assert len(integrals) == 158
    for f, lo, hi in integrals:
        assert lo < hi
        expected = integrate.quad(f, lo, hi, epsabs=1e-11, epsrel=0.0,
                                  limit=4000)[0]
        assert kernels._quad_conv(f, lo, hi) == expected


def test_quad_conv_is_nan_when_quadpack_fails():
    # QUADPACK gives up on 1/y with ier = 3 and 709.87; integrate.quad only
    # warns and returns that number, which the suite would have judged.
    with pytest.warns(integrate.IntegrationWarning):
        value = integrate.quad(lambda y: 1.0 / y, 0.0, 1.0, epsabs=1e-11,
                               epsrel=0.0, limit=4000)[0]
    assert 709.0 < value < 710.0
    assert math.isnan(kernels._quad_conv(lambda y: 1.0 / y, 0.0, 1.0))


def _integrand_body_nodes():
    """(function, node) for every AST node in the body of every function
    nested in the identity suite, the integrands among them. Only the
    bodies run per call; the defaults are per-case constants, evaluated
    once."""
    (suite,) = ast.parse(inspect.getsource(verify_identity_suite)).body
    for node in ast.walk(suite):
        if isinstance(node, ast.Lambda):
            name, body = "lambda", [node.body]
        elif isinstance(node, ast.FunctionDef) and node is not suite:
            name, body = node.name, node.body
        else:
            continue
        for stmt in body:
            for op in ast.walk(stmt):
                yield name, op


def test_identity_integrands_square_by_multiplication():
    # QUADPACK calls the integrands about 35 000 times per suite, and each
    # float ** 2 is a libm pow call.
    pows = [(name, ast.unparse(op)) for name, op in _integrand_body_nodes()
            if isinstance(op, ast.BinOp) and isinstance(op.op, ast.Pow)]
    # The one exception: (w * w) * (w * w) rounds twice, and the quartic
    # tail's largest error doubles from 4.441e-16 to 8.882e-16 with it.
    assert pows == [("lhs5", "w ** 4")]


def test_identity_integrands_negate_nothing():
    # Each sign (and the mix term's -2) is a per-case default, which keeps
    # every bit: -(a*a)/M == (a*a)/(-M) and (-2*x)/M == x/(M/-2).
    negations = [(name, ast.unparse(op)) for name, op in _integrand_body_nodes()
                 if isinstance(op, ast.UnaryOp) and isinstance(op.op, ast.USub)]
    assert negations == []


def test_gauss_legendre_panels_weights_sum():
    nodes, weights = gauss_legendre_panels(-3.0, 5.0, panels=7, order=12)
    assert weights.sum() == pytest.approx(8.0, abs=1e-12)
    assert nodes.min() > -3.0 and nodes.max() < 5.0
    value = float(np.dot(weights, np.exp(-nodes ** 2)))
    exact = math.sqrt(math.pi) / 2.0 * (math.erf(5.0) + math.erf(3.0))
    assert value == pytest.approx(exact, abs=1e-10)


@pytest.mark.parametrize("order", [12, 16])
def test_legendre_rule_built_once_per_order_and_read_only(order):
    nodes, weights = kernels._legendre_rule(order)
    assert kernels._legendre_rule(order)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
    fresh = np.polynomial.legendre.leggauss(order)
    assert nodes.tobytes() == fresh[0].tobytes()
    assert weights.tobytes() == fresh[1].tobytes()


def test_heat_kernel_unit_mass():
    p = GaussKernelParams(d=0.7, c=-2.0, t=3.0)
    x = np.linspace(-80, 80, 20001)
    mass = np.trapezoid(heat_kernel(x, p), x)
    assert mass == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("a,b,c", [(1.0, 0.0, 0.0), (0.5, 1.3, -0.2),
                                   (3.0, -2.0, 1.0)])
def test_gauss_integral_vs_mpmath(a, b, c):
    ref = float(mpmath.quad(lambda y: mpmath.exp(-a * y * y + b * y + c),
                            [-mpmath.inf, mpmath.inf]))
    assert gauss_integral(a, b, c) == pytest.approx(ref, rel=1e-12)


def test_linear_envelope_is_upper_bound():
    # Exact propagation of delta e^{-x^2/M} keeps a Gaussian with variance
    # M + 4 d t; the envelope freezes the shape at M(1+t), which dominates
    # exactly when M >= 4d.
    M, d, c, delta, t = 16.0, 1.0, 2.0, 1e-2, 7.0
    x = np.linspace(-60, 60, 2001)
    exact = delta * math.sqrt(M / (M + 4 * d * t)) * np.exp(
        -((x + c * t) ** 2) / (M + 4 * d * t))
    bound = linear_envelope_bound(x, t, M, d, c, delta)
    assert np.all(bound >= exact - 1e-15)


def test_linear_envelope_equality_at_matched_width():
    M, d, c, delta, t = 4.0, 1.0, 0.0, 1.0, 2.5
    x = np.linspace(-30, 30, 501)
    exact = delta * math.sqrt(M / (M + 4 * d * t)) * np.exp(
        -(x ** 2) / (M + 4 * d * t))
    bound = linear_envelope_bound(x, t, M, d, c, delta)
    assert np.max(np.abs(bound - exact)) < 1e-14


def test_linear_envelope_requires_wide_mass():
    with pytest.raises(ValueError):
        linear_envelope_bound(np.array([0.0]), 1.0, M=2.0, d=1.0, c=0.0,
                              delta=1.0)


def test_drag_integral_constant_integrand():
    # With equal velocities and no extra decay factors the integrand is
    # constant in s, so the integral is t * e^{...} / sqrt(1+t).
    t = 3.0
    assert drag_integral(-t * 1.0, t, 1.0, 1.0, 8.0) == pytest.approx(
        t / math.sqrt(1 + t), rel=1e-9)


def test_drag_profile_matches_pointwise():
    drag = dict(c_self=1.0, c_other=0.0, M=4.0, power_decay=1.5)
    x = np.linspace(-10, 5, 7)
    profile = drag_profile(x, 4.0, **drag)
    for xi, vi in zip(x, profile):
        assert vi == pytest.approx(drag_integral(float(xi), 4.0, **drag), abs=1e-7)


@pytest.mark.parametrize("M", [0.0, -1.0])
def test_drag_profile_rejects_nonpositive_m(M):
    with pytest.raises(ValueError, match="M must be positive"):
        drag_profile(np.zeros(3), 1.0, 1.0, 0.0, M)


@pytest.mark.parametrize("a,r", [(0.5, 0.0), (1.0, 2.0), (4.0, 10.0)])
def test_halfline_gauss_vs_mpmath(a, r):
    ref = float(mpmath.quad(
        lambda s: mpmath.exp(-a * (s - r) ** 2 / (1 + s)) / mpmath.sqrt(1 + s),
        [r, r + 200 / math.sqrt(a)]))
    assert halfline_gauss_integral(a, r) == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("a", [0.3, 1.0, 5.0])
def test_quartic_tail_vs_mpmath(a):
    # z = w^2 removes the endpoint singularity before handing to mpmath.
    ref = float(mpmath.quad(
        lambda w: 2 * mpmath.exp(-a * w ** 4), [0, mpmath.inf]))
    assert quartic_tail_integral(a) == pytest.approx(ref, rel=1e-10)


def test_conv_closed_forms_spot_check_vs_mpmath():
    x, t, s, c1, c2, M, d1 = 1.0, 5.0, 2.0, 0.0, 3.0, 8.0, 1.0
    a_ts = 1.0 / (M * (t - s))
    a_s = 1.0 / (M * (1 + s))

    same = float(mpmath.quad(
        lambda y: mpmath.exp(-a_ts * (x - y + c1 * (t - s)) ** 2
                             - a_s * (y + c1 * s) ** 2),
        [-mpmath.inf, mpmath.inf])) / (
            math.sqrt(4 * math.pi * d1 * (t - s)) * (1 + s) ** 2)
    assert conv_same_velocity(x, t, s, c1, M, d1) == pytest.approx(same, rel=1e-9)

    cross = float(mpmath.quad(
        lambda y: mpmath.exp(-a_ts * (x - y + c1 * (t - s)) ** 2
                             - a_s * (y + c2 * s) ** 2),
        [-mpmath.inf, mpmath.inf]))
    assert conv_cross_velocity(x, t, s, c1, c2, M) == pytest.approx(cross, rel=1e-9)

    mix = float(mpmath.quad(
        lambda y: mpmath.exp(-2 * a_ts * (x - y + c1 * (t - s)) ** 2
                             - a_s * (y + c1 * s) ** 2
                             - a_s * (y + c2 * s) ** 2),
        [-mpmath.inf, mpmath.inf])) / (
            math.sqrt(4 * math.pi * d1 * (t - s)) * (1 + s))
    assert conv_mix(x, t, s, c1, c2, M, d1) == pytest.approx(mix, rel=1e-9)


def _drag_weight_quad(x, s, c_self, c_other, M):
    """The drag-augmented weight by QUADPACK, each square-root endpoint
    handled by its algebraic weight."""
    def gaussian(r):
        shift = x + s * c_self + r * (c_other - c_self)
        return math.exp(-shift ** 2 / (M * (1.0 + s))) / math.sqrt(1.0 + s)

    near, _ = integrate.quad(lambda r: gaussian(r) / (1.0 + r) ** 0.75, 0.0, s,
                             weight="alg", wvar=(-0.5, 0.0),
                             epsabs=1e-13, epsrel=1e-13, limit=200)
    far, _ = integrate.quad(lambda r: gaussian(r) / (1.0 + r), 0.0, s,
                            weight="alg", wvar=(0.0, -0.5),
                            epsabs=1e-13, epsrel=1e-13, limit=200)
    return near + far


@pytest.mark.parametrize("s,c1,c2,M", [(3.0, 0.0, 1.0, 32.0),
                                       (0.7, -1.5, 2.0, 16.0)])
def test_drag_weight_rows_vs_quad(s, c1, c2, M):
    x = np.array([-2.5 * s, -s, 0.0, 0.5, 3.0])
    profile = drag_weight_profile(x, s, c1, c2, M)
    assert profile.shape == (2, len(x))
    for row, (c_self, c_other) in enumerate(((c1, c2), (c2, c1))):
        ref = [_drag_weight_quad(float(xi), s, c_self, c_other, M) for xi in x]
        np.testing.assert_allclose(profile[row], ref, rtol=0.0, atol=1e-8)


def test_drag_weight_rows_swap_with_velocities():
    x = np.linspace(-12.0, 6.0, 301)
    forward = drag_weight_profile(x, 2.5, 0.5, 2.0, 32.0)
    backward = drag_weight_profile(x, 2.5, 2.0, 0.5, 32.0)
    np.testing.assert_allclose(forward[1], backward[0], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(forward[0], backward[1], rtol=1e-13, atol=0.0)


def test_drag_weight_zero_at_initial_time():
    x = np.linspace(-5.0, 5.0, 11)
    np.testing.assert_array_equal(drag_weight_profile(x, 0.0, 0.0, 1.0, 16.0),
                                  np.zeros((2, len(x))))


@pytest.mark.parametrize("n", [0, 1])
def test_drag_weight_short_inputs(n):
    x = np.linspace(-1.0, 1.0, n)
    profile = drag_weight_profile(x, 1.0, 0.0, 1.0, 16.0)
    assert profile.shape == (2, n)
    if n:
        ref = drag_weight_profile(np.array([-1.0, 0.5]), 1.0, 0.0, 1.0, 16.0)
        assert profile[:, 0] == pytest.approx(ref[:, 0], abs=1e-8)


_SWEEP_NODES = np.linspace(-3.0, 2.0, 257)
_SWEEP_ROWS = _BLOCK_DOUBLES // len(_SWEEP_NODES)


@pytest.mark.parametrize("n", [0, 1, _SWEEP_ROWS - 1, _SWEEP_ROWS,
                               _SWEEP_ROWS + 1, 4 * _SWEEP_ROWS + 7])
def test_gaussian_sweep_blocks_match_dense(n):
    x = np.linspace(-8.0, 8.0, n)
    weights = np.random.default_rng(0).standard_normal((len(_SWEEP_NODES), 2))
    dense = np.exp(-(x[:, None] + _SWEEP_NODES[None, :]) ** 2 / 7.0) @ weights
    swept = _gaussian_sweep(x, _SWEEP_NODES, 7.0, weights)
    assert swept.shape == (n, 2)
    np.testing.assert_allclose(swept, dense, rtol=1e-13, atol=1e-13)
