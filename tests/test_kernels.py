"""Kernel closed forms against independent oracles (mpmath, scipy)."""

import functools
import math
import tracemalloc
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
    _GEMM_MADDS,
    _block_half_width,
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


def drag_integral(x: float, t: float, c_self: float, c_other: float,
                  M: float = 1.0, power_decay: float = 1.5, tol: float = 1e-9) -> float:
    """QUADPACK value of the drag integral at a single point.

    The pointwise oracle for drag_profile, whose M = 1 and (1+s)^{-3/2}
    are the defaults here: the same integrand, each point adapted on its
    own.
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
    assert report.passed()
    name, worst = report.worst()
    assert worst <= 1e-12, (name, worst)


def test_conv_lattice_has_s_before_t():
    # The convolution integrands divide by t - s with no guard.
    cases = _conv_lattice()
    assert len(cases) == 31
    for x, t, s, c1, c2, M in cases:
        assert 0.0 <= s < t, (x, t, s)


def _gauss_lhs(y, a, b, c):
    return math.exp(-a * y * y + b * y + c)


def _same_velocity_lhs(y, x, t, s, c1, c2, M, d1):
    return (math.exp(-(x - y + c1 * (t - s)) ** 2 / (M * (t - s))
                     - (y + c1 * s) ** 2 / (M * (1.0 + s)))
            / (math.sqrt(4.0 * math.pi * d1 * (t - s)) * (1.0 + s) ** 2))


def _mix_lhs(y, x, t, s, c1, c2, M, d1):
    return (math.exp(-2.0 * (x - y + c1 * (t - s)) ** 2 / (M * (t - s))
                     - (y + c1 * s) ** 2 / (M * (1.0 + s))
                     - (y + c2 * s) ** 2 / (M * (1.0 + s)))
            / (math.sqrt(4.0 * math.pi * d1 * (t - s)) * (1.0 + s)))


def _cross_velocity_lhs(y, x, t, s, c1, c2, M, d1):
    return math.exp(-(x - y + c1 * (t - s)) ** 2 / (M * (t - s))
                    - (y + c2 * s) ** 2 / (M * (1.0 + s)))


def _halfline_lhs(u, a, r):
    # The identity's own variable u = s - r, not the suite's t.
    return math.exp(-a * u * u / (1.0 + r + u)) / math.sqrt(1.0 + r + u)


def _quartic_lhs(w, a):
    return 2.0 * math.exp(-a * w ** 4)


def _identity_oracle_cases():
    """(f, lo, hi) of every left-hand side of the identity suite, in the
    order of IdentityReport.integrals: a scalar integrand on the suite's
    window."""
    cases = []
    for a, b, c in kernels._GAUSS_CASES:
        cases.append((functools.partial(_gauss_lhs, a=a, b=b, c=c),
                      *kernels._gauss_window(b / (2.0 * a), 1.0 / math.sqrt(a))))
    same, mix, cross = [], [], []
    window = kernels._product_gaussian_window
    for x, t, s, c1, c2, M in _conv_lattice():
        params = dict(x=x, t=t, s=s, c1=c1, c2=c2, M=M, d1=1.0)
        # Each Gaussian factor e^{-k (y - m)^2} as (k, m): the kernel, and
        # the data moving at c1 and at c2.
        k_ts, k_s = 1.0 / (M * (t - s)), 1.0 / (M * (1.0 + s))
        centre = x + c1 * (t - s)
        at_c1, at_c2 = (k_s, -c1 * s), (k_s, -c2 * s)
        same.append((functools.partial(_same_velocity_lhs, **params),
                     *window([(k_ts, centre), at_c1])))
        mix.append((functools.partial(_mix_lhs, **params),
                    *window([(2.0 * k_ts, centre), at_c1, at_c2])))
        cross.append((functools.partial(_cross_velocity_lhs, **params),
                      *window([(k_ts, centre), at_c2])))
    cases += same + mix + cross
    for a, r in kernels._HALFLINE_CASES:
        cases.append((functools.partial(_halfline_lhs, a=a, r=r),
                      0.0, 2.0 * kernels._halfline_cutoff(a, r)))
    for a in kernels._QUARTIC_CASES:
        cases.append((functools.partial(_quartic_lhs, a=a),
                      0.0, 2.0 * kernels._quartic_cutoff(a)))
    return cases


def test_identity_integrals_match_quadpack():
    # QUADPACK, adapted per case in each identity's own variable, is the
    # oracle of the suite's Gauss-Legendre panels.
    report = verify_identity_suite()
    cases = _identity_oracle_cases()
    assert len(report.integrals) == len(cases) == sum(report.cases.values()) == 158
    for value, (f, lo, hi) in zip(report.integrals, cases):
        expected, _, _, *failure = integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=0.0,
                                                  limit=4000, full_output=1)
        # QUADPACK flags roundoff (ier = 2) on a few integrals between 18 and
        # 83, where 1e-13 is a few ulps of the value; any other flag fails.
        assert not failure or failure[0].startswith("The occurrence of roundoff"), (
            f, failure)
        assert abs(value - expected) <= 1e-12, (f, value, expected)


def refinement_levels(monkeypatch):
    """Spy on _refine_panels: the list it returns gets, per refinement, the
    list of panel counts evaluated."""
    refine, levels = kernels._refine_panels, []

    def spy(evaluate):
        seen = []
        levels.append(seen)

        def recorded(panels):
            seen.append(panels)
            return evaluate(panels)
        return refine(recorded)

    monkeypatch.setattr(kernels, "_refine_panels", spy)
    return levels


def test_identity_families_accepted_at_16_panels(monkeypatch):
    # Every family's integrals move by at most _REFINE_TOL from 8 panels to
    # 16, far below _REFINE_CAP: a later window or change of variable that
    # slows a family fails here instead of quietly costing time.
    levels = refinement_levels(monkeypatch)
    verify_identity_suite()
    assert levels == [[8, 16]] * len(IDENTITY_NAMES)
    assert 16 < kernels._REFINE_CAP


def test_nan_case_ends_its_refinement(monkeypatch):
    # A NaN change is not more than _REFINE_TOL: one NaN case used to
    # double its family's panels up to _REFINE_CAP before it returned.
    a, b, _ = kernels._GAUSS_CASES[3]
    monkeypatch.setattr(kernels, "_GAUSS_CASES", (
        *kernels._GAUSS_CASES[:3], (a, b, math.nan), *kernels._GAUSS_CASES[4:]))
    levels = refinement_levels(monkeypatch)
    report = verify_identity_suite()
    assert levels == [[8, 16]] * len(IDENTITY_NAMES)
    assert math.isnan(report.max_abs_error["gauss"])
    assert report.worst()[0] == "gauss"
    assert not report.passed()


def test_identity_suite_evaluates_two_levels_in_one_call(monkeypatch):
    # Every family is accepted at 16 panels, so its integrand is evaluated
    # once, on the nodes of 8 and 16 panels of 16 points together: 158
    # cases times 384 nodes per suite. A suite that evaluates each level
    # apart makes twelve calls here.
    shapes = []
    integrals = kernels._panel_integrals

    def counted(integrand, lo, hi):
        def recorded(points):
            shapes.append(points.shape)
            return integrand(points)
        return integrals(recorded, lo, hi)

    monkeypatch.setattr(kernels, "_panel_integrals", counted)
    report = verify_identity_suite()
    nodes = kernels._GL_ORDER * 3 * kernels._REFINE_START
    assert nodes == 384
    assert shapes == [(report.cases[name], nodes) for name in report.cases]
    assert sum(rows * cols for rows, cols in shapes) == 158 * 384


@pytest.mark.parametrize("panels", [8, 16, 32])
def test_unit_rule_built_once_and_read_only(panels):
    nodes, weights = kernels._unit_panels(panels)
    assert kernels._unit_panels(panels)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
    fresh = gauss_legendre_panels(0.0, 1.0, panels)
    assert nodes.tobytes() == fresh[0].tobytes()
    assert weights.tobytes() == fresh[1].tobytes()


def test_gauss_legendre_panels_weights_sum():
    nodes, weights = gauss_legendre_panels(-3.0, 5.0, panels=7)
    assert weights.sum() == pytest.approx(8.0, abs=1e-12)
    assert nodes.min() > -3.0 and nodes.max() < 5.0
    value = float(np.dot(weights, np.exp(-nodes ** 2)))
    exact = math.sqrt(math.pi) / 2.0 * (math.erf(5.0) + math.erf(3.0))
    assert value == pytest.approx(exact, abs=1e-10)


def test_legendre_rule_built_once_and_read_only():
    nodes, weights = kernels._legendre_rule()
    assert kernels._legendre_rule()[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
    # The pinned table is leggauss's rule bit for bit, and integrates every
    # x^k with k <= 2*16 - 1 exactly.
    fresh = np.polynomial.legendre.leggauss(16)
    assert nodes.tobytes() == fresh[0].tobytes()
    assert weights.tobytes() == fresh[1].tobytes()
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert float(np.dot(weights, nodes ** k)) == pytest.approx(exact, abs=1e-15)


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
    assert drag_integral(-t * 1.0, t, 1.0, 1.0, 8.0, power_decay=0.0) == pytest.approx(
        t / math.sqrt(1 + t), rel=1e-9)


def test_drag_profile_matches_pointwise():
    drag = dict(c_self=1.0, c_other=0.0)
    x = np.linspace(-10, 5, 7)
    profile = drag_profile(x, 4.0, **drag)
    for xi, vi in zip(x, profile):
        assert vi == pytest.approx(drag_integral(float(xi), 4.0, **drag), abs=1e-7)


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
    # Evenly spaced, as the sweep requires: from -2.5 s to 3 in steps of
    # 0.05, which hold -2.5 s, -s, 0, 0.5 and 3.
    x = np.linspace(-2.5 * s, 3.0, round((3.0 + 2.5 * s) / 0.05) + 1)
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


def _dense_sweep(x, nodes, scale, weights):
    """The sweep with its whole (len(x), len(nodes)) Gaussian matrix."""
    return (np.exp(-(x[:, None] + nodes[None, :]) ** 2 / scale) @ weights).T


# Node counts around _SWEEP_ROWS, the rows of len(_SWEEP_X) that fill one
# cache block, and several blocks' worth.
_SWEEP_X = np.linspace(-8.0, 8.0, 257)
_SWEEP_ROWS = _BLOCK_DOUBLES // len(_SWEEP_X)


@pytest.mark.parametrize("m", [0, 1, _SWEEP_ROWS - 1, _SWEEP_ROWS,
                               _SWEEP_ROWS + 1, 4 * _SWEEP_ROWS + 7])
def test_gaussian_sweep_blocks_match_dense(m):
    nodes = np.linspace(-3.0, 2.0, m)
    weights = np.random.default_rng(0).standard_normal((m, 2))
    swept = _gaussian_sweep(_SWEEP_X, nodes, 7.0, weights)
    assert swept.shape == (2, len(_SWEEP_X))
    np.testing.assert_allclose(swept, _dense_sweep(_SWEEP_X, nodes, 7.0, weights),
                               rtol=1e-13, atol=1e-13)
    assert _gaussian_sweep(np.empty(0), nodes, 7.0, weights).shape == (2, 0)


def test_gaussian_sweep_tails_match_dense():
    # (x + node)^2 / scale reaches 684.5, so the smallest results are about
    # 1e-220: with positive weights every result is a sum of positive terms,
    # and rtol with no atol checks each one relative to its own size.
    x = np.linspace(-74.0, 64.0, 1001)
    rng = np.random.default_rng(1)
    for nodes in (np.linspace(0.0, 10.0, 300), np.array([3.5])):
        weights = rng.uniform(0.5, 1.5, (len(nodes), 2))
        dense = _dense_sweep(x, nodes, 8.0, weights)
        assert dense.min() < 1e-200
        np.testing.assert_allclose(_gaussian_sweep(x, nodes, 8.0, weights), dense,
                                   rtol=1e-12, atol=0)


@pytest.mark.parametrize("x,nodes", [
    (np.linspace(-2100.0, 100.0, 786), np.linspace(0.0, 2000.0, 300)),
    (np.linspace(-2100.0, 100.0, 786), np.linspace(0.0, 10.0, 300)),
    (np.linspace(-10100.0, -9900.0, 2001), np.linspace(0.0, 20000.0, 300)),
], ids=["wide-nodes", "far-points", "midpoint-of-wide-nodes"])
def test_gaussian_sweep_wide_extent_matches_dense(x, nodes):
    # In units of sqrt(scale) the first two cases' points span 778, about
    # 0.99 apart, and the wide nodes 707; blocks of x that reached one unit
    # would split an entry into factors near e^{2 * 389}, or e^{2 * 740} for
    # the points far from the narrow nodes. The last case's points span 71
    # at the midpoint of nodes spanning 7071, where a reach of 0.2 would
    # make factors near e^{0.4 * 3535}. Each is past exp's overflow; the
    # reach shrinks with the extent of points and nodes both.
    weights = np.random.default_rng(2).uniform(0.5, 1.5, (len(nodes), 2))
    swept = _gaussian_sweep(x, nodes, 8.0, weights)
    assert np.all(np.isfinite(swept))
    np.testing.assert_allclose(swept, _dense_sweep(x, nodes, 8.0, weights),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("m", [1, 300, 1024, 4096])
@pytest.mark.parametrize("k", [1, 2, 8])
def test_sweep_blocks_fit_cache_and_one_blas_thread(m, k):
    # However many points and however far the reach, the shared offset
    # matrix (m, B) fits the cache block, and each (k, m) @ (m, B) GEMM
    # stays at or below OpenBLAS's threading threshold of 4 * 65536.
    size = 2 * _block_half_width(10 ** 8, m, k, math.inf) + 1
    assert m * size <= _BLOCK_DOUBLES
    assert k * m * size <= _GEMM_MADDS == 4 * 65536


def test_gaussian_sweep_allocates_no_dense_matrix():
    # The dense (len(x), len(nodes)) matrix would be 32 MB; the sweep holds
    # its block buffer, its result and a few vectors of len(x) or len(nodes).
    x = np.linspace(-60.0, 60.0, 4096)
    nodes = np.linspace(-10.0, 10.0, 1024)
    weights = np.ones((len(nodes), 2))
    tracemalloc.start()
    try:
        result = _gaussian_sweep(x, nodes, 40.0, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = _BLOCK_DOUBLES * 8
    assert peak <= block + result.nbytes + 8 * 8 * (len(x) + len(nodes))


def test_drag_quadrature_goes_through_module_globals(monkeypatch):
    # The drag weights' quadrature nodes and refinement levels are counted by
    # wrapping these two module attributes, so both profiles must call them
    # through the module.
    calls = {"gauss_legendre_panels": 0, "_refine_panels": 0}

    def counted(name):
        original = getattr(kernels, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(kernels, name, wrapper)

    for name in calls:
        counted(name)
    x = np.linspace(-4.0, 4.0, 9)
    for profile in (lambda: drag_weight_profile(x, 1.5, 0.0, 1.0, 16.0),
                    lambda: drag_profile(x, 1.5, 1.0, 0.0)):
        for name in calls:
            calls[name] = 0
        profile()
        assert calls["gauss_legendre_panels"] >= 1
        assert calls["_refine_panels"] >= 1
