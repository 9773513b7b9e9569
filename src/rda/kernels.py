"""Drag integrals and the paper's convolution identities.

Everything here is a pure function of its arguments. One quadrature
serves the module: composite Gauss-Legendre panels (gauss_legendre_panels)
whose count _refine_panels doubles until the result stops moving.
drag_weight_profile is the drag envelope's weight and drag_profile the
exactly solvable benchmark's v, both on nodes shared across the grid.
Both sum Gaussians of the grid points over those nodes in
_gaussian_sweep. It cuts the evenly spaced points into blocks and splits
each Gaussian into three factors: one per block and node, one per point,
and one per node and offset within a block, which every block shares. A
block of B points then costs m + B exponentials for m nodes, and one
small matrix product.
The six closed forms (gauss_integral, conv_same_velocity, conv_mix,
conv_cross_velocity, halfline_gauss_integral, quartic_tail_integral) are
the paper's convolution identities. Their one caller is
verify_identity_suite, which checks each against its left-hand side
integrated on the same panels, every case of a family at once, so the
quadrature acts as the oracle for the algebra; the tests check those
left-hand sides against scipy's adaptive quadrature. Every family is
accepted at 16 panels, so _panel_integrals evaluates its integrand once
on the nodes of 8 and 16 panels together and sums each level with its
own weights. The [0, 1] rule (_unit_panels) is built once per panel count
and each family's columns and windows (_identity_families) once per set
of cases; the closed forms and integrals are computed on every call. The
suite takes about 0.8 ms. The Gauss-Legendre rule is a pinned table
(_legendre_rule), the half-line closed form reads the standard library's
exp and erfc, and the quartic tail's Gamma(5/4) is a literal: this module
loads no scipy module, numpy.polynomial or LAPACK routine, at import or
in any call.

Note on conv_same_velocity: the exact value of that convolution carries a
factor 1/2 relative to the way it is sometimes quoted; the closed form
below is the exact one (checked symbolically and against quadrature).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "IDENTITY_TOL",
    "IdentityReport",
    "gauss_integral",
    "drag_profile",
    "drag_weight_profile",
    "gauss_legendre_panels",
    "conv_same_velocity",
    "conv_mix",
    "conv_cross_velocity",
    "halfline_gauss_integral",
    "quartic_tail_integral",
    "verify_identity_suite",
]


def gauss_integral(a: float, b: float, c: float) -> float:
    """Exact value of the completed-square Gaussian integral.

    integral over R of e^{-a y^2 + b y + c} dy = sqrt(pi) e^{(b^2+4ac)/(4a)} / sqrt(a),
    for a > 0.
    """
    return math.sqrt(math.pi / a) * math.exp((b * b + 4.0 * a * c) / (4.0 * a))


_GL_ORDER = 16  # points of the Gauss-Legendre rule on each panel
# The nonnegative half of numpy.polynomial.legendre.leggauss(16), bit for
# bit: its nodes ascending, and the weight of each. The rule is symmetric
# about 0, and leggauss's is exactly so.
_GL_HALF_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                  0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                  0.9445750230732326, 0.9894009349916499)
_GL_HALF_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                    0.062253523938647456, 0.027152459411754176)


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The _GL_ORDER-point Gauss-Legendre nodes and weights on [-1, 1],
    ascending and read-only.

    A pinned table and not leggauss: importing numpy.polynomial costs
    about 4.4 ms and 0.9 MB, and leggauss's first call runs LAPACK's
    eigvalsh (the Golub-Welsch construction) for 1.0 MB more, to recompute
    the same 32 numbers. Built once, since the drag weights and the
    identity suite ask for it at every refinement level.
    """
    half_nodes, half_weights = np.array(_GL_HALF_NODES), np.array(_GL_HALF_WEIGHTS)
    rule = (np.concatenate((-half_nodes[::-1], half_nodes)),
            np.concatenate((half_weights[::-1], half_weights)))
    for values in rule:
        values.flags.writeable = False
    return rule


def gauss_legendre_panels(a: float, b: float, panels: int):
    """Composite Gauss-Legendre nodes/weights on [a, b] split into equal panels
    of _GL_ORDER points each.

    The module's one quadrature. The drag weights need the same s-integral
    at every grid point x at once, and the identity suite maps the nodes of
    [0, 1] onto every case's window at once, where adaptivity per point or
    per case would be wasteful. On smooth integrands over finite windows
    the panels converge geometrically as _refine_panels doubles them.
    """
    xg, wg = _legendre_rule()
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mids = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mids[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


# Block of the Gaussian sweep, in doubles: 512 KB, so the offset matrix
# that every block of x shares stays in cache while they multiply it.
_BLOCK_DOUBLES = 65536
# The most multiply-adds one GEMM of the sweep makes. OpenBLAS runs a GEMM
# of more on its thread pool, whose waiting threads take the CPU the run
# needs (solver._DOT_BLOCK's reason): one GEMM over all blocks of x at once
# took twice the sweep's wall time in CPU time.
_GEMM_MADDS = 4 * 65536
# The bound on the exponent of each factor the sweep splits an entry into.
# It keeps every factor far from exp's overflow, and every entry above
# e^{-(708 - _SPLIT_EXPONENT)}, where its factors are still normal floats,
# at full relative precision.
_SPLIT_EXPONENT = 16.0


def _block_half_width(n: int, m: int, k: int, steps: float) -> int:
    """h of the sweep's blocks of B = 2h + 1 points, for n points of x, m
    nodes, k weight columns and a reach of at most `steps` grid steps.

    B is at most sqrt(n), where the m n/B + m B exponentials are fewest;
    m B is at most _BLOCK_DOUBLES, the shared offset matrix, and k m B at
    most _GEMM_MADDS, each block's GEMM.
    """
    cap = min(_BLOCK_DOUBLES, _GEMM_MADDS // k) // m
    return max(0, int(min(math.isqrt(n) // 2, (cap - 1) // 2, steps)))


def _gaussian_sweep(x: np.ndarray, nodes: np.ndarray, scale: float,
                    weights: np.ndarray) -> np.ndarray:
    """sum over j of weights[j, :] e^{-(x_i + nodes_j)^2 / scale}, for every
    x_i of the ascending, evenly spaced x (nothing checks the spacing).

    weights is (len(nodes), k) and the result (k, len(x)). In units of
    sqrt(scale), shifted by the node midpoint c, the points are
    X_i = (x_i + c)/sqrt(scale) and the nodes N_j = (c - nodes_j)/sqrt(scale).
    x is cut into blocks of B = 2h + 1 points, block b anchored at its
    centre A_b, with offsets d_k = k dx/sqrt(scale) for |k| <= h, and

        e^{-(A_b + d_k - N_j)^2} = e^{-(A_b - N_j)^2} e^{-2 d_k A_b - d_k^2} e^{2 d_k N_j}.

    The last factor does not depend on the block, so its (m, B) matrix is
    built once, and each block costs m exponentials, B more and one
    (k, m) @ (m, B) GEMM: the fast Gauss transform (Greengard and Strain,
    1991) on a uniform grid, where it needs no expansion. The first factor
    is taken from the unscaled x + nodes, as an entry alone would be. With
    |X| + |N| at most extent, offsets of at most reach keep the exponent of
    each factor, and the first factor's distance from the entry's, within
    2 reach extent + 3 reach^2; reach makes that _SPLIT_EXPONENT, however
    wide the nodes and x, and _block_half_width takes B within it. No
    (len(x), m) matrix is allocated. B fixes the rounding of the factors
    and the order in which BLAS sums each product, so a change of B moves
    the last bits of every weight.
    """
    n, m, k = len(x), len(nodes), weights.shape[1]
    out = np.zeros((k, n))
    if n == 0 or m == 0:
        return out
    root = 1.0 / math.sqrt(scale)
    lo, hi = float(nodes.min()), float(nodes.max())
    c = 0.5 * (lo + hi)
    dx = (x[-1] - x[0]) / (n - 1) if n > 1 else 0.0
    step = dx * root
    extent = (max(abs(x[0] + c), abs(x[-1] + c)) + 0.5 * (hi - lo)) * root
    # The positive root of 2 reach extent + 3 reach^2 = _SPLIT_EXPONENT.
    reach = _SPLIT_EXPONENT / (
        extent + math.sqrt(extent * extent + 3.0 * _SPLIT_EXPONENT))
    h = _block_half_width(n, m, k, reach / step if step > 0 else 0.0)
    size = 2 * h + 1
    offsets = np.arange(-h, h + 1) * step
    shared = np.multiply.outer((c - nodes) * root, 2.0 * offsets)
    np.exp(shared, out=shared)
    anchors = x[0] + (np.arange(0, n, size) + h) * dx
    per_block = np.multiply.outer((anchors + c) * root, -2.0 * offsets)
    per_block -= offsets * offsets
    np.exp(per_block, out=per_block)
    gauss = np.empty(m)
    for b, start in enumerate(range(0, n, size)):
        np.add(nodes, anchors[b], out=gauss)
        gauss *= root
        np.square(gauss, out=gauss)
        np.negative(gauss, out=gauss)
        np.exp(gauss, out=gauss)
        block = (weights.T * gauss) @ shared
        block *= per_block[b]
        out[:, start:start + size] = block[:, :n - start]
    return out


_REFINE_START = 8
_REFINE_CAP = 1024
_REFINE_TOL = 1e-8


def _refine_panels(evaluate):
    """Double composite-GL panel counts from _REFINE_START until the
    profile moves by no more than _REFINE_TOL, or the count reaches
    _REFINE_CAP. A NaN change is not more than _REFINE_TOL, so a NaN
    ends the doubling: more panels cannot mend it."""
    panels = _REFINE_START
    prev = evaluate(panels)
    while panels < _REFINE_CAP:
        panels *= 2
        cur = evaluate(panels)
        if not float(np.max(np.abs(cur - prev), initial=0.0)) > _REFINE_TOL:
            return cur
        prev = cur
    return prev


def drag_profile(x: np.ndarray, t: float, c_self: float, c_other: float) -> np.ndarray:
    """Drag integral over an array of spatial points.

    integral over s in [0, t] of
        e^{-(x + t c_self + s(c_other-c_self))^2 / (1+t)}
        / (sqrt(1+t) (1+s)^{3/2}) ds,

    for t > 0: the exactly solvable benchmark's v up to a constant, a
    Gaussian swept from the c_self-comoving frame to the c_other one.

    The s-quadrature nodes are shared across all x, which is what the
    exact-solution comparison needs (one integral per grid point would
    re-adapt the same smooth integrand thousands of times). x is ascending
    and evenly spaced, as _gaussian_sweep requires: the grid's points.
    """
    x = np.asarray(x, dtype=float)
    root = 1.0 / math.sqrt(1.0 + t)
    shifted = x + t * c_self
    dc = c_other - c_self

    def evaluate(panels):
        s, w = gauss_legendre_panels(0.0, t, panels)
        w = w * (root / (1.0 + s) ** 1.5)
        return _gaussian_sweep(shifted, s * dc, 1.0 + t, w[:, None])[0]

    return _refine_panels(evaluate)


def drag_weight_profile(x: np.ndarray, s: float, c1: float, c2: float,
                        M: float) -> np.ndarray:
    """Drag-augmented weight integrals of both components at sample time s.

    Row 0 of the (2, len(x)) result is u's weight (c_self = c1, c_other =
    c2) and row 1 is v's (c_self = c2, c_other = c1), each

    integral over r in [0, s] of
        e^{-(x + s c_self + r(c_other-c_self))^2 / (M(1+s))}
        / (sqrt(1+s)(1+r)) * ((1+r)^{1/4}/sqrt(r) + 1/sqrt(s-r)) dr.

    Both endpoint singularities are integrable square roots; r = w^2 and
    r = s - w^2 remove them, with w on one set of GL nodes in [0, sqrt(s)].
    In c1's frame v's Gaussian at r is u's at s - r, so one sweep over the
    nodes [w^2, s - w^2] with a (2m, 2) weight matrix serves both rows.
    x is ascending and evenly spaced, as _gaussian_sweep requires: a
    segment of the grid's points. The panel count is refined until both
    rows stop moving. s <= 0 gives zeros.
    """
    x = np.asarray(x, dtype=float)
    if s <= 0:
        return np.zeros((2, len(x)))
    root = 1.0 / math.sqrt(1.0 + s)
    shifted = x + s * c1
    dc = c2 - c1
    scale = M * (1.0 + s)

    def evaluate(panels):
        w, q = gauss_legendre_panels(0.0, math.sqrt(s), panels)
        near = w * w
        far = s - near
        # 1/((1+r)^{3/4} sqrt(r)) at r = w^2, 1/((1+r) sqrt(s-r)) at r = s - w^2.
        at_near = q * (2.0 * root / (1.0 + near) ** 0.75)
        at_far = q * (2.0 * root / (1.0 + far))
        weights = np.column_stack((np.concatenate((at_near, at_far)),
                                   np.concatenate((at_far, at_near))))
        nodes = np.concatenate((near, far)) * dc
        return _gaussian_sweep(shifted, nodes, scale, weights)

    return _refine_panels(evaluate)


# ---------------------------------------------------------------------------
# Closed forms of the identity suite
# ---------------------------------------------------------------------------

def conv_same_velocity(x: float, t: float, s: float, c1: float, M: float, d1: float) -> float:
    """Exact value of the same-velocity Gaussian convolution.

    integral over y of
        e^{-(x-y+c1(t-s))^2/(M(t-s)) - (y+c1 s)^2/(M(1+s))}
        / (sqrt(4 pi d1 (t-s)) (1+s)^2) dy
      = sqrt(M) e^{-(x+c1 t)^2/(M(1+t))} / (2 sqrt(d1(1+t)) (1+s)^{3/2}).
    """
    return (
        math.sqrt(M) * math.exp(-((x + c1 * t) ** 2) / (M * (1.0 + t)))
        / (2.0 * math.sqrt(d1 * (1.0 + t)) * (1.0 + s) ** 1.5)
    )


def conv_mix(x: float, t: float, s: float, c1: float, c2: float, M: float, d1: float) -> float:
    """Exact value of the mix-term convolution; carries the velocity-gap damping.

    integral over y of
        e^{-2(x-y+c1(t-s))^2/(M(t-s)) - (y+c1 s)^2/(M(1+s)) - (y+c2 s)^2/(M(1+s))}
        / (sqrt(4 pi d1 (t-s)) (1+s)) dy.

    The s^2(t-s)(c1-c2)^2 term in the exponent is the exponential damping of
    products of Gaussians drifting at different speeds.
    """
    expo = (
        -((x + c1 * t) ** 2) / (M * (1.0 + t))
        - s * s * (t - s) * (c1 - c2) ** 2 / (2.0 * M * (1.0 + s) * (1.0 + t))
        - ((x + c1 * t + s * (c2 - c1)) ** 2) / (M * (1.0 + t))
    )
    return math.sqrt(M) * math.exp(expo) / (2.0 * math.sqrt(2.0 * d1 * (1.0 + t) * (1.0 + s)))


def conv_cross_velocity(x: float, t: float, s: float, c1: float, c2: float, M: float) -> float:
    """Exact value of the cross-velocity Gaussian convolution.

    integral over y of e^{-(x-y+c1(t-s))^2/(M(t-s)) - (y+c2 s)^2/(M(1+s))} dy
      = e^{-(x + c1 t + (c2-c1)s)^2/(M(1+t))} sqrt(pi M (1+s)(t-s)/(1+t)).
    """
    return (
        math.exp(-((x + c1 * t + (c2 - c1) * s) ** 2) / (M * (1.0 + t)))
        * math.sqrt(math.pi * M * (1.0 + s) * (t - s) / (1.0 + t))
    )


def halfline_gauss_integral(a: float, r: float) -> float:
    """integral over s in [r, inf) of e^{-(s-r)^2 a/(1+s)} / sqrt(1+s) ds,
    for a > 0, r >= 0 and q = 4a(r+1) <= 700.

    Closed form sqrt(pi)(e^q erfc(sqrt(q)) + 1)/(2 sqrt(a)), from the
    standard library's exp and erfc. Past q = 709.78, e^q overflows. The
    suite's largest q is 176, and on its cases e^q erfc(sqrt(q)) agrees
    with mpmath to 6.8e-15 relative, far below IDENTITY_TOL.
    """
    q = 4.0 * a * (r + 1.0)
    scaled = math.exp(q) * math.erfc(math.sqrt(q))
    return math.sqrt(math.pi) * (scaled + 1.0) / (2.0 * math.sqrt(a))


# Gamma(5/4), correctly rounded; math.gamma(1.25) is two ulps above it.
_GAMMA_5_4 = 0.906402477055477


def quartic_tail_integral(a: float) -> float:
    """integral over z in [0, inf) of e^{-z^2 a}/sqrt(z) dz = 2 Gamma(5/4) / a^{1/4},
    for a > 0."""
    return 2.0 * _GAMMA_5_4 / a ** 0.25


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

# The largest quadrature-vs-closed-form error the identity suite passes.
IDENTITY_TOL = 1e-8

_VELOCITY_PAIRS = ((0.0, 1.0), (0.0, 10.0), (-2.0, 3.0))
_TIMES = (0.5, 1.0, 5.0, 20.0)
_S_FRACTIONS = (0.0, 0.25, 0.5, 0.75)
_X_VALUES = (0.0, 1.0, -1.0, 5.0, -5.0)

# (a, b, c) of the completed-square cases, (a, r) of the half-line ones and
# a of the quartic-tail ones.
_GAUSS_CASES = tuple((a, b, (-1.0, 0.0, 1.0)[i % 3]) for i, (a, b) in enumerate(
    itertools.product((0.5, 1.0, 2.0, 5.0), (-3.0, -1.0, 0.0, 1.5, 2.0))))
_HALFLINE_CASES = tuple(itertools.product((0.25, 0.5, 1.0, 2.0, 4.0),
                                          (0.0, 0.5, 1.0, 3.0, 10.0)))
_QUARTIC_CASES = tuple(float(a) for a in np.geomspace(0.1, 50.0, 20))


@dataclass(frozen=True)
class IdentityReport:
    """Max absolute quadrature-vs-closed-form discrepancy per identity, and
    the left-hand sides the quadrature returned, family by family (gauss,
    conv_same_velocity, conv_mix, conv_cross_velocity, halfline_gauss,
    quartic_tail), each family's cases in the order of its lattice."""
    max_abs_error: dict[str, float] = field(default_factory=dict)
    cases: dict[str, int] = field(default_factory=dict)
    integrals: tuple[float, ...] = ()

    def worst(self) -> tuple[str, float]:
        """The family with the largest error; a NaN error ranks above any number."""
        errors = self.max_abs_error
        name = max(errors, key=lambda k: (math.isnan(errors[k]), errors[k]))
        return name, errors[name]

    def passed(self) -> bool:
        return self.worst()[1] <= IDENTITY_TOL


# The identity suite's integration windows, in standard widths around the
# integrand's centre: e^{-64} of a Gaussian's peak, e^{-81} of a product's.
# The half-line and quartic-tail windows end at twice the point where the
# exponent reaches _TAIL_EXPONENT.
_GAUSS_SPREAD = 8.0
_PRODUCT_SPREAD = 9.0
_TAIL_EXPONENT = 45.0


def _gauss_window(center, width):
    return center - _GAUSS_SPREAD * width, center + _GAUSS_SPREAD * width


def _conv_lattice():
    """Shared (x, t, s, c1, c2, M) lattice for the convolution identities."""
    cases = []
    i = 0
    for t in _TIMES:
        for frac in _S_FRACTIONS:
            s = frac * t
            x = _X_VALUES[i % len(_X_VALUES)]
            c1, c2 = _VELOCITY_PAIRS[i % len(_VELOCITY_PAIRS)]
            M = (4.0, 8.0, 32.0)[i % 3]
            cases.append((x, t, s, c1, c2, M))
            i += 1
    # A second sweep with the x-lattice exercised fully at a fixed time.
    for x in _X_VALUES:
        for c1, c2 in _VELOCITY_PAIRS:
            cases.append((x, 5.0, 1.25, c1, c2, 16.0))
    return tuple(cases)


def _product_gaussian_window(terms):
    """Integration window for a product of Gaussians e^{-a_i (y - m_i)^2}.

    The product is itself a Gaussian with curvature sum(a_i) and center at
    the curvature-weighted mean; integrating _PRODUCT_SPREAD standard widths
    around that center captures everything above e^{-_PRODUCT_SPREAD^2}.
    The a_i and m_i may be arrays of cases.
    """
    total = sum(a for a, _ in terms)
    center = sum(a * m for a, m in terms) / total
    width = 1.0 / np.sqrt(total)
    return center - _PRODUCT_SPREAD * width, center + _PRODUCT_SPREAD * width


def _halfline_cutoff(a, r):
    """The u > 0 where a u^2 / (1 + r + u) reaches _TAIL_EXPONENT: the root of
    a u^2 - K u - K(1 + r) for K = _TAIL_EXPONENT."""
    K = _TAIL_EXPONENT
    return (K + np.sqrt(K * K + 4.0 * a * K * (1.0 + r))) / (2.0 * a)


def _quartic_cutoff(a):
    """The w > 0 where a w^4 reaches _TAIL_EXPONENT."""
    return (_TAIL_EXPONENT / a) ** 0.25


@functools.cache
def _unit_panels(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """gauss_legendre_panels(0, 1, panels), read-only: the identity suite's
    rule at one refinement level, built once per panel count."""
    rule = gauss_legendre_panels(0.0, 1.0, panels)
    for values in rule:
        values.flags.writeable = False
    return rule


def _panel_integrals(integrand, lo, hi) -> np.ndarray:
    """The integral of integrand over [lo[k], hi[k]] for every case k.

    The composite Gauss-Legendre nodes of [0, 1] (_unit_panels) are mapped
    onto every case's window at once, and integrand takes the (cases,
    nodes) array of points, row k in case k's window, to the integrand's
    values there. The panel count is refined by _refine_panels, as the drag
    weights' is, until no case's integral moves by more than _REFINE_TOL.
    Every family of the suite is accepted at 2 _REFINE_START panels, so
    the nodes of _REFINE_START and 2 _REFINE_START panels are evaluated in
    one integrand call, (cases, 384) points, and each level is summed with
    its own weights; a later level is evaluated when _refine_panels asks.
    """
    lo = np.reshape(lo, (-1, 1))
    width = np.reshape(hi, (-1, 1)) - lo
    scale = width[:, 0]
    first, second = _REFINE_START, 2 * _REFINE_START
    nodes, weights = _unit_panels(first)
    next_nodes, next_weights = _unit_panels(second)
    values = integrand(lo + width * np.concatenate((nodes, next_nodes)))
    # Two matrix-vector products: one GEMM against a block-diagonal weight
    # matrix would add its zero blocks in, and move the integrals' bits.
    split = len(nodes)
    levels = {first: (values[:, :split] @ weights) * scale,
              second: (values[:, split:] @ next_weights) * scale}

    def evaluate(panels):
        if panels in levels:
            return levels[panels]
        nodes, weights = _unit_panels(panels)
        return (integrand(lo + width * nodes) @ weights) * scale

    return _refine_panels(evaluate)


def _columns(cases):
    """One (cases, 1) column per parameter of a tuple of parameter tuples."""
    return [np.array(column)[:, None] for column in zip(*cases)]


@functools.lru_cache(maxsize=1)
def _identity_families(gauss_cases, lattice, halfline_cases, quartic_cases):
    """(name, integrand, lo, hi) of each family of the identity suite, in the
    order of IdentityReport.integrals: the integrand over the (cases, nodes)
    points of _panel_integrals and the cases' windows, read-only.

    Built once per set of cases, from the columns of the case tuples it is
    handed; nothing the suite verifies is kept here. The half-line family
    integrates in t = sqrt(1 + r + u), where its integrand is
    2 e^{-a (t^2 - 1 - r)^2 / t^2}: in u the branch point of
    sqrt(1 + r + u) lies one unit from the window, and uniform panels need
    128-256 of them, where in t every family is accepted at 16.
    """
    families = []

    # Completed-square Gaussian integral.
    ga, gb, gc = _columns(gauss_cases)
    families.append(("gauss", lambda y: np.exp(-ga * y * y + gb * y + gc),
                     *_gauss_window(gb / (2.0 * ga), 1.0 / np.sqrt(ga))))

    x, t, s, c1, c2, M = _columns(lattice)
    d1 = 1.0
    xc, m1, m2 = x + c1 * (t - s), c1 * s, c2 * s
    M_ts, M_s = M * (t - s), M * (1.0 + s)
    root = np.sqrt(4.0 * np.pi * d1 * (t - s))
    a_ts, a_s = 1.0 / M_ts, 1.0 / M_s
    same_scale, mix_scale = root * (1.0 + s) ** 2, root * (1.0 + s)
    families.append((
        "conv_same_velocity",
        lambda y: np.exp(-(xc - y) ** 2 / M_ts - (y + m1) ** 2 / M_s) / same_scale,
        *_product_gaussian_window([(a_ts, xc), (a_s, -m1)])))
    families.append((
        "conv_mix",
        lambda y: np.exp(-2.0 * (xc - y) ** 2 / M_ts - (y + m1) ** 2 / M_s
                         - (y + m2) ** 2 / M_s) / mix_scale,
        *_product_gaussian_window([(2.0 * a_ts, xc), (a_s, -m1), (a_s, -m2)])))
    families.append((
        "conv_cross_velocity",
        lambda y: np.exp(-(xc - y) ** 2 / M_ts - (y + m2) ** 2 / M_s),
        *_product_gaussian_window([(a_ts, xc), (a_s, -m2)])))

    # Half-line Gaussian integral (erfc closed form), u = t^2 - 1 - r.
    ha, hr = _columns(halfline_cases)
    r1 = 1.0 + hr
    families.append(("halfline_gauss",
                     lambda t: 2.0 * np.exp(-ha * ((t * t - r1) / t) ** 2),
                     np.sqrt(r1), np.sqrt(r1 + 2.0 * _halfline_cutoff(ha, hr))))

    # Quartic-tail integral (Gamma closed form), z = w^2.
    qa = np.array(quartic_cases)[:, None]
    families.append(("quartic_tail", lambda w: 2.0 * np.exp(-qa * w ** 4),
                     np.zeros((1, 1)), 2.0 * _quartic_cutoff(qa)))

    for _, _, lo, hi in families:
        lo.flags.writeable = hi.flags.writeable = False
    return tuple(families)


def verify_identity_suite() -> IdentityReport:
    """Evaluate every identity's left-hand side by quadrature and its right-
    hand side in closed form.

    Each family integrates all its cases as one numpy expression over a
    (cases, nodes) array (_panel_integrals), with the integrand and windows
    of _identity_families. The reported numbers are the actual
    discrepancies, which the caller judges against IDENTITY_TOL. The
    closed forms are scalar, called once per case on every call, and a
    NaN error stays the family's maximum.
    """
    errors: dict[str, float] = {}
    counts: dict[str, int] = {}
    integrals: list[float] = []
    lattice = _conv_lattice()
    closed_forms = {
        "gauss": [gauss_integral(*case) for case in _GAUSS_CASES],
        "conv_same_velocity": [conv_same_velocity(x, t, s, c1, M, 1.0)
                               for x, t, s, c1, _, M in lattice],
        "conv_mix": [conv_mix(*case, 1.0) for case in lattice],
        "conv_cross_velocity": [conv_cross_velocity(*case) for case in lattice],
        "halfline_gauss": [halfline_gauss_integral(*case) for case in _HALFLINE_CASES],
        "quartic_tail": [quartic_tail_integral(a) for a in _QUARTIC_CASES],
    }
    for name, integrand, lo, hi in _identity_families(
            _GAUSS_CASES, lattice, _HALFLINE_CASES, _QUARTIC_CASES):
        lhs, rhs = _panel_integrals(integrand, lo, hi), closed_forms[name]
        integrals.extend(lhs.tolist())
        # np.max propagates a NaN, where max(0.0, nan) would drop it.
        errors[name] = float(np.max(np.abs(lhs - np.array(rhs))))
        counts[name] = len(rhs)

    return IdentityReport(max_abs_error=errors, cases=counts,
                          integrals=tuple(integrals))
