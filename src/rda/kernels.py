"""Closed-form Gaussian/drift kernels and the integral-identity suite.

Everything here is a pure function of its arguments. The closed forms are
the analytic building blocks of the envelope machinery; each one is paired
with a left-hand side integrated by QUADPACK in verify_identity_suite, so
the quadrature acts as the oracle for the algebra. QUADPACK's _qagse is
called with the arguments scipy.integrate.quad passes it, from the
compiled module loaded on the suite's first integral by
_scipy_ext.load_extension: rda never imports the scipy.integrate package,
which loads scipy.optimize, scipy.sparse and scipy.linalg with it (about
160 ms and 24 MB). Unlike quad, which only warns, a QUADPACK failure
gives a nan integral, which fails the suite.

Note on conv_same_velocity: the exact value of that convolution carries a
factor 1/2 relative to the way it is sometimes quoted; the closed form
below is the exact one (checked symbolically and against quadrature).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._scipy_ext import load_extension

# scipy.special's own ufuncs, loaded without importing the package.
_special = load_extension("scipy.special._special_ufuncs")
erfcx, gamma = _special.erfcx, _special.gamma

__all__ = [
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

    integral over R of e^{-a y^2 + b y + c} dy = sqrt(pi) e^{(b^2+4ac)/(4a)} / sqrt(a).
    """
    if a <= 0:
        raise ValueError("a must be positive")
    return math.sqrt(math.pi / a) * math.exp((b * b + 4.0 * a * c) / (4.0 * a))


@functools.cache
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-point Gauss-Legendre nodes and weights on [-1, 1], read-only.

    leggauss costs about 0.4 ms, and the drag refinement asks for the same
    rule at every level.
    """
    rule = np.polynomial.legendre.leggauss(order)
    for values in rule:
        values.flags.writeable = False
    return rule


def gauss_legendre_panels(a: float, b: float, panels: int, order: int = 16):
    """Composite Gauss-Legendre nodes/weights on [a, b] split into equal panels.

    Used by the vectorized envelope evaluators, where the same s-integral is
    needed simultaneously at every grid point x and adaptivity per point
    would be wasteful.
    """
    xg, wg = _legendre_rule(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mids = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mids[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


# Row block of the Gaussian sweep, in doubles: 512 KB, so the block and
# its exponentials stay in cache while the weights are applied.
_BLOCK_DOUBLES = 65536


def _gaussian_sweep(x: np.ndarray, nodes: np.ndarray, scale: float,
                    weights: np.ndarray) -> np.ndarray:
    """sum over j of e^{-(x_i + nodes_j)^2 / scale} weights[j, :], for every x_i.

    weights is (len(nodes), k) and the result (len(x), k). The Gaussian
    matrix is built in row blocks of about 512 KB in one reused buffer, so
    no (len(x), len(nodes)) temporary is allocated. The block size and the
    np.dot layout stay as they are: BLAS sums the products in an order that
    depends on both, so another block size or a transposed product changes
    the weights' last bits.
    """
    out = np.empty((len(x), weights.shape[1]))
    rows = max(1, _BLOCK_DOUBLES // len(nodes))
    buf = np.empty((min(rows, len(x)), len(nodes)))
    for start in range(0, len(x), rows):
        xb = x[start:start + rows]
        block = buf[:len(xb)]
        np.add(xb[:, None], nodes, out=block)
        np.square(block, out=block)
        block /= -scale
        np.exp(block, out=block)
        np.dot(block, weights, out=out[start:start + len(xb)])
    return out


_REFINE_START = 8
_REFINE_CAP = 1024
_REFINE_TOL = 1e-8


def _refine_panels(evaluate):
    """Double composite-GL panel counts from _REFINE_START until the
    profile moves by at most _REFINE_TOL, or the count reaches _REFINE_CAP."""
    panels = _REFINE_START
    prev = evaluate(panels)
    while panels < _REFINE_CAP:
        panels *= 2
        cur = evaluate(panels)
        if float(np.max(np.abs(cur - prev), initial=0.0)) <= _REFINE_TOL:
            return cur
        prev = cur
    return prev


def drag_profile(x: np.ndarray, t: float, c_self: float, c_other: float,
                 M: float, power_decay: float = 0.0) -> np.ndarray:
    """Drag integral over an array of spatial points.

    integral over s in [0, t] of
        e^{-(x + t c_self + s(c_other-c_self))^2 / (M(1+t))}
        / (sqrt(1+t) (1+s)^{power_decay}) ds,

    a Gaussian whose center sweeps from the c_self-comoving frame to the
    c_other one, damped algebraically in (1+s).

    The s-quadrature nodes are shared across all x, which is what the
    envelope checks and the exact-solution comparison need (one integral
    per grid point would re-adapt the same smooth integrand thousands of
    times).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if M <= 0:
        raise ValueError("M must be positive")
    x = np.asarray(x, dtype=float)
    root = 1.0 / math.sqrt(1.0 + t)
    shifted = x + t * c_self
    dc = c_other - c_self
    scale = M * (1.0 + t)

    def evaluate(panels):
        s, w = gauss_legendre_panels(0.0, t, panels)
        w = w * (root / (1.0 + s) ** power_decay)
        return _gaussian_sweep(shifted, s * dc, scale, w[:, None])[:, 0]

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
    In c1's frame v's Gaussian at r is u's at s - r, so one Gaussian matrix
    over the nodes [w^2, s - w^2] serves both rows: it is evaluated in row
    blocks of about 512 KB and multiplied by a (2m, 2) weight matrix. The
    panel count is refined until both rows stop moving. s <= 0 gives zeros.
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
        return _gaussian_sweep(shifted, nodes, scale, weights).T

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
    """integral over s in [r, inf) of e^{-(s-r)^2 a/(1+s)} / sqrt(1+s) ds.

    Closed form sqrt(pi)(e^{4a(r+1)} erfc(sqrt(4a(r+1))) + 1)/(2 sqrt(a)),
    evaluated through erfcx to dodge the overflow/underflow pair.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if r < 0:
        raise ValueError("r must be nonnegative")
    return math.sqrt(math.pi) * (erfcx(math.sqrt(4.0 * a * (r + 1.0))) + 1.0) / (2.0 * math.sqrt(a))


def quartic_tail_integral(a: float) -> float:
    """integral over z in [0, inf) of e^{-z^2 a}/sqrt(z) dz = 2 Gamma(5/4) / a^{1/4}."""
    if a <= 0:
        raise ValueError("a must be positive")
    return 2.0 * gamma(1.25) / a ** 0.25


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

_VELOCITY_PAIRS = ((0.0, 1.0), (0.0, 10.0), (-2.0, 3.0))
_TIMES = (0.5, 1.0, 5.0, 20.0)
_S_FRACTIONS = (0.0, 0.25, 0.5, 0.75)
_X_VALUES = (0.0, 1.0, -1.0, 5.0, -5.0)


@dataclass(frozen=True)
class IdentityReport:
    """Max absolute quadrature-vs-closed-form discrepancy per identity, and
    the values the QUADPACK integrals returned, in call order."""
    max_abs_error: dict[str, float] = field(default_factory=dict)
    cases: dict[str, int] = field(default_factory=dict)
    integrals: tuple[float, ...] = ()

    def worst(self) -> tuple[str, float]:
        """The family with the largest error; a NaN error ranks above any number."""
        errors = self.max_abs_error
        name = max(errors, key=lambda k: (math.isnan(errors[k]), errors[k]))
        return name, errors[name]

    def passed(self, tol: float = 1e-8) -> bool:
        return self.worst()[1] <= tol


def _gauss_window(center: float, width: float, spread: float = 8.0):
    return center - spread * width, center + spread * width


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
    return cases


@functools.cache
def _quadpack():
    """scipy's QUADPACK module, loaded on first use: `rda run` never integrates."""
    return load_extension("scipy.integrate._quadpack")


def _quad_conv(f, lo: float, hi: float) -> float:
    """QUADPACK integral of f over [lo, hi] to an absolute tolerance of 1e-11,
    or nan when QUADPACK reports a failure (ier != 0).

    This is integrate.quad(f, lo, hi, epsabs=1e-11, epsrel=0.0, limit=4000)
    for lo < hi: the same _qagse call, without quad's argument handling.
    """
    value, _, ier = _quadpack()._qagse(f, lo, hi, (), 0, 1e-11, 0.0, 4000)
    return value if ier == 0 else math.nan


def _product_gaussian_window(terms, spread: float = 9.0):
    """Integration window for a product of Gaussians e^{-a_i (y - m_i)^2}.

    The product is itself a Gaussian with curvature sum(a_i) and center at
    the curvature-weighted mean; integrating spread standard widths around
    that center captures everything above e^{-spread^2}.
    """
    total = sum(a for a, _ in terms)
    center = sum(a * m for a, m in terms) / total
    width = 1.0 / math.sqrt(total)
    return center - spread * width, center + spread * width


def verify_identity_suite() -> IdentityReport:
    """Evaluate every identity LHS by quadrature and RHS in closed form.

    The quadrature runs to an absolute tolerance of 1e-11; the reported
    numbers are the actual discrepancies, which the caller judges
    (the acceptance gate is 1e-8).

    QUADPACK calls each integrand one point at a time, about 35 000 times
    per suite, so the integrands are scalar functions of `math.exp` and
    `math.sqrt` (a numpy ufunc costs about twice as much on a Python
    float), bound as defaults like every per-case constant, and everything
    that does not depend on the integration variable is computed once per
    case. The integrands square by multiplication, since a float ** 2 is a
    libm pow call. Only the quartic tail keeps w ** 4: (w * w) * (w * w)
    rounds twice and doubles that identity's largest error.

    Each exponent's sign, and the mix term's factor -2, is folded into a
    per-case default (-a, -M(t-s), M(t-s)/-2), so no integrand negates per
    call. This changes no bit: IEEE multiplication and division are
    sign-symmetric, and scaling by a power of two is exact, so
    -(a*a)/M == (a*a)/(-M) and (-2*x)/M == x/(M/-2).
    """
    errors: dict[str, float] = {}
    counts: dict[str, int] = {}
    integrals: list[float] = []

    def record(name: str, lhs: float, rhs: float):
        integrals.append(lhs)
        err = abs(lhs - rhs)
        # A NaN error stays recorded: max(0.0, nan) would drop it.
        old = errors.get(name, 0.0)
        errors[name] = err if math.isnan(err) or err > old else old
        counts[name] = counts.get(name, 0) + 1

    # Completed-square Gaussian integral.
    c_cycle = (-1.0, 0.0, 1.0)
    i = 0
    for a in (0.5, 1.0, 2.0, 5.0):
        for b in (-3.0, -1.0, 0.0, 1.5, 2.0):
            c = c_cycle[i % 3]
            i += 1
            lo, hi = _gauss_window(b / (2 * a), 1.0 / math.sqrt(a))
            lhs = _quad_conv(lambda y, na=-a, b=b, c=c, exp=math.exp:
                             exp(na * y * y + b * y + c), lo, hi)
            record("gauss", lhs, gauss_integral(a, b, c))

    d1 = 1.0
    for x, t, s, c1, c2, M in _conv_lattice():
        xc, m1, m2 = x + c1 * (t - s), c1 * s, c2 * s
        M_ts, M_s = M * (t - s), M * (1.0 + s)
        root = math.sqrt(4.0 * math.pi * d1 * (t - s))
        a_ts, a_s = 1.0 / M_ts, 1.0 / M_s

        lo, hi = _product_gaussian_window([(a_ts, xc), (a_s, -m1)])

        def lhs1(y, xc=xc, m1=m1, nM_ts=-M_ts, M_s=M_s, norm=root * (1.0 + s) ** 2,
                 exp=math.exp):
            a, b = xc - y, y + m1
            return exp((a * a) / nM_ts - (b * b) / M_s) / norm

        record("conv_same_velocity", _quad_conv(lhs1, lo, hi),
               conv_same_velocity(x, t, s, c1, M, d1))

        lo, hi = _product_gaussian_window([(2.0 * a_ts, xc), (a_s, -m1), (a_s, -m2)])

        def lhs2(y, xc=xc, m1=m1, m2=m2, hM_ts=M_ts / -2.0, M_s=M_s,
                 norm=root * (1.0 + s), exp=math.exp):
            a, b, c = xc - y, y + m1, y + m2
            return exp((a * a) / hM_ts - (b * b) / M_s - (c * c) / M_s) / norm

        record("conv_mix", _quad_conv(lhs2, lo, hi),
               conv_mix(x, t, s, c1, c2, M, d1))

        lo, hi = _product_gaussian_window([(a_ts, xc), (a_s, -m2)])

        def lhs3(y, xc=xc, m2=m2, nM_ts=-M_ts, M_s=M_s, exp=math.exp):
            a, b = xc - y, y + m2
            return exp((a * a) / nM_ts - (b * b) / M_s)

        record("conv_cross_velocity", _quad_conv(lhs3, lo, hi),
               conv_cross_velocity(x, t, s, c1, c2, M))

    # Half-line Gaussian integral (erfc closed form).
    for a in (0.25, 0.5, 1.0, 2.0, 4.0):
        for r in (0.0, 0.5, 1.0, 3.0, 10.0):
            # Solve u^2 a - K u - K(1+r) >= 0 for the truncation point.
            K = 45.0
            u_star = (K + math.sqrt(K * K + 4.0 * a * K * (1.0 + r))) / (2.0 * a)

            def lhs4(u, na=-a, r1=1.0 + r, exp=math.exp, sqrt=math.sqrt):
                w = r1 + u
                return exp(u * u * na / w) / sqrt(w)

            lhs = _quad_conv(lhs4, 0.0, 2.0 * u_star)
            record("halfline_gauss", lhs, halfline_gauss_integral(a, r))

    # Quartic-tail integral (Gamma closed form), z = w^2.
    for a in np.geomspace(0.1, 50.0, 20):
        a = float(a)
        cutoff = (45.0 / a) ** 0.25

        def lhs5(w, na=-a, exp=math.exp):
            return 2.0 * exp(na * w ** 4)

        lhs = _quad_conv(lhs5, 0.0, 2.0 * cutoff)
        record("quartic_tail", lhs, quartic_tail_integral(a))

    return IdentityReport(max_abs_error=errors, cases=counts,
                          integrals=tuple(integrals))
