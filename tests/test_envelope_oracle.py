"""The per-sample Envelope and envelope_verdict against a per-kind reference loop.

The reference keeps the envelope evaluators as three separate loops, one
per weight, each restricting the sup to its own trust region with boolean
indexing. Envelope.eta and envelope_verdict must reproduce their eta series to round-off
and their bounded flags exactly, on fields with tails that reach every
trust-region edge and on drifts that wrap round the torus.
"""

import math

import numpy as np
import pytest

from conftest import history_envelope
from rda.core import EnvelopeSpec, Grid, SystemSpec
from rda.kernels import drag_weight_profile

RTOL = 1e-12
# A weight counts where it is at least 1e-12 of its peak.
TRUST_LOG = math.log(1e12)


def _wrapped(x, c, s, half_width):
    return np.mod(x + c * s + half_width, 2.0 * half_width) - half_width


def reference_eta(times, samples, grid, system, env):
    """Per-sample eta of the weight env.kind, before the cumulative sup."""
    x = grid.points()
    M = env.M
    values = []
    for s, (u, v) in zip(times, samples):
        fields = ((u, system.c1), (v, system.c2))
        if env.kind == "exponential":
            total = np.zeros_like(x)
            for field, c in fields:
                shifted = _wrapped(x, c, s, grid.half_width)
                mask = np.abs(shifted) <= math.sqrt(M * (1.0 + s) * TRUST_LOG)
                total[mask] += np.abs(field[mask]) * np.exp(
                    shifted[mask] ** 2 / (M * (1.0 + s)))
            values.append(math.sqrt(1.0 + s) * float(np.max(total)))
        elif env.kind == "algebraic":
            total = np.zeros_like(x)
            for field, c in fields:
                shifted = _wrapped(x, c, s, grid.half_width)
                denom = (1.0 + np.abs(shifted) + math.sqrt(s)) ** (-env.r) \
                    + np.exp(-shifted ** 2 / (M * (1.0 + s))) / math.sqrt(1.0 + s)
                total += np.abs(field) / denom
            values.append(float(np.max(total)))
        else:
            c1, c2 = system.c1, system.c2
            margin = math.sqrt(M * (1.0 + s) * TRUST_LOG)
            mask = (x >= min(-c1 * s, -c2 * s) - margin) \
                & (x <= max(-c1 * s, -c2 * s) + margin)
            xm = x[mask]
            drag = drag_weight_profile(xm, s, c1, c2, M) if s > 0.0 \
                else np.zeros((2, len(xm)))
            total = np.zeros_like(xm)
            for (field, c), row in zip(fields, drag):
                gauss = np.exp(-(xm + c * s) ** 2 / (M * (1.0 + s))) \
                    / math.sqrt(1.0 + s)
                denom = gauss + row
                keep = denom >= 1e-12 * float(np.max(denom))
                total[keep] += np.abs(field[mask][keep]) / denom[keep]
            values.append(float(np.max(total, initial=0.0)))
    return np.array(values)


def random_history(seed, grid, times):
    """Gaussian bumps plus a small rough floor, so every tail is non-zero."""
    rng = np.random.default_rng(seed)
    x = grid.points()
    fields = np.empty((len(times), 2, grid.n))
    for j in range(len(times)):
        for i in range(2):
            fields[j, i] = rng.uniform(0.1, 1.0) * np.exp(
                -(x - rng.uniform(-10.0, 10.0)) ** 2 / rng.uniform(4.0, 40.0)) \
                + 1e-10 * rng.random(len(x))
    return fields


@pytest.mark.parametrize("kind", ["exponential", "algebraic", "drag"])
@pytest.mark.parametrize("seed", range(4))
def test_matches_reference(kind, seed):
    grid = Grid(half_width=40.0, n=256)
    rng = np.random.default_rng(100 + seed)
    c1, c2 = rng.uniform(-3.0, 3.0, size=2)
    system = SystemSpec(d1=1.0, d2=1.0, c1=float(c1), c2=float(c2))
    env = EnvelopeSpec(kind=kind, M=float(rng.choice([4.0, 16.0])), r=3.0)
    # Up to |c| s = 90 > L: drifts wrap round the torus.
    times = np.array([0.0, 0.5, 1.0, 3.0, 8.0, 30.0])
    fields = random_history(seed, grid, times)
    verdict = history_envelope(times, fields, grid, system, env)
    eta = np.maximum.accumulate(reference_eta(times, fields, grid, system, env))
    np.testing.assert_allclose(verdict.eta_series, eta, rtol=RTOL)
    np.testing.assert_array_equal(verdict.bounded_flags, eta <= 3.0 * eta[2])
