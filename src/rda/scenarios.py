"""Built-in scenario registry.

Each entry is a ready-to-run Scenario covering one regime of the theory:
small-data decay under mix couplings, decay with irrelevant cross
couplings, the exactly solvable drag benchmark, norm growth of the
quadratically cross-coupled system, and the normal-form amplitude law
with the stabilizing sign satisfied or violated.
"""

from __future__ import annotations

from .core import (
    EnvelopeSpec,
    Grid,
    InitialData,
    PolyTerm,
    Scenario,
    SystemSpec,
)

__all__ = ["BUILTIN_SCENARIOS", "get_scenario"]


def _gauss(amplitude: float, width: float) -> InitialData:
    return InitialData(kind="gaussian", amplitude=amplitude, width=width)


_ZERO = InitialData(kind="zero")


def _cas2_system(c2: float) -> SystemSpec:
    return SystemSpec(
        d1=1.0, d2=1.0, c1=0.0, c2=c2,
        f1=(PolyTerm(1.0, 0, 2, 0),),
        f2=(PolyTerm(1.0, 2, 0, 0),),
    )


def _cas3_system(beta: float) -> SystemSpec:
    return SystemSpec(
        d1=1.0, d2=1.0, c1=0.0, c2=1.0,
        f1=(PolyTerm(1.0, 1, 1, 0), PolyTerm(beta, 3, 0, 0)),
        g2=(PolyTerm(1.0, 2, 0, 1),),
    )


_BUILTINS = {scenario.name: scenario for scenario in (
    Scenario(
        name="toy",
        description="quartic self term plus mix coupling; small-data Gaussian decay",
        system=SystemSpec(
            d1=1.0, d2=1.0, c1=0.0, c2=5.0,
            f1=(PolyTerm(1.0, 4, 0, 0), PolyTerm(1.0, 1, 1, 0)),
        ),
        grid=Grid(half_width=960.0, n=8192),
        initial_u=_gauss(1e-3, 4.0),
        initial_v=_gauss(1e-3, 4.0),
        t_end=100.0, dt=0.02, sample_dt=1.0,
        envelope=EnvelopeSpec(kind="exponential", M=32.0),
        outputs=("trajectory", "envelope", "decay"),
    ),
    Scenario(
        name="thm1-exp",
        description="all-mix couplings, exponentially localized data",
        system=SystemSpec(
            d1=1.0, d2=1.0, c1=0.0, c2=1.0,
            f1=(PolyTerm(1.0, 1, 1, 0),),
            g1=(PolyTerm(1.0, 2, 0, 1),),
            f2=(PolyTerm(1.0, 1, 1, 0),),
            g2=(PolyTerm(1.0, 0, 2, 1),),
        ),
        grid=Grid(half_width=330.0, n=2048),
        initial_u=_gauss(1e-3, 4.0),
        initial_v=_gauss(1e-3, 4.0),
        t_end=50.0, dt=0.02, sample_dt=0.5,
        envelope=EnvelopeSpec(kind="exponential", M=32.0),
        outputs=("trajectory", "envelope", "decay"),
    ),
    Scenario(
        name="thm1-alg",
        description="all-mix couplings, algebraically localized data",
        system=SystemSpec(
            d1=1.0, d2=1.0, c1=0.0, c2=1.0,
            f1=(PolyTerm(1.0, 1, 1, 0),),
            g1=(PolyTerm(1.0, 2, 0, 1),),
            f2=(PolyTerm(1.0, 1, 1, 0),),
            g2=(PolyTerm(1.0, 0, 2, 1),),
        ),
        grid=Grid(half_width=330.0, n=2048),
        initial_u=InitialData(kind="algebraic", amplitude=1e-3, power=3.0),
        initial_v=InitialData(kind="algebraic", amplitude=1e-3, power=3.0),
        t_end=50.0, dt=0.02, sample_dt=0.5,
        envelope=EnvelopeSpec(kind="algebraic", M=32.0, r=3.0),
        outputs=("trajectory", "envelope", "decay"),
    ),
    Scenario(
        name="thm2-irrelevant",
        description="irrelevant quartic cross coupling into the second component",
        system=SystemSpec(
            d1=1.0, d2=1.0, c1=0.0, c2=5.0,
            f1=(PolyTerm(1.0, 1, 1, 0),),
            f2=(PolyTerm(1.0, 4, 0, 0), PolyTerm(1.0, 1, 1, 0)),
        ),
        grid=Grid(half_width=960.0, n=8192),
        initial_u=_gauss(1e-3, 4.0),
        initial_v=_gauss(1e-3, 4.0),
        t_end=100.0, dt=0.02, sample_dt=1.0,
        envelope=EnvelopeSpec(kind="drag", M=32.0),
        outputs=("trajectory", "envelope", "decay"),
    ),
    Scenario(
        name="remark51-exact",
        description="exactly solvable drag benchmark: linear u forcing v by u^4",
        system=SystemSpec(
            d1=1.0, d2=0.25, c1=0.0, c2=1.0,
            f2=(PolyTerm(1.0, 4, 0, 0),),
        ),
        grid=Grid(half_width=60.0, n=1024),
        initial_u=InitialData(kind="remark51"),
        initial_v=_ZERO,
        t_end=5.0, dt=2.5e-3, sample_dt=0.25,
        envelope=EnvelopeSpec(kind="drag", M=16.0),
        outputs=("trajectory", "envelope", "exact_error"),
    ),
    # Blow-up is flagged at t = 8.16 with this data at dt = 0.01; t_end leaves
    # room to observe it.
    Scenario(
        name="cas2-equal",
        description="quadratic cross couplings, equal velocities; finite-time blow-up",
        system=_cas2_system(0.0),
        grid=Grid(half_width=60.0, n=1024),
        initial_u=_gauss(0.5, 1.0),
        initial_v=_gauss(0.5, 1.0),
        t_end=20.0, dt=0.01, sample_dt=0.1,
        outputs=("trajectory", "lower_bounds"),
    ),
    Scenario(
        name="cas2-distinct",
        description=("quadratic cross couplings, distinct velocities; norm growth; "
                     "blow-up guard fires at t = 14.21 with dt = 0.01"),
        system=_cas2_system(2.0),
        grid=Grid(half_width=60.0, n=1024),
        initial_u=_gauss(0.5, 1.0),
        initial_v=_gauss(0.5, 1.0),
        t_end=20.0, dt=0.01, sample_dt=0.1,
        outputs=("trajectory", "lower_bounds"),
    ),
    Scenario(
        name="cas3-stable",
        description="marginal couplings with the stabilizing sign; log-corrected decay",
        system=_cas3_system(0.5),
        grid=Grid(half_width=600.0, n=2048),
        initial_u=_gauss(1e-2, 4.0),
        initial_v=_gauss(1e-2, 4.0),
        t_end=200.0, dt=0.02, sample_dt=1.0,
        outputs=("trajectory", "decay", "amplitude_law"),
    ),
    Scenario(
        name="cas3-sign-violated",
        description="marginal couplings with the stabilizing sign violated",
        system=_cas3_system(1.5),
        grid=Grid(half_width=250.0, n=1024),
        initial_u=_gauss(1e-2, 4.0),
        initial_v=_gauss(1e-2, 4.0),
        t_end=50.0, dt=0.02, sample_dt=0.5,
        outputs=("trajectory", "decay"),
    ),
)}

BUILTIN_SCENARIOS = tuple(_BUILTINS)


def get_scenario(name: str) -> Scenario:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; built-ins: {', '.join(BUILTIN_SCENARIOS)}"
        ) from None
