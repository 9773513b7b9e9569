"""Shared fixtures and helpers.

The expensive scenario runs are computed once per session. solver.run
keeps no sample, so tests that need the (S, 2, n) sample array collect it
through the run's on_sample hook here, and the array helpers below reduce
such an array one sample at a time with the package's per-sample code.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from rda import solver
from rda.analysis import Envelope, SampleReduction, envelope_verdict, sample_norms
from rda.core import validate_scenario
from rda.scenarios import get_scenario
from rda.solver import run, run_scenario


@dataclass(frozen=True)
class Recorded:
    """A run with every sample kept: fields[j] is (u, v) at times[j].

    samples is the SampleReduction the scenario's samples went through, for
    a run of a whole scenario, and None otherwise.
    """
    times: np.ndarray
    fields: np.ndarray
    blew_up: bool
    blow_up_time: float | None
    samples: SampleReduction | None = None


def _recorder(times, kept, reduction=None):
    def on_sample(t, spectra, fields):
        times.append(t)
        kept.append(fields)
        if reduction is not None:
            reduction(t, spectra, fields)
    return on_sample


def record_run(ws, initial, t_end, sample_dt, **kwargs) -> Recorded:
    """solver.run, keeping every sample."""
    times, kept = [], []
    blow_up_time = run(ws, initial, t_end, sample_dt, _recorder(times, kept),
                       **kwargs)
    return Recorded(np.array(times), np.array(kept), blow_up_time is not None,
                    blow_up_time)


def record_scenario(scenario) -> Recorded:
    """solver.run_scenario, keeping every sample and reducing it as the CLI does."""
    times, kept = [], []
    samples = SampleReduction(scenario)
    blow_up_time = run_scenario(scenario, validate_scenario(scenario).initial,
                                _recorder(times, kept, samples))
    return Recorded(np.array(times), np.array(kept), blow_up_time is not None,
                    blow_up_time, samples)


def count_transform_rows(monkeypatch) -> dict[str, list[int]]:
    """Wrap the solver's _irfft/_rfft; each records the number of rows of
    every call."""
    rows = {"irfft": [], "rfft": []}
    for name, calls in rows.items():
        transform = getattr(solver, f"_{name}")

        def counted(x, *args, _transform=transform, _calls=calls, **kwargs):
            _calls.append(1 if np.ndim(x) == 1 else len(x))
            return _transform(x, *args, **kwargs)

        monkeypatch.setattr(solver, f"_{name}", counted)
    return rows


def history_norms(times, fields, dx):
    """(times, linf_u, linf_v, l1_u, l1_v) arrays over the (S, 2, n) samples."""
    norms = [sample_norms(row, dx) for row in fields]
    linf = np.array([row_linf for row_linf, _ in norms])
    l1 = np.array([row_l1 for _, row_l1 in norms])
    return np.asarray(times), linf[:, 0], linf[:, 1], l1[:, 0], l1[:, 1]


def history_envelope(times, fields, grid, system, env):
    """envelope_verdict of the (S, 2, n) samples fields at times."""
    weights = Envelope(grid, system, env)
    return envelope_verdict(times, [weights.eta(float(s), row)
                                    for s, row in zip(times, fields)])


@pytest.fixture(scope="session")
def toy_run():
    scenario = get_scenario("toy")
    return scenario, record_scenario(scenario)


@pytest.fixture(scope="session")
def thm2_run():
    scenario = get_scenario("thm2-irrelevant")
    return scenario, record_scenario(scenario)


@pytest.fixture(scope="session")
def cas2_distinct_run():
    scenario = get_scenario("cas2-distinct")
    return scenario, record_scenario(scenario)


@pytest.fixture(scope="session")
def cas3_run():
    scenario = get_scenario("cas3-stable")
    return scenario, record_scenario(scenario)


@pytest.fixture(scope="session")
def remark51_run():
    scenario = get_scenario("remark51-exact")
    return scenario, record_scenario(scenario)
