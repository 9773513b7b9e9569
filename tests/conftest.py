"""Shared fixtures: the expensive scenario runs are computed once per session."""

import pytest

from rda.scenarios import get_scenario
from rda.solver import run_scenario


@pytest.fixture(scope="session")
def toy_run():
    scenario = get_scenario("toy")
    return scenario, run_scenario(scenario)


@pytest.fixture(scope="session")
def thm2_run():
    scenario = get_scenario("thm2-irrelevant")
    return scenario, run_scenario(scenario)


@pytest.fixture(scope="session")
def cas2_distinct_run():
    scenario = get_scenario("cas2-distinct")
    return scenario, run_scenario(scenario)


@pytest.fixture(scope="session")
def cas3_run():
    scenario = get_scenario("cas3-stable")
    return scenario, run_scenario(scenario)


@pytest.fixture(scope="session")
def remark51_run():
    scenario = get_scenario("remark51-exact")
    return scenario, run_scenario(scenario)

