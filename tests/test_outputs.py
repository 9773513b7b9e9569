"""Written outputs of the session runs against the benchmark's reference.

Each session fixture's result goes through cli.run_experiment with the
solver call replaced by the fixture, so diagnostics and writing are checked
without a second simulation. The comparison is perfbench's own: file list,
verdict pattern, blow-up flag and row count exactly, and the final
trajectory row and the verdict statistics to checks.RTOL.
"""

import importlib.util
from pathlib import Path

import pytest

from rda import cli

_spec = importlib.util.spec_from_file_location(
    "perfbench_checks",
    Path(__file__).resolve().parents[1] / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


@pytest.mark.parametrize("fixture", ["toy_run", "thm2_run", "cas2_distinct_run",
                                     "cas3_run", "remark51_run"])
def test_outputs_match_reference(fixture, request, tmp_path, monkeypatch):
    scenario, result = request.getfixturevalue(fixture)
    monkeypatch.setattr(cli.solver, "run_scenario", lambda _scenario: result)
    assert cli.run_experiment(scenario, tmp_path) == 0
    checker = checks.Checker()
    ref = checks.load_reference()["scenarios"][scenario.name]
    checks.compare_scenario(checker, scenario.name, tmp_path, ref, numbers=True)
    assert checker.attempted > 0
    assert checker.failed == 0, checker.messages
