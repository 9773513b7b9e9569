"""The helper scripts run against the current package API."""

import runpy
import sys
from pathlib import Path

import pytest

import rda.cli
from rda.scenarios import BUILTIN_SCENARIOS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_convergence_study_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["convergence_study.py", "--t-final", "0.1",
                                      "--dts", "4e-3", "2e-3"])
    runpy.run_path(str(SCRIPTS / "convergence_study.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["dt=0.004: done", "dt=0.002: done"]
    assert lines[2].startswith("dt=0.004 vs dt=0.002: max diff ")
    assert 0.0 < float(lines[2].rsplit(" ", 1)[1]) < 1e-9


@pytest.mark.parametrize("status", [0, 1])
def test_run_all_scenarios_runs_every_builtin(monkeypatch, status):
    calls = []

    def fake_main(argv):
        calls.append(argv)
        return status

    monkeypatch.setattr(rda.cli, "main", fake_main)
    monkeypatch.setattr(sys, "argv", ["run_all_scenarios.py", "--out", "OUT"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "run_all_scenarios.py"), run_name="__main__")
    assert exit_info.value.code == status
    assert calls == [["run", *BUILTIN_SCENARIOS, "--out", "OUT", "--jobs", "1"]]
