"""The helper scripts run against the current package API."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_convergence_study_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["convergence_study.py", "--t-final", "0.1",
                                      "--dts", "4e-3", "2e-3"])
    runpy.run_path(str(SCRIPTS / "convergence_study.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["dt=0.004: done", "dt=0.002: done"]
    assert lines[2].startswith("dt=0.004 vs dt=0.002: max diff ")
    assert 0.0 < float(lines[2].rsplit(" ", 1)[1]) < 1e-9

