"""The helper scripts run against the current package API."""

import dataclasses
import importlib.util
import multiprocessing
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from rda import core

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_convergence_study_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["convergence_study.py", "--t-final", "0.1",
                                      "--dts", "4e-3", "2e-3"])
    runpy.run_path(str(SCRIPTS / "convergence_study.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["dt=0.004: done", "dt=0.002: done"]
    assert lines[2].startswith("dt=0.004 vs dt=0.002: max diff ")
    assert 0.0 < float(lines[2].rsplit(" ", 1)[1]) < 1e-9


_spec = importlib.util.spec_from_file_location("readme", SCRIPTS / "readme.py")
readme = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(readme)


def _stale_line(block: str) -> str:
    return (f"README.md: block {block!r} differs from the code;"
            " regenerate with python3 scripts/readme.py")


def test_committed_readme_matches_the_code(capsys):
    assert readme.main(["--check"]) == 0
    assert capsys.readouterr().out == ""


def test_readme_check_runs_without_the_stepper():
    # The check reads the tables alone: neither rda.solver nor pocketfft loads.
    code = f"""if True:
        import runpy, sys
        sys.argv = [{str(SCRIPTS / "readme.py")!r}, "--check"]
        try:
            runpy.run_path(sys.argv[0], run_name="__main__")
        except SystemExit as exc:
            print(exc.code, "rda.solver" in sys.modules,
                  any("pocketfft" in name for name in sys.modules))
    """
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert result.stdout.split() == ["0", "False", "False"], result.stderr


def test_changed_requirement_text_fails_the_check(monkeypatch, capsys):
    # A requirement text edited in core.FIELDS and not in the README.
    fields = list(core.FIELDS)
    i = next(i for i, entry in enumerate(fields) if entry.needs)
    (holds, text), *rest = fields[i].needs
    fields[i] = dataclasses.replace(fields[i], needs=((holds, text + " (edited)"), *rest))
    monkeypatch.setattr(core, "FIELDS", tuple(fields))
    before = readme.README.read_bytes()
    assert readme.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [_stale_line("keys")]
    assert readme.README.read_bytes() == before


def test_hand_edit_inside_a_block_fails_the_check(monkeypatch, tmp_path, capsys):
    committed = readme.README.read_text(encoding="utf-8")
    begin = committed.index("<!-- begin builtins")
    row = committed.index("\n|", committed.index("| --- |", begin)) + 1
    edited = committed[:row] + "| `mine` | a row added by hand | none | `trajectory` |\n" \
        + committed[row:]
    copy = tmp_path / "README.md"
    copy.write_text(edited, encoding="utf-8")
    monkeypatch.setattr(readme, "README", copy)
    assert readme.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [_stale_line("builtins")]
    # Without --check the script writes the blocks back from the code.
    assert readme.main([]) == 0
    assert copy.read_text(encoding="utf-8") == committed


_digest_spec = importlib.util.spec_from_file_location("digest", SCRIPTS / "digest.py")
digest = importlib.util.module_from_spec(_digest_spec)
_digest_spec.loader.exec_module(digest)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched module reaches the workers only by fork")
def test_failed_digest_worker_is_named_in_one_line(monkeypatch, capsys):
    def failing(scenario, out_dir=None):
        raise ValueError("the run broke")

    # The workers unpickle section_digest from the forked module table.
    monkeypatch.setitem(sys.modules, "digest", digest)
    monkeypatch.setattr(digest, "BUILTIN_SCENARIOS", ("cas2-equal",))
    monkeypatch.setattr(digest, "run_digest", failing)
    monkeypatch.setattr(digest, "identity_digest", dict)
    assert digest.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "error: builtins cas2-equal: ValueError: the run broke"]
