"""Command-line interface: output schema, exit codes, round-trip fidelity."""

import concurrent.futures
import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import io
import math
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rda import analysis, cli, config, core, scenarios, solver
from rda.cli import main, run_experiment
from rda.config import serialize_scenario
from rda.core import (
    EnvelopeSpec,
    Grid,
    InitialData,
    Scenario,
    PolyTerm,
    SystemSpec,
)
from rda.scenarios import BUILTIN_SCENARIOS, get_scenario

FAST_CONFIG = """\
name = fast
system.d1 = 1.0
system.d2 = 1.0
system.c1 = 0.0
system.c2 = 1.0
system.f1 = 1.0 u^1 v^1
grid.L = 60.0
grid.n = 256
time.dt = 0.02
time.t_end = 4.0
time.sample_dt = 0.2
initial.u.kind = gaussian
initial.u.amplitude = 1e-3
initial.v.kind = gaussian
initial.v.amplitude = 1e-3
envelope.kind = exponential
envelope.M = 16.0
outputs = trajectory, envelope, decay
"""


def fast_scenario(**overrides):
    base = dict(
        name="fast",
        system=SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0,
                          f1=(PolyTerm(1.0, 1, 1, 0),)),
        grid=Grid(half_width=60.0, n=256),
        initial_u=InitialData(kind="gaussian", amplitude=1e-3),
        initial_v=InitialData(kind="gaussian", amplitude=1e-3),
        t_end=4.0, dt=0.02, sample_dt=0.2,
        envelope=EnvelopeSpec(kind="exponential", M=16.0),
        outputs=("trajectory", "envelope", "decay"),
    )
    base.update(overrides)
    return Scenario(**base)


def run_valid(scenario, out_dir):
    """run_experiment of a scenario after the validation rda run makes."""
    report = core.validate_scenario(scenario)
    assert report.valid
    return run_experiment(scenario, report, out_dir)


def inline_pool(monkeypatch):
    """Replace the process pool by a stand-in that runs each job inline, so
    no process is started; return the list of pool sizes it records."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            # Like a real pool, an error is raised by the future's result().
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    # cli imports the pool module where it starts a pool, and reads the
    # class from it there.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


def assert_rejected_before_running(tmp_path, capsys, replacements, message):
    """rda run of FAST_CONFIG with the replacements exits 1 with one
    `error:` line naming the violation and writes no output directory."""
    text = FAST_CONFIG
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    assert_config_rejected(tmp_path, capsys, text, message)


def assert_config_rejected(tmp_path, capsys, text, message):
    """rda run of the config text exits 1 with the one line
    `error: invalid scenario: <message>`, or `error: <message>` for a
    parser refusal (`line N: ...`), and writes no output directory."""
    conf = tmp_path / "bad.conf"
    conf.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(conf), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = "" if message.startswith("line ") else "invalid scenario: "
    assert captured.err.splitlines() == [f"error: {prefix}{message}"]
    assert not out.exists()


def _remark51_cut(*f2):
    """remark51-exact with f2 = the terms f2, cut to t_end = 2, its exact
    error alone judged."""
    scenario = get_scenario("remark51-exact")
    return dataclasses.replace(
        scenario, system=dataclasses.replace(scenario.system, f2=f2), t_end=2.0,
        outputs=("trajectory", "exact_error"))


_CAS2 = get_scenario("cas2-equal")
_EXACT_ERROR_REQUIRES = (
    "exact_error output requires the exactly solvable benchmark shape: "
    "d=(1, 1/4), f2 = u^4, u0 = a e^{-x^2/4} with a > 0, v0 = 0 on the grid")
_GROWTH_SYSTEM_REQUIRED = (
    "lower_bounds output requires the growth system: f1 = v^2, f2 = u^2, "
    "no other coupling")
_GAUSSIAN_U_REQUIRED = (
    "lower_bounds output requires initial.u = nu0 e^{-a x^2} with nu0 > 0")


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


class TestRunExperiment:
    def test_output_files_and_schema(self, tmp_path):
        assert run_valid(fast_scenario(), tmp_path) is None
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "linf_u", "linf_v", "l1_u", "l1_v",
                          "blow_up_flag"]
        assert len(rows) == 21         # t = 0, 0.2, ..., 4.0
        assert all(row[5] == "0" for row in rows)
        env_header, env_rows = read_csv(tmp_path / "envelope.csv")
        assert env_header == ["t", "eta", "bounded_flag"]
        assert len(env_rows) == len(rows)
        v_header, v_rows = read_csv(tmp_path / "verdicts.csv")
        assert v_header == ["name", "result", "statistic"]
        assert {row[0] for row in v_rows} == {"eta_exponential",
                                              "decay_exponent"}
        assert (tmp_path / "plot_trajectory.svg").exists()
        assert (tmp_path / "plot_envelope.svg").exists()

    def test_csv_floats_parse_back_exactly(self, tmp_path):
        # Values are written with repr, i.e. shortest round-trip precision.
        run_valid(fast_scenario(), tmp_path)
        _, rows = read_csv(tmp_path / "trajectory.csv")
        times = [float(row[0]) for row in rows]
        np.testing.assert_allclose(times, np.arange(21) * 0.2, atol=1e-12)
        for row in rows:
            value = float(row[1])
            assert repr(value) == row[1]

    def test_blow_up_flag_on_final_row(self, tmp_path):
        scenario = fast_scenario(
            name="ignite",
            system=SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0,
                              f1=(PolyTerm(1.0, 2, 0, 0),)),
            initial_u=InitialData(kind="gaussian", amplitude=50.0),
            initial_v=InitialData(),
            t_end=5.0, dt=1e-3, sample_dt=0.05,
            envelope=None, outputs=("trajectory",),
        )
        blow_up_time = run_valid(scenario, tmp_path)
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert rows[-1][5] == "1"
        assert all(row[5] == "0" for row in rows[:-1])
        assert float(rows[-1][0]) < blow_up_time < 5.0

    def test_observers_receive_each_sample_uncopied(self, tmp_path):
        # Every observer sees the very (t, spectra, fields) objects of each
        # sample the run takes, at the times core.sample_times predicts.
        scenario = fast_scenario()
        first, second = [], []
        run_experiment(scenario, core.validate_scenario(scenario), tmp_path,
                       [lambda *sample: first.append(sample),
                        lambda *sample: second.append(sample)])
        assert [t for t, _, _ in first] == core.sample_times(scenario).tolist()
        assert len(first) == len(second)
        for one, other in zip(first, second):
            assert all(a is b for a, b in zip(one, other, strict=True))

    @pytest.mark.parametrize("scenario,blow_up_time", [
        (get_scenario("cas2-equal"), 8.15999999999987),  # as DIGEST.json records
        (fast_scenario(), None)], ids=["cas2-equal", "fast"])
    def test_returns_the_blow_up_time(self, tmp_path, scenario, blow_up_time):
        assert run_valid(scenario, tmp_path) == blow_up_time

    def test_envelope_eta_bounded_for_small_data(self, tmp_path):
        run_valid(fast_scenario(), tmp_path)
        _, v_rows = read_csv(tmp_path / "verdicts.csv")
        verdicts = {row[0]: row[1] for row in v_rows}
        assert verdicts["eta_exponential"] == "pass"


class TestMain:
    def test_run_config_file(self, tmp_path, capsys):
        conf = tmp_path / "fast.conf"
        conf.write_text(FAST_CONFIG, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert "fast: wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("as_config", [False, True],
                             ids=["remark51-exact", "config"])
    def test_builtin_run_evaluates_each_initial_datum_once(
            self, tmp_path, monkeypatch, as_config):
        # A target is validated once, builtin or config file, and the
        # validation evaluates both data on the grid and hands the (2, n)
        # array on to the solver.
        target = "remark51-exact"
        scenario = get_scenario(target)
        if as_config:
            conf = tmp_path / "remark51.conf"
            conf.write_text(serialize_scenario(scenario), encoding="utf-8")
            target = str(conf)
        calls = []
        validations = []

        def counted(init, x, _evaluate=core.evaluate_initial):
            calls.append(init)
            return _evaluate(init, x)

        def counted_validation(scenario, _validate=core.validate_scenario):
            validations.append(scenario.name)
            return _validate(scenario)

        for module in (analysis, cli, config, core, scenarios, solver):
            if hasattr(module, "evaluate_initial"):
                monkeypatch.setattr(module, "evaluate_initial", counted)
            if hasattr(module, "validate_scenario"):
                monkeypatch.setattr(module, "validate_scenario", counted_validation)
        assert main(["run", target, "--out", str(tmp_path / "out")]) == 0
        assert calls == [scenario.initial_u, scenario.initial_v]
        assert len(validations) == 1

    def test_run_multiple_targets_get_subdirs(self, tmp_path):
        conf_a = tmp_path / "a.conf"
        conf_a.write_text(FAST_CONFIG.replace("name = fast", "name = a"),
                          encoding="utf-8")
        conf_b = tmp_path / "b.conf"
        conf_b.write_text(FAST_CONFIG.replace("name = fast", "name = b"),
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(conf_a), str(conf_b), "--out", str(out)]) == 0
        assert (out / "a" / "trajectory.csv").exists()
        assert (out / "b" / "trajectory.csv").exists()

    @pytest.mark.parametrize("jobs,pools", [("1", []), ("2", [2]), ("8", [2])])
    def test_jobs_capped_at_target_count(self, tmp_path, monkeypatch, jobs,
                                         pools):
        sizes = inline_pool(monkeypatch)
        confs = []
        for name in ("a", "b"):
            conf = tmp_path / f"{name}.conf"
            conf.write_text(FAST_CONFIG.replace("name = fast", f"name = {name}"),
                            encoding="utf-8")
            confs.append(str(conf))
        out = tmp_path / "out"
        assert main(["run", *confs, "--out", str(out), "--jobs", jobs]) == 0
        assert sizes == pools
        assert (out / "a" / "verdicts.csv").exists()
        assert (out / "b" / "verdicts.csv").exists()

    @pytest.mark.parametrize("jobs,pools", [("1", []), ("3", [2])])
    def test_failing_target_does_not_stop_the_others(
            self, tmp_path, monkeypatch, capsys, jobs, pools):
        # Of four targets one is an invalid scenario and one cannot make its
        # output directory, so neither reaches the pool, and one fails while
        # it runs; the fourth still runs and writes.
        sizes = inline_pool(monkeypatch)
        write = cli.write_outputs

        def failing_write(scenario, *args):
            if scenario.name == "c":
                raise OSError("disk full")
            write(scenario, *args)

        monkeypatch.setattr(cli, "write_outputs", failing_write)
        confs = {}
        for name, text in (
                ("a", FAST_CONFIG.replace("name = fast", "name = a")),
                ("bad", FAST_CONFIG.replace("decay\n", "decayy\n")),
                ("b", FAST_CONFIG.replace("name = fast", "name = b")),
                ("c", FAST_CONFIG.replace("name = fast", "name = c"))):
            confs[name] = tmp_path / f"{name}.conf"
            confs[name].write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        (out / "b").write_text("not a directory", encoding="utf-8")
        assert main(["run", *map(str, confs.values()), "--out", str(out),
                     "--jobs", jobs]) == 1
        assert sizes == pools
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [f"a: wrote {out / 'a'}"]
        bad_line, b_line, c_line = captured.err.splitlines()
        assert bad_line == (f"error: {confs['bad']}: invalid scenario: "
                            "unknown output 'decayy'")
        assert b_line.startswith("error: b: ") and "File exists" in b_line
        assert c_line == "error: c: disk full"
        assert (out / "a" / "verdicts.csv").exists()

    @pytest.mark.parametrize("targets,out_name,errors", [
        (["toy"], "file", ["error: [Errno 17] File exists: '{file}'"]),
        (["toy"], "file/sub", ["error: [Errno 20] Not a directory: '{file}'"]),
        (["toy", "thm1-exp"], "file",
         ["error: toy: [Errno 20] Not a directory: '{file}'",
          "error: thm1-exp: [Errno 20] Not a directory: '{file}'"])],
        ids=["one-target", "one-target-below-file", "two-targets"])
    def test_unusable_output_directory_fails_before_any_step(
            self, tmp_path, monkeypatch, capsys, targets, out_name, errors):
        # mkdir would refuse the output directory: its nearest existing
        # ancestor is a file. Each target fails with one line, none runs.
        def never_run(*args):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(solver, "run_scenario", never_run)
        file = tmp_path / "file"
        file.write_text("not a directory", encoding="utf-8")
        assert main(["run", *targets, "--out", str(tmp_path / out_name)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [e.format(file=file) for e in errors]
        assert [path.name for path in tmp_path.iterdir()] == ["file"]
        assert file.read_text(encoding="utf-8") == "not a directory"

    @pytest.mark.parametrize("jobs,pools", [("1", []), ("4", [2])])
    def test_shared_name_runs_none_of_its_targets(
            self, tmp_path, monkeypatch, capsys, jobs, pools):
        # Two targets named "same" would write one directory; both fail and
        # the two other targets still run and write.
        sizes = inline_pool(monkeypatch)
        confs = []
        for file, name, amplitude in (("a", "same", "1e-3"), ("b", "same", "2e-3"),
                                      ("c", "c", "1e-3"), ("d", "d", "1e-3")):
            conf = tmp_path / f"{file}.conf"
            conf.write_text(FAST_CONFIG.replace("name = fast", f"name = {name}")
                            .replace("initial.u.amplitude = 1e-3",
                                     f"initial.u.amplitude = {amplitude}"),
                            encoding="utf-8")
            confs.append(str(conf))
        out = tmp_path / "out"
        assert main(["run", *confs, "--out", str(out), "--jobs", jobs]) == 1
        assert sizes == pools
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [f"c: wrote {out / 'c'}",
                                             f"d: wrote {out / 'd'}"]
        message = (f"error: same: 2 targets share the name and the output "
                   f"directory {out / 'same'}")
        assert captured.err.splitlines() == [message, message]
        assert not (out / "same").exists()
        assert (out / "c" / "verdicts.csv").exists()
        assert (out / "d" / "verdicts.csv").exists()

    @pytest.mark.parametrize("name", ["../escaped", "a/b", ""],
                             ids=["parent", "nested", "empty"])
    def test_name_that_leaves_the_output_directory_is_refused(
            self, tmp_path, capsys, name):
        # Each target of a multi-target run writes OUT/<name>: a name that
        # would write outside OUT or into OUT itself is an invalid scenario,
        # and the other target still runs.
        confs = tmp_path / "confs"
        confs.mkdir()
        bad = confs / "bad.conf"
        bad.write_text(FAST_CONFIG.replace("name = fast", f"name = {name}"),
                       encoding="utf-8")
        good = confs / "b.conf"
        good.write_text(FAST_CONFIG.replace("name = fast", "name = b"),
                        encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(bad), str(good), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [f"b: wrote {out / 'b'}"]
        assert captured.err.splitlines() == [
            f"error: {bad}: invalid scenario: name {name!r}: non-empty, "
            "not '.' or '..', no '/' or '\\' failed"]
        written = [path for path in tmp_path.rglob("*")
                   if path.is_file() and path.parent != confs]
        assert written and all(path.parent == out / "b" for path in written)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        assert main(["run", "toy", "--out", str(out), "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --jobs must be at least 1, got {jobs}"]
        assert not out.exists()

    def test_nonfinite_initial_data_fails_cleanly(self, tmp_path, capsys):
        # At n = 64, dx = 2L/n is inf (1e308), 0 (5e-324) or so small that
        # pi/dx (1e-320) or (pi/dx)^2 (1e-300) overflows. With zero data
        # these once gave nan norms, a ZeroDivisionError traceback, a
        # blow-up at the first step and a RuntimeWarning.
        for L in ("1e308", "5e-324", "1e-320", "1e-300"):
            case = tmp_path / L
            case.mkdir()
            assert_config_rejected(
                case, capsys,
                "name = zero\nsystem.d1 = 1.0\nsystem.d2 = 1.0\nsystem.c1 = 0.0\n"
                f"system.c2 = 0.0\ngrid.L = {L}\ngrid.n = 64\ntime.dt = 0.02\n"
                "time.t_end = 4.0\ntime.sample_dt = 0.2\noutputs = trajectory\n",
                "2L/n and (pi/dx)^2 finite failed")

    @pytest.mark.parametrize("command", ["run", "classify"])
    def test_grid_too_large_to_allocate_fails_cleanly(self, tmp_path, capsys, command):
        # With c1 = c2 = 0 the CFL relation holds at any n. 2^57 points are
        # 1 EiB, more than any 64-bit address space: it once ended in a
        # traceback from numpy. 2^21 points allocate, and a run at 2^25
        # would need about 8 GB. The grid ceiling refuses both.
        for n in (2**57, 2**21):
            conf = tmp_path / f"huge{n}.conf"
            conf.write_text(FAST_CONFIG.replace("grid.n = 256", f"grid.n = {n}")
                            .replace("system.c2 = 1.0", "system.c2 = 0.0"),
                            encoding="utf-8")
            out = tmp_path / "out"
            out_args = ["--out", str(out)] if command == "run" else []
            assert main([command, str(conf), *out_args]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "error: invalid scenario: grid n <= 1048576 failed"]
            assert not out.exists()

    def test_data_cut_off_at_the_box_edge_fails_before_running(
            self, tmp_path, capsys):
        # cas2-distinct with both Gaussians centred on the edge x = L = 60.
        scenario = get_scenario("cas2-distinct")
        shifted = dataclasses.replace(
            scenario,
            initial_u=dataclasses.replace(scenario.initial_u, center=60.0),
            initial_v=dataclasses.replace(scenario.initial_v, center=60.0))
        conf = tmp_path / "edge.conf"
        conf.write_text(serialize_scenario(shifted), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: invalid scenario: "
            "initial.u: |value at the box edge| <= 1e-05 max|value| failed; "
            "initial.v: |value at the box edge| <= 1e-05 max|value| failed"]
        assert not out.exists()

    def test_off_centre_data_with_an_envelope_fails_before_running(
            self, tmp_path, capsys):
        assert_rejected_before_running(
            tmp_path, capsys,
            (("initial.u.amplitude = 1e-3",
              "initial.u.amplitude = 1e-3\ninitial.u.center = 10"),),
            "envelope output requires initial.u.center = 0")

    @pytest.mark.parametrize("replacements,message", [
        ((("initial.u.kind = gaussian", "initial.u.kind = algebraic"),
          ("outputs = trajectory, envelope, decay",
           "outputs = trajectory, lower_bounds")),
         f"{_GROWTH_SYSTEM_REQUIRED}; {_GAUSSIAN_U_REQUIRED}"),
        ((("envelope.kind = exponential", "envelope.kind = normal-form"),),
         "envelope kind 'normal-form' in ('exponential', 'algebraic', 'drag') failed"),
        ((("envelope.kind = exponential", "envelope.kind = drag"),
          ("system.c2 = 1.0", "system.c2 = 0.0")),
         "drag envelope: c1 != c2 failed"),
        ((("outputs = trajectory, envelope, decay",
           "outputs = trajectory, exact_error"),),
         _EXACT_ERROR_REQUIRES),
        # f1 = uv but no g2 = (u^2)_x: no normal form to judge the law on.
        ((("outputs = trajectory, envelope, decay",
           "outputs = trajectory, amplitude_law"),),
         "amplitude_law output requires the normal-form shape: "
         "f1 = a uv (+ b u^3), g2 = g (u^2)_x, no f2 or g1, c1 != c2"),
        ((("outputs = trajectory, envelope, decay",
           "outputs = trajectory, decayy"),),
         "unknown output 'decayy'"),
        ((("envelope.kind = exponential\nenvelope.M = 16.0\n", ""),),
         "envelope output requires an envelope.kind"),
        # Configs written for the removed `custom`, `remark51` and `zero`
        # kinds; the last two are gaussian data, a e^{-x^2/4} with
        # a = 1/sqrt(4 pi) and a = 0.
        ((("initial.u.kind = gaussian\ninitial.u.amplitude = 1e-3",
           "initial.u.kind = custom\ninitial.u.expression = 1e-3*exp(-x^2)"),),
         "line 13: unknown key 'initial.u.expression'"),
        ((("initial.u.kind = gaussian\ninitial.u.amplitude = 1e-3",
           "initial.u.kind = custom"),),
         "initial.u: kind 'custom' in ('gaussian', 'algebraic') failed"),
        ((("initial.u.kind = gaussian\ninitial.u.amplitude = 1e-3",
           "initial.u.kind = remark51"),),
         "initial.u: kind 'remark51' in ('gaussian', 'algebraic') failed"),
        ((("initial.v.kind = gaussian\ninitial.v.amplitude = 1e-3",
           "initial.v.kind = zero"),),
         "initial.v: kind 'zero' in ('gaussian', 'algebraic') failed"),
    ], ids=["lower_bounds", "normal_form_envelope", "drag_equal_velocities",
            "exact_error", "amplitude_law", "unknown_output",
            "envelope_without_kind", "custom_expression", "custom_kind",
            "remark51_kind", "zero_kind"])
    def test_uncomputable_output_fails_before_running(
            self, tmp_path, capsys, replacements, message):
        assert_rejected_before_running(tmp_path, capsys, replacements, message)

    # Each of these once ran and wrote a verdict: a fail with a nan or a
    # number taken from too few samples, or, for the anchor, a verdict that
    # hung on the round-off of t += dt (the last t at dt = 0.1 is
    # 0.9999999999999999, at dt = 0.02 it is 1.0000000000000004).
    @pytest.mark.parametrize("text,message", [
        (serialize_scenario(dataclasses.replace(
            get_scenario("thm1-exp"), t_end=2.0, sample_dt=1.0)),
         "decay output requires >= 8 samples at t >= min(5, t_end/4)"),
        (serialize_scenario(dataclasses.replace(get_scenario("cas3-stable"),
                                                t_end=5.0)),
         "decay output requires >= 8 samples at t >= min(5, t_end/4); "
         "amplitude_law output requires a sample at t >= T_BURN = 10"),
        (serialize_scenario(dataclasses.replace(
            get_scenario("cas2-equal"), t_end=1.0, sample_dt=1.0)),
         "lower_bounds output requires >= 2 samples in the second half of "
         "the run"),
        # 7 samples at t >= 1; the fit needs 8.
        (FAST_CONFIG.replace("time.sample_dt = 0.2", "time.sample_dt = 0.5"),
         "decay output requires >= 8 samples at t >= min(5, t_end/4)"),
        (FAST_CONFIG.replace("initial.u.amplitude = 1e-3", "initial.u.amplitude = 0")
         .replace("initial.v.amplitude = 1e-3", "initial.v.amplitude = 0"),
         "decay output requires nonzero initial data"),
        (FAST_CONFIG.replace("time.dt = 0.02", "time.dt = 0.1")
         .replace("time.t_end = 4.0", "time.t_end = 1.0")
         .replace("time.sample_dt = 0.2", "time.sample_dt = 0.1")
         .replace("outputs = trajectory, envelope, decay",
                  "outputs = trajectory, envelope"),
         "envelope output requires a sample at t >= 1, its anchor"),
    ], ids=["thm1-exp-short", "cas3-stable-short", "cas2-equal-short",
            "fast-sample-dt-0.5", "zero-data-decay", "anchor-at-dt-0.1"])
    def test_run_too_short_to_judge_fails_before_running(
            self, tmp_path, capsys, text, message):
        assert_config_rejected(tmp_path, capsys, text, message)

    # Each of these once ran and wrote a verdict on an input outside the
    # result it judges: the exact solution has f2 = u^4 with coefficient 1,
    # and the lower bounds hold for f1 = v^2, f2 = u^2, u0 >= nu0 e^{-a x^2}
    # and v0 >= 0.
    @pytest.mark.parametrize("scenario,message", [
        (_remark51_cut(PolyTerm(2.0, 4, 0, 0)), _EXACT_ERROR_REQUIRES),
        (_remark51_cut(PolyTerm(0.0, 4, 0, 0)), _EXACT_ERROR_REQUIRES),
        (dataclasses.replace(_CAS2, system=get_scenario("thm1-exp").system),
         _GROWTH_SYSTEM_REQUIRED),
        (dataclasses.replace(_CAS2, system=dataclasses.replace(
            _CAS2.system, f1=(PolyTerm(-1.0, 0, 2, 0),))),
         _GROWTH_SYSTEM_REQUIRED),
        (dataclasses.replace(_CAS2, initial_v=InitialData(
            kind="gaussian", amplitude=-0.5, width=1.0)),
         "lower_bounds output requires initial.v >= 0 on the grid"),
        (dataclasses.replace(_CAS2, initial_u=InitialData(
            kind="gaussian", amplitude=0.5, width=1.0, center=5.0)),
         _GAUSSIAN_U_REQUIRED),
        (dataclasses.replace(_CAS2, initial_u=InitialData(
            kind="gaussian", amplitude=0.0, width=1.0)),
         _GAUSSIAN_U_REQUIRED),
    ], ids=["remark51-f2-2u4", "remark51-f2-0u4", "cas2-equal-thm1-exp-system",
            "cas2-equal-f1-minus-v2", "cas2-equal-negative-v0",
            "cas2-equal-u0-centred-at-5", "cas2-equal-zero-u0"])
    def test_input_outside_the_theorem_fails_before_running(
            self, tmp_path, capsys, scenario, message):
        assert_config_rejected(tmp_path, capsys, serialize_scenario(scenario), message)

    def test_exact_error_reads_the_summed_coefficient(self, tmp_path):
        # f2 = 0.5 u^4 + 0.5 u^4 is f2 = u^4, term by term in every bit.
        stats = []
        for terms in ((PolyTerm(1.0, 4, 0, 0),), (PolyTerm(0.5, 4, 0, 0),) * 2):
            conf = tmp_path / f"{len(terms)}.conf"
            conf.write_text(serialize_scenario(_remark51_cut(*terms)), encoding="utf-8")
            out = tmp_path / f"out{len(terms)}"
            assert main(["run", str(conf), "--out", str(out)]) == 0
            _, rows = read_csv(out / "verdicts.csv")
            stats.append({row[0]: row[1:] for row in rows}["exact_error"])
        assert stats[0][0] == "pass"
        assert stats[1] == stats[0]

    def test_anchor_reached_at_dt_0_02_runs(self, tmp_path):
        conf = tmp_path / "anchor.conf"
        conf.write_text(FAST_CONFIG.replace("time.t_end = 4.0", "time.t_end = 1.0")
                        .replace("time.sample_dt = 0.2", "time.sample_dt = 0.1")
                        .replace("outputs = trajectory, envelope, decay",
                                 "outputs = trajectory, envelope"), encoding="utf-8")
        assert main(["run", str(conf), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_csv(tmp_path / "out" / "envelope.csv")
        assert rows[-1][0] == "1.0000000000000004"

    @pytest.mark.parametrize("replacements,message", [
        ((("envelope.M = 16.0", "envelope.M = nan"),), "envelope M > 0 failed"),
        ((("envelope.M = 16.0", "envelope.M = -1"),), "envelope M > 0 failed"),
        ((("envelope.kind = exponential\nenvelope.M = 16.0",
           "envelope.kind = algebraic\nenvelope.M = 0"),),
         "envelope M > 0 failed"),
        ((("envelope.kind = exponential\nenvelope.M = 16.0",
           "envelope.kind = algebraic\nenvelope.M = 16.0\nenvelope.r = nan"),),
         "envelope r >= 3 failed"),
        ((("system.d2 = 1.0", "system.d2 = inf"),), "d2 finite failed"),
        ((("initial.u.amplitude = 1e-3",
           "initial.u.amplitude = 1e-3\ninitial.u.width = -1"),),
         "initial.u: width > 0 failed"),
        # Run, it would end at its first step with a blow-up at t = 0.
        ((("initial.u.amplitude = 1e-3", "initial.u.amplitude = 2e8"),),
         "initial.u: max|value| < 1e+08, the blow-up threshold failed"),
    ], ids=["M_nan", "M_negative", "algebraic_M_zero", "r_nan",
            "d2_inf", "width_negative", "data_above_threshold"])
    def test_number_out_of_range_fails_before_running(
            self, tmp_path, capsys, replacements, message):
        assert_rejected_before_running(tmp_path, capsys, replacements, message)

    def test_blow_up_threshold_is_not_a_key(self, tmp_path, capsys):
        # The threshold is core.BLOW_UP_THRESHOLD; configs that set the
        # removed key are refused by the parser.
        assert_rejected_before_running(
            tmp_path, capsys, (("name = fast", "name = fast\nblow_up_threshold = 100"),),
            "line 2: unknown key 'blow_up_threshold'")

    def test_bounded_flags_match_envelope_verdict(self, tmp_path):
        assert main(["run", "remark51-exact", "--out", str(tmp_path)]) == 0
        _, env_rows = read_csv(tmp_path / "envelope.csv")
        _, v_rows = read_csv(tmp_path / "verdicts.csv")
        verdicts = {row[0]: row[1] for row in v_rows}
        flags = {row[2] for row in env_rows}
        assert flags <= {"0", "1"}
        assert (flags == {"1"}) == (verdicts["eta_drag"] == "pass")

    def test_unknown_target_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", "no-such-scenario", "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_verify_identities_exit_zero(self, capsys):
        assert main(["verify-identities"]) == 0
        out = capsys.readouterr().out
        assert "worst:" in out and "within tolerance" in out

    @pytest.mark.parametrize("nan_calls", [range(31), [0], [30]])
    def test_verify_identities_fails_on_nan(self, capsys, nan_calls):
        # max(0.0, nan) is 0.0, so a NaN error once read as a perfect match,
        # whether every case of the family or only its first or last was NaN.
        # The NaN comes from the closed form, or from the integral when
        # QUADPACK flags a failure (ier = 3), on which integrate.quad only
        # warned and returned its number.
        conv_mix, quadpack = cli.kernels.conv_mix, cli.kernels._quadpack()
        qagse, calls = quadpack._qagse, []

        def nan_closed_form(*args):
            calls.append(args)
            return math.nan if len(calls) - 1 in nan_calls else conv_mix(*args)

        def failing_qagse(f, *args):
            value, err, ier = qagse(f, *args)
            if f.__name__ == "lhs2":
                calls.append(args)
                if len(calls) - 1 in nan_calls:
                    ier = 3
            return value, err, ier

        for target, name, fault in ((cli.kernels, "conv_mix", nan_closed_form),
                                    (quadpack, "_qagse", failing_qagse)):
            calls.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(target, name, fault)
                assert main(["verify-identities"]) == 1
            assert len(calls) == 31
            out = capsys.readouterr().out.splitlines()
            assert [line for line in out if line.startswith("conv_mix ")] == [
                "conv_mix                 cases= 31 max_abs_error=nan"]
            assert out[-1] == "worst: conv_mix at nan (EXCEEDS tolerance 1e-08)"

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_verify_identities_rejects_bad_tol(self, capsys, monkeypatch, tol):
        # A bad tolerance is an input defect, not a failed identity, so the
        # suite must not even run.
        monkeypatch.setattr(cli.kernels, "verify_identity_suite", None)
        assert main(["verify-identities", "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --tol must be finite and > 0, got {tol}"]

    def test_classify_builtin(self, capsys):
        assert main(["classify", "toy"]) == 0
        out = capsys.readouterr().out
        assert "thm1_admissible: True" in out
        assert "Irrelevant" in out

    # The first 16 hex digits of the SHA-256 of each builtin's printout, as
    # the slot-by-slot code before core.SLOTS printed it.
    CLASSIFY_SHA256 = {
        "toy": "c235491c3f993caa",
        "thm1-exp": "286819a101e46c2c",
        "thm1-alg": "084732c4f3f07ad9",
        "thm2-irrelevant": "3e73697ed52f187f",
        "remark51-exact": "65c6ef3ec4498b3d",
        "cas2-equal": "9a9639fbed0176ac",
        "cas2-distinct": "25ee23765ae0599b",
        "cas3-stable": "ed7593972ddf4109",
        "cas3-sign-violated": "00b92c9497e3bd27",
    }

    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_classify_printout_of_every_builtin(self, capsys, name):
        assert main(["classify", name]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == \
            self.CLASSIFY_SHA256[name]

    def test_list_names_all_builtins(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_SCENARIOS:
            assert name in out
        assert len(BUILTIN_SCENARIOS) == 9

    def test_plot_round_trip(self, tmp_path, capsys):
        run_valid(fast_scenario(), tmp_path)
        svg = tmp_path / "replot.svg"
        assert main(["plot", str(tmp_path / "trajectory.csv"),
                     "--out", str(svg)]) == 0
        text = svg.read_text(encoding="utf-8")
        assert text.startswith("<svg") and "linf_u" in text

    @pytest.mark.parametrize("text,message", [
        ("", "line 1: no header row"),
        ("t,linf_u\n1.0\n", "line 2: 1 cells, the header has 2"),
        ("t,linf_u\n1.0,2.0,3.0\n", "line 2: 3 cells, the header has 2"),
        ("t,t\n1.0,2.0\n", "line 1: duplicate column 't'"),
        ("t,linf_u\n1.0,2.0\n2.0,abc\n",
         "line 3: could not convert string to float: 'abc'"),
        ("t\n0.0\n1.0\n", "nothing to plot: no column besides 't'"),
        ("t,linf_u\n", "nothing to plot: no rows"),
        ("t,linf_u\n0.0,nan\n1.0,inf\n",
         "nothing to plot: no point with finite values > 0"),
    ], ids=["empty", "short_row", "long_row", "duplicate_header", "bad_number",
            "time_only", "no_rows", "nonfinite_values"])
    def test_plot_rejects_malformed_csv(self, tmp_path, capsys, text, message):
        table = tmp_path / "bad.csv"
        table.write_text(text, encoding="utf-8")
        svg = tmp_path / "bad.svg"
        assert main(["plot", str(table), "--out", str(svg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {table}: {message}"]
        assert not svg.exists()

    def test_svg_text_is_escaped(self, tmp_path):
        # A name with markup characters is valid, and neither chart of its
        # run, nor the replot of a table whose file and column carry it,
        # may break the XML.
        name = "a<b&c"
        conf = tmp_path / "markup.conf"
        conf.write_text(FAST_CONFIG.replace("name = fast", f"name = {name}"),
                        encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out)]) == 0
        table = tmp_path / f"{name}.csv"
        table.write_text(f"t,{name}\n0.0,1.0\n1.0,0.5\n", encoding="utf-8")
        assert main(["plot", str(table), "--out", str(out / "replot.svg")]) == 0
        charts = sorted(out.glob("*.svg"))
        assert [path.name for path in charts] == [
            "plot_envelope.svg", "plot_trajectory.svg", "replot.svg"]
        for path in charts:
            root = ET.parse(path).getroot()
            texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
            assert any(name in text for text in texts), path.name
        assert f">{escape(name)}: norms</text>" in (out / "plot_trajectory.svg").read_text(
            encoding="utf-8")

    def test_plot_is_deterministic(self, tmp_path):
        run_valid(fast_scenario(), tmp_path)
        svg1 = tmp_path / "one.svg"
        svg2 = tmp_path / "two.svg"
        main(["plot", str(tmp_path / "trajectory.csv"), "--out", str(svg1)])
        main(["plot", str(tmp_path / "trajectory.csv"), "--out", str(svg2)])
        assert svg1.read_bytes() == svg2.read_bytes()


_DIGEST_SPEC = importlib.util.spec_from_file_location(
    "digest", Path(__file__).resolve().parents[1] / "scripts" / "digest.py")
digest = importlib.util.module_from_spec(_DIGEST_SPEC)
_DIGEST_SPEC.loader.exec_module(digest)


def hook_times(scenario):
    """The t of every sample the run's on_sample hook receives."""
    times = []
    solver.run_scenario(scenario, core.validate_scenario(scenario).initial,
                        lambda t, spectra, fields: times.append(t))
    return times


class TestPredictedSampleTimes:
    # Validation judges a run's sample requirements on core.sample_times, so
    # these must be the very floats the hook receives.
    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_cut_builtin(self, name):
        scenario = digest.cut(get_scenario(name))
        assert core.sample_times(scenario).tolist() == hook_times(scenario)

    def test_fast_config(self, tmp_path):
        conf = tmp_path / "fast.conf"
        conf.write_text(FAST_CONFIG, encoding="utf-8")
        scenario = config.parse_scenario(conf)
        assert scenario == fast_scenario()
        assert core.sample_times(scenario).tolist() == hook_times(scenario)

    @pytest.mark.parametrize("name", ["cas2-equal", "cas2-distinct"])
    def test_blow_up_run_is_a_prefix(self, name):
        scenario = get_scenario(name)
        times = hook_times(scenario)
        predicted = core.sample_times(scenario).tolist()
        assert len(times) < len(predicted)
        assert predicted[:len(times)] == times


_PROPERTY_CONFIG = """\
name = prop
system.d1 = 1.0
system.d2 = 1.0
system.c1 = 0.0
system.c2 = 1.0
system.f1 = 1.0 u^1 v^1, {beta} u^3 v^0
system.g2 = 1.0 u^2 v^0 ddx
grid.L = 60.0
grid.n = 64
time.dt = {dt}
time.t_end = {t_end}
time.sample_dt = {sample_dt}
initial.u.kind = gaussian
initial.u.amplitude = {amplitude}
initial.v.kind = gaussian
initial.v.amplitude = {amplitude}
envelope.kind = exponential
envelope.M = 16.0
outputs = {outputs}
"""


class TestRunContract:
    # A normal-form system at n = 64 (so amplitude_law can be valid): with
    # the stabilizing sign (u^3 coefficient 0.5) or without it (1.5), small
    # data or data that blows up within a few steps.
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(t_end=st.sampled_from([0.5, 1.0, 2.0, 5.0, 11.0]),
           dt=st.sampled_from([0.05, 0.1, 0.3]),
           sample_dt=st.sampled_from([0.1, 0.2, 0.5, 1.0]),
           outputs=st.lists(st.sampled_from(list(analysis.OUTPUT_RULES)[1:]),
                            unique=True, max_size=3),
           beta=st.sampled_from([0.5, 1.5]),
           amplitude=st.sampled_from([1e-3, 5.0]))
    def test_exit_status_matches_what_is_written(
            self, t_end, dt, sample_dt, outputs, beta, amplitude):
        # Exit 0: every verdict statistic is finite unless the run blew up.
        # Exit 1: one `error:` line and no output directory.
        text = _PROPERTY_CONFIG.format(
            t_end=t_end, dt=dt, sample_dt=sample_dt, beta=beta,
            amplitude=amplitude, outputs=", ".join(["trajectory", *outputs]))
        with tempfile.TemporaryDirectory() as tmp:
            conf, out = Path(tmp) / "prop.conf", Path(tmp) / "out"
            conf.write_text(text, encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", str(conf), "--out", str(out)])
            if code == 1:
                (line,) = err.getvalue().splitlines()
                assert line.startswith("error: ")
                assert not out.exists()
                return
            assert code == 0
            _, trajectory = read_csv(out / "trajectory.csv")
            _, verdicts = read_csv(out / "verdicts.csv")
            assert len(verdicts) == sum(
                len(analysis.OUTPUT_RULES[name].rows) for name in outputs)
            if trajectory[-1][5] == "0":
                assert all(math.isfinite(float(row[2])) for row in verdicts)

    def test_overflowing_step_is_a_blow_up(self, tmp_path, capsys):
        # Without the stabilizing sign, amplitude 5 overflows an RK4 stage of
        # the step to t = 0.1: the step leaves inf or nan, which the blow-up
        # guard flags, and numpy warns of nothing.
        conf, out = tmp_path / "prop.conf", tmp_path / "out"
        conf.write_text(_PROPERTY_CONFIG.format(
            t_end=0.1, dt=0.05, sample_dt=0.05, beta=1.5, amplitude=5.0,
            outputs="trajectory"), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(conf), "--out", str(out)]) == 0
        assert caught == []
        assert capsys.readouterr().err == ""
        _, rows = read_csv(out / "trajectory.csv")
        assert [(row[0], row[5]) for row in rows] == [("0.0", "0"), ("0.05", "1")]
