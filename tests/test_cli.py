"""Command-line interface: output schema, exit codes, round-trip fidelity."""

import concurrent.futures
import csv

import numpy as np
import pytest

from rda import cli
from rda.cli import main, run_experiment
from rda.core import (
    EnvelopeSpec,
    Grid,
    InitialData,
    Scenario,
    PolyTerm,
    SystemSpec,
)
from rda.scenarios import BUILTIN_SCENARIOS

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
time.sample_dt = 0.5
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
        t_end=4.0, dt=0.02, sample_dt=0.5,
        envelope=EnvelopeSpec(kind="exponential", M=16.0),
        outputs=("trajectory", "envelope", "decay"),
    )
    base.update(overrides)
    return Scenario(**base)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


class TestRunExperiment:
    def test_output_files_and_schema(self, tmp_path):
        assert run_experiment(fast_scenario(), tmp_path) == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "linf_u", "linf_v", "l1_u", "l1_v",
                          "blow_up_flag"]
        assert len(rows) == 9          # t = 0, 0.5, ..., 4.0
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
        run_experiment(fast_scenario(), tmp_path)
        _, rows = read_csv(tmp_path / "trajectory.csv")
        times = [float(row[0]) for row in rows]
        np.testing.assert_allclose(times, np.arange(9) * 0.5, atol=1e-12)
        for row in rows:
            value = float(row[1])
            assert repr(value) == row[1]

    def test_blow_up_flag_on_final_row(self, tmp_path):
        scenario = fast_scenario(
            name="ignite",
            system=SystemSpec(d1=1.0, d2=1.0, c1=0.0, c2=1.0,
                              f1=(PolyTerm(1.0, 2, 0, 0),)),
            initial_u=InitialData(kind="gaussian", amplitude=50.0),
            initial_v=InitialData(kind="zero"),
            t_end=5.0, dt=1e-3, sample_dt=0.05,
            envelope=None, outputs=("trajectory",),
            blow_up_threshold=1e6,
        )
        assert run_experiment(scenario, tmp_path) == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert rows[-1][5] == "1"
        assert all(row[5] == "0" for row in rows[:-1])
        assert float(rows[-1][0]) < 5.0

    def test_envelope_eta_bounded_for_small_data(self, tmp_path):
        run_experiment(fast_scenario(), tmp_path)
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
        # A stand-in pool records its size and runs each job inline, so no
        # process is started.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
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
        conf = tmp_path / "pole.conf"
        conf.write_text(FAST_CONFIG.replace(
            "initial.u.kind = gaussian\ninitial.u.amplitude = 1e-3",
            "initial.u.kind = custom\ninitial.u.expression = 1/x"),
            encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: invalid scenario: initial.u: finite values on the grid failed"]
        assert not out.exists()

    @pytest.mark.parametrize("replacements,message", [
        ((("initial.u.kind = gaussian", "initial.u.kind = algebraic"),
          ("outputs = trajectory, envelope, decay",
           "outputs = trajectory, lower_bounds")),
         "lower_bounds output requires Gaussian initial data"),
        ((("envelope.kind = exponential", "envelope.kind = normal-form"),),
         "unknown envelope kind 'normal-form'"),
        ((("envelope.kind = exponential", "envelope.kind = drag"),
          ("system.c2 = 1.0", "system.c2 = 0.0")),
         "drag envelope requires c1 != c2"),
        ((("outputs = trajectory, envelope, decay",
           "outputs = trajectory, exact_error"),),
         "exact_error output requires the exactly solvable benchmark shape: "
         "d=(1, 1/4), f2 = u^4, u0 the unit-mass width-4 Gaussian, v0 = 0"),
    ], ids=["lower_bounds", "normal_form_envelope", "drag_equal_velocities",
            "exact_error"])
    def test_uncomputable_output_fails_before_running(
            self, tmp_path, capsys, replacements, message):
        text = FAST_CONFIG
        for old, new in replacements:
            assert old in text
            text = text.replace(old, new)
        conf = tmp_path / "bad.conf"
        conf.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: invalid scenario: {message}"]
        assert not out.exists()

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

    def test_classify_builtin(self, capsys):
        assert main(["classify", "toy"]) == 0
        out = capsys.readouterr().out
        assert "thm1_admissible: True" in out
        assert "Irrelevant" in out

    def test_list_names_all_builtins(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_SCENARIOS:
            assert name in out
        assert len(BUILTIN_SCENARIOS) == 9

    def test_plot_round_trip(self, tmp_path, capsys):
        run_experiment(fast_scenario(), tmp_path)
        svg = tmp_path / "replot.svg"
        assert main(["plot", str(tmp_path / "trajectory.csv"),
                     "--out", str(svg)]) == 0
        text = svg.read_text(encoding="utf-8")
        assert text.startswith("<svg") and "linf_u" in text

    def test_plot_is_deterministic(self, tmp_path):
        run_experiment(fast_scenario(), tmp_path)
        svg1 = tmp_path / "one.svg"
        svg2 = tmp_path / "two.svg"
        main(["plot", str(tmp_path / "trajectory.csv"), "--out", str(svg1)])
        main(["plot", str(tmp_path / "trajectory.csv"), "--out", str(svg2)])
        assert svg1.read_bytes() == svg2.read_bytes()
