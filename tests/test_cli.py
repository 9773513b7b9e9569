"""Command-line interface: output schema, exit codes, round-trip fidelity."""

import csv

import numpy as np
import pytest

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
