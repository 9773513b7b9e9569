"""Self-test of the benchmark harness; runs in a few seconds.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json agrees with the harness, that the output checks
pass a 1e-12 change and fail a 1e-6 one, that seeded inputs are
deterministic and stay in range, that the host-speed probe samples and
cleans up after itself, and that the tracer attributes a small real run to
the right layers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from probe import SpeedProbe, rescale  # noqa: E402
from tracer import BUILTIN_NAMES, LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

# A drag-envelope system on a tiny grid: 10 steps, samples at t = 0.5, 1.
_TINY = """\
name = tiny-drag
system.d1 = 1.0
system.d2 = 1.0
system.c1 = 0.0
system.c2 = 5.0
system.f1 = 1.0 u^1 v^1
system.f2 = 1.0 u^4 v^0, 1.0 u^1 v^1
grid.L = 60.0
grid.n = 64
time.dt = 0.1
time.t_end = 1.0
time.sample_dt = 0.5
initial.u.kind = gaussian
initial.u.amplitude = 0.001
initial.u.width = 4.0
initial.v.kind = gaussian
initial.v.amplitude = 0.001
initial.v.width = 4.0
envelope.kind = drag
envelope.M = 32.0
outputs = trajectory, envelope, decay
"""


def _write_outputs(out: Path, fp: dict) -> None:
    """Write a minimal output directory whose fingerprint is fp."""
    out.mkdir(parents=True)
    for name in fp["files"]:
        (out / name).write_text("", encoding="utf-8")
    with open(out / "verdicts.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "result", "statistic"])
        writer.writerows([n, r, repr(s)] for n, r, s in fp["verdicts"])
    final = fp["final"]
    with open(out / "trajectory.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "linf_u", "linf_v", "l1_u", "l1_v", "blow_up_flag"])
        for _ in range(fp["rows"] - 1):
            writer.writerow([0.0, 1.0, 1.0, 1.0, 1.0, 0])
        writer.writerow([repr(final[k]) for k in
                         ("t", "linf_u", "linf_v", "l1_u", "l1_v")]
                        + [fp["blow_up"]])


def _scaled(fp: dict, factor: float) -> dict:
    return dict(fp,
                final={k: v * factor for k, v in fp["final"].items()},
                verdicts=[[n, r, s * factor] for n, r, s in fp["verdicts"]])


class BenchmarkFileTest(unittest.TestCase):
    def test_matches_harness(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["per_layer"]],
                         [m[:3] for m in LAYER_METRICS])
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertLessEqual(max(bounds.values()), 0.25)
        self.assertEqual(max(bounds.values()), bounds["setup_s"])

    def test_scenario_layers_cover_the_builtins(self):
        from rda import scenarios

        self.assertEqual(BUILTIN_NAMES, scenarios.BUILTIN_SCENARIOS)
        named = {n for names in run.WORKLOADS.values() for n in names}
        self.assertEqual(named, set(BUILTIN_NAMES))


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.reference = checks.load_reference()
        self.tmp = tempfile.TemporaryDirectory()
        self.root = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def _failed(self, name: str, fp: dict, numbers: bool = True) -> int:
        out = self.root / f"{name}-{len(list(self.root.iterdir()))}"
        _write_outputs(out, fp)
        checker = checks.Checker()
        checks.compare_scenario(checker, name, out,
                                self.reference["scenarios"][name], numbers)
        self.assertGreater(checker.attempted, 0)
        return checker.failed

    def test_tolerance_separates_reordering_from_change(self):
        for name, fp in self.reference["scenarios"].items():
            with self.subTest(name=name):
                self.assertEqual(self._failed(name, fp), 0)
                self.assertEqual(self._failed(name, _scaled(fp, 1 + 1e-12)), 0)
                self.assertGreater(self._failed(name, _scaled(fp, 1 + 1e-6)), 0)

    def test_most_sensitive_run_passes_a_1e12_change(self):
        from dataclasses import replace

        from rda import cli, config, scenarios

        scenario = scenarios.get_scenario("cas2-distinct")
        nudged = replace(scenario, **{
            field: replace(getattr(scenario, field),
                           amplitude=getattr(scenario, field).amplitude
                           * (1 + 1e-12))
            for field in ("initial_u", "initial_v")})
        conf = self.root / "nudged.conf"
        conf.write_text(config.serialize_scenario(nudged), encoding="utf-8")
        out = self.root / "nudged"
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(cli.main(["run", str(conf), "--out", str(out)]), 0)
        checker = checks.Checker()
        checks.compare_scenario(checker, "cas2-distinct", out,
                                self.reference["scenarios"]["cas2-distinct"],
                                numbers=True)
        self.assertEqual(checker.failed, 0, checker.messages)

    def test_pattern_only_at_nonzero_seed(self):
        fp = self.reference["scenarios"]["cas2-equal"]
        self.assertEqual(self._failed("cas2-equal", _scaled(fp, 1.03), False), 0)
        flipped = dict(fp, verdicts=[[n, "fail", s] for n, _r, s in fp["verdicts"]])
        self.assertGreater(self._failed("cas2-equal", flipped, False), 0)
        no_blowup = dict(fp, blow_up=0)
        self.assertGreater(self._failed("cas2-equal", no_blowup, False), 0)

    def test_identity_printout(self):
        names = self.reference["identities"]
        good = "".join(f"{n:24s} cases= 25 max_abs_error=1.000e-13\n"
                       for n in names)
        for text, failures in ((good, 0),
                               (good.replace("cases= 25", "cases= 19", 1), 1),
                               (good.replace("1.000e-13", "2.000e-08", 1), 1),
                               ("".join(good.splitlines(True)[1:]), 1)):
            checker = checks.Checker()
            checks.check_identities(checker, text, names)
            self.assertEqual(checker.failed, failures, text)


class SeedTest(unittest.TestCase):
    def test_seeded_inputs(self):
        from rda import config, scenarios

        self.assertEqual(run.make_targets("builtins-small", 0, Path("unused")),
                         list(run.WORKLOADS["builtins-small"]))
        self.assertEqual(run.make_targets("identities", 5, Path("unused")), [])
        with tempfile.TemporaryDirectory() as tmp:
            first = run.make_targets("builtins-small", 7, Path(tmp) / "a")
            second = run.make_targets("builtins-small", 7, Path(tmp) / "b")
            other = run.make_targets("builtins-small", 8, Path(tmp) / "c")
            texts = [Path(p).read_text("utf-8") for p in first]
            self.assertEqual(texts, [Path(p).read_text("utf-8") for p in second])
            self.assertNotEqual(texts, [Path(p).read_text("utf-8") for p in other])
            for path in first:
                got = config.parse_scenario(path)
                base = scenarios.get_scenario(got.name)
                for field in ("initial_u", "initial_v"):
                    a = getattr(base, field).amplitude
                    b = getattr(got, field).amplitude
                    if a == 0.0:
                        self.assertEqual(b, 0.0)
                    else:
                        self.assertTrue(0.95 <= b / a <= 1.05, (path, b / a))
                self.assertEqual(got.system, base.system)
                self.assertEqual(got.grid, base.grid)


class ProbeTest(unittest.TestCase):
    def test_probe_samples_and_restores_the_handler(self):
        import signal

        before = signal.getsignal(signal.SIGALRM)
        for kernels in (("python",), ("python", "numpy")):
            probe = SpeedProbe(*kernels)
            probe.start()
            end = time.perf_counter() + 0.35
            while time.perf_counter() < end:
                pass
            probe.stop()
            summary = probe.summary()
            self.assertGreaterEqual(summary["probes"], 4, kernels)
            self.assertEqual(sorted(summary["speeds"]), sorted(kernels))
            self.assertTrue(0.0 < summary["probe_s"] < 0.1, summary)
            self.assertTrue(0.05 < summary["speed"] < 20.0, summary)
            self.assertIs(signal.getsignal(signal.SIGALRM), before)
            self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_rescale_removes_probe_time_then_scales(self):
        self.assertAlmostEqual(
            rescale(10.0, {"probe_s": 0.5, "speed": 1.5}), 14.25)
        self.assertEqual(rescale(3.0, {"probe_s": 0.0, "speed": 1.0}), 3.0)


class TracerTest(unittest.TestCase):
    def test_self_times_partition_the_root(self):
        tracer = Tracer()

        def spin(seconds):
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass

        leaf = tracer.wrap("special", spin)
        inner = tracer.wrap("quadrature.quad",
                            lambda: (spin(0.002), leaf(0.003), leaf(0.001)))
        tracer.call("cli.main", lambda: (spin(0.001), inner(), inner()))
        layers = tracer.summary()["layers"]
        self.assertEqual(layers["special"]["count"], 4)
        self.assertEqual(layers["quadrature.quad"]["count"], 2)
        total = layers["cli.main"]["total_s"]
        self_sum = sum(v["self_s"] for v in layers.values())
        self.assertAlmostEqual(self_sum, total, delta=1e-9)
        self.assertGreaterEqual(layers["special"]["self_s"], 0.008)
        self.assertGreaterEqual(layers["quadrature.quad"]["self_s"], 0.004)

    def test_real_run_is_attributed(self):
        tracer = Tracer()
        tracer.install_transforms()
        from rda import cli
        tracer.install()
        with tempfile.TemporaryDirectory() as tmp:
            conf = Path(tmp) / "tiny.conf"
            conf.write_text(_TINY, encoding="utf-8")
            out = Path(tmp) / "out"
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                code = tracer.call("cli.main", cli.main,
                                   ["run", str(conf), "--out", str(out)])
                wall = time.perf_counter() - t0
            self.assertEqual(code, 0)
        values = layer_metrics(tracer.summary(), wall, 0.0)
        self.assertEqual(tracer.warnings, [])
        self.assertEqual(values["solver.steps"], 10)
        self.assertEqual(values["solver.samples"], 2)
        # Two rfft of the initial data, two irfft per sample, and per step
        # four RK stages of two irfft plus one rfft per reaction slot.
        self.assertEqual(values["solver.fft_calls"], 2 + 2 * 2 + 10 * 4 * 4)
        self.assertGreater(values["config.parse_s"], 0)
        self.assertGreater(values["analysis.envelope_s"], 0)
        # Two components at each of the two samples with s > 0.
        self.assertEqual(values["kernels.drag_weight_calls"], 4)
        evals = values["kernels.drag_refine_evals"]
        self.assertGreaterEqual(evals, 2 * 4)
        self.assertEqual(values["quadrature.gl_calls"], 2 * evals)
        self.assertGreater(values["kernels.drag_exp_evals"], 0)
        self.assertTrue(0.0 < values["kernels.drag_useful_ratio"] <= 0.5)
        # The envelope verdict and the CLI each fit once.
        self.assertEqual(values["analysis.decay_fits"], 2)
        self.assertTrue(math.isclose(values["trace.attributed_frac"], 1.0,
                                     abs_tol=0.02),
                        values["trace.attributed_frac"])


if __name__ == "__main__":
    unittest.main()
