"""Outside-in benchmark of the rda pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/`` and nothing is installed. Every sample is a fresh
interpreter running ``perfbench/child.py``, which drives the unmodified
package through ``rda.cli.main`` (``rda run ... --jobs 1`` or
``rda verify-identities``). BLAS threads are left as the environment sets
them, because users run with the defaults.

Workloads (why each was chosen is in BENCHMARK.json):

* toy: the n=8192 FFT-bound stepper without drag work;
* thm2-irrelevant: the same grid plus the drag-envelope quadrature;
* builtins-small: the seven n <= 2048 builtins in one ``rda run`` call,
  where per-call Python overhead dominates the stepper;
* identities: ``rda verify-identities`` repeated IDENTITY_REPEATS times.

Seed 0 runs the builtins exactly. Any other seed scales each initial datum
that carries an amplitude by a factor drawn from [0.95, 1.05] and passes
the scenarios in as generated config files; the check is then that the
pass/fail pattern matches seed 0. identities has no inputs to vary.

--trace 0 measures the end-to-end metrics, tracing off:

* setup_s: median over SETUP_REPEATS fresh interpreters, half taken before
  and half after the run samples, of the time to start, import rda.cli and
  resolve and validate the targets;
* wall_s, cpu_s, peak_rss_mb: medians over the run samples of the
  window from the first rda.cli.main call until all outputs are written
  (CPU of all threads of the run process; its peak resident memory).
  Samples repeat until --seconds have passed, at least once; at --seconds
  10 every workload takes one or two.

The times are rescaled to a fixed reference host speed by the probe of
perfbench/probe.py, which times small kernels every 0.05 s inside each
measured process. On a shared host the vCPU's speed drifts by up to a
factor of two within minutes, so raw times of the same code spread by
20-30% between runs whatever their length; the rescaled times do not.
The raw times and the measured speeds are printed on a comment line and
kept in the run's report.json.

--trace 1 takes untraced samples the same way, then one traced sample, and
reports the per-layer metrics of perfbench/tracer.py, including the
tracing overhead (the traced sample's raw wall time minus the raw untraced
median; not rescaled, so it carries the host's drift between the samples).

Output checks (perfbench/checks.py) run between samples, outside every
timed window. mismatch_frac = failed / attempted output checks is printed
with the metrics and carried by the result's "failed" and "attempted".
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from checks import Checker, check_identities, compare_scenario, load_reference  # noqa: E402
from probe import rescale  # noqa: E402
from tracer import LAYER_METRICS, layer_metrics  # noqa: E402

WORKLOADS = {
    "toy": ("toy",),
    "thm2-irrelevant": ("thm2-irrelevant",),
    "builtins-small": ("thm1-exp", "thm1-alg", "remark51-exact", "cas2-equal",
                       "cas2-distinct", "cas3-stable", "cas3-sign-violated"),
    "identities": (),
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))

SETUP_REPEATS = 4
IDENTITY_REPEATS = 400
SCALE_RANGE = (0.95, 1.05)
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def make_targets(workload: str, seed: int, inputs: Path) -> list[str]:
    """The `rda run` targets of a workload: builtin names at seed 0, else
    generated config files with seed-scaled initial amplitudes."""
    names = WORKLOADS[workload]
    if seed == 0 or not names:
        return list(names)
    from rda import config, scenarios

    rng = random.Random(seed)
    inputs.mkdir(parents=True)
    targets = []
    for name in names:
        scenario = scenarios.get_scenario(name)
        changes = {}
        for field in ("initial_u", "initial_v"):
            init = getattr(scenario, field)
            if init.amplitude != 0.0:
                factor = rng.uniform(*SCALE_RANGE)
                changes[field] = replace(init, amplitude=init.amplitude * factor)
        path = inputs / f"{name}.conf"
        path.write_text(config.serialize_scenario(replace(scenario, **changes)),
                        encoding="utf-8")
        targets.append(str(path))
    return targets


def _blas_threads(numpy) -> int | str:
    """OpenBLAS's runtime thread count, asked of the library numpy loaded."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def describe_machine() -> dict:
    """Core count, CPU model, versions, and the BLAS with its thread settings."""
    import numpy
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in
                ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = {"name": "unknown"}
    threads = {var: os.environ.get(var, "unset") for var in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": threads,
        "blas_threads": _blas_threads(numpy),
    }


class Runner:
    """Spawns child processes against one deadline and one work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.start = time.perf_counter()
        self.spawned = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def spawn(self, spec: dict) -> float:
        """Run one child to completion and return its wall time."""
        timeout = self.remaining()
        if timeout <= 1.0:
            raise BenchError("out of time before the next sample")
        self.spawned += 1
        log_path = self.work / f"child{self.spawned}.log"
        spec = dict(spec, src=str(SRC))
        with open(log_path, "w", encoding="utf-8") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{spec['mode']} sample timed out") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            elapsed = time.perf_counter() - t0
        if code != 0:
            tail = log_path.read_text(encoding="utf-8").splitlines()[-5:]
            raise BenchError(f"{spec['mode']} sample exited with {code}: "
                             + " | ".join(tail))
        return elapsed

    def sample(self, spec: dict) -> dict:
        """Run one child; its JSON result, with the wall time of the whole
        child process as "process_s"."""
        result_path = self.work / f"sample{self.spawned + 1}.json"
        elapsed = self.spawn(dict(spec, result=str(result_path)))
        with open(result_path, encoding="utf-8") as fh:
            return dict(json.load(fh), process_s=elapsed)


def rescaled(sample: dict) -> dict:
    """A run sample's wall and CPU time at the probe's reference speed."""
    probe = sample["probe"]
    return {"wall_s": rescale(sample["wall_s"], probe),
            "cpu_s": rescale(sample["cpu_s"], probe)}


def check_sample(checker: Checker, workload: str, seed: int, out: Path,
                 result: dict, reference: dict) -> None:
    """Check one sample's outputs; runs outside the timed window."""
    if workload == "identities":
        checker.check(len(result["identity_outputs"]) == 1,
                      "identities: repeats printed different results")
        for output in result["identity_outputs"]:
            check_identities(checker, output, reference["identities"])
        return
    names = WORKLOADS[workload]
    for name in names:
        dest = out if len(names) == 1 else out / name
        compare_scenario(checker, name, dest, reference["scenarios"][name],
                         numbers=seed == 0)


def take_sample(runner: Runner, workload: str, seed: int, targets: list[str],
                checker: Checker, reference: dict, trace: bool) -> dict:
    """One child run, then its output checks (outside the timed window)."""
    out = runner.work / f"out{runner.spawned + 1}"
    spec = {"mode": "identities" if workload == "identities" else "run",
            "targets": targets, "out": str(out),
            "repeats": IDENTITY_REPEATS, "trace": trace}
    result = runner.sample(spec)
    check_sample(checker, workload, seed, out, result, reference)
    return result


def measure(runner: Runner, workload: str, seed: int, seconds: float,
            targets: list[str], checker: Checker, reference: dict) -> list[dict]:
    """Take untraced samples until `seconds` have passed (at least one)."""
    samples = []
    t0 = time.perf_counter()
    while True:
        s0 = time.perf_counter()
        samples.append(take_sample(runner, workload, seed, targets, checker,
                                   reference, trace=False))
        last = time.perf_counter() - s0
        # Stop at the time limit, or early enough to leave room for the
        # rest of the run (the checks and, with tracing, a traced sample).
        if (time.perf_counter() - t0 >= seconds
                or runner.remaining() < 2.5 * last + 10.0):
            return samples


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  work: Path) -> dict:
    if not (SRC / "rda" / "cli.py").is_file():
        raise BenchError(f"no rda package under {SRC}")
    sys.path.insert(0, str(SRC))
    reference = load_reference()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)
    targets = make_targets(workload, seed, work / "inputs")
    checker = Checker()
    report = {"workload": workload, "seed": seed, "trace": trace,
              "machine": describe_machine()}
    print("# machine " + json.dumps(report["machine"], sort_keys=True))

    if not trace:
        # Half the set-up samples go before the run samples and half after,
        # so that their median spans the run rather than its first seconds.
        setup_spec = {"mode": "setup", "targets": targets}
        setup = [runner.sample(setup_spec) for _ in range(SETUP_REPEATS // 2)]
        samples = measure(runner, workload, seed, seconds, targets, checker,
                          reference)
        setup += [runner.sample(setup_spec)
                  for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
        setup_times = [rescale(s["process_s"], s["probe"]) for s in setup]
        times = [rescaled(s) for s in samples]
        report["setup_samples"] = [dict(s["probe"], raw_s=s["process_s"], s=t)
                                   for s, t in zip(setup, setup_times)]
        report["samples"] = [
            dict(s["probe"], raw_wall_s=s["wall_s"], raw_cpu_s=s["cpu_s"],
                 peak_rss_mb=s["peak_rss_mb"], **t)
            for s, t in zip(samples, times)]
        values = {
            "wall_s": statistics.median(t["wall_s"] for t in times),
            "setup_s": statistics.median(setup_times),
            "cpu_s": statistics.median(t["cpu_s"] for t in times),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        print(f"# {workload} seed {seed}: medians of {len(samples)} run "
              f"sample(s) and {len(setup)} setup sample(s)")
        print("# raw (not rescaled) wall_s "
              + " ".join(f"{s['wall_s']:.4f}" for s in samples)
              + ", setup_s " + " ".join(f"{s['process_s']:.4f}" for s in setup)
              + "; host speed " + " ".join(
                  f"{s['probe']['speed']:.3f}" for s in samples + setup))
    else:
        plain = measure(runner, workload, seed, seconds, targets, checker,
                        reference)
        traced = take_sample(runner, workload, seed, targets, checker,
                             reference, trace=True)
        # Raw times: under the tracer the probe read the host 10-20% slower
        # than the untraced samples did, and rescaled overheads came out
        # negative. The host's drift between the samples stays in this.
        untraced_wall = statistics.median(s["wall_s"] for s in plain)
        values = layer_metrics(traced["trace"], traced["wall_s"],
                               traced["wall_s"] - untraced_wall)
        metrics = {name: (values[name], unit)
                   for name, unit, _better, _moves in LAYER_METRICS}
        report["untraced_samples"] = [dict(s["probe"], raw_wall_s=s["wall_s"],
                                           **rescaled(s)) for s in plain]
        report["trace"] = traced["trace"]
        print(f"# {workload} seed {seed}: traced sample against the median "
              f"of {len(plain)} untraced sample(s)")
        for warning in traced["trace"]["warnings"]:
            print(f"# trace warning: {warning}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    mismatch = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"{'mismatch_frac':34s} {mismatch:.6g} fraction "
          f"({checker.failed} of {checker.attempted} output checks failed)")
    for message in checker.messages[:20]:
        print(f"# mismatch: {message}")
    report["checks"] = {"attempted": checker.attempted,
                        "failed": checker.failed,
                        "messages": checker.messages}
    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    with open(work / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return {
        "correct": checker.attempted > 0 and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": report["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace), WORK / "run")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
