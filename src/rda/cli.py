"""Batch command-line interface: run scenarios, emit CSV tables and SVG plots.

Commands:
  rda run TARGET... --out DIR [--jobs N]   run builtin scenarios or config files
  rda verify-identities                    closed-form vs quadrature identity suite
  rda classify TARGET                      term classification and admissibility
  rda list                                 builtin scenario registry
  rda plot TRAJECTORY.CSV --out FILE.SVG   re-plot an emitted trajectory table

Exit status is 0 iff the pipeline completed; each failure, a usage error too,
is one `error:` line and exit 1. Verdicts (blow-up too) go to verdicts.csv.
Only `rda run` imports solver, which loads scipy's compiled pocketfft
module, so the other commands run whatever happens to it, and a scipy
without it fails `rda run` with one line that names the module and
scipy's version.
"""

from __future__ import annotations

import argparse
import collections
import csv
import errno
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, kernels, scenarios
from .config import ConfigError, parse_scenario
from .core import Scenario, ValidationReport, validate_scenario
from .svg import line_chart

__all__ = ["main", "run_experiment", "write_outputs"]

# The errors main reports as one `error:` line and exit status 1. An
# ImportError is a compiled scipy module that _scipy_ext cannot load.
_REPORTED = (ConfigError, ValueError, OSError, ImportError)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell)
                             for cell in row])


def _resolve_target(target: str) -> tuple[Scenario, ValidationReport]:
    """(scenario, report) of a builtin name or config file path: the one
    validation of a target. Raises ConfigError if the scenario is invalid."""
    if target in scenarios.BUILTIN_SCENARIOS:
        scenario = scenarios.get_scenario(target)
    elif Path(target).exists():
        scenario = parse_scenario(target)
    else:
        raise ConfigError(
            f"{target!r} is neither a builtin scenario nor an existing file")
    report = validate_scenario(scenario)
    if not report.valid:
        raise ConfigError("invalid scenario: " + "; ".join(report.violations))
    return scenario, report


def write_outputs(scenario: Scenario, diagnosis: analysis.Diagnosis,
                  blew_up: bool, out_dir) -> None:
    """Write the CSV tables and SVG charts of one diagnosed run to out_dir,
    removing the envelope files an earlier run left when this run has no
    envelope; other files in out_dir are left as they are."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    times, linf_u, linf_v, l1_u, l1_v = diagnosis.norms
    last = len(times) - 1
    _write_csv(out / "trajectory.csv",
               ["t", "linf_u", "linf_v", "l1_u", "l1_v", "blow_up_flag"],
               [[times[i], linf_u[i], linf_v[i], l1_u[i], l1_v[i],
                 1 if blew_up and i == last else 0] for i in range(len(times))])

    env = diagnosis.envelope
    if env is None:
        # The run's only optional outputs: drop what an earlier run into
        # out_dir left, so every rda file there is this run's.
        for name in ("envelope.csv", "plot_envelope.svg"):
            (out / name).unlink(missing_ok=True)
    else:
        _write_csv(out / "envelope.csv", ["t", "eta", "bounded_flag"],
                   [[t, eta, int(flag)] for t, eta, flag in zip(
                       times, env.eta_series, env.bounded_flags)])
        chart = line_chart({"eta": (1.0 + times, env.eta_series)},
                           title=f"{scenario.name}: envelope supremum",
                           x_label="1 + t", y_label="eta")
        (out / "plot_envelope.svg").write_text(chart, encoding="utf-8")

    _write_csv(out / "verdicts.csv", ["name", "result", "statistic"],
               [[name, "pass" if passed else "fail", statistic]
                for name, passed, statistic in diagnosis.verdicts])

    chart = line_chart(
        {"linf_u": (1.0 + times, linf_u), "linf_v": (1.0 + times, linf_v),
         "l1_u": (1.0 + times, l1_u), "l1_v": (1.0 + times, l1_v)},
        title=f"{scenario.name}: norms", x_label="1 + t", y_label="norm")
    (out / "plot_trajectory.svg").write_text(chart, encoding="utf-8")


def run_experiment(scenario: Scenario, report: ValidationReport, out_dir,
                   observers=()) -> float | None:
    """Run from report.initial, diagnose and write one validated scenario;
    return the blow-up time, or None when the run reached t_end.

    Each sample (t, spectra, fields) goes to the scenario's SampleReduction
    and then to each observer, the same objects to each, uncopied. The
    reduction keeps no sample but the last, so a run holds one (2, n)
    sample at a time.
    """
    # Imported on the run path only: solver loads scipy's pocketfft.
    from . import solver

    samples = analysis.SampleReduction(scenario)
    hooks = (samples, *observers)

    def on_sample(t, spectra, fields):
        for hook in hooks:
            hook(t, spectra, fields)

    blow_up_time = solver.run_scenario(scenario, report.initial, on_sample)
    diagnosis = analysis.diagnose(scenario, samples)
    write_outputs(scenario, diagnosis, blow_up_time is not None, out_dir)
    return blow_up_time


def _check_out_dir(dest: Path) -> None:
    """Raise the error write_outputs' mkdir would raise for dest when dest,
    or its nearest existing ancestor, exists and is not a directory."""
    existing = next(path for path in (dest, *dest.parents) if path.exists())
    if not existing.is_dir():
        code = errno.EEXIST if existing == dest else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(existing))


def _error_of(fn, *args):
    """Call fn(*args); return the error main reports for it, or None."""
    try:
        fn(*args)
    except _REPORTED as exc:
        return exc
    return None


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    # The stepper's transforms: a scipy whose pocketfft cannot be loaded
    # fails here, in one line, and not once per target.
    from . import solver  # noqa: F401
    out_root = Path(args.out)
    single = len(args.targets) == 1
    # Each target fails on its own: (name, error), the target as given when
    # it names no scenario.
    failures = []
    jobs = []
    for target in args.targets:
        try:
            scenario, report = _resolve_target(target)
        except _REPORTED as exc:
            failures.append((target, exc))
            continue
        jobs.append((scenario, report,
                     out_root if single else out_root / scenario.name))
    # Targets that share a name would write one directory: none of them
    # runs. A target whose output directory cannot be made fails before
    # any step.
    counts = collections.Counter(sc.name for sc, _, _ in jobs)
    ready = []
    for sc, rep, dest in jobs:
        if counts[sc.name] > 1:
            failures.append((sc.name, ConfigError(
                f"{counts[sc.name]} targets share the name and the output "
                f"directory {dest}")))
        elif (exc := _error_of(_check_out_dir, dest)) is not None:
            failures.append((sc.name, exc))
        else:
            ready.append((sc, rep, dest))
    jobs = ready
    # The pool starts all its workers at once: ask for no more than needed.
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        # Imported here: concurrent.futures loads logging with it, which
        # every other command would pay for at startup.
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_experiment, *job) for job in jobs]
            errors = [_error_of(future.result) for future in futures]
    else:
        errors = [_error_of(run_experiment, *job) for job in jobs]
    for (sc, _, dest), exc in zip(jobs, errors):
        if exc is None:
            print(f"{sc.name}: wrote {dest}")
        else:
            failures.append((sc.name, exc))
    if single and failures:
        raise failures[0][1]  # main's one `error:` line, without the name
    for name, exc in failures:
        print(f"error: {name}: {exc}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_verify_identities(args) -> int:
    report = kernels.verify_identity_suite()
    worst_name, worst = report.worst()
    for name in sorted(report.max_abs_error):
        print(f"{name:24s} cases={report.cases[name]:3d} "
              f"max_abs_error={report.max_abs_error[name]:.3e}")
    ok = report.passed()
    print(f"worst: {worst_name} at {worst:.3e} "
          f"({'within' if ok else 'EXCEEDS'} tolerance {kernels.IDENTITY_TOL:g})")
    return 0 if ok else 1


def _cmd_classify(args) -> int:
    scenario, _ = _resolve_target(args.target)
    print(f"scenario: {scenario.name}")
    print(f"{'slot':4s} {'coeff':>10s} {'alpha':>5s} {'beta':>4s} {'gamma':>5s} "
          f"{'p':>2s} {'category':10s} {'mix':>3s}")
    for slot, term in scenario.system.all_terms():
        category = analysis.classify_term(term)
        print(f"{slot:4s} {term.coeff:10.4g} {term.alpha:5d} {term.beta:4d} "
              f"{term.gamma:5d} {term.p:2d} {category.value:10s} "
              f"{'yes' if term.is_mix else 'no':>3s}")
    adm = analysis.check_admissibility(scenario.system)
    print(f"thm1_admissible: {adm.thm1_admissible}")
    print(f"thm2_admissible: {adm.thm2_admissible}")
    print(f"thm4_shape: {adm.sign_value is not None}")
    if adm.sign_value is not None:
        print(f"sign_condition: {adm.sign_value < 0.0} (value {adm.sign_value:g})")
    for reason in adm.reasons:
        print(f"  note: {reason}")
    return 0


def _cmd_list(args) -> int:
    for scenario in map(scenarios.get_scenario, scenarios.BUILTIN_SCENARIOS):
        print(f"{scenario.name:20s} {scenario.description}")
    return 0


def _cmd_plot(args) -> int:
    with open(args.csv, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header:
            raise ValueError(f"{args.csv}: line 1: no header row")
        repeated = [name for i, name in enumerate(header) if name in header[:i]]
        if repeated:
            raise ValueError(f"{args.csv}: line 1: duplicate column {repeated[0]!r}")
        columns = {name: [] for name in header}
        for row in reader:
            where = f"{args.csv}: line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(
                    f"{where}: {len(row)} cells, the header has {len(header)}")
            for name, cell in zip(header, row):
                try:
                    columns[name].append(float(cell))
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
    times = np.array(columns[header[0]])
    series = {name: (1.0 + times, np.array(vals))
              for name, vals in columns.items()
              if name not in (header[0], "blow_up_flag")}
    # line_chart keeps only the points with finite values > 0.
    if not any(np.any(np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0))
               for x, y in series.values()):
        raise ValueError(f"{args.csv}: nothing to plot: " + (
            f"no column besides {header[0]!r}" if not series
            else "no rows" if times.size == 0
            else "no point with finite values > 0"))
    chart = line_chart(series, title=Path(args.csv).stem, x_label="1 + t")
    Path(args.out).write_text(chart, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError for main to report; subparsers inherit this."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The rda argument parser, built once per process."""
    parser = _Parser(
        prog="rda",
        description="numerical laboratory for two-component "
                    "reaction-diffusion-advection systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenarios and write outputs")
    p_run.add_argument("targets", nargs="+",
                       help="builtin scenario names or config file paths")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="run scenarios concurrently")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify-identities",
                           help="closed forms vs Gauss-Legendre quadrature")
    p_ver.set_defaults(func=_cmd_verify_identities)

    p_cls = sub.add_parser("classify",
                           help="term classification and admissibility")
    p_cls.add_argument("target")
    p_cls.set_defaults(func=_cmd_classify)

    p_list = sub.add_parser("list", help="list builtin scenarios")
    p_list.set_defaults(func=_cmd_list)

    p_plot = sub.add_parser("plot", help="plot a trajectory.csv as SVG")
    p_plot.add_argument("csv")
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _REPORTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
