"""Batch command-line interface: run scenarios, emit CSV tables and SVG plots.

Commands:
  rda run TARGET... --out DIR [--jobs N]   run builtin scenarios or config files
  rda verify-identities [--tol TOL]        closed-form vs quadrature identity suite
  rda classify TARGET                      term classification and admissibility
  rda list                                 builtin scenario registry
  rda plot TRAJECTORY.CSV --out FILE.SVG   re-plot an emitted trajectory table

Exit status is 0 iff the pipeline completed; scientific verdicts (including
blow-up) are recorded in verdicts.csv, not in the exit status.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, kernels, scenarios, solver
from .config import ConfigError, parse_scenario
from .core import Scenario, validate_scenario
from .svg import line_chart

__all__ = ["main", "run_experiment"]


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


def _resolve_target(target: str) -> Scenario:
    if target in scenarios.BUILTIN_SCENARIOS:
        return scenarios.get_scenario(target)
    path = Path(target)
    if not path.exists():
        raise ConfigError(
            f"{target!r} is neither a builtin scenario nor an existing file")
    return parse_scenario(path)


_ETA_FUNCTIONS = {
    "exponential": analysis.eta_exponential,
    "algebraic": analysis.eta_algebraic,
    "drag": analysis.eta_drag,
}


def _normal_form_coeffs(system) -> tuple[float, float, float]:
    alpha = sum(t.coeff for t in system.f1 if (t.alpha, t.beta, t.gamma) == (1, 1, 0))
    beta = sum(t.coeff for t in system.f1 if (t.alpha, t.beta, t.gamma) == (3, 0, 0))
    gamma = sum(t.coeff for t in system.g2 if (t.alpha, t.beta, t.gamma) == (2, 0, 1))
    return alpha, beta, gamma


def _exact_remark51(scenario: Scenario, state):
    """Closed-form (u, v) of the exactly solvable benchmark at state.t."""
    s = scenario.system
    shape_ok = (
        s.d1 == 1.0 and s.d2 == 0.25 and not s.f1 and not s.g1 and not s.g2
        and tuple((t.alpha, t.beta, t.gamma) for t in s.f2) == ((4, 0, 0),)
        and scenario.initial_u.kind == "remark51"
        and scenario.initial_v.kind == "zero")
    if not shape_ok:
        raise ValueError(
            "exact_error output requires the exactly solvable benchmark shape: "
            "d=(1, 1/4), f2 = u^4, u0 the unit-mass width-4 Gaussian, v0 = 0")
    x = scenario.grid.points()
    t = state.t
    u_exact = np.exp(-((x + s.c1 * t) ** 2) / (4.0 * (1.0 + t))) / math.sqrt(
        4.0 * math.pi * (1.0 + t))
    params = kernels.DragParams(c_self=s.c2, c_other=s.c1, M=1.0, j=0,
                                power_decay=1.5)
    v_exact = kernels.drag_profile(x, t, params) / (16.0 * math.pi ** 2)
    return u_exact, v_exact


def run_experiment(scenario: Scenario, out_dir) -> int:
    """Run one scenario end to end and write its output files."""
    report = validate_scenario(scenario)
    if not report.valid:
        raise ConfigError("invalid scenario: " + "; ".join(report.violations))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for warning in report.warnings:
        print(f"[{scenario.name}] warning: {warning}", file=sys.stderr)

    result = solver.run_scenario(scenario)
    hist = result.states
    grid = scenario.grid
    times = np.array([st.t for st in hist])
    dx = grid.dx
    linf_u = np.array([np.max(np.abs(st.u)) for st in hist])
    linf_v = np.array([np.max(np.abs(st.v)) for st in hist])
    l1_u = np.array([np.sum(np.abs(st.u)) * dx for st in hist])
    l1_v = np.array([np.sum(np.abs(st.v)) * dx for st in hist])

    rows = []
    for i in range(len(hist)):
        flag = 1 if (result.blew_up and i == len(hist) - 1) else 0
        rows.append([times[i], linf_u[i], linf_v[i], l1_u[i], l1_v[i], flag])
    _write_csv(out / "trajectory.csv",
               ["t", "linf_u", "linf_v", "l1_u", "l1_v", "blow_up_flag"], rows)

    verdicts: list[list] = []
    outputs = scenario.outputs

    if "envelope" in outputs and scenario.envelope is not None:
        eta_fn = _ETA_FUNCTIONS.get(scenario.envelope.kind)
        if eta_fn is None:
            raise ConfigError(
                f"no envelope evaluator for kind {scenario.envelope.kind!r}")
        verdict = eta_fn(hist, grid, scenario.system, scenario.envelope)
        anchor_idx = int(np.argmax(verdict.times >= 1.0)) \
            if np.any(verdict.times >= 1.0) else 0
        anchor = verdict.eta_series[anchor_idx]
        env_rows = [[t, eta, 1 if eta <= 3.0 * anchor else 0]
                    for t, eta in zip(verdict.times, verdict.eta_series)]
        _write_csv(out / "envelope.csv", ["t", "eta", "bounded_flag"], env_rows)
        verdicts.append([f"eta_{scenario.envelope.kind}",
                         "pass" if verdict.bounded else "fail",
                         verdict.max_eta])
        chart = line_chart({"eta": (1.0 + verdict.times, verdict.eta_series)},
                           title=f"{scenario.name}: envelope supremum",
                           x_label="1 + t", y_label="eta")
        (out / "plot_envelope.svg").write_text(chart, encoding="utf-8")

    if "decay" in outputs:
        sup_series = np.maximum(linf_u, linf_v)
        try:
            exponent, half_width = analysis.fit_decay_exponent(
                times, sup_series, t_min=min(5.0, times[-1] / 4.0))
            verdicts.append(["decay_exponent",
                             "pass" if exponent <= -0.4 else "fail", exponent])
        except ValueError:
            verdicts.append(["decay_exponent", "fail", math.nan])

    if "lower_bounds" in outputs:
        init = scenario.initial_u
        if init.kind != "gaussian":
            raise ConfigError(
                "lower_bounds output requires Gaussian initial data")
        params = analysis.Cas2Params(
            d1=scenario.system.d1, d2=scenario.system.d2,
            c1=scenario.system.c1, c2=scenario.system.c2,
            nu0=init.amplitude, alpha_width=1.0 / init.width)
        curve = analysis.cas2_lower_bounds(params, times)
        l1_total = l1_u + l1_v
        dominates = bool(np.all(l1_total >= curve.l1_bound))
        verdicts.append(["l1_lower_bound", "pass" if dominates else "fail",
                         float(np.min(l1_total - curve.l1_bound))])
        sup_series = np.maximum(linf_u, linf_v)
        half = times >= times[-1] / 2.0
        growing = bool(np.all(np.diff(sup_series[half]) > 0)) \
            if np.sum(half) >= 2 else False
        verdicts.append(["linf_growth", "pass" if growing else "fail",
                         float(sup_series[-1])])

    if "amplitude_law" in outputs:
        adm = analysis.check_admissibility(scenario.system)
        alpha, beta, gamma = _normal_form_coeffs(scenario.system)
        if not adm.thm4_shape or not adm.sign_condition:
            verdicts.append(["amplitude_law", "fail",
                             adm.sign_value if adm.sign_value is not None
                             else math.nan])
        else:
            nf = [solver.to_normal_form(st, grid, scenario.system,
                                        alpha, beta, gamma) for st in hist]
            law = analysis.amplitude_law_check(nf, scenario.initial_u.amplitude)
            after = law.times >= 10.0
            stat = float(np.max(law.law_values[after])) if np.any(after) \
                else float(np.max(law.law_values))
            verdicts.append(["amplitude_law", "pass" if law.passed else "fail",
                             stat])

    if "exact_error" in outputs:
        u_exact, v_exact = _exact_remark51(scenario, hist[-1])
        err_u = float(np.max(np.abs(hist[-1].u - u_exact)) / np.max(np.abs(u_exact)))
        err_v = float(np.max(np.abs(hist[-1].v - v_exact)) / np.max(np.abs(v_exact)))
        ok = err_u <= 1e-4 and err_v <= 5e-4
        verdicts.append(["exact_error", "pass" if ok else "fail",
                         max(err_u, err_v)])

    _write_csv(out / "verdicts.csv", ["name", "result", "statistic"], verdicts)

    chart = line_chart(
        {"linf_u": (1.0 + times, linf_u), "linf_v": (1.0 + times, linf_v),
         "l1_u": (1.0 + times, l1_u), "l1_v": (1.0 + times, l1_v)},
        title=f"{scenario.name}: norms", x_label="1 + t", y_label="norm")
    (out / "plot_trajectory.svg").write_text(chart, encoding="utf-8")
    return 0


def _cmd_run(args) -> int:
    targets = [_resolve_target(t) for t in args.targets]
    out_root = Path(args.out)
    jobs = []
    for scenario in targets:
        dest = out_root if len(targets) == 1 else out_root / scenario.name
        jobs.append((scenario, dest))
    if args.jobs > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(run_experiment, sc, dest) for sc, dest in jobs]
            for future in futures:
                future.result()
    else:
        for sc, dest in jobs:
            run_experiment(sc, dest)
    for sc, dest in jobs:
        print(f"{sc.name}: wrote {dest}")
    return 0


def _cmd_verify_identities(args) -> int:
    report = kernels.verify_identity_suite()
    worst_name, worst = report.worst()
    for name in sorted(report.max_abs_error):
        print(f"{name:24s} cases={report.cases[name]:3d} "
              f"max_abs_error={report.max_abs_error[name]:.3e}")
    ok = report.passed(args.tol)
    print(f"worst: {worst_name} at {worst:.3e} "
          f"({'within' if ok else 'EXCEEDS'} tolerance {args.tol:g})")
    return 0 if ok else 1


def _cmd_classify(args) -> int:
    scenario = _resolve_target(args.target)
    print(f"scenario: {scenario.name}")
    print(f"{'slot':4s} {'coeff':>10s} {'alpha':>5s} {'beta':>4s} {'gamma':>5s} "
          f"{'p':>2s} {'category':10s} {'mix':>3s}")
    for slot, term in scenario.system.all_terms():
        tc = analysis.classify_term(term)
        print(f"{slot:4s} {term.coeff:10.4g} {term.alpha:5d} {term.beta:4d} "
              f"{term.gamma:5d} {tc.p:2d} {tc.category.value:10s} "
              f"{'yes' if tc.is_mix else 'no':>3s}")
    adm = analysis.check_admissibility(scenario.system)
    print(f"thm1_admissible: {adm.thm1_admissible}")
    print(f"thm2_admissible: {adm.thm2_admissible}")
    print(f"thm4_shape: {adm.thm4_shape}")
    if adm.sign_condition is not None:
        print(f"sign_condition: {adm.sign_condition} (value {adm.sign_value:g})")
    for reason in adm.reasons:
        print(f"  note: {reason}")
    return 0


def _cmd_list(args) -> int:
    for scenario in scenarios.list_scenarios():
        print(f"{scenario.name:20s} {scenario.description}")
    return 0


def _cmd_plot(args) -> int:
    with open(args.csv, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = {name: [] for name in header}
        for row in reader:
            for name, cell in zip(header, row):
                columns[name].append(float(cell))
    times = np.array(columns[header[0]])
    series = {name: (1.0 + times, np.array(vals))
              for name, vals in columns.items()
              if name not in (header[0], "blow_up_flag")}
    chart = line_chart(series, title=Path(args.csv).stem, x_label="1 + t")
    Path(args.out).write_text(chart, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
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
                           help="closed forms vs adaptive quadrature")
    p_ver.add_argument("--tol", type=float, default=1e-8)
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

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
