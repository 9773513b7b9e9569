"""Span tracer for the traced benchmark run.

The tracer wraps the public entry points of each ``rda`` module from the
outside and records one span (name, start, end, parent) per call. A span's
self time is its duration minus the time its child spans cover, so the
self times of all spans under the root partition the traced window.
Spans are kept in memory and written out once the run ends.

Transform calls into ``numpy.fft`` and ``scipy.fft`` are counted and timed
but are not spans: their time stays inside the self time of the solver
layer that called them, and ``solver.fft_calls`` / ``solver.fft_s`` report
them as a sub-measure.

Where the wrappers must go (each is a way to silently trace nothing):

* ``rda.cli._ETA_FUNCTIONS`` binds the ``eta_*`` evaluators when ``rda.cli``
  is imported, so replacing ``rda.analysis.eta_*`` misses every call the
  CLI makes. The dictionary's values are wrapped in place.
* ``rda.analysis`` imports ``drag_weight_profile`` and ``erf`` by name, and
  ``rda.kernels`` imports ``gauss_legendre_panels``, ``quad_adaptive``,
  ``erfcx`` and ``gamma`` by name. Each is wrapped in the namespace that
  looks it up, not in the module that defines it.
* ``rda.cli`` imports ``parse_scenario``, ``validate_scenario`` and
  ``line_chart`` by name, ``rda.config`` imports ``validate_scenario`` and
  ``rda.solver`` imports ``evaluate_initial``; the same rule applies.
* Functions that are looked up as module attributes at call time
  (``solver.run``, ``solver.step``, ``analysis.fit_decay_exponent``, ...)
  are wrapped on their defining module, which covers every caller.
* The transform modules are patched before ``rda`` is imported, so a
  ``from scipy.fft import rfft`` inside the package binds the counting
  wrapper too.

A target that no longer exists is skipped with a warning on stderr and its
metrics read 0, so a refactor of the package degrades the trace instead of
breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

__all__ = ["Tracer", "LAYER_METRICS", "layer_metrics", "BUILTIN_NAMES"]

_FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
                  "fft2", "ifft2", "rfft2", "irfft2",
                  "fftn", "ifftn", "rfftn", "irfftn")

BUILTIN_NAMES = ("toy", "thm1-exp", "thm1-alg", "thm2-irrelevant",
                 "remark51-exact", "cas2-equal", "cas2-distinct",
                 "cas3-stable", "cas3-sign-violated")

# (module, attribute, span name) for every plain function wrapper.
_SPAN_TARGETS = (
    ("rda.cli", "parse_scenario", "config.parse"),
    ("rda.cli", "validate_scenario", "core.validate"),
    ("rda.config", "validate_scenario", "core.validate"),
    ("rda.cli", "_write_csv", "cli.write"),
    ("rda.cli", "line_chart", "svg.chart"),
    ("rda.solver", "evaluate_initial", "core.initial_data"),
    ("rda.solver", "run_scenario", "solver.run_scenario"),
    ("rda.solver", "run", "solver.run"),
    ("rda.solver", "step", "solver.step"),
    ("rda.solver", "detect_blow_up", "solver.blowup_check"),
    ("rda.solver", "to_normal_form", "solver.normal_form"),
    ("rda.analysis", "fit_decay_exponent", "analysis.decay_fit"),
    ("rda.analysis", "check_admissibility", "analysis.diagnostics"),
    ("rda.analysis", "cas2_lower_bounds", "analysis.diagnostics"),
    ("rda.analysis", "amplitude_law_check", "analysis.diagnostics"),
    ("rda.analysis", "erf", "special"),
    ("rda.kernels", "drag_profile", "kernels.drag_profile"),
    ("rda.kernels", "verify_identity_suite", "kernels.identity_suite"),
    ("rda.kernels", "gauss_legendre_panels", "quadrature.gl"),
    ("rda.kernels", "quad_adaptive", "quadrature.quad"),
    ("rda.kernels", "erfcx", "special"),
    ("rda.kernels", "gamma", "special"),
    ("rda.special", "erf", "special"),
    ("rda.special", "erfc", "special"),
    ("rda.special", "erfcx", "special"),
    ("rda.special", "gamma", "special"),
)

# The self-time metrics; together they cover every span under the root.
_SELF_TIME_METRICS = (
    "solver.step_loop_s", "solver.blowup_check_s", "solver.sample_s",
    "solver.normal_form_s", "core.validate_s", "core.initial_data_s",
    "config.parse_s", "analysis.envelope_s", "analysis.decay_fit_s",
    "analysis.diagnostics_s", "kernels.drag_weight_s", "kernels.drag_profile_s",
    "kernels.identity_suite_s", "quadrature.quad_s", "quadrature.gl_s",
    "special.self_s", "svg.chart_s", "cli.write_s", "cli.self_s")

# (metric, unit, better, the end-to-end metric and workload it should move).
LAYER_METRICS = (
    ("solver.step_loop_s", "s", "lower",
     "wall_s/cpu_s on toy (FFT size), thm2-irrelevant (with drag) and "
     "builtins-small (per-call overhead); nothing on identities"),
    ("solver.steps", "count", "lower", "wall_s on every scenario workload"),
    ("solver.step_us", "us", "lower",
     "wall_s on toy, thm2-irrelevant and builtins-small"),
    ("solver.fft_calls", "count", "lower",
     "wall_s/cpu_s on toy, thm2-irrelevant and builtins-small"),
    ("solver.fft_s", "s", "lower",
     "wall_s/cpu_s on toy, thm2-irrelevant and builtins-small"),
    ("solver.blowup_check_s", "s", "lower", "wall_s on builtins-small"),
    ("solver.sample_s", "s", "lower",
     "peak_rss_mb and wall_s on builtins-small"),
    ("solver.samples", "count", "lower",
     "peak_rss_mb and wall_s on builtins-small"),
    ("solver.normal_form_s", "s", "lower",
     "peak_rss_mb and wall_s on builtins-small"),
    ("core.validate_s", "s", "lower", "setup_s on every scenario workload"),
    ("core.initial_data_s", "s", "lower", "wall_s on every scenario workload"),
    ("config.parse_s", "s", "lower",
     "setup_s and wall_s on scenario workloads at a non-zero seed"),
    ("analysis.envelope_s", "s", "lower",
     "wall_s on thm2-irrelevant; flat on toy"),
    ("analysis.decay_fits", "count", "lower",
     "wall_s on toy, thm2-irrelevant and builtins-small"),
    ("analysis.decay_fit_s", "s", "lower",
     "wall_s on toy, thm2-irrelevant and builtins-small"),
    ("analysis.diagnostics_s", "s", "lower", "wall_s on builtins-small"),
    ("kernels.drag_weight_s", "s", "lower",
     "wall_s, cpu_s and peak_rss_mb on thm2-irrelevant"),
    ("kernels.drag_weight_calls", "count", "lower",
     "wall_s, cpu_s and peak_rss_mb on thm2-irrelevant"),
    ("kernels.drag_refine_evals", "count", "lower",
     "wall_s, cpu_s and peak_rss_mb on thm2-irrelevant"),
    ("kernels.drag_useful_ratio", "ratio", "higher",
     "wall_s and cpu_s on thm2-irrelevant"),
    ("kernels.drag_exp_evals", "count", "lower",
     "wall_s, cpu_s and peak_rss_mb on thm2-irrelevant"),
    ("kernels.drag_profile_s", "s", "lower", "wall_s on builtins-small"),
    ("kernels.identity_suite_s", "s", "lower", "wall_s on identities"),
    ("quadrature.quad_calls", "count", "lower", "wall_s on identities"),
    ("quadrature.quad_s", "s", "lower", "wall_s on identities"),
    ("quadrature.gl_calls", "count", "lower", "wall_s on thm2-irrelevant"),
    ("quadrature.gl_s", "s", "lower", "wall_s on thm2-irrelevant"),
    ("special.calls", "count", "lower",
     "wall_s on identities and builtins-small"),
    ("special.self_s", "s", "lower",
     "wall_s on identities and builtins-small"),
    ("svg.chart_s", "s", "lower", "wall_s on every scenario workload"),
    ("cli.write_s", "s", "lower", "wall_s on every scenario workload"),
    ("cli.self_s", "s", "lower",
     "wall_s and peak_rss_mb on every scenario workload"),
) + tuple(
    (f"scenario.{name}.wall_s", "s", "lower",
     f"wall_s on the workload that runs {name}")
    for name in BUILTIN_NAMES
) + (
    ("trace.wall_s", "s", "lower", "none: the traced run's own window"),
    ("trace.overhead_s", "s", "lower",
     "none: traced wall_s minus the untraced median"),
    ("trace.attributed_frac", "ratio", "higher",
     "none: named self times over the traced wall_s, should stay near 1"),
)


class Tracer:
    """Records spans and transform counters for one traced process."""

    def __init__(self):
        # One list [name, parent index, start, end, covered-by-children].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.warnings: list[str] = []
        self._drag_points = 0

    # -- recording ---------------------------------------------------------

    def _add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), 0.0, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        record = self.spans[index]
        record[3] = perf_counter()
        self._stack.pop()
        if record[1] >= 0:
            self.spans[record[1]][4] += record[3] - record[2]

    def wrap(self, name, fn):
        """Return fn wrapped in a span; name may be a callable of the args."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name(*args) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one span (used for the root span)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add("fft_calls", 1)
                self._add("fft_s", perf_counter() - start)
        return counted

    # -- installation ------------------------------------------------------

    def _warn(self, message: str) -> None:
        self.warnings.append(message)
        print(f"trace: {message}", file=sys.stderr)

    def install_transforms(self) -> None:
        """Patch numpy.fft and scipy.fft; call before rda is imported."""
        for module_name in ("numpy.fft", "scipy.fft"):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self._warn(f"{module_name} not importable, not counted")
                continue
            for attr in _FFT_FUNCTIONS:
                fn = getattr(module, attr, None)
                if fn is not None:
                    setattr(module, attr, self._count_fft(fn))

    def _patch(self, module, attr: str, name) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self._warn(f"{module.__name__}.{attr} not found, not traced")
            return
        setattr(module, attr, self.wrap(name, fn))

    def install(self) -> None:
        """Wrap the rda entry points; rda.cli must be importable."""
        import pathlib

        modules = {}
        for module_name in ("rda.cli", "rda.config", "rda.solver",
                            "rda.analysis", "rda.kernels", "rda.special"):
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                self._warn(f"{module_name} not importable, not traced")
        for module_name, attr, name in _SPAN_TARGETS:
            if module_name in modules:
                self._patch(modules[module_name], attr, name)
        cli = modules["rda.cli"]
        self._patch(cli, "run_experiment",
                    lambda scenario, *rest: f"scenario.{scenario.name}")
        eta = getattr(cli, "_ETA_FUNCTIONS", None)
        if isinstance(eta, dict):
            for kind, fn in list(eta.items()):
                eta[kind] = self.wrap("analysis.envelope", fn)
        else:
            self._warn("rda.cli._ETA_FUNCTIONS not found, envelopes not traced")
        # The drag weight's x is its first argument; the exponential count
        # is the x-length times the nodes of each GL build made under it.
        analysis = modules.get("rda.analysis")
        drag_fn = getattr(analysis, "drag_weight_profile", None)
        if drag_fn is None:
            self._warn("rda.analysis.drag_weight_profile not found, not traced")
        else:
            @functools.wraps(drag_fn)
            def drag_weight(x, *args, **kwargs):
                self._drag_points = len(x)
                return drag_fn(x, *args, **kwargs)
            analysis.drag_weight_profile = self.wrap("kernels.drag_weight",
                                                     drag_weight)
        kernels = modules.get("rda.kernels")
        gl_fn = getattr(kernels, "gauss_legendre_panels", None)
        if gl_fn is not None:
            def gl_counted(*args, **kwargs):
                nodes, weights = gl_fn(*args, **kwargs)
                if self._under("kernels.drag_weight"):
                    self._add("drag_exp_evals", self._drag_points * len(nodes))
                return nodes, weights
            kernels.gauss_legendre_panels = gl_counted
        refine = getattr(kernels, "_refine_panels", None)
        if refine is None:
            self._warn("rda.kernels._refine_panels not found, "
                       "refinement evaluations not counted")
        else:
            def refine_counted(evaluate, *args, **kwargs):
                def counted(panels):
                    if self._under("kernels.drag_weight"):
                        self._add("drag_refine_evals", 1)
                    return evaluate(panels)
                return refine(counted, *args, **kwargs)
            kernels._refine_panels = refine_counted
        state_cls = getattr(modules.get("rda.solver"), "SpectralState", None)
        if state_cls is not None and hasattr(state_cls, "to_physical"):
            state_cls.to_physical = self.wrap("solver.sample",
                                              state_cls.to_physical)
        else:
            self._warn("rda.solver.SpectralState.to_physical not found")
        pathlib.Path.write_text = self.wrap("cli.write", pathlib.Path.write_text)

    def _under(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in reversed(self._stack))

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-name self time, inclusive time and count, plus counters."""
        layers: dict[str, dict] = {}
        for name, _parent, start, end, covered in self.spans:
            entry = layers.setdefault(name, {"count": 0, "self_s": 0.0,
                                             "total_s": 0.0})
            entry["count"] += 1
            entry["self_s"] += (end - start) - covered
            entry["total_s"] += end - start
        return {"layers": layers, "counters": dict(self.counters),
                "warnings": list(self.warnings)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,parent,start,end\n")
            for index, (name, parent, start, end, _c) in enumerate(self.spans):
                fh.write(f"{index},{name},{parent},{start!r},{end!r}\n")


def _self(layers: dict, *names: str) -> float:
    return sum(layers.get(n, {}).get("self_s", 0.0) for n in names)


def _count(layers: dict, name: str) -> float:
    return layers.get(name, {}).get("count", 0)


def layer_metrics(summary: dict, traced_wall: float,
                  overhead: float) -> dict[str, float]:
    """Map a traced run's summary to the values of LAYER_METRICS, given the
    traced window's wall time and the tracing overhead."""
    layers = summary["layers"]
    counters = summary["counters"]
    # The CLI's own work: argument handling, target resolution, norm series
    # and verdict rows, outside every wrapped entry point.
    cli_self = _self(layers, "cli.main") + sum(
        v["self_s"] for k, v in layers.items() if k.startswith("scenario."))
    steps = _count(layers, "solver.step")
    step_loop = _self(layers, "solver.run_scenario", "solver.run", "solver.step")
    drag_evals = counters.get("drag_refine_evals", 0)
    drag_calls = _count(layers, "kernels.drag_weight")
    values = {
        "solver.step_loop_s": step_loop,
        "solver.steps": steps,
        "solver.step_us": 1e6 * step_loop / steps if steps else 0.0,
        "solver.fft_calls": counters.get("fft_calls", 0),
        "solver.fft_s": counters.get("fft_s", 0.0),
        "solver.blowup_check_s": _self(layers, "solver.blowup_check"),
        "solver.sample_s": _self(layers, "solver.sample"),
        "solver.samples": _count(layers, "solver.sample"),
        "solver.normal_form_s": _self(layers, "solver.normal_form"),
        "core.validate_s": _self(layers, "core.validate"),
        "core.initial_data_s": _self(layers, "core.initial_data"),
        "config.parse_s": _self(layers, "config.parse"),
        "analysis.envelope_s": _self(layers, "analysis.envelope"),
        "analysis.decay_fits": _count(layers, "analysis.decay_fit"),
        "analysis.decay_fit_s": _self(layers, "analysis.decay_fit"),
        "analysis.diagnostics_s": _self(layers, "analysis.diagnostics"),
        "kernels.drag_weight_s": _self(layers, "kernels.drag_weight"),
        "kernels.drag_weight_calls": drag_calls,
        "kernels.drag_refine_evals": drag_evals,
        "kernels.drag_useful_ratio": drag_calls / drag_evals if drag_evals else 0.0,
        "kernels.drag_exp_evals": counters.get("drag_exp_evals", 0),
        "kernels.drag_profile_s": _self(layers, "kernels.drag_profile"),
        "kernels.identity_suite_s": _self(layers, "kernels.identity_suite"),
        "quadrature.quad_calls": _count(layers, "quadrature.quad"),
        "quadrature.quad_s": _self(layers, "quadrature.quad"),
        "quadrature.gl_calls": _count(layers, "quadrature.gl"),
        "quadrature.gl_s": _self(layers, "quadrature.gl"),
        "special.calls": _count(layers, "special"),
        "special.self_s": _self(layers, "special"),
        "svg.chart_s": _self(layers, "svg.chart"),
        "cli.write_s": _self(layers, "cli.write"),
        "cli.self_s": cli_self,
    }
    for name in BUILTIN_NAMES:
        values[f"scenario.{name}.wall_s"] = \
            layers.get(f"scenario.{name}", {}).get("total_s", 0.0)
    attributed = sum(values[name] for name in _SELF_TIME_METRICS)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = overhead
    values["trace.attributed_frac"] = attributed / traced_wall
    return values
