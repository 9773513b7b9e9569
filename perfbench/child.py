"""The measured process: one fresh interpreter per sample.

    python3 perfbench/child.py '<json spec>'

The spec's "mode" is one of

* "setup": import rda.cli, then resolve and validate every target, the
  work each ``rda`` call pays before its first scenario step;
* "run": ``rda run TARGET... --out OUT --jobs 1`` through ``rda.cli.main``;
* "identities": ``rda verify-identities`` through ``rda.cli.main``, repeated
  "repeats" times.

In "run" and "identities" mode the process writes a JSON result to
spec["result"]: the wall and CPU time of the window from the first
``rda.cli.main`` call until all outputs are written, its peak RSS, the exit
codes, the distinct identity-suite printouts, and with spec["trace"] the
tracer's summary. The window excludes the interpreter start and the
imports, which setup_s measures instead.

Every mode runs the host-speed probe of perfbench/probe.py over its
measured part (in "setup" mode from the first line of main on) and writes
the probe's summary to spec["result"] under "probe". In a traced sample
the probes' own time, about 0.5%, lands in the self time of the spans
they interrupt.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from probe import SpeedProbe  # this script's directory is on sys.path


def _setup(spec, probe) -> int:
    import rda.cli  # noqa: F401  (the import is what is measured)
    from rda import config, core, scenarios

    for target in spec["targets"]:
        if target in scenarios.BUILTIN_SCENARIOS:
            scenario = scenarios.get_scenario(target)
        else:
            scenario = config.parse_scenario(target)
        if not core.validate_scenario(scenario).valid:
            return 1
    probe.stop()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump({"probe": probe.summary()}, fh)
    return 0


def _measure(spec) -> int:
    # Made before the tracer patches numpy.fft, which the probe must bypass.
    probe = SpeedProbe("python", "numpy")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install_transforms()
    from rda import cli
    if tracer is not None:
        tracer.install()

    def call(argv):
        if tracer is None:
            return cli.main(argv)
        return tracer.call("cli.main", cli.main, argv)

    codes = []
    outputs = set()
    probe.start()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if spec["mode"] == "run":
        codes.append(call(["run", *spec["targets"], "--out", spec["out"],
                           "--jobs", "1"]))
    else:
        for _ in range(spec["repeats"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(call(["verify-identities"]))
            outputs.add(buf.getvalue())
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    probe.stop()
    result = {
        "probe": probe.summary(),
        "codes": codes,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "identity_outputs": sorted(outputs),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(Path(spec["result"]).with_suffix(".spans.csv"))
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if all(code == 0 for code in codes) else 1


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "setup":
        probe = SpeedProbe("python")
        probe.start()
        sys.path.insert(0, spec["src"])
        return _setup(spec, probe)
    sys.path.insert(0, spec["src"])
    return _measure(spec)


if __name__ == "__main__":
    sys.exit(main())
