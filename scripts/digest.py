"""SHA-256 digest of every builtin sample, every output file and the
identity suite, so that "byte-identical" is one command.

Usage:
  python3 scripts/digest.py            write DIGEST.json from this checkout
  python3 scripts/digest.py --check    compare this checkout with DIGEST.json

DIGEST.json records, beside the Python, numpy and scipy versions and the
CPU model:
  - builtins: for each builtin run to its t_end by `rda run`'s own
    cli.run_experiment, a SHA-256 over every (repr(t), spectra bytes,
    fields bytes) that run_experiment hands its observers and the repr of
    the blow-up time it returns, one short record per sample (its own
    hash, its t and the sup norms of u and v from analysis.sample_norms),
    and the SHA-256 of each file write_outputs writes;
  - cut: the same sample records for each builtin cut to t_end <= 2 and
    sample_dt <= 0.5 on its full grid, with the trajectory output alone
    (tests/test_digest.py checks these and the two cas2 builtins, which
    blow up in under a second);
  - identities: the SHA-256 of the `rda verify-identities` printout and of
    the 158 left-hand sides its Gauss-Legendre quadrature returns, as
    kernels.verify_identity_suite reports them in IdentityReport.integrals.

The script watches a run only through run_experiment's observers and the
suite's report; it replaces no attribute of an rda module.

--check exits 1 on any mismatch and names the first differing sample of
each builtin: its index, its t and max|delta| of its sup norms (a lower
bound on the field's). A version or CPU that differs from the recorded one
is printed first, since it can move bits without any change to the code.
The full set takes about 20 s.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from rda import analysis, cli, kernels  # noqa: E402
from rda.core import validate_scenario  # noqa: E402
from rda.scenarios import BUILTIN_SCENARIOS, get_scenario  # noqa: E402

DIGEST = ROOT / "DIGEST.json"
CUT_T_END = 2.0
CUT_SAMPLE_DT = 0.5


def machine() -> dict:
    """The versions and CPU that the recorded bits depend on."""
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu": cpu}


def cut(scenario):
    """scenario on its full grid, cut to t_end <= 2 and sample_dt <= 0.5,
    with the trajectory output alone: a cut run is too short to judge the
    verdicts, and only its samples are hashed."""
    return dataclasses.replace(scenario, t_end=min(scenario.t_end, CUT_T_END),
                               sample_dt=min(scenario.sample_dt, CUT_SAMPLE_DT),
                               outputs=("trajectory",))


def run_digest(scenario, out_dir=None) -> dict:
    """Run scenario through `rda run`'s own pipeline, cli.run_experiment,
    and digest every sample it hands its observers.

    run_experiment writes the run's files into out_dir, each of which is
    hashed; without out_dir they go to a temporary directory, unhashed.
    """
    whole = hashlib.sha256()
    records = []

    def digest_sample(t, spectra, fields):
        data = repr(t).encode() + spectra.tobytes() + fields.tobytes()
        whole.update(data)
        (sup_u, sup_v), _ = analysis.sample_norms(fields, scenario.grid.dx)
        records.append(f"{hashlib.sha256(data).hexdigest()[:16]} {t!r} "
                       f"{float(sup_u)!r} {float(sup_v)!r}")

    with contextlib.ExitStack() as stack:
        root = out_dir or stack.enter_context(tempfile.TemporaryDirectory())
        out = Path(root) / scenario.name
        blow_up_time = cli.run_experiment(scenario, validate_scenario(scenario),
                                          out, [digest_sample])
        whole.update(repr(blow_up_time).encode())
        digest = {"sha256": whole.hexdigest(), "blow_up_time": repr(blow_up_time),
                  "samples": records}
        if out_dir is not None:
            digest["files"] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                               for path in sorted(out.iterdir())}
    return digest


def identity_digest() -> dict:
    """Hashes of the `rda verify-identities` printout and of the left-hand
    sides the identity suite's quadrature returns, family by family."""
    values = kernels.verify_identity_suite().integrals
    printout = io.StringIO()
    with contextlib.redirect_stdout(printout):
        cli.main(["verify-identities"])
    return {"printout": hashlib.sha256(printout.getvalue().encode()).hexdigest(),
            "integrals": hashlib.sha256(np.array(values).tobytes()).hexdigest(),
            "integral_count": len(values)}


def compute() -> dict:
    with tempfile.TemporaryDirectory() as out_dir:
        builtins = {name: run_digest(get_scenario(name), out_dir)
                    for name in BUILTIN_SCENARIOS}
    return {"machine": machine(),
            "identities": identity_digest(),
            "builtins": builtins,
            "cut": {name: run_digest(cut(get_scenario(name)))
                    for name in BUILTIN_SCENARIOS}}


def first_difference(name: str, old: dict, new: dict) -> str | None:
    """The first sample where two run digests differ, as one line, or None."""
    if old["sha256"] == new["sha256"]:
        return None
    for index, (a, b) in enumerate(zip(old["samples"], new["samples"])):
        if a != b:
            (_, t_old, *sup_old), (_, t_new, *sup_new) = a.split(), b.split()
            delta = max(abs(float(x) - float(y)) for x, y in zip(sup_old, sup_new))
            at = t_new if t_new == t_old else f"{t_old} recorded, {t_new} now"
            return (f"{name}: sample {index} (t={at}) differs, "
                    f"max|delta| of its sup norms {delta:.3e}")
    if len(old["samples"]) != len(new["samples"]):
        return (f"{name}: {len(old['samples'])} samples recorded, "
                f"{len(new['samples'])} now")
    return (f"{name}: blow-up time {old['blow_up_time']} recorded, "
            f"{new['blow_up_time']} now")


def machine_notes(recorded: dict) -> list[str]:
    """One line per version or CPU that differs from the recorded one."""
    return [f"note: {key} {recorded.get(key)!r} recorded, {value!r} installed"
            for key, value in machine().items() if recorded.get(key) != value]


def differences(old: dict, new: dict) -> list[str]:
    """One line per mismatch between two digests of the whole set."""
    lines = [f"identities: {key} differs"
             for key, value in new["identities"].items()
             if old["identities"].get(key) != value]
    for section in ("builtins", "cut"):
        for name, run in new[section].items():
            line = first_difference(f"{section} {name}", old[section][name], run)
            if line is not None:
                lines.append(line)
            old_files = old[section][name].get("files", {})
            new_files = run.get("files", {})
            lines += [f"{section} {name}: {file} differs"
                      for file in sorted(old_files.keys() | new_files.keys())
                      if old_files.get(file) != new_files.get(file)]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help="compare with DIGEST.json instead of writing it")
    args = parser.parse_args(argv)
    new = compute()
    if not args.check:
        DIGEST.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {DIGEST.name}")
        return 0
    old = json.loads(DIGEST.read_text(encoding="utf-8"))
    for line in machine_notes(old["machine"]):
        print(line)
    mismatches = differences(old, new)
    for line in mismatches:
        print(line)
    if mismatches:
        return 1
    print(f"{DIGEST.name}: every sample, output file and identity value matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
