"""Output checks behind mismatch_frac, and the reference fingerprint.

A scenario's fingerprint is its list of output files, its verdict rows and
the final row of its ``trajectory.csv`` (time, the four norms and the
blow-up flag, so a blow-up run also pins its detection time).

At seed 0 every field must match ``reference.json``: names, results, flags,
row counts and file lists exactly, and numbers to the relative tolerance
RTOL. RTOL sits between the two cases it must tell apart: a reordering of
the stepper's arithmetic at the 1e-12 level must pass, a 1e-6 relative
change must fail. The blow-up runs amplify small changes: cas2-distinct
turns a 1e-12 relative change of its initial data into 5.4e-8 at its final
row (cas2-equal into 2.8e-10, the decaying runs into ~1e-12). RTOL = 2e-7
leaves a factor of about four on both sides. At any other seed the
initial amplitudes differ, so only the pass/fail pattern, the blow-up flag
and the file list are compared.

Regenerate the reference (after a deliberate change of results only) with

    python3 perfbench/checks.py

which runs every builtin once through ``rda run`` and rewrites
``perfbench/reference.json``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

__all__ = ["RTOL", "Checker", "fingerprint", "compare_scenario",
           "check_identities", "load_reference"]

RTOL = 2e-7
IDENTITY_MIN_CASES = 20
IDENTITY_MAX_ERROR = 1e-8

# The exact-solution error is already divided by the solution's peak, so
# its scale is 1: a 1e-12 state change moves the ~4e-7 residual by ~1e-12,
# a relative change of the residual that a 1e-6 change of the state dwarfs.
_SCALE_FLOOR = {"exact_error": 1.0}

_NORMS = ("t", "linf_u", "linf_v", "l1_u", "l1_v")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


class Checker:
    """Counts attempted and failed output checks, keeping failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok


def close(got: float, ref: float, floor: float = 0.0) -> bool:
    """True iff got agrees with ref to RTOL relative (NaN matches NaN)."""
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    return abs(got - ref) <= RTOL * max(abs(ref), floor)


def fingerprint(out_dir) -> dict:
    """Fingerprint of one scenario's output directory."""
    out = Path(out_dir)
    with open(out / "verdicts.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    verdicts = [[name, result, float(stat)] for name, result, stat in rows]
    with open(out / "trajectory.csv", encoding="utf-8") as fh:
        traj = list(csv.reader(fh))[1:]
    final = traj[-1]
    return {
        "files": sorted(p.name for p in out.iterdir()),
        "verdicts": verdicts,
        "rows": len(traj),
        "final": {name: float(v) for name, v in zip(_NORMS, final)},
        "blow_up": int(final[5]),
    }


def compare_scenario(checker: Checker, name: str, out_dir, ref: dict,
                     numbers: bool) -> None:
    """Check one scenario's outputs against its reference fingerprint.

    numbers=False compares only the pass/fail pattern, the blow-up flag
    and the file list (the inputs were scaled by a non-zero seed).
    """
    try:
        got = fingerprint(out_dir)
    except (OSError, ValueError, IndexError) as exc:
        checker.check(False, f"{name}: unreadable outputs ({exc})")
        return
    checker.check(got["files"] == ref["files"],
                  f"{name}: files {got['files']} != {ref['files']}")
    pattern = [v[:2] for v in got["verdicts"]]
    ref_pattern = [v[:2] for v in ref["verdicts"]]
    checker.check(pattern == ref_pattern,
                  f"{name}: verdicts {pattern} != {ref_pattern}")
    checker.check(got["blow_up"] == ref["blow_up"],
                  f"{name}: blow-up flag {got['blow_up']} != {ref['blow_up']}")
    if not numbers:
        return
    checker.check(got["rows"] == ref["rows"],
                  f"{name}: {got['rows']} trajectory rows != {ref['rows']}")
    for key in _NORMS:
        checker.check(close(got["final"][key], ref["final"][key]),
                      f"{name}: final {key} {got['final'][key]!r} "
                      f"!= {ref['final'][key]!r}")
    if pattern != ref_pattern:
        return
    for (vname, _r, stat), (_n, _rr, ref_stat) in zip(got["verdicts"],
                                                      ref["verdicts"]):
        checker.check(close(stat, ref_stat, _SCALE_FLOOR.get(vname, 0.0)),
                      f"{name}: {vname} statistic {stat!r} != {ref_stat!r}")


_IDENTITY_LINE = re.compile(
    r"^(\S+)\s+cases=\s*(\d+)\s+max_abs_error=(\S+)\s*$")


def check_identities(checker: Checker, output: str, ref_names) -> None:
    """Check one ``rda verify-identities`` printout."""
    found = {}
    for line in output.splitlines():
        match = _IDENTITY_LINE.match(line)
        if match:
            found[match.group(1)] = (int(match.group(2)), float(match.group(3)))
    checker.check(sorted(found) == sorted(ref_names),
                  f"identities: {sorted(found)} != {sorted(ref_names)}")
    for name, (cases, error) in sorted(found.items()):
        checker.check(cases >= IDENTITY_MIN_CASES,
                      f"identities: {name} has {cases} < "
                      f"{IDENTITY_MIN_CASES} cases")
        checker.check(error <= IDENTITY_MAX_ERROR,
                      f"identities: {name} error {error:g} > "
                      f"{IDENTITY_MAX_ERROR:g}")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _write_reference() -> int:
    import contextlib
    import io
    import shutil
    import sys

    root = REFERENCE_PATH.parent.parent
    sys.path.insert(0, str(root / "src"))
    from rda import cli, scenarios

    out = root / ".perfbench_work" / "reference"
    shutil.rmtree(out, ignore_errors=True)
    names = list(scenarios.BUILTIN_SCENARIOS)
    if cli.main(["run", *names, "--out", str(out), "--jobs", "1"]) != 0:
        return 1
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if cli.main(["verify-identities"]) != 0:
            return 1
    identities = sorted(m.group(1) for m in map(_IDENTITY_LINE.match,
                                                buf.getvalue().splitlines())
                        if m)
    reference = {
        "scenarios": {name: fingerprint(out / name) for name in names},
        "identities": identities,
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n",
                              encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_write_reference())
