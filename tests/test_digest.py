"""The committed DIGEST.json pins the builtins' samples and the identity
suite's integrals bit for bit.

scripts/digest.py checks the whole set (5.4 s on a 2-vCPU VM); these tests
check the part that runs in about two seconds: every builtin cut to t_end <= 2 and
sample_dt <= 0.5 on its full grid, cas2-equal and cas2-distinct run to
their blow-up, and the 158 left-hand sides the identity suite's
Gauss-Legendre quadrature returns, with the `rda verify-identities`
printout. A failure names the first differing sample. Every test skips,
naming the versions, when the installed Python, numpy or scipy differs
from the recorded one, since a version can move bits without any change
to the code; a CPU that differs is named in the failure message.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from rda.scenarios import BUILTIN_SCENARIOS, get_scenario

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "digest.py"
_spec = importlib.util.spec_from_file_location("digest", _SCRIPT)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

RECORDED = json.loads(digest.DIGEST.read_text(encoding="utf-8"))
_INSTALLED = digest.machine()
_OTHER_VERSIONS = [f"{key} {RECORDED['machine'][key]} recorded, {_INSTALLED[key]} installed"
                   for key in ("python", "numpy", "scipy")
                   if RECORDED["machine"][key] != _INSTALLED[key]]
pytestmark = pytest.mark.skipif(
    bool(_OTHER_VERSIONS),
    reason="DIGEST.json pins other versions' bits: " + "; ".join(_OTHER_VERSIONS))


def _mismatch(line: str) -> str:
    notes = digest.machine_notes(RECORDED["machine"])
    return "\n".join([line, *notes]) + "\nregenerate with: python3 scripts/digest.py"


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_cut_builtin_samples_match_digest(name):
    run = digest.run_digest(digest.cut(get_scenario(name)))
    line = digest.first_difference(f"cut {name}", RECORDED["cut"][name], run)
    assert line is None, _mismatch(line)


@pytest.mark.parametrize("name", ["cas2-equal", "cas2-distinct"])
def test_blow_up_samples_match_digest(name):
    run = digest.run_digest(get_scenario(name))
    line = digest.first_difference(name, RECORDED["builtins"][name], run)
    assert line is None, _mismatch(line)


def test_identity_integrals_match_digest():
    identities = digest.identity_digest()
    assert identities["integral_count"] == 158
    assert identities == RECORDED["identities"], _mismatch(
        "the identity suite's integral values or printout differ from DIGEST.json")
