"""Self-convergence of the Strang splitting on the toy system.

Halves dt repeatedly, compares solutions at a fixed time, and prints the
max-norm differences between consecutive refinements together with the
observed convergence factors (4 for a clean second-order scheme). Each
run starts from toy's validated initial fields and keeps only its last
sample, the solution at the fixed time.

Usage: python scripts/convergence_study.py [--t-final 1.0]
"""

import argparse

import numpy as np

from rda.core import validate_scenario
from rda.scenarios import get_scenario
from rda.solver import SpectralWorkspace, run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-final", type=float, default=1.0)
    parser.add_argument("--dts", type=float, nargs="+",
                        default=[4e-3, 2e-3, 1e-3, 5e-4])
    args = parser.parse_args()

    scenario = get_scenario("toy")
    initial = validate_scenario(scenario).initial
    finals = []
    for dt in args.dts:
        ws = SpectralWorkspace(grid=scenario.grid, system=scenario.system, dt=dt)
        last = {}
        run(ws, initial, args.t_final, args.t_final,
            lambda t, spectra, fields: last.update(fields=fields))
        finals.append(last["fields"])
        print(f"dt={dt:g}: done")
    diffs = []
    for coarse, fine, dt in zip(finals, finals[1:], args.dts):
        err = max(float(np.max(np.abs(coarse[0] - fine[0]))),
                  float(np.max(np.abs(coarse[1] - fine[1]))))
        diffs.append(err)
        print(f"dt={dt:g} vs dt={dt / 2:g}: max diff {err:.3e}")
    for e_coarse, e_fine in zip(diffs, diffs[1:]):
        print(f"convergence factor: {e_coarse / e_fine:.2f}")


if __name__ == "__main__":
    main()
