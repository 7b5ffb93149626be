#!/usr/bin/env python3
"""Compute the time-converged loss energy E_ref of each workload.

    python3 perfbench/reference.py [workload ...]

Runs each workload with dt_init and dt_max at 1, 1/2 and 1/4 of the preset
values and integrates p(t) over the window. Backward Euler is first order,
so the difference ratio (E_1 - E_1/2) / (E_1/2 - E_1/4) should be near 2.
If it is, E_ref is the Richardson extrapolation 2 E_1/4 - E_1/2; if not,
the runs are not in the asymptotic range and E_ref is the finest run,
marked ``"method": "finest"``. Results are merged into reference.json.
"""

from __future__ import annotations

import json
import sys

from workloads import OUT_ROOT, WORKLOADS, load_foilwind, workload_config

from run import REFERENCE

DT_SCALES = (1.0, 0.5, 0.25)
RATIO_RANGE = (1.5, 2.5)  # accepted as "near 2"


def reference_entry(workload) -> dict:
    from foilwind.runner import execute_run

    from checks import loss_energy

    energies, cfgs = [], []
    for scale in DT_SCALES:
        cfg = workload_config(workload, scale)
        trace, _ = execute_run(cfg, OUT_ROOT / "reference" / workload.name)
        energies.append(loss_energy(trace))
        cfgs.append(cfg)
        print(f"{workload.name}: dt scale {scale}: E = {energies[-1]!r} J", flush=True)
    e1, e2, e4 = energies
    ratio = (e1 - e2) / (e2 - e4)
    asymptotic = RATIO_RANGE[0] <= ratio <= RATIO_RANGE[1]
    return {
        "preset": workload.preset,
        "periods": workload.periods,
        "dt_init": [c.solver.dt_init for c in cfgs],
        "dt_max": [c.solver.dt_max for c in cfgs],
        "loss_energy_j": energies,
        "ratio": ratio,
        "method": "richardson" if asymptotic else "finest",
        "e_ref_j": 2 * e4 - e2 if asymptotic else e4,
    }


def main(argv: list[str]) -> int:
    load_foilwind()
    names = argv or sorted(WORKLOADS)
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names:
        table[name] = reference_entry(WORKLOADS[name])
        print(json.dumps({name: table[name]}))
    REFERENCE.write_text(json.dumps(dict(sorted(table.items())), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
