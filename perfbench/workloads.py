"""The benchmark's workloads and the import of foilwind from the checkout.

Each workload is a built-in preset with only the simulated window
(``solver.periods``) shortened, so that several complete runs fit in one
benchmark invocation and their median is steady. The windows were chosen on
a 2-core x86 host: about 4 s per run for ``fcm-tw`` and ``fcm-hfull``
and 6 s for ``ref``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"  # run artifacts, spans and records


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    periods: float


WORKLOADS = {
    w.name: w
    for w in (
        # 1892 unknowns, 154 carry curl: sparse LU is ~75 % of wall, the case
        # static condensation of the curl-free air targets. A quarter period
        # runs past the start-up ramp into the dt_max regime.
        Workload("fcm-tw", "pancake2d_fcm_tw", 0.25),
        # 3506 unknowns, nearly all with curl; heaviest line search (about
        # 2.5 assemblies per linear solve), so assembly changes show here and
        # condensation should not.
        Workload("fcm-hfull", "pancake2d_fcm_hfull", 0.03),
        # 7805 unknowns with one ~70 ms factorization per solve: the case for
        # fill-reducing orderings, with assembly a few percent of wall.
        Workload("ref", "pancake2d_ref", 0.0125),
    )
}


def load_foilwind():
    """Import foilwind from ``src/`` of this checkout, never from elsewhere.

    Raises ImportError when the checkout holds no source tree, so that the
    benchmark refuses to run rather than measure an installed copy.
    """
    src = ROOT / "src"
    if not (src / "foilwind" / "__init__.py").is_file():
        raise ImportError(f"no foilwind source tree under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import foilwind

    if Path(foilwind.__file__).resolve().parent != (src / "foilwind").resolve():
        raise ImportError(f"foilwind was imported from {foilwind.__file__}, not {src}")
    return foilwind


def workload_config(workload: Workload, dt_scale: float = 1.0):
    """The workload's RunConfig; ``dt_scale`` scales dt_init and dt_max."""
    from foilwind.config import config_from_preset

    cfg = config_from_preset(workload.preset)
    s = cfg.solver
    solver = replace(
        s,
        periods=workload.periods,
        dt_init=s.dt_init * dt_scale,
        dt_max=s.dt_max * dt_scale,
    )
    return replace(cfg, solver=solver)
