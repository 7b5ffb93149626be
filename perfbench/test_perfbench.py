"""Tests of the benchmark itself, on tiny two-turn cases (well under a second each).

Run with ``python3 -m pytest perfbench -q`` from the root of the checkout.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from foilwind import solver
from foilwind.config import MeshConfig, RunConfig
from foilwind.formulations import Excitation
from foilwind.materials import JcConstant, MaterialParams
from foilwind.mesh import CoilGeometry
from foilwind.solver import SolverConfig
from foilwind.variants import FormulationVariant

from checks import check_run
from probe import ROOT_SPAN, Recorder, Span, layer_self_times, reconcile, self_times
from run import one_run, set_up


def tiny_config(variant=FormulationVariant.FCM_T_OMEGA, **solver_kw) -> RunConfig:
    return RunConfig(
        geometry=CoilGeometry(inner_radius=25e-3, n_turns=2, cc_thickness=1e-4,
                              cc_width=12e-3, homogenized=variant.is_fcm),
        mesh=MeshConfig(n_alpha=4, n_beta=8),
        materials=MaterialParams(jc_model=JcConstant(1e10)),
        variant=variant,
        voltage_order=3,
        excitation=Excitation(amplitude=96.0, frequency=50.0),
        solver=SolverConfig(**{"periods": 0.02, **solver_kw}),
    )


def test_self_time_is_duration_minus_direct_children():
    spans = [
        Span("runner.execute_run", 0.0, 10.0, -1, 0),
        Span("solver.run_transient", 1.0, 4.0, 0, 0),
        Span("formulations.assemble", 2.0, 3.0, 1, 0),
        Span("solver.factor", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    layers = layer_self_times(spans)
    assert layers["runner"] == 3.0
    assert layers["solver"] == 6.0
    assert layers["formulations"] == 1.0
    assert layers["mesh"] == 0.0
    assert sum(layers.values()) == 10.0


@pytest.mark.parametrize("variant", [FormulationVariant.FCM_T_OMEGA, FormulationVariant.REF_H_PHI])
def test_traced_run_passes_checks_and_reconciles(tmp_path, variant):
    cfg = tiny_config(variant)
    rec = Recorder()
    run = one_run(cfg, set_up(cfg), tmp_path, rec)
    assert run["failures"] == []
    m = run["layers"]
    assert m["solver.factor_calls"] == rec.trace.linsys_count > 0
    assert m["formulations.assemble_calls"] == (
        m["solver.newton_solve_calls"] + m["solver.linesearch_trials"]
    )
    assert m["solver.accepted_steps"] == len(rec.trace.times) - 1
    assert m["solver.backtracks"] >= 0
    assert sum(v for k, v in m.items() if k.endswith(".layer_self_s")) == pytest.approx(
        run["wall_s"], rel=1e-9
    )
    # every span sits inside its parent, and the root is the whole run
    spans = rec.spans
    assert spans[0].name == ROOT_SPAN and spans[0].parent == -1
    for s in spans[1:]:
        p = spans[s.parent]
        assert p.start <= s.start <= s.end <= p.end
    # the originals are back once the run ends
    assert solver.splu is splu


def test_reconcile_reports_each_broken_identity(tmp_path):
    cfg = tiny_config()
    rec = Recorder()
    run = one_run(cfg, set_up(cfg), tmp_path, rec)
    summary = {"linsys_count": rec.trace.linsys_count, "accepted_steps": len(rec.trace.times) - 1}
    assert run["failures"] == [] and reconcile(rec, summary) == []

    rec.counts["formulations.assemble"] += 1
    assert [v.split(":")[0] for v in reconcile(rec, summary)] == [
        "formulations.assemble_calls == solver.newton_solve_calls + solver.linesearch_trials"
    ]
    summary["linsys_count"] += 1
    assert len(reconcile(rec, summary)) == 3


def test_nonconverging_run_is_counted_as_failed(tmp_path):
    # an unreachable tolerance at dt_min: the first step raises NonConvergenceError
    cfg = tiny_config(newton_tol_rel=1e-300, newton_tol_abs=1e-300, max_newton_iters=2,
                      dt_min=2e-5, dt_init=2e-5, dt_max=2e-5)
    rec = Recorder()
    run = one_run(cfg, set_up(cfg), tmp_path, rec)
    assert len(run["failures"]) == 1
    assert run["failures"][0].startswith("NonConvergenceError")
    assert rec.counts["solver.rejected_attempts"] == 1
    assert rec.counts["solver.newton_iters"] == 2
    assert solver.splu is splu

    plain = one_run(cfg, set_up(cfg), tmp_path)
    assert plain["failures"][0].startswith("NonConvergenceError")


def test_checks_flag_negative_power_and_current_drift(tmp_path):
    cfg = tiny_config()
    ctx = set_up(cfg)
    rec = Recorder()
    assert one_run(cfg, ctx, tmp_path, rec)["failures"] == []
    good = rec.trace
    n = len(good.times)

    bad_p = SimpleNamespace(**{**vars(good), "p": np.where(np.arange(n) == n - 1, -1.0, good.p)})
    failures, _ = check_run(cfg, ctx, bad_p)
    assert failures == ["p(t) is not finite and non-negative"]

    drift = good.slice_currents.copy()
    drift[-1, 0] += 1e-3
    failures, values = check_run(cfg, ctx, SimpleNamespace(**{**vars(good), "slice_currents": drift}))
    assert len(failures) == 1 and failures[0].startswith("transport current off by")
    assert values["transport_current_err_a"] == pytest.approx(1e-3, rel=1e-6)


def test_reference_covers_every_workload_window():
    from run import load_reference
    from workloads import WORKLOADS, workload_config

    for name, workload in WORKLOADS.items():
        entry = load_reference(name, workload_config(workload))
        assert entry["e_ref_j"] > 0
        assert entry["method"] in ("richardson", "finest")


def test_scaled_time_cancels_host_speed():
    from hostspeed import REFERENCE_S, HostProbe, scaled

    assert scaled(2.0, REFERENCE_S) == pytest.approx(2.0)
    # a host half as fast takes twice as long for the run and for the probe
    assert scaled(4.0, 2 * REFERENCE_S) == pytest.approx(2.0)
    # a run between two probe samples is scaled by their mean
    assert scaled(3.0, REFERENCE_S, 3 * REFERENCE_S) == pytest.approx(1.5)

    probe = HostProbe(repeats=1)
    t = probe.sample()
    assert t > 0 and probe.samples == [t]
